"""Parametric algebraic group actions by coordinate substitution.

An action is a substitution rule per coordinate with formal group
parameters; everything downstream (group-law verification, Lie
derivations, semi-invariants, stabilizer ideals) is symbolic and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import coefficient_matrix, combine
from .poly import Derivation, Polynomial, Registry
from .sections import SectionSpace, coords_in_space


class ActionError(ValueError):
    pass


@dataclass(frozen=True)
class ParametricAction:
    """A group acting on coordinates through polynomial substitution rules.

    `images[x]` is the coordinate of the moved point, polynomial in the
    coordinates and the group parameters.  `identity` gives the parameter
    values of the neutral element; substituting them must recover each
    coordinate on the nose.
    """

    registry: Registry
    params: tuple[str, ...]
    images: Mapping[str, Polynomial]
    factors: tuple[tuple[str, ...], ...]
    identity: Mapping[str, Fraction]

    def __post_init__(self):
        reg = self.registry
        id_assignment = {p: reg.const(v) for p, v in self.identity.items()}
        for name, img in self.images.items():
            at_identity = img.substitute(id_assignment)
            if at_identity != reg.var(name):
                raise ActionError(
                    f"identity parameters do not fix coordinate {name}: {at_identity}"
                )

    def act_on_section(self, f: Polynomial) -> Polynomial:
        """Pullback: compose f with the point-action substitution."""
        return f.substitute(dict(self.images))

    def at_params(self, values: Mapping[str, Polynomial | Fraction | int]) -> dict[str, Polynomial]:
        """The substitution rule with (some) parameters specialized."""
        reg = self.registry
        assignment = {
            p: reg.const(v) if isinstance(v, (int, Fraction)) else v
            for p, v in values.items()
        }
        return {name: img.substitute(assignment) for name, img in self.images.items()}


@dataclass(frozen=True)
class GroupLaw:
    """Composition rule: parameter -> polynomial in (params, primed params)."""

    rule: Mapping[str, Polynomial]
    primed: Mapping[str, str]  # param name -> primed-copy variable name


@dataclass
class GroupLawReport:
    ok: bool
    witness: Polynomial | None = None


def verify_group_law(action: ParametricAction, law: GroupLaw) -> GroupLawReport:
    """Check that acting twice matches acting by the law-composed element.

    Both group elements stay fully formal.  Per projective factor the
    composed substitution must be proportional to the substitution at the
    composed parameters; otherwise the first failing cross-difference is
    reported.
    """
    reg = action.registry
    prime_assignment = {p: reg.var(law.primed[p]) for p in action.params}
    sigma = dict(action.images)
    sigma_prime = {n: img.substitute(prime_assignment) for n, img in sigma.items()}
    composed = {n: img.substitute(sigma) for n, img in sigma_prime.items()}
    target = {n: img.substitute(dict(law.rule)) for n, img in sigma.items()}
    for factor in action.factors:
        for i, ni in enumerate(factor):
            for nj in factor[i + 1:]:
                cross = composed[ni] * target[nj] - composed[nj] * target[ni]
                if not cross.is_zero():
                    return GroupLawReport(ok=False, witness=cross)
    return GroupLawReport(ok=True)


def lie_derivation(action: ParametricAction, direction: str) -> Derivation:
    """Infinitesimal generator along one parameter direction.

    Substitutes identity values except `direction`, which moves by the
    registry variable `eps`, and extracts the eps-linear part of every
    coordinate image.
    """
    if direction not in action.params:
        raise ActionError(f"{direction!r} is not a group parameter")
    reg = action.registry
    assignment = {}
    for p in action.params:
        base = reg.const(action.identity[p])
        assignment[p] = base + reg.var("eps") if p == direction else base
    images = {}
    for name, img in action.images.items():
        moved = img.substitute(assignment)
        linear = moved.coefficient_of("eps", 1)
        if not linear.is_zero():
            images[name] = linear
    return Derivation(reg, images)


def _eigenweight(derivation: Derivation, f: Polynomial) -> Fraction:
    """w with derivation(f) = w*f, or raise if f is not an eigenvector."""
    image = derivation(f)
    if image.is_zero():
        return Fraction(0)
    q = image.exact_divide(f)
    if q is None or not q.is_constant():
        raise ActionError(f"torus derivation is not diagonal on {f}")
    return q.constant_value()


def semi_invariant_lines(
    space: SectionSpace,
    torus_derivation: Derivation,
    nilpotent_derivation: Derivation,
) -> list[Polynomial]:
    """All Borel-semi-invariant lines of the space, up to scalar.

    A semi-invariant line is spanned by a torus-weight vector killed by
    the nilpotent direction (the nilpotent derivation strictly shifts
    weight, so this is exhaustive).  Basis elements must be torus
    eigenvectors.
    """
    reg = space.registry
    buckets: dict[Fraction, list[Polynomial]] = {}
    for b in space.basis:
        buckets.setdefault(_eigenweight(torus_derivation, b), []).append(b)
    lines: list[Polynomial] = []
    for _, elems in sorted(buckets.items()):
        images = [nilpotent_derivation(b) for b in elems]
        monomials, matrix = coefficient_matrix(reg, images)
        if not monomials:
            lines.extend(b.primitive_normal() for b in elems)
            continue
        for vec in matrix.kernel():
            lines.append(combine(reg, vec, elems).primitive_normal())
    return lines


@dataclass
class StabilizerConditions:
    """Generators (in group and family parameters) of the condition ideal.

    All generators vanish at the identity parameters; they vanish
    identically iff the section is semi-invariant.
    """

    generators: list[Polynomial]

    def is_trivial(self) -> bool:
        return not self.generators


def stabilizer_conditions(
    f: Polynomial,
    action: ParametricAction,
    space: SectionSpace,
    unit_params: Sequence[str] = (),
) -> StabilizerConditions:
    """2x2 minors forcing act(f) proportional to f inside the space.

    Generators are normalized by stripping monomial factors in the unit
    parameters (the torus coordinate is invertible on the group) and the
    rational content.
    """
    u = coords_in_space(f, space)
    if u is None:
        raise ActionError("section lies outside the given space")
    g = action.act_on_section(f)
    w = coords_in_space(g, space)
    if w is None:
        raise ActionError("transformed section lies outside the given space")
    reg = action.registry
    generators: list[Polynomial] = []
    seen: set[Polynomial] = set()
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            minor = u[i] * w[j] - u[j] * w[i]
            if minor.is_zero():
                continue
            for p in unit_params:
                minor = minor.strip_variable_factor(p)
            minor = minor.primitive_normal()
            if minor not in seen:
                seen.add(minor)
                generators.append(minor)
    conds = StabilizerConditions(generators)
    id_assignment = {p: reg.const(v) for p, v in action.identity.items()}
    for gen in generators:
        if not gen.substitute(id_assignment).is_zero():
            raise ActionError(f"generator {gen} does not vanish at the identity")
    return conds


def conditions_equal_principal(
    conds: StabilizerConditions,
    candidate: Polynomial,
    unit_params: Sequence[str] = (),
) -> bool:
    """True iff the condition ideal is principal with the stated generator.

    Certified by: the candidate divides every generator exactly, and is
    itself attained among the generators up to a rational scalar and a
    monomial in the unit parameters.
    """
    if candidate.is_zero():
        raise ValueError("candidate generator must be nonzero")
    if conds.is_trivial():
        return False
    normal_candidate = candidate
    for p in unit_params:
        normal_candidate = normal_candidate.strip_variable_factor(p)
    normal_candidate = normal_candidate.primitive_normal()
    attained = False
    for g in conds.generators:
        if g.exact_divide(candidate) is None:
            return False
        stripped = g
        for p in unit_params:
            stripped = stripped.strip_variable_factor(p)
        if stripped.primitive_normal() == normal_candidate:
            attained = True
    return attained


def action_preserves_space(action: ParametricAction, space: SectionSpace) -> bool:
    """Whether the space is a subrepresentation: act(b) lies in it for every basis element b."""
    return all(coords_in_space(action.act_on_section(b), space) is not None
               for b in space.basis)
