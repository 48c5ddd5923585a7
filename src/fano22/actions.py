"""Parametric algebraic group actions by coordinate substitution.

An action is a substitution rule per coordinate with formal group
parameters; everything downstream (group-law verification, Lie
derivations, semi-invariants, stabilizer ideals) is symbolic and exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import coefficient_matrix, combine
from .maps import cross_differences, proportional_mod
from .poly import Derivation, Polynomial, Registry
from .sections import SectionSpace, coords_in_space


class ActionError(ValueError):
    pass


class ParametricAction:
    """A group acting on coordinates through polynomial substitution rules.

    `images[x]` is the coordinate of the moved point, polynomial in the
    coordinates and the group parameters.  `identity` gives the parameter
    values of the neutral element; substituting them must recover each
    coordinate on the nose.  Immutable by convention; besides its
    arguments it keeps the identity point and the self-compositions.
    """

    __slots__ = ("registry", "params", "images", "factors", "identity", "_identity_point",
                 "_self_compositions")

    def __init__(self, registry: Registry, params: tuple[str, ...],
                 images: Mapping[str, Polynomial], factors: tuple[tuple[str, ...], ...],
                 identity: Mapping[str, Fraction]):
        self.registry = registry
        self.params = params
        self.images = images
        self.factors = factors
        self.identity = identity
        self._self_compositions: dict[tuple[str, ...], dict[str, Polynomial]] = {}
        self._identity_point = {p: registry.const(v) for p, v in identity.items()}
        for name, img in images.items():
            fixed = self.at_identity(img)
            if fixed != self.registry.var(name):
                raise ActionError(f"identity parameters do not fix coordinate {name}: {fixed}")

    def at_identity(self, f: Polynomial) -> Polynomial:
        """f with every group parameter set to its value at the identity."""
        return f.substitute(self._identity_point)

    def act_on_section(self, f: Polynomial) -> Polynomial:
        """Pullback: compose f with the point-action substitution."""
        return f.substitute(dict(self.images))

    def self_composition(self, primed: tuple[str, ...]) -> dict[str, Polynomial]:
        """sigma after sigma': the images with `params` renamed to `primed`, then acted on.

        Kept per tuple of primed names, so every group law with the same
        primed copies substitutes it once; a raise is not kept.
        """
        if primed not in self._self_compositions:
            renaming = {p: self.registry.var(q) for p, q in zip(self.params, primed)}
            sigma = dict(self.images)
            self._self_compositions[primed] = {
                n: img.substitute(renaming).substitute(sigma) for n, img in self.images.items()}
        return self._self_compositions[primed]


class GroupLaw:
    """Composition rule: parameter -> polynomial in (params, primed params)."""

    __slots__ = ("rule", "primed")

    def __init__(self, rule: Mapping[str, Polynomial], primed: Mapping[str, str]):
        self.rule = rule
        self.primed = primed  # param name -> primed-copy variable name


def verify_group_law(action: ParametricAction, law: GroupLaw) -> tuple[bool, Polynomial | None]:
    """Check that acting twice matches acting by the law-composed element.

    Both group elements stay fully formal.  Per projective factor the
    composed substitution (`ParametricAction.self_composition`) must be
    proportional to the substitution at the composed parameters
    (`proportional_mod`); otherwise the first failing cross-difference is
    returned as witness.
    """
    composed = action.self_composition(tuple(law.primed[p] for p in action.params))
    target = {n: img.substitute(dict(law.rule)) for n, img in action.images.items()}
    for factor in action.factors:
        ok, witness = proportional_mod([composed[n] for n in factor],
                                       [target[n] for n in factor], None)
        if not ok:
            return False, witness
    return True, None


def lie_derivation(action: ParametricAction, direction: str) -> Derivation:
    """Infinitesimal generator along one parameter direction.

    Sends each coordinate x to the partial derivative of its image along
    `direction`, evaluated at the identity (`at_identity`); coordinates
    whose derivative vanishes there are left out.
    """
    if direction not in action.params:
        raise ActionError(f"{direction!r} is not a group parameter")
    reg = action.registry
    partial = Derivation(reg, {direction: reg.one})
    images = {}
    for name, img in action.images.items():
        linear = action.at_identity(partial(img))
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
    """All Borel-semi-invariant lines of the space, up to scalar, by ascending weight.

    A semi-invariant line is spanned by a torus-weight vector killed by
    the nilpotent direction (the nilpotent derivation strictly shifts
    weight, so this is exhaustive).  Basis elements must be torus
    eigenvectors.  A weight space of one vector b needs no matrix: its
    line is semi-invariant exactly when the derivation kills b.  A larger
    one contributes the kernel of its images' coefficient matrix.
    """
    reg = space.registry
    buckets: dict[Fraction, list[Polynomial]] = {}
    for b in space.basis:
        buckets.setdefault(_eigenweight(torus_derivation, b), []).append(b)
    lines: list[Polynomial] = []
    for _, elems in sorted(buckets.items()):
        images = [nilpotent_derivation(b) for b in elems]
        if len(elems) == 1:
            if images[0].is_zero():
                lines.append(elems[0].primitive_normal())
            continue
        for vec in coefficient_matrix(reg, images)[1].kernel():
            lines.append(combine(reg, vec, elems).primitive_normal())
    return lines


def stabilizer_conditions(
    f: Polynomial,
    action: ParametricAction,
    space: SectionSpace,
    unit_params: Sequence[str] = (),
) -> list[Polynomial]:
    """Generators of the condition ideal: 2x2 minors forcing act(f) proportional to f.

    The generators are polynomials in group and family parameters.  All
    vanish at the identity parameters, and there are none iff the section
    is semi-invariant.  They are normalized by stripping monomial factors
    in the unit parameters (the torus coordinate is invertible on the
    group) and the rational content.

    For a family f(v) and an action free of v, the generators at v = v0
    are `_conditions` of the raw minors of f(v) (`_minors`) with v0
    substituted: solving against the constant basis matrix, the action
    and the minors all commute with v -> v0.  Normalization does not (the
    torus family's generator a*(v+4) is 6*a at v = 2 and vanishes at
    v = -4), so it runs after specializing.
    """
    return _conditions(_minors(f, action, space), action, unit_params)


def _minors(f: Polynomial, action: ParametricAction, space: SectionSpace) -> list[Polynomial]:
    """The nonzero raw 2x2 minors of (coords of f, coords of act(f)), in (i, j) order.

    Raises `ActionError` when f or act(f) lies outside the space.
    """
    u = coords_in_space(f, space)
    if u is None:
        raise ActionError("section lies outside the given space")
    w = coords_in_space(action.act_on_section(f), space)
    if w is None:
        raise ActionError("transformed section lies outside the given space")
    return list(cross_differences(u, w))


def _conditions(
    minors: Sequence[Polynomial],
    action: ParametricAction,
    unit_params: Sequence[str],
) -> list[Polynomial]:
    """The nonzero minors normalized, each kept where it is first seen.

    Raises unless every generator vanishes at the identity parameters.
    """
    generators = list(dict.fromkeys(
        _normalize(minor, unit_params) for minor in minors if not minor.is_zero()))
    for gen in generators:
        if not action.at_identity(gen).is_zero():
            raise ActionError(f"generator {gen} does not vanish at the identity")
    return generators


def _normalize(f: Polynomial, unit_params: Sequence[str]) -> Polynomial:
    """f stripped of monomial factors in the unit parameters, then primitive."""
    for p in unit_params:
        f = f.strip_variable_factor(p)
    return f.primitive_normal()


def conditions_equal_principal(
    conds: Sequence[Polynomial],
    candidate: Polynomial,
    unit_params: Sequence[str] = (),
) -> bool:
    """True iff the condition ideal is principal with the stated generator.

    `conds` must come from `stabilizer_conditions` with the same
    `unit_params`, so each is already stripped of unit-parameter factors
    and primitive.  Certified by: the candidate divides every generator
    exactly, and is itself attained among the generators up to a
    rational scalar and a monomial in the unit parameters.
    """
    if candidate.is_zero():
        raise ValueError("candidate generator must be nonzero")
    return (all(g.exact_divide(candidate) is not None for g in conds)
            and _normalize(candidate, unit_params) in conds)


def action_preserves_space(action: ParametricAction, space: SectionSpace) -> bool:
    """Whether the space is a subrepresentation: act(b) lies in it for every basis element b."""
    return all(coords_in_space(action.act_on_section(b), space) is not None
               for b in space.basis)
