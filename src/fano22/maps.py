"""Rational maps as polynomial tuples, checked modulo principal ideals.

Composition never cancels common divisors; every equality downstream is
"proportional modulo the hypersurface", which only needs exact division
by the principal modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import coefficient_matrix
from .poly import Polynomial, Registry


class MapError(ValueError):
    pass


@dataclass(frozen=True)
class RationalMap:
    """A tuple of polynomials between (multi)projective spaces.

    `modulus`, when present, is the source hypersurface equation; all
    comparisons involving the map are taken modulo it.
    """

    registry: Registry
    source_vars: tuple[str, ...]
    target_vars: tuple[str, ...]
    components: tuple[Polynomial, ...]
    modulus: Polynomial | None = None

    def __post_init__(self):
        if len(self.components) != len(self.target_vars):
            raise MapError("one component per target coordinate required")
        if all(c.is_zero() for c in self.components):
            raise MapError("components must not all vanish")

    def __call__(self, point: Sequence[Fraction]) -> list[Fraction]:
        """Evaluate at a rational point of the source."""
        assignment = {
            n: self.registry.const(v) for n, v in zip(self.source_vars, point)
        }
        out = []
        for c in self.components:
            value = c.substitute(assignment)
            if not value.is_constant():
                raise MapError("point evaluation left free variables")
            out.append(value.constant_value())
        return out


def compose(g: RationalMap, f: RationalMap) -> RationalMap:
    """g after f, by componentwise substitution (no cancellation)."""
    if len(f.components) != len(g.source_vars):
        raise MapError("target of f does not match source of g")
    assignment = dict(zip(g.source_vars, f.components))
    return RationalMap(
        f.registry,
        f.source_vars,
        g.target_vars,
        tuple(c.substitute(assignment) for c in g.components),
        f.modulus,
    )


def proportional_mod(
    A: Sequence[Polynomial],
    B: Sequence[Polynomial],
    modulus: Polynomial | None,
) -> tuple[bool, Polynomial | None]:
    """Whether the tuples agree projectively modulo the hypersurface.

    True iff every cross-difference A_i B_j - A_j B_i is divisible by the
    modulus (identically zero when the modulus is absent); otherwise the
    first offending cross-difference is returned as witness.
    """
    if len(A) != len(B):
        raise MapError("tuple lengths differ")
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            cross = A[i] * B[j] - A[j] * B[i]
            if cross.is_zero():
                continue
            if modulus is None or cross.exact_divide(modulus) is None:
                return False, cross
    return True, None


def image_in_hypersurface(mp: RationalMap, F: Polynomial) -> bool:
    """Whether F vanishes on the image (modulo the source hypersurface)."""
    pulled = F.substitute(dict(zip(mp.target_vars, mp.components)))
    if pulled.is_zero():
        return True
    return mp.modulus is not None and pulled.exact_divide(mp.modulus) is not None


# -- parametrized curves --------------------------------------------------


@dataclass(frozen=True)
class ParamCurve:
    """A tuple of binary forms of common degree in two curve parameters."""

    registry: Registry
    param_vars: tuple[str, str]
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        if all(c.is_zero() for c in self.components):
            raise MapError("curve components must not all vanish")
        if self.degree() is None:
            raise MapError("components must be binary forms of a common degree")

    def degree(self) -> int | None:
        t0, t1 = self.param_vars
        reg = self.registry
        i0, i1 = reg.index(t0), reg.index(t1)
        degree = None
        for c in self.components:
            for e in c.exponents():
                d = e[i0] + e[i1]
                if degree is None:
                    degree = d
                elif degree != d:
                    return None
        return degree

    def substitution(self, targets: Sequence[str]) -> dict[str, Polynomial]:
        return dict(zip(targets, self.components))


def is_rational_normal_curve(curve: ParamCurve) -> bool:
    """Whether the components are a basis of the binary forms of degree d.

    That is the definition of a rational normal curve of degree d in P^d:
    d + 1 components whose coefficients on t0^(d-j) t1^j (polynomials in
    any other variables, such as family parameters) have full rank.  A
    basis spans t0^d and t1^d, so the components share no factor and the
    map has no base point.
    """
    comps = curve.components
    if len(comps) != curve.degree() + 1:
        return False
    _, matrix = coefficient_matrix(curve.registry, comps, curve.param_vars)
    return matrix.rank() == len(comps)


def equivariance_up_to_scalar(
    mp: RationalMap,
    src_images: Mapping[str, Polynomial],
    tgt_images: Mapping[str, Polynomial],
    invert: tuple[str, str] | None = None,
) -> tuple[bool, Polynomial | None]:
    """Whether act-then-map is proportional to map-then-act (mod modulus).

    For semi-commutation checks, `invert = (param, inv_var)` replaces the
    target parameter by a formal inverse, cleared afterwards through a
    uniform power of the original parameter.

    Returns (ok, scalar) on success (scalar None when only determined
    modulo the hypersurface), (False, witness) on failure.
    """
    A = [c.substitute(dict(src_images)) for c in mp.components]
    tgt = dict(tgt_images)
    if invert is not None:
        param, inv = invert
        swap = {param: mp.registry.var(inv)}
        tgt = {n: img.substitute(swap) for n, img in tgt.items()}
    B = [
        tgt.get(n, mp.registry.var(n)).substitute(
            dict(zip(mp.target_vars, mp.components))
        )
        for n in mp.target_vars
    ]
    if invert is not None:
        param, inv = invert
        B = _clear_inverse(B, inv, param)
    ok, witness = proportional_mod(A, B, mp.modulus)
    if not ok:
        return False, witness
    scalar = None
    for a, b in zip(A, B):
        if not b.is_zero():
            scalar = a.exact_divide(b)
            break
    return True, scalar


def _clear_inverse(polys: Sequence[Polynomial], inv: str, base: str) -> list[Polynomial]:
    """Replace inv^k by base^(N-k) with N the maximal inv-degree of the tuple."""
    N = max((p.degree_in(inv) for p in polys if not p.is_zero()), default=0)
    reg = polys[0].registry
    out = []
    base_var = reg.var(base)
    for p in polys:
        acc = reg.zero
        for k in range(p.degree_in(inv) + 1):
            part = p.coefficient_of(inv, k)
            if not part.is_zero():
                acc = acc + part * base_var ** (N - k)
        out.append(acc)
    return out


# -- tangent directions at the fixed point --------------------------------


@dataclass(frozen=True)
class TangentDirection:
    """A point of P^1 given as [alpha : beta] with polynomial entries."""

    alpha: Polynomial
    beta: Polynomial

    def __eq__(self, other) -> bool:
        if other is INFINITY:
            return self.beta.is_zero() and not self.alpha.is_zero()
        if isinstance(other, (int, Fraction)):
            return (self.alpha - self.beta.scale(other)).is_zero()
        if isinstance(other, Polynomial):
            return (self.alpha - self.beta * other).is_zero()
        if isinstance(other, TangentDirection):
            return (self.alpha * other.beta - self.beta * other.alpha).is_zero()
        return NotImplemented

    def __hash__(self):
        return 0  # equality is projective; hashing is not meaningful

    def __repr__(self):
        if self.beta.is_zero():
            return "TangentDirection(inf)"
        return f"TangentDirection([{self.alpha} : {self.beta}])"


class _Infinity:
    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


def tangent_of_affine(
    f: Polynomial, xname: str, yname: str
) -> TangentDirection:
    """Linear-part direction alpha/beta of a curve alpha*x + beta*y + h.o.t."""
    if not f.coefficient_of(xname, 0).coefficient_of(yname, 0).is_zero():
        raise MapError("curve does not pass through the origin")
    alpha = f.coefficient_of(xname, 1).coefficient_of(yname, 0)
    beta = f.coefficient_of(yname, 1).coefficient_of(xname, 0)
    if alpha.is_zero() and beta.is_zero():
        raise MapError("vanishing linear part; tangent direction undefined")
    return TangentDirection(alpha, beta)


def tangent_parameter(f: Polynomial) -> TangentDirection:
    """Tangent direction at the fixed point of a bidegree-(1,1) section.

    Works in the affine chart (x, y) = (x0/x1, x1^3*y0/y1): dehomogenize
    by x1 = y1 = 1 and take the linear-part ratio; the conventions send
    the section-branch to 0, the fiber-branch to infinity, and the
    blow-down differential kernel x + y = 0 to 1.
    """
    reg = f.registry
    affine = f.substitute({"x1": reg.one, "y1": reg.one})
    return tangent_of_affine(affine, "x0", "y0")
