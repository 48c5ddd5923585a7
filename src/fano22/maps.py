"""Rational maps as polynomial tuples, checked modulo principal ideals.

Composition never cancels common divisors; every equality downstream is
"proportional modulo the hypersurface", which only needs exact division
by the principal modulus.

Each 2x2 minor c_ij = A_i B_j - A_j B_i is one `poly.cross`.  Pivot lemma:
B_k c_ij = B_j c_ik - B_i c_jk, so in the UFD Q[vars] a modulus f coprime to
B_k that divides every c_ik divides every c_ij (without one, f = 0, B_k != 0).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .linalg import coefficient_matrix
from .poly import _MASK, FIELD_BITS, Polynomial, Registry, cross


class MapError(ValueError):
    pass


class RationalMap:
    """A tuple of polynomials between (multi)projective spaces.

    `modulus`, when present, is the source hypersurface equation; all
    comparisons involving the map are taken modulo it.
    """

    __slots__ = ("registry", "source_vars", "target_vars", "components", "modulus")

    def __init__(self, registry: Registry, source_vars: tuple[str, ...],
                 target_vars: tuple[str, ...], components: tuple[Polynomial, ...],
                 modulus: Polynomial | None = None):
        if len(components) != len(target_vars):
            raise MapError("one component per target coordinate required")
        if all(c.is_zero() for c in components):
            raise MapError("components must not all vanish")
        self.registry = registry
        self.source_vars = source_vars
        self.target_vars = target_vars
        self.components = components
        self.modulus = modulus

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


def cross_differences(A: Sequence[Polynomial], B: Sequence[Polynomial]) -> Iterator[Polynomial]:
    """Every nonzero A_i B_j - A_j B_i with i < j, in (i, j) order."""
    if len(A) != len(B):
        raise MapError("tuple lengths differ")
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            minor = cross(A[i], B[j], A[j], B[i])
            if not minor.is_zero():
                yield minor


def proportional_mod(
    A: Sequence[Polynomial],
    B: Sequence[Polynomial],
    modulus: Polynomial | None,
) -> tuple[bool, Polynomial | None]:
    """Whether the tuples agree projectively modulo the hypersurface.

    True iff every cross-difference A_i B_j - A_j B_i is divisible by the
    modulus (identically zero when the modulus is absent); otherwise the
    first offending one of `cross_differences` is returned as witness.

    With a pivot k (`_pivot`), the n - 1 minors c_ik decide a pass, as
    B_k c_ij = B_j c_ik - B_i c_jk with B_k coprime to the modulus.  That
    pass only answers True; a minor it cannot divide, or any raise, leaves
    the outcome to the full scan.
    """
    k = _pivot(A, B, modulus)
    if k is not None:
        minors = (cross(A[i], B[k], A[k], B[i]) for i in range(len(B)) if i != k)
        try:
            if all(c.is_zero() or modulus is not None and c.exact_divide(modulus) is not None
                   for c in minors):
                return True, None
        except Exception:  # the full scan below raises what it meets first
            pass
    for minor in cross_differences(A, B):
        if modulus is None or minor.exact_divide(modulus) is None:
            return False, minor
    return True, None


def _pivot(A: Sequence[Polynomial], B: Sequence[Polynomial],
           modulus: Polynomial | None) -> int | None:
    """The first k with B_k coprime to the modulus (B_k != 0 without one), or None.

    With a modulus, B_k is a nonzero constant or a term none of whose variables
    (each prime) divides it.  None also where a product of the full scan could
    reach the degree limit, as only that scan raises there.
    """
    if len(A) != len(B) or not A or max(map(Polynomial.total_degree, A)) + max(
            map(Polynomial.total_degree, B)) >= 1 << (FIELD_BITS - 1):
        return None
    for k, b in enumerate(B):
        t = b._terms
        if t and (modulus is None or len(t) == 1 and not any(
                (key >> s) & _MASK and all((m >> s) & _MASK for m in modulus._terms)
                for key in t for s in b.registry._shifts)):
            return k
    return None


def image_in_hypersurface(mp: RationalMap, F: Polynomial) -> bool:
    """Whether F vanishes on the image (modulo the source hypersurface)."""
    pulled = F.substitute(dict(zip(mp.target_vars, mp.components)))
    if pulled.is_zero():
        return True
    return mp.modulus is not None and pulled.exact_divide(mp.modulus) is not None


# -- parametrized curves --------------------------------------------------


class ParamCurve:
    """A tuple of binary forms of common degree in two curve parameters."""

    __slots__ = ("registry", "param_vars", "components")

    def __init__(self, registry: Registry, param_vars: tuple[str, str],
                 components: tuple[Polynomial, ...]):
        self.registry = registry
        self.param_vars = param_vars
        self.components = components
        if all(c.is_zero() for c in components):
            raise MapError("curve components must not all vanish")
        if self.degree() is None:
            raise MapError("components must be binary forms of a common degree")

    def degree(self) -> int | None:
        reg = self.registry
        s0, s1 = (reg._shifts[reg.index(t)] for t in self.param_vars)
        degrees = {((k >> s0) & _MASK) + ((k >> s1) & _MASK)
                   for c in self.components for k in c._terms}
        return degrees.pop() if len(degrees) == 1 else None

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
) -> tuple[bool, Polynomial | None]:
    """Whether act-then-map is proportional to map-then-act (mod modulus).

    The comparison is projective, so a semi-commutation with an inverse
    action passes that inverse as `tgt_images` with denominators cleared
    (the inverse of w_i -> lam^i * w_i on P^4 is w_i -> lam^(4-i) * w_i).

    Returns (ok, scalar) on success (scalar None when only determined
    modulo the hypersurface), (False, witness) on failure.
    """
    A = [c.substitute(dict(src_images)) for c in mp.components]
    B = [
        tgt_images.get(n, mp.registry.var(n)).substitute(
            dict(zip(mp.target_vars, mp.components))
        )
        for n in mp.target_vars
    ]
    ok, witness = proportional_mod(A, B, mp.modulus)
    if not ok:
        return False, witness
    scalar = None
    for a, b in zip(A, B):
        if not b.is_zero():
            scalar = a.exact_divide(b)
            break
    return True, scalar


# -- tangent directions at the fixed point --------------------------------


class TangentDirection:
    """A point of P^1 given as [alpha : beta] with polynomial entries.

    Equality is projective, so directions are not hashable.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Polynomial, beta: Polynomial):
        self.alpha = alpha
        self.beta = beta

    def __eq__(self, other) -> bool:
        if other is INFINITY:
            return self.beta.is_zero() and not self.alpha.is_zero()
        if isinstance(other, (int, Fraction)):
            return (self.alpha - self.beta.scale(other)).is_zero()
        if isinstance(other, Polynomial):
            return (self.alpha - self.beta * other).is_zero()
        if isinstance(other, TangentDirection):
            return cross(self.alpha, other.beta, self.beta, other.alpha).is_zero()
        return NotImplemented

    def __repr__(self):
        if self.beta.is_zero():
            return "TangentDirection(inf)"
        return f"TangentDirection([{self.alpha} : {self.beta}])"


class _Infinity:
    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


def affine_jet(
    f: Polynomial, xname: str, yname: str
) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The 1-jet at the origin: (const, alpha, beta) of const + alpha*x + beta*y + h.o.t."""
    const = f.coefficient_of(xname, 0).coefficient_of(yname, 0)
    alpha = f.coefficient_of(xname, 1).coefficient_of(yname, 0)
    beta = f.coefficient_of(yname, 1).coefficient_of(xname, 0)
    return const, alpha, beta


def tangent_of_affine(
    f: Polynomial, xname: str, yname: str
) -> TangentDirection:
    """Linear-part direction alpha/beta of a curve alpha*x + beta*y + h.o.t."""
    const, alpha, beta = affine_jet(f, xname, yname)
    if not const.is_zero():
        raise MapError("curve does not pass through the origin")
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
