"""Multigraded monomial bases and section spaces.

A grading assigns each variable an integer weight vector; section spaces
are explicit spans of homogeneous polynomials with eagerly verified
linear independence.  All solving is exact, via the one fraction-free
elimination in `linalg`: a space reduces its coefficient matrix once, and
every coordinate computation reuses that reduction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Mapping, Sequence

from .linalg import ExactMatrix, coefficient_matrix, combine
from .poly import Polynomial, Registry, _scalar


class UnboundedDegreeCone(ValueError):
    """The grading admits infinitely many monomials of the requested degree."""


class Grading:
    """Per-variable integer weight vectors of a common length."""

    def __init__(self, registry: Registry, weights: Mapping[str, Sequence[int]]):
        self.registry = registry
        lengths = {len(w) for w in weights.values()}
        if len(lengths) > 1:
            raise ValueError("all weight vectors must have the same length")
        self.ncomponents = lengths.pop() if lengths else 1
        self.weights = {name: tuple(w) for name, w in weights.items()}
        for name in self.weights:
            registry.index(name)

    def multidegree(self, f: Polynomial) -> tuple[int, ...] | None:
        """Common multidegree of f's terms, or None if inhomogeneous.

        Variables outside the grading must not occur in f.
        """
        if f.is_zero():
            return None
        reg = f.registry
        degree = None
        for e in f.exponents():
            d = [0] * self.ncomponents
            for i, k in enumerate(e):
                if k == 0:
                    continue
                name = reg.names[i]
                if name not in self.weights:
                    return None
                for comp, w in enumerate(self.weights[name]):
                    d[comp] += k * w
            d = tuple(d)
            if degree is None:
                degree = d
            elif degree != d:
                return None
        return degree


#: scalars only: the registry of the weight systems `_positive_functional` solves
_SCALARS = Registry(())


def _positive_functional(vectors: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """An integral functional phi with phi . w >= 1 for every weight vector.

    Existence certifies that every degree has finitely many monomials.
    Exact: if {phi : W phi >= 1} is not empty it has a point where some
    rank(W) independent rows S of W are tight, and any solution of
    W_S phi = 1 then gives the same W phi, as the rows S span those of W.
    Sets S of up to as many rows as components are tried, smallest
    first; the empty set covers a grading without variables.  The
    rational solution found is multiplied by the lcm of its
    denominators, which keeps W phi >= 1.
    """
    ncomp = len(vectors[0]) if vectors else 0
    for size in range(min(len(vectors), ncomp) + 1):
        for rows in combinations(vectors, size):
            phi = ExactMatrix(_SCALARS, rows).solve([1] * size)
            if phi is None:
                continue
            phi = [p.constant_value() for p in phi]
            if all(sum(map(mul, phi, vec)) >= 1 for vec in vectors):
                scale = lcm(*[p.denominator for p in phi])
                return tuple(int(p * scale) for p in phi)
    return None


def monomial_basis(
    registry: Registry,
    grading: Grading,
    multidegree: Sequence[int],
    variables: Sequence[str] | None = None,
) -> list[Polynomial]:
    """All monomials in `variables` of exactly the given multidegree.

    Complete by construction: enumeration is bounded by a positive
    functional on the weight vectors, whose absence raises
    `UnboundedDegreeCone`.  Returned in descending graded lex order.
    """
    if variables is None:
        variables = list(grading.weights)
    target = tuple(multidegree)
    if len(target) != grading.ncomponents:
        raise ValueError("multidegree length does not match the grading")
    vecs = [grading.weights[v] for v in variables]
    phi = _positive_functional(vecs)
    if phi is None:
        raise UnboundedDegreeCone(
            "no positive functional on the weight vectors; degree cone unbounded"
        )
    # exponent k of variable i spends k * steps[i] >= k of the budget phi . target,
    # and what is left always equals phi . (the multidegree still to reach)
    steps = [sum(map(mul, phi, w)) for w in vecs]
    last = len(vecs) - 1
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: tuple[int, ...], budget: int, expo: tuple[int, ...]):
        w, step = vecs[i], steps[i]
        if i == last:
            # remaining = k * w forces budget = phi . remaining = k * step
            k = budget // step
            if k >= 0 and all(r == k * x for r, x in zip(remaining, w)):
                out.append(expo + (k,))
            return
        for k in range(budget // step + 1):
            rec(i + 1, tuple([r - k * x for r, x in zip(remaining, w)]),
                budget - k * step, expo + (k,))

    if vecs:
        rec(0, target, sum(map(mul, phi, target)), ())
    elif not any(target):
        out.append(())
    # lift exponents on `variables` to full registry monomials
    idx = [registry.index(v) for v in variables]
    monomials = []
    for expo in out:
        full = [0] * len(registry.names)
        for j, k in zip(idx, expo):
            full[j] = k
        monomials.append(tuple(full))
    monomials.sort(key=lambda e: (sum(e), e), reverse=True)
    return [Polynomial(registry, {m: 1}) for m in monomials]


class SectionSpace:
    """A finite-dimensional span of homogeneous polynomials.

    Basis independence is verified eagerly; basis elements must have
    rational coefficients on coordinate-variable monomials.
    """

    def __init__(
        self,
        registry: Registry,
        basis: Sequence[Polynomial],
        multidegree: tuple[int, ...] | None = None,
        grading: Grading | None = None,
    ):
        self.registry = registry
        self.basis = list(basis)
        self.multidegree = multidegree
        if grading is not None and multidegree is not None:
            for b in self.basis:
                if grading.multidegree(b) != tuple(multidegree):
                    raise ValueError(
                        f"basis element {b} is not homogeneous of degree {multidegree}"
                    )
        # reduced once here; every `coords` call only combines its right-hand side
        self._monomials, self._matrix = coefficient_matrix(registry, self.basis)
        if len(self._matrix._augmented()[1]) != len(self.basis):
            raise ValueError("basis elements are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, f: Polynomial) -> list[Polynomial] | None:
        """Exact coordinates of f in the basis, or None if f is outside.

        Coefficients may be polynomials in non-coordinate (parameter)
        variables; the basis itself must be rational.
        """
        return coords_in_space(f, self)

    def contains(self, f: Polynomial) -> bool:
        return self.coords(f) is not None

    def same_span(self, other: "SectionSpace") -> bool:
        return (
            self.dim == other.dim
            and all(other.contains(b) for b in self.basis)
        )


def coords_in_space(f: Polynomial, space: SectionSpace) -> list[Polynomial] | None:
    """Solve f = sum c_i b_i exactly; c_i polynomial in parameter variables."""
    coord_names = set()
    for b in space.basis:
        coord_names.update(b.variables())
    split = f.coefficients_in(coord_names)
    # any coordinate monomial of f outside the basis support is fatal
    if not set(split).issubset(space._monomials):
        return None
    return space._matrix.solve([split.get(e, space.registry.zero) for e in space._monomials])


def _binary_coefficients(form: Polynomial, t0: str, t1: str, degree: int):
    """Coefficients [a_0..a_degree] of t0^(d-j) t1^j; entries are Fractions."""
    reg = form.registry
    i0, i1 = reg.index(t0), reg.index(t1)
    coeffs = [Fraction(0)] * (degree + 1)
    for e in form.exponents():
        if e[i0] + e[i1] != degree or any(
            k for i, k in enumerate(e) if i not in (i0, i1)
        ):
            raise ValueError("restriction is not a binary form of the common degree")
        coeffs[e[i1]] += form.coefficient(e)
    return coeffs


def restricted_order_subspace(
    space: SectionSpace,
    curve: Mapping[str, Polynomial],
    conditions: Sequence[tuple[tuple[Fraction, Fraction], int]],
    binary_vars: tuple[str, str],
) -> SectionSpace:
    """Sections whose restriction along the curve vanishes to given orders.

    Each condition is ((alpha, beta), k): vanishing order >= k at the
    point [alpha : beta] of the parameter line.  Orders at general points
    are computed through the linear coordinate change
    t0 -> alpha*t0, t1 -> beta*t0 + t1, keeping everything polynomial.
    """
    reg = space.registry
    t0, t1 = binary_vars
    restrictions = [b.substitute(curve) for b in space.basis]
    degrees = {r.total_degree() for r in restrictions if not r.is_zero()}
    if len(degrees) > 1:
        raise ValueError(f"inconsistent restricted degrees {sorted(degrees)}")
    if not degrees:
        return SectionSpace(reg, list(space.basis), space.multidegree)
    d = degrees.pop()

    constraint_rows: list[list[Fraction]] = []
    for (alpha, beta), order in conditions:
        alpha, beta = _scalar(alpha), _scalar(beta)
        if alpha == 0 and beta == 0:
            raise ValueError("point must be nonzero")
        per_basis = []
        for r in restrictions:
            if r.is_zero():
                per_basis.append([Fraction(0)] * (d + 1))
                continue
            if alpha == 0:
                # order at [0:1] is the order in t0
                coeffs = _binary_coefficients(r, t0, t1, d)
                per_basis.append(list(reversed(coeffs)))
            else:
                moved = r.substitute(
                    {
                        t0: reg.var(t0).scale(alpha),
                        t1: reg.var(t0).scale(beta) + reg.var(t1),
                    }
                )
                per_basis.append(_binary_coefficients(moved, t0, t1, d))
        for j in range(min(order, d + 1)):
            constraint_rows.append([per_basis[i][j] for i in range(space.dim)])

    matrix = ExactMatrix(reg, constraint_rows)
    kernel = matrix.kernel()
    new_basis = [combine(reg, vec, space.basis) for vec in kernel]
    return SectionSpace(reg, new_basis, space.multidegree)
