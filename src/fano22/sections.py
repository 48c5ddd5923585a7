"""Multigraded monomial bases and section spaces.

A grading assigns each variable an integer weight vector; section spaces
are explicit spans of homogeneous polynomials with eagerly verified
linear independence.  A basis lives on the registry's coordinate
variables, all but its group and family parameters, and a section's
coordinates in it are polynomials in those parameters.  All solving is
exact, via the one fraction-free elimination in `linalg`: a space
reduces its coefficient matrix once and keys each basis monomial's row
by its coordinate fields.  A coordinate computation then groups f's
integer numerators by those fields and runs the kept reduction on them,
one integer accumulation per coordinate.  Vanishing orders along a curve
are read off the `coefficient_matrix` of the restricted sections: the
conditions are its rows of low local exponent, the subspace their kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Mapping, Sequence

from .linalg import ExactMatrix, coefficient_matrix, combine
from .poly import Polynomial, Registry, RegistryMismatch, _scalar


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
        for name, w in self.weights.items():
            registry.index(name)
            if not all(isinstance(k, int) for k in w):
                raise TypeError(f"weights must be int, got {w!r} for {name}")

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
    rational coefficients on coordinate-variable monomials (free of group
    and family parameters), else ValueError.  `multidegree` and
    `grading`, when both given, check homogeneity and are not kept.
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
        if grading is not None and multidegree is not None:
            for b in self.basis:
                if grading.multidegree(b) != tuple(multidegree):
                    raise ValueError(
                        f"basis element {b} is not homogeneous of degree {multidegree}"
                    )
        # reduced once here; every `coords_in_space` call only accumulates
        # its right-hand side
        monomials, self._matrix = coefficient_matrix(registry, self.basis)
        if len(self._matrix._augmented()[1]) != len(self.basis):
            raise ValueError("basis elements are linearly dependent")
        keys = [registry._key(e) for e in monomials]
        if any(k & registry._parameters for k in keys):
            raise ValueError("basis elements must not involve group or family parameters")
        # (row, key) of each basis monomial by its coordinate fields
        self._rows = {k & registry._coordinates: (i, k) for i, k in enumerate(keys)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, f: Polynomial) -> bool:
        return coords_in_space(f, self) is not None

    def same_span(self, other: "SectionSpace") -> bool:
        return (
            self.dim == other.dim
            and all(other.contains(b) for b in self.basis)
        )


def coords_in_space(f: Polynomial, space: SectionSpace) -> list[Polynomial] | None:
    """Solve f = sum c_i b_i exactly; c_i polynomial in parameter variables.

    f's terms are grouped by their coordinate variables (all but the group
    and family parameters); None when f lies outside the space.
    """
    if f.registry is not space.registry:
        raise RegistryMismatch("section and space use different registries")
    mask, rows = space.registry._coordinates, space._rows
    groups: dict[int, dict[int, int]] = {}
    for k, v in f._terms.items():
        groups.setdefault(k & mask, {})[k] = v
    nums: list[dict[int, int]] = [{}] * len(rows)
    for part, members in groups.items():
        # any coordinate monomial of f outside the basis support is fatal
        if part not in rows:
            return None
        i, mono = rows[part]
        nums[i] = {k - mono: v for k, v in members.items()}
    return space._matrix._solve_numerators(nums, f._den)


def restricted_order_subspace(
    space: SectionSpace,
    curve: Mapping[str, Polynomial],
    conditions: Sequence[tuple[tuple[Fraction, Fraction], int]],
    binary_vars: tuple[str, str],
) -> SectionSpace:
    """Sections whose restriction along the curve vanishes to given orders.

    Each condition is ((alpha, beta), k): vanishing order >= k at the
    point [alpha : beta] of the parameter line, whose linear form is
    beta*t0 - alpha*t1.  At [0:1] that is the order in t0.  Any other
    point goes to t1 = 0 under the linear coordinate change
    t0 -> alpha*t0, t1 -> beta*t0 + t1, where it is the order in t1.  A
    condition keeps the rows of the restrictions' `coefficient_matrix`
    whose monomial has local exponent < k, and the subspace is the kernel
    of every kept row.
    """
    reg = space.registry
    t0, t1 = binary_vars
    i0, i1 = reg.index(t0), reg.index(t1)
    restrictions = [b.substitute(curve) for b in space.basis]
    degrees = {r.total_degree() for r in restrictions if not r.is_zero()}
    if len(degrees) > 1:
        raise ValueError(f"inconsistent restricted degrees {sorted(degrees)}")
    # checked once: the coordinate changes below keep binary forms of the degree
    if any(e[i0] + e[i1] not in degrees for r in restrictions for e in r.exponents()):
        raise ValueError("restriction is not a binary form of the common degree")

    rows = []
    for (alpha, beta), order in conditions:
        alpha, beta = _scalar(alpha), _scalar(beta)
        if alpha == 0 and beta == 0:
            raise ValueError("point must be nonzero")
        if alpha == 0:
            moved, local = restrictions, i0
        else:
            change = {t0: reg.var(t0).scale(alpha),
                      t1: reg.var(t0).scale(beta) + reg.var(t1)}
            moved, local = [r.substitute(change) for r in restrictions], i1
        monomials, matrix = coefficient_matrix(reg, moved, binary_vars)
        rows += [row for e, row in zip(monomials, matrix.rows) if e[local] < order]

    kernel = ExactMatrix(reg, rows, space.dim).kernel()
    return SectionSpace(reg, [combine(reg, vec, space.basis) for vec in kernel])
