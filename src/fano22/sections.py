"""Multigraded monomial bases and section spaces.

A grading assigns each variable an integer weight vector; section spaces
are explicit spans of homogeneous polynomials with eagerly verified
linear independence.  A monomial basis enumerates the exponents of the
free columns of the weight matrix, within a positive functional's
budget, and solves those of its independent pivot columns;
`monomial_basis` says why none is missed.  A basis lives on the
registry's coordinate variables, all but its group and family
parameters, and a section's coordinates in it are polynomials in those
parameters.  All solving is exact, via the one fraction-free elimination
in `linalg`, in its Gauss–Jordan reading (`ExactMatrix._augmented`), the
one that keeps the back-eliminated rows `_solve` reads.  A space's
coefficient matrix is constant, as its rows are whole monomials, so
`coefficient_matrix` hands it over as one int list per row, without a
Polynomial per entry.  The space reduces it once, which also certifies
independence, and keys each basis monomial's row by its coordinate
fields.  A coordinate computation then groups f's integer numerators by
those fields and runs the kept reduction on them, one integer
accumulation per coordinate.  `monomial_basis` solves its weight system
the same way, with int right-hand sides summed as ints.  Vanishing
orders along a curve are read off the `coefficient_matrix` of the
restricted sections: the conditions are its rows of low local exponent,
the subspace their kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul
from typing import Mapping, Sequence

from .linalg import ExactMatrix, coefficient_matrix, combine
from .poly import _MASK, Polynomial, Registry, RegistryMismatch, _canon, _make, _overflow, _scalar


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
        #: (shift, weight) of each graded variable, and the fields of the others
        self._fields = [(registry._shifts[registry.index(n)], w) for n, w in self.weights.items()]
        self._outside = sum(_MASK << s for n, s in zip(registry.names, registry._shifts)
                            if n not in self.weights)

    def multidegree(self, f: Polynomial) -> tuple[int, ...] | None:
        """Common multidegree of f's terms, or None if inhomogeneous.

        Variables outside the grading must not occur in f, and f must
        share the grading's registry (else RegistryMismatch).  Each key's
        exponents are read off its fields through the (shift, weight)
        pairs of the graded variables.
        """
        if f.registry is not self.registry:
            raise RegistryMismatch("polynomial and grading use different registries")
        if f.is_zero():
            return None
        degree = None
        for k in f._terms:
            if k & self._outside:
                return None
            d = [0] * self.ncomponents
            for s, w in self._fields:
                e = (k >> s) & _MASK
                if e:
                    for comp, x in enumerate(w):
                        d[comp] += e * x
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
    first; the empty set covers a grading without variables.  Each
    rational solution is multiplied by the lcm s of its denominators
    before the test, which is then in integers: W (s phi) >= s exactly
    when W phi >= 1.
    """
    ncomp = len(vectors[0]) if vectors else 0
    # weights are ints (checked by Grading): rows of scale 1 in integral form
    for size in range(min(len(vectors), ncomp) + 1):
        for rows in combinations(vectors, size):
            system = ExactMatrix._integral(_SCALARS, [list(r) for r in rows], [1] * size, ncomp, 0)
            solution = system._solve([1] * size)
            if solution is None:
                continue
            phi = [0] * ncomp
            for c, n in solution:
                phi[c] = n
            # phi / d in lowest terms has the lcm scale of its denominators
            d = system._augmented()[2]
            g = gcd(d, *phi)
            phi, scale = tuple(x // g for x in phi), d // g
            if all(sum(map(mul, phi, vec)) >= scale for vec in vectors):
                return phi
    return None


def monomial_basis(
    registry: Registry,
    grading: Grading,
    multidegree: Sequence[int],
    variables: Sequence[str] | None = None,
) -> list[Polynomial]:
    """All monomials in `variables` of exactly the given multidegree.

    They are the lattice points u >= 0 of A u = d, the columns of A being
    the weight vectors (Sturmfels 1996).  Only the variables of A's free
    columns are enumerated, each exponent under the budget of a positive
    functional, whose absence raises `UnboundedDegreeCone`; at each leaf
    A's one reduction (`ExactMatrix._solve`) solves the pivot
    exponents, kept when consistent, integral and nonnegative.  Complete:
    a monomial's free exponents stay within the budget, as its pivot
    variables spend a nonnegative part of it, and the pivot columns are
    independent, so the free exponents fix the others.  Returned in
    descending graded lex order, which is descending key order.
    """
    if variables is None:
        variables = list(grading.weights)
    target = tuple(multidegree)
    ncomp = grading.ncomponents
    if len(target) != ncomp:
        raise ValueError("multidegree length does not match the grading")
    vecs = [grading.weights[v] for v in variables]
    phi = _positive_functional(vecs)
    if phi is None:
        raise UnboundedDegreeCone(
            "no positive functional on the weight vectors; degree cone unbounded"
        )
    system = ExactMatrix._integral(_SCALARS, [[w[c] for w in vecs] for c in range(ncomp)],
                                   [1] * ncomp, len(vecs), 0)
    _, pivots, d = system._augmented()
    free = [j for j in range(len(vecs)) if j not in pivots]
    # exponent k of variable j spends k * steps[j] >= k of the budget phi . target,
    # and what is left always equals phi . (the multidegree still to reach)
    steps = [sum(map(mul, phi, w)) for w in vecs]
    units = [registry._units[registry.index(v)] for v in variables]
    expo = [0] * len(vecs)
    keys: list[int] = []

    def rec(i: int, remaining: tuple[int, ...], budget: int):
        if i == len(free):
            solution = system._solve(remaining)
            if solution is None:
                return
            for c, n in solution:
                k, rest = divmod(n, d)
                if rest or k < 0:
                    return
                expo[c] = k
            keys.append(sum(map(mul, expo, units)))
            return
        j = free[i]
        w, step = vecs[j], steps[j]
        for k in range(budget // step + 1):
            expo[j] = k
            rec(i + 1, tuple([r - k * x for r, x in zip(remaining, w)]), budget - k * step)

    rec(0, target, sum(map(mul, phi, target)))
    keys.sort(reverse=True)
    if keys and keys[0] >= registry._limit:
        raise _overflow(registry)
    return [_make(registry, {k: 1}, 1) for k in keys]


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
        keys, self._matrix = coefficient_matrix(registry, self.basis)
        if len(self._matrix._augmented()[1]) != len(self.basis):
            raise ValueError("basis elements are linearly dependent")
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
    and family parameters), each group is shifted down by its basis
    monomial's key, and the space's kept reduction (`ExactMatrix._solve`)
    turns these numerators into those of d * c_i, over f's denominator.
    None when f lies outside the space.
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
    solution = space._matrix._solve(nums)
    if solution is None:
        return None
    reg, den = space.registry, f._den * space._matrix._augmented()[2]
    x = [reg.zero] * space.dim
    for c, acc in solution:
        if acc:
            x[c] = _canon(reg, acc, den)
    return x


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
    condition keeps the integral rows of the restrictions'
    `coefficient_matrix` whose monomial has local exponent < k, and the
    subspace is the kernel of every kept row, stacked into one matrix.
    """
    reg = space.registry
    t0, t1 = binary_vars
    s0, s1 = reg._shifts[reg.index(t0)], reg._shifts[reg.index(t1)]
    restrictions = [b.substitute(curve) for b in space.basis]
    degrees = {r.total_degree() for r in restrictions if not r.is_zero()}
    if len(degrees) > 1:
        raise ValueError(f"inconsistent restricted degrees {sorted(degrees)}")
    # checked once: the coordinate changes below keep binary forms of the degree,
    # so every coefficient matrix holds int rows
    if any(((k >> s0) & _MASK) + ((k >> s1) & _MASK) not in degrees
           for r in restrictions for k in r._terms):
        raise ValueError("restriction is not a binary form of the common degree")

    nums, scales = [], []
    for (alpha, beta), order in conditions:
        alpha, beta = _scalar(alpha), _scalar(beta)
        if alpha == 0 and beta == 0:
            raise ValueError("point must be nonzero")
        if alpha == 0:
            moved, shift = restrictions, s0
        else:
            change = {t0: reg.var(t0).scale(alpha),
                      t1: reg.var(t0).scale(beta) + reg.var(t1)}
            moved, shift = [r.substitute(change) for r in restrictions], s1
        keys, matrix = coefficient_matrix(reg, moved, binary_vars)
        kept = [i for i, k in enumerate(keys) if (k >> shift) & _MASK < order]
        nums += [matrix._nums[i] for i in kept]
        scales += [matrix._scales[i] for i in kept]

    kernel = ExactMatrix._integral(reg, nums, scales, space.dim, 0).kernel()
    return SectionSpace(reg, [combine(reg, vec, space.basis) for vec in kernel])
