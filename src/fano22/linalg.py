"""Exact fraction-free linear algebra over polynomial entries.

Everything is read off one fraction-free Gauss–Jordan elimination (Bareiss
1968; Nakos–Turner–Williams 1997) over `int`s.  A pivot step replaces
every other row by (pivot * row - head * pivot row) // previous pivot; by
Sylvester's identity every entry it produces is, up to sign, a minor of
the matrix, so the division is exact.  At the end every pivot equals the
determinant of the pivot block and every other entry of a pivot row is a
maximal minor, which gives rank, determinant, kernel (Cramer's rule) and
solutions of linear systems.

Each row is first multiplied by the lcm of its denominators, which
changes neither rank nor kernel, and `poly._pack_matrix` then turns each
entry into one `int`, injectively on minors, so the zero tests and the
`//` of the integer loop are exact and no entry is evaluated at a point.

Every subspace is cut out the same way: `coefficient_matrix` turns a span
of polynomials into the matrix of their coefficients, and its `kernel`,
passed to `combine`, gives the subspace.

`solve` is for matrices of constants only (a polynomial matrix raises
ValueError).  It reduces [S A | S] once per matrix and keeps the S-part
of each reduced row as sparse integer pairs, so a later solve is one
integer accumulation per unknown: the right-hand sides' numerators summed
into one dict over a common denominator, which the pivot then divides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .poly import Polynomial, Registry, RegistryMismatch, _canon, _pack_matrix, poly_sum


class ExactMatrix:
    """Rectangular matrix of Polynomial entries over one registry.

    `ncols`, when given, is the column count, checked against every row;
    so a matrix without rows still has its columns.  Otherwise the first
    row gives the count.  Scalar entries must be int or Fraction.
    """

    def __init__(self, registry: Registry, rows: Sequence[Sequence], ncols: int | None = None):
        self.registry = registry
        coerced = []
        seen = 0
        for row in rows:
            out = []
            for entry in row:
                if not isinstance(entry, Polynomial):
                    entry = registry.const(entry)
                elif entry.registry is not registry:
                    raise RegistryMismatch("matrix entries must share the registry")
                for k in entry._terms:
                    seen |= k
                out.append(entry)
            if ncols is None:
                ncols = len(out)
            elif len(out) != ncols:
                raise ValueError("matrix rows must have equal length")
            coerced.append(out)
        self.rows: list[list[Polynomial]] = coerced
        self.nrows = len(coerced)
        self.ncols = 0 if ncols is None else ncols
        #: bitwise or of every entry's keys: 0 exactly when every entry is constant
        self._seen = seen
        self._solver = None

    def _reduce(self, augment: bool = False):
        """Fraction-free Gauss–Jordan of S A on a copy; of [S A | S] when `augment`.

        S is diagonal: row i is multiplied by its scale, the lcm of the
        denominators of its entries, so that every entry is integral.  Row
        scaling changes neither the rank, the pivot columns nor the
        kernel, and S A x = S b has the solutions of A x = b.  Each entry
        of S A is then packed into one int (`poly._pack_matrix`), and the
        ints are reduced with `//`, which is exact.  `augment` is for
        matrices of constants only.  Pivots are taken in the columns of A
        only.  Returns (reduced rows of ints, pivot columns in row order,
        last pivot d, sign of the row permutation, det S, unpack); every
        pivot entry then equals d, the determinant of the pivot block of
        S A up to that sign, and `unpack` turns any reduced entry into its
        numerator dict.
        """
        scales = [lcm(*[e._den for e in row]) for row in self.rows]
        m, unpack = _pack_matrix(self.registry, self.rows, scales, self._seen)
        if augment:
            for i, (row, s) in enumerate(zip(m, scales)):
                row.extend(s if j == i else 0 for j in range(self.nrows))
        pivots: list[int] = []
        prev = 1
        sign = 1
        for c in range(self.ncols):
            r = len(pivots)
            if r == self.nrows:
                break
            pivot_row = next((i for i in range(r, self.nrows) if m[i][c]), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                m[r], m[pivot_row] = m[pivot_row], m[r]
                sign = -sign
            top = m[r]
            p = top[c]
            for i, row in enumerate(m):
                head = row[c]
                if i == r or (head == 0 and p == prev):
                    continue
                m[i] = [(p * x - head * y) // prev for x, y in zip(row, top)]
            prev = p
            pivots.append(c)
        return m, pivots, prev, sign, prod(scales), unpack

    def rank(self) -> int:
        return len(self._reduce()[1])

    def det(self) -> Polynomial:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, d, sign, det_s, unpack = self._reduce()
        if len(pivots) < self.nrows:
            return self.registry.zero
        return _canon(self.registry, unpack(d), 1).scale(Fraction(sign, det_s))

    def kernel(self) -> list[list[Polynomial]]:
        """Basis of the right kernel, one vector per free column.

        Free column j gets the pivot d in place j and minus the pivot-row
        entries of column j in the pivot places: polynomials (maximal
        minors), so the result is exact even with transcendental family
        parameters in the matrix.  Every entry is integral, and each
        vector is divided by the gcd of its coefficients.
        """
        m, pivots, d, _, _, unpack = self._reduce()
        reg = self.registry
        pivot = _canon(reg, unpack(d), 1)
        basis: list[list[Polynomial]] = []
        for j in range(self.ncols):
            if j in pivots:
                continue
            vec = [reg.zero] * self.ncols
            vec[j] = pivot
            for row, c in zip(m, pivots):
                vec[c] = _canon(reg, unpack(-row[j]), 1)
            basis.append(_normalize_vector(vec))
        return basis

    def solve(self, rhs: Sequence) -> list[Polynomial] | None:
        """The solution x of A x = rhs whose free unknowns are 0, or None.

        A must be a matrix of constants; None means the system is
        inconsistent.  Right-hand sides may be scalars or polynomials in
        any variables of the registry.  [S A | S] is reduced on the first
        call and kept, and each unknown is then one integer accumulation:
        the numerators of the right-hand sides, over the lcm of their
        denominators, summed with the kept row's integer weights, then
        divided by the pivot.
        """
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        reg = self.registry
        polys = [p if isinstance(p, Polynomial) else reg.const(p) for p in rhs]
        if any(p.registry is not reg for p in polys):
            raise RegistryMismatch("right-hand side uses a different registry")
        den = lcm(*[p._den for p in polys])
        return self._solve_numerators(
            [p._terms if p._den == den else
             {k: v * (den // p._den) for k, v in p._terms.items()} for p in polys],
            den)

    def _solve_numerators(self, nums: Sequence[dict[int, int]], den: int
                          ) -> list[Polynomial] | None:
        """`solve` for the right-hand side nums[i] / den.

        nums[i] is the numerator dict of row i's right-hand side (empty
        for 0) over the common positive denominator den.
        """
        rows, pivots, d = self._augmented()
        if any(_accumulate(row, nums) for row in rows[len(pivots):]):
            return None
        reg = self.registry
        x = [reg.zero] * self.ncols
        for row, c in zip(rows, pivots):
            acc = _accumulate(row, nums)
            if acc:
                x[c] = _canon(reg, acc, den * d)
        return x

    def _augmented(self):
        """The reduction of [S A | S], computed once: (S-parts of the rows, pivot columns, d).

        Each S-part is a sparse list of (i, int), i indexing the
        right-hand side, and d > 0: if the last pivot is negative, the
        S-parts are negated with it.  Raises ValueError, before any
        reduction, unless every entry of A is constant.
        """
        if self._solver is None:
            if self._seen:
                raise ValueError("solve needs a matrix of constants")
            m, pivots, d, _, _, _ = self._reduce(augment=True)
            sign = 1 if d > 0 else -1
            parts = [[(j, sign * v) for j, v in enumerate(row[self.ncols:]) if v] for row in m]
            self._solver = parts, pivots, abs(d)
        return self._solver

    def mul_vector(self, vec: Sequence[Polynomial]) -> list[Polynomial]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return [combine(self.registry, row, vec) for row in self.rows]


def _accumulate(row: Sequence[tuple[int, int]], nums: Sequence[dict[int, int]]) -> dict[int, int]:
    """sum of s * nums[j] over the (j, s) of a kept row, zero numerators dropped."""
    acc: dict[int, int] = {}
    get = acc.get
    for j, s in row:
        for k, v in nums[j].items():
            acc[k] = get(k, 0) + s * v
    return {k: v for k, v in acc.items() if v}


def coefficient_matrix(
    registry: Registry,
    polys: Sequence[Polynomial],
    variables: Sequence[str] | None = None,
) -> tuple[list[tuple[int, ...]], ExactMatrix]:
    """The matrix whose column j holds the coefficients of polys[j].

    Coefficients are taken on the monomials in `variables` (default: every
    variable of the registry), so entries are polynomials in the others.
    Returns (the monomials occurring, sorted, which label the rows; the
    matrix), which has len(polys) columns even when every poly is zero.
    """
    names = registry.names if variables is None else variables
    columns = [p.coefficients_in(names) for p in polys]
    monomials = sorted({e for column in columns for e in column})
    zero = registry.zero
    rows = [[column.get(e, zero) for column in columns] for e in monomials]
    return monomials, ExactMatrix(registry, rows, len(polys))


def combine(registry: Registry, coeffs: Sequence, polys: Sequence[Polynomial]) -> Polynomial:
    """sum of coeffs[i] * polys[i]; coefficients are scalars or polynomials."""
    return poly_sum(registry, [c * p for c, p in zip(coeffs, polys) if c != 0])


def _normalize_vector(vec: list[Polynomial]) -> list[Polynomial]:
    """Divide an integral, nonzero vector by its coefficient gcd; first nonzero entry leads +."""
    nonzero = [p for p in vec if not p.is_zero()]
    content = gcd(*[p.content().numerator for p in nonzero])
    _, lead = nonzero[0].leading()
    if lead < 0:
        content = -content
    return [p.scale(Fraction(1, content)) for p in vec]
