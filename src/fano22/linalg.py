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

`_solve`, for matrices of constants only, reduces [S A | S] once and then
answers each right-hand side with one integer accumulation per row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .poly import (_MASK, Polynomial, Registry, RegistryMismatch, _canon, _make, _pack_matrix,
                   poly_sum)


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
                row += [0] * self.nrows
                row[self.ncols + i] = s
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

    def _solve(self, nums: Sequence[dict[int, int]]) -> list[tuple[int, dict[int, int]]] | None:
        """(c, numerators of d * x_c) per pivot column c of an x with A x = b, or None.

        A must be a matrix of constants (else ValueError), and nums[i] is
        the numerator dict of b[i] (empty for 0) over a denominator common
        to all rows; x_c is then the returned numerators over d times that
        denominator, d from `_augmented`.  The free unknowns of x are 0.
        None means that a consistency row does not sum to 0: no x exists.
        """
        rows, pivots, _ = self._augmented()
        if any(_accumulate(row, nums) for row in rows[len(pivots):]):
            return None
        return [(c, _accumulate(row, nums)) for row, c in zip(rows, pivots)]

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
        """A vec, by plain polynomial arithmetic: the tests' oracle for kernels and solutions."""
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
    return acc if all(acc.values()) else {k: v for k, v in acc.items() if v}


def coefficient_matrix(
    registry: Registry,
    polys: Sequence[Polynomial],
    variables: Sequence[str] | None = None,
) -> tuple[list[int], ExactMatrix]:
    """The matrix whose column j holds the coefficients of polys[j].

    Coefficients are taken on the monomials in `variables` (default: every
    variable of the registry), so entries are polynomials in the others.
    Returns (the keys of the monomials occurring, ascending, which label
    the rows; the matrix), which has len(polys) columns even when every
    poly is zero.  A term k falls in the group k & mask, its fields in
    `variables`, whose entry is the members less the monomial's key.
    Fields lie in registry order, first variable highest, so integer order
    on the groups is the order of the exponent tuples; a label's exponent
    of a variable is its field, (key >> shift) & _MASK.
    """
    shifts = {registry._shifts[registry.index(n)]
              for n in (registry.names if variables is None else variables)}
    mask = sum(_MASK << s for s in shifts)
    columns = []
    for p in polys:
        groups: dict[int, dict[int, int]] = {}
        for k, v in p._terms.items():
            groups.setdefault(k & mask, {})[k] = v
        columns.append(groups)
    keys = []
    rows = []
    zero = registry.zero
    for part in sorted({part for column in columns for part in column}):
        mono = part + (sum((part >> s) & _MASK for s in shifts) << registry._top)
        keys.append(mono)
        rows.append([_canon(registry, {k - mono: v for k, v in column[part].items()}, p._den)
                     if part in column else zero for column, p in zip(columns, polys)])
    return keys, ExactMatrix(registry, rows, len(polys))


def combine(registry: Registry, coeffs: Sequence, polys: Sequence[Polynomial]) -> Polynomial:
    """sum of coeffs[i] * polys[i]; coefficients are scalars or polynomials."""
    return poly_sum(registry, [c * p for c, p in zip(coeffs, polys) if c != 0])


def _normalize_vector(vec: list[Polynomial]) -> list[Polynomial]:
    """Divide an integral, nonzero vector by its coefficient gcd; first nonzero entry leads +.

    The gcd divides every numerator of every entry, and the quotients
    still share no factor with the entry's denominator, so each nonzero
    entry is divided exactly and stays canonical; zero entries are kept.
    """
    nonzero = [p for p in vec if not p.is_zero()]
    content = gcd(*[p.content().numerator for p in nonzero])
    _, lead = nonzero[0].leading()
    if lead < 0:
        content = -content
    return [_make(p.registry, {k: v // content for k, v in p._terms.items()}, p._den)
            if p._terms else p for p in vec]
