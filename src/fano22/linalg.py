"""Exact fraction-free linear algebra over polynomial entries.

Every reader is served by one fraction-free elimination loop over `int`s,
`ExactMatrix._reduce` (Bareiss 1968; Nakos–Turner–Williams 1997).  A
pivot step replaces rows by (pivot * row - head * pivot row) // previous
pivot; by Sylvester's identity every entry it produces is, up to sign, a
minor of the matrix, so the division is exact.  The paper's matrices are
near-monomial, about one nonzero per row, so a step touches only the
rows whose head is nonzero.  A row left alone stands for itself times
(current pivot) / (the pivot it was last brought to), which has the same
zeros, and it catches up in its next update, whose divisor is that last
pivot.  Dense matrices touch every row at every step, as before.  The
readers differ only in which rows a pivot step clears, and in which rows
they read:

- `rank` and `det` read the pivot columns and the last pivot, which is
  the determinant of the pivot block, so for them a step clears only the
  rows below its pivot (Bareiss's forward elimination);
- `kernel` and `_solve` read the other entries of the pivot rows, so for
  them a step clears the rows above as well (Gauss–Jordan).  At the end
  the pivot rows, and only they, are brought to the last pivot: every
  pivot equals it and every other entry of a pivot row is a maximal
  minor, which gives the kernel by Cramer's rule and the solutions of
  linear systems.  The other rows are only tested for zero (`_solve`'s
  consistency rows, and so `sections.monomial_basis`), which a missing
  positive or negative factor does not change.

A matrix keeps its entries in integral form: each row times its scale,
the lcm of its denominators, which changes neither rank nor kernel.  An
entry is then one `int` when every entry is constant, else one numerator
dict, which `poly._pack_matrix` turns into one `int`, injectively on
minors, so the zero tests and the `//` of the integer loop are exact and
no entry is evaluated at a point.  `rows`, the entries as polynomials,
is built from that form on first use.

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

from .poly import (_MASK, Polynomial, Registry, RegistryMismatch, _canon, _make, _nonzero,
                   _pack_matrix, _scalar, poly_sum)


class ExactMatrix:
    """Rectangular matrix of Polynomial entries over one registry.

    `ncols`, when given, is the column count, checked against every row;
    so a matrix without rows still has its columns.  Otherwise the first
    row gives the count.  Scalar entries must be int or Fraction; they go
    straight into the integral form (`_set`), which `rows` reads back.
    """

    def __init__(self, registry: Registry, rows: Sequence[Sequence], ncols: int | None = None):
        # (numerator, denominator) of each entry: an int for a scalar, a dict for a polynomial
        pairs = []
        seen = 0
        for row in rows:
            out = []
            for entry in row:
                if isinstance(entry, Polynomial):
                    if entry.registry is not registry:
                        raise RegistryMismatch("matrix entries must share the registry")
                    for k in entry._terms:
                        seen |= k
                    out.append((entry._terms, entry._den))
                else:
                    c = entry if type(entry) in (int, Fraction) else _scalar(entry)
                    out.append((c.numerator, c.denominator))
            if ncols is None:
                ncols = len(out)
            elif len(out) != ncols:
                raise ValueError("matrix rows must have equal length")
            pairs.append(out)
        scales = [lcm(*[d for _, d in row]) for row in pairs]
        if seen:
            pairs = [[(t if type(t) is dict else {0: t} if t else {}, d) for t, d in row]
                     for row in pairs]
            nums = [[t if d == s else {k: v * (s // d) for k, v in t.items()} for t, d in row]
                    for row, s in zip(pairs, scales)]
        else:
            nums = [[(t if type(t) is int else t.get(0, 0)) * (s // d) for t, d in row]
                    for row, s in zip(pairs, scales)]
        self._set(registry, nums, scales, 0 if ncols is None else ncols, seen)

    @classmethod
    def _integral(cls, registry: Registry, nums: list[list], scales: list[int], ncols: int,
                  seen: int) -> "ExactMatrix":
        """The matrix with integral rows `nums` over `scales` (see `_set`), taken unchecked."""
        matrix = object.__new__(cls)
        matrix._set(registry, nums, scales, ncols, seen)
        return matrix

    def _set(self, registry: Registry, nums: list[list], scales: list[int], ncols: int,
             seen: int) -> None:
        self.registry = registry
        #: row i times scales[i], the lcm of its denominators: one int per entry
        #: when `_seen` is 0, else one numerator dict per entry
        self._nums = nums
        self._scales = scales
        self.nrows = len(nums)
        self.ncols = ncols
        #: bitwise or of every entry's keys: 0 exactly when every entry is constant
        self._seen = seen
        self._rows: list[list[Polynomial]] | None = None
        self._solver = None

    @property
    def rows(self) -> list[list[Polynomial]]:
        """The entries as polynomials, built from the integral rows on first use."""
        if self._rows is None:
            reg = self.registry
            if self._seen:
                self._rows = [[_canon(reg, t, s) for t in row]
                              for row, s in zip(self._nums, self._scales)]
            else:
                self._rows = [[_canon(reg, {0: v}, s) if v else reg.zero for v in row]
                              for row, s in zip(self._nums, self._scales)]
        return self._rows

    def _reduce(self, *, back: bool, augment: bool = False):
        """Fraction-free elimination of S A on a copy; of [S A | S] when `augment`.

        S is diagonal, row i's scale, so S A is the integral form the
        matrix keeps; S x = S b has the solutions of A x = b.  Each entry
        of S A is packed into one int (`poly._pack_matrix`), and the ints
        are reduced with `//`, which is exact.  Pivots are taken in the
        columns of A only, and each pivot step clears the rows below its
        pivot; with `back` the rows above too (Gauss–Jordan).  `augment`
        is for matrices of constants only.

        A step skips every row whose head is 0.  Row i remembers the
        pivot level[i] it was last brought to (1 at the start); its true
        value at pivot q is row * q / level[i], with the same zeros.  A
        row with head h != 0 becomes (p * row - h * top) // level[i],
        Bareiss's step from its own last pivot, exact for the same reason
        (the packing is a ring homomorphism), and then sits at p.  A
        stale pivot row is brought to the previous pivot before it is
        used, and sits at p after its step.

        Returns (reduced rows of ints, pivot columns in row order, last
        pivot d, sign of the row permutation, unpack).  d is the
        determinant of the pivot block of S A up to that sign, which,
        with the pivot columns, is all that `rank` and `det` read; rows
        are left at their own levels.  With `back`, which `kernel` and
        `_augmented` take, the pivot rows are brought to d at the end:
        every pivot entry equals d and every other entry of a pivot row
        is a maximal minor.  Every other row is only zero-tested by its
        readers and stays at its own level.  `unpack` turns any reduced
        entry into its numerator dict.
        """
        m, unpack = _pack_matrix(self.registry, self._nums, self._seen)
        nrows = self.nrows
        if augment:
            m = [row + [0] * i + [s] + [0] * (nrows - 1 - i)
                 for i, (row, s) in enumerate(zip(m, self._scales))]
        pivots: list[int] = []
        # level[i]: the pivot row i was last brought to; its entries at a later
        # level q are row * q / level[i]
        level = [1] * nrows
        prev = sign = 1
        for c in range(self.ncols):
            r = len(pivots)
            if r == nrows:
                break
            pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                m[r], m[pivot_row] = m[pivot_row], m[r]
                level[r], level[pivot_row] = level[pivot_row], level[r]
                sign = -sign
            top = m[r]
            if level[r] != prev:
                top = m[r] = [x * prev // level[r] for x in top]
            p = top[c]
            for i in range(0 if back else r + 1, nrows):
                row = m[i]
                head = row[c]
                if head == 0 or i == r:
                    continue
                low = level[i]
                m[i] = [(p * x - head * y) // low for x, y in zip(row, top)]
                level[i] = p
            level[r] = prev = p
            pivots.append(c)
        if back:
            m[:len(pivots)] = [row if low == prev else [x * prev // low for x in row]
                               for row, low in zip(m, level[:len(pivots)])]
        return m, pivots, prev, sign, unpack

    def rank(self) -> int:
        return len(self._reduce(back=False)[1])

    def det(self) -> Polynomial:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, d, sign, unpack = self._reduce(back=False)
        if len(pivots) < self.nrows:
            return self.registry.zero
        return _canon(self.registry, unpack(d), 1).scale(Fraction(sign, prod(self._scales)))

    def kernel(self) -> list[list[Polynomial]]:
        """Basis of the right kernel, one vector per free column.

        Free column j gets the pivot d in place j and minus the pivot-row
        entries of column j in the pivot places: polynomials (maximal
        minors), so the result is exact even with transcendental family
        parameters in the matrix.  Every entry is integral, and each
        vector is divided by the gcd of its coefficients.
        """
        m, pivots, d, _, unpack = self._reduce(back=True)
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

    def _solve(self, nums: Sequence) -> list[tuple[int, int | dict[int, int]]] | None:
        """(c, numerator of d * x_c) per pivot column c of an x with A x = b, or None.

        A must be a matrix of constants (else ValueError), and nums[i] is
        the numerator of b[i] over a denominator common to all rows: an
        int when every b[i] is a scalar, else a numerator dict (empty for
        0).  The returned numerators are of the same kind: ints are
        summed as ints, dicts accumulated (`_accumulate`).  x_c is the
        returned numerator over d times that denominator, d from
        `_augmented`.  The free unknowns of x are 0.  None means that a
        consistency row does not sum to 0: no x exists.
        """
        rows, pivots, _ = self._augmented()
        if nums and isinstance(nums[0], dict):
            sums = [_accumulate(row, nums) for row in rows]
        else:
            sums = [sum([s * nums[j] for j, s in row]) for row in rows]
        if any(sums[len(pivots):]):
            return None
        return list(zip(pivots, sums))

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
            m, pivots, d, _, _ = self._reduce(back=True, augment=True)
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
    return _nonzero(acc)


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
    of a variable is its field, (key >> shift) & _MASK.  The numerators go
    straight into the matrix's integral rows, each over the lcm of the
    denominators of the polys with a term in the row; they are ints when
    no term has a variable outside `variables` (always, by default), and
    no entry becomes a Polynomial before `rows` is read.
    """
    mask = sum({_MASK << registry._shifts[registry.index(n)]
                for n in (registry.names if variables is None else variables)})
    groups: dict[int, list[tuple[int, int, int]]] = {}
    occurring = 0
    for j, p in enumerate(polys):
        for k, v in p._terms.items():
            groups.setdefault(k & mask, []).append((j, k, v))
            occurring |= k
    # every entry is constant unless some term has a variable outside `variables`
    constant = not occurring & (registry._parameters | registry._coordinates) & ~mask
    dens = [p._den for p in polys]
    ncols = len(polys)
    keys, nums, scales = [], [], []
    seen = 0
    for part in sorted(groups):
        # 2**FIELD_BITS = 1 mod _MASK, so part % _MASK is the sum of its fields,
        # a degree below 2**(FIELD_BITS - 1)
        mono = part + (part % _MASK << registry._top)
        cells = groups[part]
        scale = lcm(*[dens[j] for j, _, _ in cells])
        if constant:
            row = [0] * ncols
            for j, _, v in cells:
                row[j] = v * (scale // dens[j])
        else:
            row = [{} for _ in range(ncols)]
            for j, k, v in cells:
                row[j][k - mono] = v * (scale // dens[j])
                seen |= k - mono
        keys.append(mono)
        nums.append(row)
        scales.append(scale)
    return keys, ExactMatrix._integral(registry, nums, scales, ncols, seen)


def combine(registry: Registry, coeffs: Sequence, polys: Sequence[Polynomial]) -> Polynomial:
    """sum of coeffs[i] * polys[i]; coefficients are scalars or polynomials."""
    return poly_sum(registry, [c * p for c, p in zip(coeffs, polys) if c != 0])


def _normalize_vector(vec: list[Polynomial]) -> list[Polynomial]:
    """Divide an integral, nonzero vector by its coefficient gcd; first nonzero entry leads +.

    The gcd divides every numerator of every entry, and the quotients
    still share no factor with the entry's denominator, so each nonzero
    entry is divided exactly and stays canonical; zero entries are kept.
    """
    lead = next(p._terms for p in vec if p._terms)
    content = gcd(*[v for p in vec for v in p._terms.values()])
    if lead[max(lead)] < 0:
        content = -content
    return [_make(p.registry, {k: v // content for k, v in p._terms.items()}, p._den)
            if p._terms else p for p in vec]
