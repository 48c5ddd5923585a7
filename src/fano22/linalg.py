"""Exact fraction-free linear algebra over polynomial entries.

Everything is read off one fraction-free Gauss–Jordan elimination (Bareiss
1968; Nakos–Turner–Williams 1997).  A pivot step replaces every other row
by (pivot * row - head * pivot row) / previous pivot; by Sylvester's
identity every division is exact, so the routine works verbatim over Q and
over polynomial rings in family parameters, and no entry is ever
evaluated.  At the end every pivot equals the determinant of the pivot
block and every other entry of a pivot row is a maximal minor, which gives
rank, determinant, kernel (Cramer's rule) and solutions of linear systems.

Each row is first multiplied by the lcm of its denominators, which
changes neither rank nor kernel.  Matrices whose entries are all constant
are then reduced in plain `int`s with exact `//`; any other matrix in
polynomials with integer coefficients, with `Polynomial.exact_divide`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .poly import Polynomial, Registry, poly_sum


class ExactMatrix:
    """Rectangular matrix of Polynomial entries over one registry."""

    def __init__(self, registry: Registry, rows: Sequence[Sequence]):
        self.registry = registry
        coerced = []
        width = None
        for row in rows:
            out = []
            for entry in row:
                if isinstance(entry, (int, Fraction)):
                    entry = registry.const(entry)
                if entry.registry is not registry:
                    raise ValueError("matrix entries must share the registry")
                out.append(entry)
            if width is None:
                width = len(out)
            elif len(out) != width:
                raise ValueError("matrix rows must have equal length")
            coerced.append(out)
        self.rows: list[list[Polynomial]] = coerced
        self.nrows = len(coerced)
        self.ncols = width if width is not None else 0
        self._solver = None

    def _reduce(self, augment: bool = False):
        """Fraction-free Gauss–Jordan of S A on a copy; of [S A | S] when `augment`.

        S is diagonal: row i is multiplied by its scale, the lcm of the
        denominators of its entries, so that every entry is integral.  Row
        scaling changes neither the rank, the pivot columns nor the
        kernel, and S A x = S b has the solutions of A x = b.  A constant
        matrix is then reduced in `int`s with `//`, any other in
        polynomials with `exact_divide`; both divisions are exact.
        Pivots are taken in the columns of A only.  Returns (reduced rows,
        pivot columns in row order, last pivot d, sign of the row
        permutation, det S); every pivot entry then equals d, the
        determinant of the pivot block of S A up to that sign.
        """
        scales = [lcm(*[e._den for e in row]) for row in self.rows]
        if all(e.is_constant() for row in self.rows for e in row):
            m = [[e._terms.get(0, 0) * (s // e._den) for e in row]
                 for row, s in zip(self.rows, scales)]
            lift, divide = int, operator.floordiv
        else:
            m = [[e.scale(s) for e in row] for row, s in zip(self.rows, scales)]
            lift, divide = self.registry.const, _exact_divide
        zero = lift(0)
        if augment:
            for i, (row, s) in enumerate(zip(m, scales)):
                row.extend(lift(s) if j == i else zero for j in range(self.nrows))
        pivots: list[int] = []
        prev = lift(1)
        sign = 1
        for c in range(self.ncols):
            r = len(pivots)
            if r == self.nrows:
                break
            pivot_row = next((i for i in range(r, self.nrows) if m[i][c] != 0), None)
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
                m[i] = [divide(p * x - head * y, prev) for x, y in zip(row, top)]
            prev = p
            pivots.append(c)
        return m, pivots, prev, sign, prod(scales)

    def _lift(self, entry) -> Polynomial:
        return entry if isinstance(entry, Polynomial) else self.registry.const(entry)

    def rank(self) -> int:
        return len(self._reduce()[1])

    def det(self) -> Polynomial:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, d, sign, det_s = self._reduce()
        if len(pivots) < self.nrows:
            return self.registry.zero
        return self._lift(d).scale(Fraction(sign, det_s))

    def kernel(self) -> list[list[Polynomial]]:
        """Basis of the right kernel, one vector per free column.

        Free column j gets the pivot d in place j and minus the pivot-row
        entries of column j in the pivot places: polynomials (maximal
        minors), so the result is exact even with transcendental family
        parameters in the matrix.  Each vector is divided by its rational
        content.
        """
        m, pivots, d, _, _ = self._reduce()
        basis: list[list[Polynomial]] = []
        for j in range(self.ncols):
            if j in pivots:
                continue
            vec = [0] * self.ncols
            vec[j] = d
            for row, c in zip(m, pivots):
                vec[c] = -row[j]
            basis.append(_normalize_vector([self._lift(x) for x in vec]))
        return basis

    def solve(self, rhs: Sequence) -> list[Polynomial] | None:
        """The solution x of A x = rhs whose free unknowns are 0, or None.

        None means the system is inconsistent.  Right-hand sides may be
        polynomials in any variables of the registry.  [S A | S] is
        reduced on the first call and kept, so every later call only
        combines the right-hand side.  Raises ValueError when the solution is not
        polynomial (a pivot of a polynomial A that does not divide).
        """
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        m, pivots, d = self._augmented()
        values = [combine(self.registry, row[self.ncols:], rhs) for row in m]
        if any(not v.is_zero() for v in values[len(pivots):]):
            return None
        x = [self.registry.zero] * self.ncols
        for v, c in zip(values, pivots):
            x[c] = v.scale(Fraction(1, d)) if isinstance(d, int) else _exact_divide(v, d)
        return x

    def _augmented(self):
        """The reduction of [S A | S], computed once: (rows, pivot columns, d)."""
        if self._solver is None:
            self._solver = self._reduce(augment=True)[:3]
        return self._solver

    def mul_vector(self, vec: Sequence[Polynomial]) -> list[Polynomial]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return [combine(self.registry, row, vec) for row in self.rows]


def _exact_divide(a: Polynomial, b: Polynomial) -> Polynomial:
    q = a.exact_divide(b)
    if q is None:
        raise ValueError(f"{b} does not divide {a} exactly")
    return q


def coefficient_matrix(
    registry: Registry,
    polys: Sequence[Polynomial],
    variables: Sequence[str] | None = None,
) -> tuple[list[tuple[int, ...]], ExactMatrix]:
    """The matrix whose column j holds the coefficients of polys[j].

    Coefficients are taken on the monomials in `variables` (default: every
    variable of the registry), so entries are polynomials in the others.
    Returns (the monomials occurring, sorted, which label the rows; the
    matrix).
    """
    names = registry.names if variables is None else variables
    columns = [p.coefficients_in(names) for p in polys]
    monomials = sorted({e for column in columns for e in column})
    zero = registry.zero
    rows = [[column.get(e, zero) for column in columns] for e in monomials]
    return monomials, ExactMatrix(registry, rows)


def combine(registry: Registry, coeffs: Sequence, polys: Sequence[Polynomial]) -> Polynomial:
    """sum of coeffs[i] * polys[i]; coefficients are scalars or polynomials."""
    return poly_sum(registry, [c * p for c, p in zip(coeffs, polys) if c != 0])


def _normalize_vector(vec: list[Polynomial]) -> list[Polynomial]:
    """Divide a polynomial vector by its common rational content."""
    nonzero = [p for p in vec if not p.is_zero()]
    if not nonzero:
        return vec
    num, den = 0, 1
    for p in nonzero:
        c = p.content()
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    content = Fraction(num, den)
    _, lead = nonzero[0].leading()
    if lead < 0:
        content = -content
    return [p.scale(1 / content) for p in vec]
