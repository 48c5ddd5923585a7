"""Differential test of `ExactMatrix` against sympy on seeded random matrices.

Over Q: up to 8 x 11, with rank-deficient cases built as products of thin
factors, plus the shapes the integer elimination of constant matrices is
sensitive to: 12 x 15, rows with different denominators, zero rows,
integer rows, and polynomial right-hand sides.  Over Q[v]: up to 4 x 6,
entries linear in v, some rows repeated as sums of others.  About a third
of the matrices are square.  rank and det are compared with sympy, and
kernels are checked by annihilation and size.  On matrices of constants,
`solve` must give sympy's solution with every free unknown 0, or None
exactly when sympy finds no solution.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from fano22.linalg import ExactMatrix  # noqa: E402
from fano22.poly import Registry  # noqa: E402

REG = Registry([("v", "family-parameter")])
V = sympy.Symbol("v")
QV = sympy.QQ.frac_field(V)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _to_sympy(entry):
    """A Fraction or a Polynomial in v as a sympy expression."""
    if isinstance(entry, Fraction):
        return sympy.Rational(entry.numerator, entry.denominator)
    return sum((sympy.Rational(c.numerator, c.denominator) * V ** e[0]
                for e, c in entry.terms.items()), sympy.Integer(0))


def _rational_matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    if rng.random() < 0.5:
        return [[_rational(rng) for _ in range(ncols)] for _ in range(nrows)]
    inner = rng.randint(0, min(nrows, ncols) - 1)
    left = [[_rational(rng) for _ in range(inner)] for _ in range(nrows)]
    right = [[_rational(rng) for _ in range(ncols)] for _ in range(inner)]
    return [[sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
             for j in range(ncols)] for i in range(nrows)]


def _domain_matrix(rows, field) -> DomainMatrix:
    return DomainMatrix.from_list_sympy(
        len(rows), len(rows[0]), [[_to_sympy(x) for x in row] for row in rows]
    ).convert_to(field)


def _particular_solution(rows, rhs, field):
    """sympy's solution of A x = rhs with every free unknown 0, or None."""
    ncols = len(rows[0])
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = _domain_matrix(augmented, field).rref()
    if ncols in pivots:
        return None
    entries = reduced.to_list()
    solution = [field.zero] * ncols
    for k, c in enumerate(pivots):
        solution[c] = entries[k][ncols]
    return solution


def _check_against_sympy(rows, rhs_list, field) -> ExactMatrix:
    matrix = ExactMatrix(REG, rows)
    A = _domain_matrix(rows, field)
    rank = matrix.rank()
    assert rank == A.rank()
    if matrix.nrows == matrix.ncols:
        assert field.from_sympy(_to_sympy(matrix.det())) == A.det()
    kernel = matrix.kernel()
    assert len(kernel) == matrix.ncols - rank
    for vec in kernel:
        assert all(e.is_zero() for e in matrix.mul_vector(vec))
    for rhs in rhs_list:
        ours = matrix.solve(rhs)
        theirs = _particular_solution(rows, rhs, field)
        if theirs is None:
            assert ours is None
        else:
            assert [field.from_sympy(_to_sympy(x)) for x in ours] == theirs
    return matrix


def test_rational_matrices_match_sympy():
    rng = random.Random(20261018)
    for _ in range(40):
        nrows = rng.randint(1, 8)
        ncols = nrows if rng.random() < 0.3 else rng.randint(1, 11)
        rows = _rational_matrix(rng, nrows, ncols)
        x0 = [_rational(rng) for _ in range(ncols)]
        consistent = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
        arbitrary = [_rational(rng) for _ in range(nrows)]
        matrix = _check_against_sympy(rows, [consistent, arbitrary], sympy.QQ)
        assert matrix.solve(consistent) is not None


def test_polynomial_matrices_match_sympy():
    # rank, det and kernel only: `solve` is for matrices of constants
    rng = random.Random(1018)
    v = REG.var("v")
    for _ in range(25):
        nrows = rng.randint(1, 4)
        ncols = nrows if rng.random() < 0.3 else rng.randint(1, 6)
        rows = [[v.scale(_rational(rng)) + _rational(rng) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 2 and rng.random() < 0.5:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        _check_against_sympy(rows, [], QV)


def test_integer_elimination_shapes_match_sympy():
    rng = random.Random(1215)
    primes = (2, 3, 5, 7, 11, 13)
    # each row over its own denominator: det S is a product of distinct primes
    mixed = [[Fraction(rng.randint(-6, 6), p) for _ in range(6)] for p in primes]
    integers = [[Fraction(rng.randint(-9, 9)) for _ in range(5)] for _ in range(5)]
    zero_row = [row[:] for row in integers]
    zero_row[2] = [Fraction(0)] * 5
    cases = [
        _rational_matrix(rng, 12, 15),
        _rational_matrix(rng, 12, 15),
        mixed,
        [row[:4] for row in mixed],
        integers,
        zero_row,
        [row + [Fraction(rng.randint(-9, 9))] for row in zero_row],
    ]
    for rows in cases:
        ncols = len(rows[0])
        x0 = [_rational(rng) for _ in range(ncols)]
        consistent = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
        arbitrary = [_rational(rng) for _ in rows]
        _check_against_sympy(rows, [consistent, arbitrary], sympy.QQ)


def test_constant_matrix_with_polynomial_right_hand_sides():
    rng = random.Random(1216)
    v = REG.var("v")
    for nrows, ncols in ((3, 3), (4, 6), (6, 6), (5, 3)):
        rows = [[_rational(rng) for _ in range(ncols)] for _ in range(nrows)]
        x0 = [v.scale(_rational(rng)) + _rational(rng) for _ in range(ncols)]
        consistent = ExactMatrix(REG, rows).mul_vector(x0)
        arbitrary = [v.scale(_rational(rng)) + _rational(rng) for _ in range(nrows)]
        matrix = _check_against_sympy(rows, [consistent, arbitrary], QV)
        for rhs in (consistent, arbitrary):
            solution = matrix.solve(rhs) or []
            assert all(type(c) is Fraction for x in solution for c in x.terms.values())
