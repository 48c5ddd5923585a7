"""Differential test of `ExactMatrix` against sympy on seeded random matrices.

Over Q: up to 8 x 11, with rank-deficient cases built as products of thin
factors, plus the shapes the integer elimination of constant matrices is
sensitive to: 12 x 15, rows with different denominators, zero rows,
integer rows, and polynomial right-hand sides.  Over Q[v]: up to 4 x 6,
entries linear in v, some rows repeated as sums of others.  About a third
of the matrices are square.  Rank-deficient shapes (a zero column before
the first pivot, a free column between pivots, duplicate and zero rows),
tall and wide matrices and sparse squares, over Q and Q[v], exercise the
forward elimination that `rank` and `det` run, and near-monomial shapes
over Q[v] (about one nonzero per row) the rows a pivot step skips.  rank and det
are compared with sympy, and kernels are checked by annihilation and
size.  On matrices of constants,
`_solve` must give sympy's solution with every free unknown 0, or None
exactly when sympy finds no solution, right-hand sides over Q[v] included.

Polynomial matrices are eliminated as Kronecker-packed integers, so the
packing's width and radices get their own cases: entries of degree <= 3
in v and w with negative leading coefficients, over Q(v, w); a 4 x 4
Sylvester-Hadamard +-1 matrix times (v - 1), whose minors come near the
row-norm bound the width is taken from; a sparse v^200 entry, whose
packed minors are mostly zero digits; and the coefficient matrices that
`is_rational_normal_curve` ranks for torus-family images whose y1 image
gains a y0 term, over Q(v, y0).
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from fano22.constants import REG_F3, PaperConstants  # noqa: E402
from fano22.linalg import ExactMatrix, coefficient_matrix  # noqa: E402
from fano22.maps import ParamCurve, is_rational_normal_curve  # noqa: E402
from fano22.poly import Registry  # noqa: E402

from helpers import check_reduced_pivot_rows, near_monomial_shapes, solution  # noqa: E402

REG = Registry([("v", "family-parameter")])
V = sympy.Symbol("v")
QV = sympy.QQ.frac_field(V)
REG_VW = Registry([("v", "family-parameter"), ("w", "family-parameter")])
QVW = sympy.QQ.frac_field(V, sympy.Symbol("w"))


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _to_sympy(entry):
    """A scalar or a Polynomial as a sympy expression."""
    if isinstance(entry, (int, Fraction)):
        return sympy.Rational(entry.numerator, entry.denominator)
    symbols = sympy.symbols(entry.registry.names)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[x ** k for x, k in zip(symbols, e)])
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


def _check_against_sympy(rows, rhs_list, field, registry=REG) -> ExactMatrix:
    matrix = ExactMatrix(registry, rows)
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
        ours = solution(matrix, rhs)
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
        assert solution(matrix, consistent) is not None


def test_polynomial_matrices_match_sympy():
    # rank, det and kernel only: `_solve` is for matrices of constants
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
            x = solution(matrix, rhs) or []
            assert all(type(c) is Fraction for p in x for c in p.terms.values())


def _deficient_shapes(rng: random.Random, entry) -> list[list[list]]:
    """Rank-deficient, tall, wide and sparse matrices of `entry()`s, the shapes
    where the forward elimination of `rank` and `det` skips columns or rows."""
    def block(nrows, ncols):
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]

    zero = entry() * 0
    square = block(4, 4)
    cases = [
        # a zero column before the first pivot
        [[zero] + row[1:] for row in square],
        # a free column between pivots: column 2 = column 0 + column 1
        [row[:2] + [row[0] + row[1]] + row[3:] for row in square],
        # duplicate rows
        [square[0], square[1], square[0], square[2]],
        # all-zero rows, first and in the middle
        [[zero] * 4, square[1], [zero] * 4, square[3]],
        # tall, full column rank, and tall with a repeated column
        block(7, 3),
        [row + [row[1]] for row in block(6, 3)],
        # wide, full row rank, and wide with a zero row
        block(3, 7),
        block(2, 6) + [[zero] * 6],
        # a free column before a pivot that needs a row swap
        [[zero, zero, entry()], [zero, zero, entry()], [entry(), entry(), entry()]],
    ]
    # sparse squares: zero heads under pivots that differ from the previous pivot
    for n in (4, 5, 5, 6):
        cases.append([[entry() if rng.random() < 0.5 else zero for _ in range(n)]
                      for _ in range(n)])
    # the first four once more with the last row the difference of two others
    for rows in cases[:4]:
        cases.append(rows[:3] + [[a - b for a, b in zip(rows[1], rows[2])]])
    return cases


def test_forward_elimination_shapes_match_sympy():
    """rank and det (and kernel) on rank-deficient, tall and wide matrices, over Q and Q[v]."""
    rng = random.Random(2210)
    v = REG.var("v")
    for entry, field in ((lambda: _rational(rng), sympy.QQ),
                         (lambda: v.scale(_rational(rng)) + _rational(rng), QV)):
        for rows in _deficient_shapes(rng, entry):
            matrix = _check_against_sympy(rows, [], field)
            if matrix.nrows == matrix.ncols:
                assert matrix.det().is_zero() == (matrix.rank() < matrix.nrows)


def test_near_monomial_matrices_match_sympy():
    """Permutation x diagonal, tall with one nonzero per column, blocks whose rows
    keep zero heads for several steps, staircases and rank-deficient shapes over
    Q[v], with monomial and linear entries (over Q: `test_linalg`)."""
    rng = random.Random(2702)
    v = REG.var("v")

    def entry():
        c = Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 5))
        return rng.choice([REG.const(c), v.scale(c), (v ** 2).scale(c), v.scale(c) + 1 - c])

    for rows in near_monomial_shapes(rng, entry, REG.zero):
        check_reduced_pivot_rows(_check_against_sympy(rows, [], QV))


def _negative_lead(rng: random.Random, degree: int):
    """A random polynomial in v, w of total degree <= `degree`, leading coefficient < 0."""
    v, w = REG_VW.var("v"), REG_VW.var("w")
    monomials = [v ** i * w ** j for i in range(degree + 1) for j in range(degree + 1 - i)]
    chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))
    p = sum((m.scale(_rational(rng)) for m in chosen), REG_VW.zero)
    if p.is_zero():
        return p
    # the leading coefficient under graded lex order: total degree, then exponent tuple
    _, lead = max(p.terms.items(), key=lambda term: (sum(term[0]), term[0]))
    return -p if lead > 0 else p


def test_bivariate_matrices_match_sympy():
    rng = random.Random(1519)
    for _ in range(12):
        nrows = rng.randint(2, 4)
        ncols = nrows if rng.random() < 0.4 else rng.randint(2, 5)
        rows = [[_negative_lead(rng, rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 2 and rng.random() < 0.5:
            rows[-1] = [a - b.scale(Fraction(3, 2)) for a, b in zip(rows[0], rows[1])]
        _check_against_sympy(rows, [], QVW, REG_VW)


def test_hadamard_minors_near_the_row_norm_bound_match_sympy():
    v = REG.var("v")
    h2 = [[1, 1], [1, -1]]
    h4 = [[a * b for a in ra for b in rb] for ra in h2 for rb in h2]
    rows = [[(v - 1).scale(x) for x in row] for row in h4]
    matrix = _check_against_sympy(rows, [], QV)
    # |det H4| = 16 meets Hadamard's bound 4^(4/2)
    assert matrix.det() == (v - 1) ** 4 * 16
    # one more column, a combination of two: a one-dimensional kernel
    wide = [row + [row[0] - row[3].scale(Fraction(5, 3))] for row in rows]
    assert len(_check_against_sympy(wide, [], QV).kernel()) == 1


def test_sparse_high_degree_entry_matches_sympy():
    v = REG.var("v")
    rows = [[v ** 200, v - 2, 3, 0],
            [1, v, 0, v ** 3 + Fraction(1, 7)],
            [v ** 200 + 1, v.scale(2) - 2, 3, v ** 3 + Fraction(1, 7)]]
    assert len(_check_against_sympy(rows, [], QV).kernel()) == 2
    square = [row[:3] for row in rows[:2]] + [[0, v ** 5, Fraction(-1, 2)]]
    matrix = _check_against_sympy(square, [], QV)
    assert matrix.det() == (v ** 201).scale(Fraction(-1, 2)) + v ** 5 * 3 + v.scale(Fraction(1, 2)) - 1


def test_rational_normal_curve_rank_over_two_parameters_matches_sympy():
    # the (v, y0) shape of a mutant table: the torus family's y1 image
    # gains a y0 term, so the coefficients on x0, x1 live in Q[v, y0]
    c = PaperConstants()
    x0, x1, y0, v = (REG_F3.var(n) for n in ("x0", "x1", "y0", "v"))
    field = sympy.QQ.frac_field(V, sympy.Symbol("y0"))
    extras = [y0 * x0 ** 4, (y0 * x0 ** 2 * x1 ** 2).scale(3),
              (v * y0 ** 2 * x0 * x1 ** 3).scale(Fraction(-5, 4)),
              (x1 ** 4).scale(-1) + y0 * x0 ** 4]
    ranks = []
    for extra in extras:
        sub = c.upsilon_t_parametrization()
        sub["y1"] = sub["y1"] + extra
        curve = ParamCurve(REG_F3, ("x0", "x1"),
                           tuple(p.substitute(sub) for p in c.psi().components))
        _, matrix = coefficient_matrix(REG_F3, curve.components, ("x0", "x1"))
        assert {"v", "y0"} <= {n for row in matrix.rows for e in row for n in e.variables()}
        rank = _domain_matrix(matrix.rows, field).rank()
        assert matrix.rank() == rank
        assert is_rational_normal_curve(curve) == (rank == 6)
        ranks.append(rank)
    assert 6 in ranks and min(ranks) < 6
