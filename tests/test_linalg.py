import random
from fractions import Fraction

import pytest

from fano22.constants import F3_GRADING, REG_F3, REG_Q, PaperConstants
from fano22.linalg import ExactMatrix, coefficient_matrix, combine
from fano22.poly import Polynomial, Registry, RegistryMismatch
from fano22.sections import SectionSpace, coords_in_space, monomial_basis

from helpers import check_reduced_pivot_rows, near_monomial_shapes, solution


@pytest.fixture
def reg():
    return Registry([("x", "coordinate"), ("t", "family-parameter")])


def test_rank_and_det_rational(reg):
    m = ExactMatrix(reg, [[1, 2], [3, 4]])
    assert m.rank() == 2
    assert m.det().constant_value() == -2
    singular = ExactMatrix(reg, [[1, 2], [2, 4]])
    assert singular.rank() == 1
    assert singular.det().is_zero()


def test_det_sign_under_row_pivoting(reg):
    m = ExactMatrix(reg, [[0, 1], [1, 0]])
    assert m.det().constant_value() == -1


def test_det_non_square(reg):
    with pytest.raises(ValueError):
        ExactMatrix(reg, [[1, 2, 3]]).det()


def test_polynomial_entries(reg):
    t = reg.var("t")
    m = ExactMatrix(reg, [[t, 1], [1, t]])
    assert m.det() == t ** 2 - 1
    assert m.rank() == 2


def test_kernel_rational(reg):
    m = ExactMatrix(reg, [[1, 1, 1], [0, 1, 2]])
    kern = m.kernel()
    assert len(kern) == 1
    for vec in kern:
        assert all(e.is_zero() for e in m.mul_vector(vec))


def test_kernel_with_parameters(reg):
    t = reg.var("t")
    # row (1, t): kernel spanned by (t, -1) up to content
    m = ExactMatrix(reg, [[reg.one, t]])
    kern = m.kernel()
    assert len(kern) == 1
    assert all(e.is_zero() for e in m.mul_vector(kern[0]))


def test_kernel_zero_matrix(reg):
    m = ExactMatrix(reg, [[0, 0]])
    kern = m.kernel()
    assert len(kern) == 2


def test_rank_nullity(reg):
    m = ExactMatrix(reg, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.rank() + len(m.kernel()) == m.ncols


def test_a_matrix_without_rows_keeps_its_columns(reg):
    monomials, m = coefficient_matrix(reg, [reg.zero, reg.zero])
    assert monomials == [] and (m.nrows, m.ncols) == (0, 2)
    assert len(m.kernel()) == 2
    assert len(ExactMatrix(reg, [], 3).kernel()) == 3
    with pytest.raises(ValueError):
        ExactMatrix(reg, [[1, 2]], 3)


def test_scalar_entries_must_be_int_or_fraction(reg):
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError, match="scalars must be int or Fraction"):
            ExactMatrix(reg, [[1, bad]])


def test_scalar_entries_read_like_their_constant_polynomials(reg):
    # int, Fraction and mixed rows, alone and next to entries in t, against
    # the same matrix with every entry a Polynomial
    rng = random.Random(23)
    t = reg.var("t")
    for case in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        ints = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(ncols)] for _ in range(nrows)]
        fractions = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in row] for row in ints]
        for scalars in (ints, fractions, [[rng.choice(pair) for pair in zip(a, b)]
                                          for a, b in zip(ints, fractions)]):
            rows = [list(row) for row in scalars]
            if case % 2:
                rows[0][0] = t.scale(rows[0][0]) + 1
            polys = [[e if isinstance(e, Polynomial) else reg.const(e) for e in row]
                     for row in rows]
            got, want = ExactMatrix(reg, rows), ExactMatrix(reg, polys)
            assert got.rows == want.rows == polys
            assert got.rank() == want.rank() and got.kernel() == want.kernel()
            if nrows == ncols:
                assert got.det() == want.det()


def test_det_over_q_v_of_the_torus_family_image():
    # the coefficients of psi's components on the torus family: the image
    # is a rational normal quintic exactly where -(4/5)*v^4*(v - 1) != 0
    c = PaperConstants()
    comps = [p.substitute(c.upsilon_t_parametrization()) for p in c.psi().components]
    _, m = coefficient_matrix(REG_F3, comps, ("x0", "x1"))
    v = REG_F3.var("v")
    assert (m.nrows, m.ncols) == (6, 6)
    assert m.det() == (v ** 4 * (v - 1)).scale(Fraction(-4, 5))
    assert m.rank() == 6 and m.kernel() == []


def test_overflowing_minor_degree_raises(reg):
    t = reg.var("t")
    big = t ** (2 ** 14)
    with pytest.raises(OverflowError):
        ExactMatrix(reg, [[big, 1], [1, big]]).rank()


def test_entries_over_another_registry_rejected(reg):
    other = Registry([("x", "coordinate"), ("t", "family-parameter")])
    with pytest.raises(RegistryMismatch, match="matrix entries must share the registry"):
        ExactMatrix(reg, [[1, other.var("x")]])


def test_ragged_rows_rejected(reg):
    with pytest.raises(ValueError):
        ExactMatrix(reg, [[1, 2], [1]])


def test_solve_rejects_a_polynomial_matrix(reg):
    t = reg.var("t")
    with pytest.raises(ValueError, match="constants"):
        ExactMatrix(reg, [[t, 1], [1, t]])._solve([{0: 1}, {}])


def test_solve_with_mixed_scalar_and_polynomial_right_hand_side(reg):
    x = reg.var("x")
    m = ExactMatrix(reg, [[1, 2, 0], [3, -4, 0], [0, 0, 7], [1, 0, 0]])
    rhs = [Fraction(1, 2), x + 1, 3, (x + 2).scale(Fraction(1, 5))]
    assert solution(m, rhs) == [(x + 2).scale(Fraction(1, 5)),
                                reg.const(Fraction(1, 20)) - x.scale(Fraction(1, 10)),
                                reg.const(Fraction(3, 7))]
    assert m.mul_vector(solution(m, rhs)) == [reg.const(Fraction(1, 2)), x + 1, reg.const(3),
                                              (x + 2).scale(Fraction(1, 5))]
    # the last equation now contradicts the first two
    assert solution(m, rhs[:3] + [x]) is None
    assert solution(m, [0, 0, 0, 0]) == [reg.zero] * 3
    # one (pivot column, numerators of d * x_c) per pivot, in row order
    assert [c for c, _ in m._solve([{}, {}, {}, {}])] == [0, 1, 2]


def _reference_coefficient_matrix(registry, polys, variables):
    """Labels and entries of `coefficient_matrix`, built from `Polynomial.terms`."""
    inside = [name in variables for name in registry.names]
    columns = []
    for p in polys:
        column = {}
        for e, c in p.terms.items():
            label = tuple(k if i else 0 for k, i in zip(e, inside))
            rest = tuple(0 if i else k for k, i in zip(e, inside))
            column[label] = column.get(label, registry.zero) + Polynomial(registry, {rest: c})
        columns.append(column)
    labels = sorted({label for column in columns for label in column})
    return labels, [[column.get(label, registry.zero) for column in columns] for label in labels]


def _random_polynomial(rng, registry, names):
    terms = {}
    for _ in range(rng.randint(0, 8)):
        e = [0] * len(registry)
        for name in rng.sample(names, rng.randint(0, 3)):
            e[registry.index(name)] = rng.randint(1, 3)
        terms[tuple(e)] = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 4))
    return Polynomial(registry, terms)


@pytest.mark.parametrize("registry, used, pair", [
    (REG_F3, ("x0", "x1", "y0", "y1", "w0", "w3", "a", "lam", "v"), ("x0", "x1")),
    (REG_Q, ("w0", "w1", "w4", "c", "lam", "t0", "t1", "u1"), ("t0", "t1")),
])
def test_coefficient_matrix_matches_a_reference_from_terms(registry, used, pair):
    """Labels (decoded from their keys), row order and entries on seeded
    polynomials with parameters, taken on all variables, on the coordinates
    and on a binary pair."""
    rng = random.Random(20261019)
    coordinates = [n for n, r in zip(registry.names, registry.roles)
                   if r not in ("group-parameter", "family-parameter")]
    for variables in (registry.names, coordinates, pair):
        for _ in range(15):
            polys = [_random_polynomial(rng, registry, list(used))
                     for _ in range(rng.randint(1, 4))]
            keys, matrix = coefficient_matrix(registry, polys, variables)
            expected_labels, expected_rows = _reference_coefficient_matrix(
                registry, polys, variables)
            assert [registry._expo(k) for k in keys] == expected_labels
            assert matrix.rows == expected_rows
            assert (matrix.nrows, matrix.ncols) == (len(keys), len(polys))


def _fraction_det(rows) -> Fraction:
    """Determinant of a square matrix of Fractions by plain Gauss elimination."""
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def test_the_layer_shapes_of_the_core_benchmark():
    """12 x 15 over Q and 6 x 8 over Q[v], entries linear in v, drawn the way
    the core-scale benchmark draws its matrices: the rank, the det of the
    leading square block against Gauss elimination over Q (at points of v
    for Q[v]), and kernels that the matrix sends to zero."""
    rng = random.Random(22)
    reg = Registry([("v", "family-parameter")])
    v = reg.var("v")

    def coeff():
        return Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 4))

    q_rows = [[Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(15)]
              for _ in range(12)]
    qv_rows = [[v.scale(coeff()) + coeff() for _ in range(8)] for _ in range(6)]
    for rows, rank in ((q_rows, 12), (qv_rows, 6)):
        m = ExactMatrix(reg, rows)
        assert m.rank() == rank
        kern = m.kernel()
        assert len(kern) == m.ncols - rank
        for vec in kern:
            assert all(e.is_zero() for e in m.mul_vector(vec))
    assert ExactMatrix(reg, [row[:12] for row in q_rows]).det() == _fraction_det(
        [row[:12] for row in q_rows])
    det = ExactMatrix(reg, [row[:6] for row in qv_rows]).det()
    assert 0 < det.degree_in("v") <= 6
    for t in range(-3, 5):
        at = {"v": reg.const(t)}
        values = [[e.substitute(at).constant_value() for e in row[:6]] for row in qv_rows]
        assert det.substitute(at).constant_value() == _fraction_det(values)


def test_a_section_space_of_rational_combinations_in_shuffled_order():
    """The (2, 3) sections on F3 on a basis of rational combinations of the 30
    monomials, in shuffled order: coordinates with coefficients in the family
    parameter v round-trip through `combine`, and the coefficient matrix the
    space reduces holds ints, not polynomials."""
    rng = random.Random(2203)
    monomials = monomial_basis(REG_F3, F3_GRADING, (2, 3), ["x0", "x1", "y0", "y1"])
    assert len(monomials) == 30

    def rational():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 7))

    # unitriangular on the monomials, so independent
    basis = [m + combine(REG_F3, [rational(), rational()], monomials[i + 1:i + 3])
             for i, m in enumerate(monomials)]
    rng.shuffle(basis)
    space = SectionSpace(REG_F3, basis, (2, 3), F3_GRADING)
    assert space._matrix._seen == 0 and space._matrix._rows is None
    v = REG_F3.var("v")
    coeffs = [v.scale(rational()) + rational() for _ in basis]
    f = combine(REG_F3, coeffs, basis)
    assert coords_in_space(f, space) == coeffs
    assert coords_in_space(f + REG_F3.var("x0"), space) is None


def _fraction_gauss_jordan(rows):
    """(reduced row echelon form, pivot columns) over Fractions, pivots 1."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def test_near_monomial_matrices_match_fraction_gauss_jordan(reg):
    """rank, det, kernel and `_solve` on near-monomial matrices over Q against
    plain Gauss–Jordan over Fractions."""
    rng = random.Random(2701)

    def entry():
        return Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 5, 9]), rng.randint(1, 6))

    for rows in near_monomial_shapes(rng, entry, Fraction(0)):
        matrix = ExactMatrix(reg, rows)
        ncols = matrix.ncols
        reduced, pivots = _fraction_gauss_jordan(rows)
        assert matrix.rank() == len(pivots)
        if matrix.nrows == ncols:
            assert matrix.det() == reg.const(_fraction_det(rows))
        free = [j for j in range(ncols) if j not in pivots]
        expected = []
        for j in free:
            vec = [Fraction(0)] * ncols
            vec[j] = Fraction(1)
            for row, c in zip(reduced, pivots):
                vec[c] = -row[j]
            expected.append(vec)
        kernel = [[e.constant_value() for e in vec] for vec in matrix.kernel()]
        assert [[x / vec[j] for x in vec] for vec, j in zip(kernel, free)] == expected
        check_reduced_pivot_rows(matrix)
        x0 = [entry() if rng.random() < 0.7 else Fraction(0) for _ in range(ncols)]
        consistent = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
        for rhs in (consistent, [entry() for _ in rows]):
            augmented, pivots_b = _fraction_gauss_jordan([row + [b] for row, b in zip(rows, rhs)])
            if ncols in pivots_b:
                assert solution(matrix, rhs) is None
                continue
            x = [Fraction(0)] * ncols
            for row, c in zip(augmented, pivots_b):
                x[c] = row[ncols]
            assert solution(matrix, rhs) == [reg.const(c) for c in x]
        assert solution(matrix, consistent) is not None
