"""Property-based checks of the algebra core on randomized small instances."""

import itertools
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from fano22.linalg import ExactMatrix
from fano22.poly import PACK_PAIRS, Derivation, Polynomial, Registry
from fano22.sections import SectionSpace, coords_in_space

REG = Registry([("x", "coordinate"), ("y", "coordinate"), ("z", "coordinate")])

_fractions = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)
_exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(_exponents)] = draw(_fractions)
    return Polynomial(REG, terms)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    return ExactMatrix(
        REG,
        [[draw(_fractions) for _ in range(ncols)] for _ in range(nrows)],
    )


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + REG.zero == f
    assert f * REG.one == f


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys(max_terms=2), polys(max_terms=2))
def test_substitution_homomorphism(f, g, img_x, img_y):
    sub = {"x": img_x, "y": img_y}
    assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)
    assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)


@settings(max_examples=120, deadline=None)
@given(polys(), polys())
def test_division_round_trip(f, g):
    if g.is_zero():
        return
    product = f * g
    q = product.exact_divide(g)
    assert q is not None and q == f


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys(max_terms=2), polys(max_terms=2))
def test_leibniz(f, g, img_x, img_y):
    D = Derivation(REG, {"x": img_x, "y": img_y})
    assert D(f * g) == D(f) * g + f * D(g)
    assert D(f + g) == D(f) + D(g)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    kern = m.kernel()
    assert m.rank() + len(kern) == m.ncols
    for vec in kern:
        assert all(e.is_zero() for e in m.mul_vector(vec))


@st.composite
def deficient_matrices(draw):
    """Square or not, over Q or with polynomial entries, often rank-deficient:
    zero entries and columns, repeated rows and rows that are sums of two others."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), draw(st.sampled_from([_fractions, polys(max_terms=2)])))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    for _ in range(draw(st.integers(0, 2))):
        i, a, b = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        rows[i] = [x + y for x, y in zip(rows[a], rows[b])] if a != b else list(rows[a])
    return ExactMatrix(REG, rows)


def _leibniz_det(rows) -> Polynomial:
    """sum over permutations s of sign(s) * prod rows[i][s(i)], by plain arithmetic."""
    total = REG.zero
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = REG.one if inversions % 2 == 0 else -REG.one
        for row, j in zip(rows, perm):
            term = term * row[j]
        total = total + term
    return total


@settings(max_examples=150, deadline=None)
@given(deficient_matrices())
# a zero head under a first pivot 2: the row is still scaled by 2 / 1
@example(ExactMatrix(REG, [[2, 1, 0], [0, 1, 1], [1, 0, 1]]))
def test_rank_kernel_and_det_agree(m):
    """The forward elimination (rank, det) agrees with the Gauss–Jordan one
    (kernel), and det with the Leibniz formula."""
    rank, kern = m.rank(), m.kernel()
    assert rank + len(kern) == m.ncols
    for vec in kern:
        assert all(e.is_zero() for e in m.mul_vector(vec))
    if m.nrows == m.ncols:
        det = m.det()
        assert det.is_zero() == (rank < m.nrows)
        assert det == _leibniz_det(m.rows)


def _evaluate(f: Polynomial, point) -> Fraction:
    powers = [[p ** e for e in range(f.degree_in(n) + 1)] for p, n in zip(point, REG.names)]
    total = Fraction(0)
    for expo, c in f.terms.items():
        for pw, e in zip(powers, expo):
            c *= pw[e]
        total += c
    return total


#: operands of at least 45 terms each, so that their product is packed in the
#: box over y, z, with coefficients below 10 (one-word digits) or up to 10**12
#: (digits of several 30-bit words)
_large_polys = st.sampled_from([9, 10 ** 12]).flatmap(lambda m: st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    st.integers(-m, m).filter(bool),
    min_size=45, max_size=70,
)).map(lambda terms: Polynomial(REG, terms))
#: the 56 monomials of degree <= 5, the support of one example per digit width
_DENSE = [e for e in itertools.product(range(6), repeat=3) if sum(e) <= 5]
_points = st.tuples(_fractions, _fractions, _fractions)

#: substitution images of every kind: zero, a constant, one term, 2 to 3 terms
_images = st.one_of(
    st.just(REG.zero),
    _fractions.map(REG.const),
    *(st.dictionaries(_exponents, _fractions.filter(bool), min_size=lo, max_size=hi)
      .map(lambda terms: Polynomial(REG, terms)) for lo, hi in ((1, 1), (2, 3))),
)


@settings(max_examples=150, deadline=None)
@given(polys(), st.dictionaries(st.sampled_from(REG.names), _images, min_size=1), _points)
@example(f=Polynomial(REG, {(1, 1, 0): 1, (0, 0, 2): Fraction(1, 2)}),
         sub={"x": Polynomial(REG, {(0, 1, 1): Fraction(2, 3)})},
         point=(Fraction(1, 2), Fraction(3), Fraction(-1)))
def test_substitution_commutes_with_evaluation(f, sub, point):
    images = tuple(_evaluate(sub[n], point) if n in sub else p for n, p in zip(REG.names, point))
    assert _evaluate(f.substitute(sub), point) == _evaluate(f, images)


@settings(max_examples=20, deadline=None)
@given(_large_polys, _large_polys, st.lists(_points, min_size=2, max_size=2))
@example(f=Polynomial(REG, {e: 9 - i % 19 for i, e in enumerate(_DENSE)}),
         g=Polynomial(REG, {e: i % 7 - 3 or 5 for i, e in enumerate(_DENSE)}),
         points=[(Fraction(1, 2), Fraction(-3), Fraction(2, 5))] * 2)
@example(f=Polynomial(REG, {e: 10 ** 12 - i for i, e in enumerate(_DENSE)}),
         g=Polynomial(REG, {e: i - 10 ** 11 for i, e in enumerate(_DENSE)}),
         points=[(Fraction(-1), Fraction(1, 3), Fraction(7))] * 2)
def test_large_product_evaluates_to_product_of_values(f, g, points):
    assert len(f.terms) * len(g.terms) >= PACK_PAIRS
    product = f * g
    for p in points:
        assert _evaluate(product, p) == _evaluate(f, p) * _evaluate(g, p)


REG_V = Registry([("x", "coordinate"), ("y", "coordinate"), ("z", "coordinate"),
                  ("v", "family-parameter")])
#: the 10 monomials of degree <= 2 in x, y, z
_MONOMIALS = [e + (0,) for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]


def _rank(vectors) -> int:
    """Rank of Fraction vectors by plain Gauss elimination."""
    rows = [list(r) for r in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = row[c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


@st.composite
def spans(draw):
    """(monomials, rows, coefficients): basis element i has coefficient
    rows[r][i] on monomials[r], each row over its own denominator, and
    coefficients[i] lists the coefficients of v^0, v^1, ... of c_i."""
    dim = draw(st.integers(3, 6))
    monomials = draw(st.lists(st.sampled_from(_MONOMIALS), min_size=dim, max_size=8,
                              unique=True))
    rows = []
    for _ in monomials:
        q = draw(st.integers(1, 6))
        rows.append([Fraction(draw(st.integers(-4, 4)), q) for _ in range(dim)])
    coefficients = draw(st.lists(st.lists(_fractions, min_size=1, max_size=3),
                                 min_size=dim, max_size=dim))
    return monomials, rows, coefficients


#: last pivot -1 (the z^2 row), with the xy row left as a consistency row
_NEGATIVE_PIVOT = (
    [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 0, 0)],
    [[Fraction(1), Fraction(0), Fraction(0)],
     [Fraction(0), Fraction(1, 2), Fraction(0)],
     [Fraction(0), Fraction(0), Fraction(-1, 3)],
     [Fraction(1), Fraction(1), Fraction(1)]],
    [[Fraction(1), Fraction(-2)], [Fraction(0), Fraction(0), Fraction(3, 4)], [Fraction(5)]],
)


@settings(max_examples=100, deadline=None)
@given(spans())
@example(_NEGATIVE_PIVOT)
def test_coords_recover_parameter_coefficients(data):
    monomials, rows, coefficients = data
    dim = len(coefficients)
    vectors = [[row[i] for row in rows] for i in range(dim)]
    assume(_rank(vectors) == dim)
    basis = [Polynomial(REG_V, dict(zip(monomials, vec))) for vec in vectors]
    space = SectionSpace(REG_V, basis)
    v = REG_V.var("v")
    c = [sum((v ** k).scale(a) for k, a in enumerate(cs)) for cs in coefficients]
    f = sum(ci * b for ci, b in zip(c, basis))
    assert coords_in_space(f, space) == c
    assert coords_in_space(REG_V.zero, space) == [REG_V.zero] * dim
    # a basis monomial outside the span, with a coefficient in v, leaves it
    support = [m for m, row in zip(monomials, rows) if any(row)]
    for m in support:
        unit = [Fraction(int(n == m)) for n in monomials]
        if _rank(vectors + [unit]) > dim:
            outside = f + (v + 1) * Polynomial(REG_V, {m: 1})
            assert coords_in_space(outside, space) is None
            break
    else:
        assert len(support) == dim
