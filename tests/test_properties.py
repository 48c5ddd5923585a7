"""Property-based checks of the algebra core on randomized small instances."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fano22.linalg import ExactMatrix
from fano22.poly import PACK_PAIRS, Derivation, Polynomial, Registry

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


def _evaluate(f: Polynomial, point) -> Fraction:
    powers = [[p ** e for e in range(f.degree_in(n) + 1)] for p, n in zip(point, REG.names)]
    total = Fraction(0)
    for expo, c in f.terms.items():
        for pw, e in zip(powers, expo):
            c *= pw[e]
        total += c
    return total


#: operands of at least 45 terms each, so that their product is packed
_large_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    st.integers(-10 ** 12, 10 ** 12).filter(bool),
    min_size=45, max_size=70,
).map(lambda terms: Polynomial(REG, terms))
_points = st.tuples(_fractions, _fractions, _fractions)


@settings(max_examples=20, deadline=None)
@given(_large_polys, _large_polys, st.lists(_points, min_size=2, max_size=2))
def test_large_product_evaluates_to_product_of_values(f, g, points):
    assert len(f.terms) * len(g.terms) >= PACK_PAIRS
    product = f * g
    for p in points:
        assert _evaluate(product, p) == _evaluate(f, p) * _evaluate(g, p)
