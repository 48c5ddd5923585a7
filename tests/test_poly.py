import itertools
import random
import time
from fractions import Fraction

import pytest

from fano22 import poly
from fano22.poly import (
    FIELD_BITS,
    PACK_PAIRS,
    Derivation,
    Polynomial,
    Registry,
    RegistryMismatch,
    cross,
    format_poly,
    poly_sum,
)

#: total degree at which a monomial key would carry out of its field
LIMIT = 2 ** (FIELD_BITS - 1)


@pytest.fixture
def reg():
    return Registry([("x", "coordinate"), ("y", "coordinate"), ("t", "family-parameter")])


def test_basic_arithmetic(reg):
    # == compares numerator dicts: a term that cancels must not stay behind as 0
    x, y = reg.var("x"), reg.var("y")
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert (f - f).is_zero()
    assert poly_sum(reg, [f.scale(Fraction(1, 3)), f.scale(Fraction(-1, 3))]) == reg.zero
    assert (x + 1) * (x - 1) == x ** 2 - 1


def test_pow(reg):
    x = reg.var("x")
    assert x ** 0 == reg.one
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    with pytest.raises(ValueError):
        x ** -1


def test_scalar_coercion_and_scale(reg):
    x = reg.var("x")
    assert 2 * x == x + x
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x
    assert (3 - x) + (x - 3) == reg.zero


@pytest.mark.parametrize("make", [
    lambda reg: Polynomial(reg, {(1, 0, 0): 0.5}),
    lambda reg: reg.const(0.5),
    lambda reg: reg.var("x").scale(0.1),
    lambda reg: reg.var("x") + 0.5,
    lambda reg: 0.5 * reg.var("x"),
    lambda reg: reg.var("x").substitute({"x": 0.5}),
])
def test_float_scalars_rejected(reg, make):
    with pytest.raises(TypeError):
        make(reg)


def test_constant_value_and_predicates(reg):
    assert reg.const(Fraction(7, 2)).constant_value() == Fraction(7, 2)
    assert reg.zero.is_zero() and reg.zero.is_constant()
    with pytest.raises(ValueError):
        reg.var("x").constant_value()


def test_degrees_and_leading(reg):
    x, y = reg.var("x"), reg.var("y")
    f = x ** 2 * y + y ** 2
    assert f.total_degree() == 3
    assert f.degree_in("x") == 2 and f.degree_in("y") == 2
    # the leading term under graded lex order: total degree, then exponent tuple
    expo, coeff = max(f.terms.items(), key=lambda term: (sum(term[0]), term[0]))
    assert coeff == 1 and expo[reg.index("x")] == 2


def test_substitute_is_homomorphism(reg):
    x, y = reg.var("x"), reg.var("y")
    f = x ** 2 + 3 * x * y
    g = y ** 3 - 1
    sub = {"x": y + 1, "y": x * y}
    assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)
    assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)
    # a zero image drops exactly the terms its variable occurs in
    t = reg.var("t")
    f = x ** 2 * y + 3 * y * t - x.scale(Fraction(1, 2)) + 2
    assert f.substitute({"x": reg.zero}) == 3 * y * t + 2
    assert f.substitute({"x": reg.zero, "y": t.scale(Fraction(2, 5)), "t": y + 1}) == \
        t.scale(Fraction(6, 5)) * (y + 1) + 2
    assert (x * y).substitute({"x": reg.zero, "y": y + t}) == reg.zero
    # products of two-term images that cancel in full
    assert (x - y).substitute({"x": y + t, "y": y + t}) == reg.zero


def test_exact_divide(reg):
    x, y = reg.var("x"), reg.var("y")
    f = (x + y) ** 3
    assert f.exact_divide(x + y) == (x + y) ** 2
    assert (x ** 2 + y).exact_divide(x + y) is None
    assert (x ** 2 + x).exact_divide(2 * x + 2) == x.scale(Fraction(1, 2))
    assert x.exact_divide(2 * x + 3) is None
    assert f.exact_divide(reg.const(Fraction(-3, 2))) == f.scale(Fraction(-2, 3))
    with pytest.raises(ZeroDivisionError):
        f.exact_divide(reg.zero)


def test_coefficient_of(reg):
    x, y = reg.var("x"), reg.var("y")
    f = 2 * x ** 2 * y + x * y - 5 * y ** 3
    assert f.coefficient_of("x", 2) == 2 * y
    assert f.coefficient_of("x", 0) == -5 * y ** 3
    assert f.coefficient_of("y", 1) == 2 * x ** 2 + x


def test_content_and_primitive_normal(reg):
    x, y = reg.var("x"), reg.var("y")
    f = x.scale(Fraction(4, 3)) + y.scale(Fraction(2, 3))
    assert f.primitive_normal() == 2 * x + y
    assert (-f).primitive_normal() == 2 * x + y  # sign normalized


def test_strip_variable_factor(reg):
    x, y = reg.var("x"), reg.var("y")
    f = x ** 2 * y + x ** 3
    assert f.strip_variable_factor("x") == y + x
    assert f.strip_variable_factor("y") == f


def test_registry_mismatch():
    r1 = Registry([("x", "coordinate")])
    r2 = Registry([("x", "coordinate")])
    with pytest.raises(RegistryMismatch):
        r1.var("x") + r2.var("x")


def test_derivation_leibniz(reg):
    x, y = reg.var("x"), reg.var("y")
    D = Derivation(reg, {"x": y, "y": x * x})
    f = x ** 2 * y
    g = x + y ** 2
    assert D(f * g) == D(f) * g + f * D(g)
    assert D(reg.const(5)).is_zero()
    assert Derivation(reg, {"x": x, "y": -y})(x * y) == reg.zero


def test_format(reg):
    x, y = reg.var("x"), reg.var("y")
    assert format_poly(reg.zero) == "0"
    assert format_poly(-x + y ** 2) == "y^2 - x"
    assert format_poly(x.scale(Fraction(1, 2))) == "(1/2)*x"
    assert format_poly(3 * x * y) == "3*x*y"


def test_degree_reaching_field_width_raises(reg):
    x, y = reg.var("x"), reg.var("y")
    top = y ** (LIMIT - 1)
    assert top.degree_in("y") == LIMIT - 1 and top.total_degree() == LIMIT - 1
    with pytest.raises(OverflowError):
        top * y
    with pytest.raises(OverflowError):
        (x + 1) * top
    with pytest.raises(OverflowError):
        x ** LIMIT
    with pytest.raises(OverflowError):
        Polynomial(reg, {(LIMIT, 0, 0): 1})
    with pytest.raises(OverflowError):
        (x * y).substitute({"x": y ** (LIMIT - 1)})
    with pytest.raises(OverflowError):
        (x * y).substitute({"x": y ** (LIMIT - 1), "y": y + 1})
    with pytest.raises(OverflowError):
        Derivation(reg, {"y": y ** 2})(top)
    assert Derivation(reg, {"y": y})(top) == (LIMIT - 1) * top


def test_degree_lowering_substitution_at_the_limit(reg):
    x, y, t = reg.var("x"), reg.var("y"), reg.var("t")
    f = x * y ** (LIMIT - 2) + 3 * t
    assert f.total_degree() == LIMIT - 1
    g = f.substitute({"x": 1})
    assert g == y ** (LIMIT - 2) + 3 * t
    assert g.degree_in("y") == LIMIT - 2 and g.degree_in("x") == 0
    assert f.substitute({"x": Fraction(1, 2), "t": t + 1}) == \
        (y ** (LIMIT - 2)).scale(Fraction(1, 2)) + 3 * t + 3


def test_exact_divide_never_borrows_between_fields(reg):
    x, y, t = reg.var("x"), reg.var("y"), reg.var("t")
    assert (x * y ** 2).exact_divide(x ** 2 * y) is None
    assert (y ** 2).exact_divide(x) is None
    assert (x * t ** 3 + y).exact_divide(x * t + y) is None
    assert (x * y ** 2).exact_divide(x * y) == y
    assert (x * y ** 2 + 2 * t).exact_divide(reg.const(Fraction(2, 3))) == \
        (x * y ** 2).scale(Fraction(3, 2)) + 3 * t


def test_terms_view_is_tuple_keyed_and_read_only(reg):
    x, y = reg.var("x"), reg.var("y")
    f = x.scale(Fraction(1, 2)) - 3 * x * y ** 2 + 4
    assert len(f.terms) == 3
    assert dict(f.terms.items()) == {
        (1, 0, 0): Fraction(1, 2), (1, 2, 0): Fraction(-3), (0, 0, 0): Fraction(4)}
    assert f.terms[(1, 2, 0)] == -3 and isinstance(f.terms[(0, 0, 0)], Fraction)
    assert (0, 1, 0) not in f.terms and (1, 0) not in f.terms
    assert Polynomial(reg, dict(f.terms)) == f
    with pytest.raises(TypeError):
        f.terms[(0, 1, 0)] = Fraction(1)


def test_hash_agrees_with_equality(reg):
    x, y = reg.var("x"), reg.var("y")
    assert reg.const(3) == 3 and hash(reg.const(3)) == hash(3)
    assert len({reg.const(3), 3}) == 1
    assert hash(reg.const(Fraction(-5, 2))) == hash(Fraction(-5, 2))
    assert hash(reg.zero) == hash(0)
    f = (x.scale(Fraction(1, 2)) + y.scale(Fraction(1, 2))) * 2
    assert f == x + y and hash(f) == hash(x + y)


# -- the packed product -------------------------------------------------------
#
# Products of at least PACK_PAIRS term pairs, of operands that fill their
# slices, pack the last variable into big integers.  Each case compares such
# a product with the sum of the products of one operand by the single terms
# of the other, which never pack.


def _by_single_terms(f, g):
    reg = f.registry
    return poly_sum(reg, [f * Polynomial(reg, {e: c}) for e, c in g.terms.items()])


def _dense(reg, degree, coeff):
    """Every monomial of total degree <= degree, each with coefficient coeff()."""
    return Polynomial(reg, {e: coeff() for e in itertools.product(range(degree + 1), repeat=len(reg))
                            if sum(e) <= degree})


def _packs(f, g):
    unit = f.registry._units[-1]
    return (min(len(f.terms), len(g.terms)) > 1 and len(f.terms) * len(g.terms) >= PACK_PAIRS
            and poly._fills_slices(unit, f._terms) and poly._fills_slices(unit, g._terms))


def _count_packed(monkeypatch) -> list:
    calls = []
    real = poly._mul_packed
    monkeypatch.setattr(poly, "_mul_packed", lambda *args: calls.append(args) or real(*args))
    return calls


def test_packed_digits_below_a_positive_leading_one_carry():
    # each negative digit borrows one from the digit above it
    reg_v = Registry([("v", "family-parameter")])
    v = reg_v.var("v")
    m = 2 ** 64 - 1
    f = poly_sum(reg_v, [v ** i for i in range(50)])
    g = (m + 1) * v ** 50 - poly_sum(reg_v, [m * v ** i for i in range(50)])
    assert _packs(f, g)
    product = f * g
    assert product == _by_single_terms(f, g)
    assert product.terms[(99,)] > 0 and product.terms[(50,)] < 0


@pytest.mark.parametrize("m", [2 ** 64 - 1, 10 ** 30])
@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1)])
def test_packed_digits_hold_same_sign_maxima(reg, m, signs):
    # every coefficient at +-m: up to 28 term pairs, from as many slice
    # pairs, meet in one output coefficient, which then outgrows a digit
    # sized for the at most 6 terms of one slice
    f = _dense(reg, 5, lambda: signs[0] * m)
    g = _dense(reg, 5, lambda: signs[1] * m)
    assert _packs(f, g)
    product = f * g
    assert product == _by_single_terms(f, g)
    assert max(abs(c) for c in product.terms.values()) > 16 * m * m


def test_packed_product_of_operands_without_the_last_variable(reg):
    rng = random.Random(7)
    x, y = reg.var("x"), reg.var("y")
    f = poly_sum(reg, [rng.randint(-10 ** 12, 10 ** 12) * x ** i * y ** j
                       for i in range(10) for j in range(10 - i)])
    g = poly_sum(reg, [rng.randint(-10 ** 12, 10 ** 12) * x ** j * y ** i
                       for i in range(10) for j in range(10 - i)])
    assert "t" not in f.variables() + g.variables() and _packs(f, g)
    assert f * g == _by_single_terms(f, g)


def test_packed_product_over_one_variable():
    reg_v = Registry([("v", "family-parameter")])
    rng = random.Random(11)
    f = _dense(reg_v, 49, lambda: Fraction(rng.randint(-10 ** 12, 10 ** 12) or 1,
                                             rng.randint(1, 9)))
    g = _dense(reg_v, 59, lambda: rng.choice([-1, 1]) * (2 ** 64 - 1))
    assert _packs(f, g)
    assert f * g == _by_single_terms(f, g)
    assert (f * g).exact_divide(g) == f


def test_packed_product_jumps_gaps_in_the_last_variable(reg):
    # gaps as wide as the slices still counting as filled allow
    x, t = reg.var("x"), reg.var("t")
    f = poly_sum(reg, [(i + 1) * t ** i for i in range(44)]) + 3 * t ** 90 + x * t ** 20
    g = poly_sum(reg, [(i - 50) * t ** i for i in range(44)]) - 5 * t ** 70 + x
    assert _packs(f, g)
    product = f * g
    assert product == _by_single_terms(f, g)
    assert (0, 0, 133) in product.terms and (0, 0, 160) in product.terms
    assert not any((0, 0, e) in product.terms for e in range(134, 160))


#: x, y, z, w, the variables of the benchmark's large products
REG_XYZW = Registry([(name, "coordinate") for name in ("x", "y", "z", "w")])


def _sparse_in_w(rng, n):
    """n terms in x, y, z, w: x, y, z to the power 0-3, w to 0, 1 or 16000."""
    terms = {}
    while len(terms) < n:
        expo = tuple(rng.randint(0, 3) for _ in range(3)) + (rng.choice([0, 1, 16000]),)
        terms[expo] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    return Polynomial(REG_XYZW, terms)


def test_sparse_last_variable_products_take_the_dict_loop(monkeypatch):
    # packed, the w-slices are ints of 16001 digits holding at most three
    # terms each; that product took over 0.3 s, the dict loop takes about 1 ms
    rng = random.Random(46)
    f, g = _sparse_in_w(rng, 46), _sparse_in_w(rng, 46)
    assert len(f.terms) * len(g.terms) >= PACK_PAIRS and not _packs(f, g)
    calls = _count_packed(monkeypatch)
    start = time.perf_counter()
    product = f * g
    elapsed = time.perf_counter() - start
    assert not calls
    assert product == _by_single_terms(f, g)
    assert elapsed < 0.05


def test_dense_operands_in_four_variables_pack(monkeypatch):
    # the benchmark's 210 x 210-term product: every monomial of degree <= 6
    rng = random.Random(210)
    f, g = (_dense(REG_XYZW, 6, lambda: Fraction(rng.randint(1, 9), rng.randint(1, 4)))
            for _ in range(2))
    assert len(f.terms) == len(g.terms) == 210
    # and (1 + w)h * (1 - w)h = (1 - w^2)h^2, h of degree 3: every term pair of
    # degree 7 or 8 whose monomial is not w^2 times one of h^2 cancels
    h = _dense(REG_XYZW, 3, lambda: Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    w = REG_XYZW.var("w")
    pairs = [(f, g), ((1 + w) * h, (1 - w) * h)]
    calls = _count_packed(monkeypatch)
    for f, g in pairs:
        assert _packs(f, g)
        assert f * g == _by_single_terms(f, g)
    assert len(calls) == 2


@pytest.mark.parametrize("shape", [(45, 45), (44, 46)])
def test_packing_starts_at_the_threshold(reg, monkeypatch, shape):
    assert shape[0] * shape[1] in (PACK_PAIRS, PACK_PAIRS - 1)
    rng = random.Random(sum(shape))
    x, y, t = reg.var("x"), reg.var("y"), reg.var("t")
    monomials = [x ** i * y ** j * t ** k for i in range(4) for j in range(4) for k in range(4)]
    f, g = (poly_sum(reg, [rng.choice([-1, 1]) * rng.randint(1, 99) * m
                           for m in rng.sample(monomials, n)])
            for n in shape)
    calls = _count_packed(monkeypatch)
    assert (len(f.terms), len(g.terms)) == shape
    assert all(poly._fills_slices(reg._units[-1], p._terms) for p in (f, g))
    assert f * g == _by_single_terms(f, g)
    assert bool(calls) == (shape[0] * shape[1] >= PACK_PAIRS)


def test_packed_product_reaching_field_width_raises(reg):
    y, t = reg.var("y"), reg.var("t")
    f = poly_sum(reg, [t ** i for i in range(49)]) + y ** (LIMIT - 5)
    g = _dense(reg, 5, lambda: 1)
    assert _packs(f, g)
    with pytest.raises(OverflowError):
        f * g
    assert (f - y ** (LIMIT - 5)) * g == _by_single_terms(f - y ** (LIMIT - 5), g)


# -- cross-differences ----------------------------------------------------------
#
# `cross(p, q, r, s)` accumulates p*q - r*s into one dict; the reference is
# the two products and their difference.


def _seeded(rng, reg, n_terms, den):
    """Up to n_terms terms of degree <= 3 in each variable, over denominators up to den."""
    return Polynomial(reg, {tuple(rng.randint(0, 3) for _ in reg.names):
                            Fraction(rng.randint(-99, 99), rng.randint(1, den))
                            for _ in range(n_terms)})


@pytest.mark.parametrize("seed", range(16))
def test_cross_matches_two_products_and_their_difference(reg, seed):
    rng = random.Random(seed)
    p, q, r, s = (_seeded(rng, reg, rng.randint(0, 9), rng.choice([1, 1, 12])) for _ in range(4))
    assert cross(p, q, r, s) == p * q - r * s
    # products that cancel leave the canonical zero, whatever their denominators
    assert cross(p, q, q, p) == reg.zero
    c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    assert cross(p.scale(c), q, p, q.scale(c)) == reg.zero


def test_cross_of_zero_operands_and_unequal_denominators(reg):
    x, y, t, zero = reg.var("x"), reg.var("y"), reg.var("t"), reg.zero
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        (zero, x, y, t), (x, zero, y, t), (x, y, zero, t), (x, y, t, zero),
        (zero, zero, zero, zero),
        # product denominators 2 and 3
        (x.scale(half), y + 1, t.scale(third), x - y),
        # denominators 2 and 4 whose products cancel in full
        ((x + y).scale(half), x - y, (x * x - y * y).scale(Fraction(1, 4)), reg.const(2)),
        # the difference has a smaller denominator than either product
        (x.scale(half), reg.const(third), (x - 6 * y).scale(Fraction(1, 6)), reg.one),
    ]
    for p, q, r, s in cases:
        assert cross(p, q, r, s) == p * q - r * s
    assert cross(*cases[6]) == zero
    assert cross(*cases[7]) == y


def _raised(fn):
    try:
        fn()
    except (RegistryMismatch, OverflowError) as exc:
        return type(exc)
    return None


def test_cross_raises_exactly_where_the_products_or_their_difference_raise(reg):
    other = Registry([("x", "coordinate"), ("y", "coordinate"), ("t", "family-parameter")])
    x, y, ox = reg.var("x"), reg.var("y"), other.var("x")
    top = y ** (LIMIT - 1)
    cases = [
        (ox, x, x, y),                   # p*q across registries
        (x, y, ox, y),                   # r*s across registries
        (ox, ox, x, y),                  # each product fine, their difference across registries
        (top, x, x, y),                  # p*q reaches the limit
        (x, y, y, top),                  # r*s reaches the limit
        (top, x, ox, y),                 # p*q overflows before r*s mismatches
        (ox, x, top, y),                 # p*q mismatches before r*s overflows
        (top, reg.zero, reg.zero, top),  # a zero factor never overflows
        (top, reg.one, top, reg.one),    # products at the limit less one
    ]
    outcomes = []
    for p, q, r, s in cases:
        expected = _raised(lambda: p * q - r * s)
        assert _raised(lambda: cross(p, q, r, s)) is expected
        outcomes.append(expected)
    assert outcomes == [RegistryMismatch] * 3 + [OverflowError] * 3 + [RegistryMismatch] + [None] * 2


def test_cross_keeps_the_packed_product(reg, monkeypatch):
    rng = random.Random(2025)
    x, y, t = reg.var("x"), reg.var("y"), reg.var("t")
    monomials = [x ** i * y ** j * t ** k for i in range(4) for j in range(4) for k in range(4)]
    f, g = (poly_sum(reg, [Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), 2) * m
                           for m in rng.sample(monomials, 45)])
            for _ in range(2))
    assert _packs(f, g)
    r, s = x.scale(Fraction(1, 3)), y + t
    expected = f * g - r * s
    calls = _count_packed(monkeypatch)
    assert cross(f, g, r, s) == expected
    assert cross(r, s, f, g) == -expected
    assert len(calls) == 2
