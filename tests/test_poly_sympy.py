"""Differential test of the polynomial core against `sympy.Poly`.

Seeded random polynomials in 4 variables, with up to about 100 terms and
rational coefficients, go through `*`, `+`, `-`, `substitute`,
`exact_divide` (on exact multiples and on non-multiples) and
`Derivation`; every result must equal sympy's, term by term.  The
substitution images are zero, constants, single terms over a denominator
and sums of 2 to 3 terms, some of them swapping two variables; a second
draw adds one, variables and monomials of coefficient 1, and a case past
`substitute`'s degree bound whose output stays below the limit.  Products
of 60 to 120 terms per operand take the packed product where both fill
their slices and the dict loop otherwise; products of operands dense in
w, and the cube of a 50-term polynomial, take the packed product.
"""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from fano22 import poly  # noqa: E402
from fano22.poly import PACK_PAIRS, Derivation, Polynomial, Registry  # noqa: E402

NAMES = ("x", "y", "z", "w")
REG = Registry([(n, "coordinate") for n in NAMES])
GENS = sympy.symbols(NAMES)
QQ = sympy.QQ


def _random_poly(rng: random.Random, max_terms: int, max_degree: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(0, max_degree) for _ in NAMES)
        num = rng.choice([rng.randint(-9, 9), rng.randint(-10 ** 12, 10 ** 12)])
        terms[expo] = Fraction(num, rng.randint(1, 12))
    return Polynomial(REG, terms)


def _random_exact(rng: random.Random, n_terms: int, max_degree: int) -> Polynomial:
    """`n_terms` terms of degree <= max_degree in each variable, numerators up to 10**12."""
    exps = rng.sample(list(itertools.product(range(max_degree + 1), repeat=len(NAMES))), n_terms)
    return Polynomial(REG, {e: Fraction(rng.randint(1, 10 ** 12) * rng.choice([-1, 1]),
                                        rng.randint(1, 12)) for e in exps})


def _to_sympy(p: Polynomial) -> sympy.Poly:
    return sympy.Poly.from_dict(
        {e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()}, GENS, domain=QQ)


def _from_sympy(p: sympy.Poly) -> Polynomial:
    return Polynomial(REG, {e: Fraction(int(c.p), int(c.q)) for e, c in p.as_dict().items()})


@pytest.mark.parametrize("seed", range(12))
def test_ring_operations_match_sympy(seed):
    rng = random.Random(seed)
    f, g = _random_poly(rng, 100, 5), _random_poly(rng, 100, 5)
    F, G = _to_sympy(f), _to_sympy(g)
    assert _from_sympy(F) == f
    assert f * g == _from_sympy(F * G)
    assert f + g == _from_sympy(F + G)
    assert f - g == _from_sympy(F - G)
    assert (f - f).is_zero()


def _random_image(rng: random.Random) -> Polynomial:
    """Zero, a constant p/q, one term over a denominator, or 2 to 3 terms."""
    kind = rng.choice(("zero", "constant", "term", "terms"))
    if kind == "zero":
        return REG.zero
    if kind == "constant":
        return REG.const(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
    if kind == "term":
        expo = tuple(rng.randint(0, 2) for _ in NAMES)
        q = rng.randint(2, 12)
        return Polynomial(REG, {expo: Fraction(rng.choice([-1, 1]) * (rng.randint(0, 9) * q + 1), q)})
    terms, size = {}, rng.randint(2, 3)
    while len(terms) < size:
        terms[tuple(rng.randint(0, 1) for _ in NAMES)] = Fraction(rng.randint(1, 9), rng.randint(1, 12))
    return Polynomial(REG, terms)


@pytest.mark.parametrize("seed", range(24))
def test_substitute_matches_sympy(seed):
    rng = random.Random(100 + seed)
    f = _random_poly(rng, 100, 4)
    names = rng.sample(NAMES, rng.randint(1, 4))
    images = {n: _random_image(rng) for n in names}
    if len(names) > 1 and seed % 2:
        # a swap: each of two images mentions the other's variable
        a, b = names[:2]
        images[a] = REG.var(b).scale(Fraction(1, rng.randint(1, 5)))
        images[b] = REG.var(a)
    result = f.substitute(images)
    assert result == _sympy_substitute(f, images)
    assert all(type(v) is int for v in result._terms.values()) and type(result._den) is int


def _sympy_substitute(f: Polynomial, images: dict) -> Polynomial:
    """sympy's sum over the terms of c * prod(image ** e), a variable without
    an image standing for itself; f has degree at most 4 in each variable."""
    targets = [_to_sympy(images[n]) if n in images else sympy.Poly(g, *GENS, domain=QQ)
               for n, g in zip(NAMES, GENS)]
    powers = [[t ** k for k in range(5)] for t in targets]
    expected = sympy.Poly(0, *GENS, domain=QQ)
    for expo, c in f.terms.items():
        term = sympy.Poly(QQ(c.numerator, c.denominator), *GENS, domain=QQ)
        for pw, k in zip(powers, expo):
            term *= pw[k]
        expected += term
    return _from_sympy(expected)


def _mixed_image(rng: random.Random) -> Polynomial:
    """Zero, one, a variable, a monomial of coefficient 1, or a `_random_image`."""
    kind = rng.choice(("zero", "one", "variable", "monomial", "random", "random"))
    if kind == "zero":
        return REG.zero
    if kind == "one":
        return REG.one
    if kind == "variable":
        return REG.var(rng.choice(NAMES))
    if kind == "monomial":
        return Polynomial(REG, {tuple(rng.randint(0, 2) for _ in NAMES): 1})
    return _random_image(rng)


@pytest.mark.parametrize("seed", range(16))
def test_substitute_with_zero_unit_and_mixed_images_matches_sympy(seed):
    rng = random.Random(700 + seed)
    f = _random_poly(rng, 60, 4)
    images = {n: _mixed_image(rng) for n in rng.sample(NAMES, rng.randint(1, 4))}
    assert f.substitute(images) == _sympy_substitute(f, images)


def test_substitute_past_the_degree_bound_raises_only_on_a_true_overflow():
    # deg(f) * (largest image degree) reaches 2**15 while the output stays below
    x, y, z, w = (REG.var(n) for n in NAMES)
    limit = 2 ** (poly.FIELD_BITS - 1)
    f = x ** 20000 + 3 * y ** 2 * z - w
    cases = [
        ({"y": z ** 2 * w}, x ** 20000 + 3 * z ** 5 * w ** 2 - w),
        ({"y": (z + w) ** 2}, x ** 20000 + 3 * (z + w) ** 4 * z - w),
        ({"y": z ** 2 + 1, "w": REG.zero}, x ** 20000 + 3 * (z ** 2 + 1) ** 2 * z),
        ({"x": REG.one, "y": (z + w) ** 2}, 1 + 3 * (z + w) ** 4 * z - w),
    ]
    for images, expected in cases:
        assert 20000 * max(p.total_degree() for p in images.values()) >= limit
        assert f.substitute(images) == expected
    # the same bound with an output that does reach the limit
    with pytest.raises(OverflowError):
        f.substitute({"x": z * w})
    with pytest.raises(OverflowError):
        f.substitute({"x": z * w, "y": z + w})


@pytest.mark.parametrize("seed", range(12))
def test_exact_divide_matches_sympy(seed):
    rng = random.Random(200 + seed)
    q, g = _random_poly(rng, 60, 4), _random_poly(rng, 8, 2)
    assert (q * g).exact_divide(g) == q
    # a non-multiple: perturb the product by a term sympy leaves as remainder
    h = q * g + _random_poly(rng, 3, 6)
    quotient, remainder = _to_sympy(h).div(_to_sympy(g))
    ours = h.exact_divide(g)
    if remainder.is_zero:
        assert ours == _from_sympy(quotient)
    else:
        assert ours is None


@pytest.mark.parametrize("seed", range(12))
def test_derivation_matches_sympy(seed):
    rng = random.Random(300 + seed)
    f = _random_poly(rng, 100, 5)
    names = rng.sample(NAMES, rng.randint(1, 4))
    images = {n: _random_poly(rng, 5, 2) for n in names}
    F = _to_sympy(f)
    expected = sum((_to_sympy(img) * F.diff(GENS[NAMES.index(n)]) for n, img in images.items()),
                   sympy.Poly(0, *GENS, domain=QQ))
    assert Derivation(REG, images)(f) == _from_sympy(expected)


@pytest.mark.parametrize("seed", range(6))
def test_packed_products_match_sympy(seed):
    rng = random.Random(400 + seed)
    f = _random_exact(rng, rng.randint(60, 120), rng.randint(3, 5))
    g = _random_exact(rng, rng.randint(60, 120), rng.randint(3, 5))
    assert len(f.terms) * len(g.terms) >= PACK_PAIRS
    assert f * g == _from_sympy(_to_sympy(f) * _to_sympy(g))


@pytest.mark.parametrize("seed", range(3))
def test_products_dense_in_the_last_variable_pack_and_match_sympy(seed, monkeypatch):
    rng = random.Random(600 + seed)
    support = list(itertools.product(range(2), range(2), range(2), range(12)))
    f, g = (Polynomial(REG, {e: Fraction(rng.randint(1, 10 ** 12) * rng.choice([-1, 1]),
                                         rng.randint(1, 12))
                             for e in rng.sample(support, rng.randint(60, 90))})
            for _ in range(2))
    calls = []
    real = poly._mul_packed
    monkeypatch.setattr(poly, "_mul_packed", lambda *args: calls.append(args) or real(*args))
    assert f * g == _from_sympy(_to_sympy(f) * _to_sympy(g))
    assert len(calls) == 1


def test_packed_power_matches_sympy():
    f = _random_exact(random.Random(500), 50, 2)
    assert len(f.terms) ** 2 >= PACK_PAIRS
    assert f ** 3 == _from_sympy(_to_sympy(f) ** 3)
