import inspect
import random
from fractions import Fraction

import pytest

from fano22 import constants
from fano22.constants import (
    DEFAULT_RAW,
    PaperConstants,
    _family,
    _paper_poly,
    mobius_projective,
)
from fano22.parsing import ParseError, parse
from fano22.poly import ROLES, Registry
from fano22.suites import SuiteConfig, run_all

REG = Registry([("v", "family-parameter")])
V = REG.var("v")
ONE = Fraction(1)


def _at(num, den, p, q=ONE):
    return mobius_projective(num, den, "v", (Fraction(p), Fraction(q)))


def test_finite_points():
    num, den = V, V + 4
    assert _at(num, den, 1) == (Fraction(1, 5), ONE)
    assert _at(num, den, 2, 3) == (Fraction(1, 7), ONE)
    assert _at(num, den, -4) == (ONE, Fraction(0))
    assert _at(num, den, 0) == (Fraction(0), ONE)
    assert _at(V ** 2 + 1, 2 * V, 3, 2) == (Fraction(13, 12), ONE)


def test_point_at_infinity():
    # equal degrees: the ratio of the leading coefficients
    assert _at(3 * V - 1, 2 * V + 5, 7, 0) == (Fraction(3, 2), ONE)
    # numerator of lower degree: 0; of higher degree: infinity
    assert _at(V + 1, V ** 2, -2, 0) == (Fraction(0), ONE)
    assert _at(V ** 3, V + 1, 1, 0) == (ONE, Fraction(0))
    assert _at(REG.const(5), REG.const(2), 1, 0) == (Fraction(5, 2), ONE)


def test_not_a_projective_point():
    with pytest.raises(ValueError, match="not a projective point"):
        _at(V, V + 4, 0, 0)


def test_undefined_at_a_common_zero():
    # v / v^2 homogenizes to p*q / p^2, which vanishes twice at [0:1]
    with pytest.raises(ValueError, match="map is undefined at the point"):
        _at(V, V ** 2, 0, 1)


def test_a_float_point_is_refused():
    with pytest.raises(TypeError, match="int or Fraction"):
        mobius_projective(V, V + 4, "v", (0.1, 1))
    with pytest.raises(TypeError, match="int or Fraction"):
        mobius_projective(V, V + 4, "v", (1, 0.0))


def _substituted_mobius(num, den, var, point):
    """The evaluation by substitution and `constant_value`, kept as the reference."""
    p, q = Fraction(point[0]), Fraction(point[1])
    if p == 0 and q == 0:
        raise ValueError("not a projective point")
    if q != 0:
        x = {var: num.registry.const(p / q)}
        a, b = num.substitute(x), den.substitute(x)
    else:
        d = max(num.degree_in(var), den.degree_in(var))
        a, b = num.coefficient_of(var, d), den.coefficient_of(var, d)
    a, b = a.constant_value(), b.constant_value()
    if a == 0 and b == 0:
        raise ValueError("map is undefined at the point")
    if b != 0:
        return (a / b, Fraction(1))
    return (Fraction(1), Fraction(0))


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


MIXED = Registry([("x0", "coordinate"), ("v", "family-parameter")])


def _random_rational(rng, digits):
    """A numerator of up to `digits` digits over a denominator of up to 3."""
    return Fraction(rng.randint(-10 ** digits, 10 ** digits),
                    rng.randint(1, 10 ** rng.randint(0, 3)))


def _random_in_v(rng, reg):
    v = reg.var("v")
    return sum((v ** k).scale(_random_rational(rng, 3)) for k in range(rng.randint(0, 3))
               if rng.random() < 0.8) or reg.const(rng.randint(-2, 2))


@pytest.mark.parametrize("seed", range(10))
def test_mobius_projective_matches_the_substitution_reference(seed):
    rng = random.Random(seed)
    num, den = _random_in_v(rng, REG), _random_in_v(rng, REG)
    points = [(0, 1), (1, 0), (-1, 1), (0, 5), (-7, 0)]
    points += [(_random_rational(rng, 40), _random_rational(rng, rng.choice([1, 40])))
               for _ in range(8)]
    points += [(_random_rational(rng, 2), 0) for _ in range(2)]
    for point in points:
        assert _outcome(mobius_projective, num, den, "v", point) == _outcome(
            _substituted_mobius, num, den, "v", point)
    # the paper's map at negative points and 40-digit numerators
    num, den = REG.var("v"), REG.var("v") + 4
    for _ in range(5):
        point = (-abs(_random_rational(rng, 40)), Fraction(1, rng.randint(1, 9)))
        assert mobius_projective(num, den, "v", point) == _substituted_mobius(
            num, den, "v", point)


def test_mobius_projective_with_another_variable_raises_like_the_reference():
    x0, v = MIXED.var("x0"), MIXED.var("v")
    one, infinity = (Fraction(3, 7), Fraction(1)), (Fraction(2), Fraction(0))
    cases = [
        (v + x0, v + 4, one),                # x0 survives at a finite point
        (v + 1, v * x0 + 4, one),            # in the denominator
        (v ** 2 * x0 + v, v ** 2 + 1, infinity),  # in the leading coefficient
        (v + x0, v + 4, infinity),           # below the leading degree: gone at infinity
        (x0 * v - x0 * v ** 2, v + 4, (Fraction(5), Fraction(5))),  # cancels at v = 1
    ]
    for num, den, point in cases:
        expected = _outcome(_substituted_mobius, num, den, "v", point)
        assert _outcome(mobius_projective, num, den, "v", point) == expected
    with pytest.raises(ValueError, match="^polynomial is not constant$"):
        mobius_projective(v + x0, v + 4, "v", one)


def test_no_registry_has_an_infinitesimal_variable():
    assert "infinitesimal" not in ROLES
    for reg in (constants.REG_W, constants.REG_F3, constants.REG_Q):
        assert "eps" not in reg.names
        assert "infinitesimal" not in reg.roles
    with pytest.raises(ValueError, match="unknown variable role 'infinitesimal'"):
        Registry([("eps", "infinitesimal")])


def test_every_key_parses_over_its_family_registry_with_every_mutation_variable():
    quadric = ("quartic_ideal", "gamma4", "reversal", "alpha", "iota_c")
    table = PaperConstants()
    for key in DEFAULT_RAW:
        if key.startswith("w_basis."):
            expected = table.reg_w
        elif key.startswith(quadric):
            expected = table.reg_q
        else:
            expected = table.reg_f3
        assert table.poly(key).registry is expected, key
        for name in _family(key)[1]:
            raw = dict(DEFAULT_RAW, **{key: f"({DEFAULT_RAW[key]}) + 2/3*{name}^2"})
            assert PaperConstants(raw=raw).poly(key).registry is expected, (key, name)
    with pytest.raises(KeyError, match="no variable pool for constant 'bogus.k'"):
        PaperConstants(raw={"bogus.k": "1"}).poly("bogus.k")


class _RecordingRaw(dict):
    """A raw table that records every key read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_table_method_reads_the_table():
    """Objects that read no constant are module constants, not methods."""
    names = [name for name, fn in vars(PaperConstants).items()
             if callable(fn) and not name.startswith("_") and name != "o11_space"
             and all(p.default is not p.empty
                     for p in list(inspect.signature(fn).parameters.values())[1:])]
    assert "w_basis" in names and "upsilon_t" in names
    unread = []
    for name in names:
        raw = _RecordingRaw(DEFAULT_RAW)
        getattr(PaperConstants(raw=raw), name)()
        if not raw.read:
            unread.append(name)
    assert unread == []


def test_a_table_copies_the_paper_table_or_keeps_the_given_one():
    first, second = PaperConstants(), PaperConstants()
    assert first.raw == DEFAULT_RAW
    assert first.raw is not DEFAULT_RAW and first.raw is not second.raw
    table = dict(DEFAULT_RAW)
    assert PaperConstants(table).raw is table and PaperConstants(raw=table).raw is table
    # a recording table given as `raw` sees every read
    recording = _RecordingRaw(DEFAULT_RAW)
    PaperConstants(raw=recording).mobius()
    assert recording.read == {"mobius.num", "mobius.den"}


def test_post_init_sets_up_every_table(monkeypatch):
    built = []
    post_init = PaperConstants.__post_init__
    monkeypatch.setattr(PaperConstants, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    tables = [PaperConstants(), PaperConstants(raw=dict(DEFAULT_RAW))]
    assert len(built) == 2 and all(b is t for b, t in zip(built, tables))
    assert tables[1].upsilon_p() is _paper_poly("upsilon_p")


def _mutant(key: str) -> dict[str, str]:
    """The paper's table with `key` perturbed in the first variable of its pool."""
    name = _family(key)[1][0]
    return dict(DEFAULT_RAW, **{key: f"({DEFAULT_RAW[key]}) + 2/3*{name}^2"})


def test_tables_share_the_constants_whose_text_they_keep():
    paper = PaperConstants()
    shared = {key: paper.poly(key) for key in DEFAULT_RAW}
    for key, p in shared.items():
        fresh = parse(DEFAULT_RAW[key], _family(key)[0])
        assert p == fresh and p is not fresh, key
    for key in DEFAULT_RAW:
        raw = _mutant(key)
        table = PaperConstants(raw=raw)
        own = table.poly(key)
        assert own == parse(raw[key], _family(key)[0]) and own != shared[key], key
        assert table.poly(key) is own, key
        for other in DEFAULT_RAW:
            if other != key:
                assert table.poly(other) is shared[other], (key, other)


def test_an_unparsable_mutant_raises_every_time_and_leaves_the_paper_cache():
    paper = PaperConstants()
    shared = {key: paper.poly(key) for key in DEFAULT_RAW}
    cached = _paper_poly.cache_info().currsize
    table = PaperConstants(raw=dict(DEFAULT_RAW, **{"psi.w1": "(x0*y1 +"}))
    for _ in range(2):
        with pytest.raises(ParseError):
            table.poly("psi.w1")
    assert _paper_poly.cache_info().currsize == cached == len(DEFAULT_RAW)
    assert PaperConstants().poly("psi.w1") is shared["psi.w1"]
    assert table.poly("psi.w0") is shared["psi.w0"]


def test_the_paper_table_is_parsed_once_per_process_and_a_mutant_parses_one_key(monkeypatch):
    texts = []

    def spy(text, registry=None):
        texts.append(text)
        return parse(text, registry)

    monkeypatch.setattr(constants, "parse", spy)
    _paper_poly.cache_clear()
    run_all()
    assert sorted(texts) == sorted(DEFAULT_RAW.values())
    texts.clear()
    run_all()
    assert texts == []
    raw = _mutant("upsilon_p")
    run_all(SuiteConfig(constants=PaperConstants(raw=raw)))
    assert texts == [raw["upsilon_p"]]


def test_a_recording_table_records_every_key_it_returns():
    whole = _RecordingRaw(DEFAULT_RAW)
    table = PaperConstants(raw=whole)
    for key in DEFAULT_RAW:
        table.poly(key)
    assert whole.read == set(DEFAULT_RAW)
    for key in DEFAULT_RAW:  # every key is now taken from the shared parse
        raw = _RecordingRaw(DEFAULT_RAW)
        PaperConstants(raw=raw).poly(key)
        assert raw.read == {key}
