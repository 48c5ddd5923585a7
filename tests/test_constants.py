import inspect
import random
from fractions import Fraction

import pytest

from fano22 import constants, suites
from fano22.constants import (
    DEFAULT_RAW,
    REG_F3,
    PaperConstants,
    _family,
)
from fano22.parsing import ParseError, parse
from fano22.poly import ROLES, Registry, format_poly
from fano22.suites import SuiteConfig, run_all, run_suite

from helpers import RecordingRaw

REG = Registry([("v", "family-parameter")])
V = REG.var("v")
ONE = Fraction(1)
#: the boundary points of s10 and their images under v / (v + 4), in check order
BOUNDARY = [((0, 1), (0, 1)), ((1, 1), (Fraction(1, 5), 1)), ((1, 0), (1, 1)), ((-4, 1), (1, 0))]


def _table(num, den) -> PaperConstants:
    """The paper's table with the texts of num and den as mobius.num and mobius.den."""
    return PaperConstants(raw=dict(DEFAULT_RAW, **{"mobius.num": format_poly(num),
                                                   "mobius.den": format_poly(den)}))


def _image(matrix, point):
    """[p : q] under the matrix, written as `_substituted_mobius` writes it."""
    (a, b), (c, d) = matrix
    p, q = point
    x, y = a * p + b * q, c * p + d * q
    if x == 0 and y == 0:
        raise ValueError("map is undefined at the point")
    return (x / y, ONE) if y else (ONE, Fraction(0))


def _at(num, den, p, q=ONE):
    return _image(_table(num, den).mobius(), (Fraction(p), Fraction(q)))


def _reparam_rows(table):
    report = run_suite("reparam", SuiteConfig(constants=table))
    return {c.id: (c.status, c.witness) for c in report.checks}


def test_the_paper_table_reads_as_the_matrix_of_v_over_v_plus_4():
    assert PaperConstants().mobius() == [[1, 0], [1, 4]]
    assert _table(2 * V - Fraction(1, 3), REG.const(7)).mobius() == [[2, Fraction(-1, 3)], [0, 7]]
    assert _table(REG.zero, V).mobius() == [[0, 0], [1, 0]]


def test_finite_points():
    num, den = V, V + 4
    assert _at(num, den, 1) == (Fraction(1, 5), ONE)
    assert _at(num, den, 2, 3) == (Fraction(1, 7), ONE)
    assert _at(num, den, -4) == (ONE, Fraction(0))
    assert _at(num, den, 0) == (Fraction(0), ONE)
    assert _at(2 * V + 1, 3 * V, 3, 2) == (Fraction(8, 9), ONE)


def test_point_at_infinity():
    # the ratio of the coefficients of v; a row without v sends infinity to 0 or to infinity
    assert _at(3 * V - 1, 2 * V + 5, 7, 0) == (Fraction(3, 2), ONE)
    assert _at(REG.const(1), V, -2, 0) == (Fraction(0), ONE)
    assert _at(V, REG.const(3), 1, 0) == (ONE, Fraction(0))


def test_undefined_at_a_common_zero():
    # v / v: both rows vanish at [0 : 1], and the matrix [[1, 0], [1, 0]] is singular
    with pytest.raises(ValueError, match="map is undefined at the point"):
        _at(V, V, 0, 1)
    rows = _reparam_rows(_table(V, V))
    assert rows["s10.boundary-0"] == ("fail", "the matrix sends [0 : 1] to (0, 0)")
    assert rows["s10.injective"] == ("fail", "the matrix [[1, 0], [1, 0]] has determinant 0")


def test_a_table_of_higher_degree_has_no_matrix_and_both_keys_are_read():
    for num, den, key in [(V ** 2, V + 4, "mobius.num"), (V, V ** 3 + 4, "mobius.den")]:
        raw = RecordingRaw(_table(num, den).raw)
        reason = PaperConstants(raw=raw).mobius()
        degree = max(num.degree_in("v"), den.degree_in("v"))
        assert reason == f"{key} has degree {degree} in v, above 1"
        assert raw.read == {"mobius.num", "mobius.den"}


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


def _random_rational(rng, digits):
    """A numerator of up to `digits` digits over a denominator of up to 3."""
    return Fraction(rng.randint(-10 ** digits, 10 ** digits),
                    rng.randint(1, 10 ** rng.randint(0, 3)))


def _random_linear(rng):
    """a*v + b, each coefficient 0 one time in five."""
    a, b = (_random_rational(rng, 3) if rng.random() < 0.8 else 0 for _ in range(2))
    return V.scale(a) + b


@pytest.mark.parametrize("seed", range(10))
def test_mobius_projective_matches_the_substitution_reference(seed):
    """The matrix read off a table of degree <= 1 in v, applied to [p : q], against
    the substitution reference; and each boundary check of s10 on that table."""
    rng = random.Random(seed)
    num, den = _random_linear(rng), _random_linear(rng)
    if num.degree_in("v") < 1 and den.degree_in("v") < 1:
        num += V  # the reference homogenizes to the larger degree, the matrix to 1
    matrix = _table(num, den).mobius()
    points = [(0, 1), (1, 0), (-1, 1), (0, 5), (-7, 0)]
    points += [(_random_rational(rng, 40), _random_rational(rng, rng.choice([1, 40])))
               for _ in range(8)]
    points += [(_random_rational(rng, 2), 0) for _ in range(2)]
    for point in points:
        assert _outcome(_image, matrix, point) == _outcome(
            _substituted_mobius, num, den, "v", point)
    # the paper's map times k passes every boundary check, and its numerator over den some
    k = _random_rational(rng, 3) or ONE
    for num, den in [(num, den), (V.scale(k), (V + 4).scale(k)), (V.scale(k), den)]:
        rows = _reparam_rows(_table(num, den))
        for (point, expected), (status, witness) in zip(BOUNDARY, rows.values()):
            image = _outcome(_substituted_mobius, num, den, "v", point)
            if isinstance(image, str):  # the reference finds the map undefined there
                assert (status, witness) == (
                    "fail", f"the matrix sends [{point[0]} : {point[1]}] to (0, 0)")
            else:
                assert status == ("pass" if image == expected else "fail")
    # the paper's map at negative points and 40-digit numerators
    matrix = PaperConstants().mobius()
    num, den = REG.var("v"), REG.var("v") + 4
    for _ in range(5):
        point = (-abs(_random_rational(rng, 40)), Fraction(1, rng.randint(1, 9)))
        assert _image(matrix, point) == _substituted_mobius(num, den, "v", point)


def test_a_mobius_table_with_another_variable_has_no_matrix():
    x0, v = REG_F3.var("x0"), REG_F3.var("v")
    cases = [
        (v + x0, v + 4, "mobius.num"),                # in the constant coefficient
        (v + 1, v * x0 + 4, "mobius.den"),            # in the denominator
        (v ** 2 * x0 + v, v ** 2 + 1, "mobius.num"),  # in the coefficient of v^2
        (x0 * v - x0 * v ** 2, v + 4, "mobius.num"),  # of degree 2, and 0 at v = 1
    ]
    for num, den, key in cases:
        reason = f"{key} involves x0, so a coefficient is not rational"
        assert _table(num, den).mobius() == reason
        assert set(_reparam_rows(_table(num, den)).values()) == {("fail", reason)}


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


def test_every_table_method_reads_the_table():
    """Objects that read no constant are module constants, not methods."""
    names = [name for name, fn in vars(PaperConstants).items()
             if callable(fn) and not name.startswith("_") and name != "o11_space"
             and all(p.default is not p.empty
                     for p in list(inspect.signature(fn).parameters.values())[1:])]
    assert "w_basis" in names and "upsilon_t" in names
    unread = []
    for name in names:
        raw = RecordingRaw(DEFAULT_RAW)
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
    recording = RecordingRaw(DEFAULT_RAW)
    PaperConstants(raw=recording).mobius()
    assert recording.read == {"mobius.num", "mobius.den"}


def test_post_init_sets_up_every_table(monkeypatch):
    built = []
    post_init = PaperConstants.__post_init__
    monkeypatch.setattr(PaperConstants, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    tables = [PaperConstants(), PaperConstants(raw=dict(DEFAULT_RAW))]
    assert len(built) == 2 and all(b is t for b, t in zip(built, tables))
    assert tables[1].upsilon_p() is tables[0].upsilon_p() is PaperConstants().poly("upsilon_p")


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


def _shared_parses() -> dict[str, object]:
    """Key -> the parse kept per process."""
    build = PaperConstants.poly.__wrapped__
    return {task[1]: kept[0] for task, kept in constants._shared.items() if task[0] is build}


def test_an_unparsable_mutant_raises_every_time_and_leaves_the_paper_cache():
    paper = PaperConstants()
    shared = {key: paper.poly(key) for key in DEFAULT_RAW}
    assert _shared_parses() == shared
    table = PaperConstants(raw=dict(DEFAULT_RAW, **{"psi.w1": "(x0*y1 +"}))
    for _ in range(2):
        with pytest.raises(ParseError):
            table.poly("psi.w1")
    cached = _shared_parses()
    assert cached.keys() == shared.keys() == DEFAULT_RAW.keys()
    assert all(cached[key] is shared[key] for key in DEFAULT_RAW)
    assert PaperConstants().poly("psi.w1") is shared["psi.w1"]
    assert table.poly("psi.w0") is shared["psi.w0"]


def test_the_paper_table_is_parsed_once_per_process_and_a_mutant_parses_one_key(monkeypatch):
    texts, bases, combinations = [], [], []

    def spy(calls, original):
        return lambda *args: calls.append(args[0]) or original(*args)

    run_all()
    # clearing the one per-process memo makes the next run build everything again
    constants._shared.clear()
    monkeypatch.setattr(constants, "parse", spy(texts, parse))
    monkeypatch.setattr(constants, "monomial_basis", spy(bases, constants.monomial_basis))
    # the six combinations of the equalizer kernel's basis are its one build
    monkeypatch.setattr(suites, "combine", spy(combinations, suites.combine))
    run_all()
    assert sorted(texts) == sorted(DEFAULT_RAW.values())
    assert len(bases) == 1 and len(combinations) == 6
    for calls in (texts, bases, combinations):
        calls.clear()
    run_all()
    assert texts == bases == combinations == []
    raw = _mutant("upsilon_p")
    run_all(SuiteConfig(constants=PaperConstants(raw=raw)))
    assert texts == [raw["upsilon_p"]]


def test_a_recording_table_records_every_key_it_returns():
    whole = RecordingRaw(DEFAULT_RAW)
    table = PaperConstants(raw=whole)
    for key in DEFAULT_RAW:
        table.poly(key)
    assert whole.read == set(DEFAULT_RAW)
    for key in DEFAULT_RAW:  # every key is now taken from the shared parse
        raw = RecordingRaw(DEFAULT_RAW)
        PaperConstants(raw=raw).poly(key)
        assert raw.read == {key}


#: every builder kept per table and, on the paper's text, per process
DERIVED = ("w_space", "f3_action", "psi", "group_law", "wprime_space", "family_quadric",
           "quadric_involution", "reversal", "gamma4", "alpha_curve", "iota_c")


def test_a_mutant_rebuilds_exactly_the_derived_objects_that_read_its_key():
    shared, reads = {}, {}
    for name in DERIVED:
        raw = RecordingRaw(DEFAULT_RAW)
        shared[name] = getattr(PaperConstants(raw=raw), name)()
        reads[name] = raw.read
        assert getattr(PaperConstants(), name)() is shared[name]
    assert set().union(*reads.values()) < set(DEFAULT_RAW)
    for key in DEFAULT_RAW:
        table = PaperConstants(raw=_mutant(key))
        for name in DERIVED:
            try:
                built = getattr(table, name)()
            except Exception:  # a mutant may refuse a build, which the shared one passed
                assert key in reads[name], (key, name)
                continue
            assert (built is shared[name]) == (key not in reads[name]), (key, name)
            assert getattr(table, name)() is built
        # the mutant's own objects are never shared
        for name in DERIVED:
            assert getattr(PaperConstants(), name)() is shared[name], (key, name)


def test_a_table_records_the_reads_of_each_derived_object_on_every_call():
    expected = {}
    for name in DERIVED:
        raw = RecordingRaw(DEFAULT_RAW)
        getattr(PaperConstants(raw=raw), name)()
        expected[name] = raw.read
    constants._shared.clear()
    # the first table builds each object, the second takes the shared one; both keep it
    for table in (PaperConstants(), PaperConstants()):
        for name in DERIVED:
            for _ in range(2):
                reads = table._reading(getattr(table, name))[1]
                assert set(reads) == expected[name], name
