import sys
import time
from fractions import Fraction

import pytest

from fano22 import parsing
from fano22.cli import main
from fano22.constants import DEFAULT_RAW, _family
from fano22.parsing import MAX_NESTING, ParseError, parse
from fano22.poly import Registry, format_poly


def test_rationals():
    assert parse("3/4").constant_value() == Fraction(3, 4)
    assert parse("0+0").is_zero()
    assert parse("-2").constant_value() == -2


def test_precedence_and_parens():
    reg = Registry([("x", "coordinate"), ("y", "coordinate")])
    x, y = reg.var("x"), reg.var("y")
    assert parse("x + y*x^2", reg) == x + y * x ** 2
    assert parse("(x + y)^2", reg) == x ** 2 + 2 * x * y + y ** 2
    assert parse("-x + y", reg) == y - x
    assert parse("2*(x - (y - x))", reg) == 4 * x - 2 * y


def test_unary_minus_inside_parens():
    reg = Registry([("x", "coordinate")])
    assert parse("(-x)^2", reg) == reg.var("x") ** 2


def test_registry_inference_order():
    f = parse("b + a*b")
    assert f.registry.names == ("b", "a")


def test_unknown_variable():
    reg = Registry([("x", "coordinate")])
    with pytest.raises(ParseError):
        parse("x + z", reg)


def test_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("x^")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse("x + ")
    with pytest.raises(ParseError):
        parse("(x + 1")
    with pytest.raises(ParseError):
        parse("x 1")
    with pytest.raises(ParseError):
        parse("1/0")


def test_nesting_past_the_limit_is_a_parse_error():
    reg = Registry([("x", "coordinate")])
    assert parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, reg) == reg.var("x")
    with pytest.raises(ParseError) as exc:
        parse("(" * 300 + "x" + ")" * 300)
    assert exc.value.position == MAX_NESTING


def test_round_trip():
    reg = Registry([("x", "coordinate"), ("y", "coordinate")])
    f = parse("x^3 - (7/5)*x*y + 2", reg)
    assert parse(format_poly(f), reg) == f


@pytest.fixture
def digit_limit():
    """Python's lowest int-from-str digit limit for the test's duration."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


def test_an_integer_literal_past_the_digit_limit_is_a_parse_error(digit_limit):
    reg = Registry([("x", "coordinate")])
    assert parse("7" * digit_limit + "*x", reg) == reg.var("x") * int("7" * digit_limit)
    digits = "7" * (digit_limit + 1)
    for text, position in ((digits + "*x", 0), ("x + 3/" + digits, 6), ("x^" + digits, 2)):
        with pytest.raises(ParseError) as exc:
            parse(text, reg)
        assert exc.value.position == position
        assert str(exc.value) == \
            f"integer literal longer than {digit_limit} digits (at position {position})"


def test_a_constant_power_past_the_digit_limit_is_a_parse_error(digit_limit):
    reg = Registry([("x", "coordinate")])
    # a power that can be printed evaluates, up to exactly the limit's digits
    assert parse("2^10", reg) == reg.const(1024)
    assert parse("(1/3)^5", reg) == reg.const(Fraction(1, 243))
    assert format_poly(parse(f"10^{digit_limit - 1}*x", reg)) == f"{10 ** (digit_limit - 1)}*x"
    assert parse("0^100000000 + 1^100000000 - (-1)^100000001", reg) == reg.const(2)
    assert parse("(x + 1)^2", reg) == reg.var("x") ** 2 + 2 * reg.var("x") + 1
    for text, position in (("10^10000000", 3), ("x + (2/3)^40000000", 10),
                           ("(-1/2)^100000*x", 7), (f"2^{4 * digit_limit}", 2)):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse(text, reg)
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == \
            f"constant power longer than {digit_limit} digits (at position {position})"
    # without a digit limit every power is built
    sys.set_int_max_str_digits(0)
    assert parse(f"2^{4 * digit_limit}", reg) == reg.const(2 ** (4 * digit_limit))


def test_the_sum_of_a_powers_coefficients_bounds_it_closely(digit_limit):
    reg = Registry([("x", "coordinate"), ("y", "coordinate")])
    # the central coefficient of (x+y)^2000 has 601 digits, that of (x+y)^2160 649; a
    # bound that is not kept fails here, before the next test builds far larger powers
    central = parse("(x+y)^2000", reg).terms[(1000, 1000)]
    assert len(str(central)) == 601
    with pytest.raises(ParseError, match=f"coefficient of a power longer than {digit_limit} digits"):
        parse("(x+y)^2160", reg)


def _count_comb(monkeypatch) -> list:
    calls = []
    real = parsing.math.comb
    monkeypatch.setattr(parsing.math, "comb", lambda *args: calls.append(args) or real(*args))
    return calls


def test_the_paper_table_never_reaches_the_power_bound(monkeypatch, digit_limit):
    # each power's coefficients are at most M^n over at most M^n, M the larger of the
    # base's numerator sum and denominator, far below 10^640: no bound is computed
    calls = _count_comb(monkeypatch)
    powers = 0
    for key, text in DEFAULT_RAW.items():
        parse(text, _family(key)[0])
        powers += text.count("^")
    assert powers >= 50 and not calls
    # a power that passes the pre-test still meets the bound and is refused
    reg = Registry([("x", "coordinate"), ("y", "coordinate")])
    with pytest.raises(ParseError, match=f"coefficient of a power longer than {digit_limit}"):
        parse("(x+y)^2160", reg)
    assert len(calls) == 1


def test_a_power_with_a_middle_coefficient_past_the_digit_limit_is_refused_at_once(capsys):
    limit = sys.get_int_max_str_digits()
    # every extreme coefficient is 1, and the coefficients of x - y sum to 0; the largest
    # coefficients of the three powers have 6019, 5722 and 6019 digits
    # ((x-y)*(z-w))^7200 is 0 at (1, ..., 1) and at every point with one coordinate -1,
    # but 4 at (1, -1, 1, -1): its 16 sign vectors are fewer than its exponent.  The sum
    # of 20 variables is 20 at (1, ..., 1), so its 2^20 sign vectors are never taken
    many = "(" + "+".join("abcdefghijklmnopqrst") + ")^" + str(2 ** 20)
    for text, position in (("(x+y)^20000", 6), ("(x+y+1)^12000", 8), ("(x-y)^20000", 6),
                           ("((x-y)*(z-w))^7200", 14), (many, 42)):
        start = time.perf_counter()
        assert main(["eval", text]) == 2
        assert time.perf_counter() - start < 0.1
        assert capsys.readouterr().err == \
            f"error: coefficient of a power longer than {limit} digits (at position {position})\n"
    reg = Registry([("x", "coordinate"), ("y", "coordinate")])
    assert parse("(x+y)^100", reg).terms[(50, 50)] == 100891344545564193334812497256
    assert parse("((x-y)*(x+y))^20", reg) == parse("(x^2-y^2)^20", reg)
    assert parse("10^4299", reg) == reg.const(10 ** 4299)


def test_a_power_with_a_coefficient_past_the_digit_limit_is_refused_at_once(capsys):
    limit = sys.get_int_max_str_digits()
    # 2^14000 prints, but its square does not, and its 3000th power would be a
    # 42-million-bit coefficient; the squares come first, so that a broken bound
    # fails the test before it builds the larger powers.  The last square's
    # large coefficient sits on its least term: y comes first in its registry
    for text, position in (("(x*2^14000)^2", 12), ("(x*2^14000 + y)^2", 16),
                           ("(y + x*2^14000)^2", 16),
                           ("(x*2^14000)^3000", 12), ("(x*2^14000 + y)^3000", 16)):
        start = time.perf_counter()
        assert main(["eval", text]) == 2
        assert time.perf_counter() - start < 0.1
        assert capsys.readouterr().err == \
            f"error: coefficient of a power longer than {limit} digits (at position {position})\n"
    reg = Registry([("x", "coordinate"), ("y", "coordinate")])
    x, y = reg.var("x"), reg.var("y")
    assert parse("(2*x)^3", reg) == 8 * x ** 3
    assert parse("(1/2*x - 3*y)^2", reg) == (x ** 2).scale(Fraction(1, 4)) - 3 * x * y + 9 * y ** 2
    # the greatest term of (x + y*2^1400)^3 has coefficient 1, the least 2^4200
    assert parse("(x + y*2^1400)^3", reg).terms[(0, 3)] == 2 ** 4200
    with pytest.raises(ParseError, match="coefficient of a power longer than"):
        parse("(x + y*2^14000)^3", reg)
