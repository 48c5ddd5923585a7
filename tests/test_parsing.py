from fractions import Fraction

import pytest

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
