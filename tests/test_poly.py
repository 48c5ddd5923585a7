from fractions import Fraction

import pytest

from fano22.poly import Derivation, Polynomial, Registry, RegistryMismatch, format_poly


@pytest.fixture
def reg():
    return Registry([("x", "coordinate"), ("y", "coordinate"), ("t", "family-parameter")])


def test_basic_arithmetic(reg):
    x, y = reg.var("x"), reg.var("y")
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert (f - f).is_zero()
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
    expo, coeff = f.leading()
    assert coeff == 1 and expo[reg.index("x")] == 2


def test_substitute_is_homomorphism(reg):
    x, y = reg.var("x"), reg.var("y")
    f = x ** 2 + 3 * x * y
    g = y ** 3 - 1
    sub = {"x": y + 1, "y": x * y}
    assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)
    assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)


def test_exact_divide(reg):
    x, y = reg.var("x"), reg.var("y")
    f = (x + y) ** 3
    assert f.exact_divide(x + y) == (x + y) ** 2
    assert (x ** 2 + y).exact_divide(x + y) is None
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
    assert f.content() == Fraction(2, 3)
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


def test_format(reg):
    x, y = reg.var("x"), reg.var("y")
    assert format_poly(reg.zero) == "0"
    assert format_poly(-x + y ** 2) == "y^2 - x"
    assert format_poly(x.scale(Fraction(1, 2))) == "(1/2)*x"
    assert format_poly(3 * x * y) == "3*x*y"
