from fractions import Fraction

import pytest

from fano22.constants import PaperConstants
from fano22.maps import (
    INFINITY,
    MapError,
    ParamCurve,
    RationalMap,
    compose,
    image_in_hypersurface,
    is_rational_normal_curve,
    proportional_mod,
    tangent_of_affine,
    tangent_parameter,
)
from fano22.poly import Registry


@pytest.fixture
def consts():
    return PaperConstants()


def test_point_evaluation(consts):
    psi = consts.psi()
    vals = psi((Fraction(0), Fraction(1), Fraction(0), Fraction(1)))
    assert vals[0] == 1 and all(v == 0 for v in vals[1:])


def test_compose_identity(consts):
    jq = consts.quadric_involution()
    ident = RationalMap(consts.reg_q, jq.source_vars, jq.source_vars,
                        tuple(consts.reg_q.var(n) for n in jq.source_vars), jq.modulus)
    assert compose(jq, ident).components == jq.components


def test_proportional_mod_without_modulus():
    reg = Registry([("u", "coordinate"), ("w", "coordinate")])
    u, w = reg.var("u"), reg.var("w")
    ok, _ = proportional_mod([u, w], [2 * u, 2 * w], None)
    assert ok
    ok, witness = proportional_mod([u, w], [w, u], None)
    assert not ok and witness is not None


def test_proportional_mod_with_modulus(consts):
    f_c = consts.family_quadric()
    jj = compose(consts.quadric_involution(), consts.quadric_involution())
    ident = [consts.reg_q.var(n) for n in ("w0", "w1", "w2", "w3", "w4")]
    ok, _ = proportional_mod(jj.components, ident, f_c)
    assert ok
    # without the modulus the identity genuinely fails
    ok2, witness = proportional_mod(jj.components, ident, None)
    assert not ok2 and witness is not None


def test_image_in_hypersurface(consts):
    assert image_in_hypersurface(consts.quadric_involution(),
                                 consts.family_quadric())


def test_param_curve_validation(consts):
    reg = consts.reg_q
    t0, t1 = reg.var("t0"), reg.var("t1")
    with pytest.raises(MapError):
        ParamCurve(reg, ("t0", "t1"), (t0 ** 2, t1))  # mixed degree
    with pytest.raises(MapError):
        ParamCurve(reg, ("t0", "t1"), (reg.zero, reg.zero))


def test_rational_normal_curve_positive(consts):
    reg = consts.reg_q
    t0, t1 = reg.var("t0"), reg.var("t1")
    conic = ParamCurve(reg, ("t0", "t1"), (t0 ** 2, t0 * t1, t1 ** 2))
    assert is_rational_normal_curve(conic)
    assert is_rational_normal_curve(consts.gamma4())
    # a family-parameter coefficient is a unit over Q(c)
    c = reg.var("c")
    scaled = ParamCurve(reg, ("t0", "t1"), (t0 ** 2, c * t0 * t1, t1 ** 2))
    assert is_rational_normal_curve(scaled)


def test_rational_normal_curve_negatives(consts):
    reg = consts.reg_q
    t0, t1 = reg.var("t0"), reg.var("t1")
    # wrong component count for the degree
    too_few = ParamCurve(reg, ("t0", "t1"), (t0 ** 2, t1 ** 2))
    assert not is_rational_normal_curve(too_few)
    # dependent components
    dependent = ParamCurve(
        reg, ("t0", "t1"), (t0 ** 2, t0 * t1, t0 * t1, t1 ** 2)
    )
    assert not is_rational_normal_curve(dependent)
    # common factor t0
    common = ParamCurve(reg, ("t0", "t1"), (t0 ** 2, t0 * t1))
    assert not is_rational_normal_curve(common)
    # zero component
    degenerate = ParamCurve(reg, ("t0", "t1"), (t0 ** 2, reg.zero, t1 ** 2))
    assert not is_rational_normal_curve(degenerate)
    # the image lies on the line w2 = c*w0: independent over Q, not over Q(c)
    c = reg.var("c")
    on_line = ParamCurve(reg, ("t0", "t1"), (t0 ** 2, t1 ** 2, c * t0 ** 2))
    assert not is_rational_normal_curve(on_line)


def test_common_interior_factor_detected(consts):
    reg = consts.reg_q
    t0, t1 = reg.var("t0"), reg.var("t1")
    # all components share the factor (t0 + t1); degree 2 with 3 components
    shared = ParamCurve(
        reg, ("t0", "t1"),
        ((t0 + t1) * t0, (t0 + t1) * t1, (t0 + t1) * (t0 - t1)),
    )
    assert not is_rational_normal_curve(shared)


def test_tangent_of_affine(consts):
    reg = consts.reg_f3
    x0, y0 = reg.var("x0"), reg.var("y0")
    assert tangent_of_affine(3 * x0 - y0 + x0 * y0, "x0", "y0") == -3
    assert tangent_of_affine(3 * x0 + y0, "x0", "y0") == 3
    assert tangent_of_affine(x0 + x0 ** 2, "x0", "y0") == INFINITY
    with pytest.raises(MapError):
        tangent_of_affine(x0 + 1, "x0", "y0")  # misses the origin
    with pytest.raises(MapError):
        tangent_of_affine(x0 ** 2 + y0 ** 2, "x0", "y0")  # no linear part


def test_tangent_parameter(consts):
    assert tangent_parameter(consts.upsilon_p()) == -4
    assert tangent_parameter(consts.upsilon_t()) == consts.reg_f3.var("v")
    assert tangent_parameter(consts.reg_f3.var("x0")) == INFINITY
    assert tangent_parameter(consts.reg_f3.var("y0")) == 0
