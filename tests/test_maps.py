import random
from fractions import Fraction

import pytest

from fano22.constants import PaperConstants
from fano22.maps import (
    INFINITY,
    MapError,
    ParamCurve,
    RationalMap,
    TangentDirection,
    affine_jet,
    compose,
    cross_differences,
    equivariance_up_to_scalar,
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


def test_cross_differences_skip_zeros_and_keep_pair_order():
    reg = Registry([("u", "coordinate"), ("w", "coordinate")])
    u, w, zero = reg.var("u"), reg.var("w"), reg.zero
    # pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3); (0,3) vanishes
    crosses = list(cross_differences([u, w, zero, u], [u, 2 * w, w, u]))
    assert crosses == [u * w, u * w, w ** 2, -u * w, -u * w]
    assert list(cross_differences([u, w], [2 * u, 2 * w])) == []
    with pytest.raises(MapError, match="tuple lengths differ"):
        list(cross_differences([u, w], [u]))


def test_proportional_mod_witness_is_the_first_cross_difference_not_divisible():
    reg = Registry([("u", "coordinate"), ("w", "coordinate")])
    u, w, one = reg.var("u"), reg.var("w"), reg.one
    A, B = [u, w, one], [u, 2 * w, one]
    # u*w (pair (0,1)) is a multiple of u; -w (pair (1,2)) is not
    assert list(cross_differences(A, B)) == [u * w, -w]
    assert proportional_mod(A, B, u) == (False, -w)
    assert proportional_mod(A, B, None) == (False, u * w)
    assert proportional_mod(A[:2], B[:2], u) == (True, None)


def test_proportional_mod_with_modulus(consts):
    f_c = consts.family_quadric()
    jj = compose(consts.quadric_involution(), consts.quadric_involution())
    ident = [consts.reg_q.var(n) for n in ("w0", "w1", "w2", "w3", "w4")]
    ok, _ = proportional_mod(jj.components, ident, f_c)
    assert ok
    # without the modulus the identity genuinely fails
    ok2, witness = proportional_mod(jj.components, ident, None)
    assert not ok2 and witness is not None


# -- proportionality against one pivot ------------------------------------------
#
# `proportional_mod` decides a pass from the minors against one pivot; the
# reference scans every minor in (i, j) order, as it did before the pivot.


def _full_scan(A, B, modulus):
    """(ok, first minor the modulus does not divide) over every minor in (i, j) order."""
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            minor = A[i] * B[j] - A[j] * B[i]
            if not minor.is_zero() and (modulus is None or minor.exact_divide(modulus) is None):
                return False, minor
    return True, None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


REG_UWC = Registry([("u", "coordinate"), ("w", "coordinate"), ("c", "family-parameter")])


def _entry(rng):
    """Zero, a constant, a monomial, or two to three terms over REG_UWC."""
    reg = REG_UWC
    kind = rng.choice(("zero", "constant", "monomial", "terms", "terms"))
    if kind == "zero":
        return reg.zero
    if kind == "constant":
        return reg.const(Fraction(rng.randint(1, 9), rng.randint(1, 3)))
    if kind == "monomial":
        return rng.randint(1, 5) * reg.var(rng.choice(reg.names)) ** rng.randint(1, 2)
    return sum((rng.randint(-5, 5) * reg.var(rng.choice(reg.names)) ** rng.randint(0, 2)
                for _ in range(rng.randint(2, 3))), reg.zero)


@pytest.mark.parametrize("seed", range(24))
def test_proportional_mod_matches_the_full_scan_on_seeded_tuples(seed):
    rng = random.Random(seed)
    u, w, c = (REG_UWC.var(n) for n in REG_UWC.names)
    # u divides the first modulus, no variable divides the second
    modulus = rng.choice([None, None, u * (w + c), w ** 2 + c * u ** 2,
                          REG_UWC.const(Fraction(3, 2))])
    B = [_entry(rng) for _ in range(rng.randint(2, 5))]
    lam = rng.choice([REG_UWC.one, c + 1, 2 * w])
    A = [lam * b + (modulus or 0) * _entry(rng) for b in B]
    if seed % 2:
        i = rng.randrange(len(A))
        A[i] = A[i] + _entry(rng)
    assert proportional_mod(A, B, modulus) == _full_scan(A, B, modulus)


def test_proportional_mod_pivot_cases_match_the_full_scan():
    u, w, c = (REG_UWC.var(n) for n in REG_UWC.names)
    zero, one = REG_UWC.zero, REG_UWC.one
    cases = [
        # B_0 = 0: a pivot there would see only zero minors; (1, 2) fails
        ([zero, one, 2 * one], [zero, one, one], None),
        ([zero, one, 2 * one], [zero, one, one], u),
        # B_0 = u divides the modulus, so it is no pivot: its minors u and 2u
        # are multiples, but (1, 2) is -1
        ([zero, one, 2 * one], [u, one, one], u),
        ([zero, one, 2 * one], [u, one, one], u * (w + c)),
        ([zero, w, 2 * w], [u ** 2, w, w], u * (w + c)),
        # B_0 = w is coprime to u * (w + c) and passes
        ([w + u * (w + c), c + u, u + u * w * (w + c)], [w, c + u, u], u * (w + c)),
        # a constant modulus divides every minor
        ([u, w, c], [w, c, u], REG_UWC.const(Fraction(3, 2))),
        # no entry is a possible pivot: the full scan decides, and passes
        ([u * w, u], [u, u + w], u),
        # a zero modulus: a pass where every minor vanishes, a raise otherwise
        ([u, 2 * u], [w, 2 * w], zero),
        ([u, w], [w, u], zero),
        # a pivot pass that fails leaves the first failing minor to the full scan
        ([u, w + c * u, u], [u, w, w], w ** 2 + c * u ** 2),
        # the pivot minors vanish, but the full scan's product u^17000 * u^17000
        # reaches the degree limit and raises
        ([one, u ** 17000, u ** 17000], [one, u ** 17000, u ** 17000], None),
    ]
    for A, B, modulus in cases:
        assert _outcome(proportional_mod, A, B, modulus) == _outcome(_full_scan, A, B, modulus)
    assert [_outcome(proportional_mod, A, B, m)[0] for A, B, m in cases] == \
        [False] * 5 + [True] * 4 + [ZeroDivisionError, False, OverflowError]


def test_image_in_hypersurface(consts):
    assert image_in_hypersurface(consts.quadric_involution(),
                                 consts.family_quadric())


def test_equivariance_up_to_scalar(consts):
    reg = consts.reg_q
    lam = reg.var("lam")
    wnames = ("w0", "w1", "w2", "w3", "w4")
    torus = {n: lam ** i * reg.var(n) for i, n in enumerate(wnames)}
    # w_i -> lam^-i * w_i, projectively, with denominators cleared
    inverse = {n: lam ** (4 - i) * reg.var(n) for i, n in enumerate(wnames)}
    jq = consts.quadric_involution()
    assert equivariance_up_to_scalar(jq, torus, torus) == (True, lam ** 2)
    iota = compose(consts.reversal(), jq)
    ok, scalar = equivariance_up_to_scalar(iota, torus, inverse)
    assert ok and scalar is not None and not scalar.is_zero()
    ok, witness = equivariance_up_to_scalar(iota, torus, torus)
    assert not ok and witness is not None and not witness.is_zero()


def test_param_curve_validation(consts):
    reg = consts.reg_q
    t0, t1 = reg.var("t0"), reg.var("t1")
    with pytest.raises(MapError):
        ParamCurve(reg, ("t0", "t1"), (t0 ** 2, t1))  # mixed degree
    with pytest.raises(MapError):
        ParamCurve(reg, ("t0", "t1"), (reg.zero, reg.zero))


def test_param_curve_construction_and_messages(consts):
    reg = consts.reg_q
    t0, t1 = reg.var("t0"), reg.var("t1")
    comps = (t0 ** 2, t0 * t1, t1 ** 2)
    for curve in (ParamCurve(reg, ("t0", "t1"), comps),
                  ParamCurve(registry=reg, param_vars=("t0", "t1"), components=comps)):
        assert curve.registry is reg and curve.param_vars == ("t0", "t1")
        assert curve.components is comps and curve.degree() == 2
    with pytest.raises(MapError, match="common degree"):
        ParamCurve(reg, ("t0", "t1"), (t0 ** 2, t1))
    with pytest.raises(MapError, match="must not all vanish"):
        ParamCurve(registry=reg, param_vars=("t0", "t1"), components=(reg.zero,))


def test_rational_map_construction_and_messages(consts):
    reg = consts.reg_q
    w0, w1 = reg.var("w0"), reg.var("w1")
    names, comps = ("w0", "w1"), (w1, w0)
    plain = RationalMap(reg, names, names, comps)
    assert plain.modulus is None
    keyword = RationalMap(registry=reg, source_vars=names, target_vars=names,
                          components=comps, modulus=w0 * w1)
    positional = RationalMap(reg, names, names, comps, w0 * w1)
    for mp in (plain, keyword, positional):
        assert mp.registry is reg and mp.source_vars is names and mp.target_vars is names
        assert mp.components is comps
    assert keyword.modulus == positional.modulus == w0 * w1
    assert RationalMap(reg, names, names, comps, modulus=None).modulus is None
    with pytest.raises(MapError, match="one component per target coordinate"):
        RationalMap(reg, names, names, (w1,))
    with pytest.raises(MapError, match="components must not all vanish"):
        RationalMap(reg, names, names, (reg.zero, reg.zero))


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


def test_affine_jet(consts):
    reg = consts.reg_f3
    x0, y0, v = reg.var("x0"), reg.var("y0"), reg.var("v")
    assert affine_jet(2 + v * x0 - 3 * y0 + x0 * y0 + x0 ** 2, "x0", "y0") == (2, v, -3)
    assert affine_jet(x0 * y0, "x0", "y0") == (0, 0, 0)


def test_tangent_direction_is_projective_and_unhashable(consts):
    reg = consts.reg_f3
    two, three, zero = reg.const(2), reg.const(3), reg.zero
    d = TangentDirection(reg.const(-8), two)
    with pytest.raises(TypeError):
        hash(d)
    assert d == -4 and d != 4
    assert d == TangentDirection(reg.const(4), reg.const(-1))
    assert d != TangentDirection(three, two)
    assert d != INFINITY
    assert TangentDirection(three, zero) == INFINITY
    assert TangentDirection(three, zero) == TangentDirection(two, zero)


def test_tangent_direction_construction_and_repr(consts):
    reg = consts.reg_f3
    alpha, beta = reg.const(-8), reg.const(2)
    d = TangentDirection(alpha=alpha, beta=beta)
    assert d.alpha is alpha and d.beta is beta and d == TangentDirection(alpha, beta)
    assert repr(d) == "TangentDirection([-8 : 2])"
    assert repr(TangentDirection(beta, reg.zero)) == "TangentDirection(inf)"
    assert d.__eq__("not a direction") is NotImplemented


def test_tangent_parameter(consts):
    assert tangent_parameter(consts.upsilon_p()) == -4
    assert tangent_parameter(consts.upsilon_t()) == consts.reg_f3.var("v")
    assert tangent_parameter(consts.reg_f3.var("x0")) == INFINITY
    assert tangent_parameter(consts.reg_f3.var("y0")) == 0
