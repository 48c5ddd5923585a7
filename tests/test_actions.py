from fractions import Fraction

import pytest

from fano22.actions import (
    ActionError,
    ParametricAction,
    action_preserves_space,
    conditions_equal_principal,
    lie_derivation,
    semi_invariant_lines,
    stabilizer_conditions,
    verify_group_law,
)
from fano22.constants import PaperConstants


@pytest.fixture
def consts():
    return PaperConstants()


def test_identity_validation(consts):
    reg = consts.reg_f3
    with pytest.raises(ActionError):
        ParametricAction(
            registry=reg,
            params=("a",),
            images={"x0": reg.var("x0") + reg.var("a")},
            factors=(("x0",),),
            identity={"a": Fraction(1)},  # wrong: a=1 does not fix x0
        )


def test_act_on_section(consts):
    action = consts.f3_action()
    reg = consts.reg_f3
    moved = action.act_on_section(reg.var("x1"))
    assert moved == reg.var("x1") + reg.var("a") * reg.var("x0")


def test_group_law_holds(consts):
    report = verify_group_law(consts.f3_action(), consts.group_law())
    assert report.ok


def test_wrong_group_law_fails(consts):
    report = verify_group_law(consts.f3_action(), consts.wrong_group_law())
    assert not report.ok
    assert report.witness is not None and not report.witness.is_zero()


def test_lie_derivations(consts):
    action = consts.f3_action()
    reg = consts.reg_f3
    d_a = lie_derivation(action, "a")
    assert d_a(reg.var("x1")) == reg.var("x0")
    assert d_a(reg.var("y1")) == reg.var("x1") ** 3 * reg.var("y0")
    assert d_a(reg.var("x0")).is_zero()
    d_lam = lie_derivation(action, "lam")
    assert d_lam(reg.var("x0")) == reg.var("x0")
    assert d_lam(reg.var("x1")).is_zero()
    with pytest.raises(ActionError):
        lie_derivation(action, "nope")


def test_semi_invariant_lines_of_w(consts):
    lines = semi_invariant_lines(
        consts.w_space(), consts.w_torus_derivation(), consts.sl2_raising()
    )
    assert len(lines) == 1
    assert lines[0].primitive_normal() == consts.w_basis()[0].primitive_normal()


def test_stabilizer_conditions_semi_invariant_section(consts):
    # x0^4*y0 is semi-invariant: its condition ideal is empty
    reg = consts.reg_f3
    conds = stabilizer_conditions(
        reg.var("x0") ** 4 * reg.var("y0"),
        consts.f3_action(), consts.o11_space(), ("lam",),
    )
    assert conds.is_trivial()


def test_stabilizer_conditions_generic_section(consts):
    reg = consts.reg_f3
    a = reg.var("a")
    conds = stabilizer_conditions(
        reg.var("x1") ** 4 * reg.var("y0"),
        consts.f3_action(), consts.o11_space(), ("lam",),
    )
    assert not conds.is_trivial()
    assert conditions_equal_principal(conds, a, ("lam",))
    assert not conditions_equal_principal(conds, a ** 2, ("lam",))


def test_conditions_equal_principal_empty_is_false(consts):
    reg = consts.reg_f3
    conds = stabilizer_conditions(
        reg.var("x0") ** 4 * reg.var("y0"),
        consts.f3_action(), consts.o11_space(), ("lam",),
    )
    assert not conditions_equal_principal(conds, reg.var("a"))


def test_section_outside_space_rejected(consts):
    with pytest.raises(ActionError):
        stabilizer_conditions(
            consts.reg_f3.var("x0"), consts.f3_action(), consts.o11_space()
        )


def test_action_preserves_space(consts):
    assert action_preserves_space(consts.f3_action(), consts.o11_space())
    assert action_preserves_space(consts.f3_action(), consts.wprime_space())
