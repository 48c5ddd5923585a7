import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fano22 import constants, suites
from fano22.actions import (
    ActionError,
    GroupLaw,
    ParametricAction,
    _conditions,
    _eigenweight,
    _minors,
    action_preserves_space,
    conditions_equal_principal,
    lie_derivation,
    semi_invariant_lines,
    stabilizer_conditions,
    verify_group_law,
)
from fano22.constants import (
    DEFAULT_RAW,
    REG_W,
    SL2_RAISING,
    W_GRADING,
    W_TORUS,
    WRONG_GROUP_LAW,
    PaperConstants,
)
from fano22.linalg import coefficient_matrix, combine
from fano22.poly import Derivation
from fano22.sections import SectionSpace
from fano22.suites import SuiteConfig, run_suite


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


def test_parametric_action_construction_and_messages(consts):
    reg = consts.reg_f3
    fields = {"registry": reg, "params": ("lam",),
              "images": {"x0": reg.var("lam") * reg.var("x0")},
              "factors": (("x0",),), "identity": {"lam": Fraction(1)}}
    for action in (ParametricAction(**fields), ParametricAction(*fields.values())):
        assert all(getattr(action, name) is value for name, value in fields.items())
        # the identity point is computed once per action
        assert action._identity_point is action._identity_point
        assert action.at_identity(reg.var("lam")) == reg.one
    with pytest.raises(ActionError, match="identity parameters do not fix coordinate x0"):
        ParametricAction(**dict(fields, identity={"lam": Fraction(2)}))


def test_group_law_construction(consts):
    reg = consts.reg_f3
    rule = {"lam": reg.var("lam") * reg.var("lam2")}
    primed = {"lam": "lam2"}
    for law in (GroupLaw(rule, primed), GroupLaw(rule=rule, primed=primed)):
        assert law.rule is rule and law.primed is primed


def test_f3_action_built_once_per_table_unless_it_fails(consts, monkeypatch):
    other = PaperConstants()
    assert other.reg_f3 is consts.reg_f3
    assert other.o11_space() is consts.o11_space()
    # tables that keep the paper's text share one object
    for name in ("f3_action", "w_space", "psi"):
        built = getattr(consts, name)()
        assert getattr(consts, name)() is built
        assert getattr(other, name)() is built
    shared = consts.f3_action()
    builds = []
    monkeypatch.setattr(constants, "ParametricAction",
                        lambda **fields: builds.append(fields) or ParametricAction(**fields))
    # a mutant of one key gets its own object, built once per table
    raw = dict(consts.raw, **{"f3_action.x1": "x1 + a*x0 + a^2*x0"})
    for n in (1, 2):
        mutant = PaperConstants(raw=dict(raw))
        own = mutant.f3_action()
        assert own is not shared and mutant.f3_action() is own and len(builds) == n
        assert own.images["x1"] != shared.images["x1"]
        assert mutant.w_space() is consts.w_space()
    # a failing build raises on every call and is never shared
    tampered = PaperConstants(raw=dict(consts.raw, **{"f3_action.x0": "lam*x0 + x1"}))
    for n in (3, 4):
        with pytest.raises(ActionError):
            tampered.f3_action()
        assert len(builds) == n
    assert PaperConstants().f3_action() is shared and len(builds) == 4


def test_act_on_section(consts):
    action = consts.f3_action()
    reg = consts.reg_f3
    moved = action.act_on_section(reg.var("x1"))
    assert moved == reg.var("x1") + reg.var("a") * reg.var("x0")


def test_group_law_holds(consts):
    assert verify_group_law(consts.f3_action(), consts.group_law()) == (True, None)


def test_wrong_group_law_fails(consts):
    ok, witness = verify_group_law(consts.f3_action(), WRONG_GROUP_LAW)
    assert not ok
    assert witness is not None and not witness.is_zero()


def test_group_law_checks_every_factor(consts):
    # only the (y0, y1) factor breaks when y1's image loses its higher terms in a
    raw = dict(consts.raw, **{"f3_action.y1": "y1 + a*x1^3*y0"})
    tampered = PaperConstants(raw=raw)
    ok, witness = verify_group_law(tampered.f3_action(), tampered.group_law())
    assert not ok
    assert witness is not None and witness.degree_in("y0") > 0


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


def test_at_identity_sets_every_group_parameter(consts):
    action = consts.f3_action()
    reg = consts.reg_f3
    a, lam, v = reg.var("a"), reg.var("lam"), reg.var("v")
    assert action.at_identity(a * lam + lam ** 2 * v) == v
    assert action.at_identity(reg.var("a2")) == reg.var("a2")


def test_lie_derivation_is_the_partial_derivative_at_the_identity(consts):
    reg = consts.reg_f3
    x0, x1, y0, y1, a, lam = (reg.var(n) for n in ("x0", "x1", "y0", "y1", "a", "lam"))
    # rational coefficients of first order in a or lam reach the derivative
    h, q = Fraction(3, 2), Fraction(1, 4)
    action = ParametricAction(
        registry=reg,
        params=("a", "lam"),
        images={"x0": lam * x0, "x1": x1 + a.scale(h) * x0, "y0": lam ** 3 * y0,
                "y1": y1 + (a.scale(h) * x1 ** 3 + a.scale(q) * lam * x0 * x1 ** 2
                            + a ** 2 * x0 ** 3) * y0},
        factors=(("x0", "x1"), ("y0", "y1")),
        identity={"a": Fraction(0), "lam": Fraction(1)},
    )
    d_a = lie_derivation(action, "a")
    assert d_a.images == {"x1": x0.scale(h),
                          "y1": (x1 ** 3).scale(h) * y0 + (x0 * x1 ** 2 * y0).scale(q)}
    assert lie_derivation(action, "lam").images == {"x0": x0, "y0": 3 * y0}


def test_semi_invariant_lines_of_w(consts):
    lines = semi_invariant_lines(consts.w_space(), W_TORUS, SL2_RAISING)
    assert len(lines) == 1
    assert lines[0].primitive_normal() == consts.w_basis()[0].primitive_normal()


def _reference_lines(space, torus_derivation, nilpotent_derivation):
    """Every weight space, one vector or more, through its coefficient matrix's kernel."""
    reg = space.registry
    buckets = {}
    for b in space.basis:
        buckets.setdefault(_eigenweight(torus_derivation, b), []).append(b)
    lines = []
    for _, elems in sorted(buckets.items()):
        images = [nilpotent_derivation(b) for b in elems]
        for vec in coefficient_matrix(reg, images)[1].kernel():
            lines.append(combine(reg, vec, elems).primitive_normal())
    return lines


def test_semi_invariant_lines_of_the_paper_spaces_match_the_matrix_reference(consts):
    action = consts.f3_action()
    cases = [(consts.w_space(), W_TORUS, SL2_RAISING),
             (consts.o11_space(), lie_derivation(action, "lam"), lie_derivation(action, "a"))]
    for space, torus, nilpotent in cases:
        assert semi_invariant_lines(space, torus, nilpotent) == _reference_lines(
            space, torus, nilpotent)


def _mixed_weight_basis(rng):
    """A seeded basis of torus eigenvectors in bidegree (5,1) on P^1 x P^1.

    The monomials x1^i*y1^(5-i)*x2 and x1^w*y1^(5-w)*y2 share the weight
    w = i + 1; each drawn weight keeps one of them, scaled, or two
    independent combinations of both.
    """
    x1, y1, x2, y2 = (REG_W.var(n) for n in ("x1", "y1", "x2", "y2"))
    basis = []
    for w in rng.sample(range(7), rng.randint(2, 7)):
        pair = [x1 ** (w - 1) * y1 ** (6 - w) * x2 if w >= 1 else None,
                x1 ** w * y1 ** (5 - w) * y2 if w <= 5 else None]
        pair = [m for m in pair if m is not None]
        scale = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)) for _ in range(4)]
        if len(pair) == 2 and rng.random() < 0.5:
            # an invertible 2x2 mix of the two monomials
            a, b, c, d = scale
            if a * d == b * c:
                d += 1
            basis += [pair[0].scale(a) + pair[1].scale(b), pair[0].scale(c) + pair[1].scale(d)]
        else:
            basis.append(rng.choice(pair).scale(scale[0]))
    return basis


@pytest.mark.parametrize("seed", range(12))
def test_semi_invariant_lines_of_seeded_bases_match_the_matrix_reference(seed):
    rng = random.Random(seed)
    x1, x2 = REG_W.var("x1"), REG_W.var("x2")
    # x2*d/dy2 kills every x2-monomial and no y2-monomial; x1*d/dy1 kills what has no y1
    nilpotents = [SL2_RAISING, Derivation(REG_W, {"y2": x2}), Derivation(REG_W, {"y1": x1})]
    space = SectionSpace(REG_W, _mixed_weight_basis(rng), (5, 1), W_GRADING)
    for nilpotent in nilpotents:
        lines = semi_invariant_lines(space, W_TORUS, nilpotent)
        assert lines == _reference_lines(space, W_TORUS, nilpotent)
        assert all(nilpotent(line).is_zero() for line in lines)


def test_seeded_bases_mix_killed_and_unkilled_single_vectors_with_larger_weight_spaces():
    singles_killed = singles_unkilled = larger = 0
    killer = Derivation(REG_W, {"y2": REG_W.var("x2")})
    for seed in range(12):
        basis = _mixed_weight_basis(random.Random(seed))
        sizes = {}
        for b in basis:
            sizes.setdefault(_eigenweight(W_TORUS, b), []).append(b)
        for elems in sizes.values():
            if len(elems) > 1:
                larger += 1
            elif killer(elems[0]).is_zero():
                singles_killed += 1
            else:
                singles_unkilled += 1
    assert singles_killed and singles_unkilled and larger


def test_stabilizer_conditions_semi_invariant_section(consts):
    # x0^4*y0 is semi-invariant: its condition ideal is empty
    reg = consts.reg_f3
    conds = stabilizer_conditions(
        reg.var("x0") ** 4 * reg.var("y0"),
        consts.f3_action(), consts.o11_space(), ("lam",),
    )
    assert conds == []


def test_stabilizer_conditions_generic_section(consts):
    reg = consts.reg_f3
    a = reg.var("a")
    conds = stabilizer_conditions(
        reg.var("x1") ** 4 * reg.var("y0"),
        consts.f3_action(), consts.o11_space(), ("lam",),
    )
    assert conds
    assert conditions_equal_principal(conds, a, ("lam",))
    assert not conditions_equal_principal(conds, a ** 2, ("lam",))


def test_conditions_equal_principal_empty_is_false(consts):
    reg = consts.reg_f3
    conds = stabilizer_conditions(
        reg.var("x0") ** 4 * reg.var("y0"),
        consts.f3_action(), consts.o11_space(), ("lam",),
    )
    assert not conditions_equal_principal(conds, reg.var("a"))


def test_stabilizer_conditions_are_stripped_and_primitive(consts):
    # conditions_equal_principal compares against them without normalizing
    action, space = consts.f3_action(), consts.o11_space()
    sections = [consts.upsilon_t(), consts.upsilon_a()]
    for val in (Fraction(2), Fraction(3), Fraction(-1), Fraction(-4), Fraction(0)):
        sections += [consts.upsilon_t(val), consts.upsilon_a(val)]
    generators = [g for f in sections
                  for g in stabilizer_conditions(f, action, space, ("lam",))]
    assert generators
    for g in generators:
        assert g.strip_variable_factor("lam").primitive_normal() == g


# -- stabilizer ideals specialized from the raw minors of a family ------------

#: the suites' default values of v (among them -4 and 0, where a family is
#: fully stable) and three more
SPECIAL_VALUES = SuiteConfig().v_specializations + (Fraction(7, 3), Fraction(1, 2), Fraction(1))
PAPER = PaperConstants()


def _specialized(minors, val):
    """The conditions at v = val from a family's raw minors over Q[v]."""
    point = {"v": PAPER.reg_f3.const(val)}
    return _conditions([m.substitute(point) for m in minors], PAPER.f3_action(), ("lam",))


@pytest.mark.parametrize("family", ["upsilon_t", "upsilon_a"])
def test_specialized_minors_give_the_conditions_at_each_value(family):
    curve = getattr(PAPER, family)
    action, space = PAPER.f3_action(), PAPER.o11_space()
    minors = _minors(curve(), action, space)
    assert minors and any(m.degree_in("v") for m in minors)
    for val in SPECIAL_VALUES:
        assert _specialized(minors, val) == stabilizer_conditions(
            curve(val), action, space, ("lam",)), val


def test_normalization_runs_after_specializing():
    reg, action, space = PAPER.reg_f3, PAPER.f3_action(), PAPER.o11_space()
    a, v = reg.var("a"), reg.var("v")
    minors = _minors(PAPER.upsilon_t(), action, space)
    generic = _conditions(minors, action, ("lam",))
    assert len(generic) == 8 and a * (v + 4) in generic
    # the minor -a*lam*(v+4) is -6*a*lam at v = 2, which normalizes to a,
    # and every minor vanishes at v = -4, where the family is fully stable
    assert -a * reg.var("lam") * (v + 4) in minors
    assert _specialized(minors, Fraction(2)) == [a ** 4, a ** 3, a ** 2, a]
    assert _specialized(minors, Fraction(-4)) == []


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-12, max_value=12, max_denominator=9))
@example(Fraction(-4))
@example(Fraction(0))
def test_specialization_commutes_with_the_stabilizer_ideal(val):
    action, space = PAPER.f3_action(), PAPER.o11_space()
    for curve in (PAPER.upsilon_t, PAPER.upsilon_a):
        assert _specialized(_minors(curve(), action, space), val) == stabilizer_conditions(
            curve(val), action, space, ("lam",))


def _s5_rows_per_value(cfg, monkeypatch) -> list[tuple]:
    """The s5 rows with every value computed anew, as without generic minors."""
    def no_generic_minors(*args):
        raise ActionError("no generic minors")

    with monkeypatch.context() as m:
        m.setattr(suites, "_minors", no_generic_minors)
        return _s5_value_rows(cfg)


def _s5_value_rows(cfg) -> list[tuple]:
    return [(c.id, c.status, c.statement, c.witness)
            for c in run_suite("stabilizers", cfg).checks if not c.id.endswith("generic")]


@pytest.mark.parametrize("key, text", [
    (None, None),
    # the generic curve lies outside the space, the curve at v = 0 inside
    ("upsilon_t", "v*x0*y1 + x1^4*y0 + v*x0^2"),
    # an action involving v: specializing the minors would set v in it too
    ("f3_action.x1", "x1 + v*a*x0"),
    ("upsilon_a", "4*x0*y1 - x1^4*y0 + v*x0^4*y0 + v^2*x0*x1^3*y0"),
])
def test_specialized_rows_equal_the_per_value_rows(key, text, monkeypatch):
    raw = dict(DEFAULT_RAW) if key is None else dict(DEFAULT_RAW, **{key: text})
    cfg = SuiteConfig(constants=PaperConstants(raw=raw),
                      v_specializations=SPECIAL_VALUES)
    rows = _s5_value_rows(cfg)
    assert len(rows) == 2 * len(SPECIAL_VALUES)
    assert rows == _s5_rows_per_value(cfg, monkeypatch)
    if key == "upsilon_t":
        generic = run_suite("stabilizers", cfg).checks[0]
        assert (generic.status, generic.witness) == (
            "error", "ActionError: section lies outside the given space")
        assert ("s5.torus-family-v=0", "pass") in [row[:2] for row in rows]


def test_section_outside_space_rejected(consts):
    with pytest.raises(ActionError):
        stabilizer_conditions(
            consts.reg_f3.var("x0"), consts.f3_action(), consts.o11_space()
        )


def test_action_preserves_space(consts):
    assert action_preserves_space(consts.f3_action(), consts.o11_space())
    assert action_preserves_space(consts.f3_action(), consts.wprime_space())
