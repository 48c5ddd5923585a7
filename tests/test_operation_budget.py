"""Operation budgets of the suites: a value that checks share is built once.

Spies count the calls one suite run makes.  A value that several checks
share is built by the first check that asks; a failure to build it errs
each of those checks, with the same witness, and no suite setup.  A
suite's set-up values are shared across tables by the keys they read, so
a test that counts their builds first clears `constants._shared`.
"""

import pytest

from fano22 import actions, constants, suites
from fano22.constants import DEFAULT_RAW, SL2_RAISING, W_TORUS, PaperConstants
from fano22.maps import compose, cross_differences
from fano22.poly import Derivation, Polynomial, Registry
from fano22.suites import SuiteConfig, run_all, run_suite

#: the three checks of the quadric-involution suite that use iota = compose(rev, jq)
IOTA_CHECKS = ("s9.commutes-with-reversal", "s9.semi-commutation", "s9.cubic-intertwines")


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def test_quadric_involution_composes_three_times(monkeypatch):
    calls = []
    _counting(monkeypatch, suites, "compose", calls)
    constants._shared.clear()
    report = run_suite("quadric-involution")
    assert report.ok
    assert len(calls) == 3


def test_g_action_builds_the_self_composition_once(monkeypatch):
    # sigma' renames a -> a2, lam -> lam2 in each of the four images
    renamings = []
    substitute = Polynomial.substitute

    def spy(self, assignment):
        if {n: str(p) for n, p in assignment.items()} == {"a": "a2", "lam": "lam2"}:
            renamings.append(self)
        return substitute(self, assignment)

    monkeypatch.setattr(Polynomial, "substitute", spy)
    constants._shared.clear()
    report = run_suite("g-action")
    assert report.ok and len(report.checks) == 6
    assert len(renamings) == 4
    # a fresh paper table shares the action, and with it the self-composition
    renamings.clear()
    assert run_suite("g-action").ok
    assert renamings == []


#: the calls that build the suites' set-up values, counted where `suites` looks them up
SETUP_CALLS = ("semi_invariant_lines", "lie_derivation", "_minors",
               "restricted_order_subspace", "compose")


def _setup_calls(monkeypatch, table) -> dict[str, int]:
    calls = {name: [] for name in SETUP_CALLS}
    for name, seen in calls.items():
        _counting(monkeypatch, suites, name, seen)
    run_all(SuiteConfig(constants=table))
    monkeypatch.undo()
    return {name: len(seen) for name, seen in calls.items()}


def test_a_table_rebuilds_only_the_set_up_values_that_read_a_changed_key(monkeypatch):
    run_all()
    # the two compositions left are the checks' own, j_Q after j_Q and j_Q after reversal
    assert _setup_calls(monkeypatch, PaperConstants()) == {
        "semi_invariant_lines": 0, "lie_derivation": 0, "_minors": 0,
        "restricted_order_subspace": 0, "compose": 2}
    # of the set-up values, only the two pencils read the curve's parametrization
    raw = dict(DEFAULT_RAW, **{"upsilon_p_param.y1": "x1^4 + x0^4"})
    assert _setup_calls(monkeypatch, PaperConstants(raw=raw)) == {
        "semi_invariant_lines": 0, "lie_derivation": 0, "_minors": 0,
        "restricted_order_subspace": 2, "compose": 2}


def test_semi_invariant_lines_of_w_build_no_matrix(monkeypatch):
    space = PaperConstants().w_space()
    calls = []
    _counting(monkeypatch, actions, "coefficient_matrix", calls)
    lines = actions.semi_invariant_lines(space, W_TORUS, SL2_RAISING)
    assert lines == [space.basis[0].primitive_normal()]
    assert calls == []


def test_a_failed_shared_composition_errs_each_check_that_uses_it(monkeypatch):
    table = PaperConstants()
    rev, jq = table.reversal(), table.quadric_involution()
    attempts = []
    compose = suites.compose

    def failing_compose(g, f):
        if g.components == rev.components and f.components == jq.components:
            attempts.append((g, f))
            raise RuntimeError("composition refused")
        return compose(g, f)

    monkeypatch.setattr(suites, "compose", failing_compose)
    constants._shared.clear()
    report = run_suite("quadric-involution", SuiteConfig(constants=table))
    rows = {c.id: (c.status, c.witness) for c in report.checks}
    assert "quadric-involution.setup" not in rows
    for check_id in IOTA_CHECKS:
        assert rows.pop(check_id) == ("error", "RuntimeError: composition refused")
    # the raise is not kept: each check asked again
    assert len(attempts) == 3
    assert len(rows) == 7 and all(status == "pass" for status, _ in rows.values())


def test_the_involution_divides_by_the_quadric_only_against_one_pivot(monkeypatch):
    # s9.involution: w0 is coprime to f_c, so the 4 minors against it decide
    # the pass; one of them vanishes identically, so 3 of them are divided
    # (all 9 nonzero minors of 10 before)
    divisions, per_call = [], []
    _counting(monkeypatch, Polynomial, "exact_divide", divisions)
    proportional_mod = suites.proportional_mod

    def spy(A, B, modulus):
        before = len(divisions)
        result = proportional_mod(A, B, modulus)
        per_call.append(len(divisions) - before)
        return result

    monkeypatch.setattr(suites, "proportional_mod", spy)
    report = run_suite("quadric-involution")
    assert report.ok
    # s9.involution, s9.commutes-with-reversal, s9.cubic-intertwines
    assert per_call == [3, 0, 0]


def test_cross_differences_build_no_products_and_no_differences(monkeypatch):
    table = PaperConstants()
    jq = table.quadric_involution()
    A = compose(jq, jq).components
    B = [table.reg_q.var(n) for n in ("w0", "w1", "w2", "w3", "w4")]
    expected = [A[i] * B[j] - A[j] * B[i] for i in range(5) for j in range(i + 1, 5)]
    calls = []
    _counting(monkeypatch, Polynomial, "__mul__", calls)
    _counting(monkeypatch, Polynomial, "__sub__", calls)
    assert list(cross_differences(A, B)) == [c for c in expected if not c.is_zero()]
    assert calls == []


def test_run_all_divides_at_most_72_times(monkeypatch):
    run_all()  # anything built once per process is built
    calls = []
    _counting(monkeypatch, Polynomial, "exact_divide", calls)
    assert all(report.ok for report in run_all())
    assert len(calls) <= 72


def test_run_all_decodes_no_monomial_key(monkeypatch):
    # degrees and signs are read from the key fields, not from exponent tuples
    run_all()
    calls = []
    _counting(monkeypatch, Registry, "_expo", calls)
    assert all(report.ok for report in run_all())
    assert calls == []


def test_an_unknown_variable_name_raises_key_error_naming_it():
    reg = Registry([("x", "coordinate"), ("v", "family-parameter")])
    x = reg.var("x")
    for call in (lambda: (x * x).substitute({"q": 1}),
                 lambda: (x * x).coefficient_of("q", 1),
                 lambda: Derivation(reg, {"q": x}),
                 lambda: reg.index("q")):
        with pytest.raises(KeyError) as info:
            call()
        assert info.value.args == ("unknown variable 'q'",)
