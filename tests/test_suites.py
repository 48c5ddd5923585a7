import json
from fractions import Fraction

import pytest

from fano22 import (
    PaperConstants,
    SUITE_ORDER,
    SuiteConfig,
    UnknownSuite,
    render_text,
    reports_to_json,
    run_all,
    run_suite,
)
from fano22.cli import main


def test_suite_order_is_complete():
    assert SUITE_ORDER == (
        "w-module", "borel-line", "g-action", "semi-invariants-11",
        "stabilizers", "normalization", "tangent-directions", "pencils",
        "quadric-involution", "reparam",
    )


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("bogus")


def test_single_suite_passes():
    report = run_suite("reparam")
    assert report.ok
    assert [c.id for c in report.checks][:4] == [
        "s10.boundary-0", "s10.boundary-1", "s10.boundary-inf",
        "s10.boundary--4",
    ]


def test_run_all_default_passes():
    reports = run_all()
    assert len(reports) == 10
    assert all(r.ok for r in reports)


def test_empty_filter_gives_empty_report():
    assert run_all(names=()) == []


def test_extra_specialization_adds_checks():
    base = run_suite("stabilizers")
    cfg = SuiteConfig()
    cfg.v_specializations = cfg.v_specializations + (Fraction(7, 3),)
    extended = run_suite("stabilizers", cfg)
    assert extended.ok
    assert len(extended.checks) == len(base.checks) + 2
    assert any(c.id == "s5.torus-family-v=7/3" for c in extended.checks)


def test_reports_deterministic():
    def shape(reports):
        return [(r.suite, [(c.id, c.status, c.statement, c.witness)
                           for c in r.checks]) for r in reports]

    assert shape(run_all()) == shape(run_all())


def test_default_run_all_shares_one_table(monkeypatch):
    built = []
    post_init = PaperConstants.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PaperConstants, "__post_init__", counting_post_init)
    default = run_all()
    assert len(built) == 1

    def signature(reports):
        return [(r.suite, c.id, c.status, c.statement, c.witness)
                for r in reports for c in r.checks]

    assert signature(default) == signature(run_all(SuiteConfig()))


def test_failure_carries_witness():
    raw = dict(PaperConstants().raw)
    raw["upsilon_p"] = "4*x0*y1 - x1^4*y0 + x0*y1"
    reports = run_all(SuiteConfig(constants=PaperConstants(raw=raw)))
    bad = [c for r in reports for c in r.checks if c.status != "pass"]
    assert bad
    assert all(c.witness is not None for c in bad)


def test_json_schema():
    data = reports_to_json(run_all(names=("borel-line",)))
    text = json.dumps(data)
    parsed = json.loads(text)
    assert isinstance(parsed, list)
    for suite in parsed:
        assert set(suite) == {"suite", "checks"}
        for check in suite["checks"]:
            assert {"id", "status", "statement", "ms"} <= set(check)
            assert set(check) <= {"id", "status", "statement", "ms", "witness"}
            assert check["status"] in ("pass", "fail", "error")


def test_render_text_summary():
    text = render_text(run_all(names=("reparam",)))
    assert text.splitlines()[-1] == "5 passed, 0 failed"


# -- command-line interface ---------------------------------------------------


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    assert capsys.readouterr().out.split() == list(SUITE_ORDER)


def test_cli_all_json(capsys):
    assert main(["--all", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 10


def test_cli_single_suite_with_param(capsys):
    assert main(["stabilizers", "--param", "v=7/3"]) == 0
    out = capsys.readouterr().out
    assert "s5.torus-family-v=7/3" in out


def test_cli_help_scopes_param_to_stabilizers(capsys):
    assert main(["--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "to the stabilizers suite only" in help_text
    assert "tangent-directions keeps its fixed v in {0, 1, 2}" in help_text


def test_cli_unknown_suite(capsys):
    assert main(["no-such-suite"]) == 2


def test_cli_bad_param(capsys):
    assert main(["stabilizers", "--param", "w=2"]) == 2
    assert main(["stabilizers", "--param", "v=1/0"]) == 2


def test_cli_eval(capsys):
    assert main([
        "eval", "4*x0*P - (x1+a*x0)^4",
        "--def", "P=a*x1^3+(3/2)*a^2*x0*x1^2+a^3*x0^2*x1+(1/4)*a^4*x0^3",
    ]) == 0
    assert capsys.readouterr().out.strip() == "-x1^4"


def test_cli_eval_zero(capsys):
    assert main(["eval", "0+0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_eval_subst(capsys):
    assert main(["eval", "x^2 - y", "--subst", "y=x^2"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_eval_parse_error(capsys):
    assert main(["eval", "x^"]) == 2
    assert "position" in capsys.readouterr().err
    # a degree past the packed field width is refused like a parse error
    assert main(["eval", "x^40000"]) == 2
    assert "2**15" in capsys.readouterr().err


def test_cli_exit_one_on_failure(capsys, monkeypatch):
    import fano22.cli as cli_mod
    from fano22.suites import CheckReport, Check

    def fake_run_all(config, names):
        return [CheckReport("w-module", [
            Check("s1.homogeneous", "fail", "stub", "w", 0.0)])]

    monkeypatch.setattr(cli_mod, "run_all", fake_run_all)
    assert main(["w-module"]) == 1
