import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fano22 import (
    PaperConstants,
    SUITE_ORDER,
    SuiteConfig,
    UnknownSuite,
    random_mutation,
    render_text,
    reports_to_json,
    run_all,
    run_suite,
)
from fano22 import constants, suites
from fano22.cli import main
from fano22.constants import DEFAULT_RAW, REG_F3, _family
from fano22.sections import SectionSpace

from helpers import RecordingRaw


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
    assert [c.id for c in report.checks] == [
        "s10.boundary-0", "s10.boundary-1", "s10.boundary-inf",
        "s10.boundary--4", "s10.injective",
    ]


def test_reparam_fails_and_never_errs_on_a_table_without_a_bijective_matrix():
    def rows(key, text):
        table = PaperConstants(raw=dict(DEFAULT_RAW, **{key: text}))
        return [(c.id, c.status, c.witness)
                for c in run_suite("reparam", SuiteConfig(constants=table)).checks]

    ids = [c.id for c in run_suite("reparam").checks]
    # no matrix: every check fails with the reason, and none errs in setup
    for key, text, reason in [
            ("mobius.num", "v^2", "mobius.num has degree 2 in v, above 1"),
            ("mobius.den", "v^2 + 4", "mobius.den has degree 2 in v, above 1"),
            ("mobius.num", "v + x0", "mobius.num involves x0, so a coefficient is not rational")]:
        assert rows(key, text) == [(i, "fail", reason) for i in ids]
    # a singular matrix: (v + 4) / (v + 4) is 1 off its common zero -4
    assert [row[1:] for row in rows("mobius.num", "v + 4")] == [
        ("fail", "condition evaluated false"), ("fail", "condition evaluated false"),
        ("pass", None), ("fail", "the matrix sends [-4 : 1] to (0, 0)"),
        ("fail", "the matrix [[1, 4], [1, 4]] has determinant 0")]


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


def test_check_ids_are_unique():
    def ids(reports):
        return [c.id for r in reports for c in r.checks]

    default = ids(run_all())
    assert len(set(default)) == len(default)
    cfg = SuiteConfig(v_specializations=(2, 2, Fraction(4, 2), Fraction(7, 3)))
    repeated = ids([run_suite("stabilizers", cfg)])
    assert len(set(repeated)) == len(repeated)
    assert [i for i in repeated if not i.endswith("generic")] == [
        "s5.torus-family-v=2", "s5.additive-family-v=2",
        "s5.torus-family-v=7/3", "s5.additive-family-v=7/3"]


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


def test_suite_config_builds_a_fresh_table_and_takes_new_specializations():
    first, second = SuiteConfig(), SuiteConfig()
    assert isinstance(first.constants, PaperConstants)
    assert first.constants is not second.constants
    assert first.v_specializations == (2, 3, -1, -4, 0)
    table, values = PaperConstants(), (Fraction(1, 2),)
    for cfg in (SuiteConfig(table, values),
                SuiteConfig(constants=table, v_specializations=values)):
        assert cfg.constants is table and cfg.v_specializations is values
    assert SuiteConfig(v_specializations=values).constants is not table
    first.v_specializations = first.v_specializations + (Fraction(7, 3),)
    assert first.v_specializations[-1] == Fraction(7, 3)
    assert second.v_specializations == (2, 3, -1, -4, 0)


def test_check_report_construction():
    check = suites.Check("c", "pass", "s", None, 1.0)
    for report in (suites.CheckReport("w-module", [check]),
                   suites.CheckReport(suite="w-module", checks=[check])):
        assert report.suite == "w-module" and report.checks == [check] and report.ok
        assert report.to_dict() == {"suite": "w-module", "checks": [
            {"id": "c", "status": "pass", "statement": "s", "ms": 1.0}]}
    assert not suites.CheckReport("w-module", [suites.Check("c", "fail", "s", "w", 0.0)]).ok


def _kernel_rows(cfg) -> dict[str, str]:
    report = run_suite("normalization", cfg)
    return {c.id: c.status for c in report.checks if c.id.startswith("s6.kernel")}


def test_equalizer_kernel_is_built_once_per_process(monkeypatch):
    # it reads no constant: nothing of any table is parsed to build it
    constants._shared.clear()
    monkeypatch.setattr(PaperConstants, "poly", lambda self, key: pytest.fail(f"read {key}"))
    table = PaperConstants()
    kernel, reads = table._reading(lambda: suites._equalizer_kernel(table))
    monkeypatch.undo()
    assert reads == {} and kernel.dim == 6
    # two fresh tables check against the one kernel, built before them
    checked = []
    same_span = SectionSpace.same_span
    monkeypatch.setattr(SectionSpace, "same_span",
                        lambda self, other: checked.append(self) or same_span(self, other))
    monkeypatch.setattr(suites, "combine", lambda *args: pytest.fail("kernel rebuilt"))
    for _ in range(2):
        assert _kernel_rows(SuiteConfig(constants=PaperConstants())) == {
            "s6.kernel-dimension": "pass", "s6.kernel-identified": "pass"}
    assert [space is kernel for space in checked] == [True, False, True, False]


def test_each_suite_records_the_keys_a_recording_table_sees_cold_and_warm():
    recorded = {}
    for warm in (False, True):
        for name in SUITE_ORDER:
            if not warm:
                constants._shared.clear()
            raw = RecordingRaw(DEFAULT_RAW)
            report = run_suite(name, SuiteConfig(constants=PaperConstants(raw=raw)))
            assert report.ok and report.reads == raw.read, (name, warm)
            assert recorded.setdefault(name, report.reads) == report.reads, name
    # one table for every suite: a key read by an earlier suite is recorded again
    assert {r.suite: r.reads for r in run_all()} == recorded
    assert set().union(*recorded.values()) == set(DEFAULT_RAW)


def test_on_every_one_key_mutant_each_suite_records_what_its_recording_table_sees():
    setup_errors = 0
    for key in DEFAULT_RAW:
        name = _family(key)[1][0]
        for suite in SUITE_ORDER:
            raw = RecordingRaw(dict(DEFAULT_RAW, **{key: f"({DEFAULT_RAW[key]}) + 2/3*{name}^2"}))
            report = run_suite(suite, SuiteConfig(constants=PaperConstants(raw=raw)))
            assert report.reads == raw.read, (key, suite)
            setup_errors += report.checks[-1].id.endswith(".setup")
    # among them, derived objects whose build raised: their reads are recorded too
    assert setup_errors > 0


def test_sharing_never_changes_a_report():
    # the first mutant of every key in a seeded stream, each run with the paper's
    # objects shared and with nothing shared
    rng, mutants = random.Random(30), {}
    while len(mutants) < len(DEFAULT_RAW):
        key, raw = random_mutation(rng)
        mutants.setdefault(key, raw)

    def outcome(raw):
        reports = run_all(SuiteConfig(constants=PaperConstants(raw=dict(raw))))
        return ([(r.suite, c.id, c.status, c.statement, c.witness)
                 for r in reports for c in r.checks], [r.reads for r in reports])

    statuses = set()
    for key, raw in sorted(mutants.items()):
        run_all()
        warm = outcome(raw)
        constants._shared.clear()
        assert outcome(raw) == warm, key
        statuses.update(status for _, _, status, _, _ in warm[0])
    assert statuses == {"pass", "fail", "error"}


def test_normalization_reads_no_key_for_the_kernel():
    raw = RecordingRaw(DEFAULT_RAW)
    run_suite("normalization", SuiteConfig(constants=PaperConstants(raw=raw)))
    assert {key.split(".")[0] for key in raw.read} == {
        "wprime", "psi", "f3_action", "upsilon_p_param"}


def test_a_wprime_mutant_fails_kernel_identified():
    # x0*y1 restricts to w0 on the section and to 0 on the fiber
    raw = dict(DEFAULT_RAW, **{"wprime.1": "x0*y1"})
    assert _kernel_rows(SuiteConfig(constants=PaperConstants(raw=raw))) == {
        "s6.kernel-dimension": "pass", "s6.kernel-identified": "fail"}


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
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("stabilizers/s5.torus-family-v=7/3: PASS") for line in lines)
    assert len(lines) == 15 and lines[-1] == "14 passed, 0 failed"
    assert all(": PASS " in line for line in lines[:-1])


def test_cli_help_scopes_param_to_stabilizers(capsys):
    assert main(["--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "to the stabilizers suite only" in help_text
    assert "tangent-directions keeps its fixed v in {0, 1, 2}" in help_text


def test_cli_unknown_suite(capsys):
    assert main(["no-such-suite"]) == 2


def test_cli_bad_param(capsys):
    assert main(["stabilizers", "--param", "w=2"]) == 2
    capsys.readouterr()
    assert main(["stabilizers", "--param", "v=1/0"]) == 2
    assert capsys.readouterr().err == "error: --param v=1/0: the denominator is zero\n"
    for spec in ("v=abc", "v=", "v=1/x", "v=nan"):
        assert main(["stabilizers", "--param", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --param {spec}: not a rational number\n"
    # a numeral past the int-from-str digit limit names the limit, not its digits
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 1)
    for spec in (f"v={digits}", f"v=1/{digits}", f"v=0.{digits}"):
        assert main(["stabilizers", "--param", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --param v: numeral longer than {limit} digits\n"
    # a short numeral whose value str() cannot print is refused the same way
    for spec in ("v=1e5000", "v=1e-5000", f"v=1e{limit}"):
        assert main(["stabilizers", "--param", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --param v: value longer than {limit} digits\n"
    # a value of exactly `limit` digits still prints
    for spec in (f"v=1e{limit - 1}", f"v=-1e-{limit - 1}"):
        assert main(["stabilizers", "--param", spec]) == 0
        assert capsys.readouterr().err == ""
    # an exponent far past the limit is refused from the text, before 10**k is built
    for spec in ("v=1e400000000", "v=-1.5e-400000000"):
        start = time.perf_counter()
        assert main(["stabilizers", "--param", spec]) == 2
        assert time.perf_counter() - start < 0.1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --param v: value longer than {limit} digits\n"
    # a zero mantissa is 0 whatever its exponent (the suite runs, with v = 0)
    start = time.perf_counter()
    assert main(["stabilizers", "--param", "v=0.0e400000000"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ""


def test_cli_mutate_takes_exactly_n_and_seed(capsys):
    for argv in (["mutate"], ["mutate", "3"], ["mutate", "3", "x"], ["mutate", "1", "2", "3"]):
        assert main(argv) == 2
    assert "usage: fano22 mutate [-h] N SEED" in capsys.readouterr().err


def test_cli_mutate_refuses_a_negative_count(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["mutate", "-1", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument N: must not be negative, got -1" in captured.err
    assert list(tmp_path.iterdir()) == []


def _fresh_cli(*argv: str) -> str:
    """stdout of `fano22 ARGV` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(suites.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "fano22.cli", *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_selective_mutate_prints_what_a_full_loop_prints(capsys, tmp_path, monkeypatch):
    """Every suite on every mutant, as the campaign ran before it skipped suites."""
    def signature(reports):
        return [[r.suite, c.id, c.status, c.statement, c.witness]
                for r in reports for c in r.checks]

    count, seed = 40, 11
    rng = random.Random(seed)
    tables, lines = [{"key": None, "checks": signature(run_all())}], []
    for i in range(count):
        key, raw = random_mutation(rng)
        checks = signature(run_all(SuiteConfig(constants=PaperConstants(raw=raw))))
        tables.append({"key": key, "checks": checks})
        caught = [(f"{suite}/{id_}[{status}]", status)
                  for suite, id_, status, _, _ in checks if status != "pass"]
        fails = [name for name, status in caught if status == "fail"]
        if fails:
            line = f"killed by fail in {len(fails)} of {len(caught)} checks, first: {fails[0]}"
        elif caught:
            line = f"killed only by error in {len(caught)} checks, first: {caught[0][0]}"
        else:
            line = "NOT DETECTED"
        lines.append(f"#{i:02d} {key}: {line}")
    data = json.dumps({"count": count, "seed": seed, "tables": tables},
                      indent=1, sort_keys=True).encode()
    monkeypatch.chdir(tmp_path)
    main(["mutate", str(count), str(seed)])
    out = capsys.readouterr().out.splitlines()
    assert out[:count] == lines
    assert out[-1] == f"{hashlib.sha256(data).hexdigest()}  report_signature.json"
    assert (tmp_path / "report_signature.json").read_bytes() == data


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_cli_mutate_into_a_closed_pipe_ends_quietly(tmp_path, unbuffered):
    # the output passes Python's buffer, so the reader closes the pipe mid-run
    env = dict(os.environ, PYTHONPATH=str(Path(suites.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    # about 100 KB, more than the writer's 8 KiB buffer, the 64 KiB pipe and the reader's
    # 8 KiB buffer hold: the writer is still writing when the reader closes, however late
    proc = subprocess.Popen([sys.executable, "-m", "fano22.cli", "mutate", "1000", "3"],
                            cwd=tmp_path, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith("#00 ")
    proc.stdout.close()
    assert proc.stderr.read() == ""
    proc.stderr.close()
    assert proc.wait() == 1
    # the campaign misses mutants, so it exits 1 when it ends too; it never ended
    assert not (tmp_path / "report_signature.json").exists()


def test_cli_all_does_not_import_hashlib():
    # only `mutate` hashes, and only `mutate` and `--format json` write JSON;
    # the cold `fano22 --all` run stays as lean as it was
    code = ("import sys; from fano22.cli import main; main(['--all']); "
            "print('hashlib' in sys.modules, 'json' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(suites.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False False"


def test_cli_json_in_a_fresh_interpreter_matches_the_text_run():
    text = _fresh_cli("--all").splitlines()
    data = json.loads(_fresh_cli("--all", "--format", "json"))
    # a text line is "suite/id: STATUS statement ..."
    heads = [line.split(": ", 1) for line in text[:-1]]
    assert [(f"{r['suite']}/{c['id']}", c["status"].upper())
            for r in data for c in r["checks"]] == [
        (name, rest.split()[0]) for name, rest in heads]
    assert text[-1] == f"{len(text) - 1} passed, 0 failed"


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


@pytest.mark.parametrize("argv, out", [
    (["eval", "y", "--subst", "x=1"], "y"),
    (["eval", "x^2", "--def", "P=x"], "x^2"),
])
def test_cli_eval_binding_for_absent_variable_is_identity(capsys, argv, out):
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == out


def test_cli_eval_parse_error(capsys):
    assert main(["eval", "x^"]) == 2
    assert "position" in capsys.readouterr().err
    # a degree past the packed field width is refused like a parse error
    assert main(["eval", "x^40000"]) == 2
    assert "2**15" in capsys.readouterr().err
    # an unknown name is quoted once, as the registry quotes it
    assert main(["eval", "x^2", "--subst", "2=x"]) == 2
    assert capsys.readouterr().err == "error: unknown variable '2'\n"


def test_deep_nesting_is_a_parse_error_not_a_crash(capsys):
    text = "(" * 300 + "x0" + ")" * 300
    assert main(["eval", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parentheses nested deeper than")
    assert "Traceback" not in err
    raw = dict(DEFAULT_RAW, **{"w_basis.e0": text})
    report, = run_all(SuiteConfig(constants=PaperConstants(raw=raw)), ("w-module",))
    assert [c.witness.split(":")[0] for c in report.checks if c.status != "pass"] == ["ParseError"]


def test_cli_eval_of_an_unprintable_coefficient_is_an_error(capsys):
    # 2^100000 has more digits than str(int) prints by default: the parser refuses it
    limit = sys.get_int_max_str_digits()
    assert main(["eval", "2^100000*x"]) == 2
    assert capsys.readouterr().err == \
        f"error: constant power longer than {limit} digits (at position 2)\n"
    for text in ("10^10000000", "10^40000000"):
        start = time.perf_counter()
        assert main(["eval", text]) == 2
        assert time.perf_counter() - start < 0.1
        assert capsys.readouterr().err == \
            f"error: constant power longer than {limit} digits (at position 3)\n"
    # a product of printable powers past the limit is built, and refused when printed
    assert main(["eval", "2^10000*2^10000*x"]) == 2
    assert capsys.readouterr().err.startswith("error: Exceeds the limit")
    # as a literal of as many digits is refused by the parser, which names the limit
    assert main(["eval", "9" * 5000]) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == \
        f"error: integer literal longer than {limit} digits (at position 0)\n"
    assert main(["eval", "x + 9/" + "9" * 5000]) == 2
    assert capsys.readouterr().err == \
        f"error: integer literal longer than {limit} digits (at position 6)\n"


def test_an_unprintable_witness_errs_its_check_alone():
    x = REG_F3.var("x0")
    rec = suites._Recorder()
    rec.run("huge", "a failing check with a huge witness", lambda: (False, x.scale(2 ** 100000)))
    rec.run("next", "a later check", lambda: True)
    assert [(c.id, c.status) for c in rec.checks] == [("huge", "error"), ("next", "pass")]
    assert rec.checks[0].witness.startswith("ValueError: Exceeds the limit")


def test_cli_exit_one_on_failure(capsys, monkeypatch):
    import fano22.cli as cli_mod
    from fano22.suites import CheckReport, Check

    def fake_run_all(config, names):
        return [CheckReport("w-module", [
            Check("s1.homogeneous", "fail", "stub", "w", 0.0)])]

    monkeypatch.setattr(cli_mod, "run_all", fake_run_all)
    assert main(["w-module"]) == 1
