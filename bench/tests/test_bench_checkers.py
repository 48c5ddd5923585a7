"""Tests of the benchmark itself: every checker rejects a deliberately wrong
output, the reference computation stays apart from fano22, and the command
prints what BENCHMARK.json promises.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import oracle  # noqa: E402
import workloads  # noqa: E402
from fano22 import DEFAULT_RAW, ExactMatrix, Registry, format_poly, random_mutation, run_all  # noqa: E402

REG = Registry([(n, "coordinate") for n in ("x", "y", "z", "w")])
X, Y, Z, W = (REG.var(n) for n in "xyzw")


def _points(n=3):
    rng = random.Random(5)
    return [oracle.random_point(rng, "xyzw") for _ in range(n)]


def test_product_with_one_coefficient_changed_is_rejected():
    f = (X + Y.scale(2) - Z + 1) ** 3
    g = (X * W - Y.scale(Fraction(1, 3)) + 2) ** 2
    product = f * g
    oracle.check_product(format_poly(f), format_poly(g), format_poly(product), _points())
    wrong = product + (X ** 3).scale(Fraction(1, 7))  # changes the coefficient of x^3
    with pytest.raises(oracle.Mismatch):
        oracle.check_product(format_poly(f), format_poly(g), format_poly(wrong), _points())


def test_wrong_substitution_and_quotient_are_rejected():
    f = (X + Y) ** 4 - Z * W
    images = {"x": Y + 1, "z": W.scale(2)}
    good = f.substitute(images)
    texts = {n: format_poly(p) for n, p in images.items()}
    oracle.check_substitution(format_poly(f), texts, format_poly(good), _points())
    with pytest.raises(oracle.Mismatch):
        oracle.check_substitution(format_poly(f), texts, format_poly(good + Y), _points())
    g = X - Y + 3
    fg = format_poly(f * g)
    oracle.check_quotient(fg, format_poly(g), format_poly(f), _points())
    with pytest.raises(oracle.Mismatch):
        oracle.check_quotient(fg, format_poly(g), format_poly(f + 1), _points())
    with pytest.raises(oracle.Mismatch):
        oracle.check_quotient(fg, format_poly(g), None, _points())


def _rational_matrix():
    rng = random.Random(3)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)] for _ in range(3)]
    rows.append([a + b for a, b in zip(rows[0], rows[1])])  # rank 3, nullity 3
    m = ExactMatrix(REG, rows)
    kernel = [[format_poly(p) for p in vec] for vec in m.kernel()]
    return [[str(x) for x in row] for row in rows], kernel, m.rank()


def test_kernel_vector_with_one_entry_changed_is_rejected():
    rows, kernel, rank = _rational_matrix()
    oracle.check_kernel(rows, kernel, rank, [{}])
    wrong = [vec[:] for vec in kernel]
    wrong[1][2] = str(Fraction(oracle.evaluate(wrong[1][2])) + 1)
    with pytest.raises(oracle.Mismatch, match="annihilated"):
        oracle.check_kernel(rows, wrong, rank, [{}])


@pytest.mark.parametrize("delta", [1, -1])
def test_wrong_rank_is_rejected(delta):
    rows, kernel, rank = _rational_matrix()
    with pytest.raises(oracle.Mismatch, match="rank"):
        oracle.check_kernel(rows, kernel, rank + delta, [{}])


def test_missing_or_dependent_kernel_vectors_are_rejected():
    rows, kernel, rank = _rational_matrix()
    with pytest.raises(oracle.Mismatch):
        oracle.check_kernel(rows, kernel[:-1], rank, [{}])
    with pytest.raises(oracle.Mismatch, match="dependent"):
        oracle.check_kernel(rows, kernel[:-1] + [kernel[0]], rank, [{}])


def test_polynomial_kernel_is_checked_at_enough_points():
    reg = Registry([("v", "family-parameter")])
    v = reg.var("v")
    rows = [[v, v + 1, reg.const(2)], [v * v, reg.const(1), v - 3]]
    m = ExactMatrix(reg, rows)
    kernel = [[format_poly(p) for p in vec] for vec in m.kernel()]
    text_rows = [[format_poly(e) for e in row] for row in rows]
    rng = random.Random(2)
    points = [oracle.random_point(rng, "v") for _ in range(6)]
    oracle.check_kernel(text_rows, kernel, m.rank(), points)
    wrong = [[kernel[0][0] + " + v^2", *kernel[0][1:]]]
    with pytest.raises(oracle.Mismatch):
        oracle.check_kernel(text_rows, wrong, m.rank(), points)


def test_section_basis_checker():
    rng = random.Random(4)
    reg = Registry([(n, "coordinate") for n in workloads.F3_WEIGHTS])
    from fano22 import Grading, monomial_basis
    grading = Grading(reg, workloads.F3_WEIGHTS)
    basis = [format_poly(b) for b in monomial_basis(reg, grading, (2, 3), list(workloads.F3_WEIGHTS))]
    oracle.check_section_basis(basis, (2, 3), rng)
    with pytest.raises(oracle.Mismatch, match="dimension"):
        oracle.check_section_basis(basis[1:], (2, 3), rng)
    with pytest.raises(oracle.Mismatch, match="bidegree"):
        oracle.check_section_basis(basis[1:] + ["x0^3*y1^3"], (2, 3), rng)


def test_paper_report_with_one_check_failed_is_rejected():
    reports = run_all()
    assert workloads.check_paper_report(reports) == sum(len(r.checks) for r in reports)
    bad = dataclasses.replace(reports[4].checks[0], status="fail", witness="a")
    reports[4].checks[0] = bad
    with pytest.raises(workloads.Mismatch, match="fail"):
        workloads.check_paper_report(reports)


def test_paper_report_missing_a_suite_or_with_setup_error_is_rejected():
    reports = run_all()
    with pytest.raises(workloads.Mismatch):
        workloads.check_paper_report(reports[:-1])
    broken = dataclasses.replace(reports[2].checks[0], id="g-action.setup", status="error")
    reports[2].checks = [broken]
    with pytest.raises(workloads.Mismatch, match="setup"):
        workloads.check_paper_report(reports)


def test_mutant_report_with_an_unrelated_suite_changed_is_rejected():
    campaign = workloads.MutationCampaign(1)
    key = "mobius.num"
    readers = [s for s, keys in campaign.reads.items() if key in keys]
    assert readers == ["reparam"]
    reports = run_all()
    workloads.check_mutant_report(reports, campaign.baseline, campaign.reads, key)
    reports[-1].checks[0] = dataclasses.replace(reports[-1].checks[0], status="fail")
    workloads.check_mutant_report(reports, campaign.baseline, campaign.reads, key)
    reports[0].checks[0] = dataclasses.replace(reports[0].checks[0], witness="changed")
    with pytest.raises(workloads.Mismatch, match="w-module"):
        workloads.check_mutant_report(reports, campaign.baseline, campaign.reads, key)


def test_mutants_follow_random_mutation_in_the_accepted_grammar():
    """Same key pools, monomials and coefficients as `random_mutation`,
    except that a negative coefficient is written `- p/q*m`."""
    for seed in range(40):
        key, raw = random_mutation(random.Random(seed))
        rng = random.Random(seed)
        assert rng.choice(sorted(DEFAULT_RAW)) == key
        ours = f"({DEFAULT_RAW[key]}) {workloads.mutation_term(rng, key)}"
        assert raw[key].replace("+ -", "- ") == ours


def test_every_mutant_of_a_round_parses_and_each_key_occurs_once():
    campaign = workloads.MutationCampaign(9)
    keys = [campaign.prepare(i)[0] for i in range(campaign.round_size)]
    assert sorted(keys) == sorted(DEFAULT_RAW)


def test_paper_identity_checker_rejects_a_wrong_table():
    rng = random.Random(1)
    oracle.check_paper_identities(DEFAULT_RAW, rng, npoints=1)
    for key, text in (("f3_action.y1", "y1 + a*x1^3*y0"), ("group_law.lam", "lam + lam2"),
                      ("quartic_ideal.f5", "w1*w4 + w2*w3")):
        with pytest.raises(oracle.Mismatch):
            oracle.check_paper_identities(dict(DEFAULT_RAW, **{key: text}), rng, npoints=1)


@pytest.mark.parametrize("module", ["refclock", "oracle"])
def test_module_imports_nothing_from_fano22(module):
    code = (f"import sys, {module}\n"
            f"{module}.reference_work() if hasattr({module}, 'reference_work') else None\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'fano22'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, SRC]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = _run(ROOT, "--workload", "paper-verify", "--seed", "3", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "core-scale", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
