#!/usr/bin/env python3
"""fano22 benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload paper-verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads: paper-verify, mutation-campaign, core-scale (see README.md).
Each runs in one single-threaded process; cold starts are spawned one at a
time.  Every time is reported at reference speed (see refclock.py).  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import refclock

WORKLOAD_NAMES = ("paper-verify", "mutation-campaign", "core-scale")
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 5
#: timed cold CLI starts per run, after one untimed start that compiles bytecode
CLI_SPAWNS = 9
#: fresh interpreters per cli.* layer metric in the traced run
CLI_LAYER_SPAWNS = 5
SPAWN_TIMEOUT_S = 60

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")

E2E_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
             "cold_cli_ms": "ms", "peak_rss_mib": "MiB"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it spawns, on one vCPU.

    The vCPUs of a shared VM change speed independently of each other,
    within a second; a cold start scheduled on the other vCPU would be
    scaled by a reference measured on this one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _spawn(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SPAWN_TIMEOUT_S)


# -- cold starts -----------------------------------------------------------


def _wall_ms(argv) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = _spawn(argv)
    return (time.perf_counter() - start) * 1000.0, proc


def cold_starts(argvs) -> list[tuple[float, subprocess.CompletedProcess]]:
    """Wall time of each command in a fresh interpreter, at reference speed.

    The commands run one at a time, each between two reference spawns.
    """
    reference = [sys.executable, "-c",
                 f"import sys; sys.path.insert(0, {BENCH!r}); import refclock; refclock.spawn_work()"]
    before, _ = _wall_ms(reference)
    out = []
    for argv in argvs:
        ms, proc = _wall_ms(argv)
        after, _ = _wall_ms(reference)
        out.append((ms * refclock.NOMINAL_SPAWN_MS / ((before + after) / 2), proc))
        before = after
    return out


def _median_ms(samples, errors: list, label: str) -> float:
    for _, proc in samples:
        if proc.returncode != 0:
            errors.append(f"{label} exited with {proc.returncode}: {proc.stderr[-300:]}")
    return statistics.median(ms for ms, _ in samples)


def measure_setup(workload: str, seed: int, errors: list) -> float:
    """A fresh interpreter that imports fano22 and builds the inputs, in seconds."""
    code = (f"import sys; sys.path[:0] = [{BENCH!r}, {SRC!r}]; import workloads; "
            f"workloads.WORKLOADS[{workload!r}]({seed})")
    samples = cold_starts([[sys.executable, "-c", code]] * SETUP_PROBES)
    return _median_ms(samples, errors, "set-up") / 1000.0


def measure_cold_cli(expected_checks: int, errors: list) -> float:
    argv = [sys.executable, "-m", "fano22.cli", "--all"]
    _spawn(argv)  # compiles bytecode; untimed
    samples = cold_starts([argv] * CLI_SPAWNS)
    for _, proc in samples:
        lines = proc.stdout.strip().splitlines()
        summary = lines[-1] if lines else ""
        if summary != f"{expected_checks} passed, 0 failed":
            errors.append(f"cold CLI run: summary {summary!r}, "
                          f"expected {expected_checks} passed, 0 failed")
    return _median_ms(samples, errors, "cold CLI run")


def measure_cli_layers(errors: list) -> dict:
    bare = [sys.executable, "-c", "pass"]
    imported = [sys.executable, "-c", "import fano22"]
    samples = cold_starts([bare, imported] * CLI_LAYER_SPAWNS)
    bare_ms = _median_ms(samples[0::2], errors, "bare interpreter")
    import_ms = _median_ms(samples[1::2], errors, "import fano22")
    return {"cli.interpreter_ms": bare_ms, "cli.import_ms": import_ms - bare_ms}


# -- the timed loop ------------------------------------------------------------


def timed_loop(w, seconds: float, errors: list, tracer=None) -> dict:
    """Closed loop of whole rounds, started while `seconds` have not passed.

    Every step of an op runs between two reference runs and is scaled by
    their mean; an op's time at reference speed is the sum over its steps.
    The speed can change within a second, so only the adjacent runs are
    used: a wider window of reference runs spread the figures more.
    """
    refs = [refclock.reference_ms(w.reference)]
    raw: list[float] = []
    scaled: list[float] = []
    scales: list[float] = []  # per attempted op, failed ones included
    failed = attempted = 0
    start = time.perf_counter()
    while attempted % w.round_size or time.perf_counter() - start < seconds:
        arg = w.prepare(attempted)
        out = []
        raw_s = scaled_s = 0.0
        if tracer is not None:
            tracer.begin_op()
        try:
            for step in w.steps(arg):
                t0 = time.perf_counter()
                out.append(step())
                dt = time.perf_counter() - t0
                refs.append(refclock.reference_ms(w.reference))
                raw_s += dt
                scaled_s += dt * refclock.speed_scale(refs[-2:], w.reference)
        except Exception:
            if not failed:
                traceback.print_exc(file=sys.stderr)
            failed += 1
            out = None
        finally:
            if tracer is not None:
                tracer.end_op()
        attempted += 1
        scales.append(scaled_s / raw_s if raw_s else 1.0)
        if out is None:
            continue
        raw.append(raw_s * 1000.0)
        scaled.append(scaled_s * 1000.0)
        try:
            w.check(arg, out)
        except Exception as exc:  # a wrong output or a checker crash both void the run
            errors.append(f"op {attempted - 1}: {type(exc).__name__}: {exc}")
    return {"raw_ms": raw, "scaled_ms": scaled, "scales": scales, "refs_ms": refs,
            "attempted": attempted, "failed": failed}


def e2e_metrics(loop: dict, setup_s: float, cold_cli_ms: float) -> dict:
    ms = loop["scaled_ms"]
    return {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1
        else ms[0],
        "ops_per_s": len(ms) / (sum(ms) / 1000.0),
        "cold_cli_ms": cold_cli_ms,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(w, tracer, traced: dict, untraced: dict, suite_names, errors) -> dict:
    import tracing

    n = len(tracer.per_op)
    scales = traced["scales"]
    out: dict[str, float] = {}
    for layer in tracing.LAYERS:
        calls = sum(op[layer][0] for op in tracer.per_op if layer in op)
        self_ms = sum(op[layer][1] * 1000.0 * s for op, s in zip(tracer.per_op, scales)
                      if layer in op)
        out[f"{layer}.calls"] = calls / n
        out[f"{layer}.self_ms"] = self_ms / n
    counters = ["poly.mul.term_pairs", "suites.setup_ms"] + [f"suites.{s}.ms" for s in suite_names]
    for name in counters:
        total = sum(extra.get(name, 0.0) * (s if name.endswith("ms") else 1.0)
                    for extra, s in zip(tracer.extra, scales))
        out[name] = total / n
    outcomes = getattr(w, "outcomes", {})
    attempted = traced["attempted"] + untraced["attempted"]
    for kind in ("killed_by_fail", "error_only", "missed"):
        out[f"suites.mutants.{kind}"] = 100.0 * outcomes.get(kind, 0) / attempted
    out.update(measure_cli_layers(errors))
    out["bench.reference_ms_p50"] = statistics.median(untraced["refs_ms"])
    out["bench.raw_op_ms_p50"] = statistics.median(untraced["raw_ms"])
    out["bench.untraced_op_ms_p50"] = statistics.median(untraced["scaled_ms"])
    out["bench.traced_op_ms_p50"] = statistics.median(traced["scaled_ms"])
    return out


def layer_unit(name: str) -> str:
    if name.endswith("ms") or "_ms_" in name:
        return "ms"
    return "%" if name.startswith("suites.mutants.") else "count"


# -- entry point -----------------------------------------------------------------


def run_workload(args) -> dict:
    errors: list[str] = []
    import workloads
    from fano22 import SUITE_ORDER, run_all

    w = workloads.WORKLOADS[args.workload](args.seed)
    expected_checks = workloads.check_paper_report(run_all())
    w.warmup()

    if args.trace:
        import tracing

        untraced = timed_loop(w, args.seconds / 3, errors)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_loop(w, 2 * args.seconds / 3, errors, tracer)
        finally:
            tracer.uninstall()
        values = layer_metrics(w, tracer, traced, untraced, SUITE_ORDER, errors)
        units = {name: layer_unit(name) for name in values}
        loops = (untraced, traced)
        t0 = tracer.spans[0][4] if tracer.spans else 0.0
        trace_file = {"columns": ["op", "span", "parent", "layer", "start_us", "end_us"],
                      "spans": [[op, span, parent, layer, round((start - t0) * 1e6),
                                 round((end - t0) * 1e6)]
                                for op, span, parent, layer, start, end in tracer.spans]}
    else:
        setup_s = measure_setup(args.workload, args.seed, errors)
        cold_cli_ms = measure_cold_cli(expected_checks, errors)
        loop = timed_loop(w, args.seconds, errors)
        values = e2e_metrics(loop, setup_s, cold_cli_ms)
        units = E2E_UNITS
        loops = (loop,)
        trace_file = None
    try:
        w.final_check()
    except Exception as exc:
        errors.append(f"final check: {type(exc).__name__}: {exc}")

    result = {
        "correct": not errors,
        "attempted": sum(lp["attempted"] for lp in loops),
        "failed": sum(lp["failed"] for lp in loops),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, errors=errors, samples=loops), fh)
    if trace_file is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(trace_file, fh)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return result


def run_all_workloads(args) -> dict:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        part = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, entry in part["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
        print(f"{name}: attempted {part['attempted']}, failed {part['failed']}, "
              f"correct {part['correct']}")
    return combined


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "fano22", "__init__.py")):
        print(f"error: no fano22 package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_cpu()
    result = run_all_workloads(args) if args.workload == "all" else run_workload(args)
    for name, entry in result["metrics"].items():
        print(f"{name:48s} {entry['value']:14.4f} {entry['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
