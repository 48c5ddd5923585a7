"""Command-line entry point: run verification suites, evaluate expressions.

    fano22 [SUITE ...] [--all] [--list] [--format {text,json}] [--param v=P/Q]
    fano22 eval EXPR [--def NAME=EXPR ...] [--subst VAR=EXPR ...]
    fano22 mutate N SEED

Exit codes: 0 every executed check passed; 1 at least one check failed
or errored, or for `mutate` at least one mutant was missed, or the reader
of standard output closed it early (nothing is printed on stderr then);
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
import time
from fractions import Fraction

from .constants import PaperConstants, random_mutation
from .parsing import ParseError, infer_registry, parse
from .poly import format_poly
from .suites import (
    SUITE_ORDER,
    SuiteConfig,
    render_text,
    reports_to_json,
    run_all,
    run_suite,
)


def _verify_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fano22",
        description="Run exact verification suites for the degree-22 Fano "
        "threefold computations.",
    )
    p.add_argument("suites", nargs="*", metavar="SUITE",
                   help="suite names to run (default: all)")
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--list", action="store_true", dest="list_suites",
                   help="list available suites and exit")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default: text)")
    p.add_argument("--param", action="append", default=[], metavar="v=P/Q",
                   help="extra rational specialization of the family "
                   "parameter, e.g. v=7/3 (repeatable); it adds checks to the "
                   "stabilizers suite only, a value already present adds no "
                   "check, and tangent-directions keeps its fixed v in "
                   "{0, 1, 2}")
    return p


def _eval_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fano22 eval",
        description="Parse and normalize a polynomial expression.",
    )
    p.add_argument("expression", metavar="EXPR")
    p.add_argument("--def", action="append", default=[], dest="definitions",
                   metavar="NAME=EXPR",
                   help="define a named subexpression (repeatable)")
    p.add_argument("--subst", action="append", default=[], metavar="VAR=EXPR",
                   help="substitute into the result (repeatable)")
    return p


def _split_binding(text: str, flag: str) -> tuple[str, str]:
    name, sep, expr = text.partition("=")
    if not sep or not name:
        raise ValueError(f"{flag} expects NAME=EXPR, got {text!r}")
    return name.strip(), expr


def _run_eval(argv: list[str]) -> int:
    args = _eval_parser().parse_args(argv)
    try:
        bindings = [_split_binding(d, "--def") for d in args.definitions]
        substitutions = [_split_binding(s, "--subst") for s in args.subst]
        # a bound name that occurs nowhere still names a variable, after the
        # others, so that substituting for it is the identity
        registry = infer_registry(
            [args.expression] + [e for _, e in bindings + substitutions]
            + [n for n, _ in bindings + substitutions])
        result = parse(args.expression, registry)
        for group in (bindings, substitutions):
            result = result.substitute({n: parse(e, registry) for n, e in group})
        # a coefficient past the int-to-str digit limit raises ValueError here
        text = format_poly(result)
    except (ParseError, ValueError, KeyError, OverflowError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(text)
    return 0


#: a numeral with a decimal exponent: (the rest, the exponent as Fraction reads it)
_EXPONENT = re.compile(r"(.*)[eE]([-+]?\d+(?:_\d+)*)\s*")


def _rational(spec: str, text: str) -> Fraction:
    """The value of `--param spec`, or a ValueError that names the flag.

    The exponent of a decimal numeral m e k is read before Fraction builds
    10**|k|: if m is not 0 and has at most n characters, the numerator
    (k >= 0) or the denominator (k < 0) is above 10**(|k| - n), so when
    |k| - n reaches the digit limit the value is refused from its text
    (1e400000000 at once), and 0 e k is 0.
    """
    kind = "numeral"
    try:
        match = _EXPONENT.fullmatch(text)
        big = match and abs(int(match[2])) - len(text) >= sys.get_int_max_str_digits()
        # when big, only m is parsed; "e0" keeps Fraction's grammar (1/3e5 is no numeral)
        value = Fraction(match[1] + "e0" if big else text)
        kind = "value"  # the stabilizers suite prints v: refuse what str() cannot print (1e5000)
        if big and value:
            raise ValueError("past the digit limit")
        str(value)
        return value
    except ZeroDivisionError:  # Fraction("1/0") says "Fraction(1, 0)"
        reason = "the denominator is zero"
    except ValueError as exc:
        reason = "not a rational number"
        if not str(exc).startswith("Invalid literal"):  # past the int/str digit limit
            spec = spec.partition("=")[0]  # name the limit, not the digits
            reason = f"{kind} longer than {sys.get_int_max_str_digits()} digits"
    raise ValueError(f"--param {spec}: {reason}")


def _run_verify(argv: list[str]) -> int:
    parser = _verify_parser()
    args = parser.parse_args(argv)
    if args.list_suites:
        for name in SUITE_ORDER:
            print(name)
        return 0
    unknown = [s for s in args.suites if s not in SUITE_ORDER]
    if unknown:
        print(f"error: unknown suite(s): {', '.join(unknown)}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2

    config = SuiteConfig()
    try:
        for spec in args.param:
            name, value = _split_binding(spec, "--param")
            if name != "v":
                raise ValueError(f"unknown parameter {name!r}; only v is supported")
            config.v_specializations = config.v_specializations + (_rational(spec, value),)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = SUITE_ORDER if (args.all or not args.suites) else tuple(args.suites)
    reports = run_all(config, names)
    if args.format == "json":
        import json  # here, as in `_run_mutate`, so that `--all` does not import it
        print(json.dumps(reports_to_json(reports), indent=2))
    else:
        print(render_text(reports))
    return 0 if all(r.ok for r in reports) else 1


def _mutate_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fano22 mutate",
        description="Run every suite on the paper's table and on N seeded mutant tables; "
        "print how each mutant was caught and the sha256 of all reports.  A mutant "
        "re-runs only the suites that read its mutated constant on the paper's table.",
    )
    p.add_argument("count", type=int, metavar="N", help="number of mutants")
    p.add_argument("seed", type=int, metavar="SEED", help="seed of the mutant stream")
    return p


def _signature(reports) -> list:
    return [[r.suite, c.id, c.status, c.statement, c.witness]
            for r in reports for c in r.checks]


def _run_mutate(argv: list[str]) -> int:
    parser = _mutate_parser()
    args = parser.parse_args(argv)
    if args.count < 0:
        parser.error(f"argument N: must not be negative, got {args.count}")
    import hashlib  # here, as json is, so that running the suites imports neither
    import json

    rng = random.Random(args.seed)
    paper = run_all()
    rows = {r.suite: _signature([r]) for r in paper}
    tables = [{"key": None, "checks": _signature(paper)}]
    outcomes = {"killed_by_fail": 0, "error_only": 0, "missed": 0}
    start = time.perf_counter()
    for i in range(args.count):
        key, raw = random_mutation(rng)
        config = SuiteConfig(constants=PaperConstants(raw=raw))
        # a suite that reads no `key` on the paper's table reports on the mutant as on it
        checks = [row for r in paper
                  for row in (_signature([run_suite(r.suite, config)]) if key in r.reads
                              else rows[r.suite])]
        tables.append({"key": key, "checks": checks})
        caught = [(f"{suite}/{id_}[{status}]", status)
                  for suite, id_, status, _, _ in checks if status != "pass"]
        fails = [name for name, status in caught if status == "fail"]
        if fails:
            outcome = "killed_by_fail"
            line = f"killed by fail in {len(fails)} of {len(caught)} checks, first: {fails[0]}"
        elif caught:
            outcome = "error_only"
            line = f"killed only by error in {len(caught)} checks, first: {caught[0][0]}"
        else:
            outcome, line = "missed", "NOT DETECTED"
        outcomes[outcome] += 1
        print(f"#{i:02d} {key}: {line}")
    elapsed = time.perf_counter() - start
    print(", ".join(f"{name} {n}" for name, n in outcomes.items())
          + f" of {args.count} mutations in {elapsed:.1f}s")
    data = json.dumps({"count": args.count, "seed": args.seed, "tables": tables},
                      indent=1, sort_keys=True).encode()
    with open("report_signature.json", "wb") as fh:
        fh.write(data)
    print(f"{hashlib.sha256(data).hexdigest()}  report_signature.json")
    return 0 if outcomes["missed"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = {"eval": _run_eval, "mutate": _run_mutate}.get(argv[0] if argv else None)
    try:
        code = command(argv[1:]) if command else _run_verify(argv)
        sys.stdout.flush()  # so that a closed pipe raises here, not at interpreter exit
        return code
    except SystemExit as exc:  # argparse exits on --help and on bad arguments
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        # the reader closed stdout: the interpreter's final flush goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
