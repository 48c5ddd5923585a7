"""Command-line entry point: run verification suites, evaluate expressions.

    fano22 [SUITE ...] [--all] [--list] [--format {text,json}] [--param v=P/Q]
    fano22 eval EXPR [--def NAME=EXPR ...] [--subst VAR=EXPR ...]

Exit codes: 0 every executed check passed; 1 at least one check failed
or errored; 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .parsing import ParseError, infer_registry, parse
from .poly import format_poly
from .suites import (
    SUITE_ORDER,
    SuiteConfig,
    render_text,
    reports_to_json,
    run_all,
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
                   "stabilizers suite only, and tangent-directions keeps its "
                   "fixed v in {0, 1, 2}")
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
    try:
        args = _eval_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        bindings = [_split_binding(d, "--def") for d in args.definitions]
        substitutions = [_split_binding(s, "--subst") for s in args.subst]
        registry = infer_registry(
            [args.expression] + [e for _, e in bindings + substitutions])
        result = parse(args.expression, registry)
        if bindings:
            result = result.substitute(
                {n: parse(e, registry) for n, e in bindings})
        if substitutions:
            result = result.substitute(
                {n: parse(e, registry) for n, e in substitutions})
    except (ParseError, ValueError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_poly(result))
    return 0


def _run_verify(argv: list[str]) -> int:
    parser = _verify_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
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
            config.v_specializations = config.v_specializations + (Fraction(value),)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = SUITE_ORDER if (args.all or not args.suites) else tuple(args.suites)
    reports = run_all(config, names)
    if args.format == "json":
        print(json.dumps(reports_to_json(reports), indent=2))
    else:
        print(render_text(reports))
    return 0 if all(r.ok for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "eval":
        return _run_eval(argv[1:])
    return _run_verify(argv)


if __name__ == "__main__":
    sys.exit(main())
