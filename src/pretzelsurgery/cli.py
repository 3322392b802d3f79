"""Command-line front end.

Subcommands:

* ``alexander``      - Alexander polynomial of a pretzel knot
* ``oracle-compare`` - cross-check the skein engine against Fox calculus
* ``obstruct``       - surgery obstruction predicates for one knot
* ``classify``       - the full cyclic/finite surgery pipeline
* ``verify-claims``  - grid suites (claim3 | claim4 | claim5 | oracle |
                       claim2 | classify-sweep)

The grids, their default bounds and their checks are defined in
:mod:`pretzelsurgery.grids`; ``--nmax``/``--pmax``/``--qmax`` override the
bounds a suite reads, and a bound flag that the suite does not read is a
usage error.

Exit codes: 0 success, 1 usage/input error, 2 verification failure.
All output is deterministic.  A grid's ``--json`` output is one JSON line
per cell, its keys sorted, the lines sorted as text (so by the first key's
value, as characters: "p": 11 before "p": 5), then the summary line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from inspect import signature

from .alexander import alexander_skein, alexander_with_trace
from .classify import classify
from .grids import SUITES
from .laurent import render
from .obstruction import monic_check, os_form_check, pm1_coefficients
from .oracle import alexander_fox
from .pretzel import MontesinosDescription, PretzelError, PretzelLink, parse


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let parameter lists such as "-2,3,7" and tangle lists such as
        # "-1/2;1/3;1/5" parse as positionals
        import re
        self._negative_number_matcher = re.compile(r"^-\d[\d,./;-]*$")

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ----------------------------------------------------------------------
# single-knot subcommands

def _outcome(outcome: int | None) -> str:
    """A branch's outcome as the trace prints it."""
    return "removed" if outcome is None else str(outcome)


def _pretzel_arg(args) -> PretzelLink:
    knot = parse(args.params)
    if isinstance(knot, MontesinosDescription):  # only classify reads tangle lists
        raise PretzelError(f"{args.command} takes pretzel parameters such as -2,3,7; "
                           f"classify takes tangle lists such as {args.params!r}")
    return knot


def _cmd_alexander(args) -> int:
    link = _pretzel_arg(args)
    if args.trace:
        value, steps = alexander_with_trace(link)
    else:
        value, steps = alexander_skein(link), None
    shown = value.normalize() if args.normalize else value
    polynomial = render(shown)
    doc = {
        "input": str(link),
        "engine": "skein",
        "polynomial": polynomial,
        "normalized": args.normalize,
        "coefficients": {str(e): c for e, c in shown.items()},
    }
    lines = [f"{link}: {polynomial}"]
    if steps is not None:
        doc["steps"] = [
            {"region": i, "param": a, "branches": [[render(m), _outcome(o)] for m, o in branches]}
            for i, a, branches in steps
        ]
        for i, a, branches in steps:
            parts = " ; ".join(f"[{render(m)}] * {_outcome(o)}" for m, o in branches)
            lines.append(f"  {link} @ region {i} ({a}) -> {parts}")
    _emit(doc, args.json, lines)
    return 0


def _cmd_oracle_compare(args) -> int:
    link = _pretzel_arg(args)
    fox = alexander_fox(link)
    skein = alexander_skein(link)
    match = skein.equal_up_to_units(fox)
    doc = {
        "input": str(link),
        "comparable": True,
        "match": match,
        "skein": render(skein.normalize()),
        "fox": render(fox.normalize()),
    }
    _emit(doc, args.json, [f"{link}: {'match' if match else 'MISMATCH'}"])
    return 0 if match else 2


def _cmd_obstruct(args) -> int:
    link = _pretzel_arg(args)
    delta = alexander_skein(link)
    decomp = os_form_check(delta)
    doc = {
        "input": str(link),
        "engine": "skein",
        "polynomial": render(delta.normalize()),
        "pm1_coefficients": pm1_coefficients(delta),
        "monic": monic_check(delta),
        "os_form": None
        if decomp is None
        else {"k": decomp.k, "exponents": list(decomp.exponents)},
    }
    lines = [
        f"{link}: {doc['polynomial']}",
        f"  all coefficients +-1: {doc['pm1_coefficients']}",
        f"  monic: {doc['monic']}",
        f"  L-space coefficient form: "
        + ("absent" if decomp is None else f"k={decomp.k}, exponents={list(decomp.exponents)}"),
    ]
    _emit(doc, args.json, lines)
    return 0


def _cmd_classify(args) -> int:
    report = classify(args.input)
    if args.json:
        print(report.to_json())
    else:
        print(f"{report.input_text}: {', '.join(report.final.verdicts)}")
        if report.final.cyclic_slopes:
            print(f"  cyclic slopes: {report.final.cyclic_slopes}")
        if report.final.finite_slopes:
            print(f"  finite slopes: {report.final.finite_slopes}")
        print(f"  hyperbolic: {report.hyperbolic}"
              + (f" ({report.hyperbolic_reason})" if report.hyperbolic_reason else ""))
        for s in report.stages:
            print(f"  [{s.stage}] {s.verdict} -- {s.citation}")
    return 0


# ----------------------------------------------------------------------
# grid suites

def _cmd_verify_claims(args) -> int:
    make_grid = SUITES[args.suite]
    # a suite reads the bounds it names; another bound flag is a usage error,
    # since the grid it asks for would never run
    reads = signature(make_grid).parameters
    for name in ("nmax", "pmax", "qmax"):
        if getattr(args, name) is not None and name not in reads:
            raise ValueError(f"--suite {args.suite} does not read --{name}")
    bounds = {name: getattr(args, name) for name in reads if getattr(args, name) is not None}
    results = make_grid(**bounds).records()
    failures = sum(not r["ok"] for r in results)
    summary = {"suite": args.suite, "cells": len(results),
               "failures": failures, "ok": failures == 0}
    if args.json:
        for line in sorted(json.dumps(r, sort_keys=True) for r in results):
            print(line)
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"{args.suite}: {len(results)} cells, {failures} failures")
    return 0 if failures == 0 else 2


# ----------------------------------------------------------------------
# wiring

def _build_parser() -> _Parser:
    parser = _Parser(prog="pretzelsurgery")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("alexander", help="Alexander polynomial of a pretzel knot")
    p.add_argument("params", help="comma-separated twist parameters, e.g. -2,3,7")
    p.add_argument("--normalize", action="store_true",
                   help="lowest degree 0, positive constant term")
    p.add_argument("--trace", action="store_true", help="show the per-region skein program")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_alexander)

    p = sub.add_parser("oracle-compare",
                       help="compare the skein engine with Fox calculus")
    p.add_argument("params")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_oracle_compare)

    p = sub.add_parser("obstruct", help="surgery obstruction predicates")
    p.add_argument("params")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_obstruct)

    p = sub.add_parser("classify", help="cyclic/finite surgery classification")
    p.add_argument("input",
                   help="pretzel parameters (-2,3,7) or tangle fractions (1/3;1/3;-1/2)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("verify-claims", help="run a verification grid")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--nmax", type=int,
                   help="largest n (claim3/claim4) or region count (oracle)")
    p.add_argument("--pmax", type=int)
    p.add_argument("--qmax", type=int,
                   help="defaults to pmax (claims), 5 (oracle), 25 (classify-sweep)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify_claims)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: stdout goes to devnull, so that the
        # flush at interpreter shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: the output pipe was closed", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
