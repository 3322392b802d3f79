"""Traffic trace: the statements of the package that its own traffic never
reaches.

Under ``sys.settrace`` this script runs, in one process:

* every operation of every workload in ``perfbench/workloads.py``, once, at
  seed 1, under the benchmark's tracer (``perfbench/tracer.py``), each
  checked by the workload's own check;
* every CLI subcommand, with and without ``--json``, on a fixed list of
  inputs: knots, links, parse errors and twists over the 100,000 bound;
* every ``verify-claims`` suite at small bounds;
* argparse refusals, the removed ``verify-claim2`` subcommand among them,
  and a bound flag that its suite does not read;
* the entry point ``cli.main`` twice: once into a buffer, and once into a
  pipe whose read end is closed, where it must exit 1, not raise.

It then prints, as JSON, each module's statement count and the statements
that no line event reached, as ``"line: source"``.  Docstrings and
``nonlocal``/``global`` declarations are not counted, since no line event
ever reaches one.  A compound statement counts as reached when its header
or its first body statement is.  The exit status is 1 when a workload check
or a CLI exit status is not the expected one.

Stdlib only; pytest does not collect it.  Run it from anywhere:

    python tests/traffic.py > unreached.json

It took 1.5 s in each of three runs on 2 CPUs with Python 3.11.7
(shared host).  Only frames of the package get a local trace function,
so the rest runs at close to full speed.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pretzelsurgery"
# the modules the benchmark's operations look functions up on
API_MODULES = ("laurent", "pretzel", "alexander", "oracle", "obstruction", "classify")

# (input, exit status of alexander, obstruct and oracle-compare, exit status
# of classify): 0 for a knot, 1 for a link, a parse error or a twist over the
# bound.  classify decides P(-2,3,q) and a tangle list before the skein and
# reads the other families' coefficient from a window of Delta, so it answers
# at any q, and it reads "1;2" as the tangles 1 and 2.
PRETZEL_INPUTS = (
    ("-2,3,7", 0, 0), ("-2,3,9", 0, 0), ("2,-3,-7", 0, 0), ("-2,3,5", 0, 0), ("P(-1,-2,3,3)", 0, 0),
    ("3", 0, 0), ("-5", 0, 0), ("-1,4,3,5", 0, 0), ("-1,-4,5,7", 0, 0), ("-1,6,3,5", 0, 0),
    ("-1,-1,4,3,5", 0, 0), ("-1,-1,-4,3,5", 0, 0), ("2,1,1", 0, 0), ("-4,1,1", 0, 0),
    ("3,5,7", 0, 0), ("3,5,7,9,11", 0, 0), ("-4,3,5", 0, 0), ("1,1,1", 0, 0), ("-1,3,3", 0, 0),
    ("1,-1,3", 0, 0), ("-2,1,1,3", 0, 0), ("-3,-3,2", 0, 0), ("0,3", 0, 0), ("0,3,5", 0, 0),
    ("2,2", 1, 1), ("3,3", 1, 1), ("4", 1, 1), ("2,4,3", 1, 1), ("2,-2,3", 1, 1), ("0", 1, 1),
    ("a,b", 1, 1), ("", 1, 1), ("1,,2", 1, 1), ("1;2", 1, 0),
    ("-2,3,100001", 1, 0), ("-1,4,3,100001", 1, 0),
)
# large twists: skein subcommands only, since Fox takes seconds here
LARGE_INPUTS = (("-2,3,2001", 0, 0), ("-1,-4,5,999", 0, 0), ("-1,-1,4,3,301", 0, 0))
# classify also reads tangle fractions: (input, exit status)
MONTESINOS_INPUTS = (
    ("1/3;1/3;-1/2", 0), ("-1/2;1/3;1/7", 0), ("2/5;1/3;-1/2", 0), ("1/3;1/5;1/7", 0),
    ("3/5;1/7;1/3", 0), ("2/5;3/7;-2/9", 0), ("4/3;-13/7;3/2", 0), ("300007/3;1/3;1/5", 0),
    ("3/7", 0), ("1/5;1/5", 1), ("1/2;1/2", 1), ("1/0;1/3", 1), ("x/3;1/3", 1), ("1/3;;1/5", 1),
)
# the smallest bounds that still give every suite cells
SUITE_BOUNDS = {
    "claim3": ["--nmax", "2", "--pmax", "5"],
    "claim4": ["--nmax", "2", "--pmax", "5"],
    "claim5": ["--pmax", "7"],
    "oracle": ["--nmax", "3", "--qmax", "2"],
    "claim2": [],
    "classify-sweep": ["--qmax", "11"],
}
# argparse refusals, a grid with no cells and a bound the suite does not
# read, which exit 1 like every other error
USAGE_ERRORS = (
    [], ["nope"], ["classify"], ["verify-claims", "--suite", "nope"], ["alexander", "--bogus", "3"],
    ["verify-claim2"], ["verify-claims", "--suite", "claim5", "--pmax", "3"],
    ["verify-claims", "--suite", "claim2", "--nmax", "9"],
)


def cli_runs():
    """(argv, expected exit status) of every CLI run."""
    for flags in ([], ["--json"]):
        for text, code, classify_code in PRETZEL_INPUTS + LARGE_INPUTS:
            yield ["alexander", text, *flags], code
            yield ["alexander", text, "--normalize", *flags], code
            yield ["alexander", text, "--trace", *flags], code
            yield ["obstruct", text, *flags], code
            yield ["classify", text, *flags], classify_code
        for text, code, _ in PRETZEL_INPUTS:
            yield ["oracle-compare", text, *flags], code
        for text, code in MONTESINOS_INPUTS:
            yield ["classify", text, *flags], code
        for suite, bounds in SUITE_BOUNDS.items():
            yield ["verify-claims", "--suite", suite, *bounds, *flags], 0
    for argv in USAGE_ERRORS:
        yield argv, 1


class LineTrace:
    """The (file, line) of every line event in a frame of the package."""

    def __init__(self, directory: Path):
        self.prefix = str(directory.resolve()) + "/"
        self.lines: dict[str, set[int]] = {}

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        seen = self.lines.setdefault(name, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def _runs(node: ast.stmt) -> bool:
    """Whether a statement can get a line event: it is not a docstring or a
    ``nonlocal``/``global`` declaration."""
    docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    return not (docstring or isinstance(node, (ast.Nonlocal, ast.Global)))


def unreached(path: Path, reached: set[int]) -> tuple[int, list[str]]:
    """The statement count of ``path`` and its statements that no line in
    ``reached`` covers, as ``"line: source"``."""
    source = path.read_text()
    text = source.splitlines()
    statements = [n for n in ast.walk(ast.parse(source, str(path))) if isinstance(n, ast.stmt) and _runs(n)]

    def hit(node: ast.stmt) -> bool:
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        return any(line in reached for line in range(start, end + 1)) or bool(body) and hit(body[0])

    missed = sorted({n.lineno for n in statements if not hit(n)})
    return len(statements), [f"{line}: {text[line - 1].strip()}" for line in missed]


def run_workloads(api) -> list[str]:
    """Run and check every op of every workload once, each inside an
    operation of the benchmark's tracer, as its traced passes run them;
    the failures."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer()
    failures = []
    tracer.install(api)
    try:
        for name, make in workloads.WORKLOADS.items():
            workload = make(1, False)
            for op in workload.ops:
                tracer.begin_op(0)
                try:
                    out = workload.run(api, op)
                finally:
                    tracer.end_op()
                verdict = workload.check(op, out)
                if verdict != "ok":
                    failures.append(f"{name}: {op.arg!r}: {verdict}")
    finally:
        tracer.uninstall()
    return failures


def run_cli(cli) -> list[str]:
    """Run every CLI command in process; the unexpected exit statuses."""
    failures = []
    for argv, expected in cli_runs():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        if code != expected:
            failures.append(f"{' '.join(argv)}: exit {code}, expected {expected}")
    return failures


def run_main(cli) -> list[str]:
    """Run ``cli.main`` with the argv of a knot, into a buffer and into a
    pipe that no one reads (its 1 MB of output cannot fit in the pipe);
    the unexpected exit statuses."""
    failures = []
    read, write = os.pipe()
    os.close(read)
    argv = sys.argv
    with open(write, "w") as closed_pipe:
        for out, expected in ((io.StringIO(), 0), (closed_pipe, 1)):
            sys.argv = ["pretzelsurgery", "alexander", "-2,3,99999"]
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    cli.main()
            except SystemExit as exc:
                code = exc.code
            finally:
                sys.argv = argv
            if code != expected:
                failures.append(f"main into {type(out).__name__}: exit {code}, expected {expected}")
    return failures


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    with LineTrace(PACKAGE) as trace:
        # imported under the trace, so module-level statements count
        api = SimpleNamespace(**{name: importlib.import_module("pretzelsurgery." + name) for name in API_MODULES})
        cli = importlib.import_module("pretzelsurgery.cli")
        importlib.import_module("pretzelsurgery.__main__")
        failures = run_workloads(api) + run_cli(cli) + run_main(cli)
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        count, missed = unreached(path, trace.lines.get(str(path.resolve()), set()))
        report[path.stem] = {"statements": count, "unreached": missed}
    print(json.dumps(report, indent=1))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"traffic trace: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
