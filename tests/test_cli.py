import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from pretzelsurgery import cli, grids
from pretzelsurgery.cli import run
from pretzelsurgery.obstruction import ObstructionError
from pretzelsurgery.oracle import alexander_fox
from pretzelsurgery.pretzel import PretzelLink

from reference_laurent import parse


SRC = Path(__file__).resolve().parents[1] / "src"
HUGE = "99999999999999999999"

# one CLI command in a fresh process, which prints its own peak RSS in MB on
# the first line and then the command's output.  It reads VmHWM where there
# is /proc: Linux keeps ru_maxrss across exec, so there ru_maxrss would be at
# least the spawning process's size.
COLD_START = r"""
import contextlib, io, re, resource, sys
from pretzelsurgery import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(sys.argv[1:])
try:
    with open("/proc/self/status") as status:
        kb = int(re.search(r"VmHWM:\s*(\d+)", status.read()).group(1))
except OSError:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb //= 1024 if sys.platform == "darwin" else 1
print(kb / 1024)
print(out.getvalue(), end="")
sys.exit(code)
"""


def cold_start(*argv):
    """Run ``argv`` through COLD_START: the process, its peak RSS in MB,
    the command's output and the wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    mb, _, out = proc.stdout.partition("\n")
    return proc, float(mb), out, elapsed


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlexander:
    def test_normalized_output(self, capsys):
        code, out, _ = run_cli(capsys, "alexander", "-1,-2,3,3", "--normalize")
        assert code == 0
        assert "1 - 4t + 5t^2 - 4t^3 + t^4" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "alexander", "-1,-2,3,3", "--normalize", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"]["2"] == -4  # s-exponent 2 is t^1
        assert doc["engine"] == "skein"

    def test_trace_output(self, capsys):
        code, out, _ = run_cli(capsys, "alexander", "-2,3,7", "--trace")
        assert code == 0
        assert "@ region" in out

    def test_five_region_skein(self, capsys):
        code, out, _ = run_cli(
            capsys, "alexander", "-1,-1,4,3,3", "--normalize", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["engine"] == "skein"
        fox = alexander_fox(PretzelLink((-1, -1, 4, 3, 3)))
        assert parse(doc["polynomial"]).equal_up_to_units(fox)

    def test_trace_names_smoothed_link(self, capsys):
        # smoothing the antiparallel 4 region removes it, leaving P(-1,-1,3,3)
        code, out, _ = run_cli(capsys, "alexander", "-1,-1,4,3,3", "--trace")
        assert code == 0
        (line,) = [l for l in out.splitlines() if "@ region 2 (4)" in l]
        assert line.endswith("* removed")

    @pytest.mark.parametrize("params", ["2,2", "0"])
    @pytest.mark.parametrize(
        "command", ["alexander", "obstruct", "classify", "oracle-compare"]
    )
    def test_link_exit_1(self, capsys, command, params):
        # every zero-crossing pretzel is a link, so P(0) gets the same
        # message as P(2,2) from every single-knot subcommand
        code, _, err = run_cli(capsys, command, params)
        assert code == 1
        assert "not a knot" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("params", ["-2,3,10001", "-1,-4,5,99999"])
    def test_fresh_process_large_q(self, params):
        # no process-wide table of torus values: a cold start at q = 10^4,
        # and at the twist bound, stays fast and small
        proc, mb, _, elapsed = cold_start("alexander", params, "--normalize")
        assert proc.returncode == 0, proc.stderr
        assert mb < 100
        assert elapsed < 5.0

    def test_bad_params_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "alexander", "3,x")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("command", ["alexander", "obstruct", "oracle-compare"])
    def test_tangle_list_refused(self, capsys, command):
        code, out, err = run_cli(capsys, command, "3/7;1/2")
        assert (code, out) == (1, "")
        assert err == (
            f"error: {command} takes pretzel parameters such as -2,3,7; "
            "classify takes tangle lists such as '3/7;1/2'\n"
        )


class TestOracleCompare:
    def test_fresh_process_large_q(self):
        # Fox's slot is sized by the state count, not by the crossings, so
        # 10^4 crossings decode in one narrow slot
        proc, mb, out, elapsed = cold_start("oracle-compare", "-2,3,5001")
        assert proc.returncode == 0, proc.stderr
        assert out == "P(-2,3,5001): match\n"
        assert mb < 100
        assert elapsed < 5.0

    def test_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "-2,3,9", "--json")
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_five_region_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "-1,-1,4,3,3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["comparable"] is True and doc["match"] is True

    def test_mismatch_exits_2(self, capsys, monkeypatch):
        # a Fox value that differs from the skein's is a verification failure
        monkeypatch.setattr(cli, "alexander_fox", lambda link: parse("1 - t + t^2"))
        code, out, _ = run_cli(capsys, "oracle-compare", "-2,3,7")
        assert (code, out) == (2, "P(-2,3,7): MISMATCH\n")
        code, out, _ = run_cli(capsys, "oracle-compare", "-2,3,7", "--json")
        assert code == 2
        assert json.loads(out)["match"] is False


class TestObstruct:
    def test_os_form(self, capsys):
        code, out, _ = run_cli(capsys, "obstruct", "-2,3,7", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pm1_coefficients"] is True
        assert doc["os_form"]["exponents"] == [1, 2, 4, 5]

    def test_not_monic(self, capsys):
        code, out, _ = run_cli(capsys, "obstruct", "-1,-1,4,3,3", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["monic"] is False
        # the predicates only: no family-specific block
        assert sorted(doc) == ["engine", "input", "monic", "os_form", "pm1_coefficients", "polynomial"]

    def test_fault_exits_1(self, capsys, monkeypatch):
        # a fault in the form check is an error, never "form: absent"
        def fault(delta):
            raise ObstructionError("injected fault")

        monkeypatch.setattr(cli, "os_form_check", fault)
        code, out, err = run_cli(capsys, "obstruct", "-2,3,7")
        assert code == 1
        assert out == ""
        assert "error: injected fault" in err


class TestClassify:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "-2,3,9", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["final"]["verdicts"] == ["FINITE_SLOPES"]
        assert doc["final"]["finite_slopes"] == [22, 23]

    def test_any_verdict_exits_zero(self, capsys):
        for inp in ("-2,3,5", "3,5,7", "2/3;1/3;-1/2"):
            code, _, _ = run_cli(capsys, "classify", inp)
            assert code == 0, inp

    def test_negative_tangle_list(self, capsys):
        # a leading "-" must not make argparse read the tangles as an option
        code, out, _ = run_cli(capsys, "classify", "-1/2;1/3;1/5", "--json")
        assert code == 0
        doc = json.loads(out)
        _, expected, _ = run_cli(capsys, "classify", "-2,3,5", "--json")
        expected = json.loads(expected)
        assert doc.pop("input_text") == "-1/2;1/3;1/5"
        assert (doc.pop("input_kind"), expected.pop("input_kind")) == ("montesinos", "pretzel")
        expected.pop("input_text")
        assert doc == expected
        assert doc["final"]["verdicts"] == ["NON_HYPERBOLIC_SEE_MOSER"]

    @pytest.mark.parametrize(
        "tangles",
        [
            f"{HUGE}/3;1/3;1/5",  # the integer tangle 33333333333333333333
            "30007/3;1/3;1/5",  # 30007/3 = 10002 + 1/3
            f"{HUGE}/7;1/3;1/5",  # HUGE = 1 mod 7
        ],
    )
    def test_huge_tangles_answer(self, capsys, tangles):
        # the integer part of a tangle only adds to e, so its size costs
        # neither time nor memory
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run_cli(capsys, "classify", tangles)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert out.splitlines()[0].endswith(": NO_CYCLIC_OR_FINITE")
        assert elapsed < 1.0
        assert peak < 1 << 20


class TestGrids:
    def test_claim5_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-claims", "--suite", "claim5", "--pmax", "13", "--json"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        summary = lines[-1]
        assert summary["ok"] is True and summary["cells"] == 15
        assert all(cell["ok"] for cell in lines[:-1])

    def test_sorted_output(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify-claims", "--suite", "claim5", "--json"
        )
        lines = out.strip().splitlines()[:-1]
        assert lines == sorted(lines)

    def test_classify_sweep(self, capsys):
        code, _, _ = run_cli(capsys, "verify-claims", "--suite", "classify-sweep")
        assert code == 0

    def test_oracle_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-claims", "--suite", "oracle",
            "--nmax", "2", "--qmax", "3", "--json",
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["ok"] is True

    def test_oracle_suite_reads_qmax(self, capsys):
        # the box is -qmax..qmax as given: knot_box(5, 1) has 170 knots
        code, out, _ = run_cli(capsys, "verify-claims", "--suite", "oracle", "--nmax", "5", "--qmax", "1")
        assert (code, out) == (0, "oracle: 170 cells, 0 failures\n")

    @pytest.mark.parametrize(
        "suite,flag",
        [("claim3", "--pmax"), ("claim4", "--nmax"), ("claim5", "--qmax"),
         ("oracle", "--qmax"), ("classify-sweep", "--qmax")],
    )
    def test_oversized_grid_rejected(self, capsys, suite, flag):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify-claims", "--suite", suite, flag, HUGE)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "suite,flag,value",
        [("claim3", "--nmax", "0"), ("claim4", "--nmax", "1"), ("claim5", "--pmax", "3"),
         ("classify-sweep", "--qmax", "2"), ("oracle", "--nmax", "0"), ("oracle", "--qmax", "0")],
    )
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_empty_grid_rejected(self, capsys, suite, flag, value, json_flag):
        # a grid with no cells checks nothing, so it is a usage error and
        # not "0 cells, 0 failures"
        code, out, err = run_cli(capsys, "verify-claims", "--suite", suite, flag, value, *json_flag)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "suite,flag",
        [("claim2", "--nmax"), ("claim2", "--pmax"), ("claim2", "--qmax"), ("claim5", "--nmax"),
         ("classify-sweep", "--pmax")],
    )
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_unread_bound_rejected(self, capsys, suite, flag, json_flag):
        # a bound the suite does not read would report a grid that was never
        # asked for as passed, so it is a usage error naming suite and flag
        code, out, err = run_cli(capsys, "verify-claims", "--suite", suite, flag, "9", *json_flag)
        assert (code, out) == (1, "")
        assert err == f"error: --suite {suite} does not read {flag}\n"

    def test_cell_counts_match_enumeration(self):
        for pmin in (3, 5):
            for pmax in range(-1, 16):
                for qmax in range(-1, 16):
                    cells = len(list(grids.pq_pairs(pmin, pmax, qmax)))
                    assert grids._pq_count(pmin, pmax, qmax) == cells
        for nmax in range(0, 4):
            for bound in range(2, 5):
                assert grids._box_count(nmax, bound) == sum((2 * bound + 1) ** n for n in range(1, nmax + 1))
        assert grids._box_count(10**20, 2) > grids.MAX_CELLS

    def test_failing_cell_exits_2(self, capsys, monkeypatch):
        # one cell whose claim fails makes the suite a verification failure
        record = {"suite": "claim5", "p": 5, "q": 5, "coefficient": 0, "expected": -2, "ok": False}
        monkeypatch.setitem(grids.SUITES, "claim5", lambda: grids.Grid([record], dict))
        code, out, _ = run_cli(capsys, "verify-claims", "--suite", "claim5")
        assert (code, out) == (2, "claim5: 1 cells, 1 failures\n")
        code, out, _ = run_cli(capsys, "verify-claims", "--suite", "claim5", "--json")
        assert code == 2
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines == [record, {"suite": "claim5", "cells": 1, "failures": 1, "ok": False}]

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("claim2",), "19ea1e6789961949366b8a6891b29237aada13d8e9b5371a5abb6e3199eaabf5"),
            (("claim3",), "d57cc73d3e78365530f9e6f19bf7738b9406a147fc8517cd41a216c5b0099855"),
            (("claim4",), "a057dbc202debf42f77712d2132e554b19ff2b9697b94a4800257687d55af8f4"),
            (("claim5",), "28028afa21830759d146d251ccd60a12b4deb58e03b8c3fa2ca5945a9d5a8302"),
            (("classify-sweep",), "dae43d8be7d2f5018f1482cd48a1c7ee5c8d6e17bea80aecbf03c3a6b6addf20"),
            (("oracle", "--nmax", "3", "--qmax", "3"),
             "b33cea6e148866918f456b2acf4012d59c5a68fd28e7bca3902ad6ea56ce4d7a"),
        ],
    )
    def test_suite_output_pinned(self, capsys, argv, digest):
        # every record of every suite, byte for byte: a change to a grid's
        # cells, their order or a record's fields shows here
        code, out, _ = run_cli(capsys, "verify-claims", "--suite", *argv, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_claim2_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify-claims", "--suite", "claim2")
        assert code == 0
        assert "0 failures" in out

    @pytest.mark.parametrize(
        "argv,cells",
        [
            (("verify-claims", "--suite", "claim3"), 75),
            (("verify-claims", "--suite", "claim4"), 60),
            (("verify-claims", "--suite", "claim5"), 10),
            (("verify-claims", "--suite", "claim2"), 958),
            (("verify-claims", "--suite", "classify-sweep"), 12),
        ],
    )
    def test_default_cell_counts(self, capsys, argv, cells):
        code, out, _ = run_cli(capsys, *argv, "--json")
        summary = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        assert summary["cells"] == cells and summary["ok"] is True


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "pretzelsurgery", "oracle-compare", "-2,3,7"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "match" in proc.stdout

    def test_closed_pipe_exits_1_without_traceback(self):
        # a first line of 1 MB and 2.4 MB after it, far past a pipe's
        # buffer, so the CLI is still writing when the reader closes the
        # pipe after the first line
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pretzelsurgery", "alexander", "-2,3,99999", "--trace"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline().startswith("P(-2,3,99999): ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) <= 1, err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 1

    def test_missing_suite(self, capsys):
        assert run_cli(capsys, "verify-claims")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "alexander", "-2,3,7", "--bogus")[0] == 1


# Runs the argv lists read from stdin through cli.run in one process under a
# 2 GB address-space limit, so that an unbounded allocation fails there as a
# MemoryError, and prints [argv, exit code, stdout, stderr] for each; an
# exception out of cli.run reports the code None and its traceback.
FUZZ_CHILD = r"""
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from pretzelsurgery import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except BaseException:
        code, err = None, io.StringIO(traceback.format_exc())
    results.append([argv, code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

FUZZ_INPUTS = (
    # malformed
    "x", "3,x", "1,,2", "P(3", "2.5", "1e3", "--", ",", ";", "1//2", "1/2/3",
    "1/x;1/3", "1/0;1/3", "1/3;;1/2", "-2,3,7)",
    # empty, zero and link-valued
    "", " ", "0", "0,0", "0,0,0", "0/1", "0;0", "2", "2,2", "4/3", "1/2;1/2",
    "2/5;1/2;1/2",
    # 20-digit parameters, numerators and denominators
    f"2,3,{HUGE}", f"-1,4,3,{HUGE}", f"-1,-4,5,{HUGE}", f"-1,-1,4,3,{HUGE}", f"-2,3,{HUGE}", HUGE, f"-{HUGE},3,5",
    f"-1,-1,{HUGE[:-1]}8,3,5", f"{HUGE}/7;1/3;1/5", f"{HUGE[:-1]}5/7;1/3;1/5",
    f"{HUGE}/3;1/3;1/5", "30004/3;1/3;1/5", "30007/3;1/3;1/5",
    f"1/{HUGE}", f"1/{HUGE};1/3;1/5",
    # knots
    "-2,3,7", "3", "-1,-1,4,3,3", "1/3;1/4", "-1/2;1/3;1/5",
)
FUZZ_FORMS = (
    ("alexander", "{}"),
    ("alexander", "{}", "--normalize", "--trace", "--json"),
    ("oracle-compare", "{}"),  # every input is small or over the twist bound
    ("obstruct", "{}", "--json"),
    ("classify", "{}"),
    ("classify", "{}", "--json"),
    ("verify-claims", "--suite", "{}"),
    ("verify-claims", "--suite", "claim5", "--pmax", "{}"),
    ("verify-claims", "--suite", "oracle", "--nmax", "{}"),
    ("verify-claim2", "{}"),  # no such subcommand: a usage error
)


class TestFuzz:
    def test_every_subcommand_fails_cleanly(self):
        argvs = [[arg.format(text) for arg in form] for form in FUZZ_FORMS for text in FUZZ_INPUTS]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", FUZZ_CHILD], input=json.dumps(argvs),
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        codes = {}
        for argv, code, out, err in json.loads(proc.stdout):
            assert code in (0, 1, 2), (argv, err)
            assert "Traceback" not in out + err, argv
            # an argparse usage block (a "usage:" line and its indented
            # continuations) and at most one error line
            lines = [l for l in err.splitlines() if not l.startswith(("usage:", " "))]
            assert len(lines) <= (code != 0), (argv, err)
            assert all("error:" in l for l in lines), (argv, err)
            codes[tuple(argv)] = code
        # Mattman's gate decides P(-2,3,q) without Delta, and the Alexander
        # gate reads its coefficient from a window of Delta, at any size
        assert codes[("classify", f"-2,3,{HUGE}")] == 0
        for params in (f"-1,4,3,{HUGE}", f"-1,-4,5,{HUGE}", f"-1,-1,4,3,{HUGE}"):
            assert codes[("classify", params)] == 0, params
        # the claim-2 grid runs only as a verify-claims suite
        assert {code for argv, code in codes.items() if argv[0] == "verify-claim2"} == {1}
        # a tangle's integer part only adds to e, at any size
        for tangles in (f"{HUGE[:-1]}5/7;1/3;1/5", f"{HUGE}/7;1/3;1/5", f"{HUGE}/3;1/3;1/5", "30007/3;1/3;1/5"):
            assert codes[("classify", tangles)] == 0, tangles
        # 30004/3 + 1/3 + 1/5 = 150028/15 has an even determinant: a link
        assert codes[("classify", "30004/3;1/3;1/5")] == 1
