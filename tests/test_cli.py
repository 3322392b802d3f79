import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pretzelsurgery import cli
from pretzelsurgery.cli import run
from pretzelsurgery.laurent import parse
from pretzelsurgery.obstruction import ObstructionError
from pretzelsurgery.oracle import alexander_fox
from pretzelsurgery.pretzel import PretzelLink


SRC = Path(__file__).resolve().parents[1] / "src"

# `alexander -2,3,10001` in a fresh process, which prints its own peak RSS
# in MB.  It reads VmHWM where there is /proc: Linux keeps ru_maxrss across
# exec, so there ru_maxrss would be at least the spawning process's size.
COLD_START = r"""
import contextlib, io, re, resource, sys
from pretzelsurgery import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["alexander", "-2,3,10001", "--normalize"])
try:
    with open("/proc/self/status") as status:
        kb = int(re.search(r"VmHWM:\s*(\d+)", status.read()).group(1))
except OSError:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb //= 1024 if sys.platform == "darwin" else 1
print(kb / 1024)
sys.exit(code)
"""


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

    def test_fresh_process_large_q(self):
        # no process-wide table of torus values: a cold start at q = 10^4
        # stays fast and small
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START],
            env=env, capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 100  # MB
        assert elapsed < 5.0

    def test_bad_params_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "alexander", "3,x")
        assert code == 1
        assert "error" in err


class TestOracleCompare:
    def test_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "-2,3,9", "--json")
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_five_region_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "-1,-1,4,3,3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["comparable"] is True and doc["match"] is True


class TestObstruct:
    def test_os_form(self, capsys):
        code, out, _ = run_cli(capsys, "obstruct", "-2,3,7", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pm1_coefficients"] is True
        assert doc["os_form"]["exponents"] == [1, 2, 4, 5]

    def test_fiberedness_block(self, capsys):
        code, out, _ = run_cli(capsys, "obstruct", "-1,-1,4,3,3", "--json")
        doc = json.loads(out)
        assert doc["monic"] is False
        assert doc["fiberedness"]["verdict"] == "not-fibered"

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
        assert doc == json.loads(expected)
        assert doc["final"]["verdicts"] == ["NON_HYPERBOLIC_SEE_MOSER"]

    @pytest.mark.parametrize(
        "tangles",
        [
            "99999999999999999999/3;1/3;1/5",  # once an OverflowError traceback
            "30004/3;1/3;1/5",  # 30004/3 = 1/3 + 10001 unit regions, one too many
        ],
    )
    def test_too_many_unit_regions_exit_1(self, capsys, tangles):
        code, out, err = run_cli(capsys, "classify", tangles)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "unit twist regions" in err
        assert len(err.strip().splitlines()) == 1

    def test_unit_regions_at_the_bound(self, capsys):
        # 30001/3 = 1/3 + 10000 unit regions, exactly the bound
        code, _, _ = run_cli(capsys, "classify", "30001/3;1/3;1/5")
        assert code == 0


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

    def test_claim2_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify-claim2")
        assert code == 0
        assert "0 failures" in out

    @pytest.mark.parametrize(
        "argv,cells",
        [
            (("verify-claims", "--suite", "claim3"), 75),
            (("verify-claims", "--suite", "claim4"), 60),
            (("verify-claims", "--suite", "claim5"), 10),
            (("verify-claims", "--suite", "claim2"), 958),
            (("verify-claim2",), 958),
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

HUGE = "99999999999999999999"
FUZZ_INPUTS = (
    # malformed
    "x", "3,x", "1,,2", "P(3", "2.5", "1e3", "--", ",", ";", "1//2", "1/2/3",
    "1/x;1/3", "1/0;1/3", "1/3;;1/2", "-2,3,7)",
    # empty, zero and link-valued
    "", " ", "0", "0,0", "0,0,0", "0/1", "0;0", "2", "2,2", "4/3", "1/2;1/2",
    "2/5;1/2;1/2",
    # 20-digit parameters, numerators and denominators
    f"2,3,{HUGE}", f"-1,4,3,{HUGE}", f"-2,3,{HUGE}", HUGE, f"-{HUGE},3,5",
    f"-1,-1,{HUGE[:-1]}8,3,5", f"{HUGE}/7;1/3;1/5", f"{HUGE[:-1]}5/7;1/3;1/5",
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
    ("verify-claim2", "{}"),
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
        # Mattman's gate decides P(-2,3,q) without Delta, at any size
        assert codes[("classify", f"-2,3,{HUGE}")] == 0
        assert codes[("classify", f"-1,4,3,{HUGE}")] == 1
        assert codes[("classify", f"{HUGE[:-1]}5/7;1/3;1/5")] == 0
