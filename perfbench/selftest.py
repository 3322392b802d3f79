"""Self-test of the benchmark harness (not of the package).

Run from the root of a checkout:  python3 perfbench/selftest.py

Tiny runs of every workload must print every metric BENCHMARK.json names,
with its unit, and a planted wrong expectation or a failing operation must
lower ok_frac instead of ending the run.
"""

import contextlib
import dataclasses
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace), "--tiny"])
    if code != 0:
        raise AssertionError(f"{workload} exited {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_spec_names_every_workload(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))

    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result = tiny_run(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)


class FailuresAreCounted(unittest.TestCase):
    def setUp(self):
        self.api = run.load_package()

    def one_pass(self, wl) -> run.Outcome:
        out = run.Outcome(len(wl.ops))
        run.run_pass(wl, self.api, list(range(len(wl.ops))), out)
        return out

    def test_planted_wrong_expectation_lowers_ok_frac(self):
        wl = workloads.build("claims-grid", 5, tiny=True)
        exp, value = wl.ops[0].expect
        wl.ops[0] = dataclasses.replace(wl.ops[0], expect=(exp, value + 1))
        out = self.one_pass(wl)
        self.assertEqual(out.attempted, len(wl.ops))
        self.assertEqual(out.failures, {"wrong": 1})
        self.assertEqual(out.ok, len(wl.ops) - 1)

    def test_planted_wrong_verdict_lowers_ok_frac(self):
        wl = workloads.build("classify-mix", 5, tiny=True)
        i = next(i for i, op in enumerate(wl.ops) if op.kind == "torus")
        wl.ops[i] = dataclasses.replace(wl.ops[i], expect=(workloads.NO, [], [], None))
        out = self.one_pass(wl)
        self.assertEqual(out.wrong, 1)

    def test_raising_operation_is_a_failure_not_a_crash(self):
        wl = workloads.build("cross-check", 5, tiny=True)
        wl.ops.append(workloads.Op("box", (2, 2), None))  # a two-component link
        out = self.one_pass(wl)
        self.assertEqual(out.attempted, len(wl.ops))
        self.assertEqual(out.wrong, 0)
        self.assertEqual(out.attempted - out.ok, sum(out.failures.values()))
        self.assertGreaterEqual(sum(out.failures.values()), 1)


if __name__ == "__main__":
    unittest.main()
