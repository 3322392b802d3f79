"""Benchmark of the pretzelsurgery package: seeded workloads run as a closed
loop with one client, one thread and one process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload claims-grid --seed 1 --seconds 25 --trace 0

Both modes start with one untimed warm-up pass (see ``warm_up``).
``--trace 0`` measures the end-to-end metrics with the package unmodified;
timings are each operation's best run over the passes (see ``Outcome``).
``--trace 1`` gives the per-layer metrics: it runs a fixed number of pairs
of passes, each pair untraced then traced, and writes the spans to
``.perfbench/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the run's details (host, tail percentile, failures
by kind).  Workloads, metrics and their predicted links are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 21
CHILD_TIMEOUT_S = 60
MODULES = ("laurent", "pretzel", "alexander", "oracle", "obstruction", "classify")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Tracer  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, a child failed)."""


# ----------------------------------------------------------------------
# host diagnostics: not gated, they tell host drift from a program change


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop."""
    samples = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - t)
    return 1000 * statistics.median(samples)


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# package and set-up


def load_package() -> SimpleNamespace:
    """Import the package modules from this checkout's ``src`` and nowhere
    else.  Operations look functions up on these modules at call time, so
    the tracer's wrappers are seen."""
    if not (SRC / "pretzelsurgery" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    api = SimpleNamespace(**{name: importlib.import_module("pretzelsurgery." + name) for name in MODULES})
    origin = Path(api.laurent.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported the package from {origin}, not from {SRC}")
    return api


def _child(cmd: list[str]) -> str:
    """Run a child process to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {cmd}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return proc.stdout


# ----------------------------------------------------------------------
# the closed loop


class Outcome:
    """Latencies and check results of one phase.

    Every operation of the universe runs once per pass.  ``best[i]`` is
    operation i's fastest successful run (its fastest run of any kind when
    it never succeeded): the host this benchmark was built on slows a core
    by up to ~45% for seconds at a time when a co-tenant is busy, and the
    best of several repetitions is the figure that drift cannot move.
    """

    def __init__(self, universe: int):
        self.latencies: list[float] = []  # every attempt, in run order
        self.best = [math.inf] * universe
        self._best_any = [math.inf] * universe
        self.passes = 0
        self.ok = 0
        self.failures: dict[str, int] = {}

    def record(self, i: int, dt: float, error: str | None) -> None:
        self.latencies.append(dt)
        self._best_any[i] = min(self._best_any[i], dt)
        if error is None:
            self.ok += 1
            self.best[i] = min(self.best[i], dt)
        else:
            self.failures[error] = self.failures.get(error, 0) + 1

    def per_op_best(self) -> list[float]:
        return [b if b < math.inf else a for b, a in zip(self.best, self._best_any) if a < math.inf]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wrong(self) -> int:
        return self.failures.get("wrong", 0)


def run_pass(wl, api, order: list[int], out: Outcome, *, tracer: Tracer | None = None, between=None) -> None:
    """Run every operation once, in ``order``.  Only the package call is
    timed; the check, and ``between()``, run outside the timing."""
    for i in order:
        op = wl.ops[i]
        result = error = None
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(len(out.latencies))
        try:
            result = wl.run(api, op)
        except Exception as exc:  # every failure is counted, none ends the run
            error = type(exc).__name__
        if tracer is not None:
            tracer.end_op()
        dt = time.perf_counter() - t0
        if error is None:
            try:
                verdict = wl.check(op, result)
            except Exception as exc:
                verdict = "check raised " + type(exc).__name__
            error = None if verdict == "ok" else verdict
        out.record(i, dt, error)
        if between is not None:
            between()
    out.passes += 1


def pass_orders(wl, seed: int):
    """The seeded order of each successive pass."""
    rng = random.Random(seed * 1_000_003 + 17)
    order = list(range(len(wl.ops)))
    while True:
        rng.shuffle(order)
        yield order


def warm_up(wl, api, orders) -> Outcome:
    """One untimed pass before the measured ones, checked like them.

    It fills the package's process-wide caches, so that every measured pass
    does the same work.  On large-q the cold pass is the only one that can
    raise ``RecursionError`` (the ``_torus`` cache is empty), and how many
    operations do so depends on the seeded order; counting them would make
    ``failed`` depend on how many passes fit in a run.  Its failures are
    reported by kind in the details line instead, and a wrong answer in it
    still makes the run incorrect."""
    out = Outcome(len(wl.ops))
    run_pass(wl, api, next(orders), out)
    return out


def run_timed(wl, api, orders, seconds: float, between=None) -> Outcome:
    """Whole passes until ``seconds`` have elapsed."""
    out = Outcome(len(wl.ops))
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        run_pass(wl, api, next(orders), out, between=between)
    return out


def run_traced(wl, api, orders) -> tuple[Outcome, Outcome, Tracer]:
    """``wl.trace_passes`` pairs of passes, each pair in one order: first
    untraced, then traced.  Alternating lets both sides see the same host
    speeds."""
    plain, traced = Outcome(len(wl.ops)), Outcome(len(wl.ops))
    tracer = Tracer()
    for _ in range(wl.trace_passes):
        order = next(orders)
        run_pass(wl, api, order, plain)
        tracer.install(api)
        try:
            run_pass(wl, api, order, traced, tracer=tracer)
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, seconds)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(out: Outcome, setup: list[float]) -> dict[str, tuple[float, str]]:
    best = out.per_op_best()
    return {
        "throughput_ops_s": (len(best) / sum(best), "1/s"),
        "latency_ms_p50": (1000 * statistics.median(best), "ms"),
        "latency_ms_tail": (1000 * tail(best)[1], "ms"),
        "ok_frac": (out.ok / out.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (min(setup), "s"),
    }


class SetupProbes:
    """Set-up samples, each in a fresh interpreter, spread evenly over the
    timed phase (between operations, outside their timing).  The run
    reports the best sample, by the same rule as the operations: per-run
    medians of these samples were bimodal with the host's fast and slow
    states, the best one is not."""

    def __init__(self, name: str, seed: int, seconds: float, tiny: bool):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)] + (["tiny"] if tiny else [])
        self.interval = seconds / SETUP_SAMPLES
        self.samples: list[float] = []
        self.start = time.perf_counter()

    def take(self) -> None:
        self.samples.append(float(_child(self.cmd).strip().splitlines()[-1]))

    def __call__(self) -> None:
        elapsed = time.perf_counter() - self.start
        if len(self.samples) < SETUP_SAMPLES and elapsed >= len(self.samples) * self.interval:
            self.take()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return self.samples


# ----------------------------------------------------------------------
# entry points


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the self-test's tiny inputs
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure(args) -> tuple[dict, Outcome, dict[str, tuple[float, str]]]:
    """One run; returns (details, outcome, metrics)."""
    ref_before = reference_loop_ms()
    api = load_package()
    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    details = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "universe_ops": len(wl.ops),
        "stresses": list(wl.stresses),
        "bypasses": list(wl.bypasses),
        "host": host_info(),
    }
    orders = pass_orders(wl, args.seed)
    warm = warm_up(wl, api, orders)
    details["warmup_failures"] = warm.failures
    if args.trace == 0:
        probes = SetupProbes(wl.name, args.seed, args.seconds, args.tiny)
        out = run_timed(wl, api, orders, args.seconds, between=probes)
        setup = probes.finish()
        metrics = end_to_end(out, setup)
        details["setup_samples_s"] = setup
        details["setup_median_s"] = statistics.median(setup)
        # pooled over every attempt, for comparison with the per-op best
        details["pooled_throughput_ops_s"] = out.attempted / sum(out.latencies)
        details["pooled_latency_ms_p50"] = 1000 * statistics.median(out.latencies)
    else:
        plain, out, tracer = run_traced(wl, api, orders)
        metrics = tracer.metrics(out.attempted)
        overhead = sum(out.per_op_best()) / sum(plain.per_op_best())
        unattributed = tracer.self_s[ROOT_SPAN] / sum(out.latencies)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        metrics["trace.unattributed_frac"] = (unattributed, "frac")
        metrics["trace.ops"] = (out.attempted, "count")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["spans_kept"] = tracer.write_spans(spans_path)
        details["stack_repairs"] = tracer.counts["trace.stack_repairs"]
        details["untraced_best_seconds"] = sum(plain.per_op_best())
        details["traced_best_seconds"] = sum(out.per_op_best())
        # layer self-times account for the traced time up to the unattributed
        # share; the criterion is that this share is within the overhead
        details["unattributed_within_overhead"] = unattributed <= overhead - 1
    ref_after = reference_loop_ms()
    metrics["host.ref_loop_ms"] = (statistics.median([ref_before, ref_after]), "ms")
    best = out.per_op_best()
    details.update(
        ops=out.attempted,
        passes=out.passes,
        tail_percentile=round(tail(best)[0], 4),
        tail_samples=len(best),
        failures=out.failures,
        ref_loop_ms=[ref_before, ref_after],
    )
    details["warmup_wrong"] = warm.wrong
    return details, out, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        details, out, metrics = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps(details, sort_keys=True))
    if args.trace == 0:
        metrics.pop("host.ref_loop_ms")
    print(json.dumps({
        "correct": out.wrong == 0 and details["warmup_wrong"] == 0,
        "attempted": out.attempted,
        "failed": out.attempted - out.ok,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
