"""Per-layer tracing from outside the package.

The tracer replaces public functions at the names their callers look up
(for example ``alexander.is_knot`` and ``classify.alexander_fox``) with
wrappers that record a span per call.  It never edits the package source
and installs nothing until ``install`` is called, so untraced runs execute
the package unchanged.

Self time is computed online with a stack: a span's self time is its
duration minus the durations of its direct children.  Every span opens
inside the harness's per-operation root span, whose own self time is the
part of an operation that no wrapped layer covers
(``trace.unattributed_frac``).
Spans are kept in memory up to ``SPAN_CAP`` and written out when the run
ends; counters and self times cover every call regardless of the cap.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 100_000
ROOT = "bench.op"
SKEIN = "alexander.skein"

# (module, attribute, span name): every place a caller looks a function up
_FUNCTION_SITES = (
    ("pretzel", "is_knot", "pretzel.is_knot"),
    ("alexander", "is_knot", "pretzel.is_knot"),
    ("oracle", "is_knot", "pretzel.is_knot"),
    ("classify", "is_knot", "pretzel.is_knot"),
    ("pretzel", "orientation_flags", "pretzel.orientation_flags"),
    ("alexander", "orientation_flags", "pretzel.orientation_flags"),
    ("pretzel", "family_membership", "pretzel.family_membership"),
    ("classify", "family_membership", "pretzel.family_membership"),
    ("alexander", "alexander_skein", "alexander.skein"),
    ("classify", "alexander_skein", "alexander.skein"),
    ("oracle", "alexander_fox", "oracle.fox"),
    ("classify", "alexander_fox", "oracle.fox"),
    ("oracle", "build_diagram", "oracle.build_diagram"),
    ("oracle", "alexander_matrix", "oracle.alexander_matrix"),
    ("obstruction", "os_form_check", "obstruction.os_form_check"),
    ("obstruction", "monic_check", "obstruction.monic_check"),
    ("classify", "monic_check", "obstruction.monic_check"),
    ("obstruction", "gabai_not_fibered", "obstruction.gabai_not_fibered"),
    ("classify", "gabai_not_fibered", "obstruction.gabai_not_fibered"),
    ("classify", "classify", "classify.classify"),
    ("classify", "delman_gate", "classify.delman_gate"),
    ("classify", "mattman_gate", "classify.mattman_gate"),
    ("classify", "alexander_gate", "classify.alexander_gate"),
)
# LaurentPoly methods, timed as spans
_LAURENT_SPANS = (
    ("__mul__", "laurent.mul"),
    ("__rmul__", "laurent.mul"),
    ("__add__", "laurent.add"),
    ("__radd__", "laurent.add"),
)
EXIT_STAGES = ("hyperbolicity", "delman", "mattman", "alexander")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # counters that are not spans
        self.max_terms = 0
        self.stack = []  # [name, start, child seconds, span index]
        self.in_skein = 0
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore = []

    # ------------------------------------------------------------------
    # spans

    def enter(self, name: str) -> None:
        idx = len(self.span_start)
        if idx < SPAN_CAP:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1][3] if self.stack else -1)
            self.span_op.append(self.op_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
        if name == SKEIN:
            self.in_skein += 1
        frame = [name, 0.0, 0.0, idx]
        self.stack.append(frame)
        frame[1] = t = perf_counter()
        if idx >= 0:
            self.span_start[idx] = t

    def leave(self) -> None:
        t = perf_counter()
        name, start, children, idx = self.stack.pop()
        dur = t - start
        self.calls[name] += 1
        self.self_s[name] += dur - children
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            self.span_end[idx] = t
        if name == SKEIN:
            self.in_skein -= 1

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack.clear()
        self.in_skein = 0
        self.enter(ROOT)

    def end_op(self) -> None:
        # a RecursionError can strike inside a wrapper before it pushed or
        # after it popped; the root frame is always at the bottom
        if len(self.stack) != 1:
            self.counts["trace.stack_repairs"] += 1
            del self.stack[1:]
        self.leave()

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self
        stack = self.stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not stack:  # outside an operation, e.g. in the harness's checks
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[name + ".raised." + type(exc).__name__] += 1
                raise
            finally:
                tracer.leave()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, old))
        setattr(owner, attr, value)

    def install(self, api) -> None:
        """Wrap every site that exists on the package modules in ``api``
        (a namespace with one attribute per module)."""
        hooks = {
            "pretzel.orientation_flags": (self._count_trace, None),
            "oracle.fox": (self._count_crossings, None),
            "classify.classify": (None, self._count_exit),
        }
        wrapped = {}
        for mod_name, attr, span in _FUNCTION_SITES:
            mod = getattr(api, mod_name, None)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(span, fn, *hooks.get(span, (None, None)))
            self._set(mod, attr, wrapped[id(fn)])

        pretzel = getattr(api, "pretzel", None)
        if hasattr(pretzel, "component_count"):
            # is_knot looks component_count up in its own module
            self._set(pretzel, "component_count", self._counter("pretzel.traces", pretzel.component_count))
        report = getattr(getattr(api, "classify", None), "ClassificationReport", None)
        if report is not None and "to_json" in report.__dict__:
            self._set(report, "to_json", self._wrap("classify.to_json", report.__dict__["to_json"]))
        poly = getattr(getattr(api, "laurent", None), "LaurentPoly", None)
        if poly is None:
            return
        for attr, span in _LAURENT_SPANS:
            if attr in poly.__dict__:
                before = self._count_mul if span == "laurent.mul" else None
                self._set(poly, attr, self._wrap(span, poly.__dict__[attr], before))
        if "items" in poly.__dict__:
            self._set(poly, "items", self._counter("laurent.items.calls", poly.__dict__["items"]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _count_trace(self, args) -> None:
        self.counts["pretzel.traces"] += 1

    def _count_crossings(self, args) -> None:
        self.counts["oracle.crossings_sum"] += getattr(args[0], "crossing_count", 0)

    def _count_exit(self, report) -> None:
        stages = getattr(report, "stages", None) or [None]
        self.counts["classify.exit." + str(getattr(stages[-1], "stage", None))] += 1

    def _count_mul(self, args) -> None:
        a, b = args
        na = len(a.support)
        nb = len(b.support) if hasattr(b, "support") else 1
        self.counts["laurent.mul.term_products"] += na * nb
        if na > self.max_terms or nb > self.max_terms:
            self.max_terms = max(na, nb)
        if self.in_skein:
            self.counts["alexander.skein.mul"] += 1

    # ------------------------------------------------------------------
    # results

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        m: dict[str, tuple[float, str]] = {}

        def span(name: str, with_calls: bool = True):
            if with_calls:
                m[name + ".calls"] = (self.calls[name], "count")
            m[name + ".self_ms"] = (1000 * self.self_s[name], "ms")

        for name in ("laurent.mul", "laurent.add"):
            span(name)
        m["laurent.mul.term_products"] = (self.counts["laurent.mul.term_products"], "count")
        m["laurent.mul.max_terms"] = (self.max_terms, "count")
        m["laurent.items.calls"] = (self.counts["laurent.items.calls"], "count")
        for name in ("pretzel.is_knot", "pretzel.orientation_flags", "pretzel.family_membership"):
            span(name)
        m["pretzel.traces_per_op"] = (self.counts["pretzel.traces"] / max(ops, 1), "count")
        span("alexander.skein")
        m["alexander.skein.refused"] = (self.counts["alexander.skein.raised.UnsupportedLinkError"], "count")
        skein_calls = self.calls["alexander.skein"]
        m["alexander.skein.mul_per_call"] = (self.counts["alexander.skein.mul"] / max(skein_calls, 1), "count")
        for name in ("oracle.fox", "oracle.build_diagram", "oracle.alexander_matrix"):
            span(name)
        m["oracle.crossings_sum"] = (self.counts["oracle.crossings_sum"], "count")
        for name in ("obstruction.os_form_check", "obstruction.monic_check", "obstruction.gabai_not_fibered"):
            span(name)
        for name in ("classify.classify", "classify.delman_gate", "classify.mattman_gate",
                     "classify.alexander_gate", "classify.to_json"):
            span(name, with_calls=False)
        for stage in EXIT_STAGES:
            m["classify.exit." + stage] = (self.counts["classify.exit." + stage], "count")
        return m

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; return how many."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"[{self.span_name[i]},{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                    f"{self.span_parent[i]},{self.span_op[i]}]\n"
                )
        return len(self.span_start)
