"""Per-layer tracing by wrapping the functions each ``tdbnet`` layer exposes
to its callers.

A wrapper records a span per call: it counts the call, times it, and keeps
the layer's self time, which is the span minus the wrapped spans opened
inside it.  Some wrappers also count outcomes (matches that bound, flip
times found, violations, rows returned).  ``Tracer`` installs every wrapper
on entry and puts the original attributes back on exit, so a traced
iteration runs the same program as an untraced one.

Which end-to-end metric each layer should move, and where it is heavy:

* engine self time, exprs.match_pattern: run_s and replay_s, on
  throttle-burst and aggregate-random (near zero on delay-steady);
* exprs.guard_flip_time and eval_expr: run_s, on delay-steady;
* persistence.apply_action_delta: run_s, replay_s and peak_rss_mb, on
  throttle-burst;
* persistence.eval_query, count_matching and net.refresh_views: run_s and
  replay_s, on reseq-reverse;
* formats.trace_bytes: serialize_s and parse_s, largest on throttle-burst;
* patterns, workloads: setup_s; validation: pipeline_s, small everywhere.

A layer that a workload never calls reports 0 calls and 0 s.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from tdbnet import engine, net, patterns, persistence, scenarios, validation, workloads


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


def _count(key, test):
    def observe(span: Span, result) -> None:
        span.counts[key] = span.counts.get(key, 0) + test(result)

    return observe


# (owner, attribute, layer metric prefix, outcome observer or None).  The
# engine imports its collaborators by name, so wrapping the engine module's
# attribute catches exactly the engine's calls into that layer.
TARGETS = (
    (engine, "run", "engine.run", None),
    (engine, "replay", "engine.replay", None),
    (engine, "match_pattern", "exprs.match_pattern", _count("hits", lambda r: r is not None)),
    (engine, "guard_flip_time", "exprs.guard_flip_time", _count("found", lambda r: r is not None)),
    (engine, "eval_expr", "exprs.eval_expr", None),
    (
        engine,
        "apply_action_delta",
        "persistence.apply_action_delta",
        _count("violations", lambda r: isinstance(r, persistence.ConstraintViolation)),
    ),
    (engine, "refresh_views", "net.refresh_views", None),
    (net, "eval_query", "persistence.eval_query", _count("rows", len)),
    (persistence.Instance, "count_matching", "persistence.count_matching", None),
    (net.Marking, "updated", "net.marking_updated", None),
    (net.Snapshot, "advanced", "net.clock_advances", None),
    (patterns, "with_workload", "patterns.with_workload", None),
    (workloads, "parse_workloads", "workloads.parse_workloads", None),
    (validation, "check_rate", "validation.check", None),
    (validation, "check_delay", "validation.check", None),
    (validation, "check_order", "validation.check", None),
    (scenarios, "aggregator_accounting_verdict", "validation.check", None),
)


class Tracer:
    """Context manager: wraps every target on entry, restores on exit."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack = [0.0]  # time of wrapped children, per open span
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, observe in TARGETS:
                self._wrap(owner, attr, name, observe)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, name: str, observe) -> None:
        original = vars(owner)[attr]
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                span.calls += 1
                span.self_s += elapsed - children
            if observe is not None:
                observe(span, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)


def layer_metrics(spans: dict[str, Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration: name -> (value, unit)."""

    def ratio(span: Span, key: str) -> float:
        return span.counts.get(key, 0) / span.calls if span.calls else 0.0

    out: dict[str, tuple[float, str]] = {
        "engine.run.self_s": (spans["engine.run"].self_s, "s"),
        "engine.replay.self_s": (spans["engine.replay"].self_s, "s"),
    }
    mp, gf = spans["exprs.match_pattern"], spans["exprs.guard_flip_time"]
    out["exprs.match_pattern.hit_ratio"] = (ratio(mp, "hits"), "ratio")
    out["exprs.guard_flip_time.found_ratio"] = (ratio(gf, "found"), "ratio")
    out["persistence.apply_action_delta.violations"] = (
        spans["persistence.apply_action_delta"].counts.get("violations", 0),
        "count",
    )
    out["persistence.eval_query.rows"] = (spans["persistence.eval_query"].counts.get("rows", 0), "count")
    out["net.clock_advances"] = (spans["net.clock_advances"].calls, "count")
    for name in (
        "exprs.match_pattern",
        "exprs.guard_flip_time",
        "exprs.eval_expr",
        "persistence.apply_action_delta",
        "persistence.eval_query",
        "persistence.count_matching",
        "net.refresh_views",
        "net.marking_updated",
    ):
        out[f"{name}.calls"] = (spans[name].calls, "count")
        out[f"{name}.s"] = (spans[name].self_s, "s")
    for name in ("patterns.with_workload", "workloads.parse_workloads", "validation.check"):
        out[f"{name}.s"] = (spans[name].self_s, "s")
    return out
