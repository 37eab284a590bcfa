"""Conformance checks computed from traces and final instances.

Every check returns a :class:`Verdict`; a failing verdict names the violated
condition and a witness.  Checks are pure functions of the trace, so a
stored trace file re-validates to the same verdicts.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .engine import Trace

KS_CRITICAL = {0.10: 1.22, 0.05: 1.36, 0.01: 1.63}


@dataclass(frozen=True)
class Verdict:
    check: str
    ok: bool
    details: str = ""
    measured: tuple[tuple[str, float], ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        extra = f" ({self.details})" if self.details else ""
        return f"[{mark}] {self.check}{extra}"


def _ok(check: str, details: str = "", measured=()) -> Verdict:
    return Verdict(check, True, details, tuple(measured))


def _fail(check: str, details: str, measured=()) -> Verdict:
    return Verdict(check, False, details, tuple(measured))


def row_inserts(trace: Trace, relation: str) -> list[tuple[tuple, int]]:
    """(values, insert time) for every fact added to a relation, in event
    order; rows already present in the initial instance come first in their
    stored-timestamp order."""
    out = list(trace.initial.instance.rows(relation))
    out.sort(key=lambda pair: pair[1])
    for ev in trace.events:
        if ev.outcome != "committed":
            continue
        for rel, values, at in ev.added:
            if rel == relation:
                out.append((values, at))
    return out


# ---------------------------------------------------------------------------
# instance-shape checks


@dataclass(frozen=True)
class InstanceExpectation:
    """Declarative per-relation expectation on a final instance."""

    empty: tuple[str, ...] = ()
    non_empty: tuple[str, ...] = ()
    exact: Mapping[str, frozenset] = field(default_factory=dict)


def assert_final_instance(trace: Trace, expected: InstanceExpectation) -> Verdict:
    """For halted traces this inspects the frozen intermediate instance,
    which is exactly ``trace.final.instance``."""
    inst = trace.final.instance
    for rel in expected.empty:
        rows = inst.match_values(rel, None)
        if rows:
            return _fail(
                "final_instance",
                f"expected {rel} empty, found {len(rows)} rows, e.g. {rows[0]!r}",
            )
    for rel in expected.non_empty:
        if not inst.match_values(rel, None):
            return _fail("final_instance", f"expected {rel} non-empty, found no rows")
    for rel, want in expected.exact.items():
        got = set(inst.match_values(rel, None))
        if got != set(want):
            extra = sorted(got - set(want))
            missing = sorted(set(want) - got)
            return _fail(
                "final_instance",
                f"{rel} mismatch: unexpected {extra!r}, missing {missing!r}",
            )
    return _ok("final_instance")


# ---------------------------------------------------------------------------
# timing checks


def check_delay(
    trace: Trace,
    input_relation: str,
    output_relation: str,
    d: int,
    *,
    id_column: int = 0,
) -> Verdict:
    """Every output fact must appear at least ``d`` units after the input
    fact carrying the same message identifier."""
    if d < 0:
        raise ValueError("d must be >= 0")
    inputs = {}
    for values, at in row_inserts(trace, input_relation):
        inputs.setdefault(values[id_column], at)
    worst: Optional[int] = None
    for values, at in row_inserts(trace, output_relation):
        key = values[id_column]
        if key not in inputs:
            return _fail(
                "delay",
                f"output row {values!r} has no matching {input_relation} row (id {key!r})",
            )
        gap = at - inputs[key]
        if gap < d:
            return _fail(
                "delay",
                f"id {key!r}: output at {at} only {gap} after input, need >= {d}",
                (("gap", gap), ("required", d)),
            )
        worst = gap if worst is None else min(worst, gap)
    measured = (("required", d),) if worst is None else (("min_gap", worst), ("required", d))
    return _ok("delay", f"min gap {worst}" if worst is not None else "no outputs", measured)


def check_rate(trace: Trace, output_relation: str, limit: int, bucket: int) -> Verdict:
    """At most ``limit`` inserts per window [k*bucket, (k+1)*bucket)."""
    if bucket <= 0:
        raise ValueError("bucket must be > 0")
    counts: dict[int, int] = {}
    for _, at in row_inserts(trace, output_relation):
        counts[at // bucket] = counts.get(at // bucket, 0) + 1
    measured = tuple((f"bucket_{k}", counts[k]) for k in sorted(counts))
    for k in sorted(counts):
        if counts[k] > limit:
            return _fail(
                "rate",
                f"window [{k * bucket}, {(k + 1) * bucket}) has {counts[k]} inserts > {limit}",
                measured,
            )
    return _ok("rate", f"{len(counts)} windows, max {max(counts.values(), default=0)}", measured)


def check_order(
    trace: Trace,
    output_relation: str,
    ord_column: int | str,
    *,
    seq_column: int | str | None = None,
) -> Verdict:
    """Inserts, taken in insert order, must carry non-decreasing ordinals
    (per sequence key when one is given)."""
    schema = trace.final.instance.schema
    rel = schema.relation(output_relation)
    names = [c.name for c in rel.columns]
    for column in (ord_column, seq_column):
        if isinstance(column, str) and column not in names:
            raise ValueError(f"relation {output_relation!r} has no column {column!r}")
    oi = names.index(ord_column) if isinstance(ord_column, str) else ord_column
    si = names.index(seq_column) if isinstance(seq_column, str) else seq_column
    last: dict[object, object] = {}
    inserts = row_inserts(trace, output_relation)
    for values, at in inserts:
        key = values[si] if si is not None else None
        cur = values[oi]
        prev = last.get(key)
        if prev is not None and cur < prev:
            return _fail(
                "order",
                f"ordinal {cur!r} after {prev!r}"
                + (f" in sequence {key!r}" if si is not None else ""),
            )
        last[key] = cur
    return _ok("order", f"{len(inserts)} rows ordered")


# ---------------------------------------------------------------------------
# distribution check


def ks_statistic(samples: Sequence[float], cdf: Mapping[float, float]) -> float:
    """One-sample D = max over ordinals of |empirical CDF - expected CDF|,
    both step functions evaluated at every point of either support."""
    pts = sorted(set(cdf) | set(samples))
    n = len(samples)
    ordered = sorted(samples)
    grid = sorted(cdf)
    best = 0.0
    for x in pts:
        ecdf = bisect.bisect_right(ordered, x) / n
        i = bisect.bisect_right(grid, x)
        fx = cdf[grid[i - 1]] if i else 0.0
        best = max(best, abs(ecdf - fx))
    return best


def ks_test(samples: Sequence[float], cdf: Mapping[float, float], alpha: float = 0.05) -> Verdict:
    """Kolmogorov-Smirnov goodness-of-fit against a discrete expected CDF
    given as {ordinal: cumulative probability}.  Classical critical values,
    conservative on discrete data."""
    if not samples:
        raise ValueError("samples must be non-empty")
    if alpha not in KS_CRITICAL:
        raise ValueError(f"alpha must be one of {sorted(KS_CRITICAL)}")
    grid = sorted(cdf)
    probs = [cdf[x] for x in grid]
    if any(b < a for a, b in zip(probs, probs[1:])) or not math.isclose(
        probs[-1], 1.0, abs_tol=1e-9
    ):
        raise ValueError("expected CDF must be non-decreasing and reach 1.0")
    d = ks_statistic(samples, cdf)
    n = len(samples)
    crit = KS_CRITICAL[alpha] / math.sqrt(n)
    measured = (("D", d), ("n", n), ("critical", crit))
    if d <= crit:
        return _ok("ks", f"D={d:.6f} <= {crit:.6f} (n={n}, alpha={alpha})", measured)
    return _fail("ks", f"D={d:.6f} > {crit:.6f} (n={n}, alpha={alpha})", measured)


def uniform_cdf(lo: int, hi: int) -> dict[int, float]:
    """CDF of the uniform integer distribution on [lo, hi]."""
    if hi < lo:
        raise ValueError("empty support")
    span = hi - lo + 1
    return {x: (x - lo + 1) / span for x in range(lo, hi + 1)}
