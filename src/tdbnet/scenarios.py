"""Built-in scenarios: each packages a pattern (or a purpose-built net), a
workload, and the checks that make its behaviour observable.  A scenario can
expect a check to fail (the flawed router exists to fail the
one-receiver predicate); the scenario succeeds when every observation
matches its expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import Trace, run
from .exprs import Param, Var
from .formats import serialize_trace
from .net import (
    ActionCall,
    InputArc,
    Net,
    Place,
    Transition,
    initial_snapshot,
)
from .persistence import Action, Column, FactTemplate, Relation, Schema
from .patterns import (
    EndpointStub,
    PatternBundle,
    build_aggregator,
    build_circuit_breaker,
    build_content_based_router,
    build_delayer,
    build_resequencer,
    build_throttler,
    extend_workload,
    manual_close,
    with_endpoint,
    with_workload,
)
from .validation import InstanceExpectation, Verdict, assert_final_instance, check_delay, check_order, check_rate, ks_test
from .values import INT
from .workloads import parse_workload


@dataclass(frozen=True)
class Expectation:
    verdict: Verdict
    expect_pass: bool = True

    @property
    def satisfied(self) -> bool:
        return self.verdict.ok == self.expect_pass

    def report_verdict(self) -> Verdict:
        v = self.verdict
        if self.expect_pass:
            return v
        detail = f"expected failure {'observed' if self.satisfied else 'NOT observed'}"
        if v.details:
            detail += f"; {v.details}"
        return Verdict(v.check, self.satisfied, detail, v.measured)


@dataclass(frozen=True)
class ScenarioOutcome:
    name: str
    results: tuple[Expectation, ...]
    traces: tuple[tuple[str, Trace], ...] = ()

    @property
    def ok(self) -> bool:
        return all(r.satisfied for r in self.results)

    def report_verdicts(self) -> list[Verdict]:
        return [r.report_verdict() for r in self.results]


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    execute: Callable[[Optional[int]], ScenarioOutcome]


# ---------------------------------------------------------------------------
# router


def one_receiver_verdict(trace: Trace, n_conditions: int) -> Verdict:
    """Every routed message must land in exactly one channel relation."""
    inst = trace.final.instance
    bad = []
    for row in inst.match_values("in_log", None):
        mid = row[0]
        hits = [
            i
            for i in range(1, n_conditions + 1)
            if inst.match_values(f"channel_{i}", (mid, None))
        ]
        if len(hits) != 1:
            bad.append((mid, hits))
    if bad:
        mid, hits = bad[0]
        where = f"channels {hits}" if hits else "no channel"
        return Verdict("one_receiver", False, f"message {mid} reached {where}")
    return Verdict("one_receiver", True, f"{inst.count_matching('in_log', None)} messages, one channel each")


def _scn_flawed_router(seed: Optional[int]) -> ScenarioOutcome:
    conditions = ("gt:10", "lt:100")
    workload = parse_workload("router", "vals:50@0")
    flawed = build_content_based_router(conditions, variant="flawed")
    tr_flawed = run(flawed.net, with_workload(flawed, workload), check_views=True)
    correct = build_content_based_router(conditions, variant="correct")
    tr_correct = run(correct.net, with_workload(correct, workload), check_views=True)
    results = (
        Expectation(
            assert_final_instance(
                tr_flawed, InstanceExpectation(non_empty=("channel_1", "channel_2"))
            )
        ),
        Expectation(one_receiver_verdict(tr_flawed, len(conditions)), False),
        Expectation(one_receiver_verdict(tr_correct, len(conditions))),
        Expectation(
            assert_final_instance(
                tr_correct,
                InstanceExpectation(non_empty=("channel_1",), empty=("channel_2",)),
            )
        ),
    )
    return ScenarioOutcome(
        "flawed-router", results, (("flawed", tr_flawed), ("correct", tr_correct))
    )


# ---------------------------------------------------------------------------
# circuit breaker


def _scn_breaker_trip(seed: Optional[int]) -> ScenarioOutcome:
    bundle = build_circuit_breaker(5, 30, EndpointStub.failing())
    first = with_workload(bundle, [(0, (f"m{i}",)) for i in range(7)])
    tr1 = run(bundle.net, first, check_views=True)
    inst = tr1.final.instance
    results = [
        Expectation(
            assert_final_instance(
                tr1,
                InstanceExpectation(
                    empty=("out_log",),
                    exact={
                        "circuits": frozenset({("ep", "open")}),
                        "calls": frozenset({("ep", 6)}),
                        "calls_log": frozenset((i, i) for i in range(6)),
                    },
                ),
            )
        ),
        Expectation(
            Verdict(
                "trip_then_reject",
                inst.match_values("exc_log", (6, None)) == [(6, "circuit_open")],
                "7th message rejected without an endpoint call",
            )
        ),
    ]
    resumed = with_endpoint(bundle, manual_close(bundle, tr1.final), EndpointStub.healthy())
    resumed = extend_workload(bundle, resumed, [(0, ("late",))])
    tr2 = run(bundle.net, resumed, check_views=True)
    results.append(
        Expectation(
            assert_final_instance(
                tr2,
                InstanceExpectation(
                    exact={
                        "out_log": frozenset({(7, "late")}),
                        "circuits": frozenset({("ep", "closed")}),
                    }
                ),
            )
        )
    )
    return ScenarioOutcome(
        "circuit-breaker-trip", tuple(results), (("trip", tr1), ("resume", tr2))
    )


def _scn_receive_timeout(seed: Optional[int]) -> ScenarioOutcome:
    slow = build_circuit_breaker(5, 30, EndpointStub.respond_after(31))
    tr_slow = run(slow.net, with_workload(slow, [(0, ("x",))]), check_views=True)
    fast = build_circuit_breaker(5, 30, EndpointStub.respond_after(29))
    tr_fast = run(fast.net, with_workload(fast, [(0, ("x",))]), check_views=True)
    results = (
        Expectation(
            assert_final_instance(
                tr_slow,
                InstanceExpectation(
                    empty=("out_log",),
                    exact={
                        "exc_log": frozenset({(0, "receive_timeout")}),
                        "endpoints": frozenset({("ep", 1)}),
                    },
                ),
            )
        ),
        Expectation(
            assert_final_instance(
                tr_fast,
                InstanceExpectation(
                    empty=("exc_log",),
                    exact={
                        "out_log": frozenset({(0, "x")}),
                        "endpoints": frozenset({("ep", 0)}),
                    },
                ),
            )
        ),
    )
    return ScenarioOutcome(
        "receive-timeout", results, (("late-reply", tr_slow), ("in-time", tr_fast))
    )


# ---------------------------------------------------------------------------
# rate patterns


def full_buckets_verdict(trace: Trace, rate: int, buckets: int) -> Verdict:
    counts = {}
    for _, at in trace.final.instance.rows("out_log"):
        counts[at // 1000] = counts.get(at // 1000, 0) + 1
    wrong = {k: counts.get(k, 0) for k in range(buckets) if counts.get(k, 0) != rate}
    if wrong:
        return Verdict("full_buckets", False, f"buckets with count != {rate}: {wrong}")
    return Verdict("full_buckets", True, f"{buckets} full buckets of exactly {rate}")


def _scn_throttler(seed: Optional[int]) -> ScenarioOutcome:
    bundle = build_throttler(5)
    arrivals = parse_workload("throttler", "burst:100@0")
    tr = run(bundle.net, with_workload(bundle, arrivals), check_views=True)
    results = (
        Expectation(check_rate(tr, "out_log", 5, 1000)),
        Expectation(full_buckets_verdict(tr, 5, 20)),
    )
    return ScenarioOutcome("throttler-rate", results, (("throttled", tr),))


def _scn_delayer(seed: Optional[int]) -> ScenarioOutcome:
    d = 250
    bundle = build_delayer(d)
    arrivals = parse_workload("delayer", "burst:2@0") + parse_workload(
        "delayer", "steady:3:every:100@50"
    )
    tr = run(bundle.net, with_workload(bundle, arrivals), check_views=True)
    results = (
        Expectation(check_delay(tr, "in_log", "out_log", d)),
        Expectation(check_delay(tr, "in_log", "out_log", d + 1), False),
    )
    return ScenarioOutcome("delayer-delay", results, (("delayed", tr),))


# ---------------------------------------------------------------------------
# stateful patterns


def _scn_resequencer(seed: Optional[int]) -> ScenarioOutcome:
    bundle = build_resequencer()
    arrivals = parse_workload("resequencer", "perm:3,1,2@0")
    tr = run(bundle.net, with_workload(bundle, arrivals), check_views=True)
    emitted = [v for v in tr.final.instance.match_values("out_log", None)]
    results = (
        Expectation(check_order(tr, "out_log", "ord", seq_column="seq")),
        Expectation(
            Verdict(
                "emitted_all",
                sorted(v[1] for v in emitted) == [1, 2, 3],
                f"emitted ordinals {sorted(v[1] for v in emitted)}",
            )
        ),
    )
    return ScenarioOutcome("resequencer-permutation", results, (("reordered", tr),))


def aggregator_accounting_verdict(trace: Trace) -> Verdict:
    """Each accepted message's body contributes to exactly one aggregate."""
    inst = trace.final.instance
    aggs = inst.match_values("agg_out", None)
    for row in inst.match_values("in_log", None):
        body = row[4]
        hits = sum(agg[2].count(body) for agg in aggs)
        if hits != 1:
            return Verdict(
                "accounting", False, f"body {body!r} appears {hits} times across aggregates"
            )
    return Verdict(
        "accounting", True, f"{len(inst.match_values('in_log', None))} messages, each aggregated once"
    )


def _scn_aggregator(seed: Optional[int]) -> ScenarioOutcome:
    bundle = build_aggregator(timeout=100, expiry_grace=50)
    arrivals = [(0, (1, 1, 3, "a")), (0, (1, 2, 3, "b")), (130, (1, 3, 3, "c"))]
    tr = run(bundle.net, with_workload(bundle, arrivals), check_views=True)
    rolled = [ev for ev in tr.events if ev.outcome == "rolled_back"]
    aggs = sorted(tr.final.instance.match_values("agg_out", None), key=lambda r: r[1])
    results = (
        Expectation(
            Verdict(
                "one_rollback",
                len(rolled) == 1,
                f"{len(rolled)} rolled_back events (expected 1)",
            )
        ),
        Expectation(
            Verdict(
                "partial_then_fresh",
                [(a[2], a[3]) for a in aggs] == [("ab", 2), ("c", 1)],
                f"aggregates {[(a[2], a[3]) for a in aggs]}",
            )
        ),
        Expectation(aggregator_accounting_verdict(tr)),
    )
    return ScenarioOutcome("aggregator-timeout-rollback", results, (("rollback", tr),))


# ---------------------------------------------------------------------------
# engine-level scenarios


def halting_bundle() -> PatternBundle:
    """Two identical tokens, an insert action, no rollback arc: the second
    firing violates the key and freezes the run."""
    kv = Relation("kv", (Column("k", INT),), ("k",))
    add_kv = Action("add_kv", params=(("k", INT),), adds=(FactTemplate("kv", (Param("k"),)),))
    write = Transition(
        "write",
        inputs=(InputArc("ch", Var("k")),),
        actions=(ActionCall("add_kv", (Var("k"),)),),
    )
    net = Net(
        places=(Place("ch", INT),),
        transitions=(write,),
        schema=Schema((kv,)),
        actions=(add_kv,),
    )
    initial = initial_snapshot(net, facts=(), tokens={"ch": [(1, 0), (1, 0)]}, clock=0)
    return PatternBundle("halting", net, initial)


def _scn_halt(seed: Optional[int]) -> ScenarioOutcome:
    bundle = halting_bundle()
    tr = run(bundle.net, bundle.initial, check_views=True)
    last = tr.events[-1] if tr.events else None
    results = (
        Expectation(
            Verdict(
                "halted_outcome",
                last is not None and last.outcome == "halted",
                f"last outcome {last.outcome if last else 'none'}",
            )
        ),
        Expectation(
            assert_final_instance(
                tr, InstanceExpectation(exact={"kv": frozenset({(1,)})})
            )
        ),
        Expectation(
            Verdict(
                "frozen_at_violation",
                tr.final.clock == last.time and len(tr.events) == 2,
                f"clock {tr.final.clock}, {len(tr.events)} events",
            )
        ),
    )
    return ScenarioOutcome("compliance-halt", results, (("halted", tr),))


_CATALOG_RUNS: tuple[tuple[Callable[[], PatternBundle], str], ...] = (
    (lambda: build_throttler(5), "burst:20@0"),
    (lambda: build_delayer(250), "steady:4:every:100@0"),
    (build_resequencer, "perm:4,2,1,3@0"),
    (lambda: build_aggregator(timeout=100, expiry_grace=50), "perm:2,1,3@0"),
    (lambda: build_circuit_breaker(2, 30, EndpointStub((("fail", 0), ("respond", 5)))), "steady:6:every:10@0"),
    (lambda: build_content_based_router(("gt:10", "lt:100"), variant="flawed"), "vals:5,50,120@0"),
    (lambda: build_content_based_router(("gt:10", "lt:100"), variant="correct"), "vals:5,50,120@0"),
)


def _scn_views(seed: Optional[int]) -> ScenarioOutcome:
    results = []
    traces = []
    for make, workload in _CATALOG_RUNS:
        bundle = make()
        name = bundle.name
        arrivals = parse_workload(name, workload)
        try:
            tr = run(bundle.net, with_workload(bundle, arrivals), check_views=True)
            committed = sum(1 for ev in tr.events if ev.outcome == "committed")
            results.append(
                Expectation(Verdict(f"views_{name}", True, f"{committed} committed events checked"))
            )
            traces.append((name, tr))
        except AssertionError as e:
            results.append(Expectation(Verdict(f"views_{name}", False, str(e))))
    return ScenarioOutcome("view-consistency", tuple(results), tuple(traces))


def _scn_ks(seed: Optional[int]) -> ScenarioOutcome:
    rng = random.Random(4242 if seed is None else seed)
    fair = {0: 0.5, 1: 1.0}
    samples = [rng.randint(0, 1) for _ in range(1000)]
    results = (
        Expectation(ks_test(samples, fair, alpha=0.05)),
        Expectation(ks_test([0, 0, 0, 0], fair, alpha=0.05)),
        Expectation(ks_test([0] * 1000, fair, alpha=0.05), False),
    )
    return ScenarioOutcome("ks-balancer", results)


def _scn_determinism(seed: Optional[int]) -> ScenarioOutcome:
    s = 7 if seed is None else seed
    bundle = build_throttler(5)
    snap = with_workload(bundle, parse_workload("throttler", "burst:20@0"))
    results = []
    traces = []
    for policy in ("eager", "random"):
        tr_a = run(bundle.net, snap, policy=policy, seed=s)
        tr_b = run(bundle.net, snap, policy=policy, seed=s)
        same = serialize_trace(tr_a) == serialize_trace(tr_b)
        results.append(
            Expectation(
                Verdict(
                    f"determinism_{policy}",
                    same,
                    f"{len(tr_a.events)} events, byte-identical rerun",
                )
            )
        )
        traces.append((policy, tr_a))
    return ScenarioOutcome("determinism", tuple(results), tuple(traces))


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("flawed-router", "duplicate delivery in the flawed router vs the correct one", _scn_flawed_router),
        Scenario("circuit-breaker-trip", "trip after the 6th failure, reject while open, resume after manual close", _scn_breaker_trip),
        Scenario("receive-timeout", "reply after 31 units counts as a failure, after 29 does not", _scn_receive_timeout),
        Scenario("throttler-rate", "100-message burst through rate 5 stays at 5 per bucket", _scn_throttler),
        Scenario("delayer-delay", "every delivery at least the configured delay after arrival", _scn_delayer),
        Scenario("resequencer-permutation", "out-of-order arrivals emitted in ascending order", _scn_resequencer),
        Scenario("aggregator-timeout-rollback", "late message rolls back, partial aggregate emitted, fresh group opened", _scn_aggregator),
        Scenario("compliance-halt", "key violation without rollback arcs freezes the run", _scn_halt),
        Scenario("view-consistency", "view places equal fresh query evaluation after every event, all patterns", _scn_views),
        Scenario("ks-balancer", "KS verdicts on fair two-outcome samples and frozen D=0.5 cases", _scn_ks),
        Scenario("determinism", "same seed, same bytes, eager and random policies", _scn_determinism),
    )
}
