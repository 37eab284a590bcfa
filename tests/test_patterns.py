"""Behavioural tests for the pattern catalog, one class per pattern.

Each test drives a bundle through run() and inspects the trace or the final
instance; expected values were worked out by hand from the pattern wiring.
"""

import pytest

from tdbnet.engine import run
from tdbnet.patterns import (
    EndpointStub,
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
from tdbnet.persistence import check_compliance
from tdbnet.validation import check_delay, check_order, check_rate, row_inserts
from tdbnet.workloads import parse_workload


def run_with(bundle, arrivals, **kw):
    return run(bundle.net, with_workload(bundle, arrivals), **kw)


def test_every_bundle_starts_compliant():
    bundles = [
        build_throttler(5),
        build_delayer(250),
        build_resequencer(),
        build_aggregator(timeout=100),
        build_circuit_breaker(5, 30, EndpointStub.failing()),
        build_content_based_router(("gt:10", "lt:100")),
    ]
    for b in bundles:
        assert check_compliance(b.initial.instance, b.net.schema) == [], b.name


@pytest.mark.parametrize(
    "bundle",
    [
        build_throttler(5),
        build_delayer(250),
        build_resequencer(),
        build_aggregator(timeout=100),
        build_circuit_breaker(5, 30, EndpointStub.healthy()),
        build_content_based_router(("gt:10", "lt:100")),
    ],
    ids=lambda b: b.name,
)
def test_inject_produces_the_input_channel_colour(bundle):
    # a token of another shape would sit in the channel and match no arc
    tr = run_with(bundle, parse_workload(bundle.name, "burst:2@0"))
    produced = [pair for ev in tr.events if ev.transition == "inject" for pair in ev.produced]
    assert len(produced) == 2
    channel = "ch1" if bundle.name in ("throttler", "delayer") else "ch_in"
    for place, (value, _) in produced:
        assert place == channel
        assert bundle.net.place(place).color.fits(value)


class TestResequencer:
    def test_permuted_input_emits_ascending(self):
        tr = run_with(build_resequencer(), parse_workload("resequencer", "perm:3,1,2@0"))
        ords = [v[1] for v, _ in row_inserts(tr, "out_log")]
        assert ords == [1, 2, 3]
        assert check_order(tr, "out_log", "ord", seq_column="seq").ok

    def test_single_message_sequence_emits_immediately(self):
        tr = run_with(build_resequencer(), [(0, (1, 1, 1, "solo"))])
        rows = row_inserts(tr, "out_log")
        assert [(v, at) for v, at in rows] == [((1, 1, "solo"), 0)]

    def test_interleaved_sequences_complete_independently(self):
        arrivals = [
            (0, (7, 2, 2, "a2")),
            (10, (9, 1, 1, "b1")),
            (20, (7, 1, 2, "a1")),
        ]
        tr = run_with(build_resequencer(), arrivals)
        emitted = [(v[0], v[1]) for v, _ in row_inserts(tr, "out_log")]
        # sequence 9 completes at 10; sequence 7 only once its first ordinal lands
        assert emitted == [(9, 1), (7, 1), (7, 2)]
        by_seq = {}
        for seq, o in emitted:
            by_seq.setdefault(seq, []).append(o)
        assert by_seq == {7: [1, 2], 9: [1]}


class TestAggregator:
    def test_complete_group_emits_one_aggregate(self):
        tr = run_with(
            build_aggregator(timeout=100),
            [(0, (1, 1, 3, "a")), (0, (1, 2, 3, "b")), (5, (1, 3, 3, "c"))],
        )
        aggs = tr.final.instance.match_values("agg_out", None)
        assert [(a[0], a[2], a[3]) for a in aggs] == [(1, "abc", 3)]
        assert tr.final.instance.match_values("aseqs", None) == []

    def test_partial_group_flushed_after_timeout(self):
        tr = run_with(build_aggregator(timeout=100), [(0, (1, 1, 3, "only"))])
        aggs = tr.final.instance.match_values("agg_out", None)
        assert [(a[2], a[3]) for a in aggs] == [("only", 1)]
        done_at = aggs[0][1]
        assert done_at >= 100

    def test_late_message_rolls_back_and_reopens(self):
        tr = run_with(
            build_aggregator(timeout=100, expiry_grace=50),
            [(0, (1, 1, 3, "a")), (0, (1, 2, 3, "b")), (130, (1, 3, 3, "c"))],
        )
        assert sum(1 for ev in tr.events if ev.outcome == "rolled_back") == 1
        aggs = sorted(tr.final.instance.match_values("agg_out", None), key=lambda a: a[1])
        assert [(a[2], a[3]) for a in aggs] == [("ab", 2), ("c", 1)]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_aggregator(timeout=0)
        with pytest.raises(ValueError):
            build_aggregator(timeout=10, expiry_grace=-1)


class TestThrottler:
    def test_single_message_released_at_gate(self):
        tr = run_with(build_throttler(5), parse_workload("throttler", "burst:1@0"))
        release = [ev for ev in tr.events if ev.transition == "t_release"]
        assert len(release) == 1 and release[0].time == 200
        _, created_at = release[0].produced[0][1]
        assert created_at == 200

    def test_burst_respects_rate_per_bucket(self):
        tr = run_with(build_throttler(5), parse_workload("throttler", "burst:100@0"))
        assert check_rate(tr, "out_log", 5, 1000).ok
        counts = {}
        for _, at in row_inserts(tr, "out_log"):
            counts[at // 1000] = counts.get(at // 1000, 0) + 1
        assert all(counts[k] == 5 for k in range(20))

    def test_no_input_is_quiescent(self):
        tr = run_with(build_throttler(5), [])
        assert tr.events == ()

    def test_gate_rounds_down_when_rate_does_not_divide(self):
        b = build_throttler(3)
        release = next(t for t in b.net.transitions if t.id == "t_release")
        assert release.delay == (333, 333)
        with pytest.raises(ValueError):
            build_throttler(0)
        with pytest.raises(ValueError):
            build_throttler(1001)


class TestDelayer:
    def test_zero_delay_forwards_at_arrival_time(self):
        tr = run_with(build_delayer(0), parse_workload("delayer", "burst:2@0"))
        assert check_delay(tr, "in_log", "out_log", 0).ok
        assert all(at == 0 for _, at in row_inserts(tr, "out_log"))

    def test_fixed_delay(self):
        tr = run_with(build_delayer(250), [(0, ("one",))])
        assert [at for _, at in row_inserts(tr, "out_log")] == [250]

    def test_two_simultaneous_arrivals_not_serialized(self):
        tr = run_with(build_delayer(250), parse_workload("delayer", "burst:2@0"))
        assert [at for _, at in row_inserts(tr, "out_log")] == [250, 250]


class TestCircuitBreaker:
    def test_failing_endpoint_trips_after_threshold(self):
        bundle = build_circuit_breaker(5, 30, EndpointStub.failing())
        tr = run_with(bundle, [(0, (f"m{i}",)) for i in range(7)])
        inst = tr.final.instance
        assert inst.match_values("circuits", None) == [("ep", "open")]
        # six endpoint calls for seven messages: the last one was refused
        assert inst.count_matching("calls_log", None) == 6
        assert inst.match_values("exc_log", (6, None)) == [(6, "circuit_open")]

    def test_boundary_threshold_failures_keep_circuit_closed(self):
        script = EndpointStub((("fail", 0),) * 5 + (("respond", 0),))
        bundle = build_circuit_breaker(5, 30, script)
        tr = run_with(bundle, [(0, (f"m{i}",)) for i in range(6)])
        inst = tr.final.instance
        assert inst.match_values("circuits", None) == [("ep", "closed")]
        assert inst.match_values("out_log", None) == [(5, "m5")]

    def test_manual_close_resumes_delivery(self):
        bundle = build_circuit_breaker(1, 30, EndpointStub.failing())
        tr1 = run_with(bundle, [(0, ("a",)), (0, ("b",)), (0, ("c",))])
        assert tr1.final.instance.match_values("circuits", None) == [("ep", "open")]
        healed = with_endpoint(bundle, manual_close(bundle, tr1.final), EndpointStub.healthy())
        tr2 = run(bundle.net, extend_workload(bundle, healed, [(0, ("again",))]))
        assert ("ep", "closed") in tr2.final.instance.match_values("circuits", None)
        assert any(b == "again" for _, b in tr2.final.instance.match_values("out_log", None))

    def test_receive_timeout_boundary(self):
        late = build_circuit_breaker(5, 30, EndpointStub.respond_after(31))
        tr = run_with(late, [(0, ("x",))])
        assert tr.final.instance.match_values("exc_log", None) == [(0, "receive_timeout")]
        assert tr.final.instance.match_values("endpoints", None) == [("ep", 1)]

        ok = build_circuit_breaker(5, 30, EndpointStub.respond_after(29))
        tr = run_with(ok, [(0, ("x",))])
        assert tr.final.instance.match_values("out_log", None) == [(0, "x")]
        assert tr.final.instance.match_values("exc_log", None) == []

    def test_success_resets_failure_counter_by_default(self):
        script = EndpointStub((("fail", 0), ("fail", 0), ("respond", 0)))
        bundle = build_circuit_breaker(5, 30, script)
        tr = run_with(bundle, [(0, (f"m{i}",)) for i in range(3)])
        assert tr.final.instance.match_values("endpoints", None) == [("ep", 0)]


class TestRouter:
    def test_flawed_variant_duplicates_matching_message(self):
        bundle = build_content_based_router(("gt:10", "lt:100"), variant="flawed")
        tr = run_with(bundle, parse_workload("router", "vals:50@0"))
        inst = tr.final.instance
        assert inst.match_values("channel_1", None) == [(0, 50)]
        assert inst.match_values("channel_2", None) == [(0, 50)]

    def test_correct_variant_first_condition_wins(self):
        bundle = build_content_based_router(("gt:10", "lt:100"), variant="correct")
        tr = run_with(bundle, parse_workload("router", "vals:50@0"))
        inst = tr.final.instance
        assert inst.match_values("channel_1", None) == [(0, 50)]
        assert inst.match_values("channel_2", None) == []

    def test_no_match_goes_to_exception_place_without_inserts(self):
        bundle = build_content_based_router(("gt:10",), variant="correct")
        tr = run_with(bundle, [(0, (7,))])
        inst = tr.final.instance
        assert inst.match_values("channel_1", None) == []
        assert tr.final.marking.tokens("exc") != ()

    def test_condition_parsing(self):
        with pytest.raises(ValueError):
            build_content_based_router(())
        with pytest.raises(ValueError):
            build_content_based_router(("gt:10",), variant="sloppy")
