"""Tests for trace checks and the KS machinery.

The KS statistic has a brute-force oracle here: evaluate the empirical CDF
and the expected CDF at every sample point (and just below it) and take the
max absolute difference. ks_statistic must agree to float precision.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdbnet.engine import run
from tdbnet.patterns import build_content_based_router, build_delayer, with_workload
from tdbnet.validation import (
    InstanceExpectation,
    assert_final_instance,
    check_delay,
    check_order,
    check_rate,
    ks_statistic,
    ks_test,
    row_inserts,
    uniform_cdf,
)


def delayer_trace(d=250, arrivals=((0, ("x",)),)):
    b = build_delayer(d)
    return run(b.net, with_workload(b, list(arrivals)))


class TestAssertFinalInstance:
    def test_empty_expectation_on_empty_run(self):
        b = build_delayer(100)
        tr = run(b.net, with_workload(b, []))
        v = assert_final_instance(tr, InstanceExpectation(empty=("out_log", "in_log")))
        assert v.ok

    def test_failure_names_relation(self):
        tr = delayer_trace()
        v = assert_final_instance(tr, InstanceExpectation(empty=("out_log",)))
        assert not v.ok
        assert "out_log" in v.details

    def test_exact_rows(self):
        tr = delayer_trace()
        v = assert_final_instance(
            tr,
            InstanceExpectation(exact={"out_log": frozenset({(0, "x")})}),
        )
        assert v.ok

    def test_flawed_router_fails_exclusivity_predicate(self):
        b = build_content_based_router(("gt:10", "lt:100"), variant="flawed")
        tr = run(b.net, with_workload(b, [(0, (50,))]))
        # 50 satisfies both conditions; the first one alone may take it
        exclusive = InstanceExpectation(exact={"channel_1": frozenset({(0, 50)})}, empty=("channel_2",))
        v = assert_final_instance(tr, exclusive)
        assert not v.ok
        assert v.details.startswith("expected channel_2 empty, found 1 rows")


class TestCheckDelay:
    def test_exact_delay_passes(self):
        tr = delayer_trace(250)
        assert check_delay(tr, "in_log", "out_log", 250).ok

    def test_smaller_bound_passes_larger_fails(self):
        tr = delayer_trace(250)
        assert check_delay(tr, "in_log", "out_log", 200).ok
        v = check_delay(tr, "in_log", "out_log", 300)
        assert not v.ok
        assert "250" in v.details

    def test_zero_delay(self):
        tr = delayer_trace(0)
        assert check_delay(tr, "in_log", "out_log", 0).ok

    def test_unmatched_output_fails(self):
        tr = delayer_trace(250)
        v = check_delay(tr, "out_log", "in_log", 0)
        assert not v.ok

    def test_negative_delay_rejected(self):
        tr = delayer_trace()
        with pytest.raises(ValueError):
            check_delay(tr, "in_log", "out_log", -1)


class TestCheckRate:
    def test_within_limit_passes(self):
        tr = delayer_trace(0, [(i * 100, (f"m{i}",)) for i in range(5)])
        assert check_rate(tr, "out_log", 5, 1000).ok

    def test_over_limit_names_window(self):
        tr = delayer_trace(0, [(0, (f"m{i}",)) for i in range(6)])
        v = check_rate(tr, "out_log", 5, 1000)
        assert not v.ok
        assert "[0, 1000)" in v.details and "6" in v.details

    def test_empty_trace_passes(self):
        b = build_delayer(0)
        tr = run(b.net, with_workload(b, []))
        assert check_rate(tr, "out_log", 5, 1000).ok

    def test_bad_bucket_rejected(self):
        tr = delayer_trace()
        with pytest.raises(ValueError):
            check_rate(tr, "out_log", 5, 0)


class TestCheckOrder:
    def test_single_output_passes(self):
        tr = delayer_trace()
        # out_log rows are (mid, body); mid is trivially ordered
        assert check_order(tr, "out_log", 0).ok

    def test_out_of_order_names_ordinals(self):
        tr = delayer_trace(0, [(0, ("a",)), (0, ("b",)), (0, ("c",))])
        # mids ascend with arrival order here, so checking a constant passes
        assert check_order(tr, "out_log", 0).ok

    def test_column_by_name_matches_column_by_index(self):
        tr = delayer_trace(0, [(0, ("a",)), (10, ("b",))])
        assert check_order(tr, "out_log", "mid").ok == check_order(tr, "out_log", 0).ok


def brute_force_ks(samples, cdf):
    """Evaluate both step functions at every point of either support with
    plain counting loops; no bisect, no shared code with the implementation."""
    n = len(samples)
    best = 0.0
    for x in sorted(set(samples) | set(cdf)):
        ecdf = sum(1 for s in samples if s <= x) / n
        fx = 0.0
        for k in sorted(cdf):
            if k <= x:
                fx = cdf[k]
        best = max(best, abs(ecdf - fx))
    return best


class TestKs:
    def test_identity_samples_match_their_own_cdf(self):
        assert ks_statistic([1, 2, 3, 4], uniform_cdf(1, 4)) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_fair_coin_distance_is_half(self):
        cdf = uniform_cdf(0, 1)
        assert ks_statistic([0, 0, 0, 0], cdf) == 0.5
        # crit at n=4, alpha=0.05 is 1.36/2 = 0.68 > 0.5: passes despite bias
        assert ks_test([0, 0, 0, 0], cdf, alpha=0.05).ok

    def test_large_biased_sample_fails(self):
        cdf = uniform_cdf(0, 1)
        v = ks_test([0] * 1000, cdf, alpha=0.05)
        assert not v.ok
        assert dict(v.measured)["D"] == 0.5

    def test_fair_large_sample_passes(self):
        r = random.Random(7)
        samples = [r.randint(0, 9) for _ in range(1000)]
        assert ks_test(samples, uniform_cdf(0, 9), alpha=0.05).ok

    def test_argument_validation(self):
        cdf = uniform_cdf(0, 1)
        with pytest.raises(ValueError):
            ks_test([], cdf)
        with pytest.raises(ValueError):
            ks_test([0], cdf, alpha=0.2)
        with pytest.raises(ValueError):
            ks_test([0], {0: 0.5})
        with pytest.raises(ValueError):
            ks_test([0, 1], {0: 0.9, 1: 0.8})

    def test_uniform_cdf_shape(self):
        cdf = uniform_cdf(0, 4)
        assert cdf == {0: 0.2, 1: 0.4, 2: 0.6, 3: 0.8, 4: 1.0}
        with pytest.raises(ValueError):
            uniform_cdf(3, 3 - 1)

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_statistic_matches_brute_force(self, samples, lo):
        cdf = uniform_cdf(lo, lo + 25)
        d = ks_statistic(samples, cdf)
        assert math.isclose(d, brute_force_ks(samples, cdf), abs_tol=1e-12)
        assert 0.0 <= d <= 1.0

    def test_verdict_carries_measurements(self):
        v = ks_test([0, 1, 2], uniform_cdf(0, 2))
        assert v.check and isinstance(v.details, str)
        m = dict(v.measured)
        assert set(m) == {"D", "n", "critical"} and m["n"] == 3


class TestRowInserts:
    def test_initial_rows_come_first(self):
        b = build_content_based_router(("gt:10",), variant="correct")
        tr = run(b.net, with_workload(b, [(0, (50,))]))
        rows = row_inserts(tr, "channel_1")
        assert rows == [((0, 50), 0)]

    def test_rolled_back_writes_are_excluded(self):
        tr = delayer_trace()
        assert all(
            ev.outcome == "committed" for ev in tr.events if ev.added
        )
        assert [v for v, _ in row_inserts(tr, "in_log")] == [(0, "x")]
