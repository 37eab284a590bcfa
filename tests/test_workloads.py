"""Workload mini-language tests with frozen arrival lists."""

import pytest

from tdbnet.workloads import WorkloadError, parse_workload, parse_workloads


def test_burst():
    assert parse_workload("delayer", "burst:3@10") == [
        (10, ("m0000",)),
        (10, ("m0001",)),
        (10, ("m0002",)),
    ]


def test_steady():
    assert parse_workload("throttler", "steady:2:every:100@50") == [
        (50, ("m0000",)),
        (150, ("m0001",)),
    ]


def test_perm_payload_carries_sequence_fields():
    got = parse_workload("resequencer", "perm:3,1,2@10")
    assert got == [
        (10, (1, 3, 3, "b003")),
        (10, (1, 1, 3, "b001")),
        (10, (1, 2, 3, "b002")),
    ]


def test_perm_of_two_ordinals():
    assert parse_workload("aggregator", "perm:2,1@0") == [
        (0, (1, 2, 2, "b002")),
        (0, (1, 1, 2, "b001")),
    ]


def test_vals_builds_router_messages():
    assert parse_workload("router", "vals:5,50@0") == [(0, (5,)), (0, (50,))]


def test_vals_of_one_message():
    assert parse_workload("router_flawed", "vals:50@0") == [(0, (50,))]


def test_vals_is_router_only():
    with pytest.raises(WorkloadError):
        parse_workload("throttler", "vals:1,2@0")


def test_burst_of_zero_is_empty():
    assert parse_workload("delayer", "burst:0@0") == []


def test_multiple_specs_concatenate():
    got = parse_workloads("delayer", ["burst:1@0", "burst:1@5"])
    assert [at for at, _ in got] == [0, 5]


@pytest.mark.parametrize(
    "kind,spec",
    [
        ("delayer", "burst:3"),  # missing @T
        ("delayer", "burst:x@0"),  # count not an integer
        ("delayer", "burst:-1@0"),  # negative count
        ("delayer", "steady:2:every:x@0"),  # interval not an integer
        ("delayer", "burst:3@-5"),  # negative start
        ("delayer", "burst:3@t"),  # start not an integer
        ("resequencer", "perm:1,3@0"),  # not a permutation of 1..n
        ("resequencer", "perm:2,2@0"),  # duplicate ordinal
        ("resequencer", "perm:a,b@0"),  # ordinals not integers
        ("aggregator", "perm:2-1@0"),  # ordinals separated by a dash
        ("router", "one-match-both"),  # a keyword, not a spec
        ("router", "vals:a@0"),  # values not integers
        ("delayer", "wave:3@0"),  # unknown form
        ("nonsense", "burst:1@0"),  # unknown pattern kind
    ],
)
def test_rejected_specs(kind, spec):
    with pytest.raises(WorkloadError):
        parse_workload(kind, spec)
