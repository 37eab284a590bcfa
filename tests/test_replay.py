"""Replay binds each event from the tokens it recorded as consumed.

The differential tests compare it against ``reference_replay``, the
enumerating matcher it replaced (over the frozen enumerator of
``reference_engine``), on every catalog pattern under the eager
policy and five random-policy seeds, and on traces mutated so that an event
is no longer enabled.
"""

import dataclasses

import pytest

import reference_engine
from tdbnet import engine
from tdbnet.engine import FiringError, Trace, TraceMeta, fire, replay, run
from tdbnet.exprs import Age, Const, DefinitionError, Op, Var
from tdbnet.formats import parse_trace, serialize_trace
from tdbnet.net import InputArc, Net, OutputArc, Place, Snapshot, Token, Transition, initial_snapshot
from tdbnet.patterns import (
    EndpointStub,
    build_aggregator,
    build_circuit_breaker,
    build_content_based_router,
    build_delayer,
    build_resequencer,
    build_throttler,
    with_workload,
)
from tdbnet.persistence import Instance, Schema
from tdbnet.scenarios import halting_bundle
from tdbnet.values import INT
from tdbnet.workloads import parse_workload


def reference_replay(net, trace, *, verify=True):
    """Replay by enumeration: for each event, take the first candidate of its
    transition, in canonical binding order, whose binding and consumed
    tokens equal the recorded ones and whose guard holds at the event's
    time."""
    engine._ensure_valid(net)
    snap = trace.initial
    for ev in trace.events:
        t = next((tr for tr in net.transitions if tr.id == ev.transition), None)
        if t is None:
            raise DefinitionError(f"trace names unknown transition {ev.transition!r}")
        if ev.time > snap.clock:
            snap = snap.advanced(ev.time)
        match = None
        for cand in sorted(reference_engine._enumerate(net, snap, t), key=reference_engine._Cand.bkey):
            consumed = tuple((pid, tok) for pid, tok, _ in cand.matches)
            if (
                cand.binding_items() == ev.binding
                and consumed == ev.consumed
                and reference_engine._guard_true(net, snap, cand, ev.time)
            ):
                match = cand
                break
        if match is None:
            raise FiringError(
                f"replay: event {ev.step} ({ev.transition!r}) is not enabled under its binding"
            )
        snap, got = engine._execute(net, snap, match, ev.time, ev.step)
        if verify and got != ev:
            raise FiringError(f"replay: event {ev.step} diverged: {got!r} != {ev!r}")
    if verify and not (
        snap.instance == trace.final.instance
        and snap.marking == trace.final.marking
        and snap.clock == trace.final.clock
    ):
        raise FiringError("replay: final snapshot diverged from the recorded one")
    return snap


def two_arc_net():
    """``pair`` consumes two tokens of one place; ``join`` binds one variable
    on two normal places, whose later arc sets its age."""
    return Net(
        places=(Place("p", INT), Place("p1", INT), Place("p2", INT), Place("q", INT)),
        transitions=(
            Transition(
                "pair",
                inputs=(InputArc("p", Var("x")), InputArc("p", Var("y"))),
                outputs=(OutputArc("q", Op("+", (Var("x"), Var("y")))),),
            ),
            Transition(
                "join",
                inputs=(InputArc("p1", Var("x")), InputArc("p2", Var("x"))),
                guard=Op("<", (Age("x"), Const(5))),
                outputs=(OutputArc("q", Var("x")),),
            ),
        ),
        schema=Schema(()),
    )


def _fed(bundle, kind, spec):
    return bundle.net, with_workload(bundle, parse_workload(kind, spec))


def _aggregator_rollback():
    # the third message arrives after the group's timeout and is rolled back
    bundle = build_aggregator(timeout=100, expiry_grace=50)
    arrivals = [(0, (1, 1, 3, "a")), (0, (1, 2, 3, "b")), (130, (1, 3, 3, "c"))]
    return bundle.net, with_workload(bundle, arrivals)


def _halting():
    bundle = halting_bundle()
    return bundle.net, bundle.initial


def _two_arcs():
    net = two_arc_net()
    tokens = {"p": [1, 1, 2, 2, 3], "p1": [Token(1, 0)], "p2": [Token(1, 3)]}
    return net, initial_snapshot(net, tokens=tokens, clock=6)


# name -> () -> (net, initial snapshot)
CATALOG = {
    "throttler": lambda: _fed(build_throttler(5), "throttler", "burst:12@0"),
    "delayer": lambda: _fed(build_delayer(250), "delayer", "steady:4:every:100@0"),
    "resequencer": lambda: _fed(build_resequencer(), "resequencer", "perm:4,2,1,3@0"),
    "aggregator_rollback": _aggregator_rollback,
    "circuit_breaker": lambda: _fed(
        build_circuit_breaker(2, 30, EndpointStub((("fail", 0), ("respond", 5)))),
        "circuit_breaker",
        "steady:6:every:10@0",
    ),
    "router_correct": lambda: _fed(
        build_content_based_router(("gt:10", "lt:100"), variant="correct"), "router", "vals:5,50,120@0"
    ),
    "router_flawed": lambda: _fed(
        build_content_based_router(("gt:10", "lt:100"), variant="flawed"), "router", "vals:5,50,120@0"
    ),
    "halting": _halting,
    "two_arcs": _two_arcs,
}
POLICIES = [("eager", None)] + [("random", seed) for seed in range(5)]


def _parsed_run(name, policy="eager", seed=None):
    net, initial = CATALOG[name]()
    tr = run(net, initial, policy=policy, seed=seed)
    return net, parse_trace(serialize_trace(tr))


@pytest.mark.parametrize("policy,seed", POLICIES)
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_replay_equals_reference(name, policy, seed):
    net, tr = _parsed_run(name, policy, seed)
    got = replay(net, tr)
    want = reference_replay(net, tr)
    assert got.instance == want.instance
    assert got.marking == want.marking
    assert got.clock == want.clock


def test_catalog_covers_rollback_and_halt():
    outcomes = {
        ev.outcome
        for name in ("aggregator_rollback", "halting")
        for ev in _parsed_run(name)[1].events
    }
    assert outcomes == {"committed", "rolled_back", "halted"}


def _mutated(trace, index, **changes):
    events = list(trace.events)
    events[index] = dataclasses.replace(events[index], **changes)
    return dataclasses.replace(trace, events=tuple(events))


def _first(trace, transition):
    return next(ev for ev in trace.events if ev.transition == transition)


def _absent_token():
    net, tr = _parsed_run("throttler")
    ev = _first(tr, "t_admit")
    (pid, tok), rest = ev.consumed[0], ev.consumed[1:]
    gone = (pid, Token(tok.value, tok.created_at + 10**6))
    return net, _mutated(tr, ev.step, consumed=(gone,) + rest)


def _one_copy_consumed_twice():
    net = two_arc_net()
    tr = run(net, initial_snapshot(net, tokens={"p": [1, 2]}))
    ev = tr.events[0]
    (pid, tok), _ = ev.consumed
    return net, _mutated(tr, 0, consumed=((pid, tok), (pid, tok)), binding=(("x", tok.value), ("y", tok.value)))


def _places_swapped():
    # both tokens are present on both places' pools and satisfy the guard
    # in either order, so only the arc-order check rejects the event
    net = two_arc_net()
    tr = run(net, initial_snapshot(net, tokens={"p1": [Token(1, 2)], "p2": [Token(1, 3)]}, clock=6))
    ev = _first(tr, "join")
    first, second = ev.consumed
    return net, _mutated(tr, ev.step, consumed=(second, first))


def _consumed_pair_dropped():
    net, tr = _parsed_run("throttler")
    ev = _first(tr, "t_admit")
    return net, _mutated(tr, ev.step, consumed=ev.consumed[:-1])


def _consumed_pair_added():
    net, tr = _parsed_run("throttler")
    first, later = [ev for ev in tr.events if ev.transition == "t_admit"][:2]
    return net, _mutated(tr, first.step, consumed=first.consumed + later.consumed[:1])


def _altered_binding():
    net, tr = _parsed_run("throttler")
    ev = _first(tr, "t_admit")
    binding = tuple((k, "zzz" if k == "b" else v) for k, v in ev.binding)
    return net, _mutated(tr, ev.step, binding=binding)


def _guard_false():
    net, tr = _parsed_run("delayer")
    ev = _first(tr, "t_forward")  # guard age(m) >= 250
    assert ev.time - 1 >= tr.events[ev.step - 1].time
    return net, _mutated(tr, ev.step, time=ev.time - 1)


@pytest.mark.parametrize(
    "mutate",
    [
        _absent_token,
        _one_copy_consumed_twice,
        _places_swapped,
        _consumed_pair_dropped,
        _consumed_pair_added,
        _altered_binding,
        _guard_false,
    ],
)
def test_mutated_trace_rejected_like_reference(mutate):
    net, tr = mutate()
    with pytest.raises(FiringError) as got:
        replay(net, tr)
    with pytest.raises(FiringError) as want:
        reference_replay(net, tr)
    assert str(got.value) == str(want.value)
    assert "is not enabled under its binding" in str(got.value)


def test_replay_never_enumerates(monkeypatch):
    bundle = build_throttler(5)
    tr = run(bundle.net, with_workload(bundle, parse_workload("throttler", "burst:50@0")))

    def refuse(*args, **kwargs):
        raise AssertionError("replay enumerated candidates")

    monkeypatch.setattr(engine, "_Slot", refuse)
    final = replay(bundle.net, tr)
    assert final.instance == tr.final.instance and final.marking == tr.final.marking


def test_replay_rejects_event_before_the_clock(timer_net):
    initial = initial_snapshot(timer_net, tokens={"ch2": ["a", "b"]}, clock=100)
    snap, first = fire(timer_net, initial, "Timer", {"m": "a"}, 300, step=0)
    rewound = Snapshot(snap.instance, snap.marking, 0)
    final, second = fire(timer_net, rewound, "Timer", {"m": "b"}, 200, step=1)
    tr = Trace(TraceMeta(timer_net.fingerprint(), "eager", None), initial, (first, second), final)
    with pytest.raises(FiringError, match=r"event 1 at time 200 precedes the clock 300"):
        replay(timer_net, tr)


@pytest.mark.parametrize("verify", [True, False])
def test_replay_rejects_misnumbered_event(verify):
    net, tr = _parsed_run("throttler")
    with pytest.raises(FiringError, match=r"event 1 is recorded as step 7"):
        replay(net, _mutated(tr, 1, step=7), verify=verify)


def test_replay_rejects_non_compliant_initial_instance():
    net, initial = _halting()
    broken = Instance(net.schema, {"kv": [((1,), 0), ((1,), 5)]})
    snap = Snapshot(broken, initial.marking, 0)
    with pytest.raises(DefinitionError, match="initial instance violates constraints"):
        replay(net, Trace(TraceMeta(net.fingerprint(), "eager", None), snap, (), snap))
