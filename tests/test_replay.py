"""Replay binds each event from the tokens it recorded as consumed.

The differential tests compare it against ``reference_replay``, the
enumerating matcher it replaced (over the frozen enumerator of
``reference_engine``), on every catalog pattern under the eager
policy and five random-policy seeds, and on traces mutated so that an event
is no longer enabled.
"""

import dataclasses
import hashlib
import json

import pytest

import reference_engine
from tdbnet import engine
from tdbnet.engine import FiringError, Trace, TraceMeta, fire, replay, run
from tdbnet.exprs import Age, Const, DefinitionError, Op, Var
from tdbnet.formats import canonical_json, parse_trace, serialize_net, serialize_trace
from tdbnet.net import InputArc, Net, OutputArc, Place, Snapshot, Transition, initial_snapshot
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
                cand.items == ev.binding
                and consumed == ev.consumed
                and reference_engine._guard_true(net, snap, cand, ev.time)
            ):
                match = cand
                break
        if match is None:
            raise FiringError(
                f"replay: event {ev.step} ({ev.transition!r}) is not enabled under its binding"
            )
        snap, got, _ = engine._execute(net, snap, match, ev.time, ev.step)
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
    tokens = {"p": [(1, 6), (1, 6), (2, 6), (2, 6), (3, 6)], "p1": [(1, 0)], "p2": [(1, 3)]}
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


# sha256 of serialize_trace(run(...)) per CATALOG entry, one digest per
# POLICIES entry in order.  Trace bytes are the behaviour contract; the
# differential above fires through the engine's own store and marking, so
# only these digests notice a change in their order.
GOLDEN = {
    "aggregator_rollback": (
        "3a49ccf36515bc9353b17cf78f74d2ba41dd992da364792bf3c755f7754ef062",
        "65300a19424656b135f49c0e23e2ac0437f6e008dc5e1880423ebc7e8dd61800",
        "2bd708d9d31ee3b29998bda179d0d3e00a3df4f7916ef36c107a27397ae71c96",
        "546e2da65cd66a252243c29a74e81487c9a32a28fe123bb30c3c67955149a902",
        "67074ef668e92a4a8303ee88d4499dbbcc9e247a2b5dc1f2ec69a8a6209f0344",
        "9689061979e53dc550e53bb900a1087957e3a40adcb3ef1eedc86248da6b9e8c",
    ),
    "circuit_breaker": (
        "a81499fb2e43e05e5b8eb06e73fae6d7bf12127d7e2b96f3be7c1c937ae45f56",
        "40ad7e768e1792a263b617892cf004b788ebf07adbcb1c0940b940b11302329b",
        "85580323db217152b664cec77717fdc693f85df975f99e891008a318b5aa27c8",
        "a8bf15a4a6cc1c285e9a37f0e621298a6b1e96db8e97d00aa19cda8ec8376860",
        "8c5857923c155e1d433e9d9e2a1c4dc074117c9eaa9266f226f8ef59298fee28",
        "c794c105b8d2ed15b8ba15e1e1961ba15c89c6079680ea99b7da5ac4070012cd",
    ),
    "delayer": (
        "62e30e09161b95421d1528689071685bc8a2ec9c6a2c2cf9517db9e7f1aad9ae",
        "12dfddf7afe6d116f4a82be1dd58b4bbb9084a548f31d48f4d9709d5842d9a3b",
        "32c9003d748d25379afdd4265f76c68feb505be349691dc3d666baa86df03287",
        "d17c1a01b0c1a7dba0a68cf058f45966ec30be10c2c64d759576ee6fa07c2eac",
        "57e6d998c40fcd3fddb2550c160b82b67625876e5c44707902b682411ebb247d",
        "ace39952eba9426950f40a84e456391c96db007c43e1b9d17af7dde67b7dad8c",
    ),
    "halting": (
        "c12e0cb4a0e925b71a44791beb36fdb97014f27095aa67163b1e0eb1f4efa2e8",
        "d8c26df0cfa324786ee21ec94b19d7bd45f9c1044f84e94c030834de312f192f",
        "618f2d5b5a037b78df77e781b6382e366e2206e2574bbc27cd013c0625db8634",
        "c4bd26fbac52ddad123d15df6dec6dcce6f10b125316815e38b497468d7a68b0",
        "8bd3d7e8df5555591e985e37f7e3e4bacc1345ae1babb5e4d518eb3ea5fed3a4",
        "f34b52b4a0425dcb577d0097789dc216b4326caa0cd05bba9b855fd9ad199e14",
    ),
    "resequencer": (
        "57735eca23a94024ddc86d09245f9d79c82ddf7902d29170ee7a3411b12d16bf",
        "f15d87f5ab74a2d1aeaae2d88166b7f2373aae7b07949c4383fea4a4b4e3553f",
        "07c4c43ef7c412f880738702aeeb317ad1a1a5823ce84f50306633ea06c6d3cb",
        "6109dd177d911a83b1048a9e325edcb7705f110f880d4687c850b480e7d0501d",
        "97f734aa61257dac2279ed704d12780c398d961c8f654c01db589159d76e41ae",
        "2c3266454e8ddae75b22e59d3d4f2f4bafc7e25dc88d6ff3290e99fe4ea863f1",
    ),
    "router_correct": (
        "45e1cef08f3807998ca84f7b0377d185392cab36c546d2e64a3d172bd4810b9e",
        "68b86ffc8e89c22340f7f0dd8682a2579c4cab87ca44779765b54c5a55d7ec24",
        "5cca65832afab464976eb54a245d5724d79e662baf579edcc721af44ccc7648c",
        "7ce7cc824670a1f570e2eadf69f5bb048523bf5ba9195523dcd3264868309355",
        "ebc9fef703dae7b99143e9c155d41b7271887be4d2a701e2a58b3ddfdc0a9424",
        "f094aebb1e75ceb7ba66648cb035dfa6c140ca940fdfb36af4282b239471014d",
    ),
    "router_flawed": (
        "9c0a104bc3ff0f6e5cc263f76e5c6e0b4e3c627bbfae7e1e37b049329c53ed2b",
        "47f157e1f2af696d72df8cabc1e46e7e49d4a1dcc4589433bc9ed28e9e04a529",
        "5b00801d477f5d7f2516223c5adf36a3e61fdef3bcf6e055f6e47b03c0898f37",
        "3fd42e7b124dbcb6051f1698d444001d8038b0f8cd0f79be4ff7c8563312f3a7",
        "cab4dd22a1bc3f770badaa124dc307ca118f16f8db669f6513aaec73481147df",
        "ccbc506a4b83d9ca85cac1c3d9b809c4d0765abd5cdfa2dfa45a160e8cf4088b",
    ),
    "throttler": (
        "93abd718b84a8ac60fe0948bb1f50ac5d14020e396aa893c9cd51e5fe5b500ca",
        "e09756df6a27b2b3e8c445b0f5aed8c287d216062c46a442b0c78475fe389d1e",
        "a8a635d20556aaafba69b2beba2c224a7de2521795f561b6e2ce32a2147c829e",
        "170243e6bd2edf735c80f050443c36b9fff9383baa0cdd73a40f24d2c41d4689",
        "164aedf038ac9addc50bf008b4b455e1ae0510fafb7ed762ac740f185858a198",
        "c8523b77bdaa4871319d8cd2f8b422846a3a11172ccf9b487dfb8322382bbba2",
    ),
    "two_arcs": (
        "283fe7373c4041e96e06892de004d4309d377abea798ad71bc48947727e1b7bd",
        "d98012d83966914c0fd4cb17c2cff09f24837bc9126deec326238bdcf612d1bc",
        "f71882dcaa9a4302e93de916f854b6467ebcd8854c15f05c4aea9a632f3e2f99",
        "f1049a087656f4313d995ade210309cb3fe7d28f87af6f408f4e7a72a63dd119",
        "c0db74a9504ac22302309ed2b07fc64a940825ef5418f9c90facf5a1bc2a5933",
        "69ba5bb42fc36a5862db3a650cb7fd3a08883ab130999c8fd267e818dd47ec2a",
    ),
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_trace_bytes_are_pinned(name):
    digests = []
    for policy, seed in POLICIES:
        net, initial = CATALOG[name]()
        digests.append(hashlib.sha256(serialize_trace(run(net, initial, policy=policy, seed=seed)).encode()).hexdigest())
    assert tuple(digests) == GOLDEN[name]


# sha256 of serialize_net(net, initial) per CATALOG entry: net-document bytes
# are pinned as trace bytes are
GOLDEN_NETS = {
    "aggregator_rollback": "579247ccc707e890cf39d9f5f7f0272b34dd8764281529867d60540a7add9bf6",
    "circuit_breaker": "e30dfa7f42fc4729552d6a678343940c3af44c27c6a08bc3d4698fcd4bb895dd",
    "delayer": "61f13460cdfd10a7bab55ca4c9719f4e6c73b4a2094567e006f89f7aac997b86",
    "halting": "3d4d361952af6650c0cf9c4d50217a43ae3fc745462c8fe29de7533ea21d6bd7",
    "resequencer": "06f22479b18ffc9cd0e9964e3d766b417d63b8c511ca1cccc24871ab4b3c8d3f",
    "router_correct": "b30d024af0295cd13cb64328d58ca28c46cf4170e4dd1ba5f41d441b0e8a025a",
    "router_flawed": "bc81a19a65b49acb60011ee5e1000d1e0e5859a5f5d3a01a3d627997ba2a8fd4",
    "throttler": "67e548de5a41ac3ac24e218c1ebb544d5f0b21cfad2dcbdaa5acf3486966ab87",
    "two_arcs": "f8db3fa54483e316333f4fc5ae9fe4b80b1bf94483d56422d807e54342c37d21",
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_net_bytes_are_pinned(name):
    net, initial = CATALOG[name]()
    assert hashlib.sha256(serialize_net(net, initial).encode()).hexdigest() == GOLDEN_NETS[name]


def test_catalog_covers_rollback_and_halt():
    outcomes = {
        ev.outcome
        for name in ("aggregator_rollback", "halting")
        for ev in _parsed_run(name)[1].events
    }
    assert outcomes == {"committed", "rolled_back", "halted"}


def _mutated(trace, index, **changes):
    events = list(trace.events)
    events[index] = events[index]._replace(**changes)
    return dataclasses.replace(trace, events=tuple(events))


def _first(trace, transition):
    return next(ev for ev in trace.events if ev.transition == transition)


def _absent_token():
    net, tr = _parsed_run("throttler")
    ev = _first(tr, "t_admit")
    (pid, tok), rest = ev.consumed[0], ev.consumed[1:]
    value, at = tok
    gone = (pid, (value, at + 10**6))
    return net, _mutated(tr, ev.step, consumed=(gone,) + rest)


def _one_copy_consumed_twice():
    net = two_arc_net()
    tr = run(net, initial_snapshot(net, tokens={"p": [(1, 0), (2, 0)]}))
    ev = tr.events[0]
    (pid, tok), _ = ev.consumed
    value, _ = tok
    return net, _mutated(tr, 0, consumed=((pid, tok), (pid, tok)), binding=(("x", value), ("y", value)))


def _places_swapped():
    # both tokens are present on both places' pools and satisfy the guard
    # in either order, so only the arc-order check rejects the event
    net = two_arc_net()
    tr = run(net, initial_snapshot(net, tokens={"p1": [(1, 2)], "p2": [(1, 3)]}, clock=6))
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


def _binding_with_extra_variable():
    # a variable that no arc binds, in its sorted place
    net, tr = _parsed_run("throttler")
    ev = _first(tr, "t_admit")
    return net, _mutated(tr, ev.step, binding=tuple(sorted(ev.binding + (("zz", 0),))))


def _binding_missing_variable():
    net, tr = _parsed_run("throttler")
    ev = _first(tr, "t_admit")
    return net, _mutated(tr, ev.step, binding=ev.binding[1:])


def _binding_out_of_order():
    # the recorded pairs, each right, in reverse order
    net, tr = _parsed_run("throttler")
    ev = _first(tr, "t_admit")
    assert len(ev.binding) > 1
    return net, _mutated(tr, ev.step, binding=ev.binding[::-1])


def _consumed_token_of_wrong_type():
    # the capacity token recorded as a str: it does not compare with the
    # int tokens of its pool, so the marking does not hold it
    net, tr = _parsed_run("throttler")
    ev = _first(tr, "t_admit")
    msg, (pid, tok) = ev.consumed
    binding = tuple((k, str(v) if k == "u" else v) for k, v in ev.binding)
    value, at = tok
    wrong = (pid, (str(value), at))
    return net, _mutated(tr, ev.step, consumed=(msg, wrong), binding=binding)


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
        _binding_with_extra_variable,
        _binding_missing_variable,
        _binding_out_of_order,
        _consumed_token_of_wrong_type,
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
    initial = initial_snapshot(timer_net, tokens={"ch2": [("a", 100), ("b", 100)]}, clock=100)
    snap, first = fire(timer_net, initial, "Timer", {"m": "a"}, 300, step=0)
    # fire admits no snapshot rewound before its tokens, so the second
    # event is moved back in time after it is made
    final, second = fire(timer_net, snap, "Timer", {"m": "b"}, 500, step=1)
    tr = Trace(TraceMeta(timer_net.fingerprint(), "eager", None), initial, (first, second._replace(time=200)), final)
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


def _tampered(name, edit):
    """A catalog run's trace as parse_trace reads it, and the same trace
    with ``edit`` applied to its list of JSON records first."""
    net, initial = CATALOG[name]()
    text = serialize_trace(run(net, initial))
    records = [json.loads(line) for line in text.splitlines()]
    edit(records)
    return net, parse_trace(text), parse_trace("\n".join(map(canonical_json, records)) + "\n")


def _refused_alike(net, trace, error, message):
    for replayer in (replay, reference_replay):
        with pytest.raises(error) as got:
            replayer(net, trace)
        assert type(got.value) is error and str(got.value) == message


def test_replay_refuses_an_unknown_transition():
    def rename(records):
        records[1]["transition"] = "t_nope"

    net, _, tr = _tampered("throttler", rename)
    _refused_alike(net, tr, DefinitionError, "trace names unknown transition 't_nope'")


def test_replay_refuses_an_event_that_differs_from_its_recomputation():
    def retell(records):
        assert records[1]["transition"] == "inject"
        (relation, values, at), = records[1]["added"]
        records[1]["added"] = [[relation, values[:-1] + ["zzz"], at]]

    net, recorded, tr = _tampered("throttler", retell)
    want, got = recorded.events[0], tr.events[0]
    assert got != want and got._replace(added=want.added) == want
    _refused_alike(net, tr, FiringError, f"replay: event 0 diverged: {want!r} != {got!r}")


def test_replay_refuses_a_final_snapshot_that_differs():
    def forget(records):
        footer = records[-1]
        footer["final"]["facts"].pop()
        footer["digest"] = hashlib.sha256(canonical_json(footer["final"]).encode()).hexdigest()

    net, recorded, tr = _tampered("throttler", forget)
    assert tr.events == recorded.events and tr.final.instance != recorded.final.instance
    _refused_alike(net, tr, FiringError, "replay: final snapshot diverged from the recorded one")
