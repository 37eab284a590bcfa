"""Control layer: enablement, firing, clock advancement, runs, replay."""

import json
import random
import re
from dataclasses import replace
from enum import IntEnum
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdbnet.engine import (
    FiringError,
    Trace,
    TraceMeta,
    ViewConsistencyError,
    advance_clock,
    enabled,
    fire,
    replay,
    run,
)
from tdbnet import engine
from tdbnet import net as net_module
from tdbnet import persistence
from tdbnet.exprs import Age, Const, DbCount, DefinitionError, Now, Op, Param, Var, Wild
from tdbnet.formats import DocumentError, parse_net, parse_trace, serialize_net, serialize_trace
from tdbnet.net import (
    ActionCall,
    InputArc,
    Marking,
    Net,
    OutputArc,
    Place,
    Snapshot,
    Transition,
    initial_snapshot,
)
from tdbnet.persistence import Action, Atom, Column, FactTemplate, Instance, Query, Relation, Schema
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
from tdbnet.scenarios import halting_bundle
from tdbnet.values import INT, TEXT, product
from tdbnet.workloads import parse_workload


# ---------------------------------------------------------------------------
# enabled


def test_guard_false_never_enabled():
    net = Net(
        places=(Place("p", INT),),
        transitions=(
            Transition("t", inputs=(InputArc("p", Var("x")),), guard=Const(False)),
        ),
        schema=Schema(()),
    )
    snap = initial_snapshot(net, tokens={"p": [(1, 0)]})
    assert enabled(net, snap) == []


def test_empty_marking_not_enabled(timer_net):
    snap = initial_snapshot(timer_net)
    assert enabled(timer_net, snap) == []


def test_view_binding_from_endpoint_fact(trip_net):
    snap = initial_snapshot(
        trip_net, facts=[("Endpoints", ("ep1", 6), 0), ("Endpoints", ("ep2", 2), 0)]
    )
    assert enabled(trip_net, snap) == [("trip", {"epid": "ep1", "nexc": 6}, 0)]


def test_unbound_variable_rejected_with_names():
    net = Net(
        places=(Place("p", INT), Place("q", INT)),
        transitions=(
            Transition(
                "leaky",
                inputs=(InputArc("p", Var("x")),),
                outputs=(OutputArc("q", Var("z")),),
            ),
        ),
        schema=Schema(()),
    )
    snap = initial_snapshot(net, tokens={"p": [(1, 0)]})
    with pytest.raises(DefinitionError) as err:
        enabled(net, snap)
    assert "leaky" in str(err.value) and "'z'" in str(err.value)


# ---------------------------------------------------------------------------
# fire


def test_timer_fires_at_window_and_stamps_token(timer_net):
    snap = initial_snapshot(timer_net, tokens={"ch2": [("msg", 0)]})
    after, ev = fire(timer_net, snap, "Timer", {"m": "msg"}, at=200)
    assert ev.time == 200 and ev.outcome == "committed"
    assert ev.consumed == (("ch2", ("msg", 0)),)
    assert ev.produced == (("ch3", ("msg", 200)),)
    assert after.marking.tokens("ch3") == (("msg", 200),)
    assert after.clock == 200
    # no action calls: the database is untouched
    assert ev.added == () and ev.deleted == ()
    assert after.instance == snap.instance


def test_fire_outside_delay_window_rejected(timer_net):
    snap = initial_snapshot(timer_net, tokens={"ch2": [("msg", 0)]})
    with pytest.raises(FiringError):
        fire(timer_net, snap, "Timer", {"m": "msg"}, at=199)
    with pytest.raises(FiringError):
        fire(timer_net, snap, "Timer", {"m": "msg"}, at=201)


def test_fire_unknown_or_disabled_rejected(timer_net):
    snap = initial_snapshot(timer_net, tokens={"ch2": [("msg", 0)]})
    with pytest.raises(DefinitionError):
        fire(timer_net, snap, "NoSuch", {}, at=0)
    with pytest.raises(FiringError):
        fire(timer_net, snap, "Timer", {"m": "other"}, at=200)


def _rollback_net():
    kv = Relation("kv", (Column("k", INT),), ("k",))
    add = Action("add_kv", params=(("k", INT),), adds=(FactTemplate("kv", (Param("k"),)),))
    t = Transition(
        "write",
        inputs=(InputArc("ch", Var("k")),),
        actions=(ActionCall("add_kv", (Var("k"),)),),
        rollbacks=(OutputArc("retry", Var("k")),),
    )
    return Net(
        places=(Place("ch", INT), Place("retry", INT)),
        transitions=(t,),
        schema=Schema((kv,)),
        actions=(add,),
    )


def test_rollback_arc_requeues_token_and_keeps_instance():
    net = _rollback_net()
    snap = initial_snapshot(net, facts=[("kv", (1,), 0)], tokens={"ch": [(1, 0)]})
    after, ev = fire(net, snap, "write", {"k": 1}, at=0)
    assert ev.outcome == "rolled_back"
    assert ev.added == () and ev.deleted == ()
    assert after.instance == snap.instance
    assert after.marking.tokens("retry") == ((1, 0),)
    assert after.marking.tokens("ch") == ()


def test_violation_without_rollback_halts_frozen():
    bundle = halting_bundle()
    tr = run(bundle.net, bundle.initial)
    assert [ev.outcome for ev in tr.events] == ["committed", "halted"]
    # frozen at the last committed instance: exactly one kv row
    assert tr.final.instance.match_values("kv", None) == [(1,)]
    assert tr.final.clock == tr.events[-1].time


# ---------------------------------------------------------------------------
# advance_clock


def test_advance_clock_immediate_when_tmin_zero(trip_net):
    snap = initial_snapshot(trip_net, facts=[("Endpoints", ("ep1", 6), 0)], clock=40)
    assert advance_clock(trip_net, snap) == 40


def test_advance_clock_timer_window(timer_net):
    snap = initial_snapshot(timer_net, tokens={"ch2": [("m", 0)]}, clock=50)
    assert advance_clock(timer_net, snap) == 250


def test_advance_clock_quiescent(timer_net):
    snap = initial_snapshot(timer_net)
    assert advance_clock(timer_net, snap) is None


# ---------------------------------------------------------------------------
# run


def test_run_on_empty_marking_produces_no_events(timer_net):
    tr = run(timer_net, initial_snapshot(timer_net))
    assert tr.events == ()
    assert tr.final == tr.initial


def test_run_rejects_unknown_policy(timer_net):
    with pytest.raises(ValueError):
        run(timer_net, initial_snapshot(timer_net), policy="chaotic")


def test_run_max_steps_caps_execution():
    bundle = build_throttler(5)
    arrivals = parse_workload("throttler", "burst:10@0")
    tr = run(bundle.net, with_workload(bundle, arrivals), max_steps=3)
    assert len(tr.events) == 3


def test_run_until_bounds_the_clock():
    bundle = build_throttler(5)
    arrivals = parse_workload("throttler", "burst:10@0")
    tr = run(bundle.net, with_workload(bundle, arrivals), until=400)
    assert tr.final.clock <= 400


def _throttled_trace(policy="eager", seed=None):
    bundle = build_throttler(5)
    arrivals = parse_workload("throttler", "burst:8@0")
    return bundle, run(bundle.net, with_workload(bundle, arrivals), policy=policy, seed=seed)


def test_trace_times_monotone_and_tokens_stamped():
    _, tr = _throttled_trace()
    times = [ev.time for ev in tr.events]
    assert times == sorted(times)
    for ev in tr.events:
        for _pid, tok in ev.produced:
            assert tok[1] == ev.time
        for rel, values, at in ev.added:
            assert at == ev.time


def test_conservation_consumed_matches_input_inscriptions():
    from tdbnet.exprs import match_pattern

    bundle, tr = _throttled_trace()
    by_id = {t.id: t for t in bundle.net.transitions}
    for ev in tr.events:
        t = by_id[ev.transition]
        env = dict(ev.binding)
        assert len(ev.consumed) == len(t.inputs)
        for (pid, tok), arc in zip(ev.consumed, t.inputs):
            assert pid == arc.place
            got = match_pattern(arc.pattern, tok[0], {})
            assert got is not None
            for name, value in got.items():
                assert env[name] == value


def test_replay_reproduces_final_snapshot():
    bundle, tr = _throttled_trace()
    final = replay(bundle.net, tr)  # verify=True raises on any divergence
    assert final.instance == tr.final.instance
    assert final.marking == tr.final.marking
    assert final.clock == tr.final.clock


def test_same_seed_same_bytes_different_seed_allowed_to_differ():
    _, a = _throttled_trace(policy="random", seed=11)
    _, b = _throttled_trace(policy="random", seed=11)
    assert serialize_trace(a) == serialize_trace(b)
    _, c = _throttled_trace()
    _, d = _throttled_trace()
    assert serialize_trace(c) == serialize_trace(d)


def test_run_with_view_checks_passes_on_catalog_pattern():
    bundle = build_throttler(5)
    arrivals = parse_workload("throttler", "burst:5@0")
    tr = run(bundle.net, with_workload(bundle, arrivals), check_views=True)
    assert any(ev.outcome == "committed" for ev in tr.events)


def test_run_rejects_non_compliant_initial_instance():
    bundle = halting_bundle()
    kv = bundle.net.schema.relation("kv")
    from tdbnet.persistence import Instance

    broken = Instance(bundle.net.schema, {"kv": [((1,), 0), ((1,), 5)]})
    with pytest.raises(DefinitionError):
        run(bundle.net, Snapshot(broken, bundle.initial.marking, 0))
    assert kv.key == ("k",)


def test_fire_rejects_non_compliant_snapshot():
    bundle = halting_bundle()
    from tdbnet.persistence import Instance

    broken = Instance(bundle.net.schema, {"kv": [((1,), 0), ((1,), 5)]})
    snap = Snapshot(broken, bundle.initial.marking, 0)
    with pytest.raises(DefinitionError, match="violates constraints"):
        fire(bundle.net, snap, "write", {"k": 1}, at=0)
    # also for a transition whose actions never touch the broken relation
    kv = bundle.net.schema.relation("kv")
    net = Net(
        places=(Place("p", INT),),
        transitions=(Transition("t", inputs=(InputArc("p", Var("x")),)),),
        schema=Schema((kv,)),
    )
    marked = initial_snapshot(net, tokens={"p": [(1, 0)]})
    fire(net, marked, "t", {"x": 1}, at=0)
    with pytest.raises(DefinitionError, match="violates constraints"):
        fire(net, Snapshot(broken, marked.marking, 0), "t", {"x": 1}, at=0)


def test_copied_view_out_of_step_with_its_relation_is_rejected():
    # firings patch v from row deltas, so v missing R's row would make the
    # deletion of that row fail; every entry point rejects it up front
    drop = Action("drop", params=(("k", INT),), dels=(FactTemplate("R", (Param("k"),)),))
    net = Net(
        places=(Place("p", INT), Place("v", INT, kind="view", query="q")),
        transitions=(Transition("t", inputs=(InputArc("p", Var("x")),), actions=(ActionCall("drop", (Var("x"),)),)),),
        schema=Schema((Relation("R", (Column("k", INT),), ("k",)),)),
        queries=(Query("q", atoms=(Atom("R", (Var("k"),)),), output=("k",)),),
        actions=(drop,),
    )
    good = initial_snapshot(net, facts=[("R", (1,), 0)], tokens={"p": [(1, 0)]})
    assert [ev.deleted for ev in run(net, good).events] == [(("R", (1,), 0),)]
    stale = Snapshot(good.instance, Marking({"p": [(1, 0)]}), 0)
    for entry in (run, enabled, advance_clock, lambda net, snap: fire(net, snap, "t", {"x": 1}, at=0)):
        with pytest.raises(DefinitionError, match="view place 'v': its tokens are not the rows of its query 'q'"):
            entry(net, stale)


def test_a_phantom_token_on_a_projection_view_is_rejected():
    # u projects r, so it is evaluated again when r changes, not patched;
    # a token on it that is no row of its query was fired from, three times
    # over, by a run bounded at three steps
    net = Net(
        places=(Place("u", INT, kind="view", query="q_a"), Place("o", INT)),
        transitions=(Transition("t", inputs=(InputArc("u", Var("y")),), outputs=(OutputArc("o", Var("y")),)),),
        schema=Schema((Relation("r", (Column("a", INT), Column("b", INT)), ("a",)),)),
        queries=(Query("q_a", atoms=(Atom("r", (Var("a"), Wild())),), output=("a",)),),
    )
    empty = initial_snapshot(net)
    phantom = Snapshot(empty.instance, Marking({"u": [(5, 0)]}), 0)
    entries = (
        lambda snap: run(net, snap, max_steps=3),
        lambda snap: enabled(net, snap),
        lambda snap: advance_clock(net, snap),
        lambda snap: fire(net, snap, "t", {"y": 5}, at=0),
        lambda snap: replay(net, Trace(TraceMeta(net.fingerprint(), "eager", None), snap, (), snap)),
    )
    for entry in entries:
        with pytest.raises(DefinitionError, match="^view place 'u': its tokens are not the rows of its query 'q_a'$"):
            entry(phantom)
    assert run(net, empty).events == ()


@pytest.mark.parametrize("delay", [(0.5, 1), (True, 1), (0, 1.0)], ids=["float-low", "bool-low", "float-high"])
def test_a_delay_bound_that_is_not_an_int_is_rejected(delay):
    # a float bound made the eager run fire at 0.5, in a trace its own
    # parser rejects, and the random policy die in randrange
    with pytest.raises(DefinitionError, match=r"^transition 't': bad delay window"):
        Transition("t", delay=delay)


def _int_place_net():
    return Net(
        places=(Place("p", INT), Place("q", INT)),
        transitions=(
            Transition(
                "t",
                inputs=(InputArc("p", Var("x")),),
                delay=(5, 5),
                outputs=(OutputArc("q", Var("x")),),
            ),
        ),
        schema=Schema(()),
    )


def _mixed_colors(net):
    # a bool token on an INT place: it compares with the int, so the
    # marking holds it, and only the colour check rejects it
    good = initial_snapshot(net, tokens={"p": [(1, 0)]})
    return Snapshot(good.instance, Marking({"p": [(1, 0), (True, 0)]}), 0)


def _replay_parsed(net):
    snap = _mixed_colors(net)
    text = serialize_trace(Trace(TraceMeta(net.fingerprint(), "eager", None), snap, (), snap))
    replay(net, parse_trace(text))


def _parse_net_doc(net):
    doc = json.loads(serialize_net(net, initial_snapshot(net, tokens={"p": [(1, 0)]})))
    doc["initial_marking"]["p"].append({"value": True, "at": 0})
    parse_net(json.dumps(doc))


@pytest.mark.parametrize(
    "entry,error",
    [
        (lambda net: initial_snapshot(net, tokens={"p": [(1, 0), (True, 0)]}), DefinitionError),
        (_parse_net_doc, DocumentError),
        (lambda net: run(net, _mixed_colors(net)), DefinitionError),
        (lambda net: fire(net, _mixed_colors(net), "t", {"x": 1}, at=5), DefinitionError),
        (
            lambda net: replay(
                net, Trace(TraceMeta(net.fingerprint(), "eager", None), _mixed_colors(net), (), _mixed_colors(net))
            ),
            DefinitionError,
        ),
        (_replay_parsed, DefinitionError),
        (lambda net: enabled(net, _mixed_colors(net)), DefinitionError),
        (lambda net: advance_clock(net, _mixed_colors(net)), DefinitionError),
    ],
    ids=["initial_snapshot", "parse_net", "run", "fire", "replay", "replay_parsed", "enabled", "advance_clock"],
)
def test_token_of_the_wrong_color_is_rejected(entry, error):
    with pytest.raises(error, match=r"place 'p': token \(True, 0\) does not fit"):
        entry(_int_place_net())


class _Level(IntEnum):
    LOW = 1


class _Name(str):
    pass


def _subclassed(kind):
    """A snapshot of ``_int_place_net`` over a ``names`` relation that
    holds an ``IntEnum`` token or a ``str``-subclass fact."""
    net = replace(_int_place_net(), schema=Schema((Relation("names", (Column("n", TEXT),), ("n",)),)))
    if kind == "token":
        return net, Snapshot(Instance(net.schema), Marking({"p": [(_Level.LOW, 0)]}), 0)
    return net, Snapshot(Instance(net.schema, {"names": [((_Name("a"),), 0)]}), Marking({"p": [(1, 0)]}), 0)


def _replay_snapshot(net, snap):
    replay(net, Trace(TraceMeta(net.fingerprint(), "eager", None), snap, (), snap))


@pytest.mark.parametrize(
    "kind,message",
    [
        ("token", r"place 'p': token \(<_Level.LOW: 1>, 0\) does not fit its color"),
        ("fact", r"type constraint on 'names': column 'n' expects text, got 'a'"),
    ],
)
@pytest.mark.parametrize(
    "entry",
    [
        lambda net, snap: initial_snapshot(
            net,
            facts=[("names", values, at) for _, values, at in snap.instance.all_rows()],
            tokens={"p": snap.marking.tokens("p")},
        ),
        lambda net, snap: run(net, snap),
        lambda net, snap: fire(net, snap, "t", {"x": 1}, at=5),
        _replay_snapshot,
        enabled,
        advance_clock,
    ],
    ids=["initial_snapshot", "run", "fire", "replay", "enabled", "advance_clock"],
)
def test_subclass_values_are_rejected(entry, kind, message):
    # colours are exact types: an IntEnum is no int value and a str
    # subclass no text value, though isinstance accepts both
    with pytest.raises(DefinitionError, match=message):
        entry(*_subclassed(kind))


# ---------------------------------------------------------------------------
# guard solving in runs


def _guarded_net(guard, delay):
    return Net(
        places=(Place("p", INT), Place("q", INT)),
        transitions=(
            Transition(
                "t",
                inputs=(InputArc("p", Var("m")),),
                guard=guard,
                delay=delay,
                outputs=(OutputArc("q", Var("m")),),
            ),
        ),
        schema=Schema(()),
    )


def test_random_policy_fires_only_where_the_guard_holds():
    # Known bug A: the random policy drew the firing time from the whole
    # delay window, past the guard's deadline, so replay rejected the trace.
    net = _guarded_net(Op("<", (Age("m"), Const(10))), (0, 50))
    snap = initial_snapshot(net, tokens={"p": [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]})
    for seed in range(20):
        tr = run(net, snap, policy="random", seed=seed)
        assert len(tr.events) == 5
        assert all(ev.time < 10 for ev in tr.events)
        replay(net, tr)


def test_random_draw_covers_the_windows_true_points():
    # one candidate: the pair draw is randrange(1), then the time draw is
    # clock + randint(lo, hi) when the guard holds on the whole window
    always = _guarded_net(Const(True), (0, 3))
    snap = initial_snapshot(always, tokens={"p": [(1, 0)]})
    for seed in range(20):
        rng = random.Random(seed)
        rng.randrange(1)
        tr = run(always, snap, policy="random", seed=seed)
        assert [ev.time for ev in tr.events] == [rng.randint(0, 3)]
    # true on the window's points 0, 2 and 3: the draw ranges over them all
    gap = _guarded_net(Op("!=", (Age("m"), Const(1))), (0, 3))
    snap = initial_snapshot(gap, tokens={"p": [(1, 0)]})
    times = {run(gap, snap, policy="random", seed=seed).events[0].time for seed in range(40)}
    assert times == {0, 2, 3}


def test_random_policy_waits_until_the_window_meets_the_guard():
    # true on [.., 15] and [30, ..]: from clock 0 the window [20, 25] misses
    # both, from clock 5 on it reaches 30
    guard = Op("or", (Op("<=", (Now(), Const(15))), Op(">=", (Now(), Const(30)))))
    net = _guarded_net(guard, (20, 25))
    snap = initial_snapshot(net, tokens={"p": [(1, 0)]})
    for seed in range(5):
        tr = run(net, snap, policy="random", seed=seed)
        assert [ev.time for ev in tr.events] == [30]
        replay(net, tr)
    # a window that can never meet the guard leaves the run quiescent
    never = _guarded_net(Op("<", (Age("m"), Const(10))), (20, 30))
    tr = run(never, initial_snapshot(never, tokens={"p": [(1, 0)]}), policy="random", seed=0)
    assert tr.events == ()


def test_truth_value_operand_is_solved_under_both_policies():
    # a validated guard that compares a time-dependent truth value
    fresh = Op("<", (Age("m"), Const(10)))
    net = _guarded_net(Op("=", (fresh, Const(True))), (0, 50))
    snap = initial_snapshot(net, tokens={"p": [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]})
    eager = run(net, snap)
    assert [ev.time for ev in eager.events] == [0] * 5
    replay(net, eager)
    for seed in range(5):
        tr = run(net, snap, policy="random", seed=seed)
        assert len(tr.events) == 5 and all(ev.time < 10 for ev in tr.events)
        replay(net, tr)


BIG = 2**60


def test_flip_time_exact_at_large_clock_in_runs():
    # Known bug C: float breakpoints lost the flip at this clock, and the run
    # ended quiescent with nothing fired.
    net = _guarded_net(Op(">=", (Now(), Op("+", (Var("m"), Const(3))))), (0, 0))
    snap = initial_snapshot(net, tokens={"p": [(BIG, BIG)]}, clock=BIG)
    assert advance_clock(net, snap) == BIG + 3
    for policy in ("eager", "random"):
        tr = run(net, snap, policy=policy, seed=0)
        assert [ev.time for ev in tr.events] == [BIG + 3]
        replay(net, tr)


def _scheduler_counts(monkeypatch, bundle, kind, spec, policy="eager"):
    """A run of a pattern workload (seed 1 under the random policy), with
    the engine's candidates bound, guard truth sets solved, guards that
    reached ``eval_expr``, ``match_pattern`` calls, the candidates that
    loss detection visited and the random policy's ``pickable`` asks
    counted."""
    counts = dict.fromkeys(("candidates", "solves", "guard_evals", "matches", "losses", "pickable"), 0)
    guards = {id(t.guard) for t in bundle.net.transitions}
    cand, solve, evaluate, match = engine._Cand, engine.guard_truth, engine.eval_expr, engine.match_pattern
    lose = engine._Slot._lose

    class Counted(cand):
        __slots__ = ()

        def __init__(self, *a):
            counts["candidates"] += 1
            super().__init__(*a)

        def pickable(self):
            counts["pickable"] += 1
            return super().pickable()

    def counted_solve(*a, **kw):
        counts["solves"] += 1
        return solve(*a, **kw)

    def counted_eval(e, *a, **kw):
        counts["guard_evals"] += id(e) in guards
        return evaluate(e, *a, **kw)

    def counted_match(*a, **kw):
        counts["matches"] += 1
        return match(*a, **kw)

    def counted_lose(slot, entry):
        counts["losses"] += len(entry.cands)
        return lose(slot, entry)

    monkeypatch.setattr(engine, "_Cand", Counted)
    monkeypatch.setattr(engine, "guard_truth", counted_solve)
    monkeypatch.setattr(engine, "eval_expr", counted_eval)
    monkeypatch.setattr(engine, "match_pattern", counted_match)
    monkeypatch.setattr(engine._Slot, "_lose", counted_lose)
    trace = run(bundle.net, with_workload(bundle, parse_workload(kind, spec)), policy=policy, seed=1)
    return trace, counts


def test_guards_are_solved_once_per_candidate(monkeypatch):
    # A deterministic counter gate: no delayer guard reads a relation, so
    # each candidate's truth set is solved once, when it is bound, and no
    # guard reaches eval_expr.
    tr, counts = _scheduler_counts(monkeypatch, build_delayer(250), "delayer", "steady:50:every:10@0")
    assert len(tr.events) == 100
    assert counts["guard_evals"] == 0
    assert counts["solves"] == counts["candidates"] == 100


@pytest.mark.parametrize(
    "build,kind,spec,candidates,solves",
    [
        (lambda: build_throttler(5), "throttler", "burst:200@0", 600, 600),
        (lambda: build_delayer(250), "delayer", "steady:200:every:10@0", 400, 400),
        (lambda: build_throttler(5), "throttler", "burst:400@0", 1_200, 1_200),
        (lambda: build_delayer(250), "delayer", "steady:400:every:10@0", 800, 800),
    ],
    ids=["throttler", "delayer", "throttler-400", "delayer-400"],
)
def test_candidate_and_match_counts_are_fixed(monkeypatch, build, kind, spec, candidates, solves):
    # A deterministic counter gate on the agenda: candidates are bound once
    # per new token, and the throttler's two-arc t_admit (ch1 x cap) builds
    # only the candidate it fires, the first in canonical order, each time
    # the capacity token returns (joining the returned token with every
    # waiting message bound 20,500 and 81,000); no guard of either net reads
    # a relation, so each truth set is solved once, when its candidate is
    # bound; every arc binds distinct fresh variables by position.
    _, counts = _scheduler_counts(monkeypatch, build(), kind, spec)
    assert (counts["candidates"], counts["solves"]) == (candidates, solves)
    assert counts["matches"] == 0
    assert counts["guard_evals"] == 0


def _rev(n):
    return f"perm:{','.join(map(str, range(n, 0, -1)))}@0"


@pytest.mark.parametrize(
    "build,kind,spec,n,policy",
    [
        (lambda: build_delayer(250), "delayer", "steady:{n}:every:10@0", 200, "eager"),
        (lambda: build_throttler(5), "throttler", "burst:{n}@0", 200, "eager"),
        (build_resequencer, "resequencer", "rev", 100, "eager"),
        (lambda: build_aggregator(timeout=100), "aggregator", "rev", 100, "eager"),
        (lambda: build_aggregator(timeout=100), "aggregator", "rev", 100, "random"),
        (
            lambda: build_circuit_breaker(5, 30, EndpointStub.healthy()),
            "circuit_breaker",
            "steady:{n}:every:1@0",
            100,
            "eager",
        ),
        (
            lambda: build_content_based_router(("gt:10", "lt:100")),
            "router",
            "vals:{vals}@0",
            100,
            "eager",
        ),
    ],
    ids=["delayer", "throttler", "resequencer", "aggregator", "aggregator-random", "circuit-breaker", "router"],
)
def test_guard_solves_scale_linearly(monkeypatch, build, kind, spec, n, policy):
    # Twice the messages cost at most 2.2 times the candidates bound, the
    # truth-set solves and the candidates that loss detection visits.  The
    # full-rescan scheduler solved 40,525 delayer guards at N=200 and
    # 160,725 at N=400; joining each returned capacity token of the
    # throttler with every waiting message bound 3.95 times the candidates
    # at burst:400 as at burst:200; checking every candidate of a slot
    # that lost a token visited 5,152 and 20,302 aggregator candidates
    # (3.9 times) at rev(100) and rev(200).  Under the random policy a
    # candidate is asked whether it is pickable once each time it is
    # settled; asking every candidate at every step asked 21,580 and 94,160
    # times (4.36 times).
    counts = []
    for size in (n, 2 * n):
        workload = _rev(size) if spec == "rev" else spec.format(n=size, vals=",".join(map(str, range(size))))
        counts.append(_scheduler_counts(monkeypatch, build(), kind, workload, policy)[1])
    for counter in ("candidates", "solves", "losses") + (("pickable",) if policy == "random" else ()):
        assert counts[1][counter] <= 2.2 * counts[0][counter], counter


def _order_upkeep(monkeypatch, n):
    """Ranks that the agenda reads to keep its slots' candidates in
    canonical order, during an eager delayer run of ``steady:n``: the
    entries that sorting, inserting into and removing from ``order``
    touch, each read through the key that the slots bisect with."""
    touched = []
    rank = engine._rank

    def counted(cand):
        touched.append(1)
        return rank(cand)

    monkeypatch.setattr(engine, "_rank", counted)
    bundle = build_delayer(250)
    tr = run(bundle.net, with_workload(bundle, parse_workload("delayer", f"steady:{n}:every:10@0")))
    assert len(tr.events) == 2 * n
    return len(touched)


def test_order_upkeep_scales_linearly(monkeypatch):
    # Each inject loses one candidate of the view slot, which holds every
    # message not yet injected; it is removed by bisection on its rank
    # (rebuilding order touched 24,975 entries at N=200 and 90,275 at N=400)
    small, large = (_order_upkeep(monkeypatch, n) for n in (200, 400))
    assert small > 0
    assert large <= 2.2 * small


@pytest.mark.parametrize("n", [200, 400])
def test_copied_views_follow_row_deltas_without_queries(monkeypatch, n):
    # v_inbox copies the inbox relation, so each inject patches it with the
    # one row it deletes: neither run nor replay evaluates a query per
    # firing (the full refresh evaluated q_inbox once per inject), only
    # once when each checks the views of the snapshot it is given
    bundle = build_delayer(250)
    initial = with_workload(bundle, parse_workload("delayer", f"steady:{n}:every:10@0"))
    calls = []
    evaluate = net_module.eval_query
    monkeypatch.setattr(net_module, "eval_query", lambda *a, **kw: calls.append(a) or evaluate(*a, **kw))
    tr = run(bundle.net, initial)
    replay(bundle.net, tr)
    assert len(tr.events) == 2 * n
    assert [query.name for _, query in calls] == ["q_inbox", "q_inbox"]


def test_copied_views_skip_firings_that_leave_their_relation(monkeypatch):
    # each of the breaker's five copied views (v_inbox and the four
    # endpoint views) is patched only by a firing that adds or deletes a row
    # of its relation: once in refresh_views during run, once more in
    # replay (calling view_delta for every copied view on every firing made
    # 15,000 calls per pass)
    bundle = build_circuit_breaker(5, 30, EndpointStub.healthy())
    initial = with_workload(bundle, parse_workload("circuit_breaker", "steady:1000:every:1@0"))
    calls = []
    delta = net_module.view_delta
    monkeypatch.setattr(net_module, "view_delta", lambda *a: calls.append(a) or delta(*a))
    tr = run(bundle.net, initial, max_steps=40_000)
    sources = {source for _, source, _ in net_module.view_places(bundle.net) if source is not None}
    touched = sum(
        len(sources & {rel for rel, _, _ in ev.added + ev.deleted}) for ev in tr.events if ev.outcome == "committed"
    )
    assert len(tr.events) == touched == 3_000
    assert len(calls) == touched
    replay(bundle.net, parse_trace(serialize_trace(tr)))
    assert len(calls) == 2 * touched


CATALOG = [
    (lambda: build_throttler(5), "burst:50@0"),
    (lambda: build_delayer(250), "steady:50:every:10@0"),
    (build_resequencer, _rev(50)),
    (lambda: build_aggregator(timeout=100), _rev(50)),
    (lambda: build_circuit_breaker(5, 30, EndpointStub.healthy()), "steady:50:every:1@0"),
    (lambda: build_content_based_router(("gt:10", "lt:100")), f"vals:{','.join(map(str, range(50)))}@0"),
]
CATALOG_IDS = ["throttler", "delayer", "resequencer", "aggregator", "circuit-breaker", "router"]


@pytest.mark.parametrize("build", [build for build, _ in CATALOG], ids=CATALOG_IDS)
def test_a_firing_plan_lists_the_views_its_actions_can_change(build):
    # the views whose query reads, through an atom or a filter's count, a
    # relation that one of the transition's action templates adds to or
    # deletes from, found by brute force
    net = build().net
    views = [place for place in net.places if place.kind == "view"]
    for t in net.transitions:
        templates = [tmpl for call in t.actions for tmpl in net.action(call.action).adds + net.action(call.action).dels]
        written = {tmpl.relation for tmpl in templates}
        want = []
        for place in views:
            query = net.query(place.query)
            reads = [atom.relation for atom in query.atoms]
            reads += [side.relation for f in query.filters for side in (f.lhs, f.rhs) if type(side) is DbCount]
            if written.intersection(reads):
                want.append(place.id)
        plan = engine._firing(net, t)
        got = [pid for pid, _, _ in plan.copied] + [place.id for place, _ in plan.evaluated]
        assert sorted(got) == sorted(want), t.id
        if not t.actions:
            assert want == []


def test_a_transition_that_writes_no_view_relation_refreshes_no_view(monkeypatch):
    # of the throttler's 600 firings at burst:200, only the 200 injects
    # write a relation a view reads (inbox, under v_inbox): t_admit writes
    # out_log only, and t_release calls no action
    bundle = build_throttler(5)
    initial = with_workload(bundle, parse_workload("throttler", "burst:200@0"))
    calls = []
    refresh = engine.refresh_views
    monkeypatch.setattr(engine, "refresh_views", lambda *a: calls.append(a) or refresh(*a))
    tr = run(bundle.net, initial)
    assert len(tr.events) == 600
    assert len(calls) == sum(ev.transition == "inject" for ev in tr.events) == 200
    replay(bundle.net, parse_trace(serialize_trace(tr)))
    assert len(calls) == 400


@pytest.mark.parametrize("policy", ["eager", "random"])
@pytest.mark.parametrize("build,workload", CATALOG, ids=CATALOG_IDS)
def test_every_catalog_pattern_keeps_its_views_equal_to_their_queries(build, workload, policy):
    # a firing refreshes only the views its plan lists; check_views
    # compares every view place with its query after each committed event
    bundle = build()
    tr = run(bundle.net, with_workload(bundle, parse_workload(bundle.name, workload)), policy=policy, seed=1, check_views=True)
    assert sum(ev.outcome == "committed" for ev in tr.events) >= 50
    assert advance_clock(bundle.net, tr.final) is None


@pytest.mark.parametrize(
    "build,pattern,workload,calls",
    [
        (build_resequencer, "resequencer", _rev(150), 900),
        (lambda: build_throttler(5), "throttler", "burst:200@0", 1_200),
    ],
    ids=["resequencer", "throttler"],
)
def test_one_marking_update_per_firing(monkeypatch, build, pattern, workload, calls):
    # the tokens a firing consumes and produces and the view tokens it
    # loses and gains are one delta, applied to the marking in one call,
    # in run and in replay alike (patching the views took a second call)
    bundle = build()
    initial = with_workload(bundle, parse_workload(pattern, workload))
    counted = []
    updated = Marking.updated
    monkeypatch.setattr(Marking, "updated", lambda self, *a, **kw: counted.append(a) or updated(self, *a, **kw))
    tr = run(bundle.net, initial)
    replay(bundle.net, tr)
    assert len(counted) == 2 * len(tr.events) == calls


@pytest.mark.parametrize(
    "build,pattern,workload,calls",
    [
        (lambda: build_delayer(250), "delayer", "steady:200:every:10@0", 0),
        (lambda: build_throttler(5), "throttler", "burst:200@0", 0),
        (build_resequencer, "resequencer", _rev(150), 300),
    ],
    ids=["delayer", "throttler", "resequencer"],
)
def test_a_firing_evaluates_variables_constants_and_their_tuples_inline(monkeypatch, build, pattern, workload, calls):
    # every action argument and output arc of the delayer and the
    # throttler is a variable, a constant or a tuple of those, which the
    # firing code evaluates inline (the interpreted firing made 1,600 and
    # 2,400 eval_expr calls over the run and its replay); the resequencer's
    # emit passes n + 1, which eval_expr evaluates, once per emit
    bundle = build()
    initial = with_workload(bundle, parse_workload(pattern, workload))
    counted = []
    evaluate = engine.eval_expr
    monkeypatch.setattr(engine, "eval_expr", lambda *a, **kw: counted.append(a[0]) or evaluate(*a, **kw))
    tr = run(bundle.net, initial)
    replay(bundle.net, tr)
    assert len(counted) == calls


def test_transitions_of_one_shape_share_their_firing_code():
    # two transitions that differ only in their ids, places, variable names,
    # constants and actions generate one firing source, compiled once, and
    # their two actions, over relations of equal column types, one update;
    # a transition of another shape has its own
    rels = tuple(Relation(r, (Column("a", INT), Column("b", TEXT)), ("a",)) for r in ("r", "s"))
    acts = tuple(Action(f"put_{r.name}", (("x", INT),), adds=(FactTemplate(r.name, (Param("x"), Const(r.name))),)) for r in rels)

    def fwd(tid, src, dst, var, const, action):
        out = Op("tuple", (Var(var), Const(const)))
        return Transition(tid, inputs=(InputArc(src, Var(var)),), actions=(ActionCall(action, (Var(var),)),), outputs=(OutputArc(dst, out),))

    other = Transition("other", inputs=(InputArc("c", Var("z")), InputArc("e", Var("w"))), outputs=(OutputArc("d", Op("tuple", (Var("z"), Const("k")))),))
    net = Net(
        places=tuple(Place(p, INT) for p in "ace") + tuple(Place(p, product(INT, TEXT)) for p in "bd"),
        transitions=(fwd("t1", "a", "b", "x", "p", "put_r"), fwd("t2", "c", "d", "y", "q", "put_s"), other),
        schema=Schema(rels),
        actions=acts,
    )
    tr = run(net, initial_snapshot(net, tokens={"a": [(1, 0)], "c": [(2, 0)]}))
    assert [ev.produced for ev in tr.events] == [(("b", ((1, "p"), 0)),), (("d", ((2, "q"), 0)),)]
    first, second, third = (engine._firing(net, t).fire for t in net.transitions)
    assert first is not second and first.__code__ is second.__code__
    assert third.__code__ is not first.__code__
    updates = [persistence._plan(net.schema, act, persistence._compile_action) for act in acts]
    assert updates[0] is not updates[1] and updates[0].__code__ is updates[1].__code__


def _rows_inspected(monkeypatch, n):
    """Rows the store inspects during an eager resequencer run of the
    reversed permutation n..1.  An action or ``match_rows`` takes its
    candidate rows from ``bisect_range``, which counts its range ``hi -
    lo``; the range that ``count_matching`` bisects first is not counted,
    since its length is the count, or ``match_rows`` bisects it again and
    inspects it.  A query plan reads the rows it is evaluated on by
    iterating a relation or a slice of one, so ``net.eval_query`` is
    handed an instance whose relations count what those iterations yield;
    single rows read by index are the plan's bisection probes and are not
    counted, as a count filter's range is not."""
    bundle = build_resequencer()
    initial = with_workload(bundle, parse_workload("resequencer", _rev(n)))
    inspected = []
    bisect_range, count_matching = persistence.bisect_range, Instance.count_matching
    eval_query = net_module.eval_query

    def counted(rows, pattern):
        lo, hi, rest = bisect_range(rows, pattern)
        inspected.append(hi - lo)
        return lo, hi, rest

    def count(self, relation, pattern):
        mark = len(inspected)
        got = count_matching(self, relation, pattern)
        del inspected[mark : mark + 1]
        return got

    class Counted(tuple):
        def __iter__(self):
            inspected.append(len(self))
            return tuple.__iter__(self)

        def __getitem__(self, index):
            got = tuple.__getitem__(self, index)
            if type(index) is slice:
                inspected.append(len(got))
            return got

    def evaluated(instance, query, args=()):
        shadow = Instance.__new__(Instance)
        shadow.schema, shadow._count_cache = instance.schema, {}
        shadow._rows = {relation: Counted(rows) for relation, rows in instance._rows.items()}
        return eval_query(shadow, query, args)

    monkeypatch.setattr(persistence, "bisect_range", counted)
    monkeypatch.setattr(Instance, "count_matching", count)
    monkeypatch.setattr(net_module, "eval_query", evaluated)
    tr = run(bundle.net, initial)
    monkeypatch.undo()
    assert len(tr.events) == 3 * n
    return sum(inspected)


def test_store_lookups_scale_linearly(monkeypatch):
    # q_emit joins seqs with msgs on (seq, next) and counts msgs of a seq:
    # range lookups inspect only the matching rows, so twice the messages
    # cost at most 2.2 times the rows (a full scan per lookup grows as N^2)
    small, large = (_rows_inspected(monkeypatch, n) for n in (150, 300))
    assert small > 0
    assert large <= 2.2 * small


# ---------------------------------------------------------------------------
# snapshots and markings


def test_snapshot_clock_never_goes_backwards(timer_net):
    snap = initial_snapshot(timer_net, clock=10)
    assert snap.advanced(15).clock == 15
    with pytest.raises(ValueError):
        snap.advanced(9)


def test_initial_snapshot_rejects_tokens_on_view_places(trip_net):
    with pytest.raises(DefinitionError):
        initial_snapshot(trip_net, tokens={"v_endpoints": [(("ep1", 6), 0)]})


def _view_arc_net(rollback):
    """t: p -> v, where v copies relation r, along an output arc or, with
    ``rollback``, a rollback arc; and u: v -> o."""
    r = Relation("r", (Column("a", INT),), ("a",))
    put = Action("put", params=(("a", INT),), adds=(FactTemplate("r", (Param("a"),)),))
    arc = (OutputArc("v", Var("x")),)
    t = Transition(
        "t",
        inputs=(InputArc("p", Var("x")),),
        outputs=() if rollback else arc,
        rollbacks=arc if rollback else (),
        actions=(ActionCall("put", (Var("x"),)),) if rollback else (),
    )
    return Net(
        places=(Place("p", INT), Place("v", INT, kind="view", query="q_r"), Place("o", INT)),
        transitions=(t, Transition("u", inputs=(InputArc("v", Var("y")),), outputs=(OutputArc("o", Var("y")),))),
        schema=Schema((r,)),
        queries=(Query("q_r", atoms=(Atom("r", (Var("a"),)),), output=("a",)),),
        actions=(put,),
    )


@pytest.mark.parametrize("rollback", [False, True], ids=["output", "rollback"])
def test_arcs_into_view_places_are_rejected(rollback):
    # a token put on a view place is no row of its query; u would consume
    # it or not depending on when its candidates were built
    net = _view_arc_net(rollback)
    initial = initial_snapshot(net, facts=[("r", (1,), 0)], tokens={"p": [(1, 0), (2, 0)]})
    message = "transition 't': arc to view place 'v'"
    with pytest.raises(DefinitionError, match=f"^{message}"):
        run(net, initial, max_steps=5)
    with pytest.raises(DocumentError, match=f"^net: {message}"):
        parse_net(serialize_net(net, initial))


def test_initial_snapshot_rejects_bad_facts(trip_net):
    with pytest.raises(DefinitionError):
        initial_snapshot(trip_net, facts=[("Endpoints", ("ep1",), 0)])


def _future_token_doc(net):
    doc = json.loads(serialize_net(net, initial_snapshot(net, tokens={"p": [(1, 3)]}, clock=3)))
    doc["initial_marking"]["p"].append({"value": 2, "at": 6})
    parse_net(json.dumps(doc))


def _future_token(net):
    # built by hand: initial_snapshot rejects it
    return Snapshot(Instance(net.schema), Marking({"p": [(1, 3), (2, 6)]}), 3)


@pytest.mark.parametrize(
    "entry,error,where",
    [
        (lambda net: initial_snapshot(net, tokens={"p": [(1, 3), (2, 6)]}, clock=3), DefinitionError, ""),
        (_future_token_doc, DocumentError, "initial_instance: "),
        (lambda net: run(net, _future_token(net)), DefinitionError, ""),
        (lambda net: fire(net, _future_token(net), "t", {"x": 2}, at=8), DefinitionError, ""),
        (lambda net: enabled(net, _future_token(net)), DefinitionError, ""),
        (lambda net: advance_clock(net, _future_token(net)), DefinitionError, ""),
        (lambda net: _replay_snapshot(net, _future_token(net)), DefinitionError, ""),
    ],
    ids=["initial_snapshot", "parse_net", "run", "fire", "enabled", "advance_clock", "replay"],
)
def test_token_created_after_the_clock_is_rejected(entry, error, where):
    # its age would start out negative
    message = rf"^{where}place 'p': token \(2, 6\) is created after the snapshot clock 3"
    with pytest.raises(error, match=message):
        entry(_int_place_net())


class _Stamped(NamedTuple):
    value: int
    created_at: int


@pytest.mark.parametrize(
    "entry",
    [1, [1, 0], (1, 0, 0), (1, True), _Stamped(1, 0), ((1, "a"), 0.0), (1, "a")],
    ids=["bare", "list", "triple", "bool-time", "namedtuple", "float-time", "value-alone"],
)
@pytest.mark.parametrize(
    "start",
    [
        lambda net, entry: initial_snapshot(net, tokens={"r": [entry]}),
        lambda net, entry: run(net, Snapshot(Instance(net.schema), Marking({"r": [entry]}), 0)),
        lambda net, entry: enabled(net, Snapshot(Instance(net.schema), Marking({"r": [entry]}), 0)),
        lambda net, entry: _replay_snapshot(net, Snapshot(Instance(net.schema), Marking({"r": [entry]}), 0)),
    ],
    ids=["initial_snapshot", "run", "enabled", "replay"],
)
def test_an_entry_that_is_not_a_token_is_rejected(start, entry):
    # a token is the exact pair (value, created_at); any other entry is
    # rejected where it comes in, never read as a value: (1, "a") is a
    # value of r's colour, not a token, and a NamedTuple is no exact tuple
    net = replace(_int_place_net(), places=(Place("p", INT), Place("q", INT), Place("r", product(INT, TEXT))))
    message = f"place 'r': entry {entry!r} is not a token (value, created_at) with an int created_at"
    with pytest.raises(DefinitionError, match=f"^{re.escape(message)}$"):
        start(net, entry)


def reference_updated(marking, remove=(), add=()):
    """``Marking.updated`` as it was before removals and additions found
    their place by binary search: list removal, then a full sort of every
    touched pool."""
    new = {pid: marking.tokens(pid) for pid in marking.place_ids()}
    touched = set()
    for pid, tok in remove:
        pool = list(new.get(pid, ()))
        pool.remove(tok)  # removal from a sorted tuple stays sorted
        new[pid] = tuple(pool)
    for pid, tok in add:
        new[pid] = new.get(pid, ()) + (tok,)
        touched.add(pid)
    for pid in touched:
        new[pid] = tuple(sorted(new[pid], key=lambda t: (t[0], t[1])))
    return new


SMALL_TOKENS = st.tuples(st.integers(0, 3), st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from("pq"), st.lists(SMALL_TOKENS, max_size=6), max_size=2),
    st.data(),
)
def test_marking_updated_equals_the_reference(pools, data):
    # duplicates, equal values created at different times, and removal of
    # the last copy of a token
    marking = Marking(pools)
    present = [(pid, tok) for pid in marking.place_ids() for tok in marking.tokens(pid)]
    removals = st.lists(st.sampled_from(present), unique_by=lambda pair: id(pair[1])) if present else st.just([])
    remove = data.draw(removals)
    add = data.draw(st.lists(st.tuples(st.sampled_from("pqr"), SMALL_TOKENS), max_size=4))
    got = marking.updated(remove=remove, add=add)
    want = reference_updated(marking, remove, add)
    assert {pid: got.tokens(pid) for pid in got.place_ids()} == {pid: toks for pid, toks in want.items() if toks}
    absent = (9, 9)
    with pytest.raises(ValueError):
        marking.updated(remove=[("p", absent)])


# (values of one colour, values of a colour that does not compare with them)
TOKEN_KINDS = st.sampled_from(
    [
        (st.integers(-2, 2), st.text("ab", max_size=2)),
        (st.text("ab", max_size=2), st.integers(0, 1)),
        (st.booleans(), st.just("x")),
        (st.tuples(st.integers(0, 2), st.sampled_from("ab")), st.integers(0, 1)),
    ]
)


@settings(max_examples=200, deadline=None)
@given(TOKEN_KINDS, st.data())
def test_token_tuple_order_is_the_value_then_time_order(kind, data):
    # a token is a (value, created_at) tuple, so sorting, bisecting and
    # inserting into a pool compare tokens as tuples; that order must be
    # the one of the key (value, created_at), including equal values
    # created at different times
    values, other = kind
    tokens = st.tuples(values, st.integers(0, 2))
    toks = data.draw(st.lists(tokens, max_size=8))
    marking = Marking({"p": toks})
    pool = marking.tokens("p")
    assert pool == tuple(sorted(toks, key=lambda t: (t[0], t[1])))
    probes = data.draw(st.lists(st.sampled_from(toks) | tokens if toks else tokens, max_size=4))
    for probe in probes:
        copies = sum((t[0], t[1]) == (probe[0], probe[1]) for t in pool)
        assert marking.holds("p", probe, copies)
        assert not marking.holds("p", probe, copies + 1)
    # a probe of another type equals no token of the pool
    assert not marking.holds("p", (data.draw(other), 0))
    gone = data.draw(st.lists(st.integers(0, len(pool) - 1), unique=True)) if pool else []
    remove = [("p", pool[i]) for i in gone]
    add = data.draw(st.lists(st.tuples(st.just("p"), tokens), max_size=4))
    got = marking.updated(remove=remove, add=add)
    assert got.tokens("p") == reference_updated(marking, remove, add).get("p", ())


def test_every_place_holds_zero_copies():
    assert Marking({}).holds("p", (0, 0), 0)
    assert Marking({"p": [(0, 0)]}).holds("p", (0, 1), 0)


def test_marking_rejects_values_that_do_not_compare():
    # a pool has no canonical order unless its values compare
    with pytest.raises(DefinitionError, match=r"^place 'p': its token values do not compare"):
        Marking({"p": [(1, 0), ("a", 0)]})


def test_view_consistency_error_is_an_assertion():
    # scenario harnesses catch AssertionError; keep that contract stable
    assert issubclass(ViewConsistencyError, AssertionError)
