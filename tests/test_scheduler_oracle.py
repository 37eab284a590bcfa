"""The engine's agenda against the frozen full-rescan scheduler in
``reference_engine``, and its generated firing and action code against
the frozen interpreted firing there, which the oracle's runs fire through.

Runs must serialize to the same bytes under the eager policy and five
random-policy seeds, ``enabled`` and ``advance_clock`` must agree at every
snapshot a run passes through, on the catalog and on generated nets (whose
example count the ``ci`` Hypothesis profile raises); on generated
transitions the enumerator must return the oracle's sorted candidates,
each of which replay's ``_recorded_cand`` binds back to itself, and the
agenda must reach the same candidates from a delta of tokens.  Where the
eager agenda matches lazily (delay-0 transitions whose arcs bind disjoint
variables), its walk must build the oracle's candidates in the oracle's
order, and stop at the first that holds.
"""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import reference_engine as ref
from test_replay import CATALOG, POLICIES, reference_replay
from tdbnet import engine
from tdbnet.engine import FiringEvent
from tdbnet.exprs import OPERATORS, TRUE, Age, Const, DbCount, DefinitionError, Now, Op, Param, Var, Wild
from tdbnet.formats import parse_net, serialize_net, serialize_trace
from tdbnet.net import (
    ActionCall,
    InputArc,
    Net,
    OutputArc,
    Place,
    Snapshot,
    Transition,
    check_marking,
    initial_snapshot,
    validate_net,
)
from tdbnet.persistence import Action, Atom, Column, FactTemplate, Instance, Query, Relation, Schema, check_compliance
from tdbnet.values import INT, TEXT, product


def _timer(request):
    net = request.getfixturevalue("timer_net")
    return net, initial_snapshot(net, tokens={"ch2": [("a", 0), ("b", 0), ("b", 0)]})


def _trip(request):
    net = request.getfixturevalue("trip_net")
    facts = [("Endpoints", ("ep1", 6), 0), ("Endpoints", ("ep2", 2), 0), ("Endpoints", ("ep3", 9), 0)]
    return net, initial_snapshot(net, facts=facts)


def _tie(request):
    """``a``'s guard starts to hold at 5, when ``b``'s delay window opens."""
    net = Net(
        places=(Place("a_in", INT), Place("b_in", INT), Place("out", INT)),
        transitions=(
            Transition(
                "a",
                inputs=(InputArc("a_in", Var("x")),),
                guard=Op(">=", (Age("x"), Const(5))),
                outputs=(OutputArc("out", Var("x")),),
            ),
            Transition("b", inputs=(InputArc("b_in", Var("y")),), delay=(5, 5), outputs=(OutputArc("out", Var("y")),)),
        ),
        schema=Schema(()),
    )
    return net, initial_snapshot(net, tokens={"a_in": [(1, 0)], "b_in": [(2, 0)]})


# a keyed relation that actions write and guards count
R = Relation("R", (Column("a", INT), Column("b", INT)), ("a",))
PUT = Action("put", params=(("k", INT), ("v", INT)), adds=(FactTemplate("R", (Param("k"), Param("v"))),))
DROP = Action("drop", params=(("k", INT),), dels=(FactTemplate("R", (Param("k"), Wild())),))
ROWS = DbCount("R", (Wild(), Wild()))


def _lapse(request):
    """``t``'s guard holds while a token is younger than 2 or at least 6
    old, and its window opens 3 after enablement.  The token created at 3
    lapses before its window opens at 6, so its onset moves to 9 and it
    fires at 12; the token created at 0 starts to hold at 6 and fires at
    9, when the first one's guard holds again."""
    lapsing = Op("or", (Op("<", (Age("x"), Const(2))), Op(">=", (Age("x"), Const(6)))))
    t = Transition(
        "t", inputs=(InputArc("p", Var("x")),), guard=lapsing, delay=(3, 3), outputs=(OutputArc("out", Var("x")),)
    )
    net = Net(places=(Place("p", INT), Place("out", INT)), transitions=(t,), schema=Schema(()))
    return net, initial_snapshot(net, tokens={"p": [(1, 3), (2, 0)]}, clock=3)


def _rewrite(request):
    """``wait``'s guard reads R, which ``put`` writes at 1 while ``wait``
    sits in its delay window: the truth set is solved again, and the onset
    stays at 0."""
    net = Net(
        places=(Place("p", INT), Place("q", INT), Place("out", INT)),
        transitions=(
            Transition(
                "put",
                inputs=(InputArc("q", Var("k")),),
                delay=(1, 1),
                actions=(ActionCall("put", (Var("k"), Const(1))),),
            ),
            Transition(
                "wait",
                inputs=(InputArc("p", Var("x")),),
                guard=Op("<=", (ROWS, Const(1))),
                delay=(4, 4),
                outputs=(OutputArc("out", Var("x")),),
            ),
        ),
        schema=Schema((R,)),
        actions=(PUT,),
    )
    return net, initial_snapshot(net, tokens={"p": [(1, 0)], "q": [(5, 0)]})


def _toggle(request):
    """At 2, ``a_put`` writes R and ``b_drop`` deletes it again: ``z_wait``
    stops holding for the one step between them, although a transition
    that sorts first fires in that step, so its onset moves from 0 to 2."""
    after = Op(">=", (Now(), Const(2)))
    net = Net(
        places=(Place("p", INT), Place("q", INT), Place("r", INT), Place("out", INT)),
        transitions=(
            Transition(
                "a_put",
                inputs=(InputArc("q", Var("k")),),
                guard=after,
                actions=(ActionCall("put", (Var("k"), Const(1))),),
            ),
            Transition(
                "b_drop",
                inputs=(InputArc("r", Var("k")),),
                guard=Op("and", (after, Op(">=", (ROWS, Const(1))))),
                actions=(ActionCall("drop", (Var("k"),)),),
            ),
            Transition(
                "z_wait",
                inputs=(InputArc("p", Var("x")),),
                guard=Op("=", (ROWS, Const(0))),
                delay=(3, 3),
                outputs=(OutputArc("out", Var("x")),),
            ),
        ),
        schema=Schema((R,)),
        actions=(PUT, DROP),
    )
    return net, initial_snapshot(net, tokens={"p": [(1, 0)], "q": [(7, 0)], "r": [(7, 0)]})


# Two-arc delay-0 transitions whose arcs bind disjoint variables: the eager
# agenda builds their candidates lazily, walking the product of the arcs'
# alpha memories in canonical order up to the first that holds.

PAIR = product(INT, INT)


def _interleave(request):
    """``t`` binds ``a`` and ``z`` on ``p`` and ``m`` on ``q``, so canonical
    order (by a, then m, then z) is not arc-major: the first candidate that
    holds takes ``(0, 5)`` and ``1``, where arc-major order would take
    ``(0, 1)`` and ``2``."""
    t = Transition(
        "t",
        inputs=(InputArc("p", (Var("a"), Var("z"))), InputArc("q", Var("m"))),
        guard=Op("!=", (Op("+", (Var("m"), Var("z"))), Const(2))),
        outputs=(OutputArc("out", Op("tuple", (Var("a"), Var("m")))),),
    )
    net = Net(places=(Place("p", PAIR), Place("q", INT), Place("out", PAIR)), transitions=(t,), schema=Schema(()))
    return net, initial_snapshot(net, tokens={"p": [((0, 5), 0), ((0, 1), 0), ((1, 0), 0), ((0, 1), 0)], "q": [(2, 0), (1, 0), (1, 0), (3, 0)]})


def _twins(request):
    """Both arcs of ``t`` take from ``p``, which holds two copies of some
    tokens and one of others: a pair of equal tokens needs two copies."""
    t = Transition(
        "t",
        inputs=(InputArc("p", Var("x")), InputArc("p", Var("y"))),
        guard=Op("<=", (Var("x"), Var("y"))),
        outputs=(OutputArc("out", Op("tuple", (Var("x"), Var("y")))),),
    )
    net = Net(places=(Place("p", INT), Place("out", PAIR)), transitions=(t,), schema=Schema(()))
    born = [(1, 0), (1, 0), (2, 0), (2, 1), (3, 0), (3, 0), (4, 2)]
    return net, initial_snapshot(net, tokens={"p": born}, clock=2)


def _late_count(request):
    """``b_pair`` holds only for an ``x`` that R counts, which at first is
    only the last ``x`` in canonical order; ``a_put`` writes a row for
    ``x = 0`` at 3, and the candidates of 0 then hold."""
    net = Net(
        places=(Place("p", INT), Place("q", INT), Place("s", INT), Place("out", INT)),
        transitions=(
            Transition("a_put", inputs=(InputArc("s", Var("k")),), delay=(3, 3), actions=(ActionCall("put", (Var("k"), Const(1))),)),
            Transition(
                "b_pair",
                inputs=(InputArc("p", Var("x")), InputArc("q", Var("y"))),
                guard=Op(">=", (DbCount("R", (Var("x"), Wild())), Const(1))),
                outputs=(OutputArc("out", Var("y")),),
            ),
        ),
        schema=Schema((R,)),
        actions=(PUT,),
    )
    return net, initial_snapshot(net, facts=[("R", (2, 1), 0)], tokens={"p": [(0, 0), (1, 0), (2, 0)], "q": [(5, 0), (6, 0), (7, 0)], "s": [(0, 0)]})


def _late_now(request):
    """``t`` holds once ``now() + x >= 4``, so at 0 only the last ``x`` in
    canonical order holds and the others follow as the clock passes; each
    firing returns its ``y`` to ``q`` as a new token."""
    t = Transition(
        "t",
        inputs=(InputArc("p", Var("x")), InputArc("q", Var("y"))),
        guard=Op(">=", (Op("+", (Now(), Var("x"))), Const(4))),
        outputs=(OutputArc("q", Var("y")), OutputArc("out", Var("x"))),
    )
    net = Net(places=(Place("p", INT), Place("q", INT), Place("out", INT)), transitions=(t,), schema=Schema(()))
    return net, initial_snapshot(net, tokens={"p": [(1, 0), (2, 0), (4, 0), (1, 0)], "q": [(1, 0), (2, 0), (3, 0)]})


def _source(request):
    """``tick`` has no input arcs: its one candidate binds nothing, and it
    fires while R counts fewer than three rows, keying each new row by that
    count; ``take`` consumes what it emits, two time units later."""
    net = Net(
        places=(Place("out", INT),),
        transitions=(
            Transition(
                "take",
                inputs=(InputArc("out", Var("x")),),
                delay=(2, 2),
                guard=Op(">=", (Age("x"), Const(2))),
            ),
            Transition(
                "tick",
                guard=Op("<", (ROWS, Const(3))),
                actions=(ActionCall("put", (ROWS, Const(1))),),
                outputs=(OutputArc("out", ROWS),),
            ),
        ),
        schema=Schema((R,)),
        actions=(PUT,),
    )
    return net, initial_snapshot(net)


def _shared(request):
    """``t``'s two tokens on ``p`` share the binding ``x = 1``.  Its guard
    holds while a token is 5 to 9 or at least 11 old, and its window opens
    1 after the clock, so the token created at 0 is pickable on [5, 8] and
    from 11 on, the one created at 3 on [8, 11] and from 14 on.  ``tick``
    lets time pass one instant per firing, and its 16 bindings make a draw
    of ``t`` rare."""
    aged = Op("or", (Op("<", (Age("x"), Const(10))), Op(">=", (Age("x"), Const(11)))))
    net = Net(
        places=(Place("p", INT), Place("q", INT), Place("out", INT)),
        transitions=(
            Transition("tick", inputs=(InputArc("q", Var("k")),), delay=(1, 1)),
            Transition(
                "t",
                inputs=(InputArc("p", Var("x")),),
                guard=Op("and", (Op(">=", (Age("x"), Const(5))), aged)),
                delay=(1, 1),
                outputs=(OutputArc("out", Var("x")),),
            ),
        ),
        schema=Schema(()),
    )
    return net, initial_snapshot(net, tokens={"p": [(1, 0), (1, 3)], "q": [(i, 3) for i in range(16)]}, clock=3)


NETS = {name: (lambda request, make=make: make()) for name, make in CATALOG.items()}
NETS.update(timer=_timer, trip=_trip, tie=_tie, lapse=_lapse, rewrite=_rewrite, toggle=_toggle)
NETS.update(interleave=_interleave, twins=_twins, late_count=_late_count, late_now=_late_now, source=_source)
NETS.update(shared=_shared)


def _snapshots(net, trace):
    """The initial snapshot, then each event's snapshot at its firing time
    and after it."""
    snap = trace.initial
    yield snap
    by_id = {t.id: t for t in net.transitions}
    for ev in trace.events:
        if ev.time > snap.clock:
            snap = snap.advanced(ev.time)
            yield snap
        cand = engine._recorded_cand(net, snap, by_id[ev.transition], ev)
        snap, _, _ = engine._execute(net, snap, cand, ev.time, ev.step)
        yield snap


def _agree(net, initial, policy, seed, max_steps):
    # the oracle fires through its frozen interpreted firing, so the trace
    # bytes compare the generated firing and action code with it; both
    # maintain views through the shared refresh_views, so only check_views
    # compares the maintained views with their queries
    got = engine.run(net, initial, policy=policy, seed=seed, max_steps=max_steps, check_views=True)
    want = ref.run(net, initial, policy=policy, seed=seed, max_steps=max_steps)
    assert serialize_trace(got) == serialize_trace(want)
    clock = initial.clock
    for snap in _snapshots(net, got):
        # every snapshot keeps its keys, and time never runs backwards
        assert check_compliance(snap.instance) == []
        assert snap.clock >= clock
        clock = snap.clock
        assert engine.enabled(net, snap) == ref.enabled(net, snap)
        assert engine.advance_clock(net, snap) == ref.advance_clock(net, snap)
    return got


@pytest.mark.parametrize("policy,seed", POLICIES)
@pytest.mark.parametrize("name", sorted(NETS))
def test_runs_and_queries_equal_the_oracle(request, name, policy, seed):
    net, initial = NETS[name](request)
    # trip reads a view place without consuming it, so it never stops
    _agree(net, initial, policy, seed, 100)


@pytest.mark.parametrize("policy,seed", POLICIES)
def test_a_transition_without_inputs_fires_and_replays(request, policy, seed):
    net, initial = _source(request)
    tr = _agree(net, initial, policy, seed, 100)
    assert [ev.transition for ev in tr.events].count("tick") == 3
    assert all(ev.binding == () and ev.consumed == () for ev in tr.events if ev.transition == "tick")
    final = engine.replay(net, tr)
    assert final.instance == tr.final.instance and final.marking == tr.final.marking
    assert reference_replay(net, tr).instance == tr.final.instance


def test_delayed_candidate_due_at_a_flip_fires_first(request):
    # The eager policy compares the least due time with the first flip of
    # a guard: a delayed candidate due at t fires at t before a delay-0
    # candidate whose guard starts to hold at t, whatever their ids; the
    # latter competes only once the clock stands at t.
    net, initial = _tie(request)
    tr = engine.run(net, initial)
    assert [(ev.transition, ev.time) for ev in tr.events] == [("b", 5), ("a", 5)]


def test_a_shared_binding_passes_its_first_between_tokens(request):
    # Under the random policy a binding is drawn once, through the first of
    # its candidates that is pickable.  The token created at 0 leads until
    # it stops being pickable at 9, the one created at 3 then moves up, and
    # at 11 the first returns and takes its place again.  The pickable sets
    # differ from the truth sets (the first token's guard still holds at
    # 9), and the runs first draw ``t`` at each stage.
    net, initial = _shared(request)
    agenda = engine.Agenda(net, initial, "random")
    (t,) = [tr for tr in net.transitions if tr.id == "t"]
    firsts = []
    for clock in range(3, 16):
        agenda.snap = initial.advanced(clock)
        slot = agenda.slot(t)
        slot.observe(clock)
        firsts.append([c.matches[0][1][1] for c in slot.ready])
    assert firsts == [[]] * 2 + [[0]] * 4 + [[3]] * 2 + [[0]] * 5
    stages = set()
    for seed in range(12):
        got = engine.run(net, initial, policy="random", seed=seed)
        assert serialize_trace(got) == serialize_trace(ref.run(net, initial, policy="random", seed=seed))
        first = next(ev for ev in got.events if ev.transition == "t")
        stages.add((first.consumed[0][1][1], first.time >= 12))
    assert stages == {(0, False), (3, False), (0, True)}


@pytest.mark.parametrize(
    "name,fired",
    [
        ("lapse", [("t", 9), ("t", 12)]),
        ("rewrite", [("put", 1), ("wait", 4)]),
        ("toggle", [("a_put", 2), ("b_drop", 2), ("z_wait", 5)]),
    ],
)
def test_onsets_follow_the_steps(request, name, fired):
    # an onset survives only while its candidate holds at every step
    net, initial = NETS[name](request)
    tr = engine.run(net, initial)
    assert [(ev.transition, ev.time) for ev in tr.events] == fired


@pytest.mark.parametrize("name,built", [("interleave", 5), ("twins", 3), ("late_count", 7), ("late_now", 9)])
def test_the_walk_builds_candidates_up_to_the_first_that_holds(monkeypatch, request, name, built):
    # The eager agenda walks these transitions' alpha memories and builds
    # only the candidates it reaches, where joining the initial pools binds
    # 9, 22, 9 and 9: interleave and twins build one or two per firing,
    # late_count builds 7 in its first step (the two others lose their
    # token to that firing), and late_now 9 in all, over tokens that its
    # firings return to q.
    net, initial = NETS[name](request)
    count = []
    build = engine._Slot._build

    def counted(slot, entries, snapshot):
        count.append(slot.t.id)
        return build(slot, entries, snapshot)

    monkeypatch.setattr(engine._Slot, "_build", counted)
    tr = engine.run(net, initial)
    assert len(count) == built
    assert serialize_trace(tr) == serialize_trace(ref.run(net, initial))


@pytest.mark.parametrize("puts", range(60, 64))
def test_heaps_stay_bounded_when_a_read_relation_changes_every_step(monkeypatch, puts):
    # ``a_put`` writes R at each of the first steps at clock 20, so the 20
    # candidates of the delayed ``b_wait``, whose guard reads R, are solved
    # and settled again at every step, each pushing a ``wait`` entry (at
    # times that fall in canonical order); without reclaiming the outdated
    # ones the heaps grow by 20 entries per step, and then by 40 while the
    # candidates hold and wait for their window.  Four run lengths let the
    # last write meet a rebuild.
    aged = Op("and", (Op(">=", (Age("x"), Const(25))), Op("<", (Now(), Const(10**6)))))
    waiting = Op("and", (Op(">=", (ROWS, Const(0))), aged))
    net = Net(
        places=(Place("p", INT), Place("q", INT), Place("out", INT)),
        transitions=(
            Transition("a_put", inputs=(InputArc("q", Var("k")),), actions=(ActionCall("put", (Var("k"), Const(1))),)),
            Transition(
                "b_wait", inputs=(InputArc("p", Var("x")),), guard=waiting, delay=(5, 5), outputs=(OutputArc("out", Var("x")),)
            ),
        ),
        schema=Schema((R,)),
        actions=(PUT,),
    )
    born = [(i, 19 - i) for i in range(20)]
    initial = initial_snapshot(net, tokens={"p": born, "q": [(i, 20) for i in range(puts)]}, clock=20)
    entries = []
    observe = engine._Slot.observe

    def counted_observe(slot, at):
        observe(slot, at)
        if slot.t.id == "b_wait":
            entries.append(len(slot.wait) + len(slot.hold) + len(slot.due))

    monkeypatch.setattr(engine._Slot, "observe", counted_observe)
    tr = engine.run(net, initial)
    assert [ev.transition for ev in tr.events] == ["a_put"] * puts + ["b_wait"] * 20
    assert len(entries) >= puts and max(entries) <= 4 * 20 + 64
    assert serialize_trace(tr) == serialize_trace(ref.run(net, initial))


# ---------------------------------------------------------------------------
# generated transitions

SMALL = st.integers(0, 2)
VARS = st.sampled_from(("x", "y", "z", "w")).map(Var)
TERMS = st.one_of(VARS, st.one_of(SMALL.map(Const), st.just(Wild())))
PAIRS = st.tuples(TERMS, TERMS)
PATTERNS = {
    "p": st.one_of(TERMS, PAIRS),
    # a whole-tuple variable, a pair of terms, or a tuple of the wrong width
    "r": st.one_of(VARS, PAIRS, PAIRS, st.lists(TERMS, min_size=1, max_size=3).map(tuple)),
}
PATTERNS["v"] = PATTERNS["r"]


def _net(arcs):
    rel = Relation("R", (Column("a", INT), Column("b", INT)), ("a", "b"))
    query = Query("q_r", atoms=(Atom("R", (Var("a"), Var("b"))),), output=("a", "b"))
    return Net(
        places=(Place("p", INT), Place("r", PAIR), Place("v", PAIR, kind="view", query="q_r")),
        transitions=(Transition("t", inputs=tuple(arcs)),),
        schema=Schema((rel,)),
        queries=(query,),
    )


@st.composite
def _cases(draw):
    places = draw(st.lists(st.sampled_from(("p", "r", "v")), min_size=1, max_size=2, unique=True))
    arcs = [
        InputArc(place, draw(PATTERNS[place]))
        for place in draw(st.lists(st.sampled_from(places), min_size=1, max_size=3))
    ]
    # exact duplicates, and equal values created at different times
    tokens = {
        "p": draw(st.lists(st.tuples(SMALL, SMALL), max_size=6)),
        "r": draw(st.lists(st.tuples(st.tuples(SMALL, SMALL), SMALL), max_size=6)),
    }
    rows = draw(st.sets(st.tuples(SMALL, SMALL), max_size=4))
    net = _net(arcs)
    snap = initial_snapshot(net, facts=[("R", row, 0) for row in sorted(rows)], tokens=tokens, clock=3)
    return net, snap


def _key(cand):
    return (cand.transition.id, cand.items, cand.matches, cand.ages)


def _oracle(net, snap, t):
    return [_key(c) for c in ref._cand_sorted(ref._enumerate(net, snap, t))]


@settings(max_examples=400, deadline=None)
@given(_cases(), st.data())
def test_enumerator_equals_the_oracle(case, data):
    net, snap = case
    try:
        engine._ensure_valid(net)
    except DefinitionError as e:
        # a tuple pattern of the wrong width, or a variable that matches a
        # scalar on one arc and a pair on another, drawn on purpose, is
        # rejected before a run; the agenda still enumerates it, to no
        # candidate
        assert "pattern terms, but the place's color is" in str(e) or re.fullmatch(
            r"transition 't': input arc from '[prv]': variable '[xyzw]' takes color "
            r"(product\(int, int\) here and 'int'|'int' here and product\(int, int\)) before",
            str(e),
        )
    (t,) = net.transitions
    got = engine.Agenda(net, snap).slot(t).order
    assert [_key(c) for c in got] == _oracle(net, snap, t)
    for cand in got:
        consumed = tuple((pid, tok) for pid, tok, _ in cand.matches)
        ev = FiringEvent(0, snap.clock, t.id, cand.items, consumed, (), (), (), "committed")
        assert _key(engine._recorded_cand(net, snap, t, ev)) == _key(cand)
    # the agenda reaches the same candidates from a delta: some tokens
    # produced into a snapshot without them, or consumed from this one
    pool = [(pid, tok) for pid in "pr" for tok in snap.marking.tokens(pid)]
    picked = data.draw(st.sets(st.integers(0, len(pool) - 1))) if pool else set()
    moved = tuple(pool[i] for i in sorted(picked))
    less = Snapshot(snap.instance, snap.marking.updated(remove=moved), snap.clock)
    for before, after, consumed, produced in ((less, snap, (), moved), (snap, less, moved, ())):
        agenda = engine.Agenda(net, before)
        agenda.slot(t)
        agenda.commit(after, consumed, produced)
        assert [_key(c) for c in agenda.slot(t).order] == _oracle(net, after, t)


def _walked(slot, snap):
    """The slot's first candidate that holds at the snapshot clock, and the
    candidates its walk built on the way, in the order it built them."""
    built = []
    build = slot._build
    slot._build = lambda entries, snapshot: built.append(build(entries, snapshot)) or built[-1]
    slot.observe(snap.clock)
    first = slot.first_ready(snap)
    del slot._build
    return first, [_key(c) for c in built]


@settings(max_examples=400, deadline=None)
@given(_cases(), st.data())
def test_the_walk_equals_the_oracle(case, data):
    # Under the eager policy a delay-0 transition whose arcs bind disjoint
    # variables walks its alpha memories: under a guard that always holds
    # it builds the oracle's first candidate and stops; under one that
    # never holds it builds every candidate in the oracle's order, and
    # then again only the new ones after a delta of tokens.
    net, snap = case
    (t,) = net.transitions
    walks = engine._walk_plan(t) is not None
    pool = [(pid, tok) for pid in "pr" for tok in snap.marking.tokens(pid)]
    picked = data.draw(st.sets(st.integers(0, len(pool) - 1))) if pool else set()
    moved = tuple(pool[i] for i in sorted(picked))
    less = Snapshot(snap.instance, snap.marking.updated(remove=moved), snap.clock)
    for holds in (True, False):
        t2 = replace(t, guard=Const(holds))
        net2 = Net(places=net.places, transitions=(t2,), schema=net.schema, queries=net.queries)
        for before, after, consumed, produced in ((less, snap, (), moved), (snap, less, moved, ())):
            agenda = engine.Agenda(net2, before, policy="eager")
            slot = agenda.slot(t2)
            assert slot.lazy == walks
            first, built = _walked(slot, before)
            want = _oracle(net2, before, t2)
            assert (first and _key(first)) == (want[0] if holds and want else None)
            if walks:
                assert built == (want[:1] if holds else want)
            agenda.commit(after, consumed, produced)
            slot = agenda.slot(t2)
            first, built = _walked(slot, after)
            want = _oracle(net2, after, t2)
            assert (first and _key(first)) == (want[0] if holds and want else None)
            if not holds:
                assert slot.complete and [_key(c) for c in slot.order] == want
                if walks:
                    assert built == [key for key in want if key not in _oracle(net2, before, t2)]


# ---------------------------------------------------------------------------
# generated nets

Q_R = Query("q_r", atoms=(Atom("R", (Var("a"), Var("b"))),), output=("a", "b"))
# a projection, not a copy of R: evaluated again whenever R changes
Q_A = Query("q_a", atoms=(Atom("R", (Var("a"), Wild())),), output=("a",))
# a view arc binds two fresh names, so three arcs never run out
NAMES = ("x", "y", "z", "w", "m", "n")
DELAYS = st.one_of(
    st.just((0, 0)),
    st.integers(1, 4).map(lambda d: (d, d)),
    st.tuples(st.integers(0, 2), st.integers(0, 3)).map(lambda lw: (lw[0], lw[0] + lw[1])),
)


@st.composite
def _guards(draw, normal, bound):
    """A guard over the bound variables: now(), age() of a variable bound
    by a normal place (``age(x) < c`` lapses), and a count over R, which
    ``put`` and ``drop`` write."""
    atoms = [st.just(Const(True)), st.integers(0, 12).map(lambda c: Op(">=", (Now(), Const(c))))]
    if normal:
        var = st.sampled_from(normal)
        ages = st.tuples(var, st.sampled_from((">=", "<")), st.integers(0, 6))
        atoms += [ages.map(lambda v: Op(v[1], (Age(v[0]), Const(v[2]))))] * 2  # twice as likely
    key = st.sampled_from(bound).map(Var) if bound else st.just(Wild())
    atoms.append(
        st.tuples(st.one_of(key, st.just(Wild())), st.sampled_from(("=", ">=", "<=")), st.integers(0, 2)).map(
            lambda v: Op(v[1], (DbCount("R", (v[0], Wild())), Const(v[2])))
        )
    )
    atom = st.one_of(*atoms)
    return draw(st.one_of(atom, st.tuples(st.sampled_from(("and", "or")), atom, atom).map(lambda v: Op(v[0], v[1:]))))


@st.composite
def _transitions(draw, tid):
    arcs, normal, bound = [], [], []
    for place in draw(st.lists(st.sampled_from(("p", "p", "q", "v", "u")), max_size=3)):
        fresh = [n for n in NAMES if n not in bound]
        if place == "u":
            arcs.append(InputArc("u", Var(fresh[0])))
            bound.append(fresh[0])
        elif place == "v":
            a, b = fresh[:2]
            second = draw(st.sampled_from((Var(b), Wild())))
            arcs.append(InputArc("v", (Var(a), second)))
            bound += [a] + ([b] if type(second) is Var else [])
        elif bound and draw(st.booleans()) and draw(st.booleans()):
            arcs.append(InputArc(place, draw(st.one_of(st.sampled_from(bound).map(Var), SMALL.map(Const)))))
        else:
            arcs.append(InputArc(place, Var(fresh[0])))
            bound.append(fresh[0])
            normal.append(fresh[0])
    term = st.one_of(st.sampled_from(bound).map(Var), SMALL.map(Const)) if bound else SMALL.map(Const)
    # an output arc may hold a condition and a sum, which the firing code
    # evaluates through eval_expr, where it evaluates a term inline
    value = st.one_of(term, term.map(lambda e: Op("+", (e, Const(1)))))
    when = st.one_of(st.none(), term.map(lambda e: Op("<", (e, Const(2)))))
    outputs = tuple(
        OutputArc(place, draw(value), when=draw(when)) for place in draw(st.lists(st.sampled_from("pq"), max_size=2))
    )
    calls = []
    for action in draw(st.lists(st.sampled_from(("put", "drop")), max_size=2)):
        args = (draw(term), draw(term)) if action == "put" else (draw(term),)
        calls.append(ActionCall(action, args))
    actions, rollbacks = tuple(calls), ()
    if calls and draw(st.booleans()):
        rollbacks = (OutputArc("q", Const(2)),)
    return Transition(
        tid,
        inputs=tuple(arcs),
        guard=draw(_guards(normal, bound)),
        delay=draw(DELAYS),
        outputs=outputs,
        rollbacks=rollbacks,
        actions=actions,
    )


@st.composite
def _nets(draw):
    count = draw(st.integers(1, 3))
    net = Net(
        places=(
            Place("p", INT),
            Place("q", INT),
            Place("v", PAIR, kind="view", query="q_r"),
            Place("u", INT, kind="view", query="q_a"),
        ),
        transitions=tuple(draw(_transitions(f"t{i}")) for i in range(count)),
        schema=Schema((R,)),
        queries=(Q_R, Q_A),
        actions=(PUT, DROP),
    )
    token = st.tuples(SMALL, st.integers(0, 3))
    tokens = {place: draw(st.lists(token, min_size=place == "p", max_size=4)) for place in "pq"}
    rows = draw(st.dictionaries(SMALL, SMALL, max_size=3))
    return net, initial_snapshot(net, facts=[("R", row, 0) for row in sorted(rows.items())], tokens=tokens, clock=3)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_nets())
def test_generated_nets_round_trip_through_their_document(case):
    # every node kind the generator draws (patterns of terms and tuples,
    # age, now and count guards, delays, output and rollback arcs, action
    # calls, a copied and a projected view) is written and read by one codec
    net, initial = case
    text = serialize_net(net, initial)
    net2, initial2 = parse_net(text)
    assert net2 == net and initial2 == initial
    assert serialize_net(net2, initial2) == text


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_nets())
def test_generated_runs_equal_the_oracle(case):
    # no input arcs or up to three (three-way joins, and a joined arc
    # beside two arcs on one place), shared input places, two views over a relation
    # that actions write (a copy, maintained from row deltas, and a
    # projection, evaluated again), guards on now(), age() and count(),
    # delays whose window can open after the guard lapsed, up to two
    # action calls, conditional output arcs and sums on them, key
    # collisions and rollback arcs
    net, initial = case
    for policy, seed in [("eager", None)] + [("random", seed) for seed in range(3)]:
        _agree(net, initial, policy, seed, 20)


def _check_memories(agenda):
    """Every alpha-memory entry of every slot counts the copies of its token
    on the arc's place, as of the slot's last catch-up: with the changes
    still pending, the marking's count.  No entry is left with none, every
    token present then that the arc accepts has an entry, and a lazy slot's
    memory holds the same entries, sorted by their share of the rank."""
    marking = agenda.snap.marking
    for slot in agenda.slots.values():
        for k, ((place, _, bind, _), index) in enumerate(zip(slot.arcs, slot.index)):
            pool, pending = marking.tokens(place), slot.pending.get(place, {})
            for tok, e in index.items():
                assert e.key == tok and e.copies > 0
                assert e.copies + pending.get(tok, 0) == pool.count(tok)
            for tok in set(pool):
                if pool.count(tok) > pending.get(tok, 0) and bind(tok[0]) is not None:
                    assert tok in index
            if slot.lazy:
                assert slot.mems[k] == sorted(index.values(), key=engine._share)


def _stepped_run(net, initial, policy, seed, max_steps):
    """The events of ``engine.run``, stepped here to check the alpha
    memories after every step."""
    agenda = engine.Agenda(net, initial, policy)
    rng = random.Random(seed)
    events = []
    _check_memories(agenda)
    while len(events) < max_steps:
        move = agenda.eager_step(None) if policy == "eager" else agenda.random_step(rng, None)
        if move is None:
            break
        kind, payload = move
        if kind == "advance":
            agenda.snap = agenda.snap.advanced(payload)
        else:
            snap, ev, (removed, added) = engine._execute(net, agenda.snap, *payload, len(events))
            agenda.commit(snap, removed, added)
            events.append(ev)
        _check_memories(agenda)
        if events and events[-1].outcome == "halted":
            break
    return events


@st.composite
def _shared_nets(draw):
    """A generated net with one more transition, ``s``, whose two arcs take
    from ``p`` (disjoint variables, which the eager policy walks lazily, or
    one variable on both, which takes two equal tokens) and which puts one
    token back, on a marking where ``p`` holds a token twice."""
    net, initial = draw(_nets())
    second = draw(st.sampled_from((Var("y"), Var("x"))))
    s = Transition("s", inputs=(InputArc("p", Var("x")), InputArc("p", second)), outputs=(OutputArc("p", Var("x")),))
    twin = draw(st.sampled_from(initial.marking.tokens("p")))
    marking = initial.marking.updated(add=[("p", twin)])
    return replace(net, transitions=(*net.transitions, s)), Snapshot(initial.instance, marking, initial.clock)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.one_of(_nets(), _shared_nets()))
def test_alpha_memories_count_the_marking_after_every_step(case):
    # copies follow the token deltas that commit hands the slots, and are
    # never recounted from the marking, so they must stay equal to it: on
    # duplicate tokens and on two arcs that draw from one place
    net, initial = case
    for policy, seed in (("eager", None), ("random", 0), ("random", 1)):
        events = _stepped_run(net, initial, policy, seed, 20)
        assert events == list(engine.run(net, initial, policy=policy, seed=seed, max_steps=20).events)


# ---------------------------------------------------------------------------
# generated inscriptions

KEYED = Relation("K", (Column("a", INT), Column("b", TEXT)), ("a",))
PUT_TEXT = Action("put", params=(("k", INT), ("v", TEXT)), adds=(FactTemplate("K", (Param("k"), Param("v"))),))
LEAVES = st.one_of(
    st.integers(-2, 3).map(Const),
    st.sampled_from(("", "a", "b")).map(Const),
    st.booleans().map(Const),
    st.sampled_from((Var("x"), Var("s"), Now(), Age("x"), Age("s"), DbCount("K", (Wild(), Wild())))),
)
# any operator over any number of operands up to three, so that most are
# of the wrong arity or operand colors
INSCRIPTIONS = st.recursive(
    LEAVES,
    lambda sub: st.builds(Op, st.sampled_from(sorted(OPERATORS)), st.lists(sub, max_size=3).map(tuple)),
    max_leaves=6,
)
# and inscriptions of each color built by the walk's rules, which the guard
# solver's shape may still reject
TYPED = {"text": st.one_of(st.sampled_from(("", "a")).map(Const), st.just(Var("s")))}
TYPED["int"] = st.deferred(
    lambda: st.one_of(
        st.integers(-2, 3).map(Const),
        st.sampled_from((Var("x"), Now(), Age("x"), Age("s"), DbCount("K", (Wild(), Wild())))),
        st.builds(Op, st.sampled_from(("+", "-", "*", "min", "max")), st.lists(TYPED["int"], min_size=1, max_size=3).map(tuple)),
    )
)
TYPED["bool"] = st.deferred(
    lambda: st.one_of(
        st.booleans().map(Const),
        st.sampled_from(("int", "text", "bool")).flatmap(
            lambda kind: st.builds(Op, st.sampled_from(("=", "!=", "<", "<=", ">", ">=")), st.tuples(TYPED[kind], TYPED[kind]))
        ),
        st.builds(Op, st.sampled_from(("and", "or")), st.lists(TYPED["bool"], max_size=3).map(tuple)),
        TYPED["bool"].map(lambda e: Op("not", (e,))),
    )
)


@st.composite
def _inscribed(draw):
    """``t`` joins an int token (``x``) with a text token (``s``), and
    writes an int, a text and a row of K.  One or two of its inscriptions
    are drawn, at random or of the color they need; each other one fits."""
    drawn = draw(st.sets(st.sampled_from(("guard", "o", "when", "w", "k", "v")), min_size=1, max_size=2))
    fits = {"guard": TRUE, "o": Var("x"), "when": None, "w": Var("s"), "k": Var("x"), "v": Var("s")}
    colors = {"guard": "bool", "o": "int", "when": "bool", "w": "text", "k": "int", "v": "text"}
    site = {
        name: draw(st.one_of(INSCRIPTIONS, TYPED[colors[name]])) if name in drawn else e for name, e in fits.items()
    }
    t = Transition(
        "t",
        inputs=(InputArc("p", Var("x")), InputArc("q", Var("s"))),
        guard=site["guard"],
        delay=draw(DELAYS),
        outputs=(OutputArc("o", site["o"], site["when"]), OutputArc("w", site["w"])),
        actions=(ActionCall("put", (site["k"], site["v"])),),
    )
    net = Net(
        places=(Place("p", INT), Place("q", TEXT), Place("o", INT), Place("w", TEXT)),
        transitions=(t,),
        schema=Schema((KEYED,)),
        actions=(PUT_TEXT,),
    )
    tokens = {"p": [(x, 0) for x in range(draw(st.integers(1, 3)))], "q": [(s, 0) for s in "mnr"]}
    return net, initial_snapshot(net, tokens=tokens, clock=1)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_inscribed())
def test_a_generated_inscription_is_rejected_or_runs(case):
    # over int, text and bool constants, the variables, now(), age(), a
    # count and every operator at any arity, a net is rejected by
    # validate_net, or it runs under both policies and replays, and each
    # token and row it writes fits its place or column: no value's type is
    # tested as a net fires, so a fault the walk let through would show
    # here as a TypeError, an EvalError, an IndexError or a misfit
    net, initial = case
    try:
        validate_net(net)
    except DefinitionError:
        event("rejected")
        return
    event("validated")
    for policy, seed in (("eager", None), ("random", 1)):
        trace = engine.run(net, initial, policy=policy, seed=seed, max_steps=8)
        engine.replay(net, trace)
        event(f"{policy}: {len(trace.events)} events")
        final = trace.final
        check_marking(net, final.marking, final.clock)
        assert Instance(net.schema, {"K": final.instance.rows("K")}) == final.instance
