"""The engine's single candidate enumerator against the frozen full-rescan
scheduler in ``reference_engine``.

Runs must serialize to the same bytes under the eager policy and five
random-policy seeds, ``enabled`` and ``advance_clock`` must agree at every
snapshot a run passes through, and on generated transitions the enumerator
must return the oracle's sorted candidates, each of which replay's
``_recorded_cand`` binds back to itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as ref
from test_replay import CATALOG, POLICIES
from tdbnet import engine
from tdbnet.engine import FiringEvent
from tdbnet.exprs import Age, Const, Op, Var, Wild
from tdbnet.formats import serialize_trace
from tdbnet.net import InputArc, Net, OutputArc, Place, Token, Transition, initial_snapshot
from tdbnet.persistence import Atom, Column, Query, Relation, Schema
from tdbnet.values import INT, product


def _timer(request):
    net = request.getfixturevalue("timer_net")
    return net, initial_snapshot(net, tokens={"ch2": ["a", "b", "b"]})


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
    return net, initial_snapshot(net, tokens={"a_in": [1], "b_in": [2]})


NETS = {name: (lambda request, make=make: make()) for name, make in CATALOG.items()}
NETS.update(timer=_timer, trip=_trip, tie=_tie)


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
        snap, _ = engine._execute(net, snap, cand, ev.time, ev.step)
        yield snap


@pytest.mark.parametrize("policy,seed", POLICIES)
@pytest.mark.parametrize("name", sorted(NETS))
def test_runs_and_queries_equal_the_oracle(request, name, policy, seed):
    net, initial = NETS[name](request)
    # trip reads a view place without consuming it, so it never stops
    got = engine.run(net, initial, policy=policy, seed=seed, max_steps=100)
    want = ref.run(net, initial, policy=policy, seed=seed, max_steps=100)
    assert serialize_trace(got) == serialize_trace(want)
    for snap in _snapshots(net, got):
        assert engine.enabled(net, snap) == ref.enabled(net, snap)
        assert engine.advance_clock(net, snap) == ref.advance_clock(net, snap)


# ---------------------------------------------------------------------------
# generated transitions

PAIR = product(INT, INT)
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
        "p": draw(st.lists(st.builds(Token, SMALL, SMALL), max_size=6)),
        "r": draw(st.lists(st.builds(Token, st.tuples(SMALL, SMALL), SMALL), max_size=6)),
    }
    rows = draw(st.sets(st.tuples(SMALL, SMALL), max_size=4))
    net = _net(arcs)
    snap = initial_snapshot(net, facts=[("R", row, 0) for row in sorted(rows)], tokens=tokens, clock=3)
    return net, snap


def _key(cand):
    return (cand.transition.id, cand.binding_items(), cand.matches, cand.ages)


@settings(max_examples=400, deadline=None)
@given(_cases())
def test_enumerator_equals_the_oracle(case):
    net, snap = case
    engine._ensure_valid(net)
    (t,) = net.transitions
    got = engine._enumerate(net, snap, t)
    assert [_key(c) for c in got] == [_key(c) for c in ref._cand_sorted(ref._enumerate(net, snap, t))]
    for cand in got:
        consumed = tuple((pid, tok) for pid, tok, _ in cand.matches)
        ev = FiringEvent(0, snap.clock, t.id, cand.binding_items(), consumed, (), (), (), "committed")
        assert _key(engine._recorded_cand(net, snap, t, ev)) == _key(cand)
