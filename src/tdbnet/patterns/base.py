"""Shared plumbing for the pattern catalog.

Every pattern is built on the same skeleton, assembled by
``message_bundle``:

* the inbox feed: workload messages live in an ``inbox`` relation (message
  id, arrival time, payload fields), seen through the ``v_inbox`` view
  place; an ``inject`` transition (action ``take_inbox``) moves each row
  into the input channel place once the clock reaches its arrival time and
  records the arrival in ``in_log``;
* the input channel place, coloured ``(mid, *fields, *tail)``, which is by
  construction the token ``inject`` produces;
* the ``Net``, its initial snapshot at clock 0, and the ``PatternBundle``.

A builder declares only what is its own: the pattern's name, the payload
fields, the input channel's id, its places, transitions, relations, queries
and actions, any seed facts and tokens, and extra token components
(``tail``).  A pattern is its net: the bundle keeps no record of the
arguments it was built from, nor of which places are its outputs.
Observable results are written to ordinary relations (``out_log`` and
friends) so conformance checks can read everything from the persistence
layer of the trace.

To add a pattern, write a ``build_*`` function in its own module that
returns ``message_bundle(...)``, export it from ``patterns/__init__.py``,
add it to ``cli.build_pattern``, and give ``workloads`` a payload rule
keyed by the bundle's name.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exprs import Now, Op, Param, Var
from ..net import (
    ActionCall,
    InputArc,
    Net,
    OutputArc,
    Place,
    Snapshot,
    Transition,
    initial_snapshot,
)
from ..persistence import Action, Atom, Column, FactTemplate, Query, Relation, Schema
from ..values import INT, TS, ColorType, product


@dataclass(frozen=True)
class PatternBundle:
    """A ready-to-run net with its initial snapshot."""

    name: str
    net: Net
    initial: Snapshot


@dataclass(frozen=True)
class EndpointStub:
    """Scripted remote endpoint: each call either fails immediately or
    responds after a delay.  The script is consumed in order and its last
    entry repeats forever."""

    steps: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("endpoint script must not be empty")
        for kind, delay in self.steps:
            if kind not in ("respond", "fail"):
                raise ValueError(f"unknown endpoint step kind {kind!r}")
            if delay < 0:
                raise ValueError("endpoint delay must be >= 0")

    @classmethod
    def healthy(cls) -> "EndpointStub":
        return cls((("respond", 0),))

    @classmethod
    def failing(cls) -> "EndpointStub":
        return cls((("fail", 0),))

    @classmethod
    def respond_after(cls, delay: int) -> "EndpointStub":
        return cls((("respond", delay),))

    def script_rows(self) -> list[tuple[int, str, int]]:
        return [(i, kind, delay) for i, (kind, delay) in enumerate(self.steps)]


INBOX = "inbox"
IN_LOG = "in_log"


def message_bundle(
    name: str,
    fields: tuple[tuple[str, ColorType], ...],
    ch_in: str,
    *,
    places,
    transitions,
    relations,
    queries=(),
    actions=(),
    facts=(),
    tokens=None,
    tail=(),
) -> PatternBundle:
    """Assemble a pattern around the inbox feed.

    ``fields`` are the payload fields, ``ch_in`` the input channel and
    ``tail`` the (label, colour, initial value) of each extra component the
    ``inject`` transition appends to a message token.  The feed's place,
    transition, relations, query and action come first in their tuples,
    followed by the builder's own; ``facts`` and ``tokens`` seed the initial
    snapshot at clock 0.
    """
    names = tuple(n for n, _ in fields)
    colors = tuple(c for _, c in fields)
    bad = {"m", "a", "mid", "at"}.intersection(names)
    if bad or len(set(names)) != len(names):
        raise ValueError(f"payload field names must be distinct and avoid {sorted(bad)}")
    columns = tuple(Column(n, c) for n, c in fields)
    values = tuple(Var(n) for n in names)
    head = (Var("m"), Var("a")) + values
    row = tuple(Param(n) for n in names)
    inbox = Relation(INBOX, (Column("mid", INT), Column("at", TS)) + columns, ("mid",))
    in_log = Relation(IN_LOG, (Column("mid", INT),) + columns, ("mid",))
    q_inbox = Query("q_inbox", atoms=(Atom(INBOX, head),), output=("m", "a") + names)
    take = Action(
        "take_inbox",
        params=(("m", INT), ("a", TS)) + tuple(fields),
        dels=(FactTemplate(INBOX, (Param("m"), Param("a")) + row),),
        adds=(FactTemplate(IN_LOG, (Param("m"),) + row),),
    )
    # The channel's colour is, by construction, the token inject produces.
    token = (Var("m"),) + values + tuple(init for _, _, init in tail)
    inject = Transition(
        "inject",
        inputs=(InputArc("v_inbox", head),),
        guard=Op(">=", (Now(), Var("a"))),
        actions=(ActionCall("take_inbox", head),),
        outputs=(OutputArc(ch_in, Op("tuple", token)),),
    )
    channel = product(
        INT, *colors, *(c for _, c, _ in tail),
        labels=("mid", *names, *(label for label, _, _ in tail)),
    )
    net = Net(
        places=(
            Place("v_inbox", product(INT, TS, *colors), kind="view", query="q_inbox"),
            Place(ch_in, channel),
        ) + tuple(places),
        transitions=(inject,) + tuple(transitions),
        schema=Schema((inbox, in_log) + tuple(relations)),
        queries=(q_inbox,) + tuple(queries),
        actions=(take,) + tuple(actions),
    )
    return PatternBundle(name, net, initial_snapshot(net, facts=facts, tokens=tokens, clock=0))


def with_workload(bundle: PatternBundle, arrivals) -> Snapshot:
    """Initial snapshot of a bundle with inbox rows for each (at, fields)
    arrival.  Message ids continue from whatever the snapshot already saw."""
    return extend_workload(bundle, bundle.initial, arrivals)


def extend_workload(bundle: PatternBundle, snapshot: Snapshot, arrivals) -> Snapshot:
    rows = list(snapshot.instance.all_rows())
    used = [values[0] for rel, values, _ in rows if rel in (INBOX, IN_LOG)]
    mid = max(used, default=-1) + 1
    for at, fields in arrivals:
        if at < 0:
            raise ValueError("arrival times must be >= 0")
        rows.append((INBOX, (mid, at) + tuple(fields), min(at, snapshot.clock)))
        mid += 1
    return _rebuild(bundle, snapshot, rows)


def replace_rows(bundle: PatternBundle, snapshot: Snapshot, relation: str, values_list) -> Snapshot:
    """Out-of-band instance surgery (operator intervention between runs):
    swap every row of one relation, stamped at the current clock."""
    rows = [r for r in snapshot.instance.all_rows() if r[0] != relation]
    rows.extend((relation, tuple(values), snapshot.clock) for values in values_list)
    return _rebuild(bundle, snapshot, rows)


def _rebuild(bundle: PatternBundle, snapshot: Snapshot, rows) -> Snapshot:
    net = bundle.net
    tokens = {
        place.id: list(snapshot.marking.tokens(place.id))
        for place in net.places
        if place.kind == "normal" and snapshot.marking.tokens(place.id)
    }
    return initial_snapshot(net, facts=rows, tokens=tokens, clock=snapshot.clock)
