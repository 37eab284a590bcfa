"""Execution engine for timed db-nets.

Semantics in brief:

* One ``Agenda`` answers every scheduler query.  ``run`` builds it from
  the initial snapshot and keeps it across steps; ``enabled``,
  ``advance_clock`` and ``fire`` build a one-shot agenda from their
  snapshot.  Per transition it holds the candidates, matches of the input
  arcs to distinct tokens, in canonical order: by binding, then by each
  arc's token.
* Every input arc keeps an alpha memory: one entry per distinct token the
  arc accepts, bound by that arc alone through one compiled binder, with
  the number of copies on its place, which follows the exact token deltas
  of the firings and is never recounted from the marking.  A candidate
  takes one entry per arc, so no two candidates consume equal tokens arc
  for arc.  It is built by merging the arcs' bindings, where a variable
  bound on two arcs must get equal values and the later arc sets its age,
  and only while each place holds as many copies of a token as it takes.  ``replay`` binds recorded
  tokens through the same binders, by the same rule, into one binding.
* A slot builds its candidates fully or lazily.  A full build binds every
  candidate: first the product of the memories (one candidate that binds
  nothing for a transition without input arcs), then the entries that
  grew on one arc with every entry of the others (a delta join, as TREAT
  joins on demand).  Under the eager
  policy, a transition with no least delay and several input arcs that
  bind disjoint variables builds lazily instead: its memories are sorted
  by each arc's share of the canonical order, their product is in
  canonical order, and a step builds candidates only up to the first that
  holds (LEAPS lazy matching); the walk builds them all only when none
  holds.  A throttler's admission, which joins each waiting message with
  the one capacity token, so binds one candidate per return of that token.
* Each candidate keeps its guard's truth set over ``now``, stamped with
  the row tuples of the relations the guard reads through ``count`` and
  ``merge_text``.  A truth set is solved again only when one of those
  relations is replaced; a clock advance solves nothing.  A firing
  changes only the candidates of transitions whose input places changed.
  Each entry keeps the reverse set of the candidates built on it, so a
  token that falls drops only those of its candidates left without enough
  copies, each by bisection on its rank, which is set when it is bound;
  the new tokens enter the memories and are built on as above.  A
  transition catches up when a step next asks about it, and one with
  nothing to settle by the clock answers at once.
* Snapshots are checked: ``initial_snapshot``, ``run``, ``fire``,
  ``replay``, ``enabled`` and ``advance_clock`` raise ``DefinitionError``
  naming the place and the entry when an entry is not a token, the exact
  tuple ``(value, created_at)`` with an int time, or does not fit its
  place's color (so a pool's values compare) or was created after the
  clock.  The snapshots given to the others must also hold, on each view
  place, exactly the tokens of its query's rows, because firings patch a
  view from row deltas or evaluate it again only when a relation it reads
  changes.
* ``enabled`` lists (transition, binding) pairs whose input patterns match
  distinct tokens and whose guard holds at the snapshot clock; the earliest
  firing time of a freshly enabled pair is ``clock + delay_min``.
* ``fire`` consumes the matched tokens, evaluates action arguments against
  the pre-firing instance, applies the actions atomically, and produces
  output tokens.  ``run``, ``replay`` and ``fire`` fire every transition
  through its plan, built once per net (``_firing``): its input arcs'
  binders, the view places whose query reads a relation that its actions
  write, split into copied and evaluated views, and its firing, one
  generated function (``_kernel``) whose code every transition of its
  shape shares.  The firing evaluates a variable, a constant, ``now()``
  and a tuple of those inline and any other inscription by ``eval_expr``,
  and applies each action through the action's own generated update
  (``apply_action_delta``).  No value's type
  is tested: ``validate_net`` typed every inscription.  A transition whose
  plan lists no view does not call ``refresh_views``; for any other, it
  patches the copied views from the rows the actions added and deleted,
  evaluates the others again if a relation they read changed, and appends
  their lost and gained tokens to the firing's lists of the tokens it
  consumes from normal places and produces.  Those two lists are the
  token delta, which one ``Marking.updated`` call applies and ``run``
  hands to its agenda.  A constraint violation, which is a key clash (a
  checked action adds only rows of its columns' types), either produces
  tokens along the rollback arcs (outcome ``rolled_back``, instance
  reverted) or, absent rollback arcs, freezes the run at the last
  committed instance (outcome ``halted``).
* ``run`` is a discrete-event loop; every guard question, including
  ``replay``'s, is answered by the guard's exact truth-set solver
  (``guard_truth``, and ``guard_flip_time`` for one instant).
* The eager policy anchors the delay window of a candidate at its onset,
  the first step of the run of steps at which its guard held: a step at
  which the guard does not hold resets it, a lapse between two steps does
  not.  Heaps order the candidates by the instant their guard starts to
  hold, by the instant after it stops, and by onset plus least delay.  A
  step fires, from the first transition by id that has one, the first
  candidate in canonical order that holds and is due at the clock.
  Delay-0 transitions after that one are not asked, while delayed ones
  are, to keep their onsets.  Otherwise the next event is the earlier of
  the least due time (ties to the first transition by id, then canonical
  order) and the first instant at which a guard that does not hold starts
  to hold; a tie goes to the due candidate.  So a guard that starts to
  hold at t competes only once the clock stands at t: a candidate due at
  t fires first, whatever the transition ids.  A due candidate whose
  guard lapsed before its window opened makes the clock advance instead.
* The seeded-random policy anchors the window ``[clock + lo, clock + hi]``
  at the clock.  A candidate can fire when its guard holds now and at some
  instant of that window.  The policy draws one such candidate with
  ``randrange``, then the firing time with one more ``randrange`` over
  the window's instants at which the guard holds, counted in time order.
  When the guard holds on the whole window, that draw is
  ``clock + randint(lo, hi)``.  Every drawn firing therefore satisfies
  its guard, and the trace replays.  When no candidate can fire, the
  clock advances to the first instant at which one can.  A binding is
  drawn once, through its first candidate in canonical order that can
  fire.  Each slot keeps these first candidates in a sorted ready list,
  settled by the same heaps as the eager policy's, so a step draws an
  index into the lists and looks only at the candidates that changed.

Traces replay exactly: folding the recorded events over the initial
snapshot reproduces every intermediate and the final snapshot.  ``replay``
binds each event from the tokens and the binding it recorded, without
enumerating candidates.  It verifies a compliant initial instance, events
in step and time order, consumed tokens present in the marking and
matching the input arcs in order, the recorded binding, and the guard at
the event's time.  It does not verify delay windows, which the eager
policy anchors at the onset of enablement and the random policy at the
clock.
"""

from __future__ import annotations

import itertools
import random
import sys
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import inf
from operator import attrgetter
from typing import Mapping, NamedTuple, Optional

# the generated firing code (``_kernel``) reads ``eval_expr``,
# ``refresh_views`` and ``apply_action_delta`` as attributes of this module
from .exprs import (
    Const,
    DefinitionError,
    Now,
    Op,
    Var,
    eval_expr,
    first_true,
    guard_flip_time,
    guard_truth,
    intersect,
    match_pattern,
    pattern_vars,
    relations_read,
    window_starts,
)
from .net import (
    Net,
    Snapshot,
    Transition,
    check_marking,
    check_views,
    refresh_views,
    split_views,
    validate_net,
    view_places,
)
from .persistence import ConstraintViolation, _generate, apply_action_delta, check_compliance


class FiringError(ValueError):
    """fire() called with a pair that is not enabled or a time outside the
    delay window."""


class ViewConsistencyError(AssertionError):
    """A view place diverged from its bound query (debug validator)."""


_new = tuple.__new__


class FiringEvent(NamedTuple):
    """One firing as recorded in a trace.  An event is a tuple, so
    replay's comparison of a recomputed event with the recorded one is the
    tuple's."""

    step: int
    time: int
    transition: str
    binding: tuple  # sorted (var, value) pairs
    consumed: tuple  # (place_id, (value, created_at)) pairs, view reads included
    produced: tuple  # (place_id, (value, created_at)) pairs
    added: tuple  # (relation, values, at) rows inserted
    deleted: tuple  # (relation, values, at) rows removed
    outcome: str  # committed | rolled_back | halted


@dataclass(frozen=True)
class TraceMeta:
    net_hash: str
    policy: str
    seed: Optional[int]


@dataclass(frozen=True)
class Trace:
    meta: TraceMeta
    initial: Snapshot
    events: tuple
    final: Snapshot


# ---------------------------------------------------------------------------
# candidates and the agenda

class _Cand:
    """One match of a transition's input arcs to distinct tokens, with the
    truth set of the transition's guard under it.  ``entries`` holds the
    entry it takes on each arc, and ``key`` each arc's token, which is its
    own key: equal tokens are one key.  ``items`` is its binding as sorted
    (variable, value) pairs, and ``rank`` its canonical order within a
    transition: the binding, then each arc's token (the order of the
    sorted pools); both are set when it is bound.  Under the eager policy a
    candidate also carries the instant its enablement began (``onset``,
    None while its guard does not hold), whether it holds and is due
    (``live``), and a version that its heap entries must match to count.
    Under the random policy ``live`` says that it is pickable now."""

    __slots__ = (
        "transition", "env", "matches", "ages", "entries", "key", "items", "rank", "truth", "onset", "live", "ver",
        "_window",
    )

    def __init__(self, transition: Transition, env: dict, matches: tuple, ages: dict, entries: tuple):
        self.transition = transition
        self.env = env
        self.matches = matches  # ((place_id, token, is_view), ...)
        self.ages = ages
        self.entries = entries
        self.key = tuple([e.key for e in entries])
        # variable names are distinct, so values are never compared
        self.items = tuple(sorted(env.items()))
        self.rank = (self.items, self.key)
        self.truth: tuple = ()
        self.onset: Optional[int] = None
        self.live = False
        self.ver = 0
        self._window = None

    def holds(self, at: int) -> bool:
        return first_true(self.truth, at) == at

    def pickable(self) -> tuple:
        """The instants at which the random policy may pick the candidate:
        its guard holds and the delay window anchored there meets the truth
        set (a window starting at its anchor always does)."""
        if self._window is None:
            lo, hi = self.transition.delay
            truth = self.truth
            self._window = truth if lo == 0 else intersect(truth, window_starts(truth, lo, hi))
        return self._window


# the key by which slots bisect their candidates in canonical order
_rank = attrgetter("rank")


def _require_compliant(net: Net, snapshot: Snapshot) -> None:
    bad = check_compliance(snapshot.instance)
    if bad:
        raise DefinitionError(f"initial instance violates constraints: {bad[0].message}")
    check_marking(net, snapshot.marking, snapshot.clock)
    check_views(net, snapshot)


def _ensure_valid(net: Net) -> None:
    if not getattr(net, "_validated", False):
        validate_net(net)
        object.__setattr__(net, "_validated", True)


def _binder(pattern):
    """``bind(value)`` for one input-arc pattern: the pattern's variables
    bound by the value alone, or None when the value does not match.
    Distinct variables bind by position; a pattern with constants,
    wildcards or a variable repeated within it goes through
    ``match_pattern``, looked up at call time."""
    terms = pattern if isinstance(pattern, tuple) else (pattern,)
    names = pattern_vars(pattern)
    if any(type(term) is not Var for term in terms) or len(set(names)) != len(names):
        return lambda value: match_pattern(pattern, value, {})
    if not isinstance(pattern, tuple):
        name = pattern.name
        return lambda value: {name: value}
    width = len(names)

    def bind(value):
        if not isinstance(value, tuple) or len(value) != width:
            return None
        return dict(zip(names, value))

    return bind


# the expressions that a firing kernel evaluates inline
_INLINE = (Var, Const, Now)


class _Plan:
    """What firing one transition needs of its net, worked out once per net
    (``_firing``).  ``inputs`` holds (place id, is_view, bind, names that
    take the token's age) per input arc, in arc order; ``copied`` and
    ``evaluated`` the view places whose query reads a relation that an
    action's templates add to or delete from, the only views a firing of
    the transition can change, split as ``refresh_views`` takes them
    (``split_views``); and ``fire(snapshot, cand, at, step)`` the firing
    itself, generated code (``_kernel``).
    It holds no type test: ``validate_net`` gave each argument its
    parameter's colour and each arc its place's."""

    __slots__ = ("inputs", "copied", "evaluated", "fire")

    def __init__(self, net: Net, t: Transition):
        arcs = []
        for arc in t.inputs:
            is_view = net.place(arc.place).kind == "view"
            names = () if is_view else tuple(pattern_vars(arc.pattern))
            arcs.append((arc.place, is_view, _binder(arc.pattern), names))
        self.inputs = tuple(arcs)
        actions = [net.action(call.action) for call in t.actions]
        written = {tmpl.relation for action in actions for tmpl in action.adds + action.dels}
        self.copied, self.evaluated = split_views([view for view in view_places(net) if not view[2].isdisjoint(written)])
        self.fire = _kernel(net, t, actions, self.inputs, self.copied, self.evaluated)


def _kernel(net: Net, t: Transition, actions: list, inputs: tuple, copied: tuple, evaluated: tuple):
    """``fire(snapshot, cand, at, step)`` for ``t``: one generated Python
    function that fires a candidate of ``t`` as ``_execute`` describes.

    It unpacks the candidate's matches into the consumed pairs and the
    removals, leaving out the view arcs, then evaluates every call's
    arguments against the instance before the firing.  A variable, a
    constant, ``now()`` or a ``tuple`` of those is evaluated inline, any
    other expression by ``eval_expr``.  It calls ``apply_action_delta``
    once per action, in order, and on a key clash makes the rolled-back or
    the halted firing at once.  Otherwise it evaluates the output arcs in
    order, each condition before its expression, makes the event, calls
    ``refresh_views`` when the plan lists views, and applies the delta
    with one ``Marking.updated`` call.  It calls ``eval_expr``,
    ``apply_action_delta`` and ``refresh_views`` as attributes of this
    module, looked up at each call.

    As in a query plan (``persistence._query_plan``), the source holds only
    names the generator makes (``X0`` a variable's value, ``N1`` its name,
    ``C2`` a constant, ``Q3`` a place id, ``A4`` an action, ``G0`` a call's
    arguments, ``P0``/``K0`` an arc's place and token): the transition's
    id, names, constants and nodes are arguments of ``make``, so
    transitions of one shape share one compiled ``make`` (``_maker``)."""
    ns: dict = {
        "E": sys.modules[__name__], "CV": ConstraintViolation, "NEW": _new, "SNAPSHOT": Snapshot,
        "EVENT": FiringEvent, "TID": t.id, "COMMITTED": "committed", "ROLLEDBACK": "rolled_back", "HALTED": "halted",
    }
    head = ["env = cand.env", "pre = snapshot.instance", "marking = snapshot.marking"]
    body: list[str] = []
    values: dict[str, str] = {}  # variable -> the local that holds its value

    def arg(prefix: str, value) -> str:
        name = f"{prefix}{len(ns)}"
        ns[name] = value
        return name

    def inline(e) -> Optional[str]:
        kind = type(e)
        if kind is Var:
            if e.name not in values:
                values[e.name] = f"X{len(values)}"
                head.append(f"{values[e.name]} = env[{arg('N', e.name)}]")
            return values[e.name]
        if kind is Const:
            return arg("C", e.value)
        return "at" if kind is Now else None

    def expr(e) -> str:
        if type(e) in _INLINE:
            return inline(e)
        if type(e) is Op and e.op == "tuple" and all(type(a) in _INLINE for a in e.args):
            return f"({''.join(f'{inline(a)}, ' for a in e.args)})"
        return f"E.eval_expr({arg('C', e)}, env, instance=pre, now=at, ages=cand.ages)"

    def produce(arcs: tuple, depth: int) -> None:
        """Emit ``produced``, the (place id, token) pairs of ``arcs`` whose
        condition holds."""
        pad = "        " + "    " * depth
        lead = 0
        while lead < len(arcs) and arcs[lead].when is None:
            lead += 1
        pairs = [f"({arg('Q', arc.place)}, ({expr(arc.expr)}, at))" for arc in arcs[:lead]]
        body.append(f"{pad}produced = [{', '.join(pairs)}]")
        for arc in arcs[lead:]:
            item = f"produced.append(({arg('Q', arc.place)}, ({expr(arc.expr)}, at)))"
            if arc.when is None:
                body.append(f"{pad}{item}")
            else:
                body.append(f"{pad}if {expr(arc.when)}:")
                body.append(f"{pad}    {item}")

    if inputs:
        matched = "".join(f"(P{k}, K{k}, _), " for k in range(len(inputs)))
        head.append(f"{matched}= cand.matches")
    pairs = [f"(P{k}, K{k})" for k in range(len(inputs))]
    head.append(f"consumed = ({''.join(f'{pair}, ' for pair in pairs)})")
    head.append(f"removals = [{', '.join(pair for pair, arc in zip(pairs, inputs) if not arc[1])}]")
    # every argument is evaluated against the instance before the firing
    for i, call in enumerate(t.actions):
        body.append(f"        G{i} = ({''.join(f'{expr(a)}, ' for a in call.args)})")
    for i, action in enumerate(actions):
        body.append(f"        R = E.apply_action_delta({'work' if i else 'pre'}, {arg('A', action)}, G{i}, at)")
        body.append("        if type(R) is CV:")
        if t.rollbacks:
            produce(t.rollbacks, 1)
            event = "NEW(EVENT, (step, at, TID, cand.items, consumed, tuple(produced), (), (), ROLLEDBACK))"
            body.append(f"            return NEW(SNAPSHOT, (pre, marking.updated(removals, produced), at)), {event}, (removals, produced)")
        else:
            event = "NEW(EVENT, (step, at, TID, cand.items, consumed, (), (), (), HALTED))"
            body.append(f"            return NEW(SNAPSHOT, (pre, marking, at)), {event}, ((), ())")
        if i:
            body.append("        work, R1, R2 = R")
            body.append("        added += R1")
            body.append("        deleted += R2")
        else:
            body.append("        work, added, deleted = R")
    produce(t.outputs, 0)
    rows = "tuple(added), tuple(deleted)" if actions else "(), ()"
    body.append(f"        event = NEW(EVENT, (step, at, TID, cand.items, consumed, tuple(produced), {rows}, COMMITTED))")
    if copied or evaluated:
        views = f"{arg('NET', net)}, {arg('COPIED', copied)}, {arg('EVALUATED', evaluated)}"
        body.append(f"        E.refresh_views({views}, work, marking, added, deleted, removals, produced)")
    body.append(f"        return NEW(SNAPSHOT, ({'work' if actions else 'pre'}, marking.updated(removals, produced), at)), event, (removals, produced)")
    return _generate("fire", "snapshot, cand, at, step", ["        " + line for line in head] + body, ns)



def _firing(net: Net, t: Transition) -> _Plan:
    """The plan of ``t``; every transition's is built once per net."""
    cached = getattr(net, "_plans", None)
    if cached is None:
        cached = {tr.id: _Plan(net, tr) for tr in net.transitions}
        object.__setattr__(net, "_plans", cached)
    return cached[t.id]


def _transitions_by_id(net: Net) -> tuple[Transition, ...]:
    cached = getattr(net, "_by_id", None)
    if cached is None:
        cached = tuple(sorted(net.transitions, key=lambda tr: tr.id))
        object.__setattr__(net, "_by_id", cached)
    return cached


def _stamp(instance, relations: tuple) -> tuple:
    return tuple(instance.rows(rel) for rel in relations)


class _Entry:
    """One distinct token on an input arc, bound by that arc alone: an entry
    of the arc's alpha memory.  ``key`` is the token, which is its own key.
    ``copies`` counts the tokens equal to it on the arc's place, and
    ``cands`` is its reverse set: the keys of the candidates built on it
    (keys, not candidates, so that entries and candidates form no reference
    cycle).  In a lazy slot, ``share`` is the arc's part of ``_Cand.rank``:
    the values of the arc's variables in name order, then the token."""

    __slots__ = ("key", "env", "ages", "copies", "cands", "share")

    def __init__(self, token: tuple, env: dict, ages: dict):
        self.key = token
        self.env = env
        self.ages = ages
        self.copies = 0
        self.cands: set = set()
        self.share: Optional[tuple] = None


_share = attrgetter("share")


def _walk_plan(t: Transition) -> Optional[tuple]:
    """(variables per arc in name order, (arc, position) of each variable
    in name order) for a transition of two or more input arcs that bind
    pairwise disjoint variables; None for any other."""
    names = [sorted(set(pattern_vars(arc.pattern))) for arc in t.inputs]
    flat = sorted(n for arc_names in names for n in arc_names)
    if len(names) < 2 or len(set(flat)) != len(flat):
        return None
    return names, tuple((k, arc_names.index(n)) for n in flat for k, arc_names in enumerate(names) if n in arc_names)


class _Slot:
    """One transition's candidates, kept in canonical order (``order``) and
    by their tokens (``cands``, keyed by the tuple of each arc's token) from
    step to step.

    Each input arc has an alpha memory (``index``, keyed by the token): an
    ``_Entry`` per distinct token the arc accepts.  ``pending`` collects
    the net token changes of the transition's input places since the slot
    last caught up (``sync``); catching up binds each new token by its arc
    alone, and drops, through the reverse set of each entry whose token
    fell, the candidates left without enough copies (``_lose``).  Every
    candidate is bound through ``_bind``.  ``stamp`` holds the row tuples
    of the relations the guard reads, as of the last solve; the truth sets
    are solved again only when one of them is replaced.

    A full slot binds every candidate: the product of its memories at
    first, then on each arc the entries that grew with every entry of the
    other arcs (``_extend``).  A slot of the eager
    policy whose transition has no least delay and two or more input arcs
    that bind pairwise disjoint variables is ``lazy`` instead (LEAPS:
    Miranker et al., AAAI 1990).  It also keeps each memory sorted by the
    arc's share of the rank (``mems``).  As the arcs are independent, the
    canonical order of the candidates is the product order of the
    memories, and ``first_ready`` walks it best-first from the product of
    the memories' minima, building each candidate it reaches, up to the
    first that holds.  ``complete`` says that every candidate is built: a
    walk that finds none sets it, a new entry clears it.  A full slot is
    always complete.

    Under the eager policy three heaps index the candidates by time:
    ``wait`` by the first instant at which a candidate that does not hold
    starts to hold, ``hold`` by the instant after the truth interval of a
    holding candidate ends, and ``due`` by a holding candidate's onset plus
    the transition's least delay.  An entry counts while it carries its
    candidate's version; the heaps are rebuilt without the others once
    these outnumber the candidates.  ``fresh`` lists the candidates bound
    or solved since the last step, and ``live`` counts the candidates that
    hold and are due.

    Under the random policy ``wait`` and ``hold`` follow the instants at
    which a candidate is pickable (``_Cand.pickable``) instead, and there
    is no onset and no ``due``.  A candidate pickable now is live and in
    the group of its binding (``groups``: binding -> pickable candidates in
    canonical order), and the first of each group is in ``ready``, in
    canonical order: the candidates a random step can draw.
    """

    def __init__(self, net: Net, snapshot: Snapshot, t: Transition, policy: Optional[str]):
        self.t = t
        self.delay = t.delay[0]
        self.reads = relations_read(t.guard)
        self.arcs = _firing(net, t).inputs
        self.pending: dict[str, dict] = {}  # place id -> token -> net change
        self.fresh: Optional[list] = [] if policy else None
        self.wait: list = []
        self.hold: list = []
        self.due: list = []
        self.live = 0
        self.groups: Optional[dict] = {} if policy == "random" else None
        self.ready: list[_Cand] = []
        self.seq = itertools.count()
        self.stamp = _stamp(snapshot.instance, self.reads)
        places = [place for place, *_ in self.arcs]
        # arcs that draw from one place, which must not take more copies of
        # a token than it holds
        groups = (tuple(k for k, p in enumerate(places) if p == place) for place in dict.fromkeys(places))
        self.shared = [group for group in groups if len(group) > 1]
        plan = _walk_plan(t) if policy == "eager" and not self.delay else None
        self.lazy = plan is not None
        if self.lazy:
            self.names, self.layout = plan
            self.mems: list[list[_Entry]] = [[] for _ in places]
        self.index: list[dict] = [{} for _ in places]
        self.cands: dict = {}
        self.order: list[_Cand] = []
        self.complete = True
        # every token is new, with as many copies as its pool holds
        self._remember({place: Counter(snapshot.marking.tokens(place)) for place in places})
        if not self.lazy:
            # every entry is new, so the product of the memories is every
            # candidate: one with no entries for a transition without arcs
            combos = itertools.product(*(index.values() for index in self.index))
            self.order = sorted(filter(None, map(self._bind, combos)), key=_rank)
            self._solve(self.order, snapshot.instance)

    def sync(self, snapshot: Snapshot) -> None:
        """Catch up with the snapshot: drop the candidates whose tokens are
        gone, bind the new tokens, and solve the truth sets again when a
        relation the guard reads was replaced."""
        new = []
        if self.pending:
            pending, self.pending = self.pending, {}
            grown = self._remember(pending)
            if not self.lazy:
                new = self._extend(grown)
        if self.reads:
            stamp = _stamp(snapshot.instance, self.reads)
            if any(a is not b for a, b in zip(stamp, self.stamp)):
                self.stamp = stamp
                self._solve(self.order, snapshot.instance)
        if new:
            self._solve(new, snapshot.instance)
            for c in new:
                insort(self.order, c, key=_rank)

    def _solve(self, cands: list[_Cand], instance) -> None:
        guard = self.t.guard
        for c in cands:
            c.truth = guard_truth(guard, c.env, instance=instance, ages=c.ages)
            c._window = None
        if self.fresh is not None:
            for c in cands:
                c.ver += 1
            self.fresh += cands

    # alpha memories and candidates

    def _remember(self, pending: dict) -> list[list[_Entry]]:
        """Bring the alpha memories up to the pending token changes, which
        are exact net changes of each token's copies: bind each new token by
        its arc alone, add each change to its entry's copies, and drop the
        entries left with none and the candidates left without enough
        copies.  A lazy slot sorts the new entries into its memories.
        Returns the entries that grew, per arc."""
        grown = []
        for k, (place, _, bind, aged) in enumerate(self.arcs):
            index, up, born = self.index[k], [], []
            for tok, n in pending.get(place, {}).items():
                e = index.get(tok)
                if e is None:
                    # a token the arc rejected is bound again only when
                    # another copy of it arrives
                    if n <= 0 or (env := bind(tok[0])) is None:
                        continue
                    e = index[tok] = _Entry(tok, env, dict.fromkeys(aged, tok[1]))
                    if self.lazy:
                        e.share = (tuple(e.env[name] for name in self.names[k]), tok)
                        born.append(e)
                elif not n:
                    continue
                e.copies += n
                if n > 0:
                    up.append(e)
                    continue
                if not e.copies:
                    del index[tok]
                    if self.lazy:
                        del self.mems[k][bisect_left(self.mems[k], e.share, key=_share)]
                self._lose(e)
            if len(born) > 1:
                # one sort for a build, not one insertion per token
                self.mems[k] += born
                self.mems[k].sort(key=_share)
            elif born:
                insort(self.mems[k], born[0], key=_share)
            grown.append(up)
        if self.lazy and any(grown):
            self.complete = False
        return grown

    def _lose(self, e: _Entry) -> None:
        """Drop the candidates built on ``e`` that take more copies of its
        token than are left: all of them once none is."""
        for c in [c for c in map(self.cands.get, e.cands) if not (e.copies and self._enough(c.entries))]:
            del self.cands[c.key]
            del self.order[bisect_left(self.order, c.rank, key=_rank)]
            for other in c.entries:
                other.cands.remove(c.key)
            c.ver += 1
            self._drop(c)

    def _extend(self, grown: list[list[_Entry]]) -> list[_Cand]:
        """The candidates not yet bound that take a grown entry: on each arc
        in turn, its grown entries with every entry of the other arcs (a
        delta join)."""
        new = []
        for k, entries in enumerate(grown):
            if entries:
                pools = [entries if j == k else index.values() for j, index in enumerate(self.index)]
                for combo in itertools.product(*pools):
                    if tuple([e.key for e in combo]) not in self.cands:
                        c = self._bind(combo)
                        if c is not None:
                            new.append(c)
        return new

    def _bind(self, entries: tuple) -> Optional[_Cand]:
        """The candidate of one entry per arc, entered in ``cands`` and in
        its entries' reverse sets; None when it takes more copies of a token
        than its place holds, or binds a variable two ways: a variable bound
        on two arcs must get equal values, and the later arc sets its age."""
        if not self._enough(entries):
            return None
        env: dict = {}
        ages: dict = {}
        for e in entries:
            for name, value in e.env.items():
                prior = env.setdefault(name, value)
                if prior is not value and prior != value:
                    return None
            ages.update(e.ages)
        c = _Cand(self.t, env, tuple([(arc[0], e.key, arc[1]) for arc, e in zip(self.arcs, entries)]), ages, entries)
        self.cands[c.key] = c
        for e in entries:
            e.cands.add(c.key)
        return c

    def _enough(self, entries: tuple) -> bool:
        """Whether a combination takes no more copies of a token than its
        place holds."""
        for group in self.shared:
            keys = [entries[k].key for k in group]
            if any(keys.count(entries[k].key) > entries[k].copies for k in group):
                return False
        return True

    def _combo(self, at: tuple) -> tuple:
        """(rank, memory indices, entries) of the product's combination
        ``at``; the rank orders as ``_Cand.rank`` does."""
        entries = tuple(mem[i] for mem, i in zip(self.mems, at))
        values = tuple(entries[k].share[0][j] for k, j in self.layout)
        return (values, tuple(e.key for e in entries)), at, entries

    def _walk(self, snapshot: Snapshot) -> Optional[_Cand]:
        """Visit the product of the alpha memories in canonical order, best
        first, building and settling each combination not yet built, up to
        the first candidate that holds at the clock.  The rank grows with
        each memory index, so a combination is reached from the one that
        has its last non-zero index one lower, and only that one."""
        mems = self.mems
        if all(mems):
            heap = [self._combo((0,) * len(mems))]
            while heap:
                rank, at, entries = heappop(heap)
                c = self.cands.get(rank[1])
                if c is None and (c := self._bind(entries)) is not None:
                    self._build(c, snapshot)
                if c is not None and c.live:
                    return c
                last = max((k for k, i in enumerate(at) if i), default=0)
                for k in range(last, len(mems)):
                    if at[k] + 1 < len(mems[k]):
                        heappush(heap, self._combo(at[:k] + (at[k] + 1,) + at[k + 1 :]))
        self.complete = True
        return None

    def _build(self, c: _Cand, snapshot: Snapshot) -> _Cand:
        """Finish a candidate the walk bound: solve its truth set, put it in
        order and settle it at the clock."""
        c.truth = guard_truth(self.t.guard, c.env, instance=snapshot.instance, ages=c.ages)
        insort(self.order, c, key=_rank)
        self._settle(c, snapshot.clock)
        return c

    # eager state

    def observe(self, at: int) -> None:
        """Bring every candidate's eager state to a step at ``at``.  A
        candidate holds when ``at`` lies in its truth set; its onset is the
        first step of the run of steps at which it held, so a lapse between
        two steps goes unnoticed.  A slot with no fresh candidate and no
        heap entry due by ``at`` has nothing to do."""
        wait, hold, due = self.wait, self.hold, self.due
        if not (self.fresh or wait and wait[0][0] <= at or hold and hold[0][0] <= at or due and due[0][0] <= at):
            return
        fresh, self.fresh = self.fresh, []
        for c in fresh:
            if self.cands.get(c.key) is c:
                self._settle(c, at)
        for heap in (hold, wait):
            while heap and heap[0][0] <= at:
                _, _, c, ver = heappop(heap)
                if ver == c.ver:
                    self._settle(c, at)
        while due and due[0][0] <= at:
            _, _, _, c, ver = heappop(due)
            if ver == c.ver:
                c.live = True
                self.live += 1
        if len(wait) + len(hold) + len(due) > 4 * len(self.order) + 64:
            # a candidate has at most two entries that count
            for heap in (wait, hold, due):
                heap[:] = [e for e in heap if e[-1] == e[-2].ver]
                heapify(heap)

    def _settle(self, c: _Cand, at: int) -> None:
        """Settle a candidate at ``at`` from its truth set, or under the
        random policy from the instants at which it is pickable."""
        c.ver += 1
        self._drop(c)
        n = next(self.seq)
        spans = c.truth if self.groups is None else c.pickable()
        lo, hi = next(((lo, hi) for lo, hi in spans if hi >= at), (None, None))
        if lo is None or lo > at:
            c.onset = None
            if lo is not None:
                heappush(self.wait, (lo, n, c, c.ver))
            return
        if hi != inf:
            heappush(self.hold, (hi + 1, n, c, c.ver))
        if self.groups is not None:
            self._pick(c)
            return
        if c.onset is None:
            c.onset = at
        if c.onset + self.delay <= at:
            c.live = True
            self.live += 1
        else:
            heappush(self.due, (c.onset + self.delay, c.rank, n, c, c.ver))

    def _pick(self, c: _Cand) -> None:
        """Enter a candidate pickable now in its binding's group; the first
        of the group is its entry in ``ready``."""
        c.live = True
        self.live += 1
        group = self.groups.setdefault(c.items, [])
        i = bisect_left(group, c.rank, key=_rank)
        group.insert(i, c)
        if not i:
            if len(group) > 1:
                # bindings lead the rank, so a new first takes the old one's place
                self.ready[bisect_left(self.ready, group[1].rank, key=_rank)] = c
            else:
                insort(self.ready, c, key=_rank)

    def _drop(self, c: _Cand) -> None:
        """Take a candidate out of the live ones and out of its group; the
        next of the group moves up when the first leaves."""
        if c.live and self.groups is not None:
            group = self.groups[c.items]
            i = bisect_left(group, c.rank, key=_rank)
            del group[i]
            if not i:
                j = bisect_left(self.ready, c.rank, key=_rank)
                if group:
                    self.ready[j] = group[0]
                else:
                    del self.ready[j]
                    del self.groups[c.items]
        self.live -= c.live
        c.live = False

    @staticmethod
    def _top(heap: list):
        while heap and heap[0][-1] != heap[0][-2].ver:
            heappop(heap)
        return heap[0] if heap else None

    def first_ready(self, snapshot: Snapshot) -> Optional[_Cand]:
        """The first candidate in canonical order that holds and is due at
        the snapshot's clock; a slot that is not complete walks to it."""
        if not self.complete:
            return self._walk(snapshot)
        return next(c for c in self.order if c.live) if self.live else None

    def next_due(self) -> Optional[tuple]:
        """(due time, candidate) of the holding candidate due first, ties
        broken by canonical order."""
        top = self._top(self.due)
        return None if top is None else (top[0], top[3])

    def next_flip(self) -> Optional[int]:
        """The first instant at which a candidate that does not hold now
        starts to hold; exact once the slot is complete."""
        top = self._top(self.wait)
        return None if top is None else top[0]


class Agenda:
    """The candidates of every transition, kept across the steps of a run.

    Slots are built on first use from the current snapshot.  ``commit``
    takes the snapshot after a firing with the token delta that
    ``_execute`` applied to the marking: the tokens removed from normal
    places and lost by views, and the tokens produced and gained by views.
    It hands each change to the slots of the transitions whose input places
    it touches.  A slot catches up when it is next asked (``slot``), so a
    transition that no step asks about binds nothing.  Every slot binds from one alpha
    memory per input arc.  ``policy`` is the run's.  Under "eager", slots
    also keep the eager policy's onsets and heaps, and the slots of
    delay-0 transitions whose arcs bind disjoint variables build their
    candidates lazily, walking their memories only as far as a step asks.
    Under "random", slots keep the random policy's heaps and ready lists.
    Every other slot builds its candidates fully; the one-shot agendas of
    ``enabled``, ``advance_clock`` and ``fire``, whose policy is None,
    keep no heaps.
    """

    def __init__(self, net: Net, snapshot: Snapshot, policy: Optional[str] = None):
        self.net = net
        self.snap = snapshot
        self.policy = policy
        self.slots: dict[str, _Slot] = {}
        self.readers: dict[str, list[_Slot]] = {}  # place id -> slots it feeds

    def slot(self, t: Transition) -> _Slot:
        slot = self.slots.get(t.id)
        if slot is None:
            slot = self.slots[t.id] = _Slot(self.net, self.snap, t, self.policy)
            for place in dict.fromkeys(arc.place for arc in t.inputs):
                self.readers.setdefault(place, []).append(slot)
        else:
            slot.sync(self.snap)
        return slot

    def commit(self, snapshot: Snapshot, removed, added) -> None:
        """Take the snapshot after a firing and add each ``(place id,
        token)`` pair it ``removed`` and ``added`` to the pending changes of
        the slots that the place feeds, keyed by the token itself."""
        for sign, pairs in ((-1, removed), (1, added)):
            for pid, tok in pairs:
                for slot in self.readers.get(pid, ()):
                    pending = slot.pending.setdefault(pid, {})
                    pending[tok] = pending.get(tok, 0) + sign
        self.snap = snapshot

    def eager_step(self, until: Optional[int]):
        """The eager policy's next move: ("fire", (cand, at)), ("advance",
        clock), or None at quiescence.

        The first transition by id with a candidate that holds now and is
        due fires its first such candidate in canonical order.  Delay-0
        transitions after it are not asked; delayed ones are, every step,
        to keep their onsets.  Otherwise the earliest of the least due time
        (ties to the first transition by id, then canonical order) and the
        first flip of a candidate that does not hold is next.
        """
        clock = self.snap.clock
        best = None
        asked = []
        for t in _transitions_by_id(self.net):
            if best is not None and not t.delay[0]:
                continue  # cannot beat the tie-break and keeps no onsets
            slot = self.slot(t)
            slot.observe(clock)
            asked.append(slot)
            if best is None:
                best = slot.first_ready(self.snap)
        if best is not None:
            return None if until is not None and clock > until else ("fire", (best, clock))
        due: Optional[int] = None
        min_flip: Optional[int] = None
        for slot in asked:
            head = slot.next_due()
            if head is not None and (due is None or head[0] < due):
                due, best = head
            flip = slot.next_flip()
            if flip is not None and (min_flip is None or flip < min_flip):
                min_flip = flip
        if min_flip is not None and (due is None or min_flip < due):
            due, best = min_flip, None
        if due is None or (until is not None and due > until):
            return None
        if best is None or not best.holds(due):
            # nothing is due before the flip, or the guard held at
            # enablement but lapsed before the window opened: let time pass
            # and reschedule from there
            return ("advance", due)
        return ("fire", (best, due))

    def random_step(self, rng: random.Random, until: Optional[int]):
        """The random policy's next move: a uniformly drawn pair among
        those that can fire now, at a drawn time in its delay window at
        which its guard holds.  Returns ("fire", (cand, at)), ("advance",
        clock), or None at quiescence.

        The pairs are the ready lists of the slots, in transition-id order:
        the draw indexes them.  When none is ready, the clock advances to
        the least instant at which a candidate becomes pickable."""
        clock = self.snap.clock
        slots = []
        for t in _transitions_by_id(self.net):
            slot = self.slot(t)
            slot.observe(clock)
            slots.append(slot)
        k = sum(len(slot.ready) for slot in slots)
        if k:
            k = rng.randrange(k)
            for slot in slots:
                if k < len(slot.ready):
                    break
                k -= len(slot.ready)
            cand = slot.ready[k]
            at = _draw_time(rng, cand.truth, clock, cand.transition.delay)
            if until is not None and at > until:
                return None
            return ("fire", (cand, at))
        min_flip = min((flip for flip in map(_Slot.next_flip, slots) if flip is not None), default=None)
        if min_flip is None or (until is not None and min_flip > until):
            return None
        return ("advance", min_flip)


def enabled(net: Net, snapshot: Snapshot) -> list[tuple[str, dict, int]]:
    """Currently enabled (transition id, binding, earliest firing time)
    triples, deterministically ordered by transition id then canonical
    binding order."""
    _ensure_valid(net)
    _require_compliant(net, snapshot)
    agenda = Agenda(net, snapshot)
    clock = snapshot.clock
    out = []
    seen = set()
    for t in _transitions_by_id(net):
        for cand in agenda.slot(t).order:
            key = (t.id, cand.items)
            if cand.holds(clock) and key not in seen:
                seen.add(key)
                out.append((t.id, dict(cand.env), clock + t.delay[0]))
    return out


def advance_clock(net: Net, snapshot: Snapshot) -> Optional[int]:
    """Minimum earliest firing time over everything that is enabled now or
    will become enabled by clock progress alone; None when quiescent."""
    _ensure_valid(net)
    _require_compliant(net, snapshot)
    agenda = Agenda(net, snapshot)
    best: Optional[int] = None
    for t in net.transitions:
        for cand in agenda.slot(t).order:
            u = first_true(cand.truth, snapshot.clock)
            if u is not None and (best is None or u + t.delay[0] < best):
                best = u + t.delay[0]
    return best


# ---------------------------------------------------------------------------
# firing

def _execute(net: Net, snapshot: Snapshot, cand: _Cand, at: int, step: int) -> tuple[Snapshot, FiringEvent, tuple]:
    """Fire ``cand`` at ``at`` through its transition's plan (``_kernel``):
    the snapshot after it, its event, and its token delta ``(removed,
    added)`` of ``(place id, token)`` pairs.  A committed firing removes
    the tokens it consumed from normal places and adds the tokens it
    produced; for a transition whose plan lists views, ``refresh_views``
    appends to the same two lists the tokens its view places lose and
    gain.  A rolled-back firing removes the consumed tokens and adds those
    of its rollback arcs, and a halted one changes nothing.  One
    ``Marking.updated`` call applies the delta, and ``run`` hands the same
    delta to its agenda."""
    return _firing(net, cand.transition).fire(snapshot, cand, at, step)


def fire(
    net: Net, snapshot: Snapshot, transition: str, binding: Mapping[str, object], at: int, step: int = 0
) -> tuple[Snapshot, FiringEvent]:
    """Fire one enabled pair at time ``at``.

    The snapshot's instance must be compliant, as for run() and replay().
    ``at`` must lie in the delay window anchored at the snapshot clock.  Use
    run() for multi-step execution, where windows anchor at the moment of
    enablement instead.
    """
    _ensure_valid(net)
    t = next((tr for tr in net.transitions if tr.id == transition), None)
    if t is None:
        raise DefinitionError(f"unknown transition {transition!r}")
    _require_compliant(net, snapshot)
    items = tuple(sorted(binding.items()))
    cand = next(
        (c for c in Agenda(net, snapshot).slot(t).order if c.items == items and c.holds(snapshot.clock)),
        None,
    )
    if cand is None:
        raise FiringError(f"transition {transition!r} is not enabled under binding {dict(binding)!r}")
    lo, hi = snapshot.clock + t.delay[0], snapshot.clock + t.delay[1]
    if not (lo <= at <= hi):
        raise FiringError(
            f"firing time {at} outside delay window [{lo}, {hi}] of transition {transition!r}"
        )
    return _execute(net, snapshot, cand, at, step)[:2]


# ---------------------------------------------------------------------------
# runs

def _check_view_consistency(net: Net, snapshot: Snapshot) -> None:
    try:
        check_views(net, snapshot)
    except DefinitionError as e:
        raise ViewConsistencyError(str(e)) from None


def run(
    net: Net,
    initial: Snapshot,
    *,
    policy: str = "eager",
    seed: Optional[int] = None,
    max_steps: int = 10_000,
    until: Optional[int] = None,
    check_views: bool = False,
) -> Trace:
    """Execute until quiescence, halt, max_steps events, or the clock passing
    ``until``.  Deterministic for a fixed (net, initial, policy, seed)."""
    _ensure_valid(net)
    _require_compliant(net, initial)
    if policy not in ("eager", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = random.Random(seed if seed is not None else 0) if policy == "random" else None

    meta = TraceMeta(net.fingerprint(), policy, seed if policy == "random" else None)
    events: list[FiringEvent] = []
    final = initial  # snapshot after the last event; clock advances between
    # events are cursor movement only, so traces replay exactly
    agenda = Agenda(net, initial, policy)

    while len(events) < max_steps:
        if policy == "eager":
            step_result = agenda.eager_step(until)
        else:
            step_result = agenda.random_step(rng, until)
        if step_result is None:
            break
        kind, payload = step_result
        if kind == "advance":
            agenda.snap = agenda.snap.advanced(payload)
            continue
        cand, at = payload
        snap, event, (removed, added) = _execute(net, agenda.snap, cand, at, len(events))
        agenda.commit(snap, removed, added)
        final = snap
        events.append(event)
        if check_views and event.outcome == "committed":
            _check_view_consistency(net, snap)
        if event.outcome == "halted":
            break

    return Trace(meta, initial, tuple(events), final)


def _draw_time(rng: random.Random, truth: tuple, clock: int, delay: tuple) -> int:
    """A time drawn uniformly from the instants of the window
    [clock + lo, clock + hi] at which the guard holds."""
    lo, hi = delay
    window = intersect(truth, ((clock + lo, clock + hi),))
    r = rng.randrange(sum(b - a + 1 for a, b in window))
    for a, b in window:
        if r <= b - a:
            return a + r
        r -= b - a + 1
    raise AssertionError("unreachable: r < total count")


def _recorded_cand(net: Net, snapshot: Snapshot, t: Transition, ev: FiringEvent) -> Optional[_Cand]:
    """The candidate an event recorded, or None unless it is enabled at
    ``ev.time``: the tokens lie on the input places in arc order, the
    patterns match, the tokens are present (as many copies as consumed),
    the binding is exactly the recorded one, and the guard holds.  Each
    arc binds its token through its binder straight into one binding, by
    the rule of ``_Slot._bind``, and the presence of each distinct pair is
    tested once, for as many copies as the event consumes.  The candidate
    is built directly with the fields ``_execute`` reads, and keeps the
    recorded items."""
    consumed = ev.consumed
    arcs = _firing(net, t).inputs
    if len(consumed) != len(arcs):
        return None
    marking = snapshot.marking
    env: dict = {}
    ages: dict = {}
    matches = []
    for i, ((place, is_view, bind, names), pair) in enumerate(zip(arcs, consumed)):
        pid, tok = pair
        bound = bind(tok[0]) if pid == place else None
        if bound is None:
            return None
        if consumed.index(pair) == i and not marking.holds(pid, tok, consumed.count(pair)):
            return None
        if not env:
            env = bound
        else:
            for name, v in bound.items():
                prior = env.setdefault(name, v)
                if prior is not v and prior != v:
                    return None  # no binding can be the recorded one
        for name in names:
            ages[name] = tok[1]
        matches.append((pid, tok, is_view))
    if tuple(sorted(env.items())) != ev.binding:
        return None
    if guard_flip_time(t.guard, env, instance=snapshot.instance, ages=ages, from_time=ev.time) != ev.time:
        return None
    cand = _Cand.__new__(_Cand)
    cand.transition, cand.env, cand.matches, cand.ages, cand.items = t, env, tuple(matches), ages, ev.binding
    return cand


def replay(net: Net, trace: Trace, *, verify: bool = True) -> Snapshot:
    """Fold the recorded events over the initial snapshot.

    Each event is bound from the tokens and the binding it recorded,
    without enumerating candidates (see ``_recorded_cand``).  Replay
    verifies that the initial instance is compliant, that events are
    numbered in order and never go back in time, and that each event's
    tokens are present, match its transition's input arcs and give exactly
    its recorded binding, under which the guard holds at the event's time.
    With verify=True (default) every recomputed event and the final
    snapshot must also match the recording exactly.  Replay does not check
    that an event's time lies in its transition's delay window: the two
    policies anchor that window differently.
    """
    _ensure_valid(net)
    _require_compliant(net, trace.initial)
    by_id = {t.id: t for t in net.transitions}
    snap = trace.initial
    for i, ev in enumerate(trace.events):
        t = by_id.get(ev.transition)
        if t is None:
            raise DefinitionError(f"trace names unknown transition {ev.transition!r}")
        if ev.step != i:
            raise FiringError(f"replay: event {i} is recorded as step {ev.step}")
        if ev.time < snap.clock:
            raise FiringError(
                f"replay: event {ev.step} at time {ev.time} precedes the clock {snap.clock}"
            )
        # no clock advance: binding and firing at ev.time read the
        # snapshot's instance and marking, never its clock
        match = _recorded_cand(net, snap, t, ev)
        if match is None:
            raise FiringError(
                f"replay: event {ev.step} ({ev.transition!r}) is not enabled under its binding"
            )
        snap, got, _ = _execute(net, snap, match, ev.time, ev.step)
        if verify and got != ev:
            raise FiringError(f"replay: event {ev.step} diverged: {got!r} != {ev!r}")
    if verify and not (
        snap.instance == trace.final.instance
        and snap.marking == trace.final.marking
        and snap.clock == trace.final.clock
    ):
        raise FiringError("replay: final snapshot diverged from the recorded one")
    return snap
