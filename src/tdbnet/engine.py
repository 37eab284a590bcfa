"""Execution engine for timed db-nets.

Semantics in brief:

* One enumerator, ``_enumerate``, answers every scheduler query
  (``enabled``, ``advance_clock``, ``fire`` and both policies' steps).  It
  binds a transition's input arcs to distinct tokens through one compiled
  binder per arc and returns the candidates in canonical binding order;
  the sort is stable, so candidates with equal bindings keep pool order.
  Pools are sorted, so equal tokens are adjacent, and each arc tries one
  token of every run of equal ones, so no two candidates consume equal
  tokens arc for arc.  ``replay`` binds recorded tokens through the same
  binders.
* Snapshots are color-checked: ``initial_snapshot``, ``run``, ``fire``,
  ``replay``, ``enabled`` and ``advance_clock`` raise ``DefinitionError``
  naming the place and the token when a token does not fit its place's
  color, so the values of one pool always compare with each other.
* ``enabled`` lists (transition, binding) pairs whose input patterns match
  distinct tokens and whose guard holds at the snapshot clock; the earliest
  firing time of a freshly enabled pair is ``clock + delay_min``.
* ``fire`` consumes the matched tokens, evaluates action arguments against
  the pre-firing instance, applies the actions atomically, produces output
  tokens, and refreshes every view place.  A constraint violation either
  produces tokens along the rollback arcs (outcome ``rolled_back``, instance
  reverted) or, absent rollback arcs, freezes the run at the last committed
  instance (outcome ``halted``).
* ``run`` is a discrete-event loop.  Each step makes one query per
  candidate to the guard's exact truth-set solver: the eager policy asks
  for the first instant from the clock at which the guard holds
  (``guard_flip_time``), which is the clock itself when it holds now; the
  random policy asks for the truth set (``guard_truth``).  The loop visits
  every instant at which a guard flips.  ``enabled``, ``fire`` and
  ``replay`` ask the same solver whether a guard holds at one instant.
* The eager policy anchors delay windows at the moment a specific binding
  became enabled, and fires, among the candidates due earliest, the first
  by transition id then canonical binding order.
* The seeded-random policy anchors the window ``[clock + lo, clock + hi]``
  at the clock.  A candidate can fire when its guard holds now and at some
  instant of that window.  The policy draws one such candidate with
  ``randrange``, then the firing time with one more ``randrange`` over
  the window's instants at which the guard holds, counted in time order.
  When the guard holds on the whole window, that draw is
  ``clock + randint(lo, hi)``.  Every drawn firing therefore satisfies
  its guard, and the trace replays.  When no candidate can fire, the
  clock advances to the first instant at which one can.

Traces replay exactly: folding the recorded events over the initial
snapshot reproduces every intermediate and the final snapshot.  ``replay``
binds each event from the tokens it recorded as consumed, without
enumerating candidates.  It verifies a compliant initial instance, events
in step and time order, consumed tokens present in the marking and
matching the input arcs in order, the recorded binding, and the guard at
the event's time.  It does not verify delay windows, which the eager
policy anchors at the onset of enablement and the random policy at the
clock.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional

from .exprs import (
    DefinitionError,
    Var,
    eval_expr,
    first_true,
    guard_flip_time,
    guard_truth,
    intersect,
    match_pattern,
    pattern_vars,
    window_starts,
)
from .net import Net, Snapshot, Token, Transition, check_marking, refresh_views, validate_net, view_tokens
from .persistence import ConstraintViolation, apply_action_delta, check_compliance
from .values import conforms


class FiringError(ValueError):
    """fire() called with a pair that is not enabled or a time outside the
    delay window."""


class ViewConsistencyError(AssertionError):
    """A view place diverged from its bound query (debug validator)."""


@dataclass(frozen=True)
class FiringEvent:
    step: int
    time: int
    transition: str
    binding: tuple  # sorted (var, value) pairs
    consumed: tuple  # (place_id, Token) pairs, view reads included
    produced: tuple  # (place_id, Token) pairs
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
# candidate enumeration

class _Cand:
    __slots__ = ("transition", "env", "matches", "ages", "_items")

    def __init__(self, transition: Transition, env: dict, matches: tuple, ages: dict):
        self.transition = transition
        self.env = env
        self.matches = matches  # ((place_id, Token, is_view), ...)
        self.ages = ages
        self._items = None

    def binding_items(self) -> tuple:
        if self._items is None:
            # variable names are distinct, so values are never compared
            self._items = tuple(sorted(self.env.items()))
        return self._items

    def onset_key(self) -> tuple:
        # identity only (dict key / dedup); values are hashable as-is
        sig = tuple((pid, tok.value, tok.created_at) for pid, tok, _ in self.matches)
        return (self.transition.id, self.binding_items(), sig)


def _require_compliant(net: Net, snapshot: Snapshot) -> None:
    bad = check_compliance(snapshot.instance)
    if bad:
        raise DefinitionError(f"initial instance violates constraints: {bad[0].message}")
    check_marking(net, snapshot.marking)


def _ensure_valid(net: Net) -> None:
    if not getattr(net, "_validated", False):
        validate_net(net)
        object.__setattr__(net, "_validated", True)


def _binder(pattern, bound: set):
    """``bind(value, env)`` for one input-arc pattern: env extended by the
    pattern's variables, or None when the value does not match.  Distinct
    variables that no earlier arc binds bind by position; any other pattern
    goes through ``match_pattern``, looked up at call time."""
    terms = pattern if isinstance(pattern, tuple) else (pattern,)
    names = pattern_vars(pattern)
    if any(type(term) is not Var for term in terms) or len(set(names) - bound) != len(names):
        return lambda value, env: match_pattern(pattern, value, env)
    if not isinstance(pattern, tuple):
        name = pattern.name
        return lambda value, env: {**env, name: value}
    width = len(names)

    def bind(value, env):
        if not isinstance(value, tuple) or len(value) != width:
            return None
        new = dict(env)
        new.update(zip(names, value))
        return new

    return bind


def _binders(net: Net, t: Transition) -> tuple:
    """(place id, is_view, bind, names that take the token's age) per input
    arc of ``t``, in arc order; built once per net."""
    cached = getattr(net, "_binders", None)
    if cached is None:
        cached = {}
        for tr in net.transitions:
            arcs, bound = [], set()
            for arc in tr.inputs:
                is_view = net.place(arc.place).kind == "view"
                names = pattern_vars(arc.pattern)
                arcs.append((arc.place, is_view, _binder(arc.pattern, bound), () if is_view else tuple(names)))
                bound.update(names)
            cached[tr.id] = tuple(arcs)
        object.__setattr__(net, "_binders", cached)
    return cached[t.id]


def _enumerate(net: Net, snapshot: Snapshot, t: Transition) -> list[_Cand]:
    """All matches of a transition's input arcs to distinct tokens, in
    canonical binding order; candidates with equal bindings keep pool
    order.  Equal tokens are tried once per arc, so no two candidates
    consume equal tokens arc for arc.  Guards are not evaluated here."""
    partial = [({}, {}, (), ())]  # env, ages, matches, pool index per arc
    for place, is_view, bind, names in _binders(net, t):
        pool = snapshot.marking.tokens(place)
        grown = []
        for env, ages, matches, used in partial:
            taken = {i for (pid, _, _), i in zip(matches, used) if pid == place}
            prev = None
            for i, tok in enumerate(pool):
                if i in taken or tok == prev:  # pools are sorted: equal tokens are adjacent
                    continue
                prev = tok
                env2 = bind(tok.value, env)
                if env2 is not None:
                    ages2 = {**ages, **dict.fromkeys(names, tok.created_at)} if names else ages
                    grown.append((env2, ages2, matches + ((place, tok, is_view),), used + (i,)))
        partial = grown
    out = [_Cand(t, env, matches, ages) for env, ages, matches, _ in partial]
    out.sort(key=_Cand.binding_items)
    return out


def _transitions_by_id(net: Net) -> tuple[Transition, ...]:
    cached = getattr(net, "_by_id", None)
    if cached is None:
        cached = tuple(sorted(net.transitions, key=lambda tr: tr.id))
        object.__setattr__(net, "_by_id", cached)
    return cached


def _flip(snapshot: Snapshot, cand: _Cand, from_time: int) -> Optional[int]:
    """The first instant >= from_time at which the candidate's guard holds,
    which is from_time itself when it holds now; None if it never will."""
    return guard_flip_time(
        cand.transition.guard,
        cand.env,
        instance=snapshot.instance,
        ages=cand.ages,
        from_time=from_time,
    )


def enabled(net: Net, snapshot: Snapshot) -> list[tuple[str, dict, int]]:
    """Currently enabled (transition id, binding, earliest firing time)
    triples, deterministically ordered by transition id then canonical
    binding order."""
    _ensure_valid(net)
    _require_compliant(net, snapshot)
    out = []
    seen = set()
    for t in _transitions_by_id(net):
        for cand in _enumerate(net, snapshot, t):
            if _flip(snapshot, cand, snapshot.clock) != snapshot.clock:
                continue
            key = (t.id, cand.binding_items())
            if key in seen:
                continue
            seen.add(key)
            out.append((t.id, dict(cand.env), snapshot.clock + t.delay[0]))
    return out


def advance_clock(net: Net, snapshot: Snapshot) -> Optional[int]:
    """Minimum earliest firing time over everything that is enabled now or
    will become enabled by clock progress alone; None when quiescent."""
    _ensure_valid(net)
    _require_compliant(net, snapshot)
    best: Optional[int] = None
    for t in net.transitions:
        for cand in _enumerate(net, snapshot, t):
            u = _flip(snapshot, cand, snapshot.clock)
            if u is None:
                continue
            ft = u + t.delay[0]
            if best is None or ft < best:
                best = ft
    return best


# ---------------------------------------------------------------------------
# firing

def _produce(net: Net, arcs, cand: _Cand, instance, at: int) -> list[tuple[str, Token]]:
    out = []
    for arc in arcs:
        if arc.when is not None:
            keep = eval_expr(arc.when, cand.env, instance=instance, now=at, ages=cand.ages)
            if not keep:
                continue
        value = eval_expr(arc.expr, cand.env, instance=instance, now=at, ages=cand.ages)
        place = net.place(arc.place)
        if not conforms(value, place.color):
            raise DefinitionError(
                f"transition {cand.transition.id!r}: value {value!r} does not fit place {place.id!r}"
            )
        out.append((place.id, Token(value, at)))
    return out


def _execute(net: Net, snapshot: Snapshot, cand: _Cand, at: int, step: int) -> tuple[Snapshot, FiringEvent]:
    t = cand.transition
    consumed = tuple((pid, tok) for pid, tok, _ in cand.matches)
    removals = [(pid, tok) for pid, tok, is_view in cand.matches if not is_view]

    pre = snapshot.instance
    calls = []
    for call in t.actions:
        action = net.action(call.action)
        argvals = [
            eval_expr(a, cand.env, instance=pre, now=at, ages=cand.ages) for a in call.args
        ]
        calls.append((action, argvals))

    work = pre
    added: list[tuple] = []
    deleted: list[tuple] = []
    violation: Optional[ConstraintViolation] = None
    for action, argvals in calls:
        res = apply_action_delta(work, action, argvals, at)
        if isinstance(res, ConstraintViolation):
            violation = res
            break
        work, adds, dels = res
        added.extend(adds)
        deleted.extend(dels)

    if violation is not None:
        if t.rollbacks:
            produced = _produce(net, t.rollbacks, cand, pre, at)
            marking = snapshot.marking.updated(remove=removals, add=produced)
            snap2 = Snapshot(pre, marking, at)
            outcome = "rolled_back"
        else:
            produced = []
            snap2 = Snapshot(pre, snapshot.marking, at)
            outcome = "halted"
        event = FiringEvent(
            step, at, t.id, cand.binding_items(), consumed, tuple(produced), (), (), outcome
        )
        return snap2, event

    produced = _produce(net, t.outputs, cand, pre, at)
    changed = {rel for rel, _, _ in added} | {rel for rel, _, _ in deleted}
    marking = snapshot.marking.updated(remove=removals, add=produced)
    marking = refresh_views(net, work, marking, changed)
    snap2 = Snapshot(work, marking, at)
    event = FiringEvent(
        step,
        at,
        t.id,
        cand.binding_items(),
        consumed,
        tuple(produced),
        tuple(added),
        tuple(deleted),
        "committed",
    )
    return snap2, event


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
        (
            c
            for c in _enumerate(net, snapshot, t)
            if c.binding_items() == items and _flip(snapshot, c, snapshot.clock) == snapshot.clock
        ),
        None,
    )
    if cand is None:
        raise FiringError(f"transition {transition!r} is not enabled under binding {dict(binding)!r}")
    lo, hi = snapshot.clock + t.delay[0], snapshot.clock + t.delay[1]
    if not (lo <= at <= hi):
        raise FiringError(
            f"firing time {at} outside delay window [{lo}, {hi}] of transition {transition!r}"
        )
    return _execute(net, snapshot, cand, at, step)


# ---------------------------------------------------------------------------
# runs

def _check_view_consistency(net: Net, snapshot: Snapshot) -> None:
    for place in net.places:
        if place.kind != "view":
            continue
        expect = view_tokens(net, place, snapshot.instance)
        got = snapshot.marking.tokens(place.id)
        if expect != got:
            raise ViewConsistencyError(
                f"view place {place.id!r}: marking {got!r} != query result {expect!r}"
            )


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
    snap = initial
    final = initial  # snapshot after the last event; clock advances between
    # events are cursor movement only, so traces replay exactly
    if check_views:
        _check_view_consistency(net, snap)
    onsets: dict = {}

    while len(events) < max_steps:
        if policy == "eager":
            step_result = _eager_step(net, snap, onsets, until)
        else:
            step_result = _random_step(net, snap, rng, until)
        if step_result is None:
            break
        kind, payload = step_result
        if kind == "advance":
            snap = snap.advanced(payload)
            continue
        cand, at = payload
        snap, event = _execute(net, snap, cand, at, len(events))
        final = snap
        events.append(event)
        if check_views and event.outcome == "committed":
            _check_view_consistency(net, snap)
        if event.outcome == "halted":
            break

    return Trace(meta, initial, tuple(events), final)


def _eager_step(net: Net, snap: Snapshot, onsets: dict, until: Optional[int]):
    """Pick the next action for the eager policy.

    Returns ("fire", (cand, at)), ("advance", clock), or None at quiescence.
    Mutates ``onsets``, the map from candidate identity to the time its
    enablement began (tracked only where the delay window needs it).
    """
    clock = snap.clock
    best = None  # least (ft, tid, binding, cand) among candidates holding now
    min_flip: Optional[int] = None
    new_onsets: dict = {}

    for t in _transitions_by_id(net):
        dmin = t.delay[0]
        if dmin == 0 and best is not None and best[0] == clock:
            continue  # cannot beat the tie-break and needs no onset tracking
        for cand in _enumerate(net, snap, t):
            u = _flip(snap, cand, clock)
            if u != clock:
                if u is not None and (min_flip is None or u < min_flip):
                    min_flip = u
                continue
            ft = clock
            if dmin:
                key = cand.onset_key()
                onset = new_onsets[key] = onsets.get(key, clock)
                ft = max(onset + dmin, clock)
            if best is None or (ft, t.id, cand.binding_items()) < best[:3]:
                best = (ft, t.id, cand.binding_items(), cand)
            if not dmin:
                # the first candidate in canonical order fires now; flip
                # times of the candidates after it are irrelevant
                break

    onsets.clear()
    onsets.update(new_onsets)

    due = None if best is None else best[0]
    if min_flip is not None and (due is None or min_flip < due):
        due, best = min_flip, None
    if due is None or (until is not None and due > until):
        return None
    if best is None:
        return ("advance", due)
    cand = best[3]
    if due != clock and _flip(snap, cand, due) != due:
        # the guard held at enablement but lapsed before the window opened;
        # let time pass and reschedule from there
        return ("advance", due)
    return ("fire", (cand, due))


def _random_step(net: Net, snap: Snapshot, rng: random.Random, until: Optional[int]):
    """Pick the next action for the random policy: a uniformly drawn pair
    among those that can fire now, at a drawn time in its delay window at
    which its guard holds.  Returns ("fire", (cand, at)), ("advance",
    clock), or None at quiescence."""
    clock = snap.clock
    cands = []  # (cand, truth set of its guard), first of each binding
    seen = set()
    min_flip: Optional[int] = None
    for t in _transitions_by_id(net):
        lo, hi = t.delay
        for cand in _enumerate(net, snap, t):
            truth = guard_truth(t.guard, cand.env, instance=snap.instance, ages=cand.ages)
            # instants at which the guard holds and the window anchored there
            # meets the truth set; a window starting at its anchor always does
            ready = truth if lo == 0 else intersect(truth, window_starts(truth, lo, hi))
            u = first_true(ready, clock)
            if u == clock:
                key = (t.id, cand.binding_items())
                if key not in seen:
                    seen.add(key)
                    cands.append((cand, truth))
            elif u is not None and (min_flip is None or u < min_flip):
                min_flip = u
    if cands:
        cand, truth = cands[rng.randrange(len(cands))]
        at = _draw_time(rng, truth, clock, cand.transition.delay)
        if until is not None and at > until:
            return None
        return ("fire", (cand, at))
    if min_flip is None:
        return None
    if until is not None and min_flip > until:
        return None
    return ("advance", min_flip)


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
    """The candidate an event recorded, bound from its consumed tokens, or
    None unless it is enabled at ``ev.time``: the tokens lie on the
    transition's input places in arc order and are present in the marking
    (as many copies as are consumed), the patterns match, the binding is
    the recorded one, and the guard holds."""
    if len(ev.consumed) != len(t.inputs):
        return None
    env: Optional[dict] = {}
    ages: dict = {}
    matches = []
    for (place, is_view, bind, names), (pid, tok) in zip(_binders(net, t), ev.consumed):
        if pid != place:
            return None
        env = bind(tok.value, env)
        if env is None:
            return None
        ages.update(dict.fromkeys(names, tok.created_at))
        matches.append((pid, tok, is_view))
    for (pid, tok), copies in Counter(ev.consumed).items():
        if not snapshot.marking.holds(pid, tok, copies):
            return None
    cand = _Cand(t, env, tuple(matches), ages)
    if cand.binding_items() != ev.binding or _flip(snapshot, cand, ev.time) != ev.time:
        return None
    return cand


def replay(net: Net, trace: Trace, *, verify: bool = True) -> Snapshot:
    """Fold the recorded events over the initial snapshot.

    Each event is bound from the tokens it recorded as consumed, without
    enumerating candidates.  Replay verifies that the initial instance is
    compliant, that events are numbered in order and never go back in time,
    and that each event's tokens are present, match its transition's input
    arcs and give its recorded binding, under which the guard holds at the
    event's time.  With verify=True (default) every recomputed event and
    the final snapshot must also match the recording exactly.  Replay does
    not check that an event's time lies in its transition's delay window:
    the two policies anchor that window differently.
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
        if ev.time > snap.clock:
            snap = snap.advanced(ev.time)
        match = _recorded_cand(net, snap, t, ev)
        if match is None:
            raise FiringError(
                f"replay: event {ev.step} ({ev.transition!r}) is not enabled under its binding"
            )
        snap, got = _execute(net, snap, match, ev.time, ev.step)
        if verify and got != ev:
            raise FiringError(f"replay: event {ev.step} diverged: {got!r} != {ev!r}")
    if verify and not (
        snap.instance == trace.final.instance
        and snap.marking == trace.final.marking
        and snap.clock == trace.final.clock
    ):
        raise FiringError("replay: final snapshot diverged from the recorded one")
    return snap
