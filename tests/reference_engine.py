"""The scheduler and the firing as they were before candidate enumeration
was unified and firings became generated code: the differential oracle for
``tdbnet.engine``.

Frozen copies of the full-rescan enumerator (with its single-arc fast path
and the onset-key deduplication), the canonical sort with its ``value_key``
fallback (``value_key`` itself is copied here too), ``enabled``, ``advance_clock``, both policies' step functions and
the run loop, and of the interpreted firing: ``_execute`` and ``_produce``,
which evaluate every inscription through ``eval_expr``, and
``apply_action_delta`` with the ``_compile_action`` it read, which walk
index tuples over the arguments and constants.  Validation, view checks and
view maintenance are the engine's own (``_ensure_valid``,
``_require_compliant``, ``_check_view_consistency``, ``refresh_views``), so
a difference between ``run`` here and in the engine is a difference in
which candidate is picked and when, or in what the generated firing and
action code make of it.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Optional

from tdbnet.engine import (
    FiringEvent,
    Trace,
    TraceMeta,
    _check_view_consistency,
    _ensure_valid,
    _require_compliant,
)
from tdbnet.exprs import (
    Op,
    Param,
    Var,
    Wild,
    eval_expr,
    first_true,
    guard_flip_time,
    guard_truth,
    intersect,
    match_pattern,
    pattern_vars,
    window_starts,
)
from tdbnet.net import Net, Snapshot, Transition, refresh_views, split_views, view_places
from tdbnet.persistence import (
    _ADD_TERMS,
    _DEL_TERMS,
    Action,
    ConstraintViolation,
    Instance,
    Schema,
    _picker,
    bisect_range,
    check_pattern,
)


def value_key(value: object):
    """Total ordering key usable across mixed value types.

    Orders by a type tag first, so heterogeneous collections still sort
    deterministically (bool < int < str < tuple).  Tokens and rows are
    checked against exact-type colours before they are sorted, so no
    subclass of these types reaches it.
    """
    t = type(value)
    if t is int:
        return (1, value)
    if t is str:
        return (2, value)
    if t is bool:
        return (0, int(value))
    if t is tuple:
        return (3, tuple(value_key(v) for v in value))
    raise TypeError(f"not a token value: {value!r}")


class _Cand:
    __slots__ = ("transition", "env", "matches", "ages", "_items")

    def __init__(self, transition: Transition, env: dict, matches: tuple, ages: dict):
        self.transition = transition
        self.env = env
        self.matches = matches  # ((place_id, token, is_view), ...)
        self.ages = ages
        self._items = None

    def binding_items(self) -> tuple:
        if self._items is None:
            self._items = tuple(sorted(self.env.items(), key=lambda kv: kv[0]))
        return self._items

    # ``_execute``, which fires these candidates, reads the binding as an
    # attribute
    items = property(binding_items)

    def bkey(self) -> tuple:
        return tuple((k, value_key(v)) for k, v in self.binding_items())

    def onset_key(self) -> tuple:
        # identity only (dict key / dedup); values are hashable as-is
        sig = tuple((pid, tok[0], tok[1]) for pid, tok, _ in self.matches)
        return (self.transition.id, self.binding_items(), sig)


def _cand_sorted(cands: list["_Cand"]) -> list["_Cand"]:
    """Canonical binding order; natural comparison with a value_key
    fallback for pools mixing value types."""
    try:
        return sorted(cands, key=_Cand.binding_items)
    except TypeError:
        return sorted(cands, key=_Cand.bkey)



_NO_FAST = object()


def _arc_fast(arc):
    """(var names, binding-items layout) for an all-variable pattern, else
    None; cached on the arc."""
    info = getattr(arc, "_fast", _NO_FAST)
    if info is not _NO_FAST:
        return info
    p = arc.pattern
    info = None
    if type(p) is Var:
        info = ((p.name,), ((p.name, None),))
    elif type(p) is tuple and all(type(term) is Var for term in p):
        names = tuple(term.name for term in p)
        if len(set(names)) == len(names):
            layout = tuple(
                (name, idx) for name, idx in sorted((n, i) for i, n in enumerate(names))
            )
            info = (names, layout)
    object.__setattr__(arc, "_fast", info)
    return info


def _enumerate_fast(t: Transition, arc, pool, is_view: bool) -> list[_Cand]:
    names, layout = arc._fast
    single = layout[0][1] is None
    width = len(names)
    out: list[_Cand] = []
    prev = None
    for tok in pool:
        if tok == prev:  # pool is sorted, duplicates are adjacent
            continue
        prev = tok
        v = tok[0]
        if single:
            env = {names[0]: v}
            items = ((names[0], v),)
        else:
            if type(v) is not tuple or len(v) != width:
                continue
            env = dict(zip(names, v))
            items = tuple((name, v[idx]) for name, idx in layout)
        ages = {} if is_view else dict.fromkeys(names, tok[1])
        cand = _Cand(t, env, ((arc.place, tok, is_view),), ages)
        cand._items = items
        out.append(cand)
    return out


def _enumerate(net: Net, snapshot: Snapshot, t: Transition) -> list[_Cand]:
    """All distinct-token matches of a transition's input arcs, in pool
    order.  Guards are not evaluated here."""
    if len(t.inputs) == 1:
        arc = t.inputs[0]
        if _arc_fast(arc) is not None:
            place = net.place(arc.place)
            return _enumerate_fast(
                t, arc, snapshot.marking.tokens(place.id), place.kind == "view"
            )
    partial: list[tuple[dict, dict, list]] = [({}, {}, [])]  # env, used, matches
    for arc in t.inputs:
        place = net.place(arc.place)
        pool = snapshot.marking.tokens(place.id)
        is_view = place.kind == "view"
        grown: list[tuple[dict, dict, list]] = []
        for env, used, matches in partial:
            taken = used.get(place.id, ())
            for idx, tok in enumerate(pool):
                if idx in taken:
                    continue
                env2 = match_pattern(arc.pattern, tok[0], env)
                if env2 is None:
                    continue
                used2 = dict(used)
                used2[place.id] = taken + (idx,)
                grown.append((env2, used2, matches + [(place.id, tok, is_view)]))
        partial = grown
        if not partial:
            return []
    out = []
    seen = set()
    for env, _, matches in partial:
        ages = {}
        for arc, (pid, tok, is_view) in zip(t.inputs, matches):
            if not is_view:
                for v in pattern_vars(arc.pattern):
                    ages[v] = tok[1]
        cand = _Cand(t, env, tuple(matches), ages)
        key = cand.onset_key()
        if key not in seen:
            seen.add(key)
            out.append(cand)
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


def _guard_true(net: Net, snapshot: Snapshot, cand: _Cand, at: int) -> bool:
    return _flip(snapshot, cand, at) == at


def enabled(net: Net, snapshot: Snapshot) -> list[tuple[str, dict, int]]:
    """Currently enabled (transition id, binding, earliest firing time)
    triples, deterministically ordered by transition id then canonical
    binding order."""
    _ensure_valid(net)
    out = []
    seen = set()
    for t in _transitions_by_id(net):
        for cand in _cand_sorted(_enumerate(net, snapshot, t)):
            if not _guard_true(net, snapshot, cand, snapshot.clock):
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
        snap, event, _ = _execute(net, snap, cand, at, len(events))
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
    best_instant: Optional[_Cand] = None
    best_instant_key = None
    best_fire = None  # (ft, tid, bkey, cand)
    min_flip: Optional[int] = None
    new_onsets: dict = {}

    for t in _transitions_by_id(net):
        dmin = t.delay[0]
        if dmin == 0:
            if best_instant is not None:
                continue  # cannot beat the tie-break and needs no onset tracking
            # first passing candidate in canonical order wins; flip times of
            # candidates after it are irrelevant because we fire immediately
            for cand in _cand_sorted(_enumerate(net, snap, t)):
                u = _flip(snap, cand, clock)
                if u == clock:
                    best_instant = cand
                    best_instant_key = (t.id, cand.binding_items())
                    break
                if u is not None and (min_flip is None or u < min_flip):
                    min_flip = u
            continue
        for cand in _enumerate(net, snap, t):
            u = _flip(snap, cand, clock)
            if u == clock:
                key = cand.onset_key()
                onset = onsets.get(key, clock)
                new_onsets[key] = onset
                ft = max(onset + dmin, clock)
                if ft == clock:
                    if best_instant is None or (t.id, cand.binding_items()) < best_instant_key:
                        best_instant = cand
                        best_instant_key = (t.id, cand.binding_items())
                elif best_fire is None or (ft, t.id, cand.binding_items()) < best_fire[:3]:
                    best_fire = (ft, t.id, cand.binding_items(), cand)
            elif u is not None and (min_flip is None or u < min_flip):
                min_flip = u

    onsets.clear()
    onsets.update(new_onsets)

    if best_instant is not None:
        if until is not None and clock > until:
            return None
        return ("fire", (best_instant, clock))
    choices = []
    if best_fire is not None:
        choices.append(best_fire[0])
    if min_flip is not None:
        choices.append(min_flip)
    if not choices:
        return None
    target = min(choices)
    if until is not None and target > until:
        return None
    if min_flip is not None and (best_fire is None or min_flip < best_fire[0]):
        return ("advance", min_flip)
    ft, _, _, cand = best_fire
    if not _guard_true(net, snap, cand, ft):
        # the guard held at enablement but lapsed before the window opened;
        # let time pass and reschedule from there
        return ("advance", ft)
    return ("fire", (cand, ft))


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
        for cand in _cand_sorted(_enumerate(net, snap, t)):
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


# ---------------------------------------------------------------------------
# firing: the interpreted firing and action application, frozen as they
# were before each transition's firing and each action's update became
# generated code


def _firing(net: Net, t: Transition) -> tuple:
    """``(calls, outputs, rollbacks, copied, evaluated)`` of ``t``, as the
    engine's plan held them: the resolved action of each call with one
    ``tuple`` node of its arguments, (condition, expression, place id) per
    output and rollback arc, and the views its actions can change, split
    as ``refresh_views`` takes them.  Kept on the net, per transition."""
    cached = getattr(net, "_reference_plans", None)
    if cached is None:
        cached = {}
        object.__setattr__(net, "_reference_plans", cached)
    plan = cached.get(t.id)
    if plan is None:
        calls = tuple((net.action(call.action), Op("tuple", call.args)) for call in t.actions)
        outputs, rollbacks = (tuple((arc.when, arc.expr, arc.place) for arc in group) for group in (t.outputs, t.rollbacks))
        written = {tmpl.relation for action, _ in calls for tmpl in action.adds + action.dels}
        views = [view for view in view_places(net) if not view[2].isdisjoint(written)]
        plan = cached[t.id] = (calls, outputs, rollbacks, *split_views(views))
    return plan


def _produce(arcs: tuple, cand, instance, at: int) -> list[tuple[str, tuple]]:
    """The ``(place id, token)`` pairs of the plan's ``arcs`` whose
    condition holds, created at ``at``."""
    env, ages = cand.env, cand.ages
    return [
        (pid, (eval_expr(expr, env, instance=instance, now=at, ages=ages), at))
        for when, expr, pid in arcs
        if when is None or eval_expr(when, env, instance=instance, now=at, ages=ages)
    ]


def _execute(net: Net, snapshot: Snapshot, cand, at: int, step: int) -> tuple[Snapshot, FiringEvent, tuple]:
    """Fire ``cand`` at ``at``: the snapshot after it, its event, and its
    token delta ``(removed, added)``, as the engine's ``_execute`` does."""
    t = cand.transition
    calls, outputs, rollbacks, copied, evaluated = _firing(net, t)
    env, ages = cand.env, cand.ages
    consumed = tuple([(pid, tok) for pid, tok, _ in cand.matches])
    removals = [(pid, tok) for pid, tok, is_view in cand.matches if not is_view]

    pre = snapshot.instance
    # every argument is evaluated against the instance before the firing
    calls = [(action, eval_expr(args, env, instance=pre, now=at, ages=ages)) for action, args in calls]
    work = pre
    added: list[tuple] = []
    deleted: list[tuple] = []
    for action, argvals in calls:
        res = apply_action_delta(work, action, argvals, at)
        if isinstance(res, ConstraintViolation):
            if t.rollbacks:
                produced = _produce(rollbacks, cand, pre, at)
                delta = (removals, produced)
                snap2 = Snapshot(pre, snapshot.marking.updated(*delta), at)
                outcome = "rolled_back"
            else:
                produced = []
                delta = ((), ())
                snap2 = Snapshot(pre, snapshot.marking, at)
                outcome = "halted"
            event = FiringEvent(step, at, t.id, cand.items, consumed, tuple(produced), (), (), outcome)
            return snap2, event, delta
        work, adds, dels = res
        added += adds
        deleted += dels

    produced = _produce(outputs, cand, pre, at)
    event = FiringEvent(step, at, t.id, cand.items, consumed, tuple(produced), tuple(added), tuple(deleted), "committed")
    if copied or evaluated:
        refresh_views(net, copied, evaluated, work, snapshot.marking, added, deleted, removals, produced)
    return Snapshot(work, snapshot.marking.updated(removals, produced), at), event, (removals, produced)


# the compiled actions, by the ids of the schema and the action, with both
_ACTIONS: dict = {}


def _compile_action(schema: Schema, action: Action) -> tuple:
    """``(consts, dels, adds)`` for an action whose templates
    ``check_pattern`` accepts against a schema.  Every template term is an
    index into ``ext``, the arguments followed by ``consts`` (None, a
    wildcard, first).  ``dels`` holds ``(relation, pick)`` per deletion and
    ``adds`` ``(relation, pick, lead, pick_key, key positions)`` per
    addition, where ``pick(ext)`` is the template's values.  ``lead`` is
    the width of a key whose columns lead the relation's, and 0 for any
    other key, whose pattern ``pick_key(ext)`` gives."""
    key = (id(schema), id(action))
    entry = _ACTIONS.get(key)
    if entry is not None:
        return entry[2]
    npar = len(action.params)
    params = dict(action.params)
    pindex = {p: i for i, (p, _) in enumerate(action.params)}
    consts: list = [None]
    picks = []
    for site, templates, kinds in (("addition", action.adds, _ADD_TERMS), ("deletion", action.dels, _DEL_TERMS)):
        for i, tmpl in enumerate(templates):
            rel = check_pattern(schema, f"action {action.name!r} {site} {i}", tmpl.relation, tmpl.terms, kinds, params, {})
            idx = []
            for t in tmpl.terms:
                if type(t) is Wild:
                    idx.append(npar)
                elif type(t) is Param:
                    idx.append(pindex[t.name])
                else:
                    idx.append(npar + len(consts))
                    consts.append(t.value)
            picks.append((rel, idx))
    dels = tuple((rel.name, _picker(tuple(idx))) for rel, idx in picks[len(action.adds) :])
    adds = []
    for rel, idx in picks[: len(action.adds)]:
        kidx = rel.key_indexes()
        lead = len(kidx) if sorted(kidx) == list(range(len(kidx))) else 0
        # the pattern of the key columns, up to the last
        key_pattern = tuple(idx[pos] if pos in kidx else npar for pos in range(max(kidx) + 1))
        adds.append((rel.name, _picker(tuple(idx)), lead, _picker(key_pattern), kidx))
    plan = (tuple(consts), dels, tuple(adds))
    if len(_ACTIONS) >= 4096:
        _ACTIONS.clear()
    _ACTIONS[key] = (schema, action, plan)
    return plan


def apply_action_delta(instance: Instance, action: Action, args, at: int):
    """(new_instance, added, deleted), or the ConstraintViolation of the
    first key clash of the first relation added to: deletions and key
    checks look rows up in a working copy of each touched relation's
    sorted rows, a key whose columns lead the relation's by one bisection
    and any other through ``bisect_range``."""
    consts, dels, adds = _compile_action(instance.schema, action)
    ext = (*args, *consts)

    # working copies of the relations the action touches
    rows: dict[str, list] = {}

    deleted: list[tuple] = []
    for relation, pick in dels:
        bucket = rows.get(relation)
        if bucket is None:
            bucket = rows[relation] = list(instance._rows[relation])
        lo, hi, rest = bisect_range(bucket, pick(ext))
        if not rest:
            deleted += [(relation, values, t) for values, t in bucket[lo:hi]]
            del bucket[lo:hi]
            continue
        keep = []
        for row in bucket[lo:hi]:
            if any(row[0][i] != p for i, p in rest):
                keep.append(row)
            else:
                deleted.append((relation, *row))
        bucket[lo:hi] = keep

    added: list[tuple] = []
    clashes: Optional[dict] = None  # relation -> its first clash, once one occurs
    for name, pick, lead, pick_key, kidx in adds:
        values = pick(ext)
        bucket = rows.get(name)
        if bucket is None:
            bucket = rows[name] = list(instance._rows[name])
        if lead:
            key = values[:lead]
            lo = hi = bisect_left(bucket, (key,))
            if lo < len(bucket) and bucket[lo][0][:lead] == key:
                hi += 1
        else:
            lo, hi, rest = bisect_range(bucket, pick_key(ext))
            lo = next((i for i in range(lo, hi) if all(bucket[i][0][j] == p for j, p in rest)), hi)
        row = (values, at)
        if lo < hi:
            if clashes is None:
                # reported in order of first addition
                clashes = dict.fromkeys([add[0] for add in adds])
            if clashes[name] is None:
                k = tuple([values[i] for i in kidx])
                clashes[name] = ConstraintViolation(
                    relation=name,
                    kind="key",
                    key=k,
                    witnesses=(bucket[lo], row),
                    message=f"duplicate key {k!r} in relation {name!r}",
                )
            continue
        if lead:
            # a key that leads the columns bisected to where the row belongs
            bucket.insert(lo, row)
        else:
            insort(bucket, row)
        added.append((name, values, at))
    if clashes is not None:
        return next(clash for clash in clashes.values() if clash is not None)

    store = dict(instance._rows)
    for rel_name, bucket in rows.items():
        store[rel_name] = tuple(bucket)
    new = Instance.__new__(Instance)
    new.schema = instance.schema
    new._rows = store
    new._count_cache = {}
    return new, added, deleted
