"""Structural types for timed db-nets: places (normal and view), transitions
with guards, delays, output and rollback arcs, markings, and snapshots.

A snapshot bundles the relational instance, the marking, and the integer
clock.  View places never store tokens of their own; their marking is the
bound query evaluated on the current instance.  ``refresh_views`` is the
one place that knows how views follow rows: from the rows a committed
firing's actions added and deleted it works out the tokens that each view
place it is given loses and gains.  The views come split once per
transition (``split_views``): a copied view, whose query copies one
relation, as its place id, that relation and whether a token is the whole
row; any other, an evaluated view, as its place and the relations it
reads.  In one pass over the firing's rows ``refresh_views`` finds the
relations that changed, patches each copied view of one of them from the
rows alone (``view_delta``), and evaluates again each evaluated view that
reads one.  It appends the pairs straight to the firing's own lists of
removed and added tokens, so the engine applies them with the tokens the
firing consumed and produced as one delta, to the marking and to its
agenda alike.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from hashlib import sha256
from typing import Iterable, Mapping, NamedTuple, Optional

from .exprs import DbCount, DefinitionError, TRUE
from .persistence import (
    Action,
    Instance,
    Query,
    Schema,
    Scope,
    bind_pattern,
    check_action,
    check_compliance,
    check_query,
    copied_relation,
    eval_query,
    inscription_color,
)
from .values import BOOL, ColorType, color_name, encodable


@dataclass(frozen=True)
class Place:
    id: str
    color: ColorType
    kind: str = "normal"  # or "view"
    query: Optional[str] = None  # bound query name for view places

    def __post_init__(self) -> None:
        if self.kind not in ("normal", "view"):
            raise DefinitionError(f"place {self.id!r}: kind must be normal or view")
        if self.kind == "view" and not self.query:
            raise DefinitionError(f"place {self.id!r}: view place needs a bound query")
        if self.kind == "normal" and self.query:
            raise DefinitionError(f"place {self.id!r}: only view places bind queries")


@dataclass(frozen=True)
class InputArc:
    place: str
    pattern: object  # term or tuple of terms (Var/Const/Wild)


@dataclass(frozen=True)
class OutputArc:
    place: str
    expr: object
    when: Optional[object] = None  # token produced only if this guard holds


@dataclass(frozen=True)
class ActionCall:
    action: str
    args: tuple = ()


@dataclass(frozen=True)
class Transition:
    id: str
    inputs: tuple[InputArc, ...] = ()
    guard: object = TRUE
    delay: tuple[int, int] = (0, 0)
    outputs: tuple[OutputArc, ...] = ()
    rollbacks: tuple[OutputArc, ...] = ()
    actions: tuple[ActionCall, ...] = ()

    def __post_init__(self) -> None:
        lo, hi = self.delay
        # times are integers, as colours are exact: a bool is no bound
        if type(lo) is not int or type(hi) is not int or lo < 0 or hi < lo:
            raise DefinitionError(f"transition {self.id!r}: bad delay window {self.delay!r}")


@dataclass(frozen=True)
class Net:
    places: tuple[Place, ...]
    transitions: tuple[Transition, ...]
    schema: Schema
    queries: tuple[Query, ...] = ()
    actions: tuple[Action, ...] = ()

    def __post_init__(self) -> None:
        for seq, label in ((self.places, "place"), (self.transitions, "transition")):
            seen = set()
            for x in seq:
                if x.id in seen:
                    raise DefinitionError(f"duplicate {label} id {x.id!r}")
                seen.add(x.id)
        object.__setattr__(self, "_place_by_id", {p.id: p for p in self.places})
        object.__setattr__(self, "_query_by_name", {q.name: q for q in self.queries})
        object.__setattr__(self, "_action_by_name", {a.name: a for a in self.actions})

    def place(self, pid: str) -> Place:
        try:
            return self._place_by_id[pid]
        except KeyError:
            raise DefinitionError(f"unknown place {pid!r}") from None

    def query(self, name: str) -> Query:
        try:
            return self._query_by_name[name]
        except KeyError:
            raise DefinitionError(f"unknown query {name!r}") from None

    def action(self, name: str) -> Action:
        try:
            return self._action_by_name[name]
        except KeyError:
            raise DefinitionError(f"unknown action {name!r}") from None

    def fingerprint(self) -> str:
        """Stable digest of the net structure (dataclass reprs are
        deterministic here because no field holds a dict)."""
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = sha256(repr((self.places, self.transitions, self.schema, self.queries, self.actions)).encode()).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def _nth(pool: tuple[tuple, ...], tok: tuple, n: int = 1) -> int:
    """The position of the ``n``-th token equal to ``tok`` in a sorted pool,
    or -1 when it holds fewer: the equal tokens start where ``tok`` bisects
    to.  A token whose value does not compare with the pool's is not held."""
    try:
        at = bisect_left(pool, tok) + n - 1
    except TypeError:
        return -1
    return at if at < len(pool) and pool[at] == tok else -1


class Marking:
    """Multiset of tokens per place.  A token is the exact tuple
    ``(value, created_at)``, so equality, hashing and the canonical order
    (by value, then by creation time) are the tuple's: a token is its own
    sort and dictionary key.  A place holds values of one colour,
    which compare, so each pool is kept in its natural order, the canonical
    one; the constructor rejects a pool whose values do not compare with a
    DefinitionError that names the place.  Whether the values fit the
    place's colour is checked against a net (``check_marking``)."""

    __slots__ = ("_tokens",)

    def __init__(self, tokens: Mapping[str, Iterable[tuple]] | None = None):
        self._tokens: dict[str, tuple[tuple, ...]] = {}
        for pid, toks in (tokens or {}).items():
            try:
                self._tokens[pid] = tuple(sorted(toks))
            except TypeError as e:
                raise DefinitionError(f"place {pid!r}: its token values do not compare ({e})") from None

    def tokens(self, pid: str) -> tuple[tuple, ...]:
        return self._tokens.get(pid, ())

    def holds(self, pid: str, tok: tuple, copies: int = 1) -> bool:
        """Whether place ``pid`` holds at least ``copies`` tokens equal to
        ``tok``; every place holds 0 or fewer."""
        return copies <= 0 or _nth(self.tokens(pid), tok, copies) >= 0

    def place_ids(self) -> list[str]:
        return sorted(pid for pid, toks in self._tokens.items() if toks)

    def updated(
        self,
        remove: Iterable[tuple[str, tuple]] = (),
        add: Iterable[tuple[str, tuple]] = (),
    ) -> "Marking":
        """A new marking without ``remove`` (one copy each, ValueError when
        absent) and with ``add``.  Each removal finds its position by
        binary search and rebuilds its pool from the slices on either side
        of it.  The additions are grouped by place, and each pool they touch
        is rebuilt once: by the same slicing for one token, else from a
        list that takes each token by binary search."""
        new = dict(self._tokens)
        for pid, tok in remove:
            pool = new.get(pid, ())
            i = _nth(pool, tok)
            if i < 0:
                raise ValueError(f"place {pid!r} holds no {tok!r}")
            new[pid] = pool[:i] + pool[i + 1 :]
        grown: dict[str, list] = {}
        for pid, tok in add:
            toks = grown.get(pid)
            if toks is None:
                grown[pid] = [tok]
            else:
                toks.append(tok)
        for pid, toks in grown.items():
            pool = new.get(pid, ())
            if len(toks) == 1:
                tok = toks[0]
                i = bisect_right(pool, tok)
                new[pid] = pool[:i] + (tok,) + pool[i:]
            else:
                pool = list(pool)
                for tok in toks:
                    insort(pool, tok)
                new[pid] = tuple(pool)
        m = Marking.__new__(Marking)
        m._tokens = new
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        a = {pid: t for pid, t in self._tokens.items() if t}
        b = {pid: t for pid, t in other._tokens.items() if t}
        return a == b

    def __repr__(self) -> str:
        parts = ", ".join(f"{pid}:{len(toks)}" for pid, toks in sorted(self._tokens.items()) if toks)
        return f"Marking({parts or 'empty'})"


class Snapshot(NamedTuple):
    """The instance, the marking and the clock.  A snapshot is a tuple, so
    it is immutable, equal by its fields and cheap to build: the engine
    builds one per firing with ``tuple.__new__``."""

    instance: Instance
    marking: Marking
    clock: int = 0

    def advanced(self, clock: int) -> "Snapshot":
        if clock < self.clock:
            raise ValueError("clock never moves backwards")
        return Snapshot(self.instance, self.marking, clock)


def _whole_rows(place: Place) -> bool:
    """Whether a view place's token is the whole row, which it is on a
    product-colored place; else it is the row's one column."""
    return place.color.kind == "product"


def _row_token(whole: bool, row: tuple) -> tuple:
    """A view place's token for a query result row, created at 0: the whole
    row if ``whole`` (``_whole_rows``), else its one column."""
    return (row if whole else row[0], 0)


def view_tokens(net: Net, place: Place, instance: Instance) -> tuple[tuple, ...]:
    whole = _whole_rows(place)
    return tuple([_row_token(whole, row) for row in eval_query(instance, net.query(place.query))])


def view_places(net: Net) -> tuple[tuple[Place, Optional[str], frozenset], ...]:
    """(place, copied relation, relations read) per view place, built once
    per net.  The copied relation is the one its query copies whole
    (``copied_relation``), or None; the relations read are those of the
    query's atoms and counts."""
    cached = getattr(net, "_views", None)
    if cached is None:
        cached = []
        for place in net.places:
            if place.kind == "view":
                query = net.query(place.query)
                reads = {a.relation for a in query.atoms} | {
                    side.relation for f in query.filters for side in (f.lhs, f.rhs) if isinstance(side, DbCount)
                }
                cached.append((place, copied_relation(query), frozenset(reads)))
        cached = tuple(cached)
        object.__setattr__(net, "_views", cached)
    return cached


def split_views(views: Iterable[tuple]) -> tuple[tuple, tuple]:
    """``views`` (entries of ``view_places``) as ``refresh_views`` takes
    them: the copied views, as (place id, copied relation, whether a token
    is the whole row, ``_whole_rows``), and the evaluated ones, as (place,
    relations read)."""
    copied = tuple((place.id, source, _whole_rows(place)) for place, source, _ in views if source is not None)
    evaluated = tuple((place, reads) for place, source, reads in views if source is None)
    return copied, evaluated


def view_delta(pid: str, relation: str, whole: bool, added, deleted, lose: list, gain: list) -> None:
    """Append to ``lose`` and ``gain`` the ``(pid, token)`` pairs that a
    view place that copies ``relation`` loses and gains when the
    ``(relation, values, at)`` rows ``deleted`` and ``added`` leave and
    enter the store; ``whole`` says whether a token is the whole row
    (``_row_token``).  A view token does not carry the row's insertion
    time, so a row deleted and added again in one firing changes nothing."""
    i, j = len(lose), len(gain)
    for pairs, rows in ((lose, deleted), (gain, added)):
        for rel, values, _ in rows:
            if rel == relation:
                pairs.append((pid, _row_token(whole, values)))
    if len(lose) > i and len(gain) > j:
        # the rows of a copied relation are distinct, and so are their
        # tokens: a token both lost and gained cancels out
        change = dict.fromkeys(lose[i:] + gain[j:], 0)
        for pair in lose[i:]:
            change[pair] -= 1
        for pair in gain[j:]:
            change[pair] += 1
        lose[i:] = [pair for pair, n in change.items() if n < 0]
        gain[j:] = [pair for pair, n in change.items() if n > 0]


def check_views(net: Net, snapshot: "Snapshot") -> None:
    """Raise DefinitionError unless every view place holds exactly its
    query's rows: firings patch a view from row deltas, or evaluate it again
    only when a relation it reads changes, so it must start out right.  A
    view that copies a relation reads its rows through the query's copy
    plan (``eval_query``)."""
    for place, _, _ in view_places(net):
        if snapshot.marking.tokens(place.id) != view_tokens(net, place, snapshot.instance):
            raise DefinitionError(f"view place {place.id!r}: its tokens are not the rows of its query {place.query!r}")


def refresh_views(
    net: Net, copied: tuple, evaluated: tuple, instance: Instance, marking: Marking, added, deleted, lose: list, gain: list
) -> None:
    """Append to ``lose`` and ``gain`` the ``(place id, token)`` pairs that
    the views ``copied`` and ``evaluated`` (as ``split_views`` gives them)
    of ``marking`` lose and gain when the ``(relation, values, at)`` rows
    ``added`` and ``deleted`` turn its instance into ``instance``.  The
    caller passes the views that those rows can change; the engine, the
    views whose query reads a relation that the firing transition's
    actions write, and its lists of the tokens the firing consumes and
    produces.

    One pass over the rows finds the relations that changed.  A copied
    view of one of them loses and gains the tokens of exactly its rows
    (``view_delta``); an evaluated view that reads one is evaluated again
    and, unless its tokens equal its pool, loses the tokens of its pool
    that the new result lacks and gains the others.
    """
    changed = set()
    for rows in (deleted, added):
        for row in rows:
            changed.add(row[0])
    for pid, relation, whole in copied:
        if relation in changed:
            view_delta(pid, relation, whole, added, deleted, lose, gain)
    for place, reads in evaluated:
        if not reads.isdisjoint(changed):
            # a view holds distinct rows; the changes keep the pools'
            # order, not a set's
            pid = place.id
            old, new = marking.tokens(pid), view_tokens(net, place, instance)
            if old == new:
                continue
            in_old, in_new = set(old), set(new)
            lose += [(pid, tok) for tok in old if tok not in in_new]
            gain += [(pid, tok) for tok in new if tok not in in_old]


def initial_snapshot(
    net: Net,
    facts: Iterable[tuple] = (),
    tokens: Mapping[str, Iterable[tuple]] | None = None,
    clock: int = 0,
) -> Snapshot:
    """Build a snapshot from raw facts (relation, values, at) and the
    ``(value, created_at)`` tokens of normal places; view places are
    computed.  Facts and tokens are type-checked before they are sorted, so
    an entry that is not a token (``_check_pool``) or a value of no colour
    (a float, None) fails with a DefinitionError that names it, as does a
    key that two facts share, and so does text that UTF-8 cannot encode
    (``encodable``), which no trace could store."""
    instance = Instance.from_facts(net.schema, facts)
    bad = check_compliance(instance)
    if bad:
        raise DefinitionError(
            "initial facts violate schema constraints: "
            + "; ".join(v.message for v in bad[:3])
        )
    for rel in net.schema.relations:
        rows = instance.rows(rel.name)
        for i, column in enumerate(rel.columns):
            # a column's text is tested at once, and row by row only to
            # name the row that fails
            if column.color.kind == "text" and not encodable("".join([values[i] for values, _ in rows])):
                values = next(values for values, _ in rows if not encodable(values[i]))
                raise DefinitionError(f"relation {rel.name!r}: row {values!r} holds text that UTF-8 cannot encode")
    pools = {pid: list(toks) for pid, toks in (tokens or {}).items()}
    for pid, toks in sorted(pools.items()):
        if net.place(pid).kind == "view":
            raise DefinitionError(f"place {pid!r} is a view place; its marking is derived")
        _check_pool(net, pid, toks, clock)
        for tok in toks:
            if not encodable(tok[0]):
                raise DefinitionError(f"place {pid!r}: token {tok!r} holds text that UTF-8 cannot encode")
    views = {place.id: view_tokens(net, place, instance) for place, _, _ in view_places(net)}
    return Snapshot(instance, Marking({**pools, **views}), clock)


def check_marking(net: Net, marking: Marking, clock: int) -> None:
    """Raise DefinitionError unless every token lies on a place of the net,
    fits that place's color and was not created after the clock (its age
    would start out negative)."""
    for pid in marking.place_ids():
        _check_pool(net, pid, marking.tokens(pid), clock)


def _check_pool(net: Net, pid: str, tokens: Iterable[tuple], clock: int) -> None:
    """A token is an exact 2-tuple with an exact-int creation time; any
    other entry is rejected, never read as a value, since a product-coloured
    value is a tuple too."""
    color = net.place(pid).color
    for tok in tokens:
        if type(tok) is not tuple or len(tok) != 2 or type(tok[1]) is not int:
            raise DefinitionError(f"place {pid!r}: entry {tok!r} is not a token (value, created_at) with an int created_at")
        value, at = tok
        if not color.fits(value):
            raise DefinitionError(f"place {pid!r}: token {tok!r} does not fit its color")
        if at > clock:
            raise DefinitionError(f"place {pid!r}: token {tok!r} is created after the snapshot clock {clock}")


# ---------------------------------------------------------------------------
# static validation


def validate_net(net: Net) -> None:
    """Check a net before it runs; the first fault raises a DefinitionError.
    Every query and action is checked against the schema, whether or not a
    view binds or a transition calls it; a view binds a known, parameterless
    query of its colour's width; arcs read known places and never produce
    on a view place; rollback arcs need actions; calls pass the action's
    arity.  Each transition is typed by one walk
    (``persistence.inscription_color``): its input-arc patterns bind each
    variable to the colour of what it matches (``bind_pattern``), and each
    inscription gets its colour, as the walk's rules give it.  A guard and
    an arc condition are bools, an output or rollback arc has its place's
    colour, and an action argument its parameter's.  The walk also rejects
    an unbound variable, age() of one that no normal place binds, a
    parameter (a transition has none), an unknown operator or one of the
    wrong arity, a db pattern that ``check_pattern`` rejects, and a
    constant that holds text that UTF-8 cannot encode, which no trace could
    store.  In guards and action arguments, which the truth solver takes,
    now() and age() occur only under the TIME_OPERATORS and never inside a
    db pattern.  So a validated net fires with no test of a value's type."""
    for query in net.queries:
        check_query(net.schema, query)
    for action in net.actions:
        check_action(net.schema, action)
    for place in net.places:
        if place.kind == "view":
            try:
                query = net.query(place.query)
            except DefinitionError as err:
                raise DefinitionError(f"place {place.id!r}: {err}") from None
            if query.params:
                raise DefinitionError(
                    f"place {place.id!r}: view-bound query {query.name!r} must be parameterless"
                )
            # a view's tokens are its query's rows, which bind variables
            # untested: each column has its component's color
            got = check_query(net.schema, query)
            want = place.color.components if place.color.kind == "product" else (place.color,)
            if len(got) != len(want):
                raise DefinitionError(
                    f"place {place.id!r}: query yields {len(got)} columns, color has {len(want)}"
                )
            for i, (g, w) in enumerate(zip(got, want)):
                if g.exact is not w.exact:
                    raise DefinitionError(
                        f"place {place.id!r}: query column {i} is of color {color_name(g)}, not {color_name(w)}"
                    )

    for t in net.transitions:
        at = f"transition {t.id!r}"
        scope = Scope(net.schema, at, "", {}, "input arc", set(), None)

        def resolve(pid: str) -> Place:
            try:
                return net.place(pid)
            except DefinitionError:
                raise DefinitionError(f"{at} references unknown place {pid!r}") from None

        def typed(e, where: str, want: ColorType, what: str = "", timed: str = "") -> None:
            got = inscription_color(e, scope._replace(where=where, timed=timed and f"{at} {timed}"))
            if got.exact != want.exact:
                raise DefinitionError(f"{at}: {what or where} is of color {color_name(got)}, not {color_name(want)}")

        for arc in t.inputs:
            place = resolve(arc.place)
            bind_pattern(scope, f"{at}: input arc from {arc.place!r}", arc.pattern, place.color, place.kind == "normal")
        typed(t.guard, "guard", BOOL, timed="guard")
        for arc in t.outputs + t.rollbacks:
            place = resolve(arc.place)
            if place.kind == "view":
                raise DefinitionError(f"{at}: arc to view place {arc.place!r}, whose tokens are its query's rows")
            typed(arc.expr, f"arc to {arc.place!r}", place.color)
            if arc.when is not None:
                typed(arc.when, f"arc condition on {arc.place!r}", BOOL)
        if t.rollbacks and not t.actions:
            raise DefinitionError(f"{at}: rollback arcs without database actions can never fire them")
        for call in t.actions:
            try:
                action = net.action(call.action)
            except DefinitionError as err:
                raise DefinitionError(f"{at}: {err}") from None
            if len(call.args) != len(action.params):
                raise DefinitionError(f"{at}: action {call.action!r} takes {len(action.params)} args")
            where = f"action {call.action!r} argument"
            for i, (a, (_, color)) in enumerate(zip(call.args, action.params)):
                typed(a, where, color, f"{where} {i}", timed="action argument")
