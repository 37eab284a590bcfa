"""Relational persistence layer: schemas with key constraints, immutable
instances with per-fact insert timestamps, conjunctive queries, and atomic
parameterized actions.

Every column has one type, so the values of a column always compare and an
instance keeps each relation's rows in their natural order.  An Instance
never mutates; apply_action returns either a new Instance or a
ConstraintViolation value describing why the change was rejected.

A query or an action is checked against a schema and compiled once per
schema object, on first use, and the schema keeps the plan: its terms
become argument indexes, constants, wildcards or variable lookups, and its
argument types one exact-type test, so that evaluating it interprets no
template.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .exprs import (
    _CMP,
    Const,
    DbCount,
    DefinitionError,
    Param,
    Var,
    Wild,
    compiled,
    compiled_term,
)
from .values import SCALAR_KINDS, SCALAR_TYPES, ColorType, encodable


@dataclass(frozen=True)
class Column:
    name: str
    color: ColorType

    def __post_init__(self) -> None:
        if self.color.kind not in SCALAR_KINDS:
            raise DefinitionError(f"column {self.name!r}: relation columns must be scalar")


@dataclass(frozen=True)
class Relation:
    name: str
    columns: tuple[Column, ...]
    key: tuple[str, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DefinitionError(f"relation {self.name!r}: duplicate column names")
        if not self.key:
            raise DefinitionError(f"relation {self.name!r}: key must be non-empty")
        for k in self.key:
            if k not in names:
                raise DefinitionError(f"relation {self.name!r}: key column {k!r} not declared")

    @property
    def arity(self) -> int:
        return len(self.columns)

    def key_indexes(self) -> tuple[int, ...]:
        names = [c.name for c in self.columns]
        return tuple(names.index(k) for k in self.key)

    @cached_property
    def types(self) -> tuple[type, ...]:
        """The exact Python type of each column's values."""
        return tuple(SCALAR_TYPES[c.color.kind] for c in self.columns)


@dataclass(frozen=True)
class Schema:
    relations: tuple[Relation, ...]

    def __post_init__(self) -> None:
        by_name = {r.name: r for r in self.relations}
        if len(by_name) != len(self.relations):
            raise DefinitionError("duplicate relation names in schema")
        object.__setattr__(self, "_by_name", by_name)
        # the queries and actions compiled against this schema (see _plan)
        object.__setattr__(self, "_plans", {})

    def relation(self, name: str) -> Relation:
        try:
            return self._by_name[name]
        except KeyError:
            raise DefinitionError(f"unknown relation {name!r}") from None


@dataclass(frozen=True)
class ConstraintViolation:
    """Why an instance (or an attempted change) is not compliant.

    kind is "key" or "type"; witnesses are the offending (values, at) rows.
    This is a value the engine reacts to, not an exception.
    """

    relation: str
    kind: str
    key: tuple
    witnesses: tuple
    message: str


# the least step from a value to the next one of its type, whose sum with
# the value is the upper probe of a prefix range; a value of any other type
# meets None, so its sum raises TypeError
_STEP = {int: 1, bool: 1, str: "\0"}


def bisect_range(rows: Sequence, pattern: Sequence) -> tuple[int, int, tuple]:
    """``(lo, hi, rest)`` for a pattern (None entries are wildcards) over
    rows of ``(values, at)`` sorted by values.  ``rows[lo:hi]`` are the rows
    whose leading bound columns equal the pattern's ``prefix``, found by
    bisection with two probes that compare with whole rows in C: ``(prefix,)``
    and the same with the prefix's last value ``x`` replaced by its
    successor, ``x + 1`` for an ``int`` or ``bool`` and ``x + "\\0"`` for a
    ``str``.  No value of a column lies strictly between ``x`` and its
    successor, so a row that starts with the prefix lies between the probes
    and any other row outside them.  ``rest`` holds the ``(column, value)``
    pairs of the other bound columns, which those rows must still match.
    The range is all of ``rows``, and ``rest`` every bound column, when the
    last value is of another type, which has no such successor, or when a
    bound value does not compare with its column (a ``str`` looked up in an
    ``int`` column): no row equals it, and the scan finds none."""
    n, free = len(pattern), pattern.count(None)
    k = pattern.index(None) if free else n
    lo, hi = 0, len(rows)
    if k:
        prefix = tuple(pattern[:k])
        last = prefix[-1]
        try:
            lo = bisect_left(rows, (prefix,))
            hi = bisect_left(rows, (prefix[:-1] + (last + _STEP.get(type(last)),),), lo)
        except TypeError:
            lo, hi, k = 0, len(rows), 0
    if k + free == n:
        return lo, hi, ()
    return lo, hi, tuple([(i, p) for i, p in enumerate(pattern) if i >= k and p is not None])


@lru_cache(maxsize=1024)
def _picker(idx: tuple):
    """``pick(seq)``: the tuple of ``seq[i]`` for each ``i`` of ``idx``;
    shared by every plan that picks the same items."""
    if len(idx) == 1:
        i = idx[0]
        return lambda seq: (seq[i],)
    if not idx:
        return lambda seq: ()
    return itemgetter(*idx)


@lru_cache(maxsize=1024)
def _arg_check(what: str, name: str, params: tuple):
    """``check(args)`` for the parameters of a query or an action: it
    raises DefinitionError on a wrong number of arguments, or naming the
    first argument of a wrong type.  Scalar parameters are checked at once
    by their exact types, product ones with their color's test."""
    colors = tuple(color for _, color in params)
    types = tuple(SCALAR_TYPES.get(c.kind, tuple) for c in colors)
    products = tuple(i for i, c in enumerate(colors) if c.kind == "product")

    def check(args: Sequence) -> None:
        if len(args) != len(params):
            raise DefinitionError(f"{what} {name!r} expects {len(params)} args, got {len(args)}")
        if tuple(map(type, args)) != types or (products and not all(colors[i].fits(args[i]) for i in products)):
            bad = next(p for (p, c), a in zip(params, args) if not c.fits(a))
            raise DefinitionError(f"{what} {name!r}: argument {bad!r} has wrong type")

    return check


class Instance:
    """Immutable set of timestamped facts grouped by relation.

    Rows are (values, inserted_at) pairs.  The constructor rejects a row
    that does not fit its relation's column types, or whose insertion time
    is not an int, with a DefinitionError,
    and apply_action_delta rejects such an addition, so every instance
    holds values that compare within each column and keeps its rows in
    their natural order, the canonical one.  Lookups bisect that order on a
    pattern's leading bound columns and scan the others (see
    ``bisect_range``).  Counts are cached lazily per object; since instances
    never change after construction this is safe.  Keys are not checked
    here: see check_compliance.
    """

    __slots__ = ("schema", "_rows", "_count_cache")

    def __init__(self, schema: Schema, rows: Mapping[str, Iterable[tuple]] | None = None):
        self.schema = schema
        store: dict[str, tuple] = {r.name: () for r in schema.relations}
        for name, rs in (rows or {}).items():
            rel = schema.relation(name)
            rs = tuple(rs)
            for values, at in rs:
                if tuple(map(type, values)) != rel.types:
                    raise DefinitionError(_type_violation(rel, values, at).message)
                if type(at) is not int:
                    raise DefinitionError(f"relation {name!r}: row {values!r} has insertion time {at!r}, not an int")
            store[name] = tuple(sorted(rs))
        self._rows = store
        self._count_cache: dict = {}

    @classmethod
    def empty(cls, schema: Schema) -> "Instance":
        return cls(schema)

    @classmethod
    def from_facts(cls, schema: Schema, facts: Iterable[tuple]) -> "Instance":
        """facts: iterable of (relation, values, at).  Each fact's values are
        type-checked as the constructor does; keys are not checked, use
        check_compliance for that."""
        grouped: dict[str, list] = {}
        for rel, values, at in facts:
            grouped.setdefault(rel, []).append((tuple(values), at))
        return cls(schema, grouped)

    def rows(self, relation: str) -> tuple:
        try:
            return self._rows[relation]
        except KeyError:
            raise DefinitionError(f"unknown relation {relation!r}") from None

    def all_rows(self) -> Iterable[tuple]:
        for rel in sorted(self._rows):
            for values, at in self._rows[rel]:
                yield rel, values, at

    def relation_sizes(self) -> dict[str, int]:
        return {rel: len(rows) for rel, rows in sorted(self._rows.items())}

    def _range(self, relation: str, pattern: Optional[Sequence]) -> tuple[tuple, int, int, tuple]:
        """``(rows, lo, hi, rest)`` for a pattern over one relation (None
        entries are wildcards; a pattern of None matches everything): the
        relation's rows and ``bisect_range`` of them."""
        rows = self.rows(relation)
        if pattern is None:
            return rows, 0, len(rows), ()
        arity = self.schema.relation(relation).arity
        if len(pattern) != arity:
            raise DefinitionError(f"pattern arity {len(pattern)} does not match relation {relation!r} arity {arity}")
        return (rows, *bisect_range(rows, pattern))

    def _candidates(self, relation: str, pattern: Optional[Sequence]) -> tuple[tuple, tuple]:
        """``(rows, rest)``: the rows of a pattern's range (see ``_range``),
        which every row lookup inspects, and the bound columns left to
        check."""
        rows, lo, hi, rest = self._range(relation, pattern)
        return rows[lo:hi], rest

    def match_rows(self, relation: str, pattern: Optional[Sequence]) -> list[tuple]:
        """Rows whose values agree with pattern (None entries are wildcards;
        a pattern of None matches everything), in canonical order.  Only the
        rows whose leading bound columns match are inspected: they form one
        range of the canonical order, found by binary search."""
        rows, rest = self._candidates(relation, pattern)
        if not rest:
            return list(rows)
        return [row for row in rows if all(row[0][i] == p for i, p in rest)]

    def match_values(self, relation: str, pattern: Optional[Sequence]) -> list[tuple]:
        return [values for values, _ in self.match_rows(relation, pattern)]

    def count_matching(self, relation: str, pattern: Optional[Sequence]) -> int:
        """The number of rows ``match_rows`` returns, cached per pattern.  A
        pattern that binds only leading columns is answered by the length
        of its range, without visiting the rows."""
        key = (relation, tuple(pattern) if pattern is not None else None)
        hit = self._count_cache.get(key)
        if hit is None:
            _, lo, hi, rest = self._range(relation, pattern)
            hit = hi - lo if not rest else len(self.match_rows(relation, pattern))
            self._count_cache[key] = hit
        return hit

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Instance)
            and self.schema == other.schema
            and self._rows == other._rows
        )

    def __hash__(self):
        raise TypeError("Instance is not hashable")

    def __repr__(self) -> str:
        parts = ", ".join(f"{rel}:{len(rows)}" for rel, rows in sorted(self._rows.items()) if rows)
        return f"Instance({parts or 'empty'})"


# ---------------------------------------------------------------------------
# queries

@dataclass(frozen=True)
class Atom:
    relation: str
    terms: tuple


@dataclass(frozen=True)
class Filter:
    """Comparison between terms; either side may also be a DbCount."""

    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Query:
    name: str
    params: tuple = ()  # (name, ColorType) pairs
    atoms: tuple = ()
    filters: tuple = ()
    output: tuple = ()  # projected variable names
    order_by: Optional[tuple] = None  # indexes into output


_FILTER_OPS = {"=", "!=", "<", "<=", ">", ">="}


def _plan(schema: Schema, obj, compile):
    """The plan of a query or an action, ``compile(schema, obj)``, made
    once per schema object and kept in the schema's ``_plans`` by the
    identity of ``obj`` (the entry holds ``obj``, so its id is not reused
    while the entry lasts).  Another schema object, even an equal one,
    checks and compiles ``obj`` again; a schema's plans go with it."""
    plans = schema._plans
    entry = plans.get(id(obj))
    if entry is None:
        entry = plans[id(obj)] = (obj, compile(schema, obj))
    return entry[1]


def _compile_query(schema: Schema, query: Query):
    """``evaluate(instance, args)`` for a query checked against a schema
    (see ``_query_plan``)."""
    bound: set[str] = set()
    param_names = {p[0] for p in query.params}
    for i, atom in enumerate(query.atoms):
        _check_pattern(schema, f"query {query.name!r} atom {i}", atom.relation, atom.terms)
        for t in atom.terms:
            if type(t) is Var:
                bound.add(t.name)
            elif type(t) is Param and t.name not in param_names:
                raise DefinitionError(f"query {query.name!r}: unknown parameter {t.name!r}")
            elif type(t) not in (Wild, Param, Const):
                raise DefinitionError(f"query {query.name!r}: bad atom term {t!r}")
    for i, f in enumerate(query.filters):
        if f.op not in _FILTER_OPS:
            raise DefinitionError(f"query {query.name!r}: bad filter op {f.op!r}")
        for side in (f.lhs, f.rhs):
            if type(side) is DbCount:
                _check_pattern(schema, f"query {query.name!r} filter {i} count", side.relation, side.terms)
            for v in _filter_vars(side):
                if v not in bound:
                    raise DefinitionError(f"query {query.name!r}: filter uses unbound variable {v!r}")
            for p in _filter_params(side):
                if p not in param_names:
                    raise DefinitionError(f"query {query.name!r}: unknown parameter {p!r}")
    for v in query.output:
        if v not in bound:
            raise DefinitionError(f"query {query.name!r}: output variable {v!r} is unbound")
    if query.order_by is not None:
        for idx in query.order_by:
            if not (0 <= idx < len(query.output)):
                raise DefinitionError(f"query {query.name!r}: order_by index {idx} out of range")
    return _query_plan(query)


def _check_pattern(schema: Schema, at: str, relation: str, terms: tuple) -> None:
    """Check the pattern of a query atom or of a filter's count, located
    by ``at``, against its relation: the relation is known, the pattern
    has its arity, and each constant fits its column (a constant of
    another color never matches) and holds text that UTF-8 can encode."""
    try:
        rel = schema.relation(relation)
    except DefinitionError as e:
        raise DefinitionError(f"{at}: {e}") from None
    if len(terms) != rel.arity:
        raise DefinitionError(f"{at}: arity {len(terms)} != {rel.arity}")
    for t, column in zip(terms, rel.columns):
        if type(t) is Const:
            if not column.color.fits(t.value):
                raise DefinitionError(f"{at}: constant {t.value!r} does not fit column {column.name!r}, {column.color.kind!r}")
            if not encodable(t.value):
                raise DefinitionError(f"{at}: constant {t.value!r} holds text that UTF-8 cannot encode")


def _filter_vars(side) -> list[str]:
    if isinstance(side, Var):
        return [side.name]
    if isinstance(side, DbCount):
        return [t.name for t in side.terms if isinstance(t, Var)]
    return []


def _filter_params(side) -> list[str]:
    if isinstance(side, Param):
        return [side.name]
    if isinstance(side, DbCount):
        return [t.name for t in side.terms if isinstance(t, Param)]
    return []


def copied_relation(query: Query) -> Optional[str]:
    """The relation a query copies whole, or None: a query of one atom of
    distinct variables, output in atom order, with no filter, parameter or
    ordering returns that relation's rows as they are, in canonical order
    (keys make them distinct).  ``eval_query`` returns such rows directly,
    and view places over such a query are maintained from row deltas."""
    if query.filters or query.params or query.order_by or len(query.atoms) != 1:
        return None
    atom = query.atoms[0]
    names = tuple(t.name for t in atom.terms if type(t) is Var)
    if len(names) == len(atom.terms) == len(set(names)) and tuple(query.output) == names:
        return atom.relation
    return None


def _query_plan(query: Query):
    """The compiled evaluation of a checked query (see ``eval_query``).

    Each atom's terms become sources: an index into ``ext``, the call's
    arguments followed by the query's constants (None, a wildcard, first),
    or a variable an earlier atom bound, read from the environment.  A
    variable no earlier atom bound is free: the atom's rows bind it, and a
    variable free twice in one atom must get equal values.  Filter sides
    are compiled expressions (see ``exprs.compiled``)."""
    check = _arg_check("query", query.name, query.params)
    source = copied_relation(query)
    if source is not None:

        def copy(instance: Instance, args: Sequence) -> tuple:
            check(args)
            return tuple([values for values, _ in instance._rows[source]])

        return copy
    npar = len(query.params)
    pindex = {p: i for i, (p, _) in enumerate(query.params)}
    consts: list = [None]
    bound: set[str] = set()
    atoms = []
    for atom in query.atoms:
        idx, env_slots, free = [], [], []
        for i, t in enumerate(atom.terms):
            kind = type(t)
            if kind is Var and t.name in bound:
                env_slots.append((i, t.name))
                idx.append(npar)
            elif kind is Var or kind is Wild:
                if kind is Var:
                    free.append((i, t.name))
                idx.append(npar)
            elif kind is Param:
                idx.append(pindex[t.name])
            else:
                idx.append(npar + len(consts))
                consts.append(t.value)
        bound.update(name for _, name in free)
        atoms.append((atom.relation, _picker(tuple(idx)), tuple(env_slots), tuple(free)))
    filters = tuple((_CMP[f.op], _side(f.lhs), _side(f.rhs)) for f in query.filters)
    output = _picker(tuple(query.output))
    order = _picker(tuple(query.order_by)) if query.order_by is not None else None
    pnames = tuple(p for p, _ in query.params)
    consts = tuple(consts)

    def evaluate(instance: Instance, args: Sequence) -> tuple:
        check(args)
        ext = (*args, *consts)
        store = instance._rows
        envs: list[dict] = [{}]
        for relation, pick, env_slots, free in atoms:
            rows, base, found = store[relation], pick(ext), []
            for env in envs:
                pattern = base
                if env_slots:
                    pattern = list(base)
                    for i, name in env_slots:
                        pattern[i] = env[name]
                lo, hi, rest = bisect_range(rows, pattern)
                for values, _ in rows[lo:hi]:
                    if rest and not all(values[i] == p for i, p in rest):
                        continue
                    if not free:
                        found.append(env)
                        break
                    env2 = env.copy()
                    for i, name in free:
                        if env2.setdefault(name, values[i]) != values[i]:
                            break
                    else:
                        found.append(env2)
            envs = found
            if not envs:
                break
        argmap = dict(zip(pnames, args))
        kept = []
        for env in envs:
            for cmp, lhs, rhs in filters:
                if not cmp(lhs(env, instance, 0, None, argmap), rhs(env, instance, 0, None, argmap)):
                    break
            else:
                kept.append(output(env))
        rows = sorted(set(kept))
        if order is not None:
            rows.sort(key=order)
        return tuple(rows)

    return evaluate


def _side(side):
    """A filter side as a compiled expression: a count, or a term (see
    ``exprs.compiled_term``)."""
    return compiled(side) if type(side) is DbCount else compiled_term(side)


def check_query(schema: Schema, query: Query) -> None:
    """Check ``query`` against ``schema`` and keep its plan, as its first
    evaluation would: a DefinitionError names the query when the relation
    of an atom or of a filter's count is unknown, its pattern's arity is
    wrong, its constant does not fit its column or holds text that UTF-8
    cannot encode, a variable or parameter is unbound, or an ``order_by``
    index is out of range."""
    _plan(schema, query, _compile_query)


def eval_query(instance: Instance, query: Query, args: Sequence = ()) -> tuple:
    """Evaluate a conjunctive query with comparison/count filters.

    Returns a tuple of result rows (each a tuple), de-duplicated and in
    canonical lexicographic order unless order_by overrides it.  The query
    is compiled once per schema (see ``_query_plan``).
    """
    return _plan(instance.schema, query, _compile_query)(instance, args)


# ---------------------------------------------------------------------------
# actions

@dataclass(frozen=True)
class FactTemplate:
    relation: str
    terms: tuple  # additions: Param/Const; deletions may also use Wild


@dataclass(frozen=True)
class Action:
    """Parameterized atomic change: deletions applied first, then additions
    stamped with the firing time."""

    name: str
    params: tuple = ()  # (name, ColorType) pairs
    adds: tuple = ()
    dels: tuple = ()


def _compile_action(schema: Schema, action: Action) -> tuple:
    """``(check, consts, dels, adds)`` for an action checked against a
    schema.

    ``check(args)`` tests the arguments.  Every template term is an index
    into ``ext``, the arguments followed by ``consts`` (None, a wildcard,
    first).  ``dels`` holds ``(relation, pick)`` per deletion and ``adds``
    ``(relation, pick, lead, pick_key, key positions)`` per addition, where
    ``pick(ext)`` is the template's values.  ``lead`` is the width of a key
    whose columns lead the relation's, and 0 for any other key, whose
    pattern ``pick_key(ext)`` gives (see ``bisect_range``)."""
    npar = len(action.params)
    pindex = {p: i for i, (p, _) in enumerate(action.params)}
    consts: list = [None]
    picks = []
    for tmpl in action.adds + action.dels:
        try:
            rel = schema.relation(tmpl.relation)
        except DefinitionError as e:
            raise DefinitionError(f"action {action.name!r}: {e}") from None
        if len(tmpl.terms) != rel.arity:
            raise DefinitionError(
                f"action {action.name!r}: template for {tmpl.relation!r} has wrong arity"
            )
        allow_wild = tmpl in action.dels
        idx = []
        for t in tmpl.terms:
            if isinstance(t, Wild):
                if not allow_wild:
                    raise DefinitionError(
                        f"action {action.name!r}: wildcard not allowed in additions"
                    )
                idx.append(npar)
            elif isinstance(t, Param):
                if t.name not in pindex:
                    raise DefinitionError(f"action {action.name!r}: unknown parameter {t.name!r}")
                idx.append(pindex[t.name])
            elif isinstance(t, Const):
                if not encodable(t.value):
                    raise DefinitionError(f"action {action.name!r}: constant {t.value!r} holds text that UTF-8 cannot encode")
                idx.append(npar + len(consts))
                consts.append(t.value)
            else:
                raise DefinitionError(f"action {action.name!r}: bad template term {t!r}")
        picks.append((rel, idx))
    dels = tuple((rel.name, _picker(tuple(idx))) for rel, idx in picks[len(action.adds):])
    adds = []
    for rel, idx in picks[: len(action.adds)]:
        kidx = rel.key_indexes()
        lead = len(kidx) if sorted(kidx) == list(range(len(kidx))) else 0
        # the pattern of the key columns, up to the last
        key = tuple(idx[pos] if pos in kidx else npar for pos in range(max(kidx) + 1))
        adds.append((rel, _picker(tuple(idx)), lead, _picker(key), kidx))
    return _arg_check("action", action.name, action.params), tuple(consts), dels, tuple(adds)


def check_action(schema: Schema, action: Action) -> None:
    """Check ``action`` against ``schema`` and keep its plan, as its first
    firing would; a DefinitionError names the action."""
    _plan(schema, action, _compile_action)


def apply_action_delta(
    instance: Instance, action: Action, args: Sequence, at: int
):
    """Core of apply_action; also reports the net change.

    Returns (new_instance, added, deleted) with added/deleted lists of
    (relation, values, at) rows, or a ConstraintViolation.  A type violation
    of any addition is reported first; otherwise the first key clash of the
    first relation added to.

    ``instance`` must be compliant (see check_compliance).  The action is
    compiled once per schema (see ``_compile_action``).  Deletions and key
    checks look rows up in a working copy of each touched relation's
    sorted rows.  A key whose columns lead the relation's costs one
    bisection: it clashes when the row at the bisected position starts with
    it, and otherwise that position is where the added row goes.  Deletions
    and any other key use ``bisect_range``, which bisects on the leading
    bound columns and scans the others within the range.
    """
    check, consts, dels, adds = _plan(instance.schema, action, _compile_action)
    check(args)
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
    for rel, pick, lead, pick_key, kidx in adds:
        values = pick(ext)
        if tuple(map(type, values)) != rel.types:
            return _type_violation(rel, values, at)
        name = rel.name
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
                clashes = dict.fromkeys([add[0].name for add in adds])
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


def apply_action(instance: Instance, action: Action, args: Sequence, at: int):
    """Apply an action atomically.  Returns the new Instance, or a
    ConstraintViolation leaving the original untouched.  Raises
    DefinitionError when a relation the action touches holds duplicate
    keys, since actions need a compliant instance."""
    schema = instance.schema
    check_action(schema, action)
    touched = dict.fromkeys(t.relation for t in action.dels + action.adds)
    bad = check_compliance(instance, Schema(tuple(schema.relation(n) for n in touched)))
    if bad:
        raise DefinitionError(f"relation {bad[0].relation!r} holds duplicate keys; actions need a compliant instance")
    res = apply_action_delta(instance, action, args, at)
    if isinstance(res, ConstraintViolation):
        return res
    return res[0]


def _type_violation(rel: Relation, values: tuple, ts) -> ConstraintViolation:
    """The violation of a row whose values do not fit its relation's
    column types (their count, or the first column whose type differs)."""
    if len(values) != rel.arity:
        err = f"arity {len(values)} != {rel.arity}"
    else:
        col, v = next((c, v) for c, v, t in zip(rel.columns, values, rel.types) if type(v) is not t)
        err = f"column {col.name!r} expects {col.color.kind}, got {v!r}"
    return ConstraintViolation(rel.name, "type", values, ((values, ts),), f"type constraint on {rel.name!r}: {err}")


def check_compliance(instance: Instance, schema: Schema | None = None) -> list[ConstraintViolation]:
    """The key violations of an instance: relation by relation, in schema
    order, and by key within one.  Types need no check here, since an
    Instance holds only rows that fit their columns."""
    schema = schema or instance.schema
    out: list[ConstraintViolation] = []
    for rel in schema.relations:
        kidx = rel.key_indexes()
        groups: dict[tuple, list] = {}
        for values, ts in instance.rows(rel.name):
            groups.setdefault(tuple(values[i] for i in kidx), []).append((values, ts))
        out += [
            ConstraintViolation(rel.name, "key", k, tuple(groups[k]), f"duplicate key {k!r} in relation {rel.name!r}")
            for k in sorted(k for k, rows in groups.items() if len(rows) > 1)
        ]
    return out
