"""Relational persistence layer: schemas with key constraints, immutable
instances with per-fact insert timestamps, conjunctive queries, and atomic
parameterized actions.

Every column has one type, so the values of a column always compare and an
instance keeps each relation's rows in their natural order.  An Instance
never mutates; apply_action returns either a new Instance or a
ConstraintViolation value describing why the change was rejected.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .exprs import (
    _CMP,
    Const,
    DbCount,
    DefinitionError,
    Param,
    Var,
    Wild,
    resolve_term,
)
from .values import SCALAR_KINDS, SCALAR_TYPES, ColorType, conforms


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
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise DefinitionError("duplicate relation names in schema")

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise DefinitionError(f"unknown relation {name!r}")


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


def bisect_range(rows: Sequence, pattern: Sequence) -> tuple[int, int, tuple]:
    """``(lo, hi, rest)`` for a pattern (None entries are wildcards) over
    rows of ``(values, at)`` sorted by values.  ``rows[lo:hi]`` are the rows
    whose leading bound columns equal the pattern's, found by bisection;
    ``rest`` holds the ``(column, value)`` pairs of the other bound columns,
    which those rows must still match.  The range is all of ``rows`` when a
    bound value does not compare with its column (a ``str`` looked up in an
    ``int`` column): no row equals it, and the scan finds none."""
    lo, hi, k = 0, len(rows), 0
    while k < len(pattern) and pattern[k] is not None:
        k += 1
    if k:
        prefix = tuple(pattern[:k])
        lead = lambda row: row[0][:k]
        try:
            lo = bisect_left(rows, prefix, key=lead)
            hi = bisect_right(rows, prefix, lo, key=lead)
        except TypeError:
            lo, hi, k = 0, len(rows), 0
    return lo, hi, tuple((i, p) for i, p in enumerate(pattern) if i >= k and p is not None)


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

    def total_facts(self) -> int:
        return sum(len(v) for v in self._rows.values())

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


def _query_check(schema: Schema, query: Query) -> None:
    if getattr(query, "_checked_against", None) is schema:
        return
    bound: set[str] = set()
    for i, atom in enumerate(query.atoms):
        rel = schema.relation(atom.relation)
        if len(atom.terms) != rel.arity:
            raise DefinitionError(
                f"query {query.name!r} atom {i}: arity {len(atom.terms)} != {rel.arity}"
            )
        for t in atom.terms:
            if isinstance(t, Var):
                bound.add(t.name)
    param_names = {p[0] for p in query.params}
    for f in query.filters:
        if f.op not in _FILTER_OPS:
            raise DefinitionError(f"query {query.name!r}: bad filter op {f.op!r}")
        for side in (f.lhs, f.rhs):
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
    object.__setattr__(query, "_checked_against", schema)


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


def eval_query(instance: Instance, query: Query, args: Sequence = ()) -> tuple:
    """Evaluate a conjunctive query with comparison/count filters.

    Returns a tuple of result rows (each a tuple), de-duplicated and in
    canonical lexicographic order unless order_by overrides it.
    """
    schema = instance.schema
    _query_check(schema, query)
    if len(args) != len(query.params):
        raise DefinitionError(
            f"query {query.name!r} expects {len(query.params)} args, got {len(args)}"
        )
    source = copied_relation(query)
    if source is not None:
        return tuple(v for v, _ in instance.rows(source))
    arg_env: dict[str, object] = {}
    for (pname, pcolor), a in zip(query.params, args):
        if not conforms(a, pcolor):
            raise DefinitionError(f"query {query.name!r}: argument {pname!r} has wrong type")
        arg_env[pname] = a

    envs: list[dict] = [{}]
    for atom in query.atoms:
        next_envs: list[dict] = []
        for env in envs:
            pattern = []
            free: list[tuple[int, str]] = []
            for idx, t in enumerate(atom.terms):
                if isinstance(t, Wild):
                    pattern.append(None)
                elif isinstance(t, Const):
                    pattern.append(t.value)
                elif isinstance(t, Param):
                    pattern.append(arg_env[t.name])
                elif isinstance(t, Var):
                    if t.name in env:
                        pattern.append(env[t.name])
                    else:
                        pattern.append(None)
                        free.append((idx, t.name))
                else:
                    raise DefinitionError(f"query {query.name!r}: bad atom term {t!r}")
            for values, _at in instance.match_rows(atom.relation, pattern):
                env2 = env
                ok = True
                for idx, name in free:
                    if env2 is env:
                        env2 = dict(env)
                    if name in env2 and env2[name] != values[idx]:
                        ok = False
                        break
                    env2[name] = values[idx]
                if ok:
                    next_envs.append(env2 if env2 is not env else dict(env))
        envs = next_envs
        if not envs:
            break

    def side_value(side, env):
        if isinstance(side, DbCount):
            pattern = tuple(
                None if isinstance(t, Wild) else resolve_term(t, env, arg_env) for t in side.terms
            )
            return instance.count_matching(side.relation, pattern)
        return resolve_term(side, env, arg_env)

    kept = []
    for env in envs:
        ok = True
        for f in query.filters:
            if not _CMP[f.op](side_value(f.lhs, env), side_value(f.rhs, env)):
                ok = False
                break
        if ok:
            kept.append(tuple(env[v] for v in query.output))

    rows = sorted(set(kept))
    if query.order_by is not None:
        rows.sort(key=lambda r: tuple(r[i] for i in query.order_by))
    return tuple(rows)


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


def _action_check(schema: Schema, action: Action) -> None:
    if getattr(action, "_checked_against", None) is schema:
        return
    param_names = {p[0] for p in action.params}
    for tmpl in action.adds + action.dels:
        rel = schema.relation(tmpl.relation)
        if len(tmpl.terms) != rel.arity:
            raise DefinitionError(
                f"action {action.name!r}: template for {tmpl.relation!r} has wrong arity"
            )
        allow_wild = tmpl in action.dels
        for t in tmpl.terms:
            if isinstance(t, Wild):
                if not allow_wild:
                    raise DefinitionError(
                        f"action {action.name!r}: wildcard not allowed in additions"
                    )
            elif isinstance(t, Param):
                if t.name not in param_names:
                    raise DefinitionError(f"action {action.name!r}: unknown parameter {t.name!r}")
            elif not isinstance(t, Const):
                raise DefinitionError(f"action {action.name!r}: bad template term {t!r}")
    object.__setattr__(action, "_checked_against", schema)


def _typecheck_row(rel: Relation, values: tuple) -> Optional[str]:
    if len(values) != rel.arity:
        return f"arity {len(values)} != {rel.arity}"
    for col, v in zip(rel.columns, values):
        if not conforms(v, col.color):
            return f"column {col.name!r} expects {col.color.kind}, got {v!r}"
    return None


def apply_action_delta(
    instance: Instance, action: Action, args: Sequence, at: int
):
    """Core of apply_action; also reports the net change.

    Returns (new_instance, added, deleted) with added/deleted lists of
    (relation, values, at) rows, or a ConstraintViolation.  A type violation
    of any addition is reported first; otherwise the first key clash of the
    first relation added to.

    ``instance`` must be compliant (see check_compliance).  Deletions and
    key checks look rows up with ``bisect_range`` in a working copy of each
    touched relation's sorted rows: a template that binds the leading
    columns, as a key that is a prefix of the columns does, costs a
    bisection; other bound columns are scanned within the range.
    """
    schema = instance.schema
    _action_check(schema, action)
    if len(args) != len(action.params):
        raise DefinitionError(
            f"action {action.name!r} expects {len(action.params)} args, got {len(args)}"
        )
    arg_env: dict[str, object] = {}
    for (pname, pcolor), a in zip(action.params, args):
        if not conforms(a, pcolor):
            raise DefinitionError(f"action {action.name!r}: argument {pname!r} has wrong type")
        arg_env[pname] = a

    # working copies of the relations the action touches
    rows: dict[str, list] = {}

    def touch(name: str) -> list:
        if name not in rows:
            rows[name] = list(instance.rows(name))
        return rows[name]

    deleted: list[tuple] = []
    for tmpl in action.dels:
        pattern = [None if isinstance(t, Wild) else resolve_term(t, {}, arg_env) for t in tmpl.terms]
        bucket = touch(tmpl.relation)
        lo, hi, rest = bisect_range(bucket, pattern)
        keep = []
        for row in bucket[lo:hi]:
            if any(row[0][i] != p for i, p in rest):
                keep.append(row)
            else:
                deleted.append((tmpl.relation, *row))
        bucket[lo:hi] = keep

    added: list[tuple] = []
    clashes: dict[str, Optional[ConstraintViolation]] = {}  # in order of first addition
    for tmpl in action.adds:
        rel = schema.relation(tmpl.relation)
        values = tuple(resolve_term(t, {}, arg_env) for t in tmpl.terms)
        if tuple(map(type, values)) != rel.types:
            return _type_violation(rel, values, at)
        bucket = touch(rel.name)
        kidx = rel.key_indexes()
        lo, hi, rest = bisect_range(bucket, [v if i in kidx else None for i, v in enumerate(values)])
        prior = next((r for r in bucket[lo:hi] if all(r[0][i] == p for i, p in rest)), None)
        row = (values, at)
        clashes.setdefault(rel.name, None)
        if prior is not None:
            if clashes[rel.name] is None:
                k = tuple(values[i] for i in kidx)
                clashes[rel.name] = ConstraintViolation(
                    relation=rel.name,
                    kind="key",
                    key=k,
                    witnesses=(prior, row),
                    message=f"duplicate key {k!r} in relation {rel.name!r}",
                )
            continue
        insort(bucket, row)
        added.append((rel.name, values, at))
    for clash in clashes.values():
        if clash is not None:
            return clash

    store = dict(instance._rows)
    for rel_name, bucket in rows.items():
        store[rel_name] = tuple(bucket)
    new = Instance.__new__(Instance)
    new.schema = schema
    new._rows = store
    new._count_cache = {}
    return new, added, deleted


def apply_action(instance: Instance, action: Action, args: Sequence, at: int):
    """Apply an action atomically.  Returns the new Instance, or a
    ConstraintViolation leaving the original untouched.  Raises
    DefinitionError when a relation the action touches holds duplicate
    keys, since actions need a compliant instance."""
    schema = instance.schema
    _action_check(schema, action)
    touched = dict.fromkeys(t.relation for t in action.dels + action.adds)
    bad = check_compliance(instance, Schema(tuple(schema.relation(n) for n in touched)))
    if bad:
        raise DefinitionError(f"relation {bad[0].relation!r} holds duplicate keys; actions need a compliant instance")
    res = apply_action_delta(instance, action, args, at)
    if isinstance(res, ConstraintViolation):
        return res
    return res[0]


def _type_violation(rel: Relation, values: tuple, ts) -> Optional[ConstraintViolation]:
    err = _typecheck_row(rel, values)
    if err is None:
        return None
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
