"""Relational persistence layer: schemas with key constraints, immutable
instances with per-fact insert timestamps, conjunctive queries, and atomic
parameterized actions.

Every column has one type, so the values of a column always compare and an
instance keeps each relation's rows in their natural order.  An Instance
never mutates; apply_action returns either a new Instance or a
ConstraintViolation value naming the key that the change would duplicate.

A query or an action is checked against a schema and compiled once per
schema object, on first use, and the schema keeps the plan: its terms
become argument indexes, constants, wildcards or variable lookups, so
that evaluating it interprets no template.  ``check_pattern`` is the one
check of what a db pattern may hold, whether a query atom, a filter's
count, an action template or a transition's count or merge_text.
``inscription_color`` is the one walk that decides an inscription's color,
whether a query filter or a transition's guard, arc or action argument,
with ``bind_pattern`` for the variables an input arc binds.  Arguments are
type-checked where a caller passes them: by ``eval_query`` and by
``apply_action``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .exprs import (
    _CMP,
    OPERATORS,
    TIME_OPERATORS,
    Age,
    Const,
    DbCount,
    DbMergeText,
    DefinitionError,
    Now,
    Op,
    Param,
    Var,
    Wild,
    compiled,
    depends_on_time,
)
from .values import BOOL, INT, SCALAR_KINDS, SCALAR_TYPES, TEXT, ColorType, color_name, color_of, encodable, product


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
    """Why an instance (or an attempted change) is not compliant: two rows
    share a key.

    kind is "key", the one constraint a row can break once it fits its
    columns; witnesses are the offending (values, at) rows.  This is a value
    the engine reacts to (a firing rolls back or halts), not an exception.
    A row of the wrong type is a DefinitionError instead: the Instance
    constructor rejects one, and an action that could add one is rejected
    when it is checked.
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
    is not an int, with a DefinitionError, and a checked action adds only
    rows that fit (``check_pattern``), so every instance holds values that
    compare within each column and keeps its rows in their natural order,
    the canonical one.  Lookups bisect that order on a pattern's leading
    bound columns and scan the others (see ``bisect_range``).  Counts are
    cached lazily per object; since instances never change after
    construction this is safe.  Keys are not checked here: see
    check_compliance.
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
                    raise DefinitionError(_type_violation(rel, values))
                if type(at) is not int:
                    raise DefinitionError(f"relation {name!r}: row {values!r} has insertion time {at!r}, not an int")
            store[name] = tuple(sorted(rs))
        self._rows = store
        self._count_cache: dict = {}

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
            raise DefinitionError(f"a lookup pattern of length {len(pattern)} for relation {relation!r} of arity {arity}")
        return (rows, *bisect_range(rows, pattern))

    def match_rows(self, relation: str, pattern: Optional[Sequence]) -> list[tuple]:
        """Rows whose values agree with pattern (None entries are wildcards;
        a pattern of None matches everything), in canonical order.  Only the
        rows whose leading bound columns match are inspected: they form one
        range of the canonical order, found by binary search."""
        rows, lo, hi, rest = self._range(relation, pattern)
        if not rest:
            return list(rows[lo:hi])
        return [row for row in rows[lo:hi] if all(row[0][i] == p for i, p in rest)]

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
    """``(evaluate, colors)`` for a query checked against a schema:
    ``evaluate(instance, args)`` (see ``_query_plan``) and the colors of
    its output columns.  A variable takes the color of the column of the
    first atom that binds it, and each filter is walked as the comparison
    of its two sides (``inscription_color``)."""
    variables: dict[str, ColorType] = {}
    params = dict(query.params)
    for i, atom in enumerate(query.atoms):
        rel = check_pattern(schema, f"query {query.name!r} atom {i}", atom.relation, atom.terms, _QUERY_TERMS, params, variables)
        for t, column in zip(atom.terms, rel.columns):
            if type(t) is Var:
                variables.setdefault(t.name, column.color)
    for i, f in enumerate(query.filters):
        if f.op not in _FILTER_OPS:
            raise DefinitionError(f"query {query.name!r}: bad filter op {f.op!r}")
        at = f"query {query.name!r} filter {i}"
        for side in (f.lhs, f.rhs):
            if type(side) not in _FILTER_TERMS:
                allowed = ", ".join(k.__name__ for k in _FILTER_TERMS)
                raise DefinitionError(f"{at}: not a filter term: {side!r} (allowed: {allowed})")
        inscription_color(Op(f.op, (f.lhs, f.rhs)), Scope(schema, at, "", variables, "atom", set(), params))
    for v in query.output:
        if v not in variables:
            raise DefinitionError(f"query {query.name!r}: output variable {v!r} is unbound")
    if query.order_by is not None:
        for idx in query.order_by:
            if not (0 <= idx < len(query.output)):
                raise DefinitionError(f"query {query.name!r}: order_by index {idx} out of range")
    return _query_plan(query), tuple(variables[v] for v in query.output)


# the terms each kind of db pattern may hold: a query atom or a filter's
# count, an action's addition and an action's deletion (a transition's
# count or merge_text passes its own, see ``net.validate_net``)
_QUERY_TERMS = (Var, Const, Param, Wild)
_ADD_TERMS = (Param, Const)
_DEL_TERMS = (Param, Const, Wild)
_TRANSITION_TERMS = (Var, Const, Wild)
# what a query filter's side may be
_FILTER_TERMS = (Var, Const, Param, DbCount)


def check_pattern(
    schema: Schema,
    at: str,
    relation: str,
    terms: tuple,
    kinds: tuple,
    params: Mapping[str, ColorType],
    variables: Mapping[str, ColorType],
) -> Relation:
    """The relation of a db pattern, located by ``at``, that holds what it
    may: the relation is known and the pattern has its arity; each term is
    one of the node classes ``kinds``; each constant fits its column (a
    constant of another color never matches, and an added one breaks the
    column's type) and holds text that UTF-8 can encode; and each parameter
    is one of ``params`` (name to color), and each variable bound before
    the pattern one of ``variables``, whose values have the column's type.
    Every db pattern is checked here: query atoms and filter counts, action
    additions and deletions, and a transition's count and merge_text, so a
    checked action never writes a row of the wrong type."""
    try:
        rel = schema.relation(relation)
    except DefinitionError as e:
        raise DefinitionError(f"{at}: {e}") from None
    if len(terms) != rel.arity:
        raise DefinitionError(f"{at}: pattern arity {len(terms)} does not match relation {rel.name!r} arity {rel.arity}")
    for t, column in zip(terms, rel.columns):
        kind = type(t)
        if kind not in kinds:
            allowed = ", ".join(k.__name__ for k in kinds)
            raise DefinitionError(f"{at}: not a pattern term: {t!r} (allowed: {allowed})")
        if kind is Const:
            if column.color.fits(t.value):
                if not encodable(t.value):
                    raise DefinitionError(f"{at}: constant {t.value!r} holds text that UTF-8 cannot encode")
                continue
            misfit = f"constant {t.value!r}"
        elif kind is Param or kind is Var:
            color = (params if kind is Param else variables).get(t.name)
            if color is None:
                if kind is Var:
                    continue  # the pattern binds it
                raise DefinitionError(f"{at}: unknown parameter {t.name!r}")
            if color.exact is column.color.exact:
                continue
            misfit = f"{'parameter' if kind is Param else 'variable'} {t.name!r} of color {color_name(color)}"
        else:
            continue
        raise DefinitionError(f"{at}: {misfit} does not fit column {column.name!r} of {rel.name!r}, {color_name(column.color)}")
    return rel


class Scope(NamedTuple):
    """Where an inscription stands and what its walk may read.  ``at`` and
    ``where`` locate a fault (``transition 't'`` and ``guard``; a query
    filter has no ``where``); ``variables`` maps each bound variable to its
    color, bound by a ``binder`` (an input arc, an atom), and ``aged``
    holds those that age() may read; ``params`` maps the parameters to
    their colors, and is None where none may stand (a transition has
    none); ``timed`` prefixes the guard solver's shape faults where the
    solver takes the inscription (a guard, an action argument)."""

    schema: Schema
    at: str
    where: str
    variables: dict
    binder: str
    aged: set
    params: Optional[Mapping[str, ColorType]]
    timed: Optional[str] = None


# operator -> (least, most) operands; any other takes at least one
_ARITY = {**dict.fromkeys(_CMP, (2, 2)), "not": (1, 1), "and": (0, None), "or": (0, None)}


def inscription_color(e, scope: Scope) -> ColorType:
    """The color of the inscription ``e``; the first fault, in tree order,
    is a DefinitionError located by ``scope``.  This walk is the one place
    where an inscription's type is decided, so that no value's type is
    tested when a net fires.  Types are exact, as in ``ColorType.fits``:
    ``ts`` and ``int`` are one exact int, and a bool is not an int.

    * A variable has the color of what binds it (``bind_pattern``, a query
      atom), a constant the color of its value (``color_of``; it holds text
      that UTF-8 can encode), and a parameter its declared color.
    * ``now()``, ``age(x)`` and ``count`` are ints, ``merge_text`` text.
      A db pattern's terms (a query's variables only) are walked first,
      then ``check_pattern`` checks it, with the terms a transition or a
      query may use there.
    * An operator is known and has its arity: a comparison takes two
      operands of one color and gives a bool; ``+ - * min max`` take ints
      and give an int; ``and``, ``or`` and ``not`` take bools; ``tuple``
      builds the product of its scalar operands.
    * Under ``scope.timed``, now() and age() occur only under the
      TIME_OPERATORS and never inside a db pattern."""
    kind = type(e)
    at, inside = scope.at, f" in {scope.where}" if scope.where else ""
    if kind is Var or kind is Age:
        name = e.name if kind is Var else e.var
        color = scope.variables.get(name)
        if color is None:
            raise DefinitionError(f"{at}: variable {name!r}{inside} is not bound by any {scope.binder}")
        if kind is Var:
            return color
        if name not in scope.aged:
            raise DefinitionError(f"{at}: age({name!r}) needs a variable bound by a normal place")
        return INT
    if kind is Const:
        color = color_of(e.value)
        if color is None:
            raise DefinitionError(f"{at}: constant {e.value!r}{inside} is a value of no color")
        if not encodable(e.value):
            raise DefinitionError(f"{at}: constant {e.value!r}{inside} holds text that UTF-8 cannot encode")
        return color
    if kind is Param:
        if scope.params is None:
            raise DefinitionError(f"{at}: parameter {e.name!r}{inside}: a transition has no parameters")
        color = scope.params.get(e.name)
        if color is None:
            raise DefinitionError(f"{at}: unknown parameter {e.name!r}")
        return color
    if kind is Now:
        return INT
    if kind is Op:
        op, args = e.op, e.args
        if scope.timed and op not in TIME_OPERATORS and depends_on_time(e):
            raise DefinitionError(f"{scope.timed}: now()/age() not allowed under {op!r}")
        if op not in OPERATORS:
            raise DefinitionError(f"{at}: unknown operator {op!r}")
        least, most = _ARITY.get(op, (1, None))
        if len(args) < least or (most is not None and len(args) > most):
            need = least if least == most else f"at least {least}"
            raise DefinitionError(f"{at}: {op!r}{inside} takes {need} operand{'s' * (least != 1)}, got {len(args)}")
        colors = [inscription_color(a, scope) for a in args]
        if op in _CMP:
            if colors[0].exact != colors[1].exact:
                raise DefinitionError(f"{at}: {op!r}{inside} compares {color_name(colors[0])} with {color_name(colors[1])}")
            return BOOL
        if op == "tuple":
            bad = next((c for c in colors if c.kind == "product"), None)
            if bad is not None:
                raise DefinitionError(f"{at}: 'tuple'{inside} takes scalar operands, not {color_name(bad)}")
            return product(*colors)
        want = BOOL if op in ("and", "or", "not") else INT
        bad = next((c for c in colors if c.exact is not want.exact), None)
        if bad is not None:
            raise DefinitionError(f"{at}: {op!r}{inside} takes {want.kind} operands, not {color_name(bad)}")
        return want
    if kind is DbCount or kind is DbMergeText:
        # a transition's terms are walked first, so that an unbound
        # variable, a parameter or now()/age() is named as anywhere else; a
        # query's variables only, and check_pattern names the rest
        for term in e.terms:
            if scope.timed and depends_on_time(term):
                raise DefinitionError(f"{scope.timed}: now()/age() not allowed inside db patterns")
            if type(term) is Var or (scope.params is None and type(term) is not Wild):
                inscription_color(term, scope)
        name = "count" if kind is DbCount else "merge_text"
        where = f"{at}: {name}(){inside}" if inside else f"{at} {name}"
        kinds = _TRANSITION_TERMS if scope.params is None else _QUERY_TERMS
        rel = check_pattern(scope.schema, where, e.relation, e.terms, kinds, scope.params or {}, scope.variables)
        if kind is DbCount:
            return INT
        for col in (e.order_col, e.text_col):
            if type(col) is not int or not 0 <= col < rel.arity:
                raise DefinitionError(f"{where}: column {col!r} is out of range for relation {rel.name!r}")
        if type(e.sep) is not str or not encodable(e.sep):
            raise DefinitionError(f"{where}: separator {e.sep!r} is not text that UTF-8 can encode")
        return TEXT
    raise DefinitionError(f"{at}: {e!r}{inside} is not an expression")


def bind_pattern(scope: Scope, at: str, pattern, color: ColorType, aged: bool) -> None:
    """The walk's rule for an input-arc pattern, located by ``at``, on a
    place of ``color``: a term, or a tuple of one term per component of a
    product color, each a variable, a constant that fits what it matches
    (one of another color never matches) and holds text that UTF-8 can
    encode, or a wildcard.  Each variable takes the color of what it
    matches, in ``scope.variables``; one bound before must have that color
    already.  With ``aged`` (a normal place) age() may read them."""
    if type(pattern) is tuple:
        # a tuple pattern matches only tuples of its width
        width = len(color.components) if color.kind == "product" else None
        if width != len(pattern):
            have = f"a product of {width} components" if width is not None else f"the scalar {color.kind!r}"
            raise DefinitionError(f"{at}: {len(pattern)} pattern terms, but the place's color is {have}")
        terms = zip(pattern, color.components)
    else:
        terms = ((pattern, color),)
    for i, (term, fit) in enumerate(terms):
        kind = type(term)
        if kind is Var:
            prior = scope.variables.setdefault(term.name, fit)
            if prior.exact != fit.exact:
                raise DefinitionError(
                    f"{at}: variable {term.name!r} takes color {color_name(fit)} here and {color_name(prior)} before"
                )
            if aged:
                scope.aged.add(term.name)
        elif kind is Const:
            if not fit.fits(term.value):
                of = f"component {i} of the place's color" if type(pattern) is tuple else "the place's color"
                raise DefinitionError(f"{at}: constant {term.value!r} does not fit {of}, {color_name(fit)}")
            if not encodable(term.value):
                raise DefinitionError(f"{at}: constant {term.value!r} holds text that UTF-8 cannot encode")
        elif kind is not Wild:
            raise DefinitionError(f"{at}: not a pattern term: {term!r}")


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
    are compiled expressions (see ``exprs.compiled``) of a variable, a
    constant, a parameter or a count."""
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
    filters = tuple((_CMP[f.op], compiled(f.lhs), compiled(f.rhs)) for f in query.filters)
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


def check_query(schema: Schema, query: Query) -> tuple[ColorType, ...]:
    """Check ``query`` against ``schema`` and keep its plan, as its first
    evaluation would, and return the colors of its output columns: a
    DefinitionError names the query, and the atom or filter, when
    ``check_pattern`` rejects an atom or a filter's count, a filter does
    not type-check (``inscription_color``), a variable is unbound, or an
    ``order_by`` index is out of range."""
    return _plan(schema, query, _compile_query)[1]


def eval_query(instance: Instance, query: Query, args: Sequence = ()) -> tuple:
    """Evaluate a conjunctive query with comparison/count filters.

    Returns a tuple of result rows (each a tuple), de-duplicated and in
    canonical lexicographic order unless order_by overrides it.  The query
    is compiled once per schema (see ``_query_plan``).
    """
    return _plan(instance.schema, query, _compile_query)[0](instance, args)


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
    """``(consts, dels, adds)`` for an action whose templates
    ``check_pattern`` accepts against a schema.

    Every template term is an index
    into ``ext``, the arguments followed by ``consts`` (None, a wildcard,
    first).  ``dels`` holds ``(relation, pick)`` per deletion and ``adds``
    ``(relation, pick, lead, pick_key, key positions)`` per addition, where
    ``pick(ext)`` is the template's values.  ``lead`` is the width of a key
    whose columns lead the relation's, and 0 for any other key, whose
    pattern ``pick_key(ext)`` gives (see ``bisect_range``)."""
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
    dels = tuple((rel.name, _picker(tuple(idx))) for rel, idx in picks[len(action.adds):])
    adds = []
    for rel, idx in picks[: len(action.adds)]:
        kidx = rel.key_indexes()
        lead = len(kidx) if sorted(kidx) == list(range(len(kidx))) else 0
        # the pattern of the key columns, up to the last
        key = tuple(idx[pos] if pos in kidx else npar for pos in range(max(kidx) + 1))
        adds.append((rel.name, _picker(tuple(idx)), lead, _picker(key), kidx))
    return tuple(consts), dels, tuple(adds)


def check_action(schema: Schema, action: Action) -> None:
    """Check ``action`` against ``schema`` and keep its plan, as its first
    firing would: ``check_pattern`` takes parameters and constants in an
    addition, and wildcards too in a deletion, and a DefinitionError names
    the action and the template."""
    _plan(schema, action, _compile_action)


def apply_action_delta(
    instance: Instance, action: Action, args: Sequence, at: int
):
    """Core of apply_action; also reports the net change.

    Returns (new_instance, added, deleted) with added/deleted lists of
    (relation, values, at) rows, or the ConstraintViolation of the first
    key clash of the first relation added to.  A key clash is the only
    violation: the action's templates are checked when it is compiled
    (``check_pattern``), and a DefinitionError names an action that does
    not fit the schema.  The arguments are not checked here: they must
    have the parameters' colors, as the engine's do (``validate_net`` types
    each argument of a call, and binds its variables from admitted
    tokens, in runs and in replay alike) and as ``apply_action`` checks
    for its caller's.  So each added row fits its relation's columns.

    ``instance`` must be compliant (see check_compliance).  The action is
    compiled once per schema (see ``_compile_action``).  Deletions and key
    checks look rows up in a working copy of each touched relation's
    sorted rows.  A key whose columns lead the relation's costs one
    bisection: it clashes when the row at the bisected position starts with
    it, and otherwise that position is where the added row goes.  Deletions
    and any other key use ``bisect_range``, which bisects on the leading
    bound columns and scans the others within the range.
    """
    consts, dels, adds = _plan(instance.schema, action, _compile_action)
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


def apply_action(instance: Instance, action: Action, args: Sequence, at: int):
    """Apply an action atomically.  Returns the new Instance, or the
    ConstraintViolation of a key clash, leaving the original untouched.
    Raises DefinitionError when the action does not fit the schema (see
    ``check_pattern``), when the caller's arguments are too few, too many
    or of the wrong type (the one argument check of an action), or when a
    relation the action touches holds duplicate keys, since actions need a
    compliant instance."""
    schema = instance.schema
    check_action(schema, action)
    _arg_check("action", action.name, action.params)(args)
    touched = dict.fromkeys(t.relation for t in action.dels + action.adds)
    bad = check_compliance(instance, Schema(tuple(schema.relation(n) for n in touched)))
    if bad:
        raise DefinitionError(f"relation {bad[0].relation!r} holds duplicate keys; actions need a compliant instance")
    res = apply_action_delta(instance, action, args, at)
    if isinstance(res, ConstraintViolation):
        return res
    return res[0]


def _type_violation(rel: Relation, values: tuple) -> str:
    """Why a row's values do not fit its relation's column types (their
    count, or the first column whose type differs)."""
    if len(values) != rel.arity:
        err = f"arity {len(values)} != {rel.arity}"
    else:
        col, v = next((c, v) for c, v, t in zip(rel.columns, values, rel.types) if type(v) is not t)
        err = f"column {col.name!r} expects {col.color.kind}, got {v!r}"
    return f"type constraint on {rel.name!r}: {err}"


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
