"""Relational persistence layer: schemas with key constraints, immutable
instances with per-fact insert timestamps, conjunctive queries, and atomic
parameterized actions.

Every column has one type, so the values of a column always compare and an
instance keeps each relation's rows in their natural order.  An Instance
never mutates; apply_action returns either a new Instance or a
ConstraintViolation value naming the key that the change would duplicate.

A query or an action is checked against a schema once per schema
object, on first use, and the schema keeps its plan.  An action becomes a
generated function that deletes and adds its rows by bisection, whose
compiled code every action of its shape shares (``_compile_action``), so
that applying it interprets no template; a query becomes a generated
function of nested loops, which equal queries share (``_shared_plan``)
and whose compiled code every query of its shape shares
(``_query_plan``).  ``check_pattern`` is the
one check of what a db pattern may hold, whether a query atom, a
filter's count, an action template or a transition's count or
merge_text.
``inscription_color`` is the one walk that decides an inscription's color,
whether a query filter or a transition's guard, arc or action argument,
with ``bind_pattern`` for the variables an input arc binds.  Arguments are
type-checked where a caller passes them: by ``eval_query`` and by
``apply_action``.
"""

from __future__ import annotations

from bisect import bisect_left
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
# the value is the upper probe of a prefix range (in ``bisect_range`` and in
# generated query plans and action updates); a value of any other type
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


def _arg_check(what: str, name: str, params: Sequence):
    """``check(args)`` for the parameters of a query or an action: it
    raises DefinitionError on a wrong number of arguments, or naming the
    first argument of a wrong type.  Parameters given as a list, or as
    lists of a name and a color, check as the tuple of pairs would."""
    return _arg_checker(what, name, tuple(map(tuple, params)))


@lru_cache(maxsize=1024)
def _arg_checker(what: str, name: str, params: tuple):
    """``_arg_check`` for a tuple of (name, color) pairs, made once per
    parameter list.  Scalar parameters are checked at once by their exact
    types, product ones with their color's test."""
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

# the most atoms a query may join: its plan nests a loop per atom, and
# Python compiles at most 20 nested loops
_MAX_ATOMS = 16


def _plan(schema: Schema, obj, compile):
    """The plan of a query or an action, ``compile(schema, obj)``, made
    once per schema object and kept in the schema's ``_plans`` by the
    identity of ``obj`` (the entry holds ``obj``, so its id is not reused
    while the entry lasts).  Another schema object, even an equal one,
    checks ``obj`` again, though equal queries share one plan
    (``_shared_plan``); a schema's plans go with it."""
    plans = schema._plans
    entry = plans.get(id(obj))
    if entry is None:
        entry = plans[id(obj)] = (obj, compile(schema, obj))
    return entry[1]


def _compile_query(schema: Schema, query: Query):
    """``(plan, colors)`` for a query checked against a schema:
    ``plan(instance, args)`` (see ``_query_plan``) and the colors of
    its output columns.  A variable takes the color of the column of the
    first atom that binds it, and each filter is walked as the comparison
    of its two sides (``inscription_color``)."""
    if len(query.atoms) > _MAX_ATOMS:
        raise DefinitionError(f"query {query.name!r}: {len(query.atoms)} atoms, more than the {_MAX_ATOMS} a query may join")
    variables: dict[str, ColorType] = {}
    params = dict(query.params)
    reads: dict[str, tuple] = {}  # the column types of each relation read
    for i, atom in enumerate(query.atoms):
        rel = check_pattern(schema, f"query {query.name!r} atom {i}", atom.relation, atom.terms, _QUERY_TERMS, params, variables)
        reads[rel.name] = rel.types
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
        for side in (f.lhs, f.rhs):
            if type(side) is DbCount:
                reads[side.relation] = schema.relation(side.relation).types
    for v in query.output:
        if v not in variables:
            raise DefinitionError(f"query {query.name!r}: output variable {v!r} is unbound")
    if query.order_by is not None:
        for idx in query.order_by:
            if not (0 <= idx < len(query.output)):
                raise DefinitionError(f"query {query.name!r}: order_by index {idx} out of range")
    return _shared_plan(schema, query, tuple(reads.values())), tuple(variables[v] for v in query.output)


# the plans of checked queries, by the query and the column types of the
# relations it reads (see _shared_plan)
_SHARED_PLANS: dict = {}


def _shared_plan(schema: Schema, query: Query, types: tuple):
    """``_query_plan(schema, query)``, made once for equal queries over
    relations of equal column types ``types``, so that nets built alike
    generate each plan once.  Two equal queries that both type-check may
    differ only where a filter compares two constants, one query's ints
    and the other's bools of equal value (1 and True), and the comparison
    holds alike for both."""
    key = (query, types)
    try:
        plan = _SHARED_PLANS.get(key)
    except TypeError:  # a query that holds a list: not shared
        return _query_plan(schema, query)
    if plan is None:
        if len(_SHARED_PLANS) >= 256:
            _SHARED_PLANS.clear()
        plan = _SHARED_PLANS[key] = _query_plan(schema, query)
    return plan


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


@lru_cache(maxsize=256)
def _maker(source: str):
    """The ``make`` function that ``source`` defines, compiled once per
    source text and shared by every query plan, action update and
    transition firing (``engine._kernel``) of that shape."""
    scope: dict = {}
    exec(compile(source, "<generated>", "exec"), scope)
    return scope["make"]


def _generate(name: str, params: str, body: list[str], ns: Mapping):
    """The function ``name(params)`` whose body is ``body`` (lines indented
    by eight spaces), made by ``make(**ns)``: each key of ``ns`` is a
    parameter of ``make``, so the source names what it reads and holds
    none of it."""
    source = "\n".join([f"def make({', '.join(ns)}):", f"    def {name}({params}):", *body, f"    return {name}", ""])
    return _maker(source)(**ns)


def _bisection(rows: str, prefix: list, step: str, site) -> tuple[str, str]:
    """The source that sets ``L<site>`` and ``H<site>`` to the range of the
    sorted rows ``rows`` whose leading columns equal the values ``prefix``,
    as ``bisect_range`` finds it: the upper probe adds ``step`` to the
    last value."""
    comma = "," if len(prefix) == 1 else ""
    upper = [*prefix[:-1], f"{prefix[-1]} + {step}"]
    return (
        f"L{site} = B({rows}, (({', '.join(prefix)}{comma}),))",
        f"H{site} = B({rows}, (({', '.join(upper)}{comma}),), L{site})",
    )


def _query_plan(schema: Schema, query: Query):
    """The evaluation ``plan(instance, args)`` of a query checked against
    ``schema`` (see ``eval_query``).

    A query that copies a relation (``copied_relation``) returns its rows.
    Any other becomes one generated Python function of nested loops, one
    per atom in query order.  An atom bisects its relation's rows on its
    leading bound columns (a parameter, a constant or a variable of an
    earlier atom), with the step (``_STEP``) of the last one's type; its
    other bound columns, and a variable it repeats, are equality tests,
    and an atom that binds no variable stops at its first row.  Each
    filter is tested where its last variable is bound, and a count in it
    is the length of a bisected range, or a scan of that range when it
    binds a column after a wildcard.  The rows are collected in a set and
    then sorted.

    The source holds only names the generator makes (``V0`` a variable,
    ``P0`` a parameter, ``R0`` a relation's rows, ``L0``/``H0`` a range):
    relation names, constants, steps and comparison functions are
    arguments of ``make``, so no text of a net document is compiled, and
    queries of one shape share one compiled ``make`` (``_maker``)."""
    check = _arg_check("query", query.name, query.params)
    copied = copied_relation(query)
    if copied is not None:

        def copy(instance: Instance, args: Sequence) -> tuple:
            check(args)
            return tuple([values for values, _ in instance._rows[copied]])

        return copy
    ns: dict = {"B": bisect_left, "CHECK": check}
    head = ["CHECK(A)", "S = I._rows", "found = set()", "add = found.add"]
    if query.params:
        head.insert(1, "".join(f"P{i}, " for i in range(len(query.params))) + "= A")
    params = {p: f"P{i}" for i, (p, _) in enumerate(query.params)}
    variables: dict[str, str] = {}
    relations: dict[str, str] = {}
    body: list[str] = []
    pad = " " * 8  # the indent of the next line of plan's body
    firsts: list[str] = []  # the indents of the loops that stop at their first match

    def bound(terms) -> list:
        """The source of each term's value, or None for a wildcard or a
        variable that no earlier atom binds."""
        exprs = []
        for t in terms:
            kind = type(t)
            if kind is Const:
                exprs.append(f"C{len(ns)}")
                ns[exprs[-1]] = t.value
            elif kind is Param:
                exprs.append(params[t.name])
            else:
                exprs.append(variables.get(t.name) if kind is Var else None)
        return exprs

    def probe(relation: str, exprs: list) -> tuple[str, str, int]:
        """``(rows, size, k)``: the source of the rows of ``relation`` whose
        first ``k`` columns equal the leading bound ones of ``exprs``, and
        of their number.  For ``k`` > 0 it emits their bisection."""
        r = relations.get(relation)
        if r is None:
            r = relations[relation] = f"R{len(relations)}"
            head.append(f"{r} = S[K{len(ns)}]")
            ns[f"K{len(ns)}"] = relation
        k = exprs.index(None) if None in exprs else len(exprs)
        if not k:
            return r, f"len({r})", 0
        site, step = len(body), f"D{len(ns)}"
        ns[step] = _STEP[schema.relation(relation).types[k - 1]]
        body.extend(pad + line for line in _bisection(r, exprs[:k], step, site))
        return f"{r}[L{site}:H{site}]", f"H{site} - L{site}", k

    def side(s) -> str:
        if type(s) is not DbCount:
            return bound((s,))[0]
        exprs = bound(s.terms)
        rows, size, k = probe(s.relation, exprs)
        rest = [i for i in range(k, len(exprs)) if exprs[i] is not None]
        if not rest:
            return size
        m = f"M{len(body)}"
        target = ", ".join(f"T{i}" if i in rest else "_" for i in range(len(exprs)))
        body.append(f"{pad}{m} = 0")
        body.append(f"{pad}for ({target},), _ in {rows}:")
        body.append(f"{pad}    if {' and '.join(f'T{i} == {exprs[i]}' for i in rest)}:")
        body.append(f"{pad}        {m} += 1")
        return m

    pending = []
    for f in query.filters:
        terms = [t for s in (f.lhs, f.rhs) for t in (s.terms if type(s) is DbCount else (s,))]
        pending.append((f, {t.name for t in terms if type(t) is Var}))

    def test_ready_filters() -> None:
        """Emit the test of the filters whose variables are all bound."""
        nonlocal pad, pending
        ready = [f for f, names in pending if names.issubset(variables)]
        if ready:
            pending = [(f, names) for f, names in pending if f not in ready]
            tests = []
            for f in ready:
                fn = f"F{len(ns)}"
                ns[fn] = _CMP[f.op]
                tests.append(f"{fn}({side(f.lhs)}, {side(f.rhs)})")
            body.append(f"{pad}if {' and '.join(tests)}:")
            pad += "    "

    test_ready_filters()
    for atom in query.atoms:
        exprs = bound(atom.terms)
        rows, size, k = probe(atom.relation, exprs)
        target, tests, binds = [], [], False
        for j, (t, e) in enumerate(zip(atom.terms, exprs)):
            if j < k or (e is None and type(t) is Wild):
                target.append("_")
            elif e is None and t.name not in variables:
                variables[t.name] = f"V{len(variables)}"
                target.append(variables[t.name])
                binds = True
            else:
                target.append(f"T{j}")
                tests.append(f"T{j} == {e or variables[t.name]}")
        if binds or tests:
            body.append(f"{pad}for ({', '.join(target)},), _ in {rows}:")
            pad += "    "
            if tests:
                body.append(f"{pad}if {' and '.join(tests)}:")
                pad += "    "
            if not binds:
                firsts.append(pad)
        else:
            body.append(f"{pad}if {size}:")
            pad += "    "
        test_ready_filters()
    output = [variables[v] for v in query.output]
    body.append(f"{pad}add(({', '.join(output)}{',' if len(output) == 1 else ''}))")
    body += [f"{indent}break" for indent in reversed(firsts)]
    if query.order_by is None:
        tail = ["return tuple(sorted(found))"]
    else:
        ns["ORDER"] = _picker(tuple(query.order_by))
        tail = ["rows = sorted(found)", "rows.sort(key=ORDER)", "return tuple(rows)"]
    return _generate("plan", "I, A", ["        " + line for line in head] + body + ["        " + line for line in tail], ns)


def check_query(schema: Schema, query: Query) -> tuple[ColorType, ...]:
    """Check ``query`` against ``schema`` and keep its plan, as its first
    evaluation would, and return the colors of its output columns: a
    DefinitionError names the query, and the atom or filter, when
    ``check_pattern`` rejects an atom or a filter's count, a filter does
    not type-check (``inscription_color``), a variable is unbound, an
    ``order_by`` index is out of range, or the query joins more than 16
    atoms.  The check runs once per schema object; equal queries share a
    plan, and queries of one shape its compiled code (``_shared_plan``)."""
    return _plan(schema, query, _compile_query)[1]


def eval_query(instance: Instance, query: Query, args: Sequence = ()) -> tuple:
    """Evaluate a conjunctive query with comparison/count filters.

    Returns a tuple of result rows (each a tuple), de-duplicated and in
    canonical lexicographic order, then stably sorted by ``order_by``.  The
    query is checked once per schema object, and its plan is a generated
    function shared by equal queries, whose code is compiled once per
    query shape (see ``_shared_plan`` and ``_query_plan``).
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


def _clash(relation: str, key: tuple, witness: tuple, row: tuple) -> ConstraintViolation:
    """The key clash of ``row``, added to ``relation``, with ``witness``."""
    return ConstraintViolation(relation, "key", key, (witness, row), f"duplicate key {key!r} in relation {relation!r}")


def _compile_action(schema: Schema, action: Action):
    """``update(instance, args, at)`` for an action whose templates
    ``check_pattern`` accepts against a schema: one generated Python
    function that applies the action (see ``apply_action_delta``).

    It takes the relations it touches from the instance's store once.
    Each deletion bisects its relation's rows on the template's leading
    bound columns, with the step (``_STEP``) of the last one's type, and
    tests its other bound columns inline within that range.  Each addition
    looks its key up: a key whose columns lead the relation's by one
    bisection, any other by bisecting on its leading key columns and
    scanning that range; without a clash, the row goes where the lookup
    put it.  A relation that one template touches becomes a new tuple by
    slicing its rows; one that several touch is a list until it is done.
    A clash on the relation added to first returns at once; a clash on
    another is kept, and the first kept in order of first addition is
    returned after the additions.

    As in a query plan (``_query_plan``), the source holds only names the
    generator makes (``P0`` a parameter, ``R0`` a relation's rows, ``K1``
    its name, ``C2`` a constant, ``D3`` a step, ``V0`` an added row's
    values, ``W0`` the row, ``L4``/``H4`` a range, ``X1`` a kept clash),
    so actions of one shape share one compiled ``make`` (``_maker``)."""
    params = dict(action.params)
    rels = [
        check_pattern(schema, f"action {action.name!r} {site} {i}", tmpl.relation, tmpl.terms, kinds, params, {})
        for site, templates, kinds in (("addition", action.adds, _ADD_TERMS), ("deletion", action.dels, _DEL_TERMS))
        for i, tmpl in enumerate(templates)
    ]
    touched = [rel.name for rel in rels]
    ns: dict = {"B": bisect_left, "CLASH": _clash, "NEW": Instance.__new__, "INSTANCE": Instance}
    pnames = {p: f"P{i}" for i, (p, _) in enumerate(action.params)}
    body: list[str] = []

    def line(text: str, depth: int = 0) -> None:
        body.append("        " + "    " * depth + text)

    def value(t) -> Optional[str]:
        """The source of a term's value, or None for a wildcard."""
        if type(t) is Param:
            return pnames[t.name]
        if type(t) is Const:
            ns[f"C{len(ns)}"] = t.value
            return f"C{len(ns) - 1}"
        return None

    rows: dict[str, tuple[str, str]] = {}  # relation -> (its rows, its name)

    def relation(rel: Relation) -> tuple[str, str]:
        got = rows.get(rel.name)
        if got is None:
            got = rows[rel.name] = (f"R{len(rows)}", f"K{len(ns)}")
            ns[got[1]] = rel.name
            line(f"{got[0]} = list(S[{got[1]}])" if touched.count(rel.name) > 1 else f"{got[0]} = S[{got[1]}]")
        return got

    def bisect(r: str, rel: Relation, exprs: list) -> tuple[str, int]:
        """``(site, k)``: emit ``L<site>``/``H<site>``, the range of the rows
        of ``r`` whose first ``k`` columns equal the leading bound ones of
        ``exprs``."""
        site = str(len(body))
        k = exprs.index(None) if None in exprs else len(exprs)
        if not k:
            line(f"L{site} = 0")
            line(f"H{site} = len({r})")
            return site, 0
        step = f"D{len(ns)}"
        ns[step] = _STEP[rel.types[k - 1]]
        for text in _bisection(r, exprs[:k], step, site):
            line(text)
        return site, k

    if action.params:
        line("".join(f"{p}, " for p in pnames.values()) + "= A")
    line("S = I._rows")
    if action.dels:
        line("deleted = []")
    for rel, tmpl in zip(rels[len(action.adds) :], action.dels):
        r, name = relation(rel)
        exprs = [value(t) for t in tmpl.terms]
        site, k = bisect(r, rel, exprs)
        span = f"{r}[L{site}:H{site}]"
        rest = [i for i in range(k, len(exprs)) if exprs[i] is not None]
        if not rest:
            line(f"deleted += [({name}, V, T) for V, T in {span}]")
            kept = None
        else:
            kept = f"M{site}"
            line(f"{kept} = []")
            line(f"for Y in {span}:")
            line(f"if {' and '.join(f'Y[0][{i}] == {exprs[i]}' for i in rest)}:", 1)
            line(f"deleted.append(({name}, *Y))", 2)
            line("else:", 1)
            line(f"{kept}.append(Y)", 2)
        if touched.count(rel.name) > 1:
            line(f"{span} = {kept or '()'}")
        else:
            middle = f" + tuple({kept})" if kept else ""
            line(f"{r} = {r}[:L{site}]{middle} + {r}[H{site}:]")

    ranks: dict[str, int] = {}  # relation -> its place in the order of first addition
    for rel in rels[: len(action.adds)]:
        ranks.setdefault(rel.name, len(ranks))
    if len(ranks) > 1:
        line(" = ".join(f"X{i}" for i in range(1, len(ranks))) + " = None")

    def clash(rel: Relation, key: str, witness: str, row: str, depth: int) -> None:
        rank = ranks[rel.name]
        made = f"CLASH({rows[rel.name][1]}, {key}, {witness}, {row})"
        if not rank:
            line(f"return {made}", depth)
        else:
            line(f"if X{rank} is None:", depth)
            line(f"X{rank} = {made}", depth + 1)

    added = []
    for i, (rel, tmpl) in enumerate(zip(rels, action.adds)):
        r, name = relation(rel)
        exprs = [value(t) for t in tmpl.terms]
        line(f"V{i} = ({''.join(f'{e}, ' for e in exprs)})")
        line(f"W{i} = (V{i}, at)")
        added.append(f"({name}, V{i}, at)")
        kidx = rel.key_indexes()
        key = f"({''.join(f'{exprs[j]}, ' for j in kidx)})"
        single = touched.count(rel.name) == 1
        if sorted(kidx) == list(range(len(kidx))):
            # the key leads the columns: one bisection finds a clash or the
            # row's place
            lead = exprs[: len(kidx)]
            site = str(len(body))
            comma = "," if len(lead) == 1 else ""
            line(f"J{site} = B({r}, (({', '.join(lead)}{comma}),))")
            first = f"{r}[J{site}][0]"
            same = f"{first}[0] == {lead[0]}" if len(lead) == 1 else f"{first}[:{len(lead)}] == ({', '.join(lead)})"
            line(f"if J{site} < len({r}) and {same}:")
            clash(rel, key, f"{r}[J{site}]", f"W{i}", 1)
            line("else:")
        else:
            pattern = [exprs[p] if p in kidx else None for p in range(max(kidx) + 1)]
            site, k = bisect(r, rel, pattern)
            rest = [p for p in range(k, len(pattern)) if pattern[p] is not None]
            line(f"for Y in {r}[L{site}:H{site}]:")
            line(f"if {' and '.join(f'Y[0][{p}] == {pattern[p]}' for p in rest)}:", 1)
            clash(rel, key, "Y", f"W{i}", 2)
            line("break", 2)
            line("else:")
            line(f"J{site} = B({r}, W{i}, L{site}, H{site})", 1)
        if single:
            line(f"{r} = {r}[:J{site}] + (W{i},) + {r}[J{site}:]", 1)
        else:
            line(f"{r}.insert(J{site}, W{i})", 1)
    for rank in range(1, len(ranks)):
        line(f"if X{rank} is not None:")
        line(f"return X{rank}", 1)
    store = "".join(f", {name}: {r if touched.count(rel) == 1 else f'tuple({r})'}" for rel, (r, name) in rows.items())
    line("new = NEW(INSTANCE)")
    line("new.schema = I.schema")
    line(f"new._rows = {{**S{store}}}")
    line("new._count_cache = {}")
    line(f"return new, [{', '.join(added)}], {'deleted' if action.dels else '[]'}")
    return _generate("update", "I, A, at", body, ns)


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
    compiled once per schema into generated code (see ``_compile_action``),
    which deletes the rows of a bisected range and looks each added key up
    by bisection.
    """
    return _plan(instance.schema, action, _compile_action)(instance, args, at)


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
