"""Small expression language used by guards, arc inscriptions, action
arguments, and query filters.

Expressions are immutable prefix trees.  They may read:

* variables bound by input-arc patterns,
* ``now()``, the firing (or enablement) time being evaluated,
* ``age(x)``, the difference between now and the creation time of the token
  that bound ``x``,
* ``count(rel, pattern)``, the number of facts of ``rel`` matching a
  pattern of constants, bound variables, and wildcards,
* ``merge_text(rel, pattern, order_col, text_col)``, the concatenation of a
  text column over the matching facts, ordered by another column.

Every node is compiled once, on first use, into a closure
``fn(env, instance, now, ages, args)`` that is cached on the node as
``_eval`` (``compiled``); ``eval_expr`` is the call of that closure.  A
constant becomes its value, a variable a lookup in ``env``, and an
operator node calls its arguments' closures.  Errors are raised when the
closure runs, never when it is built: an unbound variable, parameter or
age, ``count()`` or ``merge_text()`` without an instance, an unknown
operator (after its arguments), and ``not an expression`` for anything
that is not a node.  ``and`` and ``or`` evaluate every argument, so an
error in any conjunct is raised.  ``count`` and ``merge_text`` resolve
their db patterns through ``compiled_pattern``.  The persistence layer
generates the code of its queries and actions itself, and the engine's
generated firing code calls ``eval_expr`` only for an inscription that is
not a variable, a constant, ``now()`` or a tuple of those.

Guards are also compiled, once per node and cached on it as ``_truth``,
into truth-set solvers.  ``guard_truth`` returns the set of integer
instants ``now`` at which a guard holds, under an otherwise fixed
environment, as sorted disjoint inclusive intervals ``(lo, hi)``; ``lo``
may be ``-inf`` and ``hi`` may be ``inf``.  A solver evaluates the
time-independent subterms (variables, constants, ``count``,
``merge_text`` and arithmetic over them) through their compiled closures,
once per query.  It reduces each time-dependent comparison to
``k*now + c <op> 0`` with integer ``k`` and ``c``, solves it with integer
floor division, and combines the results by interval intersection
(``and``), union (``or``) and complement (``not``).  A comparison of a
time-dependent truth value (``(age(m) < 10) = True``) is solved piece by
piece, the truth value being 1 on its truth set and 0 elsewhere, as in
Python.  No float is involved, so the answer is exact at every clock value.
``guard_flip_time`` is the first point of the truth set from a given time.
The engine asks every guard question through these two queries, so runs,
``fire`` and replay agree on where a guard holds.

``net.validate_net`` guarantees the shape the solver needs: ``now()`` and
``age()`` occur only under the ``TIME_OPERATORS`` and never inside a db
pattern; and its walk (``persistence.inscription_color``) gives every
node of a validated net a color, so that no closure meets a value of
another type.  On a node that no net validated, the shapes and values
are checked when a guard is solved, whether or not it holds at the clock:
a time-dependent truth value under ``+`` or ``-``, a time-dependent number
used as a truth value, and a time-independent operand of a time-dependent
comparison that is not an integer (a bool counts as 0 or 1) each raise
``EvalError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional


class DefinitionError(ValueError):
    """A net, query, or action is malformed."""


class EvalError(ValueError):
    """An expression could not be evaluated under the given environment."""


@dataclass(frozen=True)
class Const:
    value: object


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Param:
    """Placeholder in query/action templates, substituted from call args."""

    name: str


@dataclass(frozen=True)
class Wild:
    """Anonymous position in a match pattern."""


@dataclass(frozen=True)
class Now:
    pass


@dataclass(frozen=True)
class Age:
    var: str


@dataclass(frozen=True)
class Op:
    """n-ary operator node.  Comparison ops yield bools, ``tuple`` builds a
    tuple value, the rest are arithmetic/boolean."""

    op: str
    args: tuple


@dataclass(frozen=True)
class DbCount:
    relation: str
    terms: tuple


@dataclass(frozen=True)
class DbMergeText:
    relation: str
    terms: tuple
    order_col: int
    text_col: int
    sep: str = ""


Expr = object  # any of the node classes above

TRUE = Const(True)

_NODES = (Const, Var, Param, Wild, Now, Age, Op, DbCount, DbMergeText)

_CMP = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "min": min,
    "max": max,
}
# the operators an ``Op`` node may name
OPERATORS = frozenset({"and", "or", "not", "tuple", *_CMP, *_ARITH})
# the operators under which the truth solver takes now() and age()
TIME_OPERATORS = frozenset({"+", "-", "and", "or", "not", *_CMP})


def compiled(e):
    """The closure ``fn(env, instance, now, ages, args)`` that evaluates
    ``e``, compiled once per node and cached on it as ``_eval``.  Equal
    nodes share one closure, keyed by the node's type and fields (see
    ``_shape``), so nets built alike compile once.  Anything that is not
    a node compiles to a closure that raises ``EvalError``."""
    try:
        return e._eval
    except AttributeError:
        pass
    t = type(e)
    if t not in _NODES:
        return _compile(e)
    key = (t, *[_shape(getattr(e, f)) for f in t.__dataclass_fields__])
    try:
        fn = _SHARED.get(key)
    except TypeError:  # an unhashable constant: not shared
        key = fn = None
    if fn is None:
        fn = _compile(e)
        if key is not None:
            if len(_SHARED) >= 4096:
                _SHARED.clear()
            _SHARED[key] = fn
    object.__setattr__(e, "_eval", fn)
    return fn


def _shape(v):
    """A field's part of the key under which equal nodes share a closure:
    a node by its own shared closure (a node without fields, such as a
    wildcard, by its type), a tuple by its items' shapes, and any other
    value by itself beside its exact type, so that ``1`` and ``True``
    differ."""
    t = type(v)
    if t in _NODES:
        return compiled(v) if t.__dataclass_fields__ else (t,)
    if t is tuple:
        return (t, *map(_shape, v))
    return (t, v)


_SHARED: dict = {}  # node shape -> its compiled closure


def eval_expr(
    e,
    env: Mapping[str, object],
    *,
    instance=None,
    now: int = 0,
    ages: Mapping[str, int] | None = None,
    args: Mapping[str, object] | None = None,
):
    """``e`` evaluated at the instant ``now``: the call of its compiled
    closure (see the module docstring)."""
    try:
        fn = e._eval
    except AttributeError:
        fn = compiled(e)
    return fn(env, instance, now, ages, args)


def _fails(exc: type, message: str):
    def fail(env, inst, now, ages, args):
        raise exc(message)

    return fail


def _compile(e):
    t = type(e)
    if t is Const:
        value = e.value
        return lambda env, inst, now, ages, args: value
    if t is Var:
        name = e.name

        def var(env, inst, now, ages, args):
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None

        return var
    if t is Param:
        name = e.name

        def param(env, inst, now, ages, args):
            if args is None or name not in args:
                raise EvalError(f"unbound parameter {name!r}")
            return args[name]

        return param
    if t is Now:
        return lambda env, inst, now, ages, args: now
    if t is Age:
        var_name = e.var

        def age(env, inst, now, ages, args):
            if ages is None or var_name not in ages:
                raise _unbound_age(var_name)
            return now - ages[var_name]

        return age
    if t is DbCount or t is DbMergeText:
        return _compile_db(e)
    if t is Op:
        return _compile_op(e)
    return _fails(EvalError, f"not an expression: {e!r}")


def compiled_pattern(terms):
    """``fn(env, args)`` -> the tuple of ``terms`` resolved: a constant is
    its value and a wildcard None, both placed once, here; a variable or a
    parameter is evaluated, and any other term raises ``EvalError``."""
    terms = tuple(terms)
    base = [term.value if type(term) is Const else None for term in terms]
    slots = tuple((i, compiled(t) if type(t) in (Var, Param) else _fails(EvalError, f"not a pattern term: {t!r}"))
                  for i, t in enumerate(terms) if type(t) not in (Const, Wild))

    def pattern(env, args):
        out = base.copy()
        for i, get in slots:
            out[i] = get(env, None, 0, None, args)
        return tuple(out)

    return pattern


def _compile_db(e):
    relation, pattern = e.relation, compiled_pattern(e.terms)
    if type(e) is DbCount:

        def count(env, inst, now, ages, args):
            if inst is None:
                raise EvalError("count() needs a persistence instance")
            return inst.count_matching(relation, pattern(env, args))

        return count
    order, col, sep = operator.itemgetter(e.order_col), e.text_col, e.sep

    def merge_text(env, inst, now, ages, args):
        if inst is None:
            raise EvalError("merge_text() needs a persistence instance")
        rows = sorted(inst.match_values(relation, pattern(env, args)), key=order)
        return sep.join(str(vs[col]) for vs in rows)

    return merge_text


def _compile_op(e):
    """An operator node: every argument is evaluated, in order, before the
    operator applies (``not`` evaluates its first only), so an error in
    any argument is raised, and an unknown operator after them.  A ``-``
    of one operand negates it."""
    op, subs = e.op, tuple(compiled(a) for a in e.args)
    if op in ("and", "or"):
        fold = all if op == "and" else any
        return lambda env, inst, now, ages, args: fold([f(env, inst, now, ages, args) for f in subs])
    if op == "not":
        if not subs:
            return _fails(IndexError, "tuple index out of range")
        first = subs[0]
        return lambda env, inst, now, ages, args: not first(env, inst, now, ages, args)
    if op == "tuple":
        return lambda env, inst, now, ages, args: tuple([f(env, inst, now, ages, args) for f in subs])
    fn = _CMP.get(op) or _ARITH.get(op)
    if fn is None:

        def unknown(env, inst, now, ages, args):
            for f in subs:
                f(env, inst, now, ages, args)
            raise EvalError(f"unknown operator {op!r}")

        return unknown
    if op == "-" and len(subs) == 1:
        (a,) = subs
        return lambda env, inst, now, ages, args: -a(env, inst, now, ages, args)
    if len(subs) == 2:
        a, b = subs
        return lambda env, inst, now, ages, args: fn(a(env, inst, now, ages, args), b(env, inst, now, ages, args))
    compare = op in _CMP

    def apply(env, inst, now, ages, args):
        vals = [f(env, inst, now, ages, args) for f in subs]
        if compare:
            return fn(vals[0], vals[1])
        out = vals[0]
        for v in vals[1:]:
            out = fn(out, v)
        return out

    return apply


def _unbound_age(var: str) -> EvalError:
    return EvalError(f"age() of variable {var!r} not bound by a normal place")


def depends_on_time(e) -> bool:
    if isinstance(e, (Now, Age)):
        return True
    if isinstance(e, Op):
        return any(depends_on_time(a) for a in e.args)
    return False


# ---------------------------------------------------------------------------
# truth sets: sorted disjoint inclusive integer intervals over now

_LO = float("-inf")
_HI = float("inf")
ALWAYS = ((_LO, _HI),)
NEVER = ()


def _normalize(intervals) -> tuple:
    """Sort and coalesce overlapping or adjacent intervals."""
    out: list[list] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def intersect(a: tuple, b: tuple) -> tuple:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def _complement(a: tuple) -> tuple:
    out = []
    start = _LO
    for lo, hi in a:
        if lo > start:
            out.append((start, lo - 1))
        start = hi + 1
    if start < _HI:
        out.append((start, _HI))
    return tuple(out)


def first_true(truth: tuple, from_time: int) -> Optional[int]:
    """The first point of a truth set at or after ``from_time``, or None."""
    for lo, hi in truth:
        if hi >= from_time:
            return lo if lo > from_time else from_time
    return None


def window_starts(truth: tuple, lo: int, hi: int) -> tuple:
    """The instants c whose window [c+lo, c+hi] meets the truth set."""
    return _normalize((a - hi, b - lo) for a, b in truth)


# k*now + c <op> 0 for integer k and c.  Strict comparisons become the
# non-strict ones on c -/+ 1; a negative k mirrors the comparison.
def _ge(k: int, c: int) -> tuple:
    if k > 0:
        return ((-(c // k), _HI),)
    if k < 0:
        return _le(-k, -c)
    return ALWAYS if c >= 0 else NEVER


def _le(k: int, c: int) -> tuple:
    if k > 0:
        return ((_LO, (-c) // k),)
    if k < 0:
        return _ge(-k, -c)
    return ALWAYS if c <= 0 else NEVER


def _eq(k: int, c: int) -> tuple:
    if k == 0:
        return ALWAYS if c == 0 else NEVER
    q, r = divmod(-c, k)
    return ((q, q),) if r == 0 else NEVER


_SOLVE = {
    ">=": _ge,
    "<=": _le,
    ">": lambda k, c: _ge(k, c - 1),
    "<": lambda k, c: _le(k, c + 1),
    "=": _eq,
    "!=": lambda k, c: _complement(_eq(k, c)),
}


_TRUTH_OPS = {"and", "or", "not"} | set(_CMP)


def _time_int(v) -> int:
    """A time-independent operand of a time-dependent comparison; a bool
    counts as 0 or 1, as it does in Python arithmetic."""
    if not isinstance(v, int):
        raise EvalError("time-affine expression must be integer valued")
    return int(v)


def _terms(e) -> tuple:
    """The operands of a ``+`` or ``-`` node, where a ``-`` of one operand
    is 0 minus it."""
    return (Const(0), *e.args) if e.op == "-" and len(e.args) == 1 else e.args


def _linear(e):
    """Closure (env, instance, ages, args) -> (k, c) with e == k*now + c,
    for an operand that is not a time-dependent truth value."""
    t = type(e)
    if t is Now:
        return lambda env, inst, ages, args: (1, 0)
    if t is Age:
        var = e.var

        def age(env, inst, ages, args):
            if ages is None or var not in ages:
                raise _unbound_age(var)
            return (1, -ages[var])

        return age
    if not depends_on_time(e):
        if t is Const and isinstance(e.value, int):
            form = (0, int(e.value))
            return lambda env, inst, ages, args: form
        value = compiled(e)
        return lambda env, inst, ages, args: (0, _time_int(value(env, inst, 0, ages, args)))
    if t is Op and e.op in ("+", "-"):
        bad = next((a for a in e.args if _stepped(a)), None)
        if bad is not None:
            raise EvalError(f"{e.op!r} takes numbers, not the time-dependent truth value {bad!r}")
        subs = tuple(_linear(a) for a in _terms(e))
        sign = 1 if e.op == "+" else -1

        def chain(env, inst, ages, args):
            k, c = subs[0](env, inst, ages, args)
            for sub in subs[1:]:
                k2, c2 = sub(env, inst, ages, args)
                k, c = k + sign * k2, c + sign * c2
            return (k, c)

        return chain
    raise EvalError(f"now()/age() cannot be solved under {e.op!r}")


def _stepped(e) -> bool:
    """Whether an operand is a time-dependent truth value, so that it is a
    step function of now rather than an affine one."""
    return type(e) is Op and e.op in _TRUTH_OPS and depends_on_time(e)


def _pieces(e):
    """Closure (env, instance, ages, args) -> ((set, k, c), ...) with
    e == k*now + c on each set; the sets partition the integers.  A truth
    value is 1 on its truth set and 0 elsewhere, as in Python arithmetic."""
    if not _stepped(e):
        form = _linear(e)
        return lambda env, inst, ages, args: ((ALWAYS, *form(env, inst, ages, args)),)
    truth = _truth(e)

    def split(env, inst, ages, args):
        s = truth(env, inst, ages, args)
        return ((s, 0, 1), (_complement(s), 0, 0))

    return split


def _compile_truth(e, under):
    if not depends_on_time(e):
        value = compiled(e)
        return lambda env, inst, ages, args: ALWAYS if value(env, inst, 0, ages, args) else NEVER
    op = e.op if type(e) is Op else None
    if op in ("and", "or"):
        subs = tuple(_truth(a, repr(op)) for a in e.args)
        if op == "and":

            def conj(env, inst, ages, args):
                out = ALWAYS
                for s in [sub(env, inst, ages, args) for sub in subs]:
                    out = intersect(out, s)
                return out

            return conj
        return lambda env, inst, ages, args: _normalize(
            iv for s in [sub(env, inst, ages, args) for sub in subs] for iv in s
        )
    if op == "not":
        sub = _truth(e.args[0], repr(op))
        return lambda env, inst, ages, args: _complement(sub(env, inst, ages, args))
    if op in _CMP:
        solve = _SOLVE[op]
        a, b = e.args[0], e.args[1]
        if not (_stepped(a) or _stepped(b)):
            lhs, rhs = _linear(a), _linear(b)

            def compare(env, inst, ages, args):
                ka, ca = lhs(env, inst, ages, args)
                kb, cb = rhs(env, inst, ages, args)
                return solve(ka - kb, ca - cb)

            return compare
        lhs, rhs = _pieces(a), _pieces(b)

        def compare_pieces(env, inst, ages, args):
            pa, pb = lhs(env, inst, ages, args), rhs(env, inst, ages, args)
            return _normalize(
                iv
                for sa, ka, ca in pa
                for sb, kb, cb in pb
                for iv in intersect(intersect(sa, sb), solve(ka - kb, ca - cb))
            )

        return compare_pieces
    raise EvalError(f"{under} takes truth values, not the time-dependent number {e!r}")


def _truth(e, under="a guard"):
    """``e``'s truth-set solver, cached on the node; ``under`` names what takes it."""
    fn = getattr(e, "_truth", None)
    if fn is None:
        fn = _compile_truth(e, under)
        if type(e) in _NODES:
            object.__setattr__(e, "_truth", fn)
    return fn


def relations_read(e) -> tuple[str, ...]:
    """The relations an expression reads through ``count`` and
    ``merge_text``, sorted; found once per node and cached on it."""
    rels = getattr(e, "_reads", None)
    if rels is None:
        t = type(e)
        if t is DbCount or t is DbMergeText:
            rels = (e.relation,)
        elif t is Op:
            rels = tuple(sorted({r for a in e.args for r in relations_read(a)}))
        else:
            rels = ()
        if t in _NODES:
            object.__setattr__(e, "_reads", rels)
    return rels


def guard_truth(
    guard,
    env: Mapping[str, object],
    *,
    instance=None,
    ages: Mapping[str, int] | None = None,
    args: Mapping[str, object] | None = None,
) -> tuple:
    """The guard's truth set over integer now (see the module docstring)."""
    return _truth(guard)(env, instance, ages, args)


def guard_flip_time(
    guard,
    env: Mapping[str, object],
    *,
    instance=None,
    ages: Mapping[str, int] | None = None,
    args: Mapping[str, object] | None = None,
    from_time: int = 0,
) -> Optional[int]:
    """Earliest integer u >= from_time at which the guard evaluates true,
    or None if it never will (under an otherwise unchanged snapshot): the
    first point of ``guard_truth`` from ``from_time``."""
    return first_true(_truth(guard)(env, instance, ages, args), from_time)


def match_pattern(pattern, value, env: Mapping[str, object]) -> Optional[dict]:
    """Match an input-arc pattern against a token value.

    A pattern is a single term or a tuple of terms (Var binds, Const must be
    equal, Wild matches anything).  Returns the extended environment or None.
    """
    if isinstance(pattern, tuple):
        if not isinstance(value, tuple) or len(value) != len(pattern):
            return None
        new = dict(env)
        for t, v in zip(pattern, value):
            if not _match_term(t, v, new):
                return None
        return new
    new = dict(env)
    return new if _match_term(pattern, value, new) else None


def _match_term(term, v, env: dict) -> bool:
    t = type(term)
    if t is Var:
        prior = env.setdefault(term.name, v)
        return prior is v or prior == v
    if t is Wild:
        return True
    if t is Const:
        return term.value == v
    raise DefinitionError(f"input patterns allow Var/Const/Wild only, got {term!r}")


def pattern_vars(pattern) -> list[str]:
    terms: Iterable = pattern if isinstance(pattern, tuple) else (pattern,)
    return [t.name for t in terms if isinstance(t, Var)]
