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

``eval_expr`` evaluates an expression at one instant.  ``and`` and ``or``
evaluate every argument, so an error in any conjunct is raised.

Guards are also compiled, once per node and cached on it, into truth-set
solvers.  ``guard_truth`` returns the set of integer instants ``now`` at
which a guard holds, under an otherwise fixed environment, as sorted
disjoint inclusive intervals ``(lo, hi)``; ``lo`` may be ``-inf`` and
``hi`` may be ``inf``.  A solver evaluates the time-independent subterms
(variables, constants, ``count``, ``merge_text`` and arithmetic over them)
with ``eval_expr``, once per query.  It reduces each time-dependent
comparison to ``k*now + c <op> 0`` with integer ``k`` and ``c``, solves it
with integer floor division, and combines the results by interval
intersection (``and``), union (``or``) and complement (``not``).  A
time-dependent truth value used as a number (``(age(m) < 10) = True``)
is 1 on its truth set and 0 elsewhere, as in Python, so such a comparison
is solved piece by piece.  No float is involved, so the answer is exact at
every clock value.  ``guard_flip_time`` is the first point of the truth
set from a given time.  The engine asks every guard question through these
two queries, so runs, ``fire`` and replay agree on where a guard holds.

``validate_time_usage`` guarantees the shape the solver needs: ``now()``
and ``age()`` occur only under ``+``, ``-``, comparisons, ``and``, ``or``
and ``not``, and never inside a db pattern.  The values are checked when a
guard is solved: a time-independent operand of a time-dependent
comparison must be an integer (a bool counts as 0 or 1), or the solver
raises ``EvalError``, whether or not the guard holds at the clock.
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


def resolve_term(term, env: Mapping[str, object], args: Mapping[str, object] | None = None):
    """Resolve a pattern term to a concrete value, or None for a wildcard."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        if term.name not in env:
            raise EvalError(f"unbound variable {term.name!r}")
        return env[term.name]
    if isinstance(term, Param):
        if args is None or term.name not in args:
            raise EvalError(f"unbound parameter {term.name!r}")
        return args[term.name]
    if isinstance(term, Wild):
        return None
    raise EvalError(f"not a pattern term: {term!r}")


def eval_expr(
    e,
    env: Mapping[str, object],
    *,
    instance=None,
    now: int = 0,
    ages: Mapping[str, int] | None = None,
    args: Mapping[str, object] | None = None,
):
    t = type(e)
    if t is Const:
        return e.value
    if t is Var:
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if t is Param:
        if args is None or e.name not in args:
            raise EvalError(f"unbound parameter {e.name!r}")
        return args[e.name]
    if t is Now:
        return now
    if t is Age:
        if ages is None or e.var not in ages:
            raise _unbound_age(e.var)
        return now - ages[e.var]
    if t is DbCount:
        if instance is None:
            raise EvalError("count() needs a persistence instance")
        return instance.count_matching(e.relation, tuple(resolve_term(term, env, args) for term in e.terms))
    if t is DbMergeText:
        if instance is None:
            raise EvalError("merge_text() needs a persistence instance")
        rows = instance.match_values(e.relation, tuple(resolve_term(term, env, args) for term in e.terms))
        rows = sorted(rows, key=operator.itemgetter(e.order_col))
        return e.sep.join(str(vs[e.text_col]) for vs in rows)
    if t is Op:
        if e.op in ("and", "or"):
            vals = [eval_expr(a, env, instance=instance, now=now, ages=ages, args=args) for a in e.args]
            return all(vals) if e.op == "and" else any(vals)
        if e.op == "not":
            return not eval_expr(e.args[0], env, instance=instance, now=now, ages=ages, args=args)
        if e.op == "tuple":
            return tuple(eval_expr(a, env, instance=instance, now=now, ages=ages, args=args) for a in e.args)
        vals = [eval_expr(a, env, instance=instance, now=now, ages=ages, args=args) for a in e.args]
        if e.op in _CMP:
            return _CMP[e.op](vals[0], vals[1])
        if e.op in _ARITH:
            out = vals[0]
            for v in vals[1:]:
                out = _ARITH[e.op](out, v)
            return out
        raise EvalError(f"unknown operator {e.op!r}")
    raise EvalError(f"not an expression: {e!r}")


def _unbound_age(var: str) -> EvalError:
    return EvalError(f"age() of variable {var!r} not bound by a normal place")


def variables(e) -> set[str]:
    """All Var names appearing in an expression (Age vars included)."""
    out: set[str] = set()
    _walk_vars(e, out)
    return out


def _walk_vars(e, out: set[str]) -> None:
    if isinstance(e, Var):
        out.add(e.name)
    elif isinstance(e, Age):
        out.add(e.var)
    elif isinstance(e, Op):
        for a in e.args:
            _walk_vars(a, out)
    elif isinstance(e, (DbCount, DbMergeText)):
        for t in e.terms:
            _walk_vars(t, out)


def depends_on_time(e) -> bool:
    if isinstance(e, (Now, Age)):
        return True
    if isinstance(e, Op):
        return any(depends_on_time(a) for a in e.args)
    return False


_TIME_SAFE_OPS = {"+", "-", "and", "or", "not"} | set(_CMP)


def validate_time_usage(e, where: str) -> None:
    """Reject now()/age() under operators that would make flip-time solving
    inexact (multiplication, min/max, tuple building, count patterns)."""
    if isinstance(e, Op):
        if depends_on_time(e) and e.op not in _TIME_SAFE_OPS:
            raise DefinitionError(f"{where}: now()/age() not allowed under {e.op!r}")
        for a in e.args:
            validate_time_usage(a, where)
    elif isinstance(e, (DbCount, DbMergeText)):
        for t in e.terms:
            if depends_on_time(t):
                raise DefinitionError(f"{where}: now()/age() not allowed inside db patterns")


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


def _linear(e):
    """Closure (env, instance, ages, args) -> (k, c) with e == k*now + c,
    for an operand with no time-dependent truth value inside."""
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
        return lambda env, inst, ages, args: (
            0,
            _time_int(eval_expr(e, env, instance=inst, ages=ages, args=args)),
        )
    if t is Op and e.op in ("+", "-"):
        subs = tuple(_linear(a) for a in e.args)
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
    """Whether a time-dependent operand has a truth value inside, so that
    it is a step function of now rather than an affine one."""
    if type(e) is not Op or not depends_on_time(e):
        return False
    return e.op in _TRUTH_OPS or (e.op in ("+", "-") and any(_stepped(a) for a in e.args))


def _pieces(e):
    """Closure (env, instance, ages, args) -> ((set, k, c), ...) with
    e == k*now + c on each set; the sets partition the integers.  A truth
    value is 1 on its truth set and 0 elsewhere, as in Python arithmetic."""
    if not _stepped(e):
        form = _linear(e)
        return lambda env, inst, ages, args: ((ALWAYS, *form(env, inst, ages, args)),)
    if e.op in _TRUTH_OPS:
        truth = _truth(e)

        def split(env, inst, ages, args):
            s = truth(env, inst, ages, args)
            return ((s, 0, 1), (_complement(s), 0, 0))

        return split
    subs = tuple(_pieces(a) for a in e.args)
    sign = 1 if e.op == "+" else -1

    def combine(env, inst, ages, args):
        out = subs[0](env, inst, ages, args)
        for sub in subs[1:]:
            rhs = sub(env, inst, ages, args)
            out = tuple(
                (s, k + sign * k2, c + sign * c2)
                for s1, k, c in out
                for s2, k2, c2 in rhs
                for s in (intersect(s1, s2),)
                if s
            )
        return out

    return combine


def _compile_truth(e):
    if not depends_on_time(e):
        return lambda env, inst, ages, args: (
            ALWAYS if eval_expr(e, env, instance=inst, ages=ages, args=args) else NEVER
        )
    op = e.op if type(e) is Op else None
    if op in ("and", "or"):
        subs = tuple(_truth(a) for a in e.args)
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
        sub = _truth(e.args[0])
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
    # a time-dependent number used as a truth value: true where it is nonzero
    value = _pieces(e)
    return lambda env, inst, ages, args: _normalize(
        iv for s, k, c in value(env, inst, ages, args) for iv in intersect(s, _SOLVE["!="](k, c))
    )


def _truth(e):
    fn = getattr(e, "_truth", None)
    if fn is None:
        fn = _compile_truth(e)
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
