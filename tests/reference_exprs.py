"""The expression interpreter as it was before expressions were compiled:
the differential oracle for ``tdbnet.exprs``.

Frozen copies of ``eval_expr``, which walked the expression tree on every
call, and of ``resolve_term``, which resolved pattern and template terms,
with the operator tables and ``_unbound_age`` they used.  Only the node
classes and ``EvalError`` are shared with the package, so the compiled
closures are checked against code they do not share.
"""

from __future__ import annotations

import operator
from typing import Mapping

from tdbnet.exprs import Age, Const, DbCount, DbMergeText, EvalError, Now, Op, Param, Var, Wild

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
        if e.op == "-" and len(vals) == 1:
            return -vals[0]
        if e.op in _ARITH:
            out = vals[0]
            for v in vals[1:]:
                out = _ARITH[e.op](out, v)
            return out
        raise EvalError(f"unknown operator {e.op!r}")
    raise EvalError(f"not an expression: {e!r}")


def _unbound_age(var: str) -> EvalError:
    return EvalError(f"age() of variable {var!r} not bound by a normal place")
