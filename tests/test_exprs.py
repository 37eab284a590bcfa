"""Expression evaluation, pattern matching, and guard flip-time solving.

The compiled evaluator is checked against the frozen interpreter in
``reference_exprs``, and the truth solver against point evaluation by that
interpreter, so neither is checked against code it shares.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

import reference_exprs as frozen

from tdbnet.exprs import (
    Age,
    Const,
    DbCount,
    DbMergeText,
    DefinitionError,
    EvalError,
    Now,
    Op,
    Param,
    Var,
    Wild,
    depends_on_time,
    eval_expr,
    guard_flip_time,
    guard_truth,
    match_pattern,
    pattern_vars,
)
from tdbnet.persistence import Column, Instance, Relation, Schema, Scope, inscription_color
from tdbnet.values import INT, TEXT


def test_eval_basics():
    env = {"x": 4, "y": 10}
    assert eval_expr(Const(7), {}) == 7
    assert eval_expr(Var("x"), env) == 4
    assert eval_expr(Op("+", (Var("x"), Var("y"), Const(1))), env) == 15
    assert eval_expr(Op("-", (Var("y"), Var("x"))), env) == 6
    assert eval_expr(Op("*", (Var("x"), Const(3))), env) == 12
    assert eval_expr(Op("min", (Var("x"), Var("y"))), env) == 4
    assert eval_expr(Op("max", (Var("x"), Var("y"))), env) == 10


def test_eval_comparisons_and_logic():
    env = {"x": 4}
    assert eval_expr(Op("<", (Var("x"), Const(5))), env) is True
    assert eval_expr(Op(">=", (Var("x"), Const(5))), env) is False
    assert eval_expr(Op("!=", (Var("x"), Const(4))), env) is False
    assert eval_expr(Op("and", (Const(True), Op("=", (Var("x"), Const(4))))), env)
    assert eval_expr(Op("or", (Const(False), Const(True))), {})
    assert eval_expr(Op("not", (Const(False),)), {}) is True


def test_eval_tuple_builder():
    assert eval_expr(Op("tuple", (Const(1), Var("b"))), {"b": "x"}) == (1, "x")


def test_unbound_variable_raises():
    with pytest.raises(EvalError):
        eval_expr(Var("missing"), {})


def test_param_resolution():
    assert eval_expr(Param("p"), {}, args={"p": 9}) == 9
    with pytest.raises(EvalError):
        eval_expr(Param("p"), {})


def test_now_and_age():
    assert eval_expr(Now(), {}, now=130) == 130
    assert eval_expr(Age("m"), {}, now=300, ages={"m": 100}) == 200
    with pytest.raises(EvalError):
        eval_expr(Age("m"), {}, now=300)


def _instance():
    rel = Relation(
        "msgs", (Column("seq", INT), Column("ord", INT), Column("body", TEXT)), ("seq", "ord")
    )
    return Instance(
        Schema((rel,)),
        {"msgs": [((1, 2, "b"), 0), ((1, 1, "a"), 0), ((2, 1, "z"), 0)]},
    )


def test_db_count():
    inst = _instance()
    e = DbCount("msgs", (Var("s"), Wild(), Wild()))
    assert eval_expr(e, {"s": 1}, instance=inst) == 2
    assert eval_expr(e, {"s": 2}, instance=inst) == 1
    assert eval_expr(e, {"s": 3}, instance=inst) == 0
    with pytest.raises(EvalError):
        eval_expr(e, {"s": 1})  # no instance supplied


def test_db_merge_text_orders_by_ordinal():
    inst = _instance()
    e = DbMergeText("msgs", (Var("s"), Wild(), Wild()), order_col=1, text_col=2)
    assert eval_expr(e, {"s": 1}, instance=inst) == "ab"
    assert eval_expr(e, {"s": 2}, instance=inst) == "z"
    sep = DbMergeText("msgs", (Var("s"), Wild(), Wild()), order_col=1, text_col=2, sep="|")
    assert eval_expr(sep, {"s": 1}, instance=inst) == "a|b"


class TestMatchPattern:
    def test_tuple_pattern_binds(self):
        env = match_pattern((Var("a"), Var("b")), (1, "x"), {})
        assert env == {"a": 1, "b": "x"}

    def test_repeated_variable_must_agree(self):
        assert match_pattern((Var("a"), Var("a")), (1, 1), {}) == {"a": 1}
        assert match_pattern((Var("a"), Var("a")), (1, 2), {}) is None

    def test_prior_binding_respected(self):
        assert match_pattern(Var("a"), 5, {"a": 5}) == {"a": 5}
        assert match_pattern(Var("a"), 6, {"a": 5}) is None

    def test_const_and_wild(self):
        assert match_pattern((Const(1), Wild()), (1, "anything"), {}) == {}
        assert match_pattern((Const(1), Wild()), (2, "anything"), {}) is None

    def test_arity_mismatch(self):
        assert match_pattern((Var("a"), Var("b")), (1,), {}) is None
        assert match_pattern((Var("a"),), 1, {}) is None

    def test_pattern_vars(self):
        assert pattern_vars((Var("a"), Const(1), Wild(), Var("b"))) == ["a", "b"]
        assert pattern_vars(Var("x")) == ["x"]


class TestGuardFlipTime:
    """Earliest clock value at which a currently false guard turns true."""

    def test_age_threshold_from_zero(self):
        g = Op(">=", (Age("m"), Const(250)))
        assert guard_flip_time(g, {}, ages={"m": 0}, from_time=0) == 250

    def test_age_threshold_anchored_at_token_birth(self):
        g = Op(">=", (Age("m"), Const(250)))
        assert guard_flip_time(g, {}, ages={"m": 100}, from_time=0) == 350

    def test_now_threshold(self):
        g = Op(">=", (Now(), Const(130)))
        assert guard_flip_time(g, {}, from_time=0) == 130

    def test_never_true(self):
        assert guard_flip_time(Const(False), {}, from_time=0) is None

    def test_already_true_returns_from_time(self):
        g = Op(">=", (Now(), Const(10)))
        assert guard_flip_time(g, {}, from_time=50) == 50

    def test_conjunction_takes_later_flip(self):
        g = Op("and", (Op(">=", (Now(), Const(30))), Op(">=", (Age("m"), Const(100)))))
        assert guard_flip_time(g, {}, ages={"m": 0}, from_time=0) == 100

    def test_strictly_greater_flips_one_later(self):
        g = Op(">", (Now(), Const(130)))
        assert guard_flip_time(g, {}, from_time=0) == 131


def test_depends_on_time():
    assert depends_on_time(Now())
    assert depends_on_time(Op("+", (Const(1), Age("m"))))
    assert not depends_on_time(Op(">", (Var("x"), Const(5))))


def test_and_or_raise_errors_of_every_argument():
    with pytest.raises(EvalError, match="unbound variable 'missing'"):
        eval_expr(Op("and", (Const(False), Op(">", (Var("missing"), Const(1))))), {})
    with pytest.raises(EvalError, match="unbound variable 'missing'"):
        eval_expr(Op("or", (Const(True), Var("missing"))), {})
    with pytest.raises(EvalError, match="unbound variable 'missing'"):
        guard_flip_time(Op("and", (Const(False), Var("missing"))), {}, from_time=0)
    # the same when the guard depends on time and is solved as a truth set
    never = Op("<", (Now(), Now()))
    with pytest.raises(EvalError, match="unbound variable 'missing'"):
        guard_flip_time(Op("and", (never, Op(">=", (Now(), Var("missing"))))), {}, from_time=0)


def test_eval_reports_bad_nodes():
    with pytest.raises(EvalError, match="unknown operator 'pow'"):
        eval_expr(Op("pow", (Const(2), Const(3))), {})
    with pytest.raises(EvalError, match="not an expression: Wild()"):
        eval_expr(Wild(), {})
    with pytest.raises(EvalError, match="not an expression: 5"):
        eval_expr(5, {})
    with pytest.raises(EvalError, match="unbound variable 'x'"):
        eval_expr(Op("pow", (Var("x"), Const(3))), {})


def test_truth_solver_is_cached_on_the_node():
    g = Op(">=", (Age("m"), Const(250)))
    assert guard_flip_time(g, {}, ages={"m": 0}, from_time=0) == 250
    fn = g._truth
    assert guard_flip_time(g, {}, ages={"m": 10}, from_time=0) == 260 and g._truth is fn
    # the cache is not part of the node's value
    assert g == Op(">=", (Age("m"), Const(250))) and "_truth" not in repr(g)


# ---------------------------------------------------------------------------
# truth sets


INF = float("inf")


def _exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def _assert_rejected(guard, match):
    """The solver raises an EvalError that ``match``es on a guard of a
    shape it does not solve, and the typed walk that validates a net
    rejects that guard."""
    with pytest.raises(EvalError, match=match):
        guard_truth(guard, {}, ages=dict.fromkeys(_AGE_VARS, 0))
    scope = Scope(Schema(()), "transition 't'", "guard", dict.fromkeys(_AGE_VARS, INT), "input arc", set(_AGE_VARS), None, "guard")
    with pytest.raises(DefinitionError):
        inscription_color(guard, scope)


def test_truth_sets_of_comparisons_and_connectives():
    ge = Op(">=", (Age("m"), Const(250)))
    assert guard_truth(ge, {}, ages={"m": 100}) == ((350, INF),)
    lt = Op("<", (Now(), Const(10)))
    assert guard_truth(lt, {}) == ((-INF, 9),)
    eq = Op("=", (Op("+", (Now(), Now())), Const(7)))
    assert guard_truth(eq, {}) == ()  # 2*now = 7 has no integer solution
    ne = Op("!=", (Op("+", (Now(), Now())), Const(8)))
    assert guard_truth(ne, {}) == ((-INF, 3), (5, INF))
    both = Op("and", (Op(">=", (Now(), Const(5))), lt))
    assert guard_truth(both, {}) == ((5, 9),)
    either = Op("or", (Op(">=", (Now(), Const(11))), lt))
    assert guard_truth(either, {}) == ((-INF, 9), (11, INF))
    adjacent = Op("or", (Op(">=", (Now(), Const(10))), lt))
    assert guard_truth(adjacent, {}) == ((-INF, INF),)
    assert guard_truth(Op("not", (both,)), {}) == ((-INF, 4), (10, INF))
    # negative coefficients mirror the comparison
    assert guard_truth(Op(">", (Const(3), Op("-", (Const(0), Now())))), {}) == ((-2, INF),)


def test_time_independent_guards_are_always_or_never():
    assert guard_truth(Op(">", (Var("x"), Const(5))), {"x": 6}) == ((-INF, INF),)
    assert guard_truth(Op(">", (Var("x"), Const(5))), {"x": 5}) == ()
    assert guard_flip_time(Op(">", (Var("x"), Const(5))), {"x": 5}, from_time=3) is None


def test_non_integer_affine_operand():
    g = Op(">=", (Now(), Var("a")))
    # raised whether or not the guard holds at from_time, by every query
    for a in (2.5, "x", None):
        for from_time in (0, 3):
            with pytest.raises(EvalError, match="integer valued"):
                guard_flip_time(g, {"a": a}, from_time=from_time)
        with pytest.raises(EvalError, match="integer valued"):
            guard_truth(g, {"a": a})
    # a bool is the integer 0 or 1, as in Python arithmetic
    assert guard_truth(g, {"a": True}) == ((1, INF),)
    # but a time-dependent number is no truth value
    number = Op("+", (Now(), Const(False)))
    _assert_rejected(number, _exactly(f"a guard takes truth values, not the time-dependent number {number!r}"))


def test_time_dependent_truth_values_as_operands():
    fresh = Op("<", (Age("m"), Const(10)))
    ages = {"m": 0}
    assert guard_truth(Op("=", (fresh, Const(True))), {}, ages=ages) == ((-INF, 9),)
    assert guard_truth(Op("!=", (fresh, Const(True))), {}, ages=ages) == ((10, INF),)
    assert guard_truth(Op("=", (fresh, Const(1))), {}, ages=ages) == ((-INF, 9),)
    assert guard_truth(Op("=", (fresh, Const(2))), {}, ages=ages) == ()
    late = Op(">=", (Now(), Const(5)))
    # equality of two truth values: both true or both false
    assert guard_truth(Op("=", (fresh, late)), {}, ages=ages) == ((5, 9),)
    assert guard_truth(Op("<", (fresh, late)), {}, ages=ages) == ((10, INF),)
    # a truth value is no operand of + or -, and a number no truth value
    stepped = Op(">=", (Op("+", (late, Now())), Const(7)))
    _assert_rejected(stepped, _exactly(f"'+' takes numbers, not the time-dependent truth value {late!r}"))
    number = Op("-", (Now(), late))
    _assert_rejected(Op("and", (number,)), _exactly(f"'and' takes truth values, not the time-dependent number {number!r}"))
    _assert_rejected(Op("not", (Now(),)), _exactly("'not' takes truth values, not the time-dependent number Now()"))
    with pytest.raises(EvalError, match="integer valued"):
        guard_truth(Op("=", (fresh, Const("yes"))), {}, ages=ages)


def _neg(e):
    return Op("-", (e,))


# One-operand minus, computed by hand; the compiled evaluator, the frozen
# interpreter and the truth solver each must give these values.
@pytest.mark.parametrize(
    "e,now,ages,value",
    [
        (_neg(Const(3)), 0, None, -3),
        (_neg(Now()), 7, None, -7),
        (_neg(Age("m")), 12, {"m": 10}, -2),  # age 2
        (_neg(_neg(Const(3))), 0, None, 3),
    ],
)
def test_unary_minus_negates(e, now, ages, value):
    assert eval_expr(e, {}, now=now, ages=ages) == value
    assert frozen.eval_expr(e, {}, now=now, ages=ages) == value


@pytest.mark.parametrize(
    "guard,ages,truth",
    [
        # -now >= 5 while now <= -5
        (Op(">=", (_neg(Now()), Const(5))), None, ((-INF, -5),)),
        # -(now - 10) >= -5 while now <= 15
        (Op(">=", (_neg(Age("m")), Const(-5))), {"m": 10}, ((-INF, 15),)),
        # -3 >= now while now <= -3
        (Op(">=", (_neg(Const(3)), Now())), None, ((-INF, -3),)),
        # -(now + (now >= 3)) >= -5: a truth value under +, not solved
        (
            Op(">=", (_neg(Op("+", (Now(), Op(">=", (Now(), Const(3)))))), Const(-5))),
            None,
            EvalError(f"'+' takes numbers, not the time-dependent truth value {Op('>=', (Now(), Const(3)))!r}"),
        ),
    ],
)
def test_unary_minus_negates_in_truth_sets(guard, ages, truth):
    if isinstance(truth, EvalError):
        _assert_rejected(guard, _exactly(str(truth)))
    else:
        assert guard_truth(guard, {}, ages=ages) == truth


def test_unsolvable_time_dependence_raises():
    with pytest.raises(EvalError, match="cannot be solved under '\\*'"):
        guard_truth(Op(">=", (Op("*", (Now(), Const(2))), Const(7))), {})


# Known bug C: the float breakpoints of the reference solver lose the flip
# time when the clock is large.
BIG = 2**60


def test_flip_time_exact_at_large_clock():
    g = Op(">=", (Now(), Op("+", (Var("m"), Const(3)))))
    assert guard_flip_time(g, {"m": BIG}, from_time=BIG) == BIG + 3
    assert reference_guard_flip_time(g, {"m": BIG}, from_time=BIG) is None


def test_aggregator_timeout_exact_at_large_clock():
    expired = Op(">=", (Op("-", (Now(), Var("cr"))), Const(100)))
    assert guard_flip_time(expired, {"cr": BIG}, from_time=BIG) == BIG + 100
    fresh = Op("<", (Op("-", (Now(), Var("cr"))), Const(100)))
    assert guard_truth(fresh, {"cr": BIG}) == ((-INF, BIG + 99),)


# The float-breakpoint solver that compiled truth sets replaced, kept as a
# differential oracle.  It is exact while -dc/dk is representable.


def _reference_affine(e, env, instance, ages, args):
    if isinstance(e, Now):
        return (1, 0)
    if isinstance(e, Age):
        if ages is None or e.var not in ages:
            raise EvalError(f"age() of variable {e.var!r} not bound by a normal place")
        return (1, -ages[e.var])
    if isinstance(e, Op) and e.op in ("+", "-") and depends_on_time(e):
        k, c = _reference_affine(e.args[0], env, instance, ages, args)
        for a in e.args[1:]:
            k2, c2 = _reference_affine(a, env, instance, ages, args)
            if e.op == "+":
                k, c = k + k2, c + c2
            else:
                k, c = k - k2, c - c2
        return (k, c)
    v = frozen.eval_expr(e, env, instance=instance, now=0, ages=ages, args=args)
    if not isinstance(v, int) or isinstance(v, bool):
        raise EvalError("time-affine expression must be integer valued")
    return (0, v)


def _reference_breakpoints(e, env, instance, ages, args, out):
    if isinstance(e, Op):
        if e.op in ("=", "!=", "<", "<=", ">", ">=") and depends_on_time(e):
            ka, ca = _reference_affine(e.args[0], env, instance, ages, args)
            kb, cb = _reference_affine(e.args[1], env, instance, ages, args)
            dk, dc = ka - kb, ca - cb
            if dk != 0:
                q = -dc / dk
                base = int(q // 1)
                out.update((base - 1, base, base + 1, base + 2))
        else:
            for a in e.args:
                _reference_breakpoints(a, env, instance, ages, args, out)


def reference_guard_flip_time(guard, env, *, instance=None, ages=None, args=None, from_time=0):
    def truth(u):
        return bool(frozen.eval_expr(guard, env, instance=instance, now=u, ages=ages, args=args))

    if truth(from_time):
        return from_time
    pts = set()
    _reference_breakpoints(guard, env, instance, ages, args, pts)
    for u in sorted(p for p in pts if p > from_time):
        if truth(u):
            return u
    return None


_CMPS = ("=", "!=", "<", "<=", ">", ">=")
_AGE_VARS = ("m", "n")


def _guards(consts, nested=None):
    """Guards over now, age, +/-, the six comparisons and and/or/not.  With
    ``nested``, comparison operands may also be such guards, or bools."""
    leaf = st.one_of(
        st.just(Now()), st.sampled_from([Age(v) for v in _AGE_VARS]), consts.map(Const)
    )
    if nested is not None:
        leaf = st.one_of(leaf, st.booleans().map(Const), nested)
    term = st.recursive(
        leaf,
        lambda sub: st.builds(
            lambda op, args: Op(op, tuple(args)),
            st.sampled_from(["+", "-"]),
            st.lists(sub, min_size=2, max_size=3),
        ),
        max_leaves=4,
    )
    cmp = st.builds(lambda op, a, b: Op(op, (a, b)), st.sampled_from(_CMPS), term, term)
    return st.recursive(
        cmp,
        lambda sub: st.one_of(
            st.builds(
                lambda op, args: Op(op, tuple(args)),
                st.sampled_from(["and", "or"]),
                st.lists(sub, min_size=2, max_size=3),
            ),
            sub.map(lambda g: Op("not", (g,))),
        ),
        max_leaves=4,
    )


def _problems(bound, nested=False):
    consts = st.integers(-bound, bound)
    guards = _guards(consts, _guards(consts) if nested else None)
    return st.tuples(guards, st.fixed_dictionaries({v: consts for v in _AGE_VARS}), consts)


def _magnitude(e, ages) -> int:
    """Sum of |constant| and |birth time| over the leaves, plus one per
    operator for the 0 or 1 of a nested truth value: beyond it, every
    comparison of the guard has a fixed truth value."""
    if isinstance(e, Const):
        return abs(e.value)
    if isinstance(e, Age):
        return abs(ages[e.var])
    if isinstance(e, Op):
        return 1 + sum(_magnitude(a, ages) for a in e.args)
    return 0


def _holds(g, ages, u) -> bool:
    return bool(frozen.eval_expr(g, {}, now=u, ages=ages))


@settings(max_examples=200, deadline=None)
@given(_problems(40))
def test_solver_agrees_with_reference_and_brute_force(problem):
    g, ages, from_time = problem
    got = guard_flip_time(g, {}, ages=ages, from_time=from_time)
    assert got == reference_guard_flip_time(g, {}, ages=ages, from_time=from_time)
    last = max(from_time, _magnitude(g, ages) + 1)
    brute = next((u for u in range(from_time, last + 1) if _holds(g, ages, u)), None)
    assert got == brute


@settings(max_examples=200, deadline=None)
@given(_problems(2**40))
def test_solver_agrees_with_reference_and_point_evaluation_at_scale(problem):
    g, ages, from_time = problem
    got = guard_flip_time(g, {}, ages=ages, from_time=from_time)
    assert got == reference_guard_flip_time(g, {}, ages=ages, from_time=from_time)
    truth = guard_truth(g, {}, ages=ages)
    # every interval end is true and every point just outside it false
    for lo, hi in truth:
        for end, outside in ((lo, lo - 1), (hi, hi + 1)):
            if abs(end) != INF:
                assert _holds(g, ages, end) and not _holds(g, ages, outside)
    if got is not None and got > from_time:
        assert _holds(g, ages, got) and not _holds(g, ages, got - 1)
    assert _holds(g, ages, from_time) == (got == from_time)


def _truth_value_under_arithmetic(e) -> bool:
    """Whether a time-dependent truth value is an operand of + or -."""
    if not isinstance(e, Op):
        return False
    if e.op in ("+", "-") and any(isinstance(a, Op) and a.op not in ("+", "-") and depends_on_time(a) for a in e.args):
        return True
    return any(_truth_value_under_arithmetic(a) for a in e.args)


@settings(max_examples=200, deadline=None)
@given(_problems(40, nested=True))
def test_solver_agrees_with_brute_force_on_nested_truth_values(problem):
    # the reference solver rejects these guards whenever they are false
    g, ages, from_time = problem
    if _truth_value_under_arithmetic(g):
        _assert_rejected(g, "^'[+-]' takes numbers, not the time-dependent truth value ")
        return
    got = guard_flip_time(g, {}, ages=ages, from_time=from_time)
    last = max(from_time, _magnitude(g, ages) + 1)
    assert got == next((u for u in range(from_time, last + 1) if _holds(g, ages, u)), None)
    for lo, hi in guard_truth(g, {}, ages=ages):
        for end, outside in ((lo, lo - 1), (hi, hi + 1)):
            if abs(end) != INF:
                assert _holds(g, ages, end) and not _holds(g, ages, outside)


# ---------------------------------------------------------------------------
# the compiled evaluator against the frozen interpreter

_OPS = ("+", "-", "*", "min", "max", "=", "!=", "<", "<=", ">", ">=", "and", "or", "not", "tuple", "pow")
_NAMES = ("x", "y", "p", "m")
_RELS = Schema(
    (
        Relation("R", (Column("a", INT), Column("b", INT), Column("t", TEXT)), ("a", "b")),
        Relation("S", (Column("k", TEXT),), ("k",)),
    )
)

_values = st.one_of(st.integers(-3, 3), st.booleans(), st.sampled_from(["", "a", "b"]))
_pattern_terms = st.one_of(
    _values.map(Const),
    st.sampled_from(_NAMES).map(Var),
    st.sampled_from(_NAMES).map(Param),
    st.just(Wild()),
    st.just(Now()),  # not a pattern term
)
_db_nodes = st.one_of(
    st.builds(DbCount, st.sampled_from(["R", "S"]), st.lists(_pattern_terms, min_size=1, max_size=3).map(tuple)),
    st.builds(
        DbMergeText,
        st.sampled_from(["R", "S"]),
        st.lists(_pattern_terms, min_size=1, max_size=3).map(tuple),
        st.integers(0, 2),
        st.integers(0, 3),
        st.sampled_from(["", "|"]),
    ),
)
_leaves = st.one_of(
    _values.map(Const),
    st.sampled_from(_NAMES).map(Var),
    st.sampled_from(_NAMES).map(Param),
    st.just(Now()),
    st.sampled_from(_NAMES).map(Age),
    st.just(Wild()),
    _db_nodes,
    st.sampled_from([5, None, "x", (Const(1),)]),  # not nodes
)
_exprs = st.recursive(
    _leaves,
    lambda sub: st.builds(
        lambda op, args: Op(op, tuple(args)), st.sampled_from(_OPS), st.lists(sub, min_size=0, max_size=3)
    ),
    max_leaves=8,
)
_bindings = st.dictionaries(st.sampled_from(_NAMES), _values, max_size=4)
_instances = st.builds(
    lambda r, s: Instance(_RELS, {"R": [(k + (t,), at) for k, (t, at) in r.items()], "S": [((k,), 0) for k in s]}),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 5)), max_size=5),
    st.sets(st.sampled_from(["", "a", "b"])),
)


def _outcome(evaluate, e, env, **kw):
    try:
        value = evaluate(e, env, **kw)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    return ("value", type(value), value)


@settings(max_examples=400, deadline=None)
@given(
    _exprs,
    _bindings,
    st.one_of(st.none(), _instances),
    st.integers(-5, 5),
    st.one_of(st.none(), st.dictionaries(st.sampled_from(_NAMES), st.integers(-5, 5), max_size=3)),
    st.one_of(st.none(), _bindings),
)
def test_compiled_evaluator_agrees_with_frozen_interpreter(e, env, instance, now, ages, args):
    kw = dict(instance=instance, now=now, ages=ages, args=args)
    want = _outcome(frozen.eval_expr, e, env, **kw)
    assert _outcome(eval_expr, e, env, **kw) == want
    # a second evaluation runs the closure cached on the node
    assert _outcome(eval_expr, e, env, **kw) == want


def test_compiled_closure_is_cached_on_the_node_and_errors_wait_for_evaluation():
    e = Op("+", (Var("x"), Param("p")))
    assert eval_expr(e, {"x": 1}, args={"p": 2}) == 3
    fn = e._eval
    with pytest.raises(EvalError, match="unbound parameter 'p'"):
        eval_expr(e, {"x": 1})
    assert e._eval is fn and e.args[0]._eval is not None
    # an equal node built apart shares the closure; 1 and True, though
    # equal, do not, nor do tuples that differ so
    twin = Op("+", (Var("x"), Param("p")))
    assert eval_expr(twin, {"x": 2}, args={"p": 2}) == 4 and twin._eval is fn
    assert eval_expr(Const(1), {}) == 1 and eval_expr(Const(True), {}) is True
    assert [type(v) for v in eval_expr(Const((1, True)), {}) + eval_expr(Const((1, 1)), {})] == [int, bool, int, int]
    assert eval_expr(Op("=", (Var("x"), Const(True))), {"x": True}) is True
    assert eval_expr(Op("tuple", (Const(1),)), {}) == (1,) and type(eval_expr(Op("tuple", (Const(False),)), {})[0]) is bool
    # compiling a node that cannot be evaluated raises nothing until it runs
    bad = Op("and", (Const(True), Op("pow", (Var("x"), 5))))
    with pytest.raises(EvalError, match="unbound variable 'x'"):
        eval_expr(bad, {})
    with pytest.raises(EvalError, match="not an expression: 5"):
        eval_expr(bad, {"x": 1})
    with pytest.raises(EvalError, match="count\\(\\) needs a persistence instance"):
        eval_expr(DbCount("R", (Var("missing"),)), {})
