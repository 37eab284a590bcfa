"""Static validation: ``validate_net`` rejects each malformed net with one
located message, the same through ``parse_net``, and accepts well-formed
inscriptions."""

from dataclasses import replace

import pytest

from tdbnet.exprs import Age, Const, DbCount, DbMergeText, DefinitionError, Now, Op, Param, Var, Wild
from tdbnet.formats import DocumentError, parse_net, serialize_net
from tdbnet.net import (
    ActionCall,
    InputArc,
    Marking,
    Net,
    OutputArc,
    Place,
    Snapshot,
    Transition,
    validate_net,
)
from tdbnet.persistence import Action, Atom, Column, FactTemplate, Filter, Instance, Query, Relation, Schema
from tdbnet.values import INT, TEXT, product

R = Relation("R", (Column("a", INT), Column("b", TEXT)), ("a",))
PUT = Action("put", params=(("a", INT),), adds=(FactTemplate("R", (Param("a"), Const("x"))),))
Q_R = Query("q_r", atoms=(Atom("R", (Var("a"), Wild())),), output=("a",))


def _base() -> Net:
    """t: p (normal, binds x) and v (a view over R, binds y) -> o, calling
    put(x).  Each case below makes one fault in it."""
    t = Transition(
        "t",
        inputs=(InputArc("p", Var("x")), InputArc("v", Var("y"))),
        outputs=(OutputArc("o", Var("x")),),
        actions=(ActionCall("put", (Var("x"),)),),
    )
    return Net(
        places=(Place("p", INT), Place("v", INT, kind="view", query="q_r"), Place("o", INT)),
        transitions=(t,),
        schema=Schema((R,)),
        queries=(Q_R,),
        actions=(PUT,),
    )


def _t(**fields):
    """An edit of the base net's transition ``t``."""
    return lambda net: replace(net, transitions=(replace(net.transitions[0], **fields),))


def _guard(e):
    return _t(guard=e)


def _arc(e, when=None):
    return _t(outputs=(OutputArc("o", e, when),))


def _argument(e):
    return _t(actions=(ActionCall("put", (e,)),))


def _gt0(e):
    return Op(">", (e, Const(0)))


def _counted(count):
    """The view's query ``q_r`` with the filter ``count > 0``."""
    return replace(Q_R, filters=(Filter(">", count, Const(0)),))


UNBOUND_IN_GUARD = "transition 't': variable 'z' in guard is not bound by any input arc"

CASES = [
    (
        "query-unknown-relation",
        lambda net: replace(net, queries=(*net.queries, Query("q_bad", atoms=(Atom("NOPE", (Var("a"),)),), output=("a",)))),
        "query 'q_bad' atom 0: unknown relation 'NOPE'",
    ),
    # a filter's count over the view's query: each passed validation and
    # failed, naming no query, or counted 0 silently, when evaluated
    (
        "query-count-unknown-relation",
        lambda net: replace(net, queries=(_counted(DbCount("NOPE", (Wild(),))),)),
        "query 'q_r' filter 0 count: unknown relation 'NOPE'",
    ),
    (
        "query-count-arity",
        lambda net: replace(net, queries=(_counted(DbCount("R", (Wild(), Wild(), Wild()))),)),
        "query 'q_r' filter 0 count: pattern arity 3 does not match relation 'R' arity 2",
    ),
    (
        "query-count-constant-off-column",
        lambda net: replace(net, queries=(_counted(DbCount("R", (Const("a"), Wild()))),)),
        "query 'q_r' filter 0 count: constant 'a' does not fit column 'a' of 'R', 'int'",
    ),
    (
        # no transition calls it: every action is checked
        "action-unknown-relation",
        lambda net: replace(net, actions=(*net.actions, Action("put2", adds=(FactTemplate("NOPE", (Const(1),)),)))),
        "action 'put2' addition 0: unknown relation 'NOPE'",
    ),
    (
        "view-query-parameters",
        lambda net: replace(net, queries=(replace(Q_R, params=(("k", INT),)),)),
        "place 'v': view-bound query 'q_r' must be parameterless",
    ),
    (
        "view-unknown-query",
        lambda net: replace(net, places=(net.places[0], Place("v", INT, kind="view", query="nope"), net.places[2])),
        "place 'v': unknown query 'nope'",
    ),
    (
        "view-query-width",
        lambda net: replace(net, places=(net.places[0], Place("v", product(INT, TEXT), kind="view", query="q_r"), net.places[2])),
        "place 'v': query yields 1 columns, color has 2",
    ),
    (
        # its tokens, the rows' text, bound y untested
        "view-query-column-color",
        lambda net: replace(net, places=(net.places[0], Place("v", TEXT, kind="view", query="q_r"), net.places[2])),
        "place 'v': query column 0 is of color 'int', not 'text'",
    ),
    ("unknown-input-place", _t(inputs=(InputArc("nope", Var("x")),)), "transition 't' references unknown place 'nope'"),
    ("unknown-output-place", _t(outputs=(OutputArc("nope", Var("x")),)), "transition 't' references unknown place 'nope'"),
    (
        "arc-to-view-place",
        _t(outputs=(OutputArc("v", Var("x")),)),
        "transition 't': arc to view place 'v', whose tokens are its query's rows",
    ),
    ("unbound-in-guard", _guard(_gt0(Var("z"))), UNBOUND_IN_GUARD),
    ("unbound-in-arc", _arc(Var("z")), "transition 't': variable 'z' in arc to 'o' is not bound by any input arc"),
    (
        "unbound-in-arc-condition",
        _arc(Var("x"), _gt0(Var("z"))),
        "transition 't': variable 'z' in arc condition on 'o' is not bound by any input arc",
    ),
    (
        "unbound-in-action-argument",
        _argument(Op("+", (Var("x"), Var("z")))),
        "transition 't': variable 'z' in action 'put' argument is not bound by any input arc",
    ),
    ("unbound-age", _guard(Op("<", (Age("z"), Const(5)))), UNBOUND_IN_GUARD),
    ("unbound-in-count", _guard(_gt0(DbCount("R", (Var("z"), Wild())))), UNBOUND_IN_GUARD),
    (
        "unbound-in-merge-text",
        _arc(DbMergeText("R", (Wild(), Var("z")), 0, 1)),
        "transition 't': variable 'z' in arc to 'o' is not bound by any input arc",
    ),
    (
        "age-of-view-variable",
        _guard(Op("<", (Age("y"), Const(5)))),
        "transition 't': age('y') needs a variable bound by a normal place",
    ),
    ("unknown-operator", _guard(Op("frobnicate", ())), "transition 't': unknown operator 'frobnicate'"),
    ("unknown-operator-in-arc", _arc(Op("pow", (Var("x"), Const(2)))), "transition 't': unknown operator 'pow'"),
    (
        "time-under-mul",
        _guard(Op(">", (Op("*", (Now(), Const(2))), Const(5)))),
        "transition 't' guard: now()/age() not allowed under '*'",
    ),
    ("time-under-min", _guard(Op("min", (Age("x"), Const(5)))), "transition 't' guard: now()/age() not allowed under 'min'"),
    (
        "time-under-mul-in-action-argument",
        _argument(Op("*", (Now(), Const(2)))),
        "transition 't' action argument: now()/age() not allowed under '*'",
    ),
    (
        "time-in-count",
        _guard(_gt0(DbCount("R", (Now(), Wild())))),
        "transition 't' guard: now()/age() not allowed inside db patterns",
    ),
    (
        "time-in-count-in-action-argument",
        _argument(DbCount("R", (Age("x"), Wild()))),
        "transition 't' action argument: now()/age() not allowed inside db patterns",
    ),
    (
        "rollback-without-actions",
        _t(rollbacks=(OutputArc("o", Var("x")),), actions=()),
        "transition 't': rollback arcs without database actions can never fire them",
    ),
    ("unknown-action", _t(actions=(ActionCall("nope", ()),)), "transition 't': unknown action 'nope'"),
    ("action-argument-count", _t(actions=(ActionCall("put", ()),)), "transition 't': action 'put' takes 1 args"),
    (
        "count-unknown-relation",
        _guard(_gt0(DbCount("NOPE", (Var("x"),)))),
        "transition 't': count() in guard: unknown relation 'NOPE'",
    ),
    (
        "count-pattern-arity",
        _guard(_gt0(DbCount("R", (Var("x"), Var("x"), Wild())))),
        "transition 't': count() in guard: pattern arity 3 does not match relation 'R' arity 2",
    ),
    (
        "count-operator-term",
        _arc(DbCount("R", (Op("+", (Var("x"), Const(1))), Wild()))),
        (
            "transition 't': count() in arc to 'o': not a pattern term: Op(op='+', args=(Var(name='x'), Const(value=1))) "
            "(allowed: Var, Const, Wild)"
        ),
    ),
    (
        "count-age-term",
        _arc(Var("x"), _gt0(DbCount("R", (Age("x"), Wild())))),
        "transition 't': count() in arc condition on 'o': not a pattern term: Age(var='x') (allowed: Var, Const, Wild)",
    ),
    (
        "merge-text-column",
        _arc(DbMergeText("R", (Wild(), Wild()), 0, 7)),
        "transition 't': merge_text() in arc to 'o': column 7 is out of range for relation 'R'",
    ),
    (
        # a constant of another colour never matches: the count was 0
        "count-constant-off-column",
        _guard(_gt0(DbCount("R", (Const("a"), Wild())))),
        "transition 't': count() in guard: constant 'a' does not fit column 'a' of 'R', 'int'",
    ),
    (
        "merge-text-constant-off-column",
        _arc(DbMergeText("R", (Wild(), Const(1)), 0, 1)),
        "transition 't': merge_text() in arc to 'o': constant 1 does not fit column 'b' of 'R', 'text'",
    ),
    (
        "query-constant-off-column",
        lambda net: replace(net, queries=(*net.queries, Query("q_bad", atoms=(Atom("R", (Const("x"), Wild())),), output=()))),
        "query 'q_bad' atom 0: constant 'x' does not fit column 'a' of 'R', 'int'",
    ),
    (
        # the run died at the first match, naming neither transition nor arc
        "input-pattern-operator",
        _t(inputs=(InputArc("p", Var("x")), InputArc("v", Op("+", (Var("x"), Const(1)))))),
        "transition 't': input arc from 'v': not a pattern term: Op(op='+', args=(Var(name='x'), Const(value=1)))",
    ),
    (
        # a tuple never matches a scalar token: the run quiesced silently
        "input-pattern-wider-than-scalar",
        _t(inputs=(InputArc("p", (Var("x"), Var("w"))), InputArc("v", Var("y")))),
        "transition 't': input arc from 'p': 2 pattern terms, but the place's color is the scalar 'int'",
    ),
    (
        "input-pattern-wider-than-product",
        lambda net: _t(inputs=(InputArc("p", (Var("x"), Var("w"), Wild())), InputArc("v", Var("y"))))(
            replace(net, places=(Place("p", product(INT, TEXT)), *net.places[1:]))
        ),
        "transition 't': input arc from 'p': 3 pattern terms, but the place's color is a product of 2 components",
    ),
    (
        # a constant of another color never matches: the run quiesced
        # silently with the token in place
        "input-constant-off-color",
        _t(inputs=(InputArc("p", Var("x")), InputArc("p", Const("a")), InputArc("v", Var("y")))),
        "transition 't': input arc from 'p': constant 'a' does not fit the place's color, 'int'",
    ),
    (
        "input-constant-off-component-color",
        lambda net: _t(inputs=(InputArc("p", (Var("x"), Const(1))), InputArc("v", Var("y"))))(
            replace(net, places=(Place("p", product(INT, TEXT)), *net.places[1:]))
        ),
        "transition 't': input arc from 'p': constant 1 does not fit component 1 of the place's color, 'text'",
    ),
    (
        "input-pattern-parameter",
        _t(inputs=(InputArc("p", Var("x")), InputArc("v", Param("k")))),
        "transition 't': input arc from 'v': not a pattern term: Param(name='k')",
    ),
    # each ran until it was evaluated, and died with a bare EvalError
    ("parameter-in-guard", _guard(_gt0(Param("k"))), "transition 't': parameter 'k' in guard: a transition has no parameters"),
    ("parameter-in-arc", _arc(Param("k")), "transition 't': parameter 'k' in arc to 'o': a transition has no parameters"),
    (
        "parameter-in-arc-condition",
        _arc(Var("x"), _gt0(Param("k"))),
        "transition 't': parameter 'k' in arc condition on 'o': a transition has no parameters",
    ),
    (
        "parameter-in-action-argument",
        _argument(Param("k")),
        "transition 't': parameter 'k' in action 'put' argument: a transition has no parameters",
    ),
    (
        "parameter-in-count",
        _guard(_gt0(DbCount("R", (Param("k"), Wild())))),
        "transition 't': parameter 'k' in guard: a transition has no parameters",
    ),
    (
        "parameter-in-merge-text",
        _arc(DbMergeText("R", (Wild(), Param("k")), 0, 1)),
        "transition 't': parameter 'k' in arc to 'o': a transition has no parameters",
    ),
    # operator arity: an extra operand was ignored, a missing one died with
    # a bare IndexError when evaluated
    ("comparison-of-three", _guard(Op(">=", (Age("x"), Const(250), Const(10**9)))), "transition 't': '>=' in guard takes 2 operands, got 3"),
    ("not-of-two", _guard(Op("not", (Const(False), Const(True)))), "transition 't': 'not' in guard takes 1 operand, got 2"),
    ("comparison-of-one", _guard(Op(">=", (Age("x"),))), "transition 't': '>=' in guard takes 2 operands, got 1"),
    ("not-of-none", _guard(Op("not", ())), "transition 't': 'not' in guard takes 1 operand, got 0"),
    ("sum-of-none", _guard(Op(">=", (Op("+", ()), Const(0)))), "transition 't': '+' in guard takes at least 1 operand, got 0"),
    ("tuple-of-none", _arc(Op("tuple", ())), "transition 't': 'tuple' in arc to 'o' takes at least 1 operand, got 0"),
    # types: each ended in a bare TypeError, failed at the first firing,
    # or ran with a wrong value
    ("sum-of-text", _arc(Op("+", (Const(1), Const("a")))), "transition 't': '+' in arc to 'o' takes int operands, not 'text'"),
    ("min-of-bool", _arc(Op("min", (Const(True), Var("x")))), "transition 't': 'min' in arc to 'o' takes int operands, not 'bool'"),
    ("compare-int-with-text", _guard(Op("<", (Var("x"), Const("3")))), "transition 't': '<' in guard compares 'int' with 'text'"),
    ("and-of-int", _guard(Op("and", (Const(True), Var("x")))), "transition 't': 'and' in guard takes bool operands, not 'int'"),
    (
        "tuple-of-tuple",
        _arc(Op("tuple", (Op("tuple", (Var("x"),)), Var("x")))),
        "transition 't': 'tuple' in arc to 'o' takes scalar operands, not product(int)",
    ),
    ("guard-of-text", _guard(Const("yes")), "transition 't': guard is of color 'text', not 'bool'"),
    ("condition-of-int", _arc(Var("x"), Var("x")), "transition 't': arc condition on 'o' is of color 'int', not 'bool'"),
    ("arc-of-text", _arc(Const("x")), "transition 't': arc to 'o' is of color 'text', not 'int'"),
    ("rollback-of-text", _t(rollbacks=(OutputArc("o", Const("x")),)), "transition 't': arc to 'o' is of color 'text', not 'int'"),
    ("argument-of-text", _argument(Const("a")), "transition 't': action 'put' argument 0 is of color 'text', not 'int'"),
    ("arc-of-no-color", _arc(Const(1.5)), "transition 't': constant 1.5 in arc to 'o' is a value of no color"),
    ("wildcard-expression", _guard(Wild()), "transition 't': Wild() in guard is not an expression"),
    (
        "variable-of-two-colors",
        lambda net: _t(inputs=(InputArc("p", Var("x")), InputArc("v", Var("x"))))(
            replace(net, places=(Place("p", product(INT, TEXT)), *net.places[1:]))
        ),
        "transition 't': input arc from 'v': variable 'x' takes color 'int' here and product(int, text) before",
    ),
    (
        "count-variable-off-column",
        _guard(_gt0(DbCount("R", (Wild(), Var("x"))))),
        "transition 't': count() in guard: variable 'x' of color 'int' does not fit column 'b' of 'R', 'text'",
    ),
    (
        "merge-text-separator",
        _arc(Var("x"), Op("=", (DbMergeText("R", (Wild(), Wild()), 0, 1, "\ud800"), Const("")))),
        "transition 't': merge_text() in arc condition on 'o': separator '\\ud800' is not text that UTF-8 can encode",
    ),
    # a query filter's sides: each passed check_query, and evaluating it
    # raised a bare TypeError, or an EvalError that named no query
    (
        "filter-compares-int-with-text",
        lambda net: replace(net, queries=(replace(Q_R, filters=(Filter(">", Var("a"), Const("zz")),)),)),
        "query 'q_r' filter 0: '>' compares 'int' with 'text'",
    ),
    (
        "filter-wildcard",
        lambda net: replace(net, queries=(replace(Q_R, filters=(Filter(">", Var("a"), Wild()),)),)),
        "query 'q_r' filter 0: not a filter term: Wild() (allowed: Var, Const, Param, DbCount)",
    ),
    (
        "filter-operator",
        lambda net: replace(net, queries=(replace(Q_R, filters=(Filter("=", Op("+", (Var("a"), Const(1))), Const(2)),)),)),
        "query 'q_r' filter 0: not a filter term: Op(op='+', args=(Var(name='a'), Const(value=1))) (allowed: Var, Const, Param, DbCount)",
    ),
    (
        "filter-now",
        lambda net: replace(net, queries=(replace(Q_R, filters=(Filter("<", Now(), Const(1)),)),)),
        "query 'q_r' filter 0: not a filter term: Now() (allowed: Var, Const, Param, DbCount)",
    ),
    (
        "filter-unbound-variable",
        lambda net: replace(net, queries=(replace(Q_R, filters=(Filter("=", Var("z"), Const(1)),)),)),
        "query 'q_r' filter 0: variable 'z' is not bound by any atom",
    ),
    (
        "query-join-of-two-colors",
        lambda net: replace(
            net, queries=(*net.queries, Query("q_bad", atoms=(Atom("R", (Var("a"), Wild())), Atom("R", (Wild(), Var("a")))), output=("a",)))
        ),
        "query 'q_bad' atom 1: variable 'a' of color 'int' does not fit column 'b' of 'R', 'text'",
    ),
]

# what a codec of parse_net rejects before the net is built, located at its
# document path
LOCATED_BY_CODEC = {
    "transition 't': unknown operator 'frobnicate'": "transitions[0].guard.op: unknown operator 'frobnicate'",
    "transition 't': unknown operator 'pow'": "transitions[0].outputs[0].expr.op: unknown operator 'pow'",
    "transition 't': input arc from 'v': not a pattern term: Op(op='+', args=(Var(name='x'), Const(value=1)))": (
        "transitions[0].inputs[1].pattern.op: '+' is not an input pattern term (var, const or wild)"
    ),
    "transition 't': input arc from 'v': not a pattern term: Param(name='k')": (
        "transitions[0].inputs[1].pattern.op: 'param' is not an input pattern term (var, const or wild)"
    ),
    "transition 't': constant 1.5 in arc to 'o' is a value of no color": (
        "transitions[0].outputs[0].expr.args[0]: 1.5 is not a value (an int, a string, a bool or a list of them)"
    ),
}


def _rejected(net, message):
    with pytest.raises(DefinitionError) as exc:
        validate_net(net)
    assert str(exc.value) == message
    # a document fails where its net is built, except where a codec
    # rejects the node first
    document = serialize_net(net, Snapshot(Instance(net.schema), Marking(), 0))
    with pytest.raises(DocumentError) as exc:
        parse_net(document)
    assert exc.value.diagnostics == [LOCATED_BY_CODEC.get(message, f"net: {message}")]


@pytest.mark.parametrize("edit,message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_one_fault_is_rejected(edit, message):
    _rejected(edit(_base()), message)


@pytest.mark.parametrize(
    "edit,where",
    [
        (_arc(Const("\ud800")), "constant '\\ud800' in arc to 'o'"),
        (_guard(Op("=", (Var("x"), Const("\ud800")))), "constant '\\ud800' in guard"),
        (_arc(Var("x"), Op("=", (Const("\ud800"), Const("a")))), "constant '\\ud800' in arc condition on 'o'"),
        (_argument(Const("\ud800")), "constant '\\ud800' in action 'put' argument"),
        (_guard(_gt0(DbCount("R", (Wild(), Const("\ud800"))))), "constant '\\ud800' in guard"),
        (_arc(DbMergeText("R", (Wild(), Const("\ud800")), 0, 1)), "constant '\\ud800' in arc to 'o'"),
        (
            lambda net: _t(inputs=(InputArc("p", (Var("x"), Const("\ud800"))), InputArc("v", Var("y"))))(
                replace(net, places=(Place("p", product(INT, TEXT)), *net.places[1:]))
            ),
            "input arc from 'p': constant '\\ud800'",
        ),
    ],
    ids=["arc", "guard", "arc-condition", "action-argument", "count", "merge-text", "input-pattern"],
)
def test_a_transition_constant_that_utf8_cannot_encode_is_rejected(edit, where):
    # the net ran, and writing its trace died with a UnicodeEncodeError
    _rejected(edit(_base()), f"transition 't': {where} holds text that UTF-8 cannot encode")


@pytest.mark.parametrize(
    "edit,message",
    [
        (
            lambda net: replace(net, actions=(Action("put", params=(("a", INT),), adds=(FactTemplate("R", (Param("a"), Const("\udc00"))),)),)),
            "action 'put' addition 0: constant '\\udc00' holds text that UTF-8 cannot encode",
        ),
        (
            lambda net: replace(net, actions=(*net.actions, Action("drop", dels=(FactTemplate("R", (Wild(), Const("\udc00"))),)))),
            "action 'drop' deletion 0: constant '\\udc00' holds text that UTF-8 cannot encode",
        ),
        (
            lambda net: replace(net, queries=(*net.queries, Query("q_bad", atoms=(Atom("R", (Var("a"), Const("\udc00"))),), output=("a",)))),
            "query 'q_bad' atom 0: constant '\\udc00' holds text that UTF-8 cannot encode",
        ),
    ],
    ids=["action-addition", "action-deletion", "query-atom"],
)
def test_a_template_constant_that_utf8_cannot_encode_is_rejected(edit, message):
    # an action added the row, and writing the trace died as above
    _rejected(edit(_base()), message)


# every db pattern goes through one check (persistence.check_pattern): the
# six sites, each with its location and the term it does not allow, and the
# faults crossed with them; a transition has no parameters, and its walk
# names a constant's text first
K_TEXT = (("k", TEXT),)
SITES = {
    "query-atom": (
        lambda rel, terms: lambda net: replace(net, queries=(*net.queries, Query("q_bad", K_TEXT, (Atom(rel, terms),)))),
        "query 'q_bad' atom 0",
        Op("+", (Const(1), Const(1))),
    ),
    "filter-count": (
        lambda rel, terms: lambda net: replace(
            net,
            queries=(*net.queries, Query("q_bad", K_TEXT, (Atom("R", (Var("a"), Wild())),), (Filter(">", DbCount(rel, terms), Const(0)),))),
        ),
        "query 'q_bad' filter 0 count",
        Now(),
    ),
    "action-addition": (
        lambda rel, terms: lambda net: replace(net, actions=(*net.actions, Action("bad", K_TEXT, adds=(FactTemplate(rel, terms),)))),
        "action 'bad' addition 0",
        Wild(),
    ),
    "action-deletion": (
        lambda rel, terms: lambda net: replace(net, actions=(*net.actions, Action("bad", K_TEXT, dels=(FactTemplate(rel, terms),)))),
        "action 'bad' deletion 0",
        Var("a"),
    ),
    "guard-count": (
        lambda rel, terms: _guard(_gt0(DbCount(rel, terms))),
        "transition 't': count() in guard",
        Op("+", (Var("x"), Const(1))),
    ),
    "arc-merge-text": (
        lambda rel, terms: _arc(DbMergeText(rel, terms, 0, 1)),
        "transition 't': merge_text() in arc to 'o'",
        Op("-", (Var("x"), Const(1))),
    ),
}
ALLOWED = {
    "query-atom": "Var, Const, Param, Wild",
    "filter-count": "Var, Const, Param, Wild",
    "action-addition": "Param, Const",
    "action-deletion": "Param, Const, Wild",
    "guard-count": "Var, Const, Wild",
    "arc-merge-text": "Var, Const, Wild",
}
IN_TRANSITION = {"guard-count": "guard", "arc-merge-text": "arc to 'o'"}


def _pattern_cases():
    for site, (edit, at, disallowed) in SITES.items():
        faults = [
            ("unknown-relation", "NOPE", (Const(1), Const("x")), f"{at}: unknown relation 'NOPE'"),
            (
                "arity",
                "R",
                (Const(1), Const("x"), Const(2)),
                f"{at}: pattern arity 3 does not match relation 'R' arity 2",
            ),
            (
                "disallowed-term",
                "R",
                (disallowed, Const("x")),
                f"{at}: not a pattern term: {disallowed!r} (allowed: {ALLOWED[site]})",
            ),
            (
                "constant-off-column",
                "R",
                (Const("a"), Const("x")),
                f"{at}: constant 'a' does not fit column 'a' of 'R', 'int'",
            ),
            (
                "lone-surrogate",
                "R",
                (Const(1), Const("\ud800")),
                f"transition 't': constant '\\ud800' in {IN_TRANSITION[site]} holds text that UTF-8 cannot encode"
                if site in IN_TRANSITION
                else f"{at}: constant '\\ud800' holds text that UTF-8 cannot encode",
            ),
        ]
        if site not in IN_TRANSITION:
            faults.append(
                (
                    "parameter-off-column",
                    "R",
                    (Param("k"), Const("x")),
                    f"{at}: parameter 'k' of color 'text' does not fit column 'a' of 'R', 'int'",
                )
            )
        for fault, rel, terms, message in faults:
            yield pytest.param(edit(rel, terms), message, id=f"{site}-{fault}")


@pytest.mark.parametrize("edit,message", list(_pattern_cases()))
def test_a_db_pattern_fault_is_rejected_where_it_stands(edit, message):
    # an action constant or parameter off its column passed, and each
    # firing halted (an addition) or deleted nothing (a deletion)
    _rejected(edit(_base()), message)


@pytest.mark.parametrize(
    "edit",
    [
        lambda net: net,
        _guard(Op(">=", (Op("-", (Now(), Var("x"))), Const(100)))),
        _guard(Op("and", (Op("<", (Age("x"), Const(10))), Op("not", (Op("=", (Now(), Const(3))),))))),
        _guard(_gt0(Op("*", (Var("x"), Const(2))))),
        _guard(_gt0(DbCount("R", (Var("x"), Wild())))),
        _arc(Op("*", (Now(), Const(2)))),
        _arc(Var("x"), Op("!=", (DbMergeText("R", (Var("x"), Const("x")), 1, 0), Const("")))),
        _t(inputs=(InputArc("p", Var("x")), InputArc("v", Const(1)))),
        lambda net: _t(inputs=(InputArc("p", (Var("x"), Const("a"))), InputArc("v", Var("y"))))(
            replace(net, places=(Place("p", product(INT, TEXT)), *net.places[1:]))
        ),
    ],
    ids=[
        "base",
        "additive",
        "logical",
        "time-free-mul",
        "count",
        "time-under-mul-in-arc",
        "merge-text",
        "input-constant",
        "input-constant-component",
    ],
)
def test_well_formed_inscription_is_accepted(edit):
    # the solver's shape binds guards and action arguments only, and a
    # pattern term may be a constant, wildcard or bound variable
    validate_net(edit(_base()))
