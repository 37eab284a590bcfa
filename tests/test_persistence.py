"""Relational store: schema constraints, query evaluation, atomic actions.

The query-evaluation properties compare eval_query against brute-force
oracles that enumerate every assignment row by row, on fixed joins and on
generated queries.
"""

import io
import itertools
import keyword
import operator
import re
import tokenize
from typing import Optional

import pytest
from hypothesis import event, given, settings, strategies as st

from reference_exprs import resolve_term
from tdbnet import persistence
from tdbnet.engine import replay, run
from tdbnet.exprs import Const, DbCount, DefinitionError, Op, Param, Var, Wild
from tdbnet.persistence import (
    Action,
    Atom,
    Column,
    ConstraintViolation,
    FactTemplate,
    Filter,
    Instance,
    Query,
    Relation,
    Schema,
    apply_action,
    apply_action_delta,
    bisect_range,
    check_compliance,
    check_query,
    eval_query,
)
from tdbnet.net import ActionCall, InputArc, Net, OutputArc, Place, Transition, initial_snapshot, validate_net
from tdbnet.values import BOOL, INT, SCALAR_TYPES, TEXT, ColorType, product

ENDPOINTS = Relation("Endpoints", (Column("epid", TEXT), Column("nexc", INT)), ("epid",))
SEQS = Relation(
    "MessageSequences",
    (Column("seq", TEXT), Column("ord", INT), Column("body", TEXT)),
    ("seq", "ord"),
)
SCHEMA = Schema((ENDPOINTS, SEQS))


# ---------------------------------------------------------------------------
# schema and instance plumbing


def test_relation_validation():
    with pytest.raises(DefinitionError):
        Relation("r", (Column("a", INT), Column("a", INT)), ("a",))
    with pytest.raises(DefinitionError):
        Relation("r", (Column("a", INT),), ())
    with pytest.raises(DefinitionError):
        Relation("r", (Column("a", INT),), ("b",))
    with pytest.raises(DefinitionError):
        Schema((ENDPOINTS, ENDPOINTS))


def test_instance_lookup():
    inst = Instance(SCHEMA, {"Endpoints": [(("ep1", 6), 0), (("ep2", 2), 3)]})
    assert inst.rows("Endpoints") == ((("ep1", 6), 0), (("ep2", 2), 3))
    assert inst.rows("MessageSequences") == ()
    with pytest.raises(DefinitionError):
        inst.rows("Nope")
    assert inst.relation_sizes() == {"Endpoints": 2, "MessageSequences": 0}


def test_match_rows_wildcards():
    inst = Instance(SCHEMA, {"Endpoints": [(("ep1", 6), 0), (("ep2", 2), 0)]})
    assert inst.match_values("Endpoints", ("ep1", None)) == [("ep1", 6)]
    assert inst.match_values("Endpoints", None) == [("ep1", 6), ("ep2", 2)]
    assert inst.count_matching("Endpoints", (None, 2)) == 1
    with pytest.raises(DefinitionError):
        inst.match_rows("Endpoints", ("ep1",))  # wrong arity


# ---------------------------------------------------------------------------
# range lookups against the full scan

T = Relation("T", (Column("a", INT), Column("b", INT), Column("c", TEXT)), ("a", "b", "c"))
TSCHEMA = Schema((T,))
# delete the rows of one leading value, then add a row
SWAP = Action(
    "swap",
    params=(("d", INT), ("a", INT), ("b", INT)),
    dels=(FactTemplate("T", (Param("d"), Wild(), Wild())),),
    adds=(FactTemplate("T", (Param("a"), Param("b"), Const("x"))),),
)


def reference_match_rows(instance, relation, pattern):
    """The full scan: every row of the relation, kept when each bound
    column equals the pattern's."""
    if pattern is None:
        pattern = (None,) * instance.schema.relation(relation).arity
    return [
        (values, at)
        for values, at in instance.rows(relation)
        if all(p is None or p == v for p, v in zip(pattern, values))
    ]


def _derived(instance, d, a, b):
    res = apply_action_delta(instance, SWAP, (d, a, b), 9)
    return instance if isinstance(res, ConstraintViolation) else res[0]


LEADING = st.integers(0, 2)  # few values, so leading columns repeat
TEXTS = st.sampled_from(["x", "y"])
stamped = lambda values: st.dictionaries(values, st.integers(0, 2), max_size=8)
lookup_instances = stamped(st.tuples(LEADING, LEADING, TEXTS)).map(
    lambda rows: Instance(TSCHEMA, {"T": list(rows.items())})
)
lookup_instances = st.one_of(
    lookup_instances, st.builds(_derived, lookup_instances, LEADING, LEADING, LEADING)
)
# bound values of every column's type, of the wrong type (str against INT,
# int against TEXT) and bools, which equal 0 and 1
lookup_patterns = st.one_of(
    st.none(),
    st.tuples(*[st.one_of(st.none(), LEADING, TEXTS, st.booleans())] * 3),
)


@settings(deadline=None)
@given(lookup_instances, lookup_patterns)
def test_lookups_equal_the_full_scan(instance, pattern):
    want = reference_match_rows(instance, "T", pattern)
    assert instance.match_rows("T", pattern) == want
    assert instance.match_values("T", pattern) == [values for values, _ in want]
    assert instance.count_matching("T", pattern) == len(want)


# values of each column type, among them each type's successor probe of
# another: "a\0" of "a", 1 of 0, and True (which equals 1) of False
TYPED = {INT: st.integers(-1, 2), TEXT: st.sampled_from(["", "a", "a\0", "b"]), BOOL: st.booleans()}
# a value of another type per column: a str in an int or bool column
FOREIGN = {INT: "a", TEXT: 0, BOOL: "a"}


@st.composite
def typed_lookups(draw):
    """(instance, pattern) over a relation with an int, a text and a bool
    column in a drawn order.  Each bound value of the pattern is the
    smallest, the largest or any value present in its column, any value of
    its type, or one of another type."""
    colors = draw(st.permutations([INT, TEXT, BOOL]))
    rel = Relation("U", tuple(Column(f"c{i}", c) for i, c in enumerate(colors)), ("c0", "c1", "c2"))
    rows = draw(st.dictionaries(st.tuples(*(TYPED[c] for c in colors)), st.integers(0, 2), max_size=8))
    pattern = []
    for i, color in enumerate(colors):
        present = sorted({values[i] for values in rows})
        choices = [None, FOREIGN[color], draw(TYPED[color])]
        if present:
            choices += [present[0], present[-1], draw(st.sampled_from(present))]
        pattern.append(draw(st.sampled_from(choices)))
    return Instance(Schema((rel,)), {"U": list(rows.items())}), tuple(pattern)


@settings(deadline=None)
@given(typed_lookups())
def test_lookups_on_text_and_bool_columns_equal_the_full_scan(case):
    # the upper probe of a range is the successor of its last bound value
    instance, pattern = case
    want = reference_match_rows(instance, "U", pattern)
    assert instance.match_rows("U", pattern) == want
    assert instance.count_matching("U", pattern) == len(want)


# rows of T, sorted, with the leading values 0 and 2 at either end
BISECT_ROWS = tuple(
    sorted(
        [((0, 0, "x"), 1), ((0, 1, "y"), 0), ((1, 0, "x"), 2), ((1, 1, "x"), 0), ((1, 1, "y"), 5), ((2, 2, "y"), 0)]
    )
)


@pytest.mark.parametrize(
    "pattern, want",
    [
        ((0, None, None), (0, 2, ())),  # a prefix at the low end
        ((2, None, None), (5, 6, ())),  # a prefix at the high end
        ((-1, None, None), (0, 0, ())),  # below every row
        ((3, None, None), (6, 6, ())),  # above every row
        ((1, 1, None), (3, 5, ())),
        ((1, 1, "y"), (4, 5, ())),  # k = arity: one row, whatever its time
        ((1, 1, "z"), (5, 5, ())),
        ((1, None, "x"), (2, 5, ((2, "x"),))),  # a bound column after a wildcard
        ((None, 1, None), (0, 6, ((1, 1),))),
        (("a", None, None), (0, 6, ((0, "a"),))),  # does not compare with the int column
        ((1, "a", None), (0, 6, ((0, 1), (1, "a")))),  # the same after an equal lead
    ],
)
def test_bisect_range(pattern, want):
    lo, hi, rest = bisect_range(BISECT_ROWS, pattern)
    assert (lo, hi, rest) == want
    assert [r for r in BISECT_ROWS[lo:hi] if all(r[0][i] == p for i, p in rest)] == [
        r for r in BISECT_ROWS if all(p is None or p == v for p, v in zip(pattern, r[0]))
    ]


def test_a_second_schema_object_compiles_actions_and_queries_again():
    q = Query("q", atoms=(Atom("T", (Var("a"), Var("b"), Wild())),), filters=(Filter(">", Var("b"), Const(0)),), output=("a",))
    inst = Instance(TSCHEMA, {"T": [((1, 1, "x"), 0), ((2, 0, "x"), 0)]})
    assert eval_query(inst, q) == ((1,),)
    assert apply_action_delta(inst, SWAP, (2, 3, 4), 9)[1] == [("T", (3, 4, "x"), 9)]
    plans = TSCHEMA._plans[id(q)], TSCHEMA._plans[id(SWAP)]
    assert plans[0][0] is q and plans[1][0] is SWAP
    # an equal schema, but another object: both are checked and compiled again
    other = Schema((T,))
    inst2 = Instance(other, {"T": [((1, 1, "x"), 0)]})
    assert eval_query(inst2, q) == ((1,),)
    assert apply_action_delta(inst2, SWAP, (1, 1, 1), 9)[2] == [("T", (1, 1, "x"), 0)]
    assert other._plans[id(q)][1] is not plans[0][1] and other._plans[id(SWAP)][1] is not plans[1][1]
    # and the first schema keeps its own
    assert TSCHEMA._plans[id(q)] is plans[0] and eval_query(inst, q) == ((1,),)
    # a schema the action does not fit is rejected when it is compiled
    narrow = Schema((Relation("T", (Column("a", INT),), ("a",)),))
    with pytest.raises(DefinitionError, match="^action 'swap' addition 0: pattern arity 3 does not match relation 'T' arity 1$"):
        apply_action_delta(Instance(narrow), SWAP, (1, 1, 1), 9)
    with pytest.raises(DefinitionError, match="^query 'q' atom 0: pattern arity 3 does not match relation 'T' arity 1$"):
        eval_query(Instance(narrow), q)


# ---------------------------------------------------------------------------
# eval_query


def test_query_on_empty_instance():
    q = Query("q", atoms=(Atom("Endpoints", (Var("e"), Var("n"))),), output=("e", "n"))
    assert eval_query(Instance(SCHEMA), q) == ()


def test_query_without_filters_projects_all_facts():
    inst = Instance(SCHEMA, {"Endpoints": [(("ep2", 2), 0), (("ep1", 6), 0)]})
    q = Query("q", atoms=(Atom("Endpoints", (Var("e"), Var("n"))),), output=("e", "n"))
    assert eval_query(inst, q) == (("ep1", 6), ("ep2", 2))


def test_query_threshold_filter():
    inst = Instance(SCHEMA, {"Endpoints": [(("ep1", 6), 0), (("ep2", 2), 0)]})
    q = Query(
        "over_threshold",
        atoms=(Atom("Endpoints", (Var("e"), Var("n"))),),
        filters=(Filter(">", Var("n"), Const(5)),),
        output=("e", "n"),
    )
    assert eval_query(inst, q) == (("ep1", 6),)


def test_query_join_and_projection_dedup():
    inst = Instance(
        SCHEMA,
        {
            "Endpoints": [(("ep1", 1), 0), (("ep2", 1), 0)],
            "MessageSequences": [(("s", 1, "a"), 0)],
        },
    )
    q = Query(
        "j",
        atoms=(
            Atom("Endpoints", (Var("e"), Var("n"))),
            Atom("MessageSequences", (Var("s"), Var("n"), Wild())),
        ),
        output=("n",),
    )
    # both endpoints join to ord 1; the projection collapses them
    assert eval_query(inst, q) == ((1,),)


def test_query_params_and_order_by():
    inst = Instance(
        SCHEMA,
        {"MessageSequences": [(("s", 2, "b"), 0), (("s", 1, "a"), 0), (("t", 9, "z"), 0)]},
    )
    q = Query(
        "for_seq",
        params=(("which", TEXT),),
        atoms=(Atom("MessageSequences", (Param("which"), Var("o"), Var("b"))),),
        output=("b", "o"),
        order_by=(1,),
    )
    assert eval_query(inst, q, ("s",)) == (("a", 1), ("b", 2))
    with pytest.raises(DefinitionError):
        eval_query(inst, q)  # missing argument
    with pytest.raises(DefinitionError):
        eval_query(inst, q, (5,))  # wrong argument type


def test_query_count_filter():
    inst = Instance(
        SCHEMA,
        {"MessageSequences": [(("s", 1, "a"), 0), (("s", 2, "b"), 0), (("t", 1, "c"), 0)]},
    )
    q = Query(
        "complete_pairs",
        atoms=(Atom("MessageSequences", (Var("s"), Var("o"), Var("b"))),),
        filters=(Filter("=", DbCount("MessageSequences", (Var("s"), Wild(), Wild())), Const(2)),),
        output=("s", "o"),
    )
    assert eval_query(inst, q) == (("s", 1), ("s", 2))


@pytest.mark.parametrize(
    "count,message",
    [
        (DbCount("NOPE", (Wild(),)), "query 'q' filter 0 count: unknown relation 'NOPE'"),
        (DbCount("R", (Wild(), Wild())), "query 'q' filter 0 count: pattern arity 2 does not match relation 'R' arity 1"),
        (DbCount("R", (Const("a"),)), "query 'q' filter 0 count: constant 'a' does not fit column 'a' of 'R', 'int'"),
    ],
    ids=["unknown-relation", "arity", "constant-off-column"],
)
def test_a_filter_count_is_checked_against_the_schema(count, message):
    # each passed check_query; evaluating the first two failed naming no
    # query, and the third counted 0 silently
    schema = Schema((Relation("R", (Column("a", INT),), ("a",)),))
    q = Query("q", atoms=(Atom("R", (Var("x"),)),), filters=(Filter(">", count, Const(0)),), output=("x",))
    with pytest.raises(DefinitionError) as exc:
        check_query(schema, q)
    assert str(exc.value) == message
    net = Net(places=(Place("v", INT, kind="view", query="q"),), transitions=(), schema=Schema(schema.relations), queries=(q,))
    with pytest.raises(DefinitionError) as exc:
        validate_net(net)
    assert str(exc.value) == message


def test_query_safe_range_enforced():
    q = Query("bad", atoms=(Atom("Endpoints", (Var("e"), Var("n"))),), output=("e", "zzz"))
    with pytest.raises(DefinitionError):
        eval_query(Instance(SCHEMA), q)


def test_query_is_pure():
    inst = Instance(SCHEMA, {"Endpoints": [(("ep1", 6), 0)]})
    q = Query("q", atoms=(Atom("Endpoints", (Var("e"), Var("n"))),), output=("e", "n"))
    assert eval_query(inst, q) == eval_query(inst, q)


# ---------------------------------------------------------------------------
# apply_action


ADD_SEQ = Action(
    "add_seq",
    params=(("s", TEXT), ("o", INT), ("b", TEXT)),
    adds=(FactTemplate("MessageSequences", (Param("s"), Param("o"), Param("b"))),),
)


def test_add_to_empty_relation():
    out = apply_action(Instance(SCHEMA), ADD_SEQ, ("seq1", 2, "b"), at=17)
    assert isinstance(out, Instance)
    assert out.rows("MessageSequences") == ((("seq1", 2, "b"), 17),)


def test_key_conflict_returns_violation_and_leaves_instance_alone():
    inst = Instance(SCHEMA, {"MessageSequences": [(("seq1", 2, "old"), 3)]})
    before = inst.rows("MessageSequences")
    out = apply_action(inst, ADD_SEQ, ("seq1", 2, "new"), at=9)
    assert isinstance(out, ConstraintViolation)
    assert out.relation == "MessageSequences"
    assert out.kind == "key"
    assert out.key == ("seq1", 2)
    assert inst.rows("MessageSequences") == before


def test_delete_then_readd_refreshes_timestamp():
    swap = Action(
        "swap",
        params=(("s", TEXT), ("o", INT), ("b", TEXT)),
        dels=(FactTemplate("MessageSequences", (Param("s"), Param("o"), Param("b"))),),
        adds=(FactTemplate("MessageSequences", (Param("s"), Param("o"), Param("b"))),),
    )
    inst = Instance(SCHEMA, {"MessageSequences": [(("seq1", 2, "b"), 3)]})
    out = apply_action(inst, swap, ("seq1", 2, "b"), at=50)
    assert out.rows("MessageSequences") == ((("seq1", 2, "b"), 50),)


def test_delete_missing_fact_is_a_noop():
    wipe = Action(
        "wipe",
        params=(("s", TEXT),),
        dels=(FactTemplate("MessageSequences", (Param("s"), Wild(), Wild())),),
    )
    inst = Instance(SCHEMA, {"MessageSequences": [(("keep", 1, "a"), 0)]})
    out = apply_action(inst, wipe, ("ghost",), at=5)
    assert out.rows("MessageSequences") == inst.rows("MessageSequences")


def test_wildcard_delete_sweeps_matching_rows():
    wipe = Action(
        "wipe",
        params=(("s", TEXT),),
        dels=(FactTemplate("MessageSequences", (Param("s"), Wild(), Wild())),),
    )
    inst = Instance(
        SCHEMA,
        {"MessageSequences": [(("s", 1, "a"), 0), (("s", 2, "b"), 0), (("t", 1, "c"), 0)]},
    )
    out = apply_action(inst, wipe, ("s",), at=5)
    assert out.match_values("MessageSequences", None) == [("t", 1, "c")]


def test_bad_action_args_rejected():
    with pytest.raises(DefinitionError):
        apply_action(Instance(SCHEMA), ADD_SEQ, ("seq1", 2), at=0)
    with pytest.raises(DefinitionError):
        apply_action(Instance(SCHEMA), ADD_SEQ, ("seq1", "x", "b"), at=0)


def test_parameters_given_as_a_list_check_as_a_tuple():
    # a list of parameters, even of listed pairs, checks its arguments as
    # the tuple would, as lists of atoms and templates already work
    add = Action("add", params=[("s", TEXT), ["o", INT], ("b", TEXT)], adds=ADD_SEQ.adds)
    out = apply_action(Instance(SCHEMA), add, ("seq1", 2, "b"), at=17)
    assert out.rows("MessageSequences") == ((("seq1", 2, "b"), 17),)
    with pytest.raises(DefinitionError, match="^action 'add': argument 'o' has wrong type$"):
        apply_action(out, add, ("seq1", "x", "b"), at=18)
    q = Query("q", params=[["s", TEXT]], atoms=(Atom("MessageSequences", (Param("s"), Var("o"), Wild())),), output=("o",))
    assert eval_query(out, q, ("seq1",)) == ((2,),)
    with pytest.raises(DefinitionError, match="^query 'q' expects 1 args, got 0$"):
        eval_query(out, q, ())


# ---------------------------------------------------------------------------
# check_compliance


def test_compliance_empty_and_clean():
    assert check_compliance(Instance(SCHEMA)) == []
    inst = Instance(SCHEMA, {"Endpoints": [(("ep1", 0), 0)]})
    assert check_compliance(inst) == []


def test_compliance_key_violation_lists_both_witnesses():
    inst = Instance(SCHEMA, {"Endpoints": [(("ep1", 0), 0), (("ep1", 9), 4)]})
    bad = check_compliance(inst)
    assert len(bad) == 1
    v = bad[0]
    assert v.kind == "key" and v.relation == "Endpoints" and v.key == ("ep1",)
    assert set(v.witnesses) == {(("ep1", 0), 0), (("ep1", 9), 4)}


def test_compliance_type_violation_names_column():
    with pytest.raises(DefinitionError, match="type constraint on 'Endpoints': column 'nexc' expects int, got 'six'"):
        Instance(SCHEMA, {"Endpoints": [(("ep1", "six"), 0)]})


ONE_INT = Relation("R", (Column("a", INT),), ("a",))


@pytest.mark.parametrize(
    "rows,message",
    [
        ([((None,), 0), ((1,), 0)], "type constraint on 'R': column 'a' expects int, got None"),
        ([((1,), 0), (("x",), 0)], "type constraint on 'R': column 'a' expects int, got 'x'"),
        ([((1, 2), 0)], "type constraint on 'R': arity 2 != 1"),
    ],
    ids=["none", "str", "arity"],
)
def test_instance_rejects_rows_that_do_not_fit(rows, message):
    # rows are kept in their natural order, so every value must fit its
    # column's type: a None or a str does not compare with an int
    with pytest.raises(DefinitionError, match=f"^{message}$"):
        Instance(Schema((ONE_INT,)), {"R": rows})
    with pytest.raises(DefinitionError, match=f"^{message}$"):
        Instance.from_facts(Schema((ONE_INT,)), [("R", values, at) for values, at in rows])


@pytest.mark.parametrize("at", [None, 0.5, True], ids=["none", "float", "bool"])
def test_instance_rejects_an_insertion_time_that_is_not_an_int(at):
    # rows sort by (values, time), so a None time does not compare with an
    # int one, and a float or a bool would be kept as a time
    message = f"^relation 'R': row \\(1,\\) has insertion time {at!r}, not an int$"
    with pytest.raises(DefinitionError, match=message):
        Instance(Schema((ONE_INT,)), {"R": [((1,), 0), ((1,), at)]})
    with pytest.raises(DefinitionError, match=message):
        Instance.from_facts(Schema((ONE_INT,)), [("R", (1,), at), ("R", (2,), 0)])


# ---------------------------------------------------------------------------
# oracle equivalence property

R = Relation("R", (Column("a", INT), Column("b", INT)), ("a", "b"))
S = Relation("S", (Column("b", INT), Column("c", INT)), ("b", "c"))
RS = Schema((R, S))

small_int = st.integers(min_value=0, max_value=4)
rows_r = st.sets(st.tuples(small_int, small_int), max_size=10)
rows_s = st.sets(st.tuples(small_int, small_int), max_size=10)


def brute_force(instance, query):
    """Enumerate every row combination, unify, filter, project, dedup."""
    pools = [instance.match_values(a.relation, None) for a in query.atoms]
    results = set()
    for combo in itertools.product(*pools):
        env = {}
        ok = True
        for atom, values in zip(query.atoms, combo):
            for term, v in zip(atom.terms, values):
                if isinstance(term, Wild):
                    continue
                if isinstance(term, Const):
                    if term.value != v:
                        ok = False
                elif term.name in env:
                    if env[term.name] != v:
                        ok = False
                else:
                    env[term.name] = v
            if not ok:
                break
        if not ok:
            continue
        passed = True
        for f in query.filters:
            lhs = f.lhs.value if isinstance(f.lhs, Const) else env[f.lhs.name]
            rhs = f.rhs.value if isinstance(f.rhs, Const) else env[f.rhs.name]
            got = {
                "=": lhs == rhs,
                "!=": lhs != rhs,
                "<": lhs < rhs,
                "<=": lhs <= rhs,
                ">": lhs > rhs,
                ">=": lhs >= rhs,
            }[f.op]
            if not got:
                passed = False
                break
        if passed:
            results.add(tuple(env[v] for v in query.output))
    return tuple(sorted(results))


@settings(deadline=None, max_examples=150)
@given(
    rows_r,
    rows_s,
    st.sampled_from(["none", "a<c", "a<=2", "b!=1"]),
    st.sampled_from([("a", "c"), ("a", "b", "c"), ("c",)]),
)
def test_eval_query_matches_brute_force_oracle(r_rows, s_rows, filt, output):
    inst = Instance(
        RS,
        {"R": [(row, 0) for row in r_rows], "S": [(row, 0) for row in s_rows]},
    )
    filters = {
        "none": (),
        "a<c": (Filter("<", Var("a"), Var("c")),),
        "a<=2": (Filter("<=", Var("a"), Const(2)),),
        "b!=1": (Filter("!=", Var("b"), Const(1)),),
    }[filt]
    q = Query(
        "joined",
        atoms=(Atom("R", (Var("a"), Var("b"))), Atom("S", (Var("b"), Var("c")))),
        filters=filters,
        output=output,
    )
    assert eval_query(inst, q) == brute_force(inst, q)


@settings(deadline=None, max_examples=80)
@given(rows_r)
def test_single_atom_scan_matches_oracle(r_rows):
    inst = Instance(RS, {"R": [(row, 0) for row in r_rows]})
    q = Query("scan", atoms=(Atom("R", (Var("a"), Var("b"))),), output=("a", "b"))
    assert eval_query(inst, q) == brute_force(inst, q)


# eval_query against a nested-loop evaluation of generated queries: atoms
# that repeat a variable, bind columns that are no leading prefix, or only
# test that a row exists, and count filters, over int, text and bool
# columns, so that every color's successor step bounds a range

# few values per color, so joins and counts hit; "a\0" is the successor
# of "a", the upper probe of its range
QVALUES = {INT: st.integers(0, 2), TEXT: st.sampled_from(["", "a", "a\0", "b"]), BOOL: st.booleans()}
QVARS = {INT: ("x", "y", "z"), TEXT: ("s", "t"), BOOL: ("u", "v")}
QPARAMS = {INT: "p", TEXT: "q", BOOL: "r"}
QCOMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
QOPS = st.sampled_from(sorted(QCOMPARE))


@st.composite
def generated_queries(draw):
    """A schema of one or two relations of int, text and bool columns,
    keyed by leading columns, rows for each, a query over it of 1-3 atoms
    of variables, constants, wildcards and parameters (``p`` an int, ``q``
    text, ``r`` a bool), an optional count filter and comparison filter,
    output variables and an optional ``order_by``, and the query's
    arguments."""
    colors = st.sampled_from(list(QVALUES))
    relations = []
    for r in range(draw(st.integers(1, 2))):
        columns = tuple(Column(f"c{i}", draw(colors)) for i in range(draw(st.integers(1, 3))))
        key = tuple(c.name for c in columns[: draw(st.integers(1, len(columns)))])
        relations.append(Relation(f"R{r}", columns, key))
    rows = {}
    for rel in relations:
        drawn = draw(st.lists(st.tuples(*[QVALUES[c.color] for c in rel.columns]), max_size=5))
        rows[rel.name] = [(values, 0) for values in {v[: len(rel.key)]: v for v in drawn}.values()]
    params = tuple((QPARAMS[color], color) for color in QVALUES if draw(st.booleans()))
    have = {color: name for name, color in params}
    wild = st.just(Wild())

    def sides(color, variables=()):
        """The terms of ``color`` that a filter may compare or count by."""
        found = [QVALUES[color].map(Const)] + ([st.just(Param(have[color]))] if color in have else [])
        return found + ([st.sampled_from(variables).map(Var)] if variables else [])

    def terms(rel, term):
        return tuple(draw(st.one_of(*term(c.color))) for c in rel.columns)

    atoms = tuple(
        Atom(rel.name, terms(rel, lambda color: [st.sampled_from(QVARS[color]).map(Var), wild, *sides(color)]))
        for rel in draw(st.lists(st.sampled_from(relations), min_size=1, max_size=3))
    )
    bound = sorted({t.name for atom in atoms for t in atom.terms if type(t) is Var})
    of_color = {color: [v for v in bound if v in names] for color, names in QVARS.items()}
    filters = []
    if draw(st.booleans()):
        rel = draw(st.sampled_from(relations))
        count = DbCount(rel.name, terms(rel, lambda color: [wild, *sides(color, of_color[color])]))
        filters.append(Filter(draw(QOPS), count, draw(st.one_of(*sides(INT, of_color[INT])))))
    if draw(st.booleans()):
        color = draw(colors)
        compared = st.one_of(*sides(color, of_color[color]))
        filters.append(Filter(draw(QOPS), draw(compared), draw(compared)))
    output = tuple(draw(st.permutations(bound))[: draw(st.integers(0, len(bound)))])
    order_by = None
    if output and draw(st.booleans()):
        order_by = tuple(draw(st.lists(st.integers(0, len(output) - 1), unique=True)))
    query = Query("q", params, atoms, tuple(filters), output, order_by)
    args = tuple(draw(QVALUES[color]) for _, color in params)
    return Schema(tuple(relations)), rows, query, args


def nested_loop(instance, query, args):
    """The rows of ``query``, by its definition: every choice of one row per
    atom that agrees with the atoms' terms and passes every filter, its
    output variables, distinct, in canonical order and then stably sorted
    by ``order_by``."""
    argmap = dict(zip((p for p, _ in query.params), args))

    def value(side, env):
        if type(side) is not DbCount:
            return resolve_term(side, env, argmap)
        pattern = [None if type(t) is Wild else resolve_term(t, env, argmap) for t in side.terms]
        return sum(
            all(p is None or p == v for p, v in zip(pattern, values))
            for values in instance.match_values(side.relation, None)
        )

    def agrees(term, v, env):
        if type(term) is Var:
            return env.setdefault(term.name, v) == v
        return type(term) is Wild or resolve_term(term, env, argmap) == v

    found = set()
    for choice in itertools.product(*(instance.match_values(atom.relation, None) for atom in query.atoms)):
        env = {}
        if all(agrees(t, v, env) for atom, values in zip(query.atoms, choice) for t, v in zip(atom.terms, values)):
            if all(QCOMPARE[f.op](value(f.lhs, env), value(f.rhs, env)) for f in query.filters):
                found.add(tuple(env[name] for name in query.output))
    rows = sorted(found)
    if query.order_by is not None:
        rows.sort(key=lambda row: tuple(row[i] for i in query.order_by))
    return tuple(rows)


@settings(deadline=None)
@given(generated_queries())
def test_eval_query_equals_a_nested_loop_evaluation(case):
    schema, rows, query, args = case
    check_query(schema, query)  # every generated query is well-formed
    instance = Instance(schema, rows)
    assert eval_query(instance, query, args) == nested_loop(instance, query, args)


@pytest.mark.parametrize(
    "color, values, probe",
    [
        (INT, (-1, 0, 1, 2), 1),
        (TEXT, ("", "a", "a\0", "a\0b", "a\1", "b"), "a"),
        (BOOL, (False, True), False),
        (BOOL, (False, True), True),
    ],
)
def test_a_bisected_range_ends_below_the_successor(color, values, probe):
    # the value right after the probe ("a\0" after "a") lies outside the
    # range of its atom and of its count
    rel = Relation("E", (Column("k", color), Column("n", INT)), ("k", "n"))
    instance = Instance(Schema((rel,)), {"E": [((v, n), 0) for v in values for n in (0, 1)]})
    count = DbCount("E", (Const(probe), Wild()))
    q = Query("q", atoms=(Atom("E", (Const(probe), Var("n"))),), filters=(Filter("=", count, Const(2)),), output=("n",))
    assert eval_query(instance, q) == nested_loop(instance, q, ()) == ((0,), (1,))


def _generated_sources(monkeypatch) -> list:
    """The sources that ``persistence._maker`` is handed from now on."""
    sources = []
    maker = persistence._maker

    def recorded(source):
        sources.append(source)
        return maker(source)

    monkeypatch.setattr(persistence, "_maker", recorded)
    return sources


def _holds_only_generated_names(source: str, names: set) -> None:
    """Every token of ``source`` is a keyword, an upper-case name the
    generator numbered, one of ``names``, or not a name; no token is a
    string, and every number is a non-negative integer."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        assert tok.type != tokenize.STRING
        assert tok.type != tokenize.NUMBER or tok.string.isdigit()
        if tok.type == tokenize.NAME and not keyword.iskeyword(tok.string):
            assert re.fullmatch(r"[A-Z]+[0-9]*", tok.string) or tok.string in names, tok.string
    assert not any(word in source for word in ("import", "class", "lambda", "os", "\\n"))


def test_generated_source_holds_no_document_text(monkeypatch):
    # a relation name, constants and variable names that are Python syntax
    # reach the plan through its namespace, never through its source
    name, lines, quote = 'x"]; import os #', "a\nb", '"); import os; ("'
    rel = Relation(name, (Column("class", TEXT), Column("def", INT)), ("class", "def"))
    instance = Instance(
        Schema((rel,)), {name: [(("", 1), 0), ((lines, 2), 0), ((lines, 3), 0), ((quote, 4), 0), (("~", 5), 0)]}
    )
    q = Query(
        "import os",
        params=(("if", INT),),
        atoms=(Atom(name, (Var("class"), Var("lambda"))), Atom(name, (Const(lines), Param("if")))),
        filters=(Filter("<", Var("class"), Const(quote)), Filter("=", DbCount(name, (Var("class"), Wild())), Const(1))),
        output=("lambda", "class"),
    )
    monkeypatch.setattr(persistence, "_SHARED_PLANS", {})
    sources = _generated_sources(monkeypatch)
    assert eval_query(instance, q, (2,)) == nested_loop(instance, q, (2,)) == ((1, ""),)
    assert eval_query(instance, q, (4,)) == ()
    (source,) = sources
    _holds_only_generated_names(source, {"_rows", "make", "plan", "found", "add", "rows", "key", "sort", "sorted", "tuple", "set", "len", "_"})


def test_generated_firing_source_holds_no_document_text(monkeypatch):
    # a transition id, place ids, variable names, an action's and its
    # parameters' names, relation names and text constants that are Python
    # syntax reach the generated firing and action code through their
    # namespaces, never through their source
    name, lines, quote = 'x"]; import os #', "a\nb", '"); import os; ("'
    pair = product(TEXT, INT)
    act = Action(
        quote,
        params=(("if", TEXT), ("else", INT)),
        # a deletion that binds a column after a wildcard, an addition on a
        # leading key and one on a key that does not lead its columns
        dels=(FactTemplate(name, (Wild(), Param("else"))),),
        adds=(FactTemplate(name, (Param("if"), Param("else"))), FactTemplate("import os", (Const(lines), Const(7)))),
    )
    rels = (
        Relation(name, (Column("class", TEXT), Column("def", INT)), ("class",)),
        Relation("import os", (Column("lambda", TEXT), Column("is", INT)), ("is",)),
    )
    t = Transition(
        't"; import os',
        inputs=(InputArc(lines, (Var("class"), Var("import"))), InputArc(quote, (Var("os"), Wild()))),
        actions=(ActionCall(quote, (Var("class"), Var("import"))),),
        outputs=(
            OutputArc(lines, Op("tuple", (Const(quote), Var("import")))),
            OutputArc(quote, Op("tuple", (Var("os"), Op("+", (Var("import"), Const(1))))), when=Op("=", (Var("import"), Const(2)))),
        ),
        rollbacks=(OutputArc(quote, Op("tuple", (Const(lines), Var("import")))),),
    )
    net = Net(
        places=(Place(lines, pair), Place(quote, pair), Place("v", pair, kind="view", query="q")),
        transitions=(t,),
        schema=Schema(rels),
        queries=(Query("q", atoms=(Atom(name, (Var("a"), Var("b"))),), output=("a", "b")),),
        actions=(act,),
    )
    initial = initial_snapshot(net, tokens={lines: [(("u", 2), 0), (("w", 2), 0)], quote: [(("o", 0), 0)]}, facts=[(name, ("z", 2), 0)])
    sources = _generated_sources(monkeypatch)
    tr = run(net, initial, max_steps=2)
    replay(net, tr)
    assert [ev.outcome for ev in tr.events] == ["committed", "rolled_back"]
    assert tr.events[0].deleted == ((name, ("z", 2), 0),)
    assert tr.events[0].produced == ((lines, ((quote, 2), 0)), (quote, (("o", 3), 0)))
    assert sorted(re.search(r"^    def (\w+)\(", source, re.M)[1] for source in sources) == ["fire", "update"]
    names = {
        "env", "pre", "marking", "cand", "snapshot", "at", "step", "matches", "consumed", "removals", "produced",
        "work", "added", "deleted", "event", "items", "ages", "instance", "now", "updated", "append", "eval_expr",
        "apply_action_delta", "refresh_views", "tuple", "type", "make", "fire", "update", "_rows", "schema",
        "_count_cache", "new", "len", "list", "insert", "_",
    }
    for source in sources:
        _holds_only_generated_names(source, names)


def test_equal_query_shapes_compile_once(monkeypatch):
    # two schemas built alike check the query each and share its plan; a
    # query over another relation with another constant has the same
    # shape, and a query that holds lists is not shared: one source text,
    # compiled once
    compiled = []

    def counted(source, *rest):
        compiled.append(source)
        return compile(source, *rest)

    persistence._maker.cache_clear()
    monkeypatch.setattr(persistence, "_SHARED_PLANS", {})
    monkeypatch.setattr(persistence, "compile", counted, raising=False)

    def built(relation):
        return Schema((Relation(relation, (Column("a", INT), Column("b", TEXT)), ("a",)),))

    q = Query("q", atoms=(Atom("r", (Var("a"), Const("x"))),), output=("a",))
    other = Query("other", atoms=(Atom("u", (Var("c"), Const("y"))),), output=("c",))
    listed = Query("listed", atoms=[Atom("r", [Var("a"), Const("x")])], output=["a"])
    cases = [(built("r"), q, "r", "x"), (built("r"), q, "r", "x"), (built("u"), other, "u", "y"), (built("r"), listed, "r", "x")]
    for schema, query, relation, text in cases:
        assert eval_query(Instance(schema, {relation: [((1, text), 0), ((2, "z"), 0)]}), query) == ((1,),)
    assert len(compiled) == 1
    plans = [schema._plans[id(query)][1][0] for schema, query, _, _ in cases]
    assert plans[0] is plans[1] and len({id(plan) for plan in plans}) == 3
    assert len({plan.__code__ for plan in plans}) == 1


def test_a_query_joins_at_most_sixteen_atoms():
    # each atom nests a loop, a repeated variable's test and a filter whose
    # count scans within it; Python compiles at most 20 nested loops
    instance = Instance(Schema((Relation("r", (Column("a", INT), Column("b", INT)), ("a", "b")),)), {"r": [((1, 1), 0)]})
    atoms = tuple(Atom("r", (Var(f"v{i}"), Var(f"v{i}"))) for i in range(17))
    filters = tuple(Filter("=", DbCount("r", (Wild(), Var(f"v{i}"))), Const(1)) for i in range(17))
    widest = Query("widest", atoms=atoms[:16], filters=filters[:16], output=("v0", "v15"))
    assert eval_query(instance, widest) == nested_loop(instance, widest, ()) == ((1, 1),)
    with pytest.raises(DefinitionError, match="^query 'wider': 17 atoms, more than the 16 a query may join$"):
        check_query(instance.schema, Query("wider", atoms=atoms, filters=filters, output=("v0",)))


# ---------------------------------------------------------------------------
# apply_action_delta against the copy-sort-rescan reference


# Frozen copies of the template check and the row type check that
# apply_action_delta ran on every call before actions were compiled, and
# of the color test the row check used.


def _action_check(schema: Schema, action: Action) -> None:
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


def conforms(value: object, color: ColorType) -> bool:
    """True if ``value`` inhabits ``color``.  Types are exact: a bool is not
    an int, and no subclass (an ``IntEnum``, a ``str`` subclass) is a
    value."""
    if color.kind == "product":
        return (
            type(value) is tuple
            and len(value) == len(color.components)
            and all(conforms(v, c) for v, c in zip(value, color.components))
        )
    return type(value) is SCALAR_TYPES[color.kind]


def _typecheck_row(rel: Relation, values: tuple) -> Optional[str]:
    if len(values) != rel.arity:
        return f"arity {len(values)} != {rel.arity}"
    for col, v in zip(rel.columns, values):
        if not conforms(v, col.color):
            return f"column {col.name!r} expects {col.color.kind}, got {v!r}"
    return None


def reference_apply_action_delta(instance, action, args, at):
    """Copy every touched relation, delete by scanning it, append the
    additions, rescan it for duplicate keys and sort it again.  Relations
    are key-checked in order of first addition."""
    schema = instance.schema
    _action_check(schema, action)
    arg_env = {pname: a for (pname, _), a in zip(action.params, args)}

    work = {}

    def bucket(rel_name):
        if rel_name not in work:
            work[rel_name] = list(instance.rows(rel_name))
        return work[rel_name]

    deleted = []
    for tmpl in action.dels:
        pattern = [None if isinstance(t, Wild) else resolve_term(t, {}, arg_env) for t in tmpl.terms]
        keep = []
        for values, ts in bucket(tmpl.relation):
            if all(p is None or p == v for p, v in zip(pattern, values)):
                deleted.append((tmpl.relation, values, ts))
            else:
                keep.append((values, ts))
        work[tmpl.relation] = keep

    added = []
    for tmpl in action.adds:
        rel = schema.relation(tmpl.relation)
        values = tuple(resolve_term(t, {}, arg_env) for t in tmpl.terms)
        err = _typecheck_row(rel, values)
        if err is not None:
            return ConstraintViolation(
                relation=tmpl.relation,
                kind="type",
                key=values,
                witnesses=((values, at),),
                message=f"type constraint on {tmpl.relation!r}: {err}",
            )
        bucket(tmpl.relation).append((values, at))
        added.append((tmpl.relation, values, at))

    for relname in dict.fromkeys(a[0] for a in added):
        kidx = schema.relation(relname).key_indexes()
        seen = {}
        for values, ts in work[relname]:
            k = tuple(values[i] for i in kidx)
            if k in seen:
                return ConstraintViolation(
                    relation=relname,
                    kind="key",
                    key=k,
                    witnesses=(seen[k], (values, ts)),
                    message=f"duplicate key {k!r} in relation {relname!r}",
                )
            seen[k] = (values, ts)

    store = {rel.name: instance.rows(rel.name) for rel in schema.relations}
    for rel_name, rows in work.items():
        store[rel_name] = sorted(rows)
    return Instance(schema, store), added, deleted


def _off_column(action: Action) -> Optional[str]:
    """The message that rejects the first constant of ``action``, in its
    additions and then its deletions, that does not fit its column; None
    when every constant fits."""
    for site, templates in (("addition", action.adds), ("deletion", action.dels)):
        for i, tmpl in enumerate(templates):
            rel = ACTION_SCHEMA.relation(tmpl.relation)
            for t, col in zip(tmpl.terms, rel.columns):
                if type(t) is Const and not conforms(t.value, col.color):
                    return (
                        f"action {action.name!r} {site} {i}: constant {t.value!r} "
                        f"does not fit column {col.name!r} of {rel.name!r}, {col.color.kind!r}"
                    )
    return None


# keyed on its second column, so its key lookups bisect nothing and scan
ROUTES = Relation("Routes", (Column("name", TEXT), Column("port", INT)), ("port",))
ACTION_SCHEMA = Schema((ENDPOINTS, SEQS, ROUTES))

# small domains, so that additions collide with rows and with each other
COLUMN_VALUES = {
    "Endpoints": (st.sampled_from(["e1", "e2", "e3"]), st.integers(0, 2)),
    # the int body fits no template: the action is rejected when it is
    # checked, where the reference added a type violation or deleted nothing
    "MessageSequences": (st.sampled_from(["s1", "s2"]), st.integers(0, 2), st.sampled_from(["a", "b", 7])),
    "Routes": (st.sampled_from(["r1", "r2"]), st.integers(0, 2)),
}


def _template(relation, wild):
    term = lambda values: st.one_of(st.just(Wild()), values.map(Const)) if wild else values.map(Const)
    columns = COLUMN_VALUES[relation]
    return st.tuples(*(term(v) for v in columns)).map(lambda terms: FactTemplate(relation, terms))


def _templates(wild):
    return st.lists(st.one_of(*(_template(rel, wild) for rel in COLUMN_VALUES)), max_size=3)


actions = st.builds(lambda dels, adds: Action("act", dels=tuple(dels), adds=tuple(adds)), _templates(True), _templates(False))
stamps = st.integers(0, 3)
compliant_instances = st.builds(
    lambda eps, seqs, routes: Instance(
        ACTION_SCHEMA,
        {
            "Endpoints": [((ep, n), at) for ep, (n, at) in eps.items()],
            "MessageSequences": [((s, o, b), at) for (s, o), (b, at) in seqs.items()],
            "Routes": [((name, port), at) for port, (name, at) in routes.items()],
        },
    ),
    st.dictionaries(COLUMN_VALUES["Endpoints"][0], st.tuples(st.integers(0, 2), stamps)),
    st.dictionaries(
        st.tuples(*COLUMN_VALUES["MessageSequences"][:2]), st.tuples(st.sampled_from(["a", "b"]), stamps)
    ),
    st.dictionaries(COLUMN_VALUES["Routes"][1], st.tuples(COLUMN_VALUES["Routes"][0], stamps)),
)


@settings(deadline=None, max_examples=200)
@given(compliant_instances, st.lists(actions, min_size=1, max_size=8))
def test_apply_action_delta_matches_reference(start, steps):
    got_inst = want_inst = start
    for i, action in enumerate(steps):
        at = 10 + i
        off = _off_column(action)
        if off is not None:
            event("action: a constant off its column, rejected")
            with pytest.raises(DefinitionError) as exc:
                apply_action_delta(got_inst, action, (), at)
            assert str(exc.value) == off
            continue
        got = apply_action_delta(got_inst, action, (), at)
        want = reference_apply_action_delta(want_inst, action, (), at)
        if isinstance(want, ConstraintViolation):
            event("action: a key clash, as the reference")
            assert want.kind == "key" and got == want
            continue
        event("action: applied, as the reference")
        assert got[1:] == want[1:]  # added, deleted
        got_inst, want_inst = got[0], want[0]
        for rel in ACTION_SCHEMA.relations:
            assert got_inst.rows(rel.name) == want_inst.rows(rel.name)
        assert got_inst == want_inst


def test_key_index_rejects_duplicate_keys():
    inst = Instance(SCHEMA, {"MessageSequences": [(("s", 1, "a"), 0), (("s", 1, "b"), 3)]})
    with pytest.raises(DefinitionError, match="duplicate keys"):
        apply_action(inst, ADD_SEQ, ("s", 2, "c"), at=5)

