"""Resequencer: buffer out-of-order messages per sequence and emit them in
ascending order once the whole sequence has arrived.

State lives in two relations: ``seqs`` tracks each open sequence (expected
size and next ordinal to emit) and ``msgs`` buffers the bodies.  A view over
complete sequences whose next ordinal is buffered drives the emit loop; each
emission advances the ``next`` counter, so output order is forced regardless
of arrival order.
"""

from __future__ import annotations

from ..exprs import Const, DbCount, Op, Param, Var, Wild
from ..net import ActionCall, InputArc, OutputArc, Place, Transition
from ..persistence import Action, Atom, Column, FactTemplate, Filter, Query, Relation
from ..values import INT, TEXT, product
from .base import PatternBundle, message_bundle


def build_resequencer() -> PatternBundle:
    s, o, t = Var("seq"), Var("ord"), Var("total")

    seqs = Relation(
        "seqs",
        (Column("seq", INT), Column("total", INT), Column("next", INT)),
        ("seq",),
    )
    msgs = Relation(
        "msgs",
        (Column("seq", INT), Column("ord", INT), Column("body", TEXT)),
        ("seq", "ord"),
    )
    out_log = Relation(
        "out_log",
        (Column("seq", INT), Column("ord", INT), Column("body", TEXT)),
        ("seq", "ord"),
    )

    # Complete sequences whose next-to-emit ordinal is buffered.
    q_emit = Query(
        "q_emit",
        atoms=(
            Atom("seqs", (Var("s"), Var("t"), Var("n"))),
            Atom("msgs", (Var("s"), Var("n"), Var("b"))),
        ),
        filters=(Filter("=", DbCount("msgs", (Var("s"), Wild(), Wild())), Var("t")),),
        output=("s", "t", "n", "b"),
    )

    open_seq = Action(
        "open_seq",
        params=(("s", INT), ("t", INT), ("o", INT), ("b", TEXT)),
        adds=(
            FactTemplate("seqs", (Param("s"), Param("t"), Const(1))),
            FactTemplate("msgs", (Param("s"), Param("o"), Param("b"))),
        ),
    )
    store_msg = Action(
        "store_msg",
        params=(("s", INT), ("o", INT), ("b", TEXT)),
        adds=(FactTemplate("msgs", (Param("s"), Param("o"), Param("b"))),),
    )
    advance = Action(
        "advance_seq",
        params=(("s", INT), ("t", INT), ("n", INT), ("n2", INT), ("b", TEXT)),
        dels=(FactTemplate("seqs", (Param("s"), Param("t"), Param("n"))),),
        adds=(
            FactTemplate("seqs", (Param("s"), Param("t"), Param("n2"))),
            FactTemplate("out_log", (Param("s"), Param("n"), Param("b"))),
        ),
    )

    msg_pattern = (Var("m"), s, o, t, Var("b"))
    store_first = Transition(
        "store_first",
        inputs=(InputArc("ch_in", msg_pattern),),
        guard=Op("=", (DbCount("seqs", (s, Wild(), Wild())), Const(0))),
        actions=(ActionCall("open_seq", (s, t, o, Var("b"))),),
    )
    store_next = Transition(
        "store_next",
        inputs=(InputArc("ch_in", msg_pattern),),
        guard=Op(">=", (DbCount("seqs", (s, Wild(), Wild())), Const(1))),
        actions=(ActionCall("store_msg", (s, o, Var("b"))),),
    )
    emit = Transition(
        "emit",
        inputs=(InputArc("v_emit", (Var("s"), Var("t"), Var("n"), Var("b"))),),
        actions=(
            ActionCall(
                "advance_seq",
                (Var("s"), Var("t"), Var("n"), Op("+", (Var("n"), Const(1))), Var("b")),
            ),
        ),
        outputs=(OutputArc("ch_out", Op("tuple", (Var("s"), Var("n"), Var("b")))),),
    )

    return message_bundle(
        "resequencer",
        (("seq", INT), ("ord", INT), ("total", INT), ("body", TEXT)),
        "ch_in",
        places=(
            Place(
                "v_emit",
                product(INT, INT, INT, TEXT, labels=("seq", "total", "next", "body")),
                kind="view",
                query="q_emit",
            ),
            Place("ch_out", product(INT, INT, TEXT, labels=("seq", "ord", "body"))),
        ),
        transitions=(store_first, store_next, emit),
        relations=(seqs, msgs, out_log),
        queries=(q_emit,),
        actions=(open_seq, store_msg, advance),
    )
