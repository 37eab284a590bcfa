"""Aggregator: collect messages per correlation key and emit one combined
message, either when the expected count is reached or when the group times
out.

A group's state is an ``aseqs`` row (expected total, creation time) plus
buffered ``amsgs`` rows.  Closing a group deletes both and writes the
combined body to ``agg_out``.  A message that arrives for an expired group
hits a deliberate key collision (its store action re-asserts the existing
``aseqs`` row), so the firing rolls back and the message returns to the
input channel with its retry counter bumped; after the late close sweeps
the group away, the retry opens a fresh group.  Messages that already
retried once wait instead of re-colliding, which keeps the net from
spinning while the close is pending.
"""

from __future__ import annotations

from ..exprs import Const, DbCount, DbMergeText, Now, Op, Param, Var, Wild
from ..net import ActionCall, InputArc, OutputArc, Place, Transition
from ..persistence import Action, Atom, Column, FactTemplate, Query, Relation
from ..values import INT, TEXT, TS, product

from .base import PatternBundle, message_bundle


def build_aggregator(*, timeout: int, expiry_grace: int = 0) -> PatternBundle:
    if timeout < 1:
        raise ValueError("timeout must be >= 1")
    if expiry_grace < 0:
        raise ValueError("expiry_grace must be >= 0")

    c, t = Var("corr"), Var("total")

    aseqs = Relation(
        "aseqs",
        (Column("corr", INT), Column("total", INT), Column("created", TS)),
        ("corr",),
    )
    amsgs = Relation(
        "amsgs",
        (Column("corr", INT), Column("ord", INT), Column("body", TEXT)),
        ("corr", "ord"),
    )
    agg_out = Relation(
        "agg_out",
        (Column("corr", INT), Column("done_at", TS), Column("body", TEXT), Column("n", INT)),
        ("corr", "done_at"),
    )

    q_groups = Query(
        "q_groups",
        atoms=(Atom("aseqs", (Var("c"), Var("t"), Var("cr"))),),
        output=("c", "t", "cr"),
    )

    open_group = Action(
        "open_group",
        params=(("c", INT), ("t", INT), ("cr", TS), ("o", INT), ("b", TEXT)),
        adds=(
            FactTemplate("aseqs", (Param("c"), Param("t"), Param("cr"))),
            FactTemplate("amsgs", (Param("c"), Param("o"), Param("b"))),
        ),
    )
    put_msg = Action(
        "put_msg",
        params=(("c", INT), ("o", INT), ("b", TEXT)),
        adds=(FactTemplate("amsgs", (Param("c"), Param("o"), Param("b"))),),
    )
    # Re-asserting the aseqs row is a guaranteed key collision: the whole
    # firing rolls back and the rollback arc requeues the message.
    touch_group = Action(
        "touch_group",
        params=(("c", INT), ("t", INT), ("cr", TS)),
        adds=(FactTemplate("aseqs", (Param("c"), Param("t"), Param("cr"))),),
    )
    close_group = Action(
        "close_group",
        params=(("c", INT), ("t", INT), ("cr", TS), ("done", TS), ("body", TEXT), ("n", INT)),
        dels=(
            FactTemplate("aseqs", (Param("c"), Param("t"), Param("cr"))),
            FactTemplate("amsgs", (Param("c"), Wild(), Wild())),
        ),
        adds=(
            FactTemplate("agg_out", (Param("c"), Param("done"), Param("body"), Param("n"))),
        ),
    )

    merged = DbMergeText("amsgs", (Var("c"), Wild(), Wild()), order_col=1, text_col=2)
    buffered = DbCount("amsgs", (Var("c"), Wild(), Wild()))
    group_pattern = (Var("c"), Var("t"), Var("cr"))
    expired = Op(">=", (Op("-", (Now(), Var("cr"))), Const(timeout)))

    close_done = Transition(
        "close_done",
        inputs=(InputArc("v_groups", group_pattern),),
        guard=Op("=", (buffered, Var("t"))),
        actions=(
            ActionCall(
                "close_group",
                (Var("c"), Var("t"), Var("cr"), Now(), merged, buffered),
            ),
        ),
        outputs=(OutputArc("ch_out", Op("tuple", (Var("c"), merged, buffered))),),
    )
    close_late = Transition(
        "close_late",
        inputs=(InputArc("v_groups", group_pattern),),
        guard=expired,
        delay=(expiry_grace, expiry_grace),
        actions=(
            ActionCall(
                "close_group",
                (Var("c"), Var("t"), Var("cr"), Now(), merged, buffered),
            ),
        ),
        outputs=(OutputArc("ch_out", Op("tuple", (Var("c"), merged, buffered))),),
    )

    msg_pattern = (Var("m"), c, Var("o"), t, Var("b"), Var("r"))
    fresh = Op("<", (Op("-", (Now(), Var("cr"))), Const(timeout)))
    store_first = Transition(
        "store_first",
        inputs=(InputArc("ch_in", msg_pattern),),
        guard=Op("=", (DbCount("aseqs", (c, Wild(), Wild())), Const(0))),
        actions=(ActionCall("open_group", (c, t, Now(), Var("o"), Var("b"))),),
    )
    store_more = Transition(
        "store_more",
        inputs=(InputArc("ch_in", msg_pattern), InputArc("v_groups", (c, Var("t2"), Var("cr")))),
        guard=fresh,
        actions=(ActionCall("put_msg", (c, Var("o"), Var("b"))),),
    )
    store_stale = Transition(
        "store_stale",
        inputs=(InputArc("ch_in", msg_pattern), InputArc("v_groups", (c, Var("t2"), Var("cr")))),
        guard=Op("and", (expired, Op("=", (Var("r"), Const(0))))),
        actions=(
            ActionCall("put_msg", (c, Var("o"), Var("b"))),
            ActionCall("touch_group", (c, Var("t2"), Var("cr"))),
        ),
        rollbacks=(
            OutputArc(
                "ch_in",
                Op(
                    "tuple",
                    (Var("m"), c, Var("o"), t, Var("b"), Op("+", (Var("r"), Const(1)))),
                ),
            ),
        ),
    )

    return message_bundle(
        "aggregator",
        (("corr", INT), ("ord", INT), ("total", INT), ("body", TEXT)),
        "ch_in",
        places=(
            Place(
                "v_groups",
                product(INT, INT, TS, labels=("corr", "total", "created")),
                kind="view",
                query="q_groups",
            ),
            Place("ch_out", product(INT, TEXT, INT, labels=("corr", "body", "n"))),
        ),
        transitions=(store_first, store_more, store_stale, close_done, close_late),
        relations=(aseqs, amsgs, agg_out),
        queries=(q_groups,),
        actions=(open_group, put_msg, touch_group, close_group),
        tail=(("tries", INT, Const(0)),),
    )
