"""Circuit breaker around a scripted remote endpoint.

Calls against the endpoint consume its script (``script`` relation, last row
repeats): a ``fail`` row raises the failure counter immediately, a
``respond`` row parks the message in ``awaiting`` until the scripted reply
delay elapses, or until the receive timeout passes for replies that will
never make it.  Once the failure counter exceeds the threshold the breaker
flips ``circuits`` to open, and every message is refused without touching
the endpoint until an operator closes it again (``manual_close``).  Each
endpoint call is journalled in ``calls_log`` so a trace shows exactly when
the endpoint was exercised.
"""

from __future__ import annotations

from ..exprs import Age, Const, DbCount, Op, Param, Var
from ..net import ActionCall, InputArc, OutputArc, Place, Snapshot, Transition
from ..persistence import Action, Atom, Column, FactTemplate, Query, Relation
from ..values import INT, TEXT, product
from .base import EndpointStub, PatternBundle, message_bundle, replace_rows

EPID = "ep"
MSG = product(INT, TEXT, labels=("mid", "body"))


def build_circuit_breaker(threshold: int, receive_timeout: int, endpoint: EndpointStub) -> PatternBundle:
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if receive_timeout < 0:
        raise ValueError("receive_timeout must be >= 0")

    circuits = Relation("circuits", (Column("epid", TEXT), Column("status", TEXT)), ("epid",))
    endpoints = Relation("endpoints", (Column("epid", TEXT), Column("failures", INT)), ("epid",))
    calls = Relation("calls", (Column("epid", TEXT), Column("n", INT)), ("epid",))
    script = Relation(
        "script",
        (Column("idx", INT), Column("kind", TEXT), Column("delay", INT)),
        ("idx",),
    )
    out_log = Relation("out_log", (Column("mid", INT), Column("body", TEXT)), ("mid",))
    exc_log = Relation("exc_log", (Column("mid", INT), Column("reason", TEXT)), ("mid",))
    calls_log = Relation("calls_log", (Column("call", INT), Column("mid", INT)), ("call",))

    q_circuit = Query(
        "q_circuit", atoms=(Atom("circuits", (Var("e"), Var("st"))),), output=("e", "st")
    )
    q_endpoint = Query(
        "q_endpoint", atoms=(Atom("endpoints", (Var("e"), Var("x"))),), output=("e", "x")
    )
    q_calls = Query("q_calls", atoms=(Atom("calls", (Var("e"), Var("n"))),), output=("e", "n"))
    q_script = Query(
        "q_script",
        atoms=(Atom("script", (Var("j"), Var("k"), Var("d"))),),
        output=("j", "k", "d"),
    )

    count_call = Action(
        "count_call",
        params=(("e", TEXT), ("n", INT), ("n2", INT), ("m", INT)),
        dels=(FactTemplate("calls", (Param("e"), Param("n"))),),
        adds=(
            FactTemplate("calls", (Param("e"), Param("n2"))),
            FactTemplate("calls_log", (Param("n"), Param("m"))),
        ),
    )
    set_failures = Action(
        "set_failures",
        params=(("e", TEXT), ("x", INT), ("x2", INT)),
        dels=(FactTemplate("endpoints", (Param("e"), Param("x"))),),
        adds=(FactTemplate("endpoints", (Param("e"), Param("x2"))),),
    )
    set_status = Action(
        "set_status",
        params=(("e", TEXT), ("st", TEXT), ("st2", TEXT)),
        dels=(FactTemplate("circuits", (Param("e"), Param("st"))),),
        adds=(FactTemplate("circuits", (Param("e"), Param("st2"))),),
    )
    log_out = Action(
        "log_out",
        params=(("m", INT), ("b", TEXT)),
        adds=(FactTemplate("out_log", (Param("m"), Param("b"))),),
    )
    log_exc = Action(
        "log_exc",
        params=(("m", INT), ("why", TEXT)),
        adds=(FactTemplate("exc_log", (Param("m"), Param("why"))),),
    )

    last_idx = len(endpoint.steps) - 1
    cursor = Op("min", (Var("n"), Const(last_idx)))
    closed = Op("=", (Var("st"), Const("closed")))
    call_msg = (
        InputArc("ch_in", (Var("m"), Var("b"))),
        InputArc("v_circuit", (Var("e"), Var("st"))),
        InputArc("v_calls", (Var("e"), Var("n"))),
        InputArc("v_script", (Var("j"), Var("k"), Var("d"))),
    )
    bump = ActionCall(
        "set_failures", (Var("e"), Var("x"), Op("+", (Var("x"), Const(1))))
    )
    count = ActionCall(
        "count_call", (Var("e"), Var("n"), Op("+", (Var("n"), Const(1))), Var("m"))
    )

    send_fail = Transition(
        "send_fail",
        inputs=call_msg + (InputArc("v_endpoint", (Var("e"), Var("x"))),),
        guard=Op(
            "and",
            (closed, Op("=", (Var("j"), cursor)), Op("=", (Var("k"), Const("fail")))),
        ),
        actions=(count, bump, ActionCall("log_exc", (Var("m"), Const("endpoint_failure")))),
        outputs=(OutputArc("exc", Op("tuple", (Var("m"), Var("b")))),),
    )
    send_wait = Transition(
        "send_wait",
        inputs=call_msg,
        guard=Op(
            "and",
            (closed, Op("=", (Var("j"), cursor)), Op("=", (Var("k"), Const("respond")))),
        ),
        actions=(count,),
        outputs=(OutputArc("awaiting", Op("tuple", (Var("m"), Var("b"), Var("d")))),),
    )
    reject = Transition(
        "reject",
        inputs=(InputArc("ch_in", (Var("m"), Var("b"))), InputArc("v_circuit", (Var("e"), Var("st")))),
        guard=Op("=", (Var("st"), Const("open"))),
        actions=(ActionCall("log_exc", (Var("m"), Const("circuit_open"))),),
        outputs=(OutputArc("exc", Op("tuple", (Var("m"), Var("b")))),),
    )
    receive = Transition(
        "receive",
        inputs=(
            InputArc("awaiting", (Var("m"), Var("b"), Var("d"))),
            InputArc("v_endpoint", (Var("e"), Var("x"))),
        ),
        guard=Op(
            "and",
            (Op(">=", (Age("m"), Var("d"))), Op("<=", (Var("d"), Const(receive_timeout)))),
        ),
        actions=(
            ActionCall("log_out", (Var("m"), Var("b"))),
            ActionCall("set_failures", (Var("e"), Var("x"), Const(0))),
        ),
        outputs=(OutputArc("ch_out", Op("tuple", (Var("m"), Var("b")))),),
    )
    receive_late = Transition(
        "receive_late",
        inputs=(
            InputArc("awaiting", (Var("m"), Var("b"), Var("d"))),
            InputArc("v_endpoint", (Var("e"), Var("x"))),
        ),
        guard=Op(
            "and",
            (
                Op(">=", (Age("m"), Const(receive_timeout + 1))),
                Op(">", (Var("d"), Const(receive_timeout))),
            ),
        ),
        actions=(bump, ActionCall("log_exc", (Var("m"), Const("receive_timeout")))),
        outputs=(OutputArc("exc", Op("tuple", (Var("m"), Var("b")))),),
    )
    # Sorts before send_*: the trip preempts further endpoint calls at the
    # same instant.
    open_circuit = Transition(
        "open_circuit",
        inputs=(
            InputArc("v_endpoint", (Var("e"), Var("x"))),
            InputArc("v_circuit", (Var("e"), Var("st"))),
        ),
        guard=Op("and", (Op(">", (Var("x"), Const(threshold))), closed)),
        actions=(ActionCall("set_status", (Var("e"), Var("st"), Const("open"))),),
    )

    facts = [
        ("circuits", (EPID, "closed"), 0),
        ("endpoints", (EPID, 0), 0),
        ("calls", (EPID, 0), 0),
    ]
    facts.extend(("script", row, 0) for row in endpoint.script_rows())
    return message_bundle(
        "circuit_breaker",
        (("body", TEXT),),
        "ch_in",
        places=(
            Place("v_circuit", product(TEXT, TEXT, labels=("epid", "status")), kind="view", query="q_circuit"),
            Place("v_endpoint", product(TEXT, INT, labels=("epid", "failures")), kind="view", query="q_endpoint"),
            Place("v_calls", product(TEXT, INT, labels=("epid", "n")), kind="view", query="q_calls"),
            Place("v_script", product(INT, TEXT, INT, labels=("idx", "kind", "delay")), kind="view", query="q_script"),
            Place("awaiting", product(INT, TEXT, INT, labels=("mid", "body", "delay"))),
            Place("ch_out", MSG),
            Place("exc", MSG),
        ),
        transitions=(send_fail, send_wait, reject, receive, receive_late, open_circuit),
        relations=(circuits, endpoints, calls, script, out_log, exc_log, calls_log),
        queries=(q_circuit, q_endpoint, q_calls, q_script),
        actions=(count_call, set_failures, set_status, log_out, log_exc),
        facts=facts,
    )


def manual_close(bundle: PatternBundle, snapshot: Snapshot) -> Snapshot:
    """Operator intervention: force the circuit back to closed and clear the
    failure counter (otherwise the breaker would trip again on the spot)."""
    snap = replace_rows(bundle, snapshot, "circuits", [(EPID, "closed")])
    return replace_rows(bundle, snap, "endpoints", [(EPID, 0)])


def with_endpoint(bundle: PatternBundle, snapshot: Snapshot, endpoint: EndpointStub) -> Snapshot:
    """Swap the endpoint script between runs (the live net keeps reading the
    ``script`` relation, so this models the remote service changing)."""
    return replace_rows(bundle, snapshot, "script", endpoint.script_rows())
