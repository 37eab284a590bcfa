"""Rate limiting patterns: throttler (token-bucket of size one) and delayer.

The throttler admits a message only while it holds the capacity slot,
records the emission, and returns the slot after a fixed gate interval, so
admissions are spaced ``1000 // rate`` clock units (milliseconds) apart.  The delayer holds
each message until its age reaches the configured delay; messages do not
queue behind each other.
"""

from __future__ import annotations

from ..exprs import Age, Const, Op, Param, Var
from ..net import ActionCall, InputArc, OutputArc, Place, Transition
from ..persistence import Action, Column, FactTemplate, Relation
from ..values import INT, TEXT, product
from .base import PatternBundle, message_bundle

BODY = (("body", TEXT),)
MSG = product(INT, TEXT, labels=("mid", "body"))
OUT_LOG = Relation("out_log", (Column("mid", INT), Column("body", TEXT)), ("mid",))
EMIT_OUT = Action(
    "emit_out",
    params=(("m", INT), ("b", TEXT)),
    adds=(FactTemplate("out_log", (Param("m"), Param("b"))),),
)


def build_throttler(rate: int) -> PatternBundle:
    """rate = messages admitted per second (1000 clock units) of model time."""
    if rate < 1:
        raise ValueError("rate must be >= 1")
    gate = 1000 // rate
    if gate < 1:
        raise ValueError("rate exceeds clock resolution")

    admit = Transition(
        "t_admit",
        inputs=(
            InputArc("ch1", (Var("m"), Var("b"))),
            InputArc("cap", Var("u")),
        ),
        actions=(ActionCall("emit_out", (Var("m"), Var("b"))),),
        outputs=(OutputArc("ch2", Op("tuple", (Var("m"), Var("b")))),),
    )
    release = Transition(
        "t_release",
        inputs=(InputArc("ch2", (Var("m"), Var("b"))),),
        delay=(gate, gate),
        outputs=(
            OutputArc("ch3", Op("tuple", (Var("m"), Var("b")))),
            OutputArc("cap", Const(0)),
        ),
    )
    return message_bundle(
        "throttler",
        BODY,
        "ch1",
        places=(Place("ch2", MSG), Place("ch3", MSG), Place("cap", INT)),
        transitions=(admit, release),
        relations=(OUT_LOG,),
        actions=(EMIT_OUT,),
        tokens={"cap": [(0, 0)]},
    )


def build_delayer(delay: int) -> PatternBundle:
    if delay < 0:
        raise ValueError("delay must be >= 0")

    forward = Transition(
        "t_forward",
        inputs=(InputArc("ch1", (Var("m"), Var("b"))),),
        guard=Op(">=", (Age("m"), Const(delay))),
        actions=(ActionCall("emit_out", (Var("m"), Var("b"))),),
        outputs=(OutputArc("ch3", Op("tuple", (Var("m"), Var("b")))),),
    )
    return message_bundle(
        "delayer",
        BODY,
        "ch1",
        places=(Place("ch3", MSG),),
        transitions=(forward,),
        relations=(OUT_LOG,),
        actions=(EMIT_OUT,),
    )
