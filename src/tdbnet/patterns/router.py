"""Content-based router: one input channel fans out to per-condition
channels plus an exception channel for unmatched messages.

Two variants share the structure and differ only in the routing arcs:

* ``flawed``   - each branch arc tests its own condition in isolation, so a
  message satisfying several conditions is copied to every matching branch
  (the classic duplicate-delivery bug);
* ``correct``  - branch ``i`` additionally requires that no earlier
  condition matched, so exactly one arc can produce per firing.

Conditions are boolean expressions over the message value ``val`` (and
``mid`` if needed), or compact strings like ``"gt:10"``.
"""

from __future__ import annotations

from typing import Sequence

from ..exprs import Const, Op, Param, Var
from ..net import ActionCall, InputArc, OutputArc, Place, Transition
from ..persistence import Action, Column, FactTemplate, Relation
from ..values import INT, product
from .base import PatternBundle, message_bundle

MSG = product(INT, INT, labels=("mid", "val"))

_CONDITION_OPS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<=", "eq": "=", "ne": "!="}


def parse_condition(spec: str):
    """``"gt:10"`` -> val > 10, and so on for ge/lt/le/eq/ne."""
    name, sep, raw = spec.partition(":")
    if not sep or name not in _CONDITION_OPS:
        raise ValueError(f"bad condition {spec!r}, expected e.g. 'gt:10'")
    try:
        bound = int(raw)
    except ValueError:
        raise ValueError(f"bad condition bound in {spec!r}") from None
    return Op(_CONDITION_OPS[name], (Var("val"), Const(bound)))


def build_content_based_router(
    conditions: Sequence[object], *, variant: str = "correct"
) -> PatternBundle:
    if variant not in ("correct", "flawed"):
        raise ValueError(f"unknown variant {variant!r}")
    conds = [parse_condition(c) if isinstance(c, str) else c for c in conditions]
    if not conds:
        raise ValueError("need at least one condition")

    relations = []
    actions = []
    places = []
    pushes = []
    outputs = []

    none_matched = Op("and", tuple(Op("not", (c,)) for c in conds))
    for i, cond in enumerate(conds, start=1):
        rel = Relation(f"channel_{i}", (Column("mid", INT), Column("val", INT)), ("mid",))
        relations.append(rel)
        deliver = Action(
            f"deliver_{i}",
            params=(("m", INT), ("v", INT)),
            adds=(FactTemplate(f"channel_{i}", (Param("m"), Param("v"))),),
        )
        actions.append(deliver)
        places.extend((Place(f"br_{i}", MSG), Place(f"out_{i}", MSG)))
        if variant == "flawed":
            when = cond
        else:
            earlier = tuple(Op("not", (c,)) for c in conds[:i - 1])
            when = cond if not earlier else Op("and", earlier + (cond,))
        outputs.append(OutputArc(f"br_{i}", Op("tuple", (Var("m"), Var("val"))), when=when))
        pushes.append(
            Transition(
                f"push_{i}",
                inputs=(InputArc(f"br_{i}", (Var("m"), Var("v"))),),
                actions=(ActionCall(f"deliver_{i}", (Var("m"), Var("v"))),),
                outputs=(OutputArc(f"out_{i}", Op("tuple", (Var("m"), Var("v")))),),
            )
        )

    places.append(Place("exc", MSG))
    outputs.append(OutputArc("exc", Op("tuple", (Var("m"), Var("val"))), when=none_matched))
    route = Transition(
        "route",
        inputs=(InputArc("ch_in", (Var("m"), Var("val"))),),
        outputs=tuple(outputs),
    )
    return message_bundle(
        f"router_{variant}",
        (("val", INT),),
        "ch_in",
        places=places,
        transitions=[route, *pushes],
        relations=relations,
        actions=actions,
    )
