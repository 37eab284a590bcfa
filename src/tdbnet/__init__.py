"""tdbnet: an execution engine for timed db-nets (colored Petri nets layered
over a relational store with an integer clock), a catalog of executable
integration patterns built on it, and trace-based conformance checks."""

from .engine import FiringEvent, Trace, TraceMeta, advance_clock, enabled, fire, replay, run
from .net import InputArc, Marking, Net, OutputArc, Place, Snapshot, Transition, initial_snapshot
from .persistence import (
    Action,
    Atom,
    Column,
    ConstraintViolation,
    Filter,
    Instance,
    Query,
    Relation,
    Schema,
    apply_action,
    check_compliance,
    eval_query,
)
from .values import BOOL, INT, TEXT, TS, ColorType, product

__all__ = [
    "Action",
    "Atom",
    "BOOL",
    "Column",
    "ColorType",
    "ConstraintViolation",
    "Filter",
    "FiringEvent",
    "INT",
    "InputArc",
    "Instance",
    "Marking",
    "Net",
    "OutputArc",
    "Place",
    "Query",
    "Relation",
    "Schema",
    "Snapshot",
    "TEXT",
    "TS",
    "Trace",
    "TraceMeta",
    "Transition",
    "advance_clock",
    "apply_action",
    "check_compliance",
    "enabled",
    "eval_query",
    "fire",
    "initial_snapshot",
    "product",
    "replay",
    "run",
]
