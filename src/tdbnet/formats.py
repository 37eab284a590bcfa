"""On-disk representations.

* ``.tdbnet.json``  - net definition: colorsets, relations, queries,
  actions, places, transitions, initial_marking, initial_instance.
* ``.trace.jsonl``  - one header line (net hash, policy, seed, initial
  snapshot, schema), one line per firing event, one footer line with the
  final snapshot and its digest.
* ``.report.json``  - validation verdicts.

Serialization is canonical: equal in-memory values produce identical bytes
(sorted keys, minimal separators).  Parsers never partially succeed; any
problem raises :class:`DocumentError` carrying path-addressed diagnostics.

Each node kind of a net document is described once, as a codec: a
``(dump, load)`` pair whose ``load(node, path)`` raises a DocumentError
located at ``path``.  ``net_to_json`` and ``parse_net`` walk the same
section codecs, so a malformed shape anywhere in a document (an object
where a list belongs, a missing field, a float delay) is a located error.
The codecs are built from a few primitives:

==================  ========================================================
``_STR``, ``_INT``  a string, an integer; ``_VALUE`` a token value
``_optional(c)``    ``c`` or null for None; a record may omit it
``_list(c)``        a list of ``c``, with the diagnostics of every item
``_items(*cs)``     a list with one codec per position (a pair, the args
                    of an expression); ``_mapping(c)`` an object of ``c``
``_record(make)``   an object of fields, each read by its own codec
``_EXPR``           ``{"op": ..., "args": [...]}``; ``_EXPRS`` maps an op
                    to its node class and the codec of its args, and any
                    other op is an ``Op`` over expressions
==================  ========================================================

The relations of a net document and of a trace header share one codec.
Value tuples map to JSON arrays, as ``json`` writes any tuple.  Trace
events are read by the hand-written ``event_from_json``, which runs once
per event; a trace's header and footer go through codecs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple, Optional

from .engine import FiringEvent, Trace, TraceMeta
from .exprs import (
    Age,
    Const,
    DbCount,
    DbMergeText,
    DefinitionError,
    Now,
    Op,
    OPERATORS,
    Param,
    Var,
    Wild,
)
from .net import (
    ActionCall,
    InputArc,
    Marking,
    Net,
    OutputArc,
    Place,
    Snapshot,
    Token,
    Transition,
    initial_snapshot,
    validate_net,
)
from .persistence import (
    Action,
    Atom,
    Column,
    FactTemplate,
    Filter,
    Instance,
    Query,
    Relation,
    Schema,
)
from .values import BOOL, INT, TEXT, TS, product

NET_SUFFIX = ".tdbnet.json"
TRACE_SUFFIX = ".trace.jsonl"
REPORT_SUFFIX = ".report.json"

_SCALARS = {"int": INT, "text": TEXT, "bool": BOOL, "ts": TS}


class DocumentError(ValueError):
    """Parse failure; ``diagnostics`` lists path-addressed problems."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


# json.dumps builds a new JSONEncoder on every call that passes options; one
# shared encoder writes the same bytes without that cost per trace line
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


# ---------------------------------------------------------------------------
# values


def json_to_value(v, path: str):
    """The value a JSON value stands for: an int, a string or a bool, or a
    list of them as a tuple.  Anything else (a float, null, an object) is
    a DocumentError located at ``path``."""
    t = type(v)
    if t is list:
        return tuple([json_to_value(x, path) for x in v])
    if t is int or t is str or t is bool:
        return v
    raise DocumentError([f"{path}: {json.dumps(v)} is not a value (an int, a string, a bool or a list of them)"])


# ---------------------------------------------------------------------------
# codecs


@dataclass(frozen=True)
class _Codec:
    dump: Callable  # in-memory value -> JSON value
    load: Callable  # (JSON value, path) -> in-memory value, or DocumentError
    optional: bool = False  # a record may omit the field, which keeps its default


def _same(x):
    return x


def _scalar(kind: type, what: str) -> _Codec:
    def load(node, path):
        if type(node) is not kind:
            raise DocumentError([f"{path}: {json.dumps(node)} is not {what}"])
        return node

    return _Codec(_same, load)


_STR = _scalar(str, "a string")
_INT = _scalar(int, "an integer")
_VALUE = _Codec(_same, json_to_value)


def _expect(node, kind: type, path: str) -> None:
    if type(node) is not kind:
        raise DocumentError([f"{path}: expected {'a list' if kind is list else 'an object'}"])


def _collect(items) -> list:
    """``[load(node, path) for load, node, path in items]``, or one
    DocumentError with the diagnostics of every item that fails."""
    out, diags = [], []
    for load, node, path in items:
        try:
            out.append(load(node, path))
        except DocumentError as e:
            diags.extend(e.diagnostics)
    if diags:
        raise DocumentError(diags)
    return out


def _made(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with the DefinitionError (or other
    ValueError) that it raises located at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise DocumentError([f"{path}: {e}"]) from None


def _optional(codec: _Codec) -> _Codec:
    """``codec``, or null for None.  An empty tuple (the labels of a color
    that has none) is written as null, and an empty list is read as None."""
    return _Codec(
        lambda x: None if x is None or x == () else codec.dump(x),
        lambda node, path: None if node is None or node == [] else codec.load(node, path),
        optional=True,
    )


def _list(item: _Codec) -> _Codec:
    def load(node, path):
        _expect(node, list, path)
        return tuple(_collect((item.load, x, f"{path}[{i}]") for i, x in enumerate(node)))

    return _Codec(lambda xs: [item.dump(x) for x in xs], load)


def _items(*codecs: _Codec) -> _Codec:
    """A list of ``len(codecs)`` items, read as a tuple, one codec per
    position."""

    def load(node, path):
        _expect(node, list, path)
        if len(node) != len(codecs):
            raise DocumentError([f"{path}: expected a list of length {len(codecs)}, found {len(node)}"])
        return tuple(_collect((c.load, x, f"{path}[{i}]") for i, (c, x) in enumerate(zip(codecs, node))))

    return _Codec(lambda xs: [c.dump(x) for c, x in zip(codecs, xs)], load)


def _mapping(codec: _Codec) -> _Codec:
    """An object whose values are ``codec``, read in key order."""

    def load(node, path):
        _expect(node, dict, path)
        keys = sorted(node)
        return dict(zip(keys, _collect((codec.load, node[k], f"{path}.{k}") for k in keys)))

    return _Codec(lambda m: {k: codec.dump(v) for k, v in m.items()}, load)


def _record(make, **codecs) -> _Codec:
    """An object with one key per keyword, read and written by the codec
    given for it.  The key names the attribute it stands for, unless the
    keyword gives ``(attribute, codec)``.  ``make(**attributes)`` builds
    the value; what it rejects is located at the object."""
    spec = [(key, *(c if type(c) is tuple else (key, c))) for key, c in codecs.items()]

    def load(node, path):
        _expect(node, dict, path)
        values, diags = {}, []
        for key, attr, codec in spec:
            if key not in node:
                if not codec.optional:
                    diags.append(f"{path}: missing field {key!r}")
                continue
            try:
                values[attr] = codec.load(node[key], f"{path}.{key}")
            except DocumentError as e:
                diags.extend(e.diagnostics)
        if diags:
            raise DocumentError(diags)
        return _made(path, make, **values)

    return _Codec(lambda x: {key: codec.dump(getattr(x, attr)) for key, attr, codec in spec}, load)


# ---------------------------------------------------------------------------
# colors and expressions


def _colors(table: dict) -> _Codec:
    """A color stored as its name in ``table``."""
    names = {color: name for name, color in table.items()}

    def load(node, path):
        name = _STR.load(node, path)
        if name not in table:
            raise DocumentError([f"{path}: unknown color {name!r}"])
        return table[name]

    return _Codec(names.__getitem__, load)


_SCALAR = _colors(_SCALARS)
_COLORSET = _record(
    lambda components, labels=None: product(*components, labels=labels),
    components=_list(_SCALAR),
    labels=_optional(_list(_STR)),
)
_COLORSETS = _mapping(_COLORSET)


def _dump_expr(e):
    if type(e) is Op:
        return {"op": e.op, "args": _TERMS.dump(e.args)}
    if type(e) not in _OPS:
        raise DefinitionError(f"cannot serialize expression node {e!r}")
    op = _OPS[type(e)]
    return {"op": op, "args": _EXPRS[op][1].dump([getattr(e, f.name) for f in fields(e)])}


def _load_expr(node, path):
    if type(node) is not dict or "op" not in node:
        raise DocumentError([f"{path}: expected an expression object with 'op'"])
    op = _STR.load(node["op"], f"{path}.op")
    args = node.get("args", [])
    if op not in _EXPRS:
        if op not in OPERATORS:
            raise DocumentError([f"{path}.op: unknown operator {op!r}"])
        return Op(op, _TERMS.load(args, f"{path}.args"))
    make, codec = _EXPRS[op]
    return make(*codec.load(args, f"{path}.args"))


_EXPR = _Codec(_dump_expr, _load_expr)
_TERMS = _list(_EXPR)
# op -> (node class, the codec of its fields as the op's args)
_EXPRS = {
    "const": (Const, _items(_VALUE)),
    "var": (Var, _items(_STR)),
    "param": (Param, _items(_STR)),
    "wild": (Wild, _items()),
    "now": (Now, _items()),
    "age": (Age, _items(_STR)),
    "count": (DbCount, _items(_STR, _TERMS)),
    "merge_text": (DbMergeText, _items(_STR, _TERMS, _INT, _INT, _STR)),
}
_OPS = {make: op for op, (make, _) in _EXPRS.items()}
# an input arc's pattern: a term, or a tuple of terms as a list
_PATTERN = _Codec(
    lambda p: _TERMS.dump(p) if type(p) is tuple else _EXPR.dump(p),
    lambda node, path: _TERMS.load(node, path) if type(node) is list else _EXPR.load(node, path),
)


# ---------------------------------------------------------------------------
# tokens and facts


def token_to_json(tok: Token):
    value, at = tok
    return {"value": value, "at": at}


def token_from_json(node, path: str) -> Token:
    if not isinstance(node, dict) or "value" not in node or type(node.get("at")) is not int:
        raise DocumentError([f"{path}: expected a token object with a value and an integer at"])
    return Token(json_to_value(node["value"], path), node["at"])


def fact_from_json(node, path: str) -> tuple:
    if not (isinstance(node, list) and len(node) == 3 and isinstance(node[1], list) and type(node[2]) is int):
        raise DocumentError([f"{path}: expected [relation, values, at] with an integer at"])
    return node[0], json_to_value(node[1], path), node[2]


def _stored_fact(node, path: str) -> tuple:
    """``fact_from_json`` with its relation's name checked, for an Instance."""
    fact = fact_from_json(node, path)
    _STR.load(fact[0], f"{path}[0]")
    return fact


class _Parts(NamedTuple):
    """A snapshot as stored; a net document's ``initial_instance`` holds
    the clock and the facts, and its marking is a section of its own."""

    clock: int = 0
    facts: tuple = ()
    marking: Optional[dict] = None


_FACTS = _list(_Codec(_same, _stored_fact))
_MARKING = _mapping(_list(_Codec(token_to_json, token_from_json)))
_SNAPSHOT = _record(_Parts, clock=_INT, facts=_FACTS, marking=_MARKING)


# ---------------------------------------------------------------------------
# net documents

_RELATIONS = _list(
    _record(
        Relation,
        name=_STR,
        columns=_list(_record(Column, name=_STR, type=("color", _SCALAR))),
        key=_list(_STR),
    )
)
# the relations of a net document and of a trace header
_SCHEMA = _Codec(
    lambda schema: _RELATIONS.dump(schema.relations),
    lambda node, path: _made(path, Schema, _RELATIONS.load(node, path)),
)
_PARAMS = _list(_items(_STR, _SCALAR))
_TEMPLATES = _list(_record(FactTemplate, relation=_STR, terms=_TERMS))
_QUERIES = _list(
    _record(
        Query,
        name=_STR,
        params=_PARAMS,
        atoms=_list(_record(Atom, relation=_STR, terms=_TERMS)),
        filters=_list(_record(Filter, op=_STR, lhs=_EXPR, rhs=_EXPR)),
        output=_list(_STR),
        order_by=_optional(_list(_INT)),
    )
)
_ACTIONS = _list(_record(Action, name=_STR, params=_PARAMS, adds=_TEMPLATES, dels=_TEMPLATES))
_ARCS = _list(_record(OutputArc, place=_STR, expr=_EXPR, when=_optional(_EXPR)))
_TRANSITIONS = _list(
    _record(
        Transition,
        id=_STR,
        inputs=_list(_record(InputArc, place=_STR, pattern=_PATTERN)),
        guard=_EXPR,
        delay=_items(_INT, _INT),
        outputs=_ARCS,
        rollbacks=_ARCS,
        actions=_list(_record(ActionCall, action=_STR, args=_TERMS)),
    )
)
# the clock and the facts may be left out, for 0 and none
_INSTANCE = _record(_Parts, clock=replace(_INT, optional=True), facts=replace(_FACTS, optional=True))
_SECTIONS = "colorsets relations queries actions places transitions initial_marking initial_instance".split()


def _places(colorsets: dict) -> _Codec:
    """The places of a document whose product colors are ``colorsets``."""
    color = _colors({**_SCALARS, **colorsets})
    return _list(_record(Place, id=_STR, color=color, kind=_STR, query=_optional(_STR)))


def _collect_colorsets(net: Net) -> dict:
    """The product colors of the net's places, named ``cs0``, ``cs1``, ...
    in the order of their stored definitions."""
    found = {p.color for p in net.places if p.color.kind == "product"}
    ordered = sorted(found, key=lambda c: canonical_json(_COLORSET.dump(c)))
    return {f"cs{i}": c for i, c in enumerate(ordered)}


def net_to_json(net: Net, initial: Snapshot) -> dict:
    colorsets = _collect_colorsets(net)
    tokens = initial.marking.tokens
    marking = {p.id: tokens(p.id) for p in net.places if p.kind == "normal" and tokens(p.id)}
    return {
        "colorsets": _COLORSETS.dump(colorsets),
        "relations": _SCHEMA.dump(net.schema),
        "queries": _QUERIES.dump(net.queries),
        "actions": _ACTIONS.dump(net.actions),
        "places": _places(colorsets).dump(net.places),
        "transitions": _TRANSITIONS.dump(net.transitions),
        "initial_marking": _MARKING.dump(marking),
        "initial_instance": _INSTANCE.dump(_Parts(initial.clock, initial.instance.all_rows())),
    }


def serialize_net(net: Net, initial: Snapshot) -> str:
    return canonical_json(net_to_json(net, initial)) + "\n"


def _read(doc: dict, **sections: _Codec) -> list:
    """The named sections of a net document, each read by its codec, or one
    DocumentError with the diagnostics of every section that fails."""
    return _collect((codec.load, doc[key], key) for key, codec in sections.items())


def parse_net(text: str) -> tuple[Net, Snapshot]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError([f"line {e.lineno}, column {e.colno}: {e.msg}"]) from None
    if not isinstance(doc, dict):
        raise DocumentError(["document root must be an object"])
    missing = [f"missing section {key!r}" for key in _SECTIONS if key not in doc]
    if missing:
        raise DocumentError(missing)
    colorsets, schema = _read(doc, colorsets=_COLORSETS, relations=_SCHEMA)
    queries, actions, places, transitions = _read(
        doc, queries=_QUERIES, actions=_ACTIONS, places=_places(colorsets), transitions=_TRANSITIONS
    )
    net = _made("net", Net, places=places, transitions=transitions, schema=schema, queries=queries, actions=actions)
    _made("net", validate_net, net)
    tokens, start = _read(doc, initial_marking=_MARKING, initial_instance=_INSTANCE)
    snap = _made("initial_instance", initial_snapshot, net, facts=start.facts, tokens=tokens, clock=start.clock)
    return net, snap


# ---------------------------------------------------------------------------
# snapshots and traces


def _integer(node, key: str, path: str) -> int:
    """``node[key]``, which must be an int."""
    value = node[key]
    if type(value) is not int:
        raise DocumentError([f"{path}.{key}: {json.dumps(value)} is not an integer"])
    return value


def snapshot_to_json(snap: Snapshot):
    return {
        "clock": snap.clock,
        "facts": list(snap.instance.all_rows()),
        "marking": {
            pid: [token_to_json(t) for t in snap.marking.tokens(pid)]
            for pid in snap.marking.place_ids()
            if snap.marking.tokens(pid)
        },
    }


def snapshot_from_json(node, schema: Schema, path: str) -> Snapshot:
    clock, facts, marking = _SNAPSHOT.load(node, path)
    return _made(path, lambda: Snapshot(Instance.from_facts(schema, facts), Marking(marking), clock))


def _pairs_to_json(pairs):
    return [[pid, token_to_json(tok)] for pid, tok in pairs]


def _pairs_from_json(node, path: str):
    return tuple(
        (pid, token_from_json(tok, f"{path}[{i}]")) for i, (pid, tok) in enumerate(node)
    )


def event_to_json(ev: FiringEvent):
    step, time, transition, binding, consumed, produced, added, deleted, outcome = ev
    return {
        "kind": "event",
        "step": step,
        "time": time,
        "transition": transition,
        "binding": binding,
        "consumed": _pairs_to_json(consumed),
        "produced": _pairs_to_json(produced),
        "added": added,
        "deleted": deleted,
        "outcome": outcome,
    }


def event_from_json(node, path: str) -> FiringEvent:
    try:
        return FiringEvent(
            step=_integer(node, "step", path),
            time=_integer(node, "time", path),
            transition=node["transition"],
            binding=tuple((k, json_to_value(v, path)) for k, v in node["binding"]),
            consumed=_pairs_from_json(node["consumed"], f"{path}.consumed"),
            produced=_pairs_from_json(node["produced"], f"{path}.produced"),
            added=tuple(fact_from_json(row, f"{path}.added[{i}]") for i, row in enumerate(node["added"])),
            deleted=tuple(fact_from_json(row, f"{path}.deleted[{i}]") for i, row in enumerate(node["deleted"])),
            outcome=node["outcome"],
        )
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise DocumentError([f"{path}: {e}"]) from None


def snapshot_digest(snap: Snapshot) -> str:
    return _digest(snapshot_to_json(snap))


def _digest(snapshot_json) -> str:
    return hashlib.sha256(canonical_json(snapshot_json).encode()).hexdigest()


def serialize_trace(trace: Trace) -> str:
    header = {
        "kind": "header",
        "net": trace.meta.net_hash,
        "policy": trace.meta.policy,
        "seed": trace.meta.seed,
        "schema": _SCHEMA.dump(trace.initial.instance.schema),
        "initial": snapshot_to_json(trace.initial),
    }
    lines = [canonical_json(header)]
    lines.extend(canonical_json(event_to_json(ev)) for ev in trace.events)
    final = snapshot_to_json(trace.final)
    footer = {"kind": "footer", "events": len(trace.events), "final": final, "digest": _digest(final)}
    lines.append(canonical_json(footer))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Trace:
    records = []
    last_ok = "start of file"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            records.append((lineno, json.loads(raw)))
        except json.JSONDecodeError as e:
            raise DocumentError(
                [f"line {lineno}: corrupted record ({e.msg}); last complete record: {last_ok}"]
            ) from None
        kind = records[-1][1].get("kind") if isinstance(records[-1][1], dict) else None
        last_ok = f"{kind or 'unknown'} at line {lineno}"
    if not records:
        raise DocumentError(["empty trace file"])
    lineno, header = records[0]
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise DocumentError([f"line {lineno}: expected header record"])
    _, footer = records[-1]
    if not isinstance(footer, dict) or footer.get("kind") != "footer":
        raise DocumentError(
            [f"truncated trace: no footer; last complete record: {last_ok}"]
        )
    for record, name, key in ((header, "header", "initial"), (footer, "footer", "final")):
        if key not in record:
            raise DocumentError([f"{name}: missing field {key!r}"])
    schema = _SCHEMA.load(header.get("schema", []), "header.schema")
    initial = snapshot_from_json(header["initial"], schema, "header.initial")
    events = []
    for lineno, node in records[1:-1]:
        if not isinstance(node, dict) or node.get("kind") != "event":
            raise DocumentError([f"line {lineno}: expected an event record"])
        events.append(event_from_json(node, f"line {lineno}"))
    if footer.get("events") != len(events):
        raise DocumentError(
            [
                f"truncated trace: footer declares {footer.get('events')} events, "
                f"found {len(events)}"
            ]
        )
    final = snapshot_from_json(footer["final"], schema, "footer.final")
    if snapshot_digest(final) != footer.get("digest"):
        raise DocumentError(["footer digest does not match the final snapshot"])
    meta = TraceMeta(header.get("net", ""), header.get("policy", "eager"), header.get("seed"))
    return Trace(meta, initial, tuple(events), final)


# ---------------------------------------------------------------------------
# reports


def report_to_json(verdicts, meta: Optional[dict] = None) -> dict:
    return {
        "meta": meta or {},
        "all_pass": all(v.ok for v in verdicts),
        "verdicts": [
            {
                "check": v.check,
                "pass": v.ok,
                "details": v.details,
                "measured": [[name, num] for name, num in v.measured],
            }
            for v in verdicts
        ],
    }


def serialize_report(verdicts, meta: Optional[dict] = None) -> str:
    return canonical_json(report_to_json(verdicts, meta)) + "\n"
