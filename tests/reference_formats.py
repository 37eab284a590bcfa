"""The trace decoder as it was before each record was read without paths,
and the trace writer as it was before each record was written through one
prepared JSON encoder: the differential oracles for
``tdbnet.formats.parse_trace`` and ``serialize_trace``.

Frozen copies of ``parse_trace``, ``event_from_json`` and the snapshot and
schema codecs they used, which passed a path string down to every node and
formatted it for every token and row; and of ``serialize_trace`` with the
record builders it used, which wrote each record with
``JSONEncoder.encode``.  Only the package's value classes and
``DocumentError`` are shared, so the decoder and the writer are checked
against code they do not share.
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple, Optional

from tdbnet.engine import FiringEvent, Trace, TraceMeta
from tdbnet.formats import DocumentError
from tdbnet.net import Marking, Snapshot
from tdbnet.persistence import Column, Instance, Relation, Schema
from tdbnet.values import BOOL, INT, TEXT, TS

_SCALARS = {"int": INT, "text": TEXT, "bool": BOOL, "ts": TS}


def json_to_value(v, path: str):
    t = type(v)
    if t is list:
        return tuple([json_to_value(x, path) for x in v])
    if t is int or t is str or t is bool:
        return v
    raise DocumentError([f"{path}: {json.dumps(v)} is not a value (an int, a string, a bool or a list of them)"])


# codecs, reduced to their load side: (JSON value, path) -> value


def _scalar(kind: type, what: str):
    def load(node, path):
        if type(node) is not kind:
            raise DocumentError([f"{path}: {json.dumps(node)} is not {what}"])
        return node

    return load


_STR = _scalar(str, "a string")
_INT = _scalar(int, "an integer")


def _expect(node, kind: type, path: str) -> None:
    if type(node) is not kind:
        raise DocumentError([f"{path}: expected {'a list' if kind is list else 'an object'}"])


def _collect(items) -> list:
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
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise DocumentError([f"{path}: {e}"]) from None


def _list(item):
    def load(node, path):
        _expect(node, list, path)
        return tuple(_collect((item, x, f"{path}[{i}]") for i, x in enumerate(node)))

    return load


def _mapping(codec):
    def load(node, path):
        _expect(node, dict, path)
        keys = sorted(node)
        return dict(zip(keys, _collect((codec, node[k], f"{path}.{k}") for k in keys)))

    return load


def _record(make, **codecs):
    spec = [(key, *(c if type(c) is tuple else (key, c))) for key, c in codecs.items()]

    def load(node, path):
        _expect(node, dict, path)
        values, diags = {}, []
        for key, attr, codec in spec:
            if key not in node:
                diags.append(f"{path}: missing field {key!r}")
                continue
            try:
                values[attr] = codec(node[key], f"{path}.{key}")
            except DocumentError as e:
                diags.extend(e.diagnostics)
        if diags:
            raise DocumentError(diags)
        return _made(path, make, **values)

    return load


def _scalar_color(node, path):
    name = _STR(node, path)
    if name not in _SCALARS:
        raise DocumentError([f"{path}: unknown color {name!r}"])
    return _SCALARS[name]


_RELATIONS = _list(
    _record(
        Relation,
        name=_STR,
        columns=_list(_record(Column, name=_STR, type=("color", _scalar_color))),
        key=_list(_STR),
    )
)


def _schema(node, path):
    return _made(path, Schema, _RELATIONS(node, path))


# tokens, facts and snapshots


def token_from_json(node, path: str) -> tuple:
    if not isinstance(node, dict) or "value" not in node or type(node.get("at")) is not int:
        raise DocumentError([f"{path}: expected a token object with a value and an integer at"])
    return json_to_value(node["value"], path), node["at"]


def fact_from_json(node, path: str) -> tuple:
    if not (isinstance(node, list) and len(node) == 3 and isinstance(node[1], list) and type(node[2]) is int):
        raise DocumentError([f"{path}: expected [relation, values, at] with an integer at"])
    return node[0], json_to_value(node[1], path), node[2]


def _stored_fact(node, path: str) -> tuple:
    fact = fact_from_json(node, path)
    _STR(fact[0], f"{path}[0]")
    return fact


class _Parts(NamedTuple):
    clock: int = 0
    facts: tuple = ()
    marking: Optional[dict] = None


_SNAPSHOT = _record(_Parts, clock=_INT, facts=_list(_stored_fact), marking=_mapping(_list(token_from_json)))


def snapshot_from_json(node, schema: Schema, path: str) -> Snapshot:
    clock, facts, marking = _SNAPSHOT(node, path)
    return _made(path, lambda: Snapshot(Instance.from_facts(schema, facts), Marking(marking), clock))


# events and traces


def _integer(node, key: str, path: str) -> int:
    value = node[key]
    if type(value) is not int:
        raise DocumentError([f"{path}.{key}: {json.dumps(value)} is not an integer"])
    return value


def _pairs_from_json(node, path: str):
    return tuple((pid, token_from_json(tok, f"{path}[{i}]")) for i, (pid, tok) in enumerate(node))


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
        raise DocumentError([f"truncated trace: no footer; last complete record: {last_ok}"])
    for record, name, key in ((header, "header", "initial"), (footer, "footer", "final")):
        if key not in record:
            raise DocumentError([f"{name}: missing field {key!r}"])
    schema = _schema(header.get("schema", []), "header.schema")
    initial = snapshot_from_json(header["initial"], schema, "header.initial")
    events = []
    for lineno, node in records[1:-1]:
        if not isinstance(node, dict) or node.get("kind") != "event":
            raise DocumentError([f"line {lineno}: expected an event record"])
        events.append(event_from_json(node, f"line {lineno}"))
    if footer.get("events") != len(events):
        raise DocumentError([f"truncated trace: footer declares {footer.get('events')} events, found {len(events)}"])
    final = snapshot_from_json(footer["final"], schema, "footer.final")
    if snapshot_digest(final) != footer.get("digest"):
        raise DocumentError(["footer digest does not match the final snapshot"])
    meta = TraceMeta(header.get("net", ""), header.get("policy", "eager"), header.get("seed"))
    return Trace(meta, initial, tuple(events), final)


# the writer


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


_SCALAR_NAMES = {color: name for name, color in _SCALARS.items()}


def _schema_to_json(schema: Schema) -> list:
    return [
        {
            "name": rel.name,
            "columns": [{"name": c.name, "type": _SCALAR_NAMES[c.color]} for c in rel.columns],
            "key": list(rel.key),
        }
        for rel in schema.relations
    ]


def token_to_json(tok: tuple):
    value, at = tok
    return {"value": value, "at": at}


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


def _pairs_to_json(pairs):
    return [[pid, token_to_json(tok)] for pid, tok in pairs]


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


def snapshot_digest(snap: Snapshot) -> str:
    return _digest(canonical_json(snapshot_to_json(snap)))


def _digest(snapshot_text: str) -> str:
    return hashlib.sha256(snapshot_text.encode()).hexdigest()


def serialize_trace(trace: Trace) -> str:
    header = {
        "kind": "header",
        "net": trace.meta.net_hash,
        "policy": trace.meta.policy,
        "seed": trace.meta.seed,
        "schema": _schema_to_json(trace.initial.instance.schema),
        "initial": snapshot_to_json(trace.initial),
    }
    lines = [canonical_json(header)]
    lines.extend(canonical_json(event_to_json(ev)) for ev in trace.events)
    final = canonical_json(snapshot_to_json(trace.final))
    lines.append(f'{{"digest":"{_digest(final)}","events":{len(trace.events)},"final":{final},"kind":"footer"}}')
    return "\n".join(lines) + "\n"
