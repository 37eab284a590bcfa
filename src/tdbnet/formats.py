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

Expressions are stored as prefix trees ``{"op": ..., "args": [...]}``; value
tuples map to JSON arrays, as ``json`` writes any tuple.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .engine import FiringEvent, Trace, TraceMeta
from .exprs import (
    Age,
    Const,
    DbCount,
    DbMergeText,
    DefinitionError,
    Now,
    Op,
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
    Filter,
    Instance,
    Query,
    Relation,
    Schema,
)
from .values import BOOL, INT, TEXT, TS, ColorType, product

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
# expressions


def expr_to_json(e):
    if isinstance(e, Const):
        return {"op": "const", "args": [e.value]}
    if isinstance(e, Var):
        return {"op": "var", "args": [e.name]}
    if isinstance(e, Param):
        return {"op": "param", "args": [e.name]}
    if isinstance(e, Wild):
        return {"op": "wild", "args": []}
    if isinstance(e, Now):
        return {"op": "now", "args": []}
    if isinstance(e, Age):
        return {"op": "age", "args": [e.var]}
    if isinstance(e, DbCount):
        return {"op": "count", "args": [e.relation, [expr_to_json(t) for t in e.terms]]}
    if isinstance(e, DbMergeText):
        return {
            "op": "merge_text",
            "args": [
                e.relation,
                [expr_to_json(t) for t in e.terms],
                e.order_col,
                e.text_col,
                e.sep,
            ],
        }
    if isinstance(e, Op):
        return {"op": e.op, "args": [expr_to_json(a) for a in e.args]}
    raise DefinitionError(f"cannot serialize expression node {e!r}")


def expr_from_json(node, path: str):
    if not isinstance(node, dict) or "op" not in node:
        raise DocumentError([f"{path}: expected an expression object with 'op'"])
    op = node["op"]
    args = node.get("args", [])
    if not isinstance(args, list):
        raise DocumentError([f"{path}.args: expected a list"])

    def arity(n):
        if len(args) != n:
            raise DocumentError([f"{path}: operator {op!r} takes {n} args, found {len(args)}"])

    if op == "const":
        arity(1)
        return Const(json_to_value(args[0], path))
    if op == "var":
        arity(1)
        return Var(args[0])
    if op == "param":
        arity(1)
        return Param(args[0])
    if op == "wild":
        arity(0)
        return Wild()
    if op == "now":
        arity(0)
        return Now()
    if op == "age":
        arity(1)
        return Age(args[0])
    if op == "count":
        arity(2)
        terms = tuple(
            expr_from_json(t, f"{path}.args[1][{i}]") for i, t in enumerate(args[1])
        )
        return DbCount(args[0], terms)
    if op == "merge_text":
        arity(5)
        terms = tuple(
            expr_from_json(t, f"{path}.args[1][{i}]") for i, t in enumerate(args[1])
        )
        return DbMergeText(args[0], terms, order_col=args[2], text_col=args[3], sep=args[4])
    try:
        sub = tuple(expr_from_json(a, f"{path}.args[{i}]") for i, a in enumerate(args))
        return Op(op, sub)
    except DefinitionError as e:
        raise DocumentError([f"{path}: {e}"]) from None


def pattern_to_json(pattern):
    if isinstance(pattern, tuple):
        return [expr_to_json(t) for t in pattern]
    return expr_to_json(pattern)


def pattern_from_json(node, path: str):
    if isinstance(node, list):
        return tuple(expr_from_json(t, f"{path}[{i}]") for i, t in enumerate(node))
    return expr_from_json(node, path)


# ---------------------------------------------------------------------------
# colors


def _color_to_json(color: ColorType, names: dict):
    return names[color] if color.kind == "product" else color.kind


def _color_def(color: ColorType):
    return {
        "components": [c.kind for c in color.components],
        "labels": list(color.labels) if color.labels else None,
    }


def _collect_colorsets(net: Net) -> dict:
    found = {}
    for place in net.places:
        c = place.color
        if c.kind == "product" and c not in found:
            found[c] = None
    ordered = sorted(found, key=lambda c: canonical_json(_color_def(c)))
    return {c: f"cs{i}" for i, c in enumerate(ordered)}


def _color_from_json(ref, colorsets: dict, path: str) -> ColorType:
    if isinstance(ref, str):
        if ref in _SCALARS:
            return _SCALARS[ref]
        if ref in colorsets:
            return colorsets[ref]
        raise DocumentError([f"{path}: unknown color {ref!r}"])
    raise DocumentError([f"{path}: color must be a name"])


# ---------------------------------------------------------------------------
# net documents


def net_to_json(net: Net, initial: Snapshot) -> dict:
    names = _collect_colorsets(net)
    colorsets = {name: _color_def(color) for color, name in names.items()}
    queries = [
        {
            "name": q.name,
            "params": [[n, c.kind] for n, c in q.params],
            "atoms": [
                {"relation": a.relation, "terms": [expr_to_json(t) for t in a.terms]}
                for a in q.atoms
            ],
            "filters": [
                {"op": f.op, "lhs": expr_to_json(f.lhs), "rhs": expr_to_json(f.rhs)}
                for f in q.filters
            ],
            "output": list(q.output),
            "order_by": list(q.order_by) if q.order_by else None,
        }
        for q in net.queries
    ]
    actions = [
        {
            "name": a.name,
            "params": [[n, c.kind] for n, c in a.params],
            "adds": [
                {"relation": t.relation, "terms": [expr_to_json(x) for x in t.terms]}
                for t in a.adds
            ],
            "dels": [
                {"relation": t.relation, "terms": [expr_to_json(x) for x in t.terms]}
                for t in a.dels
            ],
        }
        for a in net.actions
    ]
    places = [
        {
            "id": p.id,
            "color": _color_to_json(p.color, names),
            "kind": p.kind,
            "query": p.query,
        }
        for p in net.places
    ]
    transitions = [
        {
            "id": t.id,
            "inputs": [{"place": a.place, "pattern": pattern_to_json(a.pattern)} for a in t.inputs],
            "guard": expr_to_json(t.guard),
            "delay": list(t.delay),
            "outputs": [
                {
                    "place": a.place,
                    "expr": expr_to_json(a.expr),
                    "when": expr_to_json(a.when) if a.when is not None else None,
                }
                for a in t.outputs
            ],
            "rollbacks": [
                {
                    "place": a.place,
                    "expr": expr_to_json(a.expr),
                    "when": expr_to_json(a.when) if a.when is not None else None,
                }
                for a in t.rollbacks
            ],
            "actions": [
                {"action": c.action, "args": [expr_to_json(x) for x in c.args]}
                for c in t.actions
            ],
        }
        for t in net.transitions
    ]
    marking = {
        p.id: [token_to_json(tok) for tok in initial.marking.tokens(p.id)]
        for p in net.places
        if p.kind == "normal" and initial.marking.tokens(p.id)
    }
    instance = {
        "clock": initial.clock,
        "facts": list(initial.instance.all_rows()),
    }
    return {
        "colorsets": colorsets,
        "relations": _schema_to_json(net.schema),
        "queries": queries,
        "actions": actions,
        "places": places,
        "transitions": transitions,
        "initial_marking": marking,
        "initial_instance": instance,
    }


def serialize_net(net: Net, initial: Snapshot) -> str:
    return canonical_json(net_to_json(net, initial)) + "\n"


def parse_net(text: str) -> tuple[Net, Snapshot]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError([f"line {e.lineno}, column {e.colno}: {e.msg}"]) from None
    if not isinstance(doc, dict):
        raise DocumentError(["document root must be an object"])
    diags: list[str] = []
    for key in (
        "colorsets",
        "relations",
        "queries",
        "actions",
        "places",
        "transitions",
        "initial_marking",
        "initial_instance",
    ):
        if key not in doc:
            diags.append(f"missing section {key!r}")
    if diags:
        raise DocumentError(diags)

    colorsets: dict[str, ColorType] = {}
    for name, cdef in sorted(doc["colorsets"].items()):
        try:
            comps = tuple(_SCALARS[k] for k in cdef["components"])
            labels = tuple(cdef["labels"]) if cdef.get("labels") else None
            colorsets[name] = product(*comps, labels=labels)
        except (KeyError, TypeError, ValueError) as e:
            diags.append(f"colorsets.{name}: {e}")
    relations = []
    for i, r in enumerate(doc["relations"]):
        path = f"relations[{i}]"
        try:
            cols = tuple(
                Column(c["name"], _SCALARS[c["type"]]) for c in r["columns"]
            )
            relations.append(Relation(r["name"], cols, tuple(r["key"])))
        except KeyError as e:
            diags.append(f"{path}: unknown column type or missing field {e}")
        except (DefinitionError, ValueError, TypeError) as e:
            diags.append(f"{path}: {e}")
    if diags:
        raise DocumentError(diags)
    try:
        schema = Schema(tuple(relations))
    except DefinitionError as e:
        raise DocumentError([f"relations: {e}"]) from None

    queries = []
    for i, q in enumerate(doc["queries"]):
        path = f"queries[{i}]"
        try:
            atoms = tuple(
                Atom(
                    a["relation"],
                    tuple(
                        expr_from_json(t, f"{path}.atoms[{j}].terms[{k}]")
                        for k, t in enumerate(a["terms"])
                    ),
                )
                for j, a in enumerate(q["atoms"])
            )
            filters = tuple(
                Filter(
                    f["op"],
                    expr_from_json(f["lhs"], f"{path}.filters[{j}].lhs"),
                    expr_from_json(f["rhs"], f"{path}.filters[{j}].rhs"),
                )
                for j, f in enumerate(q["filters"])
            )
            params = tuple((n, _SCALARS[k]) for n, k in q["params"])
            order_by = tuple(q["order_by"]) if q.get("order_by") else None
            queries.append(
                Query(q["name"], params=params, atoms=atoms, filters=filters,
                      output=tuple(q["output"]), order_by=order_by)
            )
        except DocumentError as e:
            diags.extend(e.diagnostics)
        except (DefinitionError, KeyError, TypeError, ValueError) as e:
            diags.append(f"{path}: {e}")
    actions = []
    for i, a in enumerate(doc["actions"]):
        path = f"actions[{i}]"
        try:
            def templates(kind):
                from .persistence import FactTemplate

                return tuple(
                    FactTemplate(
                        t["relation"],
                        tuple(
                            expr_from_json(x, f"{path}.{kind}[{j}].terms[{k}]")
                            for k, x in enumerate(t["terms"])
                        ),
                    )
                    for j, t in enumerate(a[kind])
                )

            params = tuple((n, _SCALARS[k]) for n, k in a["params"])
            actions.append(
                Action(a["name"], params=params, adds=templates("adds"), dels=templates("dels"))
            )
        except DocumentError as e:
            diags.extend(e.diagnostics)
        except (DefinitionError, KeyError, TypeError, ValueError) as e:
            diags.append(f"{path}: {e}")
    places = []
    for i, p in enumerate(doc["places"]):
        path = f"places[{i}]"
        try:
            color = _color_from_json(p["color"], colorsets, f"{path}.color")
            places.append(Place(p["id"], color, kind=p["kind"], query=p.get("query")))
        except DocumentError as e:
            diags.extend(e.diagnostics)
        except (DefinitionError, KeyError, TypeError, ValueError) as e:
            diags.append(f"{path}: {e}")
    transitions = []
    for i, t in enumerate(doc["transitions"]):
        path = f"transitions[{i}]"
        try:
            inputs = tuple(
                InputArc(a["place"], pattern_from_json(a["pattern"], f"{path}.inputs[{j}].pattern"))
                for j, a in enumerate(t["inputs"])
            )

            def arcs(kind):
                return tuple(
                    OutputArc(
                        a["place"],
                        expr_from_json(a["expr"], f"{path}.{kind}[{j}].expr"),
                        when=(
                            expr_from_json(a["when"], f"{path}.{kind}[{j}].when")
                            if a.get("when") is not None
                            else None
                        ),
                    )
                    for j, a in enumerate(t[kind])
                )

            calls = tuple(
                ActionCall(
                    c["action"],
                    tuple(
                        expr_from_json(x, f"{path}.actions[{j}].args[{k}]")
                        for k, x in enumerate(c["args"])
                    ),
                )
                for j, c in enumerate(t["actions"])
            )
            transitions.append(
                Transition(
                    t["id"],
                    inputs=inputs,
                    guard=expr_from_json(t["guard"], f"{path}.guard"),
                    delay=tuple(t["delay"]),
                    outputs=arcs("outputs"),
                    rollbacks=arcs("rollbacks"),
                    actions=calls,
                )
            )
        except DocumentError as e:
            diags.extend(e.diagnostics)
        except (DefinitionError, KeyError, TypeError, ValueError) as e:
            diags.append(f"{path}: {e}")
    if diags:
        raise DocumentError(diags)

    try:
        net = Net(
            places=tuple(places),
            transitions=tuple(transitions),
            schema=schema,
            queries=tuple(queries),
            actions=tuple(actions),
        )
        validate_net(net)
    except DefinitionError as e:
        raise DocumentError([f"net: {e}"]) from None

    inst = doc["initial_instance"]
    clock = inst.get("clock", 0)
    if type(clock) is not int:
        diags.append(f"initial_instance.clock: {json.dumps(clock)} is not an integer")
    facts = []
    for i, row in enumerate(inst.get("facts", ())):
        try:
            facts.append(fact_from_json(row, f"initial_instance.facts[{i}]"))
        except DocumentError as e:
            diags.extend(e.diagnostics)
    tokens = {}
    for pid, toks in sorted(doc["initial_marking"].items()):
        path = f"initial_marking.{pid}"
        try:
            tokens[pid] = [token_from_json(tok, f"{path}[{j}]") for j, tok in enumerate(toks)]
        except DocumentError as e:
            diags.extend(e.diagnostics)
    if diags:
        raise DocumentError(diags)
    try:
        snap = initial_snapshot(net, facts=facts, tokens=tokens, clock=clock)
    except DefinitionError as e:
        raise DocumentError([f"initial_instance: {e}"]) from None
    return net, snap


# ---------------------------------------------------------------------------
# snapshots and traces


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


def _integer(node, key: str, path: str) -> int:
    """``node[key]``, which must be an int."""
    value = node[key]
    if type(value) is not int:
        raise DocumentError([f"{path}.{key}: {json.dumps(value)} is not an integer"])
    return value


def _schema_to_json(schema: Schema):
    return [
        {
            "name": r.name,
            "columns": [{"name": c.name, "type": c.color.kind} for c in r.columns],
            "key": list(r.key),
        }
        for r in schema.relations
    ]


def _schema_from_json(node, path: str) -> Schema:
    try:
        return Schema(
            tuple(
                Relation(
                    r["name"],
                    tuple(Column(c["name"], _SCALARS[c["type"]]) for c in r["columns"]),
                    tuple(r["key"]),
                )
                for r in node
            )
        )
    except (DefinitionError, KeyError, TypeError, ValueError) as e:
        raise DocumentError([f"{path}: {e}"]) from None


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
    try:
        facts = [fact_from_json(row, f"{path}.facts[{i}]") for i, row in enumerate(node["facts"])]
        instance = Instance.from_facts(schema, facts)
        marking = Marking(
            {
                pid: [token_from_json(t, f"{path}.marking.{pid}[{i}]") for i, t in enumerate(toks)]
                for pid, toks in node["marking"].items()
            }
        )
        return Snapshot(instance, marking, _integer(node, "clock", path))
    except DocumentError:
        raise
    except (DefinitionError, KeyError, TypeError, ValueError) as e:
        raise DocumentError([f"{path}: {e}"]) from None


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
        "schema": _schema_to_json(trace.initial.instance.schema),
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
    if records[-1][1].get("kind") != "footer":
        raise DocumentError(
            [f"truncated trace: no footer; last complete record: {last_ok}"]
        )
    _, footer = records[-1]
    schema = _schema_from_json(header.get("schema", []), "header.schema")
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
