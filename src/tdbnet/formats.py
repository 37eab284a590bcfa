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
``(dump, load)`` pair.  ``net_to_json`` and ``parse_net`` walk the same
section codecs, so a malformed shape anywhere in a document (an object
where a list belongs, a missing field, a float delay) is a located error.
``load(node)`` takes no path: what it rejects is a DocumentError whose
diagnostics are located relative to ``node``, each beginning with the path
from it to the fault (``": expected a list"`` for the node itself,
``".facts[3]: ..."`` below it).  The caller that knows where the node
sits puts its own step in front, so a location is formatted only for a
fault.  A list or an object is read in one pass; only when an item fails
are its items read again, one by one, to locate every fault.  The codecs
are built from a few primitives:

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
Value tuples map to JSON arrays, as ``json`` writes any tuple.  A trace is
read by one converter per node kind, on the same terms: ``json_to_value``,
``_token``, ``_fact``, ``_event``, ``_SNAPSHOT`` for the header's and the
footer's snapshots, and ``_META`` for the header's net hash, policy and
seed, which it also writes.  Each line is scanned by one shared JSON
decoder and converted at once to its event, so that the decoded record is
freed as soon as it is read.  A line that is not one JSON value alone, or
not a well-formed event, is read again in its turn, by ``json.loads`` or
by ``_event`` under its line number, for its diagnostic: the faults are
reported in the order in which the records are checked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from itertools import count, repeat
from json.encoder import c_make_encoder, encode_basestring
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


# The canonical form: sorted keys, "," and ":" without spaces, and text
# written raw, not as \u escapes.  JSONEncoder.encode builds a float
# formatter and a new C encoder on every call, which cost more than
# encoding a trace record; the C encoder is built here once and called
# directly.  Values hold no cycles, so it keeps no markers.  Without the C
# accelerator, the encoder's own encode writes the same bytes.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
if c_make_encoder is None:
    canonical_json = _CANONICAL.encode
else:
    # markers, default, string encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan: as JSONEncoder.iterencode passes them
    _ENCODE = c_make_encoder(None, _CANONICAL.default, encode_basestring, None, ":", ",", True, False, True)

    def canonical_json(obj) -> str:
        return "".join(_ENCODE(obj, 0))


# ---------------------------------------------------------------------------
# locations: a diagnostic is located relative to the node read, and each
# caller puts its own step in front


def _within(step: str, e: DocumentError) -> DocumentError:
    """``e`` with each of its diagnostics moved below ``step``."""
    return DocumentError([step + d for d in e.diagnostics])


def _located(step: str, load: Callable, node, *args):
    """``load(node, *args)``, for a node at ``step`` below the one being
    read."""
    try:
        return load(node, *args)
    except DocumentError as e:
        raise _within(step, e) from None


def _not(step: str, node, what: str) -> DocumentError:
    return DocumentError([f"{step}: {json.dumps(node)} is not {what}"])


def _gather(loads, nodes, steps) -> list:
    """``[load(x) for load, x in zip(loads, nodes)]``, or one DocumentError
    with the diagnostics of every node that fails, each below its step."""
    out, diags = [], []
    for load, node, step in zip(loads, nodes, steps):
        try:
            out.append(load(node))
        except DocumentError as e:
            diags.extend(step + d for d in e.diagnostics)
    if diags:
        raise DocumentError(diags)
    return out


# ---------------------------------------------------------------------------
# values

_LEAVES = frozenset((int, str, bool))


def json_to_value(v):
    """The value a JSON value stands for: an int, a string or a bool, or a
    list of them as a tuple.  Anything else (a float, null, an object) is
    a DocumentError located at the value, however deep in it the fault
    sits."""
    t = type(v)
    if t in _LEAVES:
        return v
    if t is list:
        if _LEAVES.issuperset(map(type, v)):
            return tuple(v)
        return tuple([json_to_value(x) for x in v])
    raise _not("", v, "a value (an int, a string, a bool or a list of them)")


# ---------------------------------------------------------------------------
# codecs


@dataclass(frozen=True)
class _Codec:
    dump: Callable  # in-memory value -> JSON value
    load: Callable  # JSON value -> in-memory value, or a DocumentError located relative to it
    optional: bool = False  # a record may omit the field, which keeps its default


def _same(x):
    return x


def _scalar(kind: type, what: str) -> _Codec:
    def load(node):
        if type(node) is not kind:
            raise _not("", node, what)
        return node

    return _Codec(_same, load)


_STR = _scalar(str, "a string")
_INT = _scalar(int, "an integer")
_VALUE = _Codec(_same, json_to_value)


def _expect(node, kind: type) -> None:
    if type(node) is not kind:
        raise DocumentError([f": expected {'a list' if kind is list else 'an object'}"])


def _made(step: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with the DefinitionError (or other
    ValueError) that it raises located at ``step``."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise DocumentError([f"{step}: {e}"]) from None


def _optional(codec: _Codec) -> _Codec:
    """``codec``, or null for None.  An empty tuple (the labels of a color
    that has none) is written as null, and an empty list is read as None."""
    return _Codec(
        lambda x: None if x is None or x == () else codec.dump(x),
        lambda node: None if node is None or node == [] else codec.load(node),
        optional=True,
    )


def _list(item: _Codec) -> _Codec:
    """A list of ``item``, with the diagnostics of every item that fails."""
    each = item.load

    def load(node):
        _expect(node, list)
        try:
            return tuple([each(x) for x in node])
        except DocumentError:
            # read the items again, one by one, to locate every fault
            return tuple(_gather(repeat(each), node, map("[{}]".format, count())))

    return _Codec(lambda xs: [item.dump(x) for x in xs], load)


def _items(*codecs: _Codec) -> _Codec:
    """A list of ``len(codecs)`` items, read as a tuple, one codec per
    position."""
    loads = [c.load for c in codecs]
    steps = [f"[{i}]" for i in range(len(codecs))]

    def load(node):
        _expect(node, list)
        if len(node) != len(codecs):
            raise DocumentError([f": expected a list of length {len(codecs)}, found {len(node)}"])
        return tuple(_gather(loads, node, steps))

    return _Codec(lambda xs: [c.dump(x) for c, x in zip(codecs, xs)], load)


def _mapping(codec: _Codec) -> _Codec:
    """An object whose values are ``codec``, read in key order."""
    each = codec.load

    def load(node):
        _expect(node, dict)
        keys = sorted(node)
        try:
            return {k: each(node[k]) for k in keys}
        except DocumentError:
            return dict(zip(keys, _gather(repeat(each), [node[k] for k in keys], map(".{}".format, keys))))

    return _Codec(lambda m: {k: codec.dump(v) for k, v in m.items()}, load)


def _record(make, **codecs) -> _Codec:
    """An object with one key per keyword, read and written by the codec
    given for it.  The key names the attribute it stands for, unless the
    keyword gives ``(attribute, codec)``.  ``make(**attributes)`` builds
    the value; what it rejects is located at the object."""
    spec = [(key, *(c if type(c) is tuple else (key, c))) for key, c in codecs.items()]

    def load(node):
        _expect(node, dict)
        values, diags = {}, []
        for key, attr, codec in spec:
            if key not in node:
                if not codec.optional:
                    diags.append(f": missing field {key!r}")
                continue
            try:
                values[attr] = codec.load(node[key])
            except DocumentError as e:
                diags.extend(f".{key}{d}" for d in e.diagnostics)
        if diags:
            raise DocumentError(diags)
        return _made("", make, **values)

    return _Codec(lambda x: {key: codec.dump(getattr(x, attr)) for key, attr, codec in spec}, load)


# ---------------------------------------------------------------------------
# colors and expressions


def _colors(table: dict) -> _Codec:
    """A color stored as its name in ``table``."""
    names = {color: name for name, color in table.items()}

    def load(node):
        name = _STR.load(node)
        if name not in table:
            raise DocumentError([f": unknown color {name!r}"])
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


def _load_expr(node):
    if type(node) is not dict or "op" not in node:
        raise DocumentError([": expected an expression object with 'op'"])
    op = _located(".op", _STR.load, node["op"])
    args = node.get("args", [])
    if op not in _EXPRS:
        if op not in OPERATORS:
            raise DocumentError([f".op: unknown operator {op!r}"])
        return Op(op, _located(".args", _TERMS.load, args))
    make, codec = _EXPRS[op]
    return make(*_located(".args", codec.load, args))


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


def _load_term(node):
    term = _EXPR.load(node)
    if type(term) not in (Var, Const, Wild):
        raise DocumentError([f".op: {node['op']!r} is not an input pattern term (var, const or wild)"])
    return term


# an input arc's pattern: a term, or a tuple of terms as a list
_TERM = _Codec(_dump_expr, _load_term)
_PATTERN_TERMS = _list(_TERM)
_PATTERN = _Codec(
    lambda p: _PATTERN_TERMS.dump(p) if type(p) is tuple else _TERM.dump(p),
    lambda node: _PATTERN_TERMS.load(node) if type(node) is list else _TERM.load(node),
)


# ---------------------------------------------------------------------------
# tokens and facts


def token_to_json(tok: tuple):
    value, at = tok
    return {"value": value, "at": at}


# a FiringEvent built from its fields without the NamedTuple's Python-level
# __new__
_new = tuple.__new__


def _token(node) -> tuple:
    if type(node) is not dict or "value" not in node or type(node.get("at")) is not int:
        raise DocumentError([": expected a token object with a value and an integer at"])
    return json_to_value(node["value"]), node["at"]


def _fact(node) -> tuple:
    """A stored row ``[relation, values, at]`` as ``(relation, values, at)``."""
    if not (type(node) is list and len(node) == 3 and type(node[1]) is list and type(node[2]) is int):
        raise DocumentError([": expected [relation, values, at] with an integer at"])
    relation, values, at = node
    values = json_to_value(values)
    if type(relation) is not str:
        raise _not("[0]", relation, "a string")
    return relation, values, at


class _Parts(NamedTuple):
    """A snapshot as stored; a net document's ``initial_instance`` holds
    the clock and the facts, and its marking is a section of its own."""

    clock: int = 0
    facts: tuple = ()
    marking: Optional[dict] = None


_FACTS = _list(_Codec(_same, _fact))
_MARKING = _mapping(_list(_Codec(token_to_json, _token)))
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
    lambda node: _made("", Schema, _RELATIONS.load(node)),
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
    return _gather([codec.load for codec in sections.values()], [doc[key] for key in sections], sections)


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


def _snapshot(node, schema: Schema) -> Snapshot:
    clock, facts, marking = _SNAPSHOT.load(node)
    return _made("", lambda: Snapshot(Instance.from_facts(schema, facts), Marking(marking), clock))


def event_to_json(ev: FiringEvent):
    step, time, transition, binding, consumed, produced, added, deleted, outcome = ev
    return {
        "kind": "event",
        "step": step,
        "time": time,
        "transition": transition,
        "binding": binding,
        "consumed": [[pid, {"at": at, "value": value}] for pid, (value, at) in consumed],
        "produced": [[pid, {"at": at, "value": value}] for pid, (value, at) in produced],
        "added": added,
        "deleted": deleted,
        "outcome": outcome,
    }


_OUTCOMES = ("committed", "rolled_back", "halted")  # as engine._execute records them
_LIST_FIELDS = ("binding", "consumed", "produced", "added", "deleted")


def _placed(pair) -> tuple:
    """A consumed or produced ``[place, token]`` as ``(place, token)``; a
    malformed token is located at the pair."""
    place, token = pair
    if type(place) is not str:
        raise _not("[0]", place, "a string")
    return place, _token(token)


def _each(load, node, step: str) -> tuple:
    """The items of an event's list field ``step``, each read by ``load``;
    the first that fails is located at its index."""
    out = []
    try:
        for x in node:
            out.append(load(x))
    except DocumentError as e:
        raise _within(f"{step}[{len(out)}]", e) from None
    return tuple(out)


def _event(node) -> FiringEvent:
    """An event record as a FiringEvent; the first fault fails it.  A
    missing key, or a field that does not unpack as a list of pairs, fails
    with the KeyError, TypeError or ValueError that reading it raised,
    located at the record."""
    if type(node) is not dict or node.get("kind") != "event":
        raise DocumentError([": expected an event record"])
    try:
        step = node["step"]
        if type(step) is not int:
            raise _not(".step", step, "an integer")
        time = node["time"]
        if type(time) is not int:
            raise _not(".time", time, "an integer")
        transition = node["transition"]
        if type(transition) is not str:
            raise _not(".transition", transition, "a string")
        binding = []
        for name, value in node["binding"]:
            if type(name) is not str:
                raise _not(f".binding[{len(binding)}][0]", name, "a string")
            binding.append((name, json_to_value(value)))
        consumed = _each(_placed, node["consumed"], ".consumed")
        produced = _each(_placed, node["produced"], ".produced")
        added = _each(_fact, node["added"], ".added")
        deleted = _each(_fact, node["deleted"], ".deleted")
        outcome = node["outcome"]
        if outcome not in _OUTCOMES:
            raise _not(".outcome", outcome, "an outcome (committed, rolled_back or halted)")
        # a string or an object iterates too, so its items may all read;
        # checked last, a fault found above keeps its own message
        for key in _LIST_FIELDS:
            if type(node[key]) is not list:
                raise _not(f".{key}", node[key], "a list")
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise DocumentError([f": {e}"]) from None
    return _new(FiringEvent, (step, time, transition, tuple(binding), consumed, produced, added, deleted, outcome))


def snapshot_digest(snap: Snapshot) -> str:
    return _digest(canonical_json(snapshot_to_json(snap)))


def _digest(snapshot_text: str) -> str:
    return hashlib.sha256(snapshot_text.encode()).hexdigest()


def _policy(node):
    if node not in ("eager", "random"):
        raise _not("", node, "a policy (eager or random)")
    return node


def _seed(node):
    if node is not None and type(node) is not int:
        raise _not("", node, "an integer or null")
    return node


# the header's fields besides its snapshot, as run records them
_META = _record(TraceMeta, net=("net_hash", _STR), policy=_Codec(_same, _policy), seed=_Codec(_same, _seed))


def serialize_trace(trace: Trace) -> str:
    header = {
        "kind": "header",
        **_META.dump(trace.meta),
        "schema": _SCHEMA.dump(trace.initial.instance.schema),
        "initial": snapshot_to_json(trace.initial),
    }
    lines = [canonical_json(header)]
    lines.extend(canonical_json(event_to_json(ev)) for ev in trace.events)
    final = canonical_json(snapshot_to_json(trace.final))
    # the footer's keys in canonical (sorted) order, around the one encoding
    # of the final snapshot that its digest hashes
    lines.append(f'{{"digest":"{_digest(final)}","events":{len(trace.events)},"final":{final},"kind":"footer"}}')
    return "\n".join(lines) + "\n"


# reads the JSON value at the start of a trace line; json.loads would also
# match the whitespace around it with a regular expression, twice per line
_SCAN = json.JSONDecoder().scan_once


def _last_record(records: list) -> str:
    """The last record read, as the message of a later fault names it."""
    if not records:
        return "start of file"
    lineno, node = records[-1]
    if type(node) is FiringEvent:
        return f"event at line {lineno}"
    kind = node.get("kind") if isinstance(node, dict) else None
    return f"{kind or 'unknown'} at line {lineno}"


def parse_trace(text: str) -> Trace:
    records = []
    # serialize_trace ends each record with "\n" alone; str.splitlines would
    # also split a text value at U+2028, U+2029 or U+0085, which
    # canonical_json writes raw
    for lineno, raw in enumerate(text.split("\n"), start=1):
        try:
            node, end = _SCAN(raw, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(raw):
            # not one JSON value alone on its line: json.loads skips the
            # whitespace around a value, or says why the line is corrupted
            if not raw.strip():
                continue
            try:
                node = json.loads(raw)
            except json.JSONDecodeError as e:
                raise DocumentError(
                    [f"line {lineno}: corrupted record ({e.msg}); last complete record: {_last_record(records)}"]
                ) from None
        try:
            node = _event(node)
        except DocumentError:
            pass  # not an event record, or a faulty one: read again below, in turn
        records.append((lineno, node))
    if not records:
        raise DocumentError(["empty trace file"])
    lineno, header = records[0]
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise DocumentError([f"line {lineno}: expected header record"])
    _, footer = records[-1]
    if not isinstance(footer, dict) or footer.get("kind") != "footer":
        raise DocumentError([f"truncated trace: no footer; last complete record: {_last_record(records)}"])
    for record, name, key in ((header, "header", "initial"), (footer, "footer", "final")):
        if key not in record:
            raise DocumentError([f"{name}: missing field {key!r}"])
    meta = _located("header", _META.load, header)
    schema = _located("header.schema", _SCHEMA.load, header.get("schema", []))
    initial = _located("header.initial", _snapshot, header["initial"], schema)
    events = [
        node if type(node) is FiringEvent else _located(f"line {lineno}", _event, node)
        for lineno, node in records[1:-1]
    ]
    if footer.get("events") != len(events):
        raise DocumentError(
            [
                f"truncated trace: footer declares {footer.get('events')} events, "
                f"found {len(events)}"
            ]
        )
    final = _located("footer.final", _snapshot, footer["final"], schema)
    try:
        digest = snapshot_digest(final)
    except UnicodeEncodeError as e:
        # a JSON escape such as "\ud800" reads as a lone surrogate
        raise DocumentError([f"footer.final: {e.object[e.start : e.end]!r} cannot be encoded as UTF-8 ({e.reason})"]) from None
    if digest != footer.get("digest"):
        raise DocumentError(["footer digest does not match the final snapshot"])
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
