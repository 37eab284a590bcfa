"""Round-trip and diagnostic tests for the net and trace file formats."""

import copy
import dataclasses
import gc
import json
import platform
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_formats as frozen
from tdbnet.engine import FiringEvent, Trace, TraceMeta, run, replay
from tdbnet.exprs import DefinitionError, Op
from tdbnet.formats import (
    DocumentError,
    canonical_json,
    parse_net,
    parse_trace,
    report_to_json,
    serialize_net,
    serialize_report,
    serialize_trace,
)
from tdbnet.net import Marking, Snapshot, validate_net
from tdbnet.patterns import (
    EndpointStub,
    build_aggregator,
    build_circuit_breaker,
    build_content_based_router,
    build_delayer,
    build_resequencer,
    build_throttler,
    with_workload,
)
from tdbnet.persistence import Column, Instance, Relation, Schema
from tdbnet.scenarios import halting_bundle
from tdbnet.validation import Verdict
from tdbnet.values import BOOL, INT, TEXT, TS
from tdbnet.workloads import parse_workload


def catalog_bundles():
    return [
        build_throttler(5),
        build_delayer(250),
        build_resequencer(),
        build_aggregator(timeout=100),
        build_circuit_breaker(5, 30, EndpointStub.healthy()),
        build_content_based_router(("gt:10", "lt:100")),
    ]


MINIMAL = json.dumps(
    {
        "colorsets": {},
        "relations": [],
        "queries": [],
        "actions": [],
        "places": [{"id": "p0", "color": "text", "kind": "normal", "query": None}],
        "transitions": [],
        "initial_marking": {"p0": [{"value": "hello", "at": 0}]},
        "initial_instance": {"clock": 0, "facts": []},
    }
)


def transition_stanza(tid, place):
    return {
        "id": tid,
        "inputs": [{"place": place, "pattern": {"op": "var", "args": ["m"]}}],
        "guard": {"op": "const", "args": [True]},
        "delay": [0, 0],
        "outputs": [],
        "rollbacks": [],
        "actions": [],
    }


class TestParseNet:
    def test_minimal_document(self):
        net, initial = parse_net(MINIMAL)
        assert [p.id for p in net.places] == ["p0"]
        assert net.transitions == ()
        tr = run(net, initial)
        assert tr.events == ()
        assert tr.final.marking.tokens("p0")[0][0] == "hello"

    def test_json_syntax_error_carries_position(self):
        with pytest.raises(DocumentError) as exc:
            parse_net("{\n  \"format\": tdbnet\n}")
        assert "line 2" in str(exc.value)

    def test_missing_section_is_named(self):
        doc = json.loads(MINIMAL)
        del doc["places"]
        with pytest.raises(DocumentError) as exc:
            parse_net(json.dumps(doc))
        assert "places" in str(exc.value)

    def test_unknown_place_reference_names_both_ends(self):
        doc = json.loads(MINIMAL)
        doc["transitions"] = [transition_stanza("t0", "chX")]
        with pytest.raises(DocumentError) as exc:
            parse_net(json.dumps(doc))
        msg = str(exc.value)
        assert "t0" in msg and "chX" in msg

    def test_duplicate_transition_id_is_named(self):
        doc = json.loads(MINIMAL)
        doc["transitions"] = [transition_stanza("dup", "p0"), transition_stanza("dup", "p0")]
        with pytest.raises(DocumentError) as exc:
            parse_net(json.dumps(doc))
        assert "dup" in str(exc.value)

    def test_multiple_diagnostics_accumulate(self):
        doc = json.loads(MINIMAL)
        del doc["places"]
        del doc["relations"]
        with pytest.raises(DocumentError) as exc:
            parse_net(json.dumps(doc))
        assert len(exc.value.diagnostics) >= 2


    @pytest.mark.parametrize(
        "section,entry,diagnostic",
        [
            ("facts", ["R", [1.5, "x"], 0], "initial_instance.facts[0]: 1.5 is not a value"),
            ("facts", ["R", [None, "x"], 0], "initial_instance.facts[0]: null is not a value"),
            ("facts", ["R", [1, {"b": "x"}], 0], 'initial_instance.facts[0]: {"b": "x"} is not a value'),
            ("marking", [{"value": 1.5, "at": 0}, {"value": "x", "at": 0}], "initial_marking.p0[0]: 1.5 is not a value"),
            ("marking", [{"value": None, "at": 0}], "initial_marking.p0[0]: null is not a value"),
            ("facts", ["R", [1, "x"], 0.5], "initial_instance.facts[0]: expected [relation, values, at] with an integer at"),
            ("marking", [{"value": "x", "at": 0.5}], "initial_marking.p0[0]: expected a token object with a value and an integer at"),
            ("marking", [{"value": "x", "at": None}], "initial_marking.p0[0]: expected a token object with a value and an integer at"),
            ("clock", 1.5, "initial_instance.clock: 1.5 is not an integer"),
        ],
        ids=[
            "float-fact", "null-fact", "object-fact", "mixed-tokens", "null-token",
            "float-fact-time", "float-token-time", "null-token-time", "float-clock",
        ],
    )
    def test_non_value_is_located(self, section, entry, diagnostic):
        # JSON floats, nulls and objects are no token values, and times are
        # integers: unchecked, the key check or the pool sort died on a
        # non-value with a bare TypeError, a float creation time led to
        # firing times like 3.0, and a null one died comparing with the clock
        doc = json.loads(MINIMAL)
        doc["relations"] = [
            {"name": "R", "columns": [{"name": "a", "type": "int"}, {"name": "b", "type": "text"}], "key": ["a"]}
        ]
        if section == "facts":
            doc["initial_instance"]["facts"] = [entry]
        elif section == "marking":
            doc["initial_marking"]["p0"] = entry
        else:
            doc["initial_instance"]["clock"] = entry
        with pytest.raises(DocumentError) as exc:
            parse_net(json.dumps(doc))
        suffix = " (an int, a string, a bool or a list of them)" if diagnostic.endswith("not a value") else ""
        assert exc.value.diagnostics == [diagnostic + suffix]

    @pytest.mark.parametrize(
        "edit,diagnostic",
        [
            (lambda d: d.__setitem__("initial_instance", []), "initial_instance: expected an object"),
            (lambda d: d.__setitem__("colorsets", []), "colorsets: expected an object"),
            (lambda d: d.__setitem__("initial_marking", []), "initial_marking: expected an object"),
            (lambda d: d["initial_marking"].__setitem__("p0", 5), "initial_marking.p0: expected a list"),
            (lambda d: d["initial_instance"].__setitem__("facts", 5), "initial_instance.facts: expected a list"),
            (
                lambda d: d["transitions"][0]["inputs"][0].__setitem__("pattern", {"op": "var", "args": [5]}),
                "transitions[0].inputs[0].pattern.args[0]: 5 is not a string",
            ),
            (lambda d: d["places"][0].__setitem__("id", 5), "places[0].id: 5 is not a string"),
            (lambda d: d["transitions"][0].__setitem__("delay", [0.5, 1]), "transitions[0].delay[0]: 0.5 is not an integer"),
            (lambda d: d["transitions"][0].__setitem__("delay", [0, True]), "transitions[0].delay[1]: true is not an integer"),
            (lambda d: d["transitions"][0].pop("inputs"), "transitions[0]: missing field 'inputs'"),
            (
                lambda d: d["transitions"][0].__setitem__("guard", {"op": 5, "args": []}),
                "transitions[0].guard.op: 5 is not a string",
            ),
            (
                lambda d: d["initial_instance"].__setitem__("facts", [[["R"], [1, "x"], 0]]),
                'initial_instance.facts[0][0]: ["R"] is not a string',
            ),
        ],
        ids=[
            "instance-list", "colorsets-list", "marking-list", "pool-int", "facts-int", "var-name-int",
            "place-id-int", "float-delay", "bool-delay", "missing-inputs", "op-int", "relation-name-list",
        ],
    )
    def test_malformed_shape_is_located(self, edit, diagnostic):
        # the first five crashed with an AttributeError or a TypeError, the
        # float and bool delays and the int op were accepted, and the
        # others were reported only as a net error or by a bare key
        doc = json.loads(MINIMAL)
        doc["relations"] = [
            {"name": "R", "columns": [{"name": "a", "type": "int"}, {"name": "b", "type": "text"}], "key": ["a"]}
        ]
        doc["transitions"] = [transition_stanza("t0", "p0")]
        edit(doc)
        with pytest.raises(DocumentError) as exc:
            parse_net(json.dumps(doc))
        assert exc.value.diagnostics == [diagnostic]

    def test_unknown_operator_is_located(self):
        # an operator that no expression evaluates passed parse_net and
        # validate_net, and the run died with a bare EvalError
        bundle = build_delayer(250)
        doc = json.loads(serialize_net(bundle.net, bundle.initial))
        k = next(k for k, t in enumerate(doc["transitions"]) if t["id"] == "t_forward")
        doc["transitions"][k]["guard"] = {"op": "frobnicate", "args": []}
        with pytest.raises(DocumentError) as exc:
            parse_net(json.dumps(doc))
        assert exc.value.diagnostics == [f"transitions[{k}].guard.op: unknown operator 'frobnicate'"]
        transitions = tuple(
            dataclasses.replace(t, guard=Op("frobnicate", ())) if t.id == "t_forward" else t
            for t in bundle.net.transitions
        )
        with pytest.raises(DefinitionError, match="^transition 't_forward': unknown operator 'frobnicate'$"):
            validate_net(dataclasses.replace(bundle.net, transitions=transitions))

    @pytest.mark.parametrize(
        "edit,diagnostic",
        [
            (lambda q: q["atoms"][0].__setitem__("relation", "NOPE"), "query 'q_bad' atom 0: unknown relation 'NOPE'"),
            (lambda q: q["output"].append("zz"), "query 'q_bad': output variable 'zz' is unbound"),
            (lambda q: q.__setitem__("order_by", [7]), "query 'q_bad': order_by index 7 out of range"),
        ],
        ids=["unknown-relation", "unbound-output", "order-by-range"],
    )
    def test_query_no_view_binds_is_checked(self, edit, diagnostic):
        # queries compiled only when a view evaluated them, so a malformed
        # query that no view binds was accepted and the net ran
        bundle = build_delayer(250)
        doc = json.loads(serialize_net(bundle.net, bundle.initial))
        query = json.loads(json.dumps(doc["queries"][0]))
        query["name"] = "q_bad"
        edit(query)
        doc["queries"].append(query)
        with pytest.raises(DocumentError) as exc:
            parse_net(json.dumps(doc))
        assert exc.value.diagnostics == [f"net: {diagnostic}"]


class TestNetRoundTrip:
    @pytest.mark.parametrize("bundle", catalog_bundles(), ids=lambda b: b.name)
    def test_serialize_parse_serialize_is_stable(self, bundle):
        text = serialize_net(bundle.net, bundle.initial)
        net2, init2 = parse_net(text)
        assert serialize_net(net2, init2) == text

    @pytest.mark.parametrize("bundle", catalog_bundles(), ids=lambda b: b.name)
    def test_reparsed_net_runs_identically(self, bundle):
        seeded = with_workload(bundle, parse_workload(bundle.name, "steady:3:every:40@0"))
        net2, init2 = parse_net(serialize_net(bundle.net, seeded))
        assert serialize_trace(run(net2, init2)) == serialize_trace(run(bundle.net, seeded))


def _edited_throttler_trace_diagnostics(line, edit) -> list:
    """The diagnostics of a throttler trace whose record ``line`` is edited
    in place by ``edit``."""
    b = build_throttler(5)
    tr = run(b.net, with_workload(b, [(0, ("a",)), (0, ("b",))]))
    lines = serialize_trace(tr).splitlines()
    record = json.loads(lines[line])
    edit(record)
    lines[line] = canonical_json(record)
    with pytest.raises(DocumentError) as exc:
        parse_trace("\n".join(lines) + "\n")
    return exc.value.diagnostics


class TestTraceRoundTrip:
    def test_empty_trace(self):
        b = build_delayer(100)
        tr = run(b.net, with_workload(b, []))
        text = serialize_trace(tr)
        tr2 = parse_trace(text)
        assert tr2.events == ()
        assert tr2.final == tr.final
        assert serialize_trace(tr2) == text

    def test_trace_with_events(self):
        b = build_throttler(5)
        tr = run(b.net, with_workload(b, [(0, ("a",)), (0, ("b",))]))
        tr2 = parse_trace(serialize_trace(tr))
        assert tr2.meta == tr.meta
        assert tr2.events == tr.events
        assert tr2.initial == tr.initial and tr2.final == tr.final
        # the parsed trace replays cleanly against the original net
        assert replay(b.net, tr2).clock == tr.final.clock

    def test_empty_file_rejected(self):
        with pytest.raises(DocumentError) as exc:
            parse_trace("")
        assert "empty trace file" in str(exc.value)

    def test_truncated_trace_names_last_record(self):
        b = build_delayer(100)
        tr = run(b.net, with_workload(b, [(0, ("x",))]))
        lines = serialize_trace(tr).splitlines()
        clipped = "\n".join(lines[:-1]) + "\n"
        with pytest.raises(DocumentError) as exc:
            parse_trace(clipped)
        msg = str(exc.value)
        assert "truncated trace" in msg and "last complete record" in msg

    def test_corrupted_line_is_located(self):
        b = build_delayer(100)
        tr = run(b.net, with_workload(b, [(0, ("x",))]))
        lines = serialize_trace(tr).splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        with pytest.raises(DocumentError) as exc:
            parse_trace("\n".join(lines) + "\n")
        assert "line 2" in str(exc.value)

    def test_lone_surrogate_in_the_final_snapshot_is_located(self):
        # "\ud800" is legal JSON; hashing the snapshot died with a
        # UnicodeEncodeError
        def edit(footer):
            footer["final"]["facts"][0][1][1] = "\ud800"

        assert _edited_throttler_trace_diagnostics(-1, edit) == [
            "footer.final: '\\ud800' cannot be encoded as UTF-8 (surrogates not allowed)"
        ]

    def test_tampered_footer_digest_detected(self):
        b = build_delayer(100)
        tr = run(b.net, with_workload(b, [(0, ("x",))]))
        lines = serialize_trace(tr).splitlines()
        footer = json.loads(lines[-1])
        footer["digest"] = "0" * len(footer["digest"])
        lines[-1] = canonical_json(footer)
        with pytest.raises(DocumentError) as exc:
            parse_trace("\n".join(lines) + "\n")
        assert "digest" in str(exc.value)

    @pytest.mark.parametrize(
        "line,edit,diagnostic",
        [
            (0, lambda r: r["initial"]["facts"][0].__setitem__(2, 0.5), "header.initial.facts[0]: expected [relation, values, at] with an integer at"),
            (0, lambda r: r["initial"].__setitem__("clock", 1.5), "header.initial.clock: 1.5 is not an integer"),
            (-1, lambda r: r["final"].__setitem__("clock", 1.5), "footer.final.clock: 1.5 is not an integer"),
            (1, lambda r: r.__setitem__("time", 0.0), "line 2.time: 0.0 is not an integer"),
            (1, lambda r: r.__setitem__("step", None), "line 2.step: null is not an integer"),
            (1, lambda r: r["added"][0].__setitem__(2, 0.5), "line 2.added[0]: expected [relation, values, at] with an integer at"),
        ],
        ids=["float-fact-time", "float-clock", "float-final-clock", "float-event-time", "null-step", "float-row-time"],
    )
    def test_non_integer_time_is_located(self, line, edit, diagnostic):
        # a float time in a trace led to float firing times on replay, as
        # in a net document
        assert _edited_throttler_trace_diagnostics(line, edit) == [diagnostic]

    @pytest.mark.parametrize(
        "edit,diagnostic",
        [
            (lambda r: r.__setitem__("transition", ["t"]), 'line 2.transition: ["t"] is not a string'),
            (lambda r: r.__setitem__("transition", 5), "line 2.transition: 5 is not a string"),
            (lambda r: r["binding"][0].__setitem__(0, 5), "line 2.binding[0][0]: 5 is not a string"),
            (lambda r: r["consumed"][0].__setitem__(0, 5), "line 2.consumed[0][0]: 5 is not a string"),
            (lambda r: r["produced"][0].__setitem__(0, None), "line 2.produced[0][0]: null is not a string"),
            (lambda r: r["added"][0].__setitem__(0, 5), "line 2.added[0][0]: 5 is not a string"),
            (lambda r: r["deleted"][0].__setitem__(0, True), "line 2.deleted[0][0]: true is not a string"),
            (
                lambda r: r.__setitem__("outcome", "bogus"),
                'line 2.outcome: "bogus" is not an outcome (committed, rolled_back or halted)',
            ),
        ],
        ids=["list-transition", "int-transition", "int-binding-name", "int-consumed-place", "null-produced-place",
             "int-added-relation", "bool-deleted-relation", "unknown-outcome"],
    )
    def test_event_name_or_outcome_is_located(self, edit, diagnostic):
        # each parsed, and replay then died on it with a bare TypeError or
        # reported a divergence
        assert _edited_throttler_trace_diagnostics(1, edit) == [diagnostic]

    @pytest.mark.parametrize(
        "edit,diagnostic",
        [
            (lambda r: r.__setitem__("added", {}), "line 2.added: {} is not a list"),
            (lambda r: r.__setitem__("added", ""), 'line 2.added: "" is not a list'),
            (lambda r: r.__setitem__("binding", {"ab": 0}), 'line 2.binding: {"ab": 0} is not a list'),
            (lambda r: r.__setitem__("consumed", {}), "line 2.consumed: {} is not a list"),
            (lambda r: r.__setitem__("produced", ""), 'line 2.produced: "" is not a list'),
            (lambda r: r.__setitem__("deleted", {}), "line 2.deleted: {} is not a list"),
            # a record that an item or a later field already failed keeps
            # its message
            (lambda r: r.__setitem__("added", 5), "line 2: 'int' object is not iterable"),
            (lambda r: r.__setitem__("binding", "ab"), "line 2: not enough values to unpack (expected 2, got 1)"),
            (lambda r: r.__setitem__("consumed", {"ab": 0}), "line 2.consumed[0]: expected a token object with a value and an integer at"),
            (
                lambda r: (r.__setitem__("added", {}), r.__setitem__("outcome", "bogus")),
                'line 2.outcome: "bogus" is not an outcome (committed, rolled_back or halted)',
            ),
        ],
        ids=["object-added", "string-added", "object-binding", "object-consumed", "string-produced",
             "object-deleted", "int-added", "string-binding", "object-consumed-item", "object-added-bad-outcome"],
    )
    def test_list_field_that_is_not_a_list_is_located(self, edit, diagnostic):
        # a string or an object iterates: each parsed as no rows or tokens,
        # and {"ab": 0} as the binding a = "b"
        assert _edited_throttler_trace_diagnostics(1, edit) == [diagnostic]

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"], ids=["U+2028", "U+2029", "U+0085"])
    def test_line_separator_in_a_text_value_round_trips(self, char):
        # canonical_json writes these raw, and str.splitlines split the
        # record at them
        b = build_throttler(5)
        text = serialize_trace(run(b.net, with_workload(b, [(0, (f"a{char}b",))])))
        assert char in text
        trace = parse_trace(text)
        assert serialize_trace(trace) == text
        replay(b.net, trace, verify=True)

    def test_crlf_records_parse(self):
        b = build_throttler(5)
        text = serialize_trace(run(b.net, with_workload(b, [(0, ("a",)), (0, ("b",))])))
        assert serialize_trace(parse_trace(text.replace("\n", "\r\n"))) == text

    @pytest.mark.parametrize(
        "line,edit,diagnostic",
        [
            (0, lambda r: {k: v for k, v in r.items() if k != "initial"}, "header: missing field 'initial'"),
            (-1, lambda r: [r], "truncated trace: no footer; last complete record: unknown at line 8"),
            (-1, lambda r: {k: v for k, v in r.items() if k != "final"}, "footer: missing field 'final'"),
            (0, lambda r: {**r, "initial": {**r["initial"], "marking": []}}, "header.initial.marking: expected an object"),
            (0, lambda r: {**r, "net": 5}, "header.net: 5 is not a string"),
            (0, lambda r: {k: v for k, v in r.items() if k != "net"}, "header: missing field 'net'"),
            (0, lambda r: {**r, "policy": ["x"]}, 'header.policy: ["x"] is not a policy (eager or random)'),
            (0, lambda r: {**r, "seed": "abc"}, 'header.seed: "abc" is not an integer or null'),
            (0, lambda r: {**r, "seed": True}, "header.seed: true is not an integer or null"),
        ],
        ids=["no-initial", "footer-list", "no-final", "marking-list", "net-int", "no-net", "policy-list", "seed-text", "seed-bool"],
    )
    def test_malformed_header_or_footer_is_located(self, line, edit, diagnostic):
        # each crashed with a KeyError or an AttributeError
        b = build_throttler(5)
        tr = run(b.net, with_workload(b, [(0, ("a",)), (0, ("b",))]))
        lines = serialize_trace(tr).splitlines()
        lines[line] = canonical_json(edit(json.loads(lines[line])))
        with pytest.raises(DocumentError) as exc:
            parse_trace("\n".join(lines) + "\n")
        assert exc.value.diagnostics == [diagnostic]


    @pytest.mark.parametrize(
        "edit,diagnostic",
        [
            (
                lambda snap: snap["marking"]["cap"].append({"value": "x", "at": 0}),
                "header.initial: place 'cap': its token values do not compare",
            ),
            (
                lambda snap: snap["facts"].append(["inbox", [2, 0, 7], 0]),
                "header.initial: type constraint on 'inbox': column 'body' expects text, got 7",
            ),
        ],
        ids=["mixed-pool", "mistyped-fact"],
    )
    def test_values_that_do_not_fit_are_located(self, edit, diagnostic):
        # a pool of values that do not compare has no canonical order, and
        # a fact must fit its relation's column types
        b = build_throttler(5)
        tr = run(b.net, with_workload(b, [(0, ("a",)), (0, ("b",))]))
        lines = serialize_trace(tr).splitlines()
        header = json.loads(lines[0])
        edit(header["initial"])
        lines[0] = canonical_json(header)
        with pytest.raises(DocumentError) as exc:
            parse_trace("\n".join(lines) + "\n")
        assert len(exc.value.diagnostics) == 1
        assert exc.value.diagnostics[0].startswith(diagnostic)


def _trace_lines(bundle, arrivals=None) -> tuple:
    initial = bundle.initial if arrivals is None else with_workload(bundle, arrivals)
    return tuple(serialize_trace(run(bundle.net, initial)).splitlines())


# small catalog traces in which every event field is filled and each
# outcome occurs: the aggregator's third message arrives after its group's
# timeout and is rolled back, and the halting net's second write halts
EDITED_TRACES = (
    _trace_lines(build_throttler(5), [(0, ("a",)), (0, ("b",))]),
    _trace_lines(build_resequencer(), parse_workload("resequencer", "perm:3,1,2@0")),
    _trace_lines(
        build_aggregator(timeout=100, expiry_grace=50),
        [(0, (1, 1, 3, "a")), (0, (1, 2, 3, "b")), (130, (1, 3, 3, "c"))],
    ),
    _trace_lines(halting_bundle()),
)


def _nodes(node, path=()):
    """(path, node) for ``node`` and every node below it."""
    yield path, node
    if type(node) is dict:
        for key, child in node.items():
            yield from _nodes(child, (*path, key))
    elif type(node) is list:
        for i, child in enumerate(node):
            yield from _nodes(child, (*path, i))


@st.composite
def _edited_traces(draw) -> str:
    """A catalog trace with one edit to one record: a leaf retyped, a key
    dropped, a list item added or removed, the record's line cut short, or
    the trace ended after it."""
    lines = list(draw(st.sampled_from(EDITED_TRACES)))
    line = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[line])
    nodes = list(_nodes(record))
    lists = [node for _, node in nodes if type(node) is list]
    edit = draw(st.sampled_from(["retype", "drop", "add", "cut", "end"] + (["remove"] if any(lists) else [])))
    if edit == "cut":
        lines[line] = lines[line][: draw(st.integers(0, len(lines[line]) - 1))]
        return "\n".join(lines) + "\n"
    if edit == "end":
        return "\n".join(lines[: line + 1]) + "\n"
    if edit == "retype":
        path, leaf = draw(st.sampled_from([(p, n) for p, n in nodes if type(n) not in (dict, list)]))
        parent = record
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = draw(st.sampled_from([0.5, None, True, False, [], [leaf], {}, {"value": leaf}]))
    elif edit == "drop":
        obj = draw(st.sampled_from([node for _, node in nodes if type(node) is dict and node]))
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif edit == "add":
        items = draw(st.sampled_from(lists))
        item = copy.deepcopy(draw(st.sampled_from(items))) if items else 0
        items.insert(draw(st.integers(0, len(items))), item)
    else:
        items = draw(st.sampled_from([node for node in lists if node]))
        del items[draw(st.integers(0, len(items) - 1))]
    lines[line] = canonical_json(record)
    return "\n".join(lines) + "\n"


# what the decoder rejects on purpose and the frozen one accepted: an event
# whose transition, binding variable, place or relation is not a string, or
# whose outcome is not one that the engine records; a header without its net
# hash, policy or seed, or whose net hash is not a string, policy not one
# that run takes, or seed neither an integer nor null
NEW_REJECTIONS = re.compile(
    r"line \d+\.(transition|binding\[\d+\]\[0\]|(consumed|produced|added|deleted)\[\d+\]\[0\]): .* is not a string"
    r"|line \d+\.outcome: .* is not an outcome \(committed, rolled_back or halted\)"
    r"|header: missing field '(net|policy|seed)'"
    r"|header\.net: .* is not a string"
    r"|header\.policy: .* is not a policy \(eager or random\)"
    r"|header\.seed: .* is not an integer or null"
)


def _decoded(parse, text):
    """The trace ``parse`` reads from ``text``, or its diagnostics."""
    try:
        return parse(text)
    except DocumentError as e:
        return e.diagnostics


@settings(deadline=None)
@given(_edited_traces())
def test_decoder_agrees_with_the_frozen_one_on_an_edited_record(text):
    got, want = _decoded(parse_trace, text), _decoded(frozen.parse_trace, text)
    if isinstance(want, Trace) and not isinstance(got, Trace):
        assert len(got) == 1 and NEW_REJECTIONS.fullmatch(got[0]), got
    else:
        assert got == want


def test_decoder_agrees_with_the_frozen_one_on_the_catalog_traces():
    outcomes = set()
    for lines in EDITED_TRACES:
        text = "\n".join(lines) + "\n"
        trace = parse_trace(text)
        assert trace == frozen.parse_trace(text)
        outcomes.update(ev.outcome for ev in trace.events)
    assert outcomes == {"committed", "rolled_back", "halted"}


def _tracked_under(root) -> int:
    """The GC-tracked objects reachable from ``root`` through tuples,
    each counted once."""
    seen, stack, tracked = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            tracked += gc.is_tracked(node)
            if isinstance(node, tuple):
                stack.extend(node)
    return tracked


@pytest.mark.skipif(platform.python_implementation() != "CPython", reason="tuple untracking is CPython's")
@pytest.mark.parametrize(
    "bundle,workload",
    [(build_throttler(5), "burst:200@0"), (build_circuit_breaker(5, 30, EndpointStub.healthy()), "steady:1000:every:1@0")],
    ids=["throttler", "circuit_breaker"],
)
def test_parsed_tokens_are_not_tracked_by_the_gc(bundle, workload):
    # CPython's collector untracks an exact tuple of untracked items, never
    # a tuple subclass, so a token, the exact pair (value, created_at),
    # drops out of its work; of an event only the FiringEvent stays.  A
    # collection untracks at least one level of nested tuples, so two reach
    # every token (the value, then the pair); measured on 3.10 to 3.13, a
    # third reaches every tuple under an event, even when no collection ran
    # during the parse.  The one before the parse starts the collector from
    # the same state on every run.
    text = serialize_trace(run(bundle.net, with_workload(bundle, parse_workload(bundle.name, workload))))
    gc.collect()
    trace = parse_trace(text)
    gc.collect()
    gc.collect()
    tokens = [tok for snap in (trace.initial, trace.final) for pid in snap.marking.place_ids() for tok in snap.marking.tokens(pid)]
    tokens += [tok for ev in trace.events for _, tok in ev.consumed + ev.produced]
    assert tokens and not any(map(gc.is_tracked, tokens))
    gc.collect()
    assert _tracked_under(trace.events) <= 2 * len(trace.events)


# ints past 2**64 either way, and text with what JSON escapes (quotes,
# backslashes, control characters), what it writes raw but str.splitlines
# splits at (U+2028, U+2029, U+0085), and characters beyond the BMP
INTS = st.one_of(st.integers(-3, 3), st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64)))
TEXTS = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\n\u2028\u2029\u0085\xe9\U0001f600'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=6,
)
JSON_VALUES = st.recursive(
    st.one_of(INTS, TEXTS, st.booleans(), st.none(), st.floats()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(TEXTS, children, max_size=3),
    ),
    max_leaves=12,
)


class TestCanonicalJson:
    def test_key_order_and_spacing_are_fixed(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_non_ascii_preserved(self):
        assert canonical_json({"k": "café"}) == '{"k":"café"}'

    @settings(deadline=None)
    @given(JSON_VALUES)
    def test_equals_the_stdlib_encoder(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# traces of any shape, not runs of a net: the writer reads no net
SCHEMA = Schema(
    (
        Relation("R", (Column("k", INT), Column("t", TEXT)), ("k",)),
        Relation("S", (Column("t", TEXT), Column("b", BOOL), Column("ts", TS)), ("t",)),
    )
)
ROWS = {"R": st.tuples(INTS, TEXTS), "S": st.tuples(TEXTS, st.booleans(), INTS)}
POOLS = {"p": TEXTS, "q": INTS, "r": st.tuples(INTS, TEXTS)}
FACTS = st.lists(st.sampled_from(sorted(ROWS)).flatmap(lambda rel: st.tuples(st.just(rel), ROWS[rel], INTS)), max_size=2)
PLACED = st.sampled_from(sorted(POOLS)).flatmap(lambda pid: st.tuples(st.just(pid), st.tuples(POOLS[pid], INTS)))
SNAPSHOTS = st.builds(
    lambda facts, tokens, clock: Snapshot(Instance.from_facts(SCHEMA, facts), Marking(tokens), clock),
    FACTS,
    st.fixed_dictionaries({pid: st.lists(st.tuples(pool, INTS), max_size=2) for pid, pool in POOLS.items()}),
    INTS,
)
EVENTS = st.builds(
    FiringEvent,
    step=INTS,
    time=INTS,
    transition=TEXTS,
    binding=st.lists(st.tuples(TEXTS, st.one_of(INTS, TEXTS, st.booleans(), POOLS["r"])), max_size=2).map(tuple),
    consumed=st.lists(PLACED, max_size=2).map(tuple),
    produced=st.lists(PLACED, max_size=2).map(tuple),
    added=FACTS.map(tuple),
    deleted=FACTS.map(tuple),
    outcome=st.sampled_from(("committed", "rolled_back", "halted")),
)
TRACES = st.builds(
    Trace,
    st.builds(TraceMeta, TEXTS, st.sampled_from(("eager", "random")), st.one_of(st.none(), INTS)),
    SNAPSHOTS,
    st.lists(EVENTS, max_size=3).map(tuple),
    SNAPSHOTS,
)


@settings(deadline=None)
@given(TRACES)
def test_writer_agrees_with_the_frozen_one_on_generated_traces(trace):
    text = serialize_trace(trace)
    assert text == frozen.serialize_trace(trace)
    assert serialize_trace(parse_trace(text)) == text


def test_writer_agrees_with_the_frozen_one_on_the_catalog_traces():
    for lines in EDITED_TRACES:
        trace = parse_trace("\n".join(lines) + "\n")
        assert serialize_trace(trace) == frozen.serialize_trace(trace)


class TestReport:
    def test_shape_and_all_pass_flag(self):
        verdicts = [Verdict("a", True), Verdict("b", False, "boom", (("D", 0.5),))]
        doc = report_to_json(verdicts, meta={"scenario": "x"})
        assert doc["all_pass"] is False
        assert doc["meta"] == {"scenario": "x"}
        assert [v["check"] for v in doc["verdicts"]] == ["a", "b"]
        assert doc["verdicts"][1]["details"] == "boom"

    def test_serialized_report_is_canonical(self):
        verdicts = [Verdict("a", True)]
        text = serialize_report(verdicts)
        assert json.loads(text)["all_pass"] is True
        assert text.rstrip("\n") == canonical_json(json.loads(text))
