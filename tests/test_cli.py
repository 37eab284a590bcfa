"""Command line: exit codes and the files ``run`` writes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdbnet
from tdbnet import cli
from tdbnet.engine import run
from tdbnet.formats import parse_trace, serialize_net, serialize_trace
from tdbnet.patterns import build_delayer, build_throttler, with_workload
from tdbnet.scenarios import SCENARIOS
from tdbnet.workloads import parse_workload


def _run(tmp_path, *extra):
    out = tmp_path / "t.trace.jsonl"
    code = cli.main(["run", "--pattern", "throttler", "--rate", "5", "--workload", "burst:4@0", "--out", str(out), *extra])
    return code, out.read_text(encoding="utf-8")


def test_a_run_that_quiesces_exits_0(tmp_path, capsys):
    code, _ = _run(tmp_path)
    assert code == cli.EXIT_OK
    assert "12 events" in capsys.readouterr().out


def test_a_run_cut_at_max_steps_says_so_and_exits_4(tmp_path, capsys):
    code, text = _run(tmp_path, "--max-steps", "5")
    assert code == cli.EXIT_MAX_STEPS == 4
    printed = capsys.readouterr().out
    assert "5 events" in printed and "run stopped at --max-steps 5" in printed
    # the trace is the engine's own, footer included
    bundle = build_throttler(5)
    trace = run(bundle.net, with_workload(bundle, parse_workload("throttler", "burst:4@0")), max_steps=5)
    assert text == serialize_trace(trace)


def test_unknown_check_is_a_usage_error(tmp_path, capsys):
    _run(tmp_path)
    assert cli.main(["validate", str(tmp_path / "t.trace.jsonl"), "--check", "speed:1"]) == cli.EXIT_USAGE
    assert "unknown check" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec,reason",
    [
        ("rate:out_log:five:1000", "invalid literal for int() with base 10: 'five'"),
        ("order:out_log:nope", "relation 'out_log' has no column 'nope'"),
        ("rate:NOPE:5:1000", "unknown relation 'NOPE'"),
        ("delay:in_log:out_log:-1", "d must be >= 0"),
        ("rate:out_log:5:0", "bucket must be > 0"),
    ],
    ids=["int-field", "unknown-column", "unknown-relation", "negative-delay", "zero-bucket"],
)
def test_a_malformed_check_is_a_usage_error(tmp_path, capsys, spec, reason):
    # each printed a traceback
    _run(tmp_path)
    capsys.readouterr()
    assert cli.main(["validate", str(tmp_path / "t.trace.jsonl"), "--check", spec]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: --check {spec!r}: {reason}\n"
    assert not (tmp_path / "t.report.json").exists()


def test_validate_without_a_check_is_a_usage_error(tmp_path, capsys):
    # it would pass any trace that parses
    _run(tmp_path)
    assert cli.main(["validate", str(tmp_path / "t.trace.jsonl")]) == cli.EXIT_USAGE
    assert "--check" in capsys.readouterr().err
    assert not (tmp_path / "t.report.json").exists()


@pytest.mark.parametrize(
    "instance,diagnostic",
    [
        ({"clock": 0, "facts": [["R", [1.5], 0]]}, "initial_instance.facts[0]: 1.5 is not a value"),
        ([], "initial_instance: expected an object"),
    ],
    ids=["float-fact", "instance-list"],
)
def test_a_net_with_a_float_fact_is_a_located_error(tmp_path, capsys, instance, diagnostic):
    doc = {
        "colorsets": {},
        "relations": [{"name": "R", "columns": [{"name": "a", "type": "int"}], "key": ["a"]}],
        "queries": [],
        "actions": [],
        "places": [],
        "transitions": [],
        "initial_marking": {},
        "initial_instance": instance,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["run", "--net", str(path), "--out", str(tmp_path / "t.trace.jsonl")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE == 1
    assert err.startswith(f"error: {diagnostic}")
    assert "Traceback" not in err


def _edit_fact(doc):
    doc["initial_instance"]["facts"][1][1][2] = "\ud800"


def _edit_token(doc):
    doc["initial_marking"] = {"ch1": [{"at": 0, "value": [0, "m\ud800"]}]}


@pytest.mark.parametrize(
    "edit,diagnostic",
    [
        (_edit_fact, "initial_instance: relation 'inbox': row (1, 0, '\\ud800') holds text that UTF-8 cannot encode"),
        (
            _edit_token,
            "initial_instance: place 'ch1': token ((0, 'm\\ud800'), 0) "
            "holds text that UTF-8 cannot encode",
        ),
    ],
    ids=["fact", "token"],
)
def test_a_lone_surrogate_in_a_net_is_a_located_error(tmp_path, capsys, edit, diagnostic):
    # "\ud800" is legal JSON; the run succeeded, and writing its trace died
    # with a UnicodeEncodeError
    bundle = build_delayer(250)
    doc = json.loads(serialize_net(bundle.net, with_workload(bundle, parse_workload("delayer", "burst:3@0"))))
    edit(doc)
    path = tmp_path / "sur.tdbnet.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "t.trace.jsonl"
    code = cli.main(["run", "--net", str(path), "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {diagnostic}\n"
    assert not out.exists()


def _e(op, *args):
    return {"op": op, "args": list(args)}


M, B, AGE_M = _e("var", "m"), _e("var", "b"), _e("age", "m")


def _forward(field, value):
    """An edit of the delayer document's t_forward: its ``guard``, the
    ``expr`` of its output arc to ch3, or the ``args`` of its call of
    emit_out."""

    def edit(t):
        if field == "guard":
            t["guard"] = value
        elif field == "expr":
            t["outputs"][0]["expr"] = value
        else:
            t["actions"][0]["args"] = value

    return edit


@pytest.mark.parametrize(
    "edit,diagnostic",
    [
        (_forward("expr", _e("tuple", _e("+", _e("const", 1), _e("const", "a")), B)), "'+' in arc to 'ch3' takes int operands, not 'text'"),
        (_forward("guard", _e("<", B, _e("const", 3))), "'<' in guard compares 'text' with 'int'"),
        (_forward("expr", _e("const", "x")), "arc to 'ch3' is of color 'text', not product(int, text)"),
        (_forward("args", [B, M]), "action 'emit_out' argument 0 is of color 'text', not 'int'"),
        (_forward("expr", _e("tuple", _e("min", _e("const", True), M), B)), "'min' in arc to 'ch3' takes int operands, not 'bool'"),
        (_forward("guard", _e("const", "yes")), "guard is of color 'text', not 'bool'"),
        (_forward("guard", _e(">=", AGE_M, _e("const", 250), _e("const", 10**9))), "'>=' in guard takes 2 operands, got 3"),
        (_forward("guard", _e("not", _e("const", False), _e("const", True))), "'not' in guard takes 1 operand, got 2"),
        (_forward("guard", _e(">=", AGE_M)), "'>=' in guard takes 2 operands, got 1"),
        (_forward("guard", _e("not")), "'not' in guard takes 1 operand, got 0"),
        (_forward("guard", _e(">=", _e("+"), _e("const", 0))), "'+' in guard takes at least 1 operand, got 0"),
    ],
    ids=[
        "operand",
        "guard",
        "arc-constant",
        "call",
        "min-of-bool",
        "guard-text",
        "comparison-of-three",
        "not-of-two",
        "comparison-of-one",
        "not-of-none",
        "sum-of-none",
    ],
)
def test_an_ill_typed_net_is_a_located_error_line(tmp_path, capsys, edit, diagnostic):
    # each passed validation: the first two ended in a bare TypeError, the
    # next three failed at the first firing, and the others ran, reading
    # the text as true, ignoring an operand, or died with an IndexError
    bundle = build_delayer(250)
    doc = json.loads(serialize_net(bundle.net, with_workload(bundle, parse_workload("delayer", "burst:3@0"))))
    edit(next(t for t in doc["transitions"] if t["id"] == "t_forward"))
    path = tmp_path / "run.tdbnet.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "t.trace.jsonl"
    code = cli.main(["run", "--net", str(path), "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: net: transition 't_forward': {diagnostic}\n"
    assert not out.exists()


def test_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    # as `tdbnet run ... | head -0`: the reader is gone before anything is
    # written; unbuffered, the first print fails, buffered, the last flush
    src = str(Path(tdbnet.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    for unbuffered in ("1", ""):
        trace = tmp_path / f"t{unbuffered}.trace.jsonl"
        for argv in (
            ["run", "--pattern", "throttler", "--workload", "burst:4@0", "--out", str(trace)],
            ["validate", str(trace), "--check", "rate:out_log:5:1000"],
        ):
            proc = subprocess.Popen(
                [sys.executable, "-m", "tdbnet", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=dict(base, PYTHONUNBUFFERED=unbuffered),
            )
            proc.stdout.close()
            err = proc.stderr.read().decode()
            proc.stderr.close()
            assert proc.wait() == cli.EXIT_USAGE == 1, err
            assert err == ""
        # the files are written before anything is printed
        assert trace.exists() and (tmp_path / f"t{unbuffered}.report.json").exists()


# the labels of the trace files each scenario writes, as
# <scenario>-<label>.trace.jsonl; view-consistency's are its bundles' names
TRACE_LABELS = {
    "aggregator-timeout-rollback": ["rollback"],
    "circuit-breaker-trip": ["trip", "resume"],
    "compliance-halt": ["halted"],
    "delayer-delay": ["delayed"],
    "determinism": ["eager", "random"],
    "flawed-router": ["flawed", "correct"],
    "ks-balancer": [],
    "receive-timeout": ["late-reply", "in-time"],
    "resequencer-permutation": ["reordered"],
    "throttler-rate": ["throttled"],
    "view-consistency": [
        "throttler",
        "delayer",
        "resequencer",
        "aggregator",
        "circuit_breaker",
        "router_flawed",
        "router_correct",
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_runs_and_writes_its_files(tmp_path, capsys, name):
    assert cli.main(["scenario", name, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert f"scenario {name}: ok" in capsys.readouterr().out
    report = json.loads((tmp_path / f"{name}.report.json").read_text(encoding="utf-8"))
    assert report["all_pass"] is True
    labels = TRACE_LABELS[name]
    assert sorted(p.name for p in tmp_path.glob("*.trace.jsonl")) == sorted(f"{name}-{label}.trace.jsonl" for label in labels)
    for label in labels:
        parse_trace((tmp_path / f"{name}-{label}.trace.jsonl").read_text(encoding="utf-8"))


def test_an_unknown_scenario_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["scenario", "nope", "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: unknown scenario 'nope'; available: ")
    assert list(tmp_path.iterdir()) == []
