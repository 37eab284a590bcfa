"""Command line: exit codes and the files ``run`` writes."""

import json

from tdbnet import cli
from tdbnet.engine import run
from tdbnet.formats import serialize_trace
from tdbnet.patterns import build_throttler, with_workload
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


def test_a_net_with_a_float_fact_is_a_located_error(tmp_path, capsys):
    doc = {
        "colorsets": {},
        "relations": [{"name": "R", "columns": [{"name": "a", "type": "int"}], "key": ["a"]}],
        "queries": [],
        "actions": [],
        "places": [],
        "transitions": [],
        "initial_marking": {},
        "initial_instance": {"clock": 0, "facts": [["R", [1.5], 0]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["run", "--net", str(path), "--out", str(tmp_path / "t.trace.jsonl")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE == 1
    assert err.startswith("error: initial_instance.facts[0]: 1.5 is not a value")
    assert "Traceback" not in err
