"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.load_tdbnet()

import bench  # noqa: E402
import tracer  # noqa: E402
from tdbnet.validation import Verdict  # noqa: E402

TINY = {"throttle-burst": 10, "delay-steady": 10, "reseq-reverse": 8, "aggregate-random": 8}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> bench.Workload:
    return bench.workload(name, TINY[name])


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(bench.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_completes_without_failures(name):
    res = run.measure(tiny(name), seed=3, seconds=0, traced=False)
    assert len(res["plain"]) == run.WARMUP + run.MIN_ITERATIONS
    assert [it.failures for it in res["plain"]] == [[]] * len(res["plain"])
    assert run.check_consistency(res["plain"], res["traced"]) == []


def test_random_policy_cycles_its_schedules():
    seeds = [it.seed for it in run.measure(tiny("aggregate-random"), 2, seconds=0, traced=False)["plain"]]
    assert seeds == [2 * run.SCHEDULES + i for i in range(run.WARMUP + run.MIN_ITERATIONS)]
    eager = run.measure(tiny("reseq-reverse"), 2, seconds=0, traced=False)["plain"]
    assert {it.seed for it in eager} == {None}


def test_each_iteration_builds_a_new_net():
    wl = tiny("throttle-burst")
    first, second = bench.run_pipeline(wl, 0), bench.run_pipeline(wl, 0)
    assert first.net is not second.net
    assert first.fresh_net and second.fresh_net
    # the run caches validation on the net, so reusing it would skip work
    assert getattr(first.net, "_validated", False)


def test_stage_times_are_scaled_to_the_reference_speed():
    stage = bench.Stage([0.3, 0.1, 0.2], ref_s=2 * bench.REF_S)
    assert stage.s == pytest.approx(0.1)
    assert stage.samples == pytest.approx([0.15, 0.05, 0.1])
    it = bench.run_pipeline(tiny("delay-steady"), 0)
    assert all(s.ref_s > 0 for s in it.stages)
    assert len(it.setup.raw_s) == bench.SETUP_REPS


def test_failed_checks_are_counted():
    wl = tiny("throttle-burst")
    bad_verdict = replace(wl, check=lambda tr: Verdict("rate", False, "forced"))
    assert any(f.startswith("verdict:") for f in bench.run_pipeline(bad_verdict, 0).failures)
    # ten times the messages: max_steps truncates the run before quiescence
    truncated = replace(wl, specs=(f"burst:{10 * wl.n}@0",))
    failures = bench.run_pipeline(truncated, 0).failures
    assert any(f.startswith("not quiescent") for f in failures)
    assert any("rows, expected" in f for f in failures)


def test_traced_runs_count_the_same_calls_and_keep_the_trace():
    wl = tiny("aggregate-random")
    counts = []
    for _ in range(2):
        plain = bench.run_pipeline(wl, 7)
        tr = tracer.Tracer()
        traced = bench.run_pipeline(wl, 7, tr)
        assert traced.trace_sha256 == plain.trace_sha256
        assert traced.failures == []
        counts.append({k: v for k, (v, unit) in tracer.layer_metrics(tr.spans).items() if unit != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["exprs.eval_expr.calls"] > 0
    assert counts[0]["persistence.eval_query.calls"] > 0


def test_wrapped_attributes_are_restored():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracer.TARGETS]
    with tracer.Tracer():
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    bench.run_pipeline(tiny("reseq-reverse"), 0, tracer.Tracer())
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_restored_after_an_error():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracer.TARGETS]
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_metrics_match_the_benchmark_file():
    res = run.measure(tiny("delay-steady"), seed=1, seconds=0, traced=True)
    e2e = run.end_to_end(res["plain"])
    layers = run.per_layer(res["plain"], res["traced"])
    assert {(m["name"], m["unit"]) for m in SPEC["end_to_end"]} == {(k, v[1]) for k, v in e2e.items()}
    assert {(m["name"], m["unit"]) for m in SPEC["per_layer"]} == {(k, v[1]) for k, v in layers.items()}
    assert all(value > 0 for value, _, _ in e2e.values())
    assert layers["exprs.guard_flip_time.calls"][0] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "delay-steady", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
