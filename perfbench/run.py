"""Benchmark of the tdbnet pipeline: build -> run -> serialize -> parse ->
replay -> validate, on one pattern workload.

    python3 perfbench/run.py --workload throttle-burst --seed 1 --seconds 10 --trace 0

Repeats the pipeline, each time on a freshly built bundle, for ``--seconds``
seconds (a warm-up iteration and at least three more), checks every
iteration's outputs, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are end-to-end times; with ``--trace 1`` every iteration is
run once untraced and once with per-layer wrappers installed, and the
metrics are the per-layer ones.  ``--workload all`` runs every workload in
its own process.  The exit code is 1 when any correctness check fails.

Each time metric is the median of its samples, in seconds scaled to a
reference host speed (``bench.REF_S``), so that the host's drift does not
show as a change of the program; the report also prints the unscaled
medians and the reference job's time.  The package is imported
from ``src/`` beside this directory; without it the benchmark exits with an
error before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARMUP = 1  # first iterations, checked but not timed: lazy set-up and caches
MIN_ITERATIONS = 3  # timed iterations, at least
# The random policy's work depends on its seed by up to a third, so one
# schedule per run would make the runs of different --seed values differ by
# that much.  Iteration i of a run uses policy seed
# seed * SCHEDULES + i % SCHEDULES: each run times a fixed mix of schedules,
# and each schedule recurs, so its trace can be checked against itself.
SCHEDULES = 8


def load_tdbnet() -> None:
    """Import tdbnet from this checkout's ``src/``, or exit with an error."""
    package = SRC / "tdbnet"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tdbnet sources at {package}")
    sys.path.insert(0, str(SRC))
    import tdbnet

    if Path(tdbnet.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported tdbnet from {tdbnet.__file__}, not {package}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def measure(wl, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat the pipeline for ``seconds``; with ``traced`` each iteration is
    followed by a traced one."""
    import bench
    from tracer import Tracer

    plain: list = []
    with_trace: list = []  # (iteration, spans)
    start = time.perf_counter()
    durations: list[float] = []
    # stop before an iteration of typical length would overrun the budget
    while len(plain) < WARMUP + MIN_ITERATIONS or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        began = time.perf_counter()
        policy_seed = seed * SCHEDULES + len(plain) % SCHEDULES
        plain.append(bench.run_pipeline(wl, policy_seed))
        if traced:
            tr = Tracer()
            with_trace.append((bench.run_pipeline(wl, policy_seed, tr), tr.spans))
        durations.append(time.perf_counter() - began)
    return {"plain": plain, "traced": with_trace}


def timed(iterations: list) -> list:
    """The iterations whose times count: all but the warm-up."""
    return iterations[WARMUP:]


def check_consistency(plain: list, traced: list) -> list[str]:
    """Every iteration of one policy seed must produce the same trace, traced
    or not, and its traced iterations must give the same counts and ratios."""
    from tracer import layer_metrics

    problems = []
    first: dict = {}
    for it in plain + [t for t, _ in traced]:
        ref = first.setdefault(it.seed, it)
        if it.trace_sha256 != ref.trace_sha256:
            problems.append(
                f"policy seed {it.seed}: trace digest {it.trace_sha256} != first iteration's {ref.trace_sha256}"
            )
    counts: dict = {}
    for it, spans in traced:
        these = {k: v for k, (v, unit) in layer_metrics(spans).items() if unit != "s"}
        if counts.setdefault(it.seed, these) != these:
            problems.append(f"policy seed {it.seed}: per-layer call counts differ between traced iterations")
    return problems


def end_to_end(plain: list) -> dict[str, tuple[float, str, list[float]]]:
    """name -> (value, unit, samples), times at the reference host speed"""
    its = timed(plain)
    setups = [t for it in its for t in it.setup.samples]
    stages = {
        "run_s": [it.run.s for it in its],
        "serialize_s": [it.serialize.s for it in its],
        "parse_s": [it.parse.s for it in its],
        "replay_s": [it.replay.s for it in its],
        "pipeline_s": [it.pipeline_s for it in its],
    }
    out = {"setup_s": (statistics.median(setups), "s", setups)}
    for name, samples in stages.items():
        out[name] = (statistics.median(samples), "s", samples)
    rates = [it.events / it.run.s for it in its]
    out["run_events_per_s"] = (plain[0].events / out["run_s"][0], "1/s", rates)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    out["peak_rss_mb"] = (peak_kb / 1024, "MB", [peak_kb / 1024])
    return out


def per_layer(plain: list, traced: list) -> dict[str, tuple[float, str, list[float]]]:
    """name -> (value, unit, samples); layer times are scaled by each traced
    iteration's mean reference speed, as the stages are."""
    from tracer import layer_metrics

    traced = timed(traced)
    per_iter = [
        {name: (v * it.scale if unit == "s" else v, unit) for name, (v, unit) in layer_metrics(spans).items()}
        for it, spans in traced
    ]
    out = {}
    for name, (_, unit) in per_iter[0].items():
        samples = [m[name][0] for m in per_iter]
        # counts and ratios are the first timed schedule's, which repeat
        # exactly (check_consistency); times are medians over the schedules
        out[name] = (statistics.median(samples) if unit == "s" else samples[0], unit, samples)
    first = traced[0][0]
    out["engine.events"] = (first.events, "count", [first.events])
    out["formats.trace_bytes"] = (first.trace_bytes, "B", [first.trace_bytes])
    overhead = statistics.median(t.pipeline_s for t, _ in traced) - statistics.median(
        it.pipeline_s for it in timed(plain)
    )
    out["tracing.overhead_s"] = (overhead, "s", [overhead])
    return out


def host_line(plain: list) -> str:
    """The reference job's median time and the unscaled stage medians."""
    import bench

    its = timed(plain)
    ref = statistics.median(stage.ref_s for it in its for stage in it.stages)
    raw = {
        name: statistics.median(statistics.median(getattr(it, name).raw_s) for it in its)
        for name in ("setup", "run", "serialize", "parse", "replay")
    }
    return f"reference job {ref * 1e3:.3f} ms (times scaled to {bench.REF_S * 1e3:g} ms); unscaled " + "  ".join(
        f"{name} {value:.6g}" for name, value in raw.items()
    )


def run_one(args) -> int:
    load_tdbnet()
    import bench

    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)} or all")
    wl = bench.workload(args.workload)
    res = measure(wl, args.seed, args.seconds, bool(args.trace))
    plain, traced = res["plain"], res["traced"]
    iterations = plain + [t for t, _ in traced]
    failed = [it for it in iterations if it.failures]
    problems = check_consistency(plain, traced)

    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain)

    print(f"workload {wl.name}: {wl.label}")
    print(
        f"  policy {wl.policy}  seed {args.seed}  max_steps {wl.max_steps}  "
        f"python {platform.python_version()}  nproc {nproc()}  trace {args.trace}"
    )
    schedules: dict = {}
    for it in plain:
        schedules.setdefault(it.seed, it)
    for policy_seed, it in schedules.items():
        where = "" if policy_seed is None else f"policy seed {policy_seed}  "
        print(f"  {where}events {it.events}  trace_sha256 {it.trace_sha256}")
    print("  " + host_line(plain))
    # failed_ops_frac is 0 on a correct program, so it travels as the
    # result's "failed" / "attempted" rather than as a bounded metric
    print(f"  failed_ops_frac {len(failed) / len(iterations):g} ratio ({len(failed)}/{len(iterations)})")
    for it in failed[:5]:
        print("  FAILED: " + "; ".join(it.failures))
    for problem in problems:
        print("  INCONSISTENT: " + problem)
    for name, (value, unit, samples) in metrics.items():
        q1, _, q3 = quartiles(samples)
        print(
            f"  {name:42s} {value:14.6g} {unit:6s} min {min(samples):.6g} q1 {q1:.6g} "
            f"q3 {q3:.6g} max {max(samples):.6g} n {len(samples)}"
        )

    correct = not failed and not problems
    result = {
        "correct": correct,
        "attempted": len(iterations),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process (peak RSS is per process)."""
    load_tdbnet()
    import bench

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in bench.WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or proc.returncode not in (0, 1):
            raise SystemExit(f"perfbench: workload {name} exited with code {proc.returncode}")
        child = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0, help="seed of the random-policy workload")
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
