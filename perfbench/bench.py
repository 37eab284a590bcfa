"""Benchmark workloads and the measured pipeline.

One iteration drives the public ``tdbnet`` API the way a user does: build a
fresh pattern bundle and its workload, run it, store the trace, read it
back, replay it with verification, and validate it.  Every stage is timed
separately, and the iteration is checked for correctness outside the timed
regions.

All calls into ``tdbnet`` go through module attributes (``engine.run``,
``validation.check_rate``, ...), so the tracer in ``tracer.py`` can wrap
them for a traced iteration.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

from tdbnet import Net, engine, formats, patterns, scenarios, validation, workloads


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # pattern family, as the workload language names it
    label: str  # pattern configuration and workload, as the report shows them
    build: Callable[[], "patterns.PatternBundle"]
    specs: tuple[str, ...]
    n: int  # messages fed
    policy: str
    check: Callable[[engine.Trace], "validation.Verdict"]  # the pattern's validation check
    count_relation: str  # relation that must end with exactly n rows

    @property
    def max_steps(self) -> int:
        # every pattern here fires at most 3 events per message plus one
        # group close; the margin keeps a truncated run distinguishable
        return 4 * self.n + 16


def _rev(n: int) -> str:
    """Ordinals of the reversed permutation rev(n), that is n..1."""
    return ",".join(str(i) for i in range(n, 0, -1))


def _throttle_burst(n: int) -> Workload:
    return Workload(
        name="throttle-burst",
        kind="throttler",
        label=f"throttler(rate=5) burst:{n}@0",
        build=lambda: patterns.build_throttler(5),
        specs=(f"burst:{n}@0",),
        n=n,
        policy="eager",
        check=lambda tr: validation.check_rate(tr, "out_log", 5, 1000),
        count_relation="out_log",
    )


def _delay_steady(n: int) -> Workload:
    return Workload(
        name="delay-steady",
        kind="delayer",
        label=f"delayer(250) steady:{n}:every:10@0",
        build=lambda: patterns.build_delayer(250),
        specs=(f"steady:{n}:every:10@0",),
        n=n,
        policy="eager",
        check=lambda tr: validation.check_delay(tr, "in_log", "out_log", 250),
        count_relation="out_log",
    )


def _reseq_reverse(n: int) -> Workload:
    return Workload(
        name="reseq-reverse",
        kind="resequencer",
        label=f"resequencer() perm:rev({n})@0",
        build=patterns.build_resequencer,
        specs=(f"perm:{_rev(n)}@0",),
        n=n,
        policy="eager",
        check=lambda tr: validation.check_order(tr, "out_log", "ord", seq_column="seq"),
        count_relation="out_log",
    )


def _aggregate_random(n: int) -> Workload:
    return Workload(
        name="aggregate-random",
        kind="aggregator",
        label=f"aggregator(timeout=100) perm:rev({n})@0",
        build=lambda: patterns.build_aggregator(timeout=100),
        specs=(f"perm:{_rev(n)}@0",),
        n=n,
        policy="random",
        check=lambda tr: scenarios.aggregator_accounting_verdict(tr),
        count_relation="in_log",
    )


# name -> (factory, message count used by the benchmark).  The counts keep
# one iteration near a second, so a run's medians rest on a dozen or more.
WORKLOADS: dict[str, tuple[Callable[[int], Workload], int]] = {
    "throttle-burst": (_throttle_burst, 200),
    "delay-steady": (_delay_steady, 200),
    "reseq-reverse": (_reseq_reverse, 150),
    "aggregate-random": (_aggregate_random, 100),
}


def workload(name: str, n: Optional[int] = None) -> Workload:
    factory, default_n = WORKLOADS[name]
    return factory(default_n if n is None else n)


CODEC_REPS = 5  # serialize and parse are short, so each is timed this often
SETUP_REPS = 11  # set-ups per iteration; the last one's bundle is run

# Host speed.  On a shared 2-core cloud VM the speed of pure-Python code
# drifted by up to 2x over minutes and by a fifth within seconds, the same
# for tdbnet and for unrelated loops.  A fixed reference job, in the style of
# tdbnet's code (tuples, dicts, sorting, string joins) but calling nothing
# in tdbnet, is timed before and after every stage, and the stage's
# time is scaled by REF_S over the mean of those two times.  Reported times
# are thus the seconds the stage would take on a host where the reference
# job takes REF_S; a change to tdbnet moves them, a change of host speed
# during the runs does not.
REF_S = 0.010


def _ref_key(item):
    return item[1]


def _reference_job() -> int:
    """About 10 ms of pure-Python work that never changes with tdbnet."""
    rows: dict = {}
    for i in range(6000):
        key = (i % 211, i & 15, "r%d" % (i % 37))
        rows[key] = rows.get(key, 0) + 1
    ordered = sorted(rows.items(), key=_ref_key)
    head = frozenset(key for key, _ in ordered[:500])
    text = ",".join(f"{a}:{b}" for (a, b, _), _ in ordered)
    return sum(1 for key in rows if key in head) + len(text.split(","))


def reference_s() -> float:
    """Time of one run of the reference job."""
    t0 = _start()
    _reference_job()
    return time.perf_counter() - t0


@dataclass
class Stage:
    raw_s: list[float]  # one per repetition, as measured
    ref_s: float  # mean reference time just before and just after the stage

    @property
    def s(self) -> float:
        """Median repetition, scaled to the reference host speed."""
        return statistics.median(self.raw_s) * REF_S / self.ref_s

    @property
    def samples(self) -> list[float]:
        return [t * REF_S / self.ref_s for t in self.raw_s]


@dataclass
class Iteration:
    setup: Stage
    run: Stage
    serialize: Stage
    parse: Stage
    replay: Stage
    validate: Stage
    events: int
    trace_bytes: int
    trace_sha256: str
    seed: Optional[int]  # the policy's seed; None for the eager policy
    fresh_net: bool  # the net carried no engine caches before the run
    net: Net
    failures: list[str]

    @property
    def stages(self) -> tuple[Stage, ...]:
        return (self.setup, self.run, self.serialize, self.parse, self.replay, self.validate)

    @property
    def pipeline_s(self) -> float:
        return sum(stage.s for stage in self.stages)

    @property
    def scale(self) -> float:
        """Factor from measured to reference-speed seconds over the iteration."""
        return REF_S / statistics.mean(stage.ref_s for stage in self.stages)


def _start() -> float:
    """Collect garbage left by earlier stages, then read the clock.

    Each timed stage starts from the same collector state, so it pays for
    the collections its own allocations trigger and no others.
    """
    gc.collect()
    return time.perf_counter()


def setup(wl: Workload):
    """Stage 1: a fresh bundle and its initial snapshot."""
    bundle = wl.build()
    arrivals = workloads.parse_workloads(wl.kind, wl.specs)
    return bundle, patterns.with_workload(bundle, arrivals)


def _replay(net: Net, trace: engine.Trace) -> Optional[Exception]:
    try:
        engine.replay(net, trace, verify=True)
    except ValueError as e:  # FiringError and DefinitionError included
        return e
    return None


def run_pipeline(wl: Workload, seed: int, tracer=None) -> Iteration:
    """One measured iteration: set-up, run, serialize, parse, replay and
    validation, followed by the correctness checks.  Set-up, serialize and
    parse are short, so each is timed several times; every set-up builds a
    new bundle, and the last one is run.  Each stage's time is scaled to
    the reference host speed (see ``REF_S``).  A tracer, when given, is active
    for the stages and not for the checks."""
    policy_seed = seed if wl.policy == "random" else None
    refs = [reference_s()]

    def stage(fn, reps=1):
        raw = []
        for _ in range(reps):
            t0 = _start()
            out = fn()
            raw.append(time.perf_counter() - t0)
        refs.append(reference_s())
        return out, Stage(raw, (refs[-2] + refs[-1]) / 2)

    with tracer if tracer is not None else contextlib.nullcontext():
        # a traced iteration sets up once, so its layer totals cover one pipeline
        reps = SETUP_REPS if tracer is None else 1
        (bundle, initial), setup_t = stage(lambda: setup(wl), reps)
        net = bundle.net
        fresh_net = not hasattr(net, "_validated")
        trace, run_t = stage(
            lambda: engine.run(
                net,
                initial,
                policy=wl.policy,
                seed=policy_seed,
                max_steps=wl.max_steps,
            )
        )
        text, serialize_t = stage(lambda: formats.serialize_trace(trace), CODEC_REPS)
        parsed, parse_t = stage(lambda: formats.parse_trace(text), CODEC_REPS)
        replay_error, replay_t = stage(lambda: _replay(net, parsed))
        verdict, validate_t = stage(lambda: wl.check(parsed))

    failures = []
    if replay_error is not None:
        failures.append(f"replay: {replay_error}")
    if not verdict.ok:
        failures.append(f"verdict: {verdict.line()}")
    if len(trace.events) >= wl.max_steps or engine.advance_clock(net, trace.final) is not None:
        failures.append(f"not quiescent after {len(trace.events)} events")
    if formats.serialize_trace(parsed) != text:
        failures.append("serialize -> parse -> serialize is not byte-identical")
    rows = len(trace.final.instance.rows(wl.count_relation))
    if rows != wl.n:
        failures.append(f"{wl.count_relation} holds {rows} rows, expected {wl.n}")

    data = text.encode()
    return Iteration(
        setup=setup_t,
        run=run_t,
        serialize=serialize_t,
        parse=parse_t,
        replay=replay_t,
        validate=validate_t,
        events=len(trace.events),
        trace_bytes=len(data),
        trace_sha256=hashlib.sha256(data).hexdigest(),
        seed=policy_seed,
        fresh_net=fresh_net,
        net=net,
        failures=failures,
    )
