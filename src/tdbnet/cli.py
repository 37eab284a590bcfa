"""Command line entry point.

Exit codes are a stable contract: 0 completed/all checks passed, 1 usage or
parse problem (a net document that ``validate_net`` rejects, such as one
whose inscription does not type-check, is a located error, and no trace
is written), a ``DefinitionError`` or ``EvalError`` raised while a net
runs (no trace is written either), or standard output closed before
everything was written, 2 run ended halted on a constraint violation, 3
validation failure, 4 run stopped at ``--max-steps`` events.

`run` executes a catalog pattern (or a net document) under a workload and
writes a trace file; `validate` runs checks against a stored trace and
writes a report; `scenario` runs one of the built-in case studies.  Times
on the command line (workload arrivals, ``--until``) are in clock units,
of which the throttler's ``--rate`` counts 1000 to the second; ``--seed``
alone seeds the random policy.  ``build_pattern`` maps ``--pattern`` to
one catalog builder, and the bundle's name selects the workload's payload
rule.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .engine import Trace, run
from .exprs import DefinitionError, EvalError
from .formats import (
    DocumentError,
    REPORT_SUFFIX,
    TRACE_SUFFIX,
    parse_net,
    parse_trace,
    serialize_report,
    serialize_trace,
)
from .patterns import (
    EndpointStub,
    PatternBundle,
    build_aggregator,
    build_circuit_breaker,
    build_content_based_router,
    build_delayer,
    build_resequencer,
    build_throttler,
    with_workload,
)
from .scenarios import SCENARIOS
from .validation import (
    InstanceExpectation,
    Verdict,
    assert_final_instance,
    check_delay,
    check_order,
    check_rate,
)
from .workloads import WorkloadError, parse_workloads

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HALTED = 2
EXIT_FAILED = 3
EXIT_MAX_STEPS = 4

PATTERNS = ("throttler", "delayer", "resequencer", "aggregator", "circuit-breaker", "router")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with status 2
        raise UsageError(message)


def parse_endpoint(spec: str) -> EndpointStub:
    if spec == "healthy":
        return EndpointStub.healthy()
    if spec == "failing":
        return EndpointStub.failing()
    steps = []
    for part in spec.split(","):
        name, _, raw = part.partition(":")
        if name == "fail":
            steps.append(("fail", 0))
        elif name == "respond":
            try:
                steps.append(("respond", int(raw or "0")))
            except ValueError:
                raise UsageError(f"bad endpoint step {part!r}") from None
        else:
            raise UsageError(f"bad endpoint step {part!r}")
    return EndpointStub(tuple(steps))


def build_pattern(args) -> PatternBundle:
    """The catalog bundle that ``--pattern`` names, built from the options
    that pattern reads; its ``name`` is the workload kind."""
    name = args.pattern
    if name == "throttler":
        return build_throttler(args.rate)
    if name == "delayer":
        return build_delayer(args.delay)
    if name == "resequencer":
        return build_resequencer()
    if name == "aggregator":
        return build_aggregator(timeout=args.timeout, expiry_grace=args.grace)
    if name == "circuit-breaker":
        return build_circuit_breaker(args.threshold, args.receive_timeout, parse_endpoint(args.endpoint))
    if name == "router":
        conditions = tuple(c for c in args.conditions.split(",") if c)
        return build_content_based_router(conditions, variant=args.variant)
    raise UsageError(f"unknown pattern {name!r}; choose from {', '.join(PATTERNS)}")


def _print_summary(trace: Trace, out) -> None:
    print("final instance:", file=out)
    sizes = trace.final.instance.relation_sizes()
    width = max((len(r) for r in sizes), default=0)
    for rel, n in sizes.items():
        print(f"  {rel:<{width}}  {n} rows", file=out)
    print(f"clock {trace.final.clock}, {len(trace.events)} events", file=out)


def cmd_run(args, out) -> int:
    seed = args.seed
    if args.policy == "random" and seed is None:
        seed = 0
    if args.net:
        try:
            net, snapshot = parse_net(Path(args.net).read_text(encoding="utf-8"))
        except OSError as e:
            print(f"cannot read {args.net}: {e}", file=sys.stderr)
            return EXIT_USAGE
        if args.workload:
            print("workloads apply to --pattern runs; net documents carry their own marking", file=sys.stderr)
            return EXIT_USAGE
        stem = Path(args.net).name.removesuffix(".tdbnet.json")
    else:
        bundle = build_pattern(args)
        arrivals = parse_workloads(bundle.name, args.workload or ())
        net, snapshot = bundle.net, with_workload(bundle, arrivals)
        stem = args.pattern
    trace = run(
        net,
        snapshot,
        policy=args.policy,
        seed=seed,
        max_steps=args.max_steps,
        until=args.until,
        check_views=args.check_views,
    )
    path = Path(args.out) if args.out else Path(f"{stem}{TRACE_SUFFIX}")
    path.write_text(serialize_trace(trace), encoding="utf-8")
    print(f"trace written to {path}", file=out)
    _print_summary(trace, out)
    if trace.events and trace.events[-1].outcome == "halted":
        print("run halted on a constraint violation", file=out)
        return EXIT_HALTED
    if len(trace.events) >= args.max_steps:
        print(f"run stopped at --max-steps {args.max_steps}", file=out)
        return EXIT_MAX_STEPS
    return EXIT_OK


def parse_check(spec: str):
    """The check that ``spec`` names, as a function of a trace.  A
    malformed spec raises ValueError, as does the check when it names a
    relation or column that the trace lacks."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "delay" and len(parts) == 4:
        src, dst, d = parts[1], parts[2], int(parts[3])
        return lambda tr: check_delay(tr, src, dst, d)
    if kind == "rate" and len(parts) == 4:
        rel, limit, bucket = parts[1], int(parts[2]), int(parts[3])
        return lambda tr: check_rate(tr, rel, limit, bucket)
    if kind == "order" and len(parts) in (3, 4):
        rel, col = parts[1], parts[2]
        seq = parts[3] if len(parts) == 4 else None
        return lambda tr: check_order(tr, rel, col, seq_column=seq)
    if kind == "final" and len(parts) == 2:
        empty, non_empty = [], []
        for clause in parts[1].split(","):
            rel, _, state = clause.partition("=")
            if state == "empty":
                empty.append(rel)
            elif state == "nonempty":
                non_empty.append(rel)
            else:
                raise ValueError(f"bad final clause {clause!r} (want rel=empty|nonempty)")
        expectation = InstanceExpectation(empty=tuple(empty), non_empty=tuple(non_empty))
        return lambda tr: assert_final_instance(tr, expectation)
    raise ValueError("unknown check")


def cmd_validate(args, out) -> int:
    try:
        trace = parse_trace(Path(args.trace).read_text(encoding="utf-8"))
    except OSError as e:
        print(f"cannot read {args.trace}: {e}", file=sys.stderr)
        return EXIT_USAGE
    verdicts: list[Verdict] = []
    for spec in args.check:
        try:
            verdicts.append(parse_check(spec)(trace))
        except ValueError as e:
            raise UsageError(f"--check {spec!r}: {e}") from None
    report_path = Path(args.report) if args.report else Path(args.trace).with_suffix("").with_suffix("")
    if not args.report:
        report_path = Path(str(report_path) + REPORT_SUFFIX)
    report_path.write_text(
        serialize_report(verdicts, {"trace": str(args.trace), "checks": list(args.check)}),
        encoding="utf-8",
    )
    # the report is written before anything is printed, so that it exists
    # even when the reader of stdout has gone
    for v in verdicts:
        print(v.line(), file=out)
    print(f"report written to {report_path}", file=out)
    return EXIT_OK if all(v.ok for v in verdicts) else EXIT_FAILED


def cmd_scenario(args, out) -> int:
    name = args.name
    if name not in SCENARIOS:
        raise UsageError(f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}")
    outcome = SCENARIOS[name].execute(args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, trace in outcome.traces:
        (out_dir / f"{name}-{label}{TRACE_SUFFIX}").write_text(
            serialize_trace(trace), encoding="utf-8"
        )
    verdicts = outcome.report_verdicts()
    for v in verdicts:
        print(v.line(), file=out)
    (out_dir / f"{name}{REPORT_SUFFIX}").write_text(
        serialize_report(verdicts, {"scenario": name}), encoding="utf-8"
    )
    print(
        f"scenario {name}: {'ok' if outcome.ok else 'FAILED'} "
        f"({len(outcome.traces)} trace files in {out_dir})",
        file=out,
    )
    return EXIT_OK if outcome.ok else EXIT_FAILED


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tdbnet", description="timed db-net pattern engine")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a pattern or net document", parents=[], add_help=True)
    src = pr.add_mutually_exclusive_group(required=True)
    src.add_argument("--pattern", choices=PATTERNS)
    src.add_argument("--net", help="a .tdbnet.json document")
    pr.add_argument("--workload", action="append", default=[],
                    help="burst:N@T | steady:N:every:D@T | perm:3,1,2@T | vals:50,120@T")
    pr.add_argument("--policy", choices=("eager", "random"), default="eager")
    pr.add_argument("--seed", type=int)
    pr.add_argument("--until", type=int)
    pr.add_argument("--max-steps", type=int, default=10_000)
    pr.add_argument("--out")
    pr.add_argument("--check-views", action="store_true")
    pr.add_argument("--rate", type=int, default=5)
    pr.add_argument("--delay", type=int, default=250)
    pr.add_argument("--timeout", type=int, default=100)
    pr.add_argument("--grace", type=int, default=0)
    pr.add_argument("--threshold", type=int, default=5)
    pr.add_argument("--receive-timeout", type=int, default=30)
    pr.add_argument("--endpoint", default="healthy",
                    help="healthy | failing | comma script of fail / respond:D")
    pr.add_argument("--conditions", default="gt:10,lt:100")
    pr.add_argument("--variant", choices=("correct", "flawed"), default="correct")
    pr.set_defaults(fn=cmd_run)

    pv = sub.add_parser("validate", help="run checks against a stored trace")
    pv.add_argument("trace")
    # a validation that runs no check passes any trace that parses
    pv.add_argument("--check", action="append", required=True,
                    help="delay:IN:OUT:D | rate:REL:LIMIT:BUCKET | order:REL:COL[:SEQ] | final:rel=empty,...")
    pv.add_argument("--report")
    pv.set_defaults(fn=cmd_validate)

    ps = sub.add_parser("scenario", help="run a built-in case study")
    ps.add_argument("name")
    ps.add_argument("--seed", type=int)
    ps.add_argument("--out-dir", default=".")
    ps.set_defaults(fn=cmd_scenario)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head -1``): send whatever is
        # still buffered to devnull, so that the flush at exit cannot fail
        # again, and exit 1 without a traceback, as the signal module's
        # documentation advises
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_USAGE
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DocumentError, WorkloadError) as e:
        for line in getattr(e, "diagnostics", None) or [str(e)]:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_USAGE
    except (DefinitionError, EvalError) as e:
        # a definition fault that shows only while the net runs: no trace
        # is written; a net document is typed before it runs, so no value
        # that does not fit its place or column ends up here
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
