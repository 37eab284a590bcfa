"""Workload mini-language for feeding pattern bundles.

Specs (times in clock units; the throttler's rate counts per 1000 of them):

* ``burst:N@T``          - N messages arriving at T
* ``steady:N:every:D@T`` - N messages at T, T+D, T+2D, ...
* ``perm:3,1,2@T``       - one sequence, ordinals in the given order
                           (resequencer/aggregator payloads)
* ``vals:50,120@T``      - one message per value (router payloads)

The kind is a bundle's name; payload fields depend on the pattern family:
body text for plain message patterns, (value) for the router variants
(``router_correct``, ``router_flawed``), (sequence, ordinal, total, body)
for the stateful patterns.
"""

from __future__ import annotations

from typing import Sequence


class WorkloadError(ValueError):
    pass


def _payload(kind: str, i: int, *, ord_: int | None = None, total: int | None = None,
             value: int | None = None) -> tuple:
    if kind in ("throttler", "delayer", "circuit_breaker"):
        return (f"m{i:04d}",)
    if kind.startswith("router"):
        return (value if value is not None else 50,)
    if kind in ("resequencer", "aggregator"):
        return (1, ord_ if ord_ is not None else i + 1, total, f"b{ord_ or i + 1:03d}")
    raise WorkloadError(f"no payload rule for pattern kind {kind!r}")


def _int(raw: str, what: str, minimum: int = 0) -> int:
    try:
        n = int(raw)
    except ValueError:
        raise WorkloadError(f"bad {what} {raw!r}") from None
    if n < minimum:
        raise WorkloadError(f"{what} must be >= {minimum}, got {n}")
    return n


def _ints(raw: str, what: str) -> list[int]:
    try:
        return [int(p) for p in raw.split(",") if p]
    except ValueError:
        raise WorkloadError(f"bad {what} list {raw!r}") from None


def parse_workload(kind: str, spec: str) -> list[tuple[int, tuple]]:
    """Arrival list [(at, payload fields)] for one workload spec."""
    spec = spec.strip()
    body, sep, rawt = spec.rpartition("@")
    if not sep:
        raise WorkloadError(f"workload {spec!r} needs an @T arrival time")
    try:
        start = int(rawt)
    except ValueError:
        raise WorkloadError(f"bad arrival time in {spec!r}") from None
    if start < 0:
        raise WorkloadError("arrival times must be >= 0")

    parts = body.split(":")
    if parts[0] == "burst" and len(parts) == 2:
        n = _int(parts[1], "message count")
        return [(start, _payload(kind, i, ord_=i + 1, total=n)) for i in range(n)]
    if parts[0] == "steady" and len(parts) == 4 and parts[2] == "every":
        n = _int(parts[1], "message count")
        step = _int(parts[3], "interval")
        return [
            (start + i * step, _payload(kind, i, ord_=i + 1, total=n)) for i in range(n)
        ]
    if parts[0] == "perm" and len(parts) == 2:
        ords = _ints(parts[1], "ordinal")
        if sorted(ords) != list(range(1, len(ords) + 1)):
            raise WorkloadError(f"perm ordinals must be a permutation of 1..n, got {ords}")
        return [
            (start, _payload(kind, i, ord_=o, total=len(ords))) for i, o in enumerate(ords)
        ]
    if parts[0] == "vals" and len(parts) == 2:
        if not kind.startswith("router"):
            raise WorkloadError("vals is a router workload")
        return [
            (start, _payload(kind, i, value=v)) for i, v in enumerate(_ints(parts[1], "value"))
        ]
    raise WorkloadError(f"unrecognized workload {spec!r}")


def parse_workloads(kind: str, specs: Sequence[str]) -> list[tuple[int, tuple]]:
    arrivals: list[tuple[int, tuple]] = []
    for spec in specs:
        arrivals.extend(parse_workload(kind, spec))
    return arrivals
