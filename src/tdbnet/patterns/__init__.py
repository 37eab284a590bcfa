from .aggregator import build_aggregator
from .base import EndpointStub, PatternBundle, extend_workload, replace_rows, with_workload
from .circuit_breaker import build_circuit_breaker, manual_close, with_endpoint
from .resequencer import build_resequencer
from .router import build_content_based_router, parse_condition
from .throttle import build_delayer, build_throttler

__all__ = [
    "EndpointStub",
    "PatternBundle",
    "build_aggregator",
    "build_circuit_breaker",
    "build_content_based_router",
    "build_delayer",
    "build_resequencer",
    "build_throttler",
    "extend_workload",
    "manual_close",
    "parse_condition",
    "replace_rows",
    "with_endpoint",
    "with_workload",
]
