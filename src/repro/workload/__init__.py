"""Query workload substrate: Zipf popularity, Poisson arrivals, traces."""

from .generator import QueryWorkload
from .trace import (
    QueryEvent,
    TraceRecorder,
    TraceReplayer,
    parse_trace,
    serialize_trace,
)
from .zipf import ZipfSampler

__all__ = [
    "ZipfSampler",
    "QueryWorkload",
    "QueryEvent",
    "TraceRecorder",
    "TraceReplayer",
    "serialize_trace",
    "parse_trace",
]
