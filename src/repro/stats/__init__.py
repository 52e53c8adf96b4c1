"""Counters, miss classification, derived metrics, and profilers."""

from repro.stats.counters import Counters
from repro.stats.metrics import (
    read_node_miss_rate,
    relative_rnmr,
    traffic_by_class,
    time_breakdown_figure5,
)
from repro.obs.timeline import CompositeProfiler
from repro.stats.profiler import SharingProfiler, format_profile

__all__ = [
    "Counters",
    "read_node_miss_rate",
    "relative_rnmr",
    "traffic_by_class",
    "time_breakdown_figure5",
    "SharingProfiler",
    "format_profile",
    "CompositeProfiler",
]
