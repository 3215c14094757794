"""Shared utilities: errors, RNG plumbing, chunking, memory and timing probes."""

from repro.util.errors import (
    BipartitionError,
    CollectionError,
    NewickParseError,
    ReproError,
    SimulationError,
    TaxonError,
    TreeStructureError,
)
from repro.util.chunking import (
    balanced_chunk_count,
    chunk_indices,
    chunked,
    default_chunk_size,
    split_evenly,
)
from repro.util.memory import rss_peak_mb, trace_peak
from repro.util.records import ExperimentTable, RunRecord
from repro.util.rng import derive_seed, resolve_rng, spawn_children
from repro.util.timing import Stopwatch, estimate_total_seconds, format_seconds, stopwatch

__all__ = [
    "ReproError",
    "NewickParseError",
    "TaxonError",
    "TreeStructureError",
    "BipartitionError",
    "CollectionError",
    "SimulationError",
    "resolve_rng",
    "spawn_children",
    "derive_seed",
    "chunk_indices",
    "chunked",
    "default_chunk_size",
    "balanced_chunk_count",
    "split_evenly",
    "trace_peak",
    "rss_peak_mb",
    "Stopwatch",
    "stopwatch",
    "estimate_total_seconds",
    "format_seconds",
    "RunRecord",
    "ExperimentTable",
]
