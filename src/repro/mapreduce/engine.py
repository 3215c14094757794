"""A small, deterministic MapReduce engine.

The paper's evaluation wanted to include **MrsRF** — the MapReduce
formulation of HashRF (Matthews & Williams 2010) — but "was unable to
be run ... the code has not been updated since the original release in
2010" (§V).  To reproduce that comparison at all, this package rebuilds
the substrate: a minimal but real MapReduce engine with the classic
phases

    map:      record -> [(key, value), ...]
    shuffle:  group values by key (hash partitioned)
    reduce:   (key, [values]) -> [output, ...]

running on any :mod:`repro.runtime` executor backend — serial
(deterministic, debuggable), process pools (``fork``/``spawn``,
mirroring how MrsRF used MPI ranks), or threads.  Jobs are expressed as
plain functions so they pickle cleanly; partition count plays the role
of MrsRF's ``q`` parameter (number of reducers).

The engine is general: the word-count test uses it untouched, and
:mod:`repro.core.mrsrf` builds the RF matrix on top.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.observability.metrics import histogram as _histogram
from repro.observability.state import enabled as _obs_enabled
from repro.runtime.executor import Executor, get_executor, get_payload

__all__ = ["MapReduceJob", "run_job", "JobStats"]

Record = TypeVar("Record")
# map_fn(record) -> iterable of (key, value)
MapFn = Callable[[Any], Iterable[tuple[Any, Any]]]
# reduce_fn(key, values) -> iterable of outputs
ReduceFn = Callable[[Any, list[Any]], Iterable[Any]]


@dataclass
class JobStats:
    """Execution counters, mostly for tests and the bench narrative."""

    records_mapped: int = 0
    pairs_emitted: int = 0
    distinct_keys: int = 0
    partitions: int = 0


@dataclass
class MapReduceJob:
    """A declarative MapReduce job.

    Parameters
    ----------
    map_fn, reduce_fn:
        Top-level (picklable) functions implementing the two phases.
    partitions:
        Number of shuffle partitions (MrsRF's ``q``).  Keys are assigned
        by ``hash(key) % partitions``; each partition is reduced
        independently (and in parallel under the multiprocessing
        executor).
    """

    map_fn: MapFn
    reduce_fn: ReduceFn
    partitions: int = 4

    def __post_init__(self) -> None:
        if self.partitions <= 0:
            raise ValueError("partitions must be positive")


def _map_records_range(bounds: tuple[int, int]) -> tuple[int, list[list[tuple[Any, Any]]]]:
    """Worker task: map a slice of the records, pre-partitioned by key."""
    records, map_fn, partitions = get_payload()
    buckets: list[list[tuple[Any, Any]]] = [[] for _ in range(partitions)]
    count = 0
    for record in records[bounds[0]:bounds[1]]:
        for key, value in map_fn(record):
            buckets[hash(key) % partitions].append((key, value))
        count += 1
    return count, buckets


def _reduce_range(bounds: tuple[int, int]) -> list[Any]:
    """Worker task: group and reduce a slice of the shuffle partitions."""
    grouped_partitions, reduce_fn = get_payload()
    out: list[Any] = []
    for grouped in grouped_partitions[bounds[0]:bounds[1]]:
        for key in sorted(grouped, key=repr):  # deterministic order
            out.extend(reduce_fn(key, grouped[key]))
    return out


def run_job(job: MapReduceJob, records: Sequence[Any], *,
            n_workers: int = 1,
            executor: str | Executor | None = None) -> tuple[list[Any], JobStats]:
    """Execute ``job`` over ``records``; returns (outputs, stats).

    Outputs are concatenated partition results in partition order, with
    keys reduced in a deterministic order inside each partition.  The
    result is identical across executor backends (serial, thread, fork,
    spawn) within a run; across runs it is fully deterministic for
    int/tuple keys (unsalted hashes — MrsRF's case), while string keys
    shuffle with Python's per-process hash seed.

    ``records`` may be any sequence; process backends hand it to their
    workers as part of the ordinary fan-out payload.

    Examples
    --------
    >>> def wc_map(line):
    ...     for word in line.split():
    ...         yield word, 1
    >>> def wc_reduce(word, counts):
    ...     yield word, sum(counts)
    >>> job = MapReduceJob(wc_map, wc_reduce, partitions=2)
    >>> outputs, stats = run_job(job, ["a b a", "b a"])
    >>> sorted(outputs)
    [('a', 3), ('b', 2)]
    """
    stats = JobStats(partitions=job.partitions)
    fan_out = n_workers > 1 and len(records) > 1
    runner = get_executor(executor) if fan_out else get_executor("serial")

    observing = _obs_enabled()

    # ---- map + local partitioning -------------------------------------------
    t0 = time.perf_counter()
    partitioned: list[list[tuple[Any, Any]]] = [[] for _ in range(job.partitions)]
    for count, buckets in runner.submit_ranges(
            _map_records_range, len(records),
            (records, job.map_fn, job.partitions),
            n_workers=n_workers if fan_out else 1):
        stats.records_mapped += count
        for i, bucket in enumerate(buckets):
            partitioned[i].extend(bucket)
    stats.pairs_emitted = sum(len(p) for p in partitioned)
    if observing:
        _histogram("mapreduce.map_seconds").observe(time.perf_counter() - t0)

    # ---- shuffle: group by key within each partition ---------------------------
    t0 = time.perf_counter()
    grouped_partitions: list[dict[Any, list[Any]]] = []
    for bucket in partitioned:
        grouped: dict[Any, list[Any]] = defaultdict(list)
        for key, value in bucket:
            grouped[key].append(value)
        grouped_partitions.append(dict(grouped))
    stats.distinct_keys = sum(len(g) for g in grouped_partitions)
    if observing:
        _histogram("mapreduce.shuffle_seconds").observe(time.perf_counter() - t0)

    # ---- reduce ------------------------------------------------------------------
    t0 = time.perf_counter()
    outputs: list[Any] = []
    for block in runner.submit_ranges(
            _reduce_range, job.partitions,
            (grouped_partitions, job.reduce_fn),
            n_workers=n_workers if fan_out else 1,
            chunk_size=1):
        outputs.extend(block)
    if observing:
        _histogram("mapreduce.reduce_seconds").observe(time.perf_counter() - t0)
    return outputs, stats
