"""Named counters, gauges, and histograms.

The registry gives every quantity the paper's evaluation cares about a
stable, queryable name:

================================  ==========  =======================================
name                              kind        meaning
================================  ==========  =======================================
``newick.trees_parsed``           counter     trees materialized by the parser
``bfh.bipartitions_hashed``       counter     masks counted into a frequency hash
``bfh.hash_hits``                 counter     query splits found in ``BFH_R``
``bfh.hash_misses``               counter     query splits absent from ``BFH_R``
``ds.set_comparisons``            counter     1-vs-1 symmetric differences (Alg. 1)
``hashrf.bucket_entries``         counter     (key, tree-id) postings in the table
``hashrf.collision_checks``       counter     splits pushed through the lossy hasher
``parallel.tasks``                counter     chunk tasks executed by executor workers
``parallel.workers``              gauge       pool size of the most recent fan-out
``parallel.chunk_size``           gauge       chunk size of the most recent fan-out
``parallel.task_seconds``         histogram   per-worker task latencies
``parallel.fanout_seconds``       histogram   whole fan-out latency per submit_ranges
``parallel.payload_bytes``        histogram   pickled payload size per process fan-out (probe capped at 1 MiB)
``vectorized.probe_seconds``      histogram   batched searchsorted probe latencies
``vectorized.probe_keys``         histogram   keys per batched probe
``vectorized.batch_seconds``      histogram   whole-batch scoring latencies
``vectorized.chunk_seconds``      histogram   per-chunk fan-out task latencies
``store.shard_load_seconds``      histogram   per-shard snapshot decode on open
``store.journal_replay_seconds``  histogram   journal replay latency on open
``store.shard_write_seconds``     histogram   per-shard snapshot write on compact
``store.query_seconds``           histogram   store.average_rf latencies
``store.journal_tail_records``    gauge       journal records pending since compaction
``store.journal_tail_bytes``      gauge       journal bytes pending since compaction
``store.journal_tailed_records``  counter     records applied by ``tail_journal`` (long-running readers)
``store.journal_lag_bytes``       gauge       on-disk journal bytes not yet applied by a tailing reader
``serve.connections``             counter     client connections accepted by the daemon
``serve.connections.unix``        counter     connections accepted on unix listeners
``serve.connections.tcp``         counter     connections accepted on TCP listeners
``serve.requests``                counter     frames dispatched (any op)
``serve.request_errors``          counter     requests answered with a typed error
``serve.admission_rejected``      counter     requests shed with ``overloaded`` (any gate)
``serve.admission_rejected.inflight``        counter  sheds by the per-connection in-flight cap
``serve.admission_rejected.queue_requests``  counter  sheds by the bounded global request queue
``serve.admission_rejected.queue_trees``     counter  sheds by queued-trees backpressure
``serve.queued_trees``            gauge       query trees currently waiting for a batch
``serve.request_seconds``         histogram   decode -> dispatch -> reply latency per request
``serve.queue_wait_seconds``      histogram   time a query sat queued before its batch started
``serve.batches``                 counter     vectorized probes executed by the batcher
``serve.batch_requests``          histogram   queries coalesced into each batch
``serve.batch_trees``             histogram   trees scored per batch
``serve.probe_seconds``           histogram   scoring latency per batch (re-scan, pack, probe, reduce)
``serve.tail_applied``            counter     tail ticks that applied new journal records
``serve.tail_errors``             counter     tail ticks that failed (and will retry)
``serve.reopens``                 counter     full store reopens (generation change / compaction race)
``serve.stale_sockets_recovered`` counter     leftover socket files unlinked at startup
``mapreduce.map_seconds``         histogram   map+partition phase latency per job
``mapreduce.shuffle_seconds``     histogram   group-by-key phase latency per job
``mapreduce.reduce_seconds``      histogram   reduce phase latency per job
================================  ==========  =======================================

All mutators are lock-protected (one registry-wide lock; instrumented
code batches increments per tree or per task, so contention is nil), and
every kind supports **merge** so forked workers can accumulate locally
and ship a :func:`snapshot` back to the parent with their results.

Histograms keep exact ``count``/``sum``/``min``/``max`` plus sparse
fixed log-scale buckets (:data:`BUCKET_BOUNDS`), from which ``summary()``
estimates p50/p95/p99.  Exactness survives merging: bucket counts add,
and the four exact moments combine associatively, so a fan-out's merged
histogram has byte-identical count/sum/min/max to a serial run.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any

from repro.observability.state import enabled

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "enabled",
           "counter", "gauge", "histogram", "metrics_snapshot",
           "merge_metrics", "snapshot_and_reset", "clear_metrics",
           "BUCKET_BOUNDS", "bucket_range"]


def _log_scale_bounds() -> tuple[float, ...]:
    """Fixed bucket boundaries: 4 per decade spanning 1e-9 .. 1e12.

    Wide enough for sub-microsecond probe latencies at one end and
    payload byte counts at the other, so every histogram in the process
    shares one bucket layout and merges without translation.
    """
    return tuple(10.0 ** (k / 4.0) for k in range(-36, 49))


BUCKET_BOUNDS: tuple[float, ...] = _log_scale_bounds()


def bucket_range(index: int) -> tuple[float, float]:
    """The ``(low, high]`` value range covered by bucket ``index``.

    Bucket 0 is the underflow bucket (everything at or below the first
    boundary, including zeros and negatives); the last bucket is the
    overflow bucket.
    """
    low = BUCKET_BOUNDS[index - 1] if index > 0 else float("-inf")
    high = BUCKET_BOUNDS[index] if index < len(BUCKET_BOUNDS) else float("inf")
    return low, high


class Counter:
    """Monotonic event count."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock):
        self.value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """Last-written value (worker counts, chunk sizes, table sizes)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock):
        self.value: float = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Distribution summary: exact moments plus fixed log-scale buckets.

    ``count``/``sum``/``min``/``max`` are exact (and merge exactly across
    worker snapshots); the sparse bucket counts over
    :data:`BUCKET_BOUNDS` support p50/p95/p99 *estimates* with bounded
    relative error (one bucket ≈ a quarter decade), clamped to the exact
    observed range.  Sparseness keeps worker snapshots small: a typical
    latency histogram touches a handful of buckets out of the fixed 86.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "_lock")

    def __init__(self, lock: threading.Lock):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict[int, int] = {}
        self._lock = lock

    def observe(self, value: float) -> None:
        index = bisect_left(BUCKET_BOUNDS, value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation inside the covering bucket, with the bucket
        edges clamped to the exact observed min/max so single-value and
        narrow distributions come back exact.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if cumulative + in_bucket >= rank:
                low, high = bucket_range(index)
                low = max(low, self.min)
                high = min(high, self.max)
                fraction = (rank - cumulative) / in_bucket
                return low + fraction * (high - low)
            cumulative += in_bucket
        return self.max

    def summary(self) -> dict[str, Any]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                    "buckets": {}}
        return {"count": self.count, "sum": self.total, "min": self.min,
                "max": self.max, "mean": self.mean,
                "p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
                # String keys: the summary must survive a JSON round-trip
                # byte-identically (RunReport.from_json(to_json(r)) == r).
                "buckets": {str(i): self.buckets[i]
                            for i in sorted(self.buckets)}}

    def merge_summary(self, summary: dict[str, Any]) -> None:
        """Fold another histogram's summary in (exact for the moments).

        Tolerates summaries without ``buckets`` (older snapshots):
        count/sum/min/max stay exact, quantile estimates then cover only
        the bucketed part.
        """
        if summary.get("count", 0) <= 0:
            return
        with self._lock:
            self.count += summary["count"]
            self.total += summary["sum"]
            self.min = min(self.min, summary["min"])
            self.max = max(self.max, summary["max"])
            for key, n in (summary.get("buckets") or {}).items():
                index = int(key)
                self.buckets[index] = self.buckets.get(index, 0) + int(n)


class MetricsRegistry:
    """Get-or-create registry of named metrics with snapshot/merge."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(self._lock))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(self._lock))
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram(self._lock))
        return h

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view: ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": {n: h.summary() for n, h in self._histograms.items()},
            }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a snapshot (typically from a forked worker) into this registry.

        Counters add; histograms combine count/sum/min/max; gauges keep
        the incoming value (last writer wins, matching ``Gauge.set``).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_summary(summary)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Process-global counter (see module table for naming conventions)."""
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)


def metrics_snapshot() -> dict[str, Any]:
    return _REGISTRY.snapshot()


def merge_metrics(snapshot: dict[str, Any]) -> None:
    _REGISTRY.merge(snapshot)


def snapshot_and_reset() -> dict[str, Any]:
    """Atomically drain the registry — the per-task worker hand-off."""
    snap = _REGISTRY.snapshot()
    _REGISTRY.reset()
    return snap


def clear_metrics() -> None:
    _REGISTRY.reset()
