"""``repro.observability`` — tracing, metrics, and run reports.

The measurement substrate for the whole pipeline (the paper's entire
evaluation is wall time + peak memory per phase, §V–VI):

* :mod:`~repro.observability.spans` — hierarchical ``trace()`` spans
  with wall time, optional tracemalloc peaks, and attributes;
* :mod:`~repro.observability.metrics` — named counters / gauges /
  histograms with fork-worker snapshot & merge;
* :mod:`~repro.observability.export` — :class:`RunReport` (one JSON
  document per run), JSON-lines, and human span tables;
* :mod:`~repro.observability.profile` — opt-in cProfile wrapping of any
  span.

Everything is off by default and costs one global-flag check per
instrumented call site until :func:`enable` is called::

    from repro import observability as obs

    obs.enable(memory=True)
    values = bfhrf_average_rf(query, reference)
    report = obs.RunReport.collect("my-analysis")
    obs.reset()
"""

from __future__ import annotations

from repro.observability.export import (
    Reporter,
    RunReport,
    host_env,
    iter_jsonl,
    render_span_tree,
    write_jsonl,
)
from repro.observability.metrics import (
    MetricsRegistry,
    clear_metrics,
    counter,
    gauge,
    histogram,
    merge_metrics,
    metrics_snapshot,
    snapshot_and_reset,
)
from repro.observability.profile import profiled
from repro.observability.spans import (
    Span,
    active_span,
    clear_spans,
    finished_spans,
    graft_spans,
    trace,
)
from repro.observability.state import disable, enable, enabled, memory_enabled

__all__ = [
    "enable", "disable", "enabled", "memory_enabled", "reset",
    "trace", "Span", "active_span", "finished_spans", "clear_spans",
    "graft_spans",
    "counter", "gauge", "histogram", "metrics_snapshot", "merge_metrics",
    "snapshot_and_reset", "clear_metrics", "MetricsRegistry",
    "RunReport", "Reporter", "host_env", "render_span_tree",
    "iter_jsonl", "write_jsonl", "profiled", "worker_init",
]


def reset() -> None:
    """Drop all recorded spans and metrics (the enable flag is untouched)."""
    clear_spans()
    clear_metrics()


def worker_init() -> None:
    """Forked-worker initializer: drop state inherited from the parent.

    A ``fork`` child snapshots the parent's collector and registry; left
    alone, the parent's pre-fork counts would ride back inside every
    worker snapshot and be double-counted on merge.  Pool creation in
    :mod:`repro.runtime.executor` installs this as the initializer.
    """
    reset()
