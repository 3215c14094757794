"""Peak-memory measurement for the benchmark harness and the CLI.

The paper reports "maximum resident memory" per run (Figs 1–2, Tables
III–V).  Inside one long-lived pytest process we cannot use RSS for
per-algorithm attribution (RSS never shrinks), so there are two
complementary measurements:

* :func:`trace_peak` — Python-heap peak via :mod:`tracemalloc`; precise
  attribution of allocations made *during* the traced block, which is the
  right tool for comparing the algorithms' data-structure footprints
  (bipartition sets vs the frequency hash vs the r×r matrix).
* :func:`rss_peak_mb` — OS-reported high-water mark, matching the
  paper's profiler numbers when a whole process runs one algorithm (the
  CLI and every ``RunReport`` use this).
"""

from __future__ import annotations

import resource
import sys
import tracemalloc
from contextlib import contextmanager

__all__ = ["trace_peak", "rss_peak_mb"]


def _read_vm_hwm_mb() -> float | None:
    """``VmHWM`` (peak RSS) from ``/proc/self/status`` in MiB, or None."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB -> MiB
    except (OSError, ValueError, IndexError):
        pass
    return None


def rss_peak_mb() -> float:
    """Return the process high-water RSS in MiB.

    Prefers ``VmHWM`` from ``/proc/self/status``; falls back to
    ``getrusage``'s ``ru_maxrss`` elsewhere (kilobytes on Linux, bytes on
    macOS; normalized).
    """
    hwm = _read_vm_hwm_mb()
    if hwm is not None:
        return hwm
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024 * 1024)
    return peak / 1024


@contextmanager
def trace_peak():
    """Context manager measuring Python-heap peak within the block.

    Yields an object whose fields are filled in on exit: ``peak_mb`` is
    the peak Python-heap usage above the pre-block baseline, in MiB, and
    ``current_mb`` the heap retained at block exit above the baseline —
    the *persistent* footprint of whatever the block returned (e.g. the
    BFH vs a full bipartition table)::

        with trace_peak() as sample:
            hash_ = build_bfh(trees)
        print(sample.peak_mb)

    Nested use is supported; each block sees allocations relative to its
    own entry point because tracemalloc snapshots are differential.
    """

    class _Box:
        peak_mb = 0.0
        current_mb = 0.0

    box = _Box()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    base_current, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    try:
        yield box
    finally:
        current, peak = tracemalloc.get_traced_memory()
        box.peak_mb = max(0.0, (peak - base_current) / (1024 * 1024))
        box.current_mb = max(0.0, (current - base_current) / (1024 * 1024))
        if not was_tracing:
            tracemalloc.stop()
