"""Shared harness for the paper-reproduction benchmarks.

Each ``bench_*.py`` file regenerates one table or figure from the
paper's evaluation (§VI).  This module centralizes:

* **Per-algorithm runners** returning ``(seconds, peak MB, values)``
  with tracemalloc attribution, so DS / DSMP / HashRF / BFHRF are
  measured identically.
* **Rate extrapolation** — the paper's protocol for DS-class methods on
  inputs too large to run to completion ("we estimated the rate of
  trees per minute ... and estimated the total amount of time", §VI):
  runners accept ``query_limit`` and scale linearly in q.
* **Output emission** — paper-style tables are written *through* pytest's
  capture (to the real stdout) and to ``benchmarks/results/<id>.txt`` so
  ``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` records
  them.
* **Scale control** — ``REPRO_BENCH_SCALE`` (float, default 1.0)
  multiplies every r sweep for users with more patience than CI.

Absolute times are not expected to match the paper (Python harness,
container hardware); the *shape* assertions in each bench encode what
must hold: who wins, growth order, crossovers.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.hashrf import hashrf_matrix
from repro.core.parallel import dsmp_average_rf
from repro.core.sequential import reference_mask_sets, average_rf_against_sets
from repro.bipartitions.extract import bipartition_masks
from repro.trees.tree import Tree
from repro.observability.export import RunReport
from repro.util.memory import trace_peak
from repro.util.records import ExperimentTable, RunRecord
from repro.util.timing import Stopwatch, estimate_total_seconds

RESULTS_DIR = Path(__file__).parent / "results"

#: Worker counts used throughout, standing in for the paper's 8/16 CPUs.
WORKERS_SMALL = 2
WORKERS_LARGE = 4


def bench_scale() -> float:
    """Global sweep multiplier from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(values: Sequence[int]) -> list[int]:
    """Apply the global scale to an r sweep (minimum 4 trees per point)."""
    factor = bench_scale()
    return [max(4, int(round(v * factor))) for v in values]


#: Measurement log accumulated by the run_* runners since the last emit().
#: ``emit()`` drains it into a ``BENCH_<id>.json`` artifact.
_BENCH_RECORDS: list[RunRecord] = []


def record_run(run: "AlgoRun", n_taxa: int, n_trees: int, **extra) -> None:
    """Log one measured run for inclusion in the next ``BENCH_*.json``."""
    _BENCH_RECORDS.append(run.to_record(n_taxa, n_trees, **extra))


def emit(text: str, experiment_id: str | None = None) -> None:
    """Print a results block to the *real* stdout (bypassing pytest capture)
    and persist it under ``benchmarks/results/``.

    With an ``experiment_id``, also serializes every measurement the
    runners logged since the last emit into a machine-readable
    ``benchmarks/results/BENCH_<id>.json`` artifact (a
    :class:`~repro.observability.export.RunReport` carrying the rendered
    table, the per-run records, and host/environment info).
    """
    stream = getattr(sys, "__stdout__", sys.stdout) or sys.stdout
    stream.write("\n" + text + "\n")
    stream.flush()
    if experiment_id is not None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")
        report = RunReport.collect(
            f"bench.{experiment_id}",
            records=[record.to_dict() for record in _BENCH_RECORDS],
            extra={"table": text, "scale": bench_scale()},
        )
        report.write(RESULTS_DIR / f"BENCH_{experiment_id}.json")
    _BENCH_RECORDS.clear()


# ---------------------------------------------------------------------------
# Measured algorithm runners.
# ---------------------------------------------------------------------------

@dataclass
class AlgoRun:
    """One measured execution of one algorithm on one dataset point."""

    algorithm: str
    seconds: float
    memory_mb: float
    values: list[float] | None
    estimated: bool = False
    killed: bool = False

    def to_record(self, n_taxa: int, n_trees: int, **extra) -> RunRecord:
        return RunRecord(self.algorithm, n_taxa, n_trees, self.seconds,
                         self.memory_mb, estimated=self.estimated,
                         killed=self.killed, extra=dict(extra))


# Timing and memory are measured in SEPARATE passes: tracemalloc slows
# pure-Python code ~5-7x, which would distort the runtime panels.  The
# memory pass re-runs the algorithm's allocating phase with a minimal
# query load (the peak comes from the reference-side structures, not
# from how many queries stream past them).

_MEMORY_PASS_QUERIES = 3


def _log(run: AlgoRun, trees: Sequence[Tree], **extra) -> AlgoRun:
    """Record a finished run in the bench log and pass it through."""
    n_taxa = len(trees[0].taxon_namespace) if trees else 0
    record_run(run, n_taxa, len(trees), **extra)
    return run


def run_ds(trees: Sequence[Tree], *, query_limit: int | None = None) -> AlgoRun:
    """DS (Algorithm 1), optionally timing only the first ``query_limit``
    queries and extrapolating — the paper's protocol for large inputs."""
    q_total = len(trees)
    q_run = q_total if query_limit is None else min(query_limit, q_total)

    # Build and query phases timed separately so extrapolation scales
    # only the per-query cost (build happens once regardless of q).
    with Stopwatch() as build_sw:
        reference_sets = reference_mask_sets(trees)
    with Stopwatch() as query_sw:
        values = [average_rf_against_sets(bipartition_masks(tree), reference_sets)
                  for tree in trees[:q_run]]
    del reference_sets
    with trace_peak() as mem:
        sets_again = reference_mask_sets(trees)
        for tree in trees[:min(q_run, _MEMORY_PASS_QUERIES)]:
            average_rf_against_sets(bipartition_masks(tree), sets_again)
    estimated = q_run < q_total
    query_seconds = (estimate_total_seconds(query_sw.elapsed, q_run, q_total)
                     if estimated else query_sw.elapsed)
    return _log(AlgoRun("DS", build_sw.elapsed + query_seconds, mem.peak_mb,
                        None if estimated else values, estimated=estimated),
                trees)


def run_dsmp(trees: Sequence[Tree], workers: int, *,
             query_limit: int | None = None) -> AlgoRun:
    """DSMP with ``workers`` processes.

    Memory is measured on the parent-side DS structures (reference mask
    sets): tracemalloc cannot see into worker processes, and each worker
    holds its own copy of that table — the multiplicative footprint the
    paper's Tables III/V document.  We report the single-copy size.
    """
    name = f"DSMP{workers}"
    q_total = len(trees)
    q_run = q_total if query_limit is None else min(query_limit, q_total)
    estimated = q_run < q_total
    if not estimated:
        with Stopwatch() as sw:
            values = dsmp_average_rf(list(trees), trees, n_workers=workers)
        seconds = sw.elapsed
    else:
        # Two-point extrapolation: DSMP has a large fixed cost (pool
        # startup + shipping the reference table to every worker) that a
        # naive rate estimate would wrongly multiply.  Estimate the
        # marginal per-query cost from two subset sizes and scale only it.
        q_small = max(2, q_run // 4)
        with Stopwatch() as sw_small:
            dsmp_average_rf(list(trees[:q_small]), trees, n_workers=workers)
        with Stopwatch() as sw_full:
            values = dsmp_average_rf(list(trees[:q_run]), trees, n_workers=workers)
        per_query = max(0.0, (sw_full.elapsed - sw_small.elapsed) / (q_run - q_small))
        seconds = sw_full.elapsed + per_query * (q_total - q_run)
        values = None
    with trace_peak() as mem:
        reference_mask_sets(trees)
    return _log(AlgoRun(name, seconds, mem.peak_mb,
                        values, estimated=estimated),
                trees, workers=workers)


def run_hashrf(trees: Sequence[Tree], *, matrix_budget_mb: float | None = None) -> AlgoRun:
    """HashRF (all-vs-all matrix, averaged).

    ``matrix_budget_mb`` emulates the paper's observed OOM kills at large
    r (Tables III/V): when the r×r matrix alone would exceed the budget,
    the run is refused and reported with the paper's ``killed`` marker.
    """
    r = len(trees)
    matrix_mb = r * r * 8 / (1024 * 1024)
    if matrix_budget_mb is not None and matrix_mb > matrix_budget_mb:
        return _log(AlgoRun("HashRF", float("nan"), matrix_mb, None, killed=True),
                    trees)
    with Stopwatch() as sw:
        matrix = hashrf_matrix(trees)
        values = (matrix.sum(axis=1) / r).tolist()
    with trace_peak() as mem:
        hashrf_matrix(trees)
    return _log(AlgoRun("HashRF", sw.elapsed, mem.peak_mb, values), trees)


def run_bfhrf(trees: Sequence[Tree], workers: int = 1,
              executor: str | None = None) -> AlgoRun:
    name = f"BFHRF{workers}" if workers > 1 else "BFHRF"
    if executor is not None:
        name = f"{name}/{executor}"
    with Stopwatch() as sw:
        values = bfhrf_average_rf(trees, n_workers=workers, executor=executor)
    with trace_peak() as mem:
        bfh = build_bfh(trees)
        for tree in trees[:_MEMORY_PASS_QUERIES]:
            bfh.average_rf_of_tree(tree)
    return _log(AlgoRun(name, sw.elapsed, mem.peak_mb, values), trees,
                workers=workers, executor=executor or "auto")


RUNNERS: dict[str, Callable[..., AlgoRun]] = {
    "DS": run_ds,
    "HashRF": run_hashrf,
    "BFHRF": run_bfhrf,
}


# ---------------------------------------------------------------------------
# Shape assertions shared by several benches.
# ---------------------------------------------------------------------------

def assert_values_agree(runs: Sequence[AlgoRun], tol: float = 1e-9) -> None:
    """§III-C accuracy: every completed run reports identical averages."""
    completed = [run for run in runs if run.values is not None]
    if len(completed) < 2:
        return
    baseline = np.asarray(completed[0].values)
    for other in completed[1:]:
        np.testing.assert_allclose(np.asarray(other.values), baseline, atol=tol,
                                   err_msg=f"{other.algorithm} disagrees with "
                                           f"{completed[0].algorithm}")


def growth_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) vs log(x) — the empirical scaling order."""
    xs_arr = np.log(np.asarray(xs, dtype=float))
    ys_arr = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-12))
    slope, _intercept = np.polyfit(xs_arr, ys_arr, 1)
    return float(slope)


def linearity_r_squared(xs: Sequence[float], ys: Sequence[float]) -> float:
    """R² of a straight-line fit y ~ a·x + b (the paper's BFHRF linearity
    statistic, §VI-C: R²=0.988/0.997)."""
    xs_arr = np.asarray(xs, dtype=float)
    ys_arr = np.asarray(ys, dtype=float)
    coeffs = np.polyfit(xs_arr, ys_arr, 1)
    predicted = np.polyval(coeffs, xs_arr)
    ss_res = float(((ys_arr - predicted) ** 2).sum())
    ss_tot = float(((ys_arr - ys_arr.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    return float(np.corrcoef(np.asarray(xs, float), np.asarray(ys, float))[0, 1])


def render_series(title: str, x_label: str, xs: Sequence[int],
                  series: dict[str, Sequence[float]], unit: str) -> str:
    """Text rendering of a figure: one column per x, one row per algorithm."""
    header = [x_label] + [str(x) for x in xs]
    rows = [header]
    for name, ys in series.items():
        rows.append([name] + [f"{y:.4g}" if not math.isnan(y) else "-" for y in ys])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [title, "=" * len(title), f"({unit})"]
    for i, row in enumerate(rows):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
