"""Ablation A5 — scoring backends: dict BFHRF vs vectorized vs MrsRF.

Three implementations of the same average-RF computation, representing
the paper's present and future execution models:

* **dict** — the reference BFHRF (Algorithm 2 over a Python dict);
* **vectorized** — the batched NumPy backend standing in for the §IX
  GPU plan (sorted-array probes + ``reduceat`` result collection);
* **mrsrf** — the MapReduce formulation (all-vs-all matrix averaged),
  the baseline the paper could not run.

All three must agree exactly; the timing rows document where each
model's costs sit on CPython.
"""

from __future__ import annotations

import numpy as np

from common import emit

from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.mrsrf import mrsrf_average_rf
from repro.core.table import BipartitionTable
from repro.simulation.datasets import variable_trees
from repro.util.timing import Stopwatch

N_TAXA = 100
R_TREES = 400


def _sweep():
    trees = variable_trees(R_TREES, n_taxa=N_TAXA, seed=88).trees
    timings: dict[str, float] = {}
    results: dict[str, list[float]] = {}

    with Stopwatch() as sw:
        results["dict"] = bfhrf_average_rf(trees)
    timings["dict"] = sw.elapsed

    with Stopwatch() as sw:
        table = BipartitionTable.from_bfh(build_bfh(trees), N_TAXA)
        results["vectorized"] = table.vectorized().average_rf_batch(
            trees).tolist()
    timings["vectorized"] = sw.elapsed

    with Stopwatch() as sw:
        results["mrsrf"] = mrsrf_average_rf(trees, partitions=4)
    timings["mrsrf"] = sw.elapsed

    return timings, results


def test_ablation_backends(benchmark):
    timings, results = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    reference = np.asarray(results["dict"])
    for name, values in results.items():
        np.testing.assert_allclose(np.asarray(values), reference, atol=1e-9,
                                   err_msg=f"backend {name} disagrees")

    lines = [
        f"Ablation A5: scoring backends (n={N_TAXA}, r={R_TREES}, Q=R)",
        "=" * 58,
        f"{'backend':<12} {'seconds':>9} {'x dict':>8}",
        "-" * 32,
    ]
    for name, seconds in timings.items():
        lines.append(f"{name:<12} {seconds:>9.4f} {seconds / timings['dict']:>8.2f}")
    lines.append("-" * 32)
    lines.append("dict = Algorithm 2; vectorized = §IX GPU-model stand-in "
                 "(cupy-portable); mrsrf = MapReduce HashRF (computes the "
                 "full r x r matrix, hence the gap)")
    emit("\n".join(lines), "ablation_backends")

    # The matrix-based MapReduce formulation must pay for its r² work
    # relative to the direct tree-vs-hash backends.
    assert timings["mrsrf"] > timings["dict"]