"""Ablation A4 — cost of RF variants through the same BFH (§VII-F, §IX).

The extensibility claim is only useful if variants stay cheap: this
ablation times average-RF over one collection under

* plain RF (Algorithm 2),
* bipartition size filtering (the paper's demonstrated extension),
* variable-taxa restriction (supertree-style),
* information-content weighting (Smith-2020-style generalized RF),
* branch-score distance via the weighted hash, and
* plain RF through a table that made a succinct-v1 round trip (the §IX
  reversible key codec, as the store writes it),

and checks the algebraic relations between their results.
"""

from __future__ import annotations

from common import emit

from repro.bipartitions.extract import bipartition_masks
from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.table import BipartitionTable, get_codec
from repro.core.variants import (
    ValuedRF,
    restrict_taxa_transform,
    size_filter_transform,
    split_information_content,
)
from repro.hashing.weighted import WeightedBipartitionHash
from repro.simulation.datasets import variable_trees
from repro.util.timing import Stopwatch

N_TAXA = 100
R_TREES = 300


def _sweep():
    trees = variable_trees(R_TREES, n_taxa=N_TAXA, seed=55).trees
    ns = trees[0].taxon_namespace
    keep_mask = ns.mask_of(ns.labels[: N_TAXA // 2])
    timings: dict[str, float] = {}
    results: dict[str, list[float]] = {}

    with Stopwatch() as sw:
        results["plain"] = bfhrf_average_rf(trees)
    timings["plain"] = sw.elapsed

    with Stopwatch() as sw:
        results["size-filtered"] = bfhrf_average_rf(
            trees, transform=size_filter_transform(min_size=4))
    timings["size-filtered"] = sw.elapsed

    with Stopwatch() as sw:
        results["restricted-taxa"] = bfhrf_average_rf(
            trees, transform=restrict_taxa_transform(keep_mask))
    timings["restricted-taxa"] = sw.elapsed

    with Stopwatch() as sw:
        bfh = build_bfh(trees)
        full = trees[0].leaf_mask()
        scorer = ValuedRF(bfh, lambda mask: split_information_content(mask, full))
        results["information"] = [scorer.average(bipartition_masks(t))
                                  for t in trees]
    timings["information"] = sw.elapsed

    with Stopwatch() as sw:
        wh = WeightedBipartitionHash.from_trees(trees)
        results["branch-score"] = [wh.average_branch_score(t) for t in trees]
    timings["branch-score"] = sw.elapsed

    with Stopwatch() as sw:
        table = BipartitionTable.from_bfh(build_bfh(trees), n_taxa=N_TAXA)
        codec = get_codec("succinct-v1")
        decoded = codec.decode(
            codec.encode(table), n_taxa=N_TAXA, entries=len(table),
            weighted=False, include_trivial=table.include_trivial,
            n_trees=table.n_trees, total=table.total).to_bfh()
        results["succinct-v1 round-trip"] = [decoded.average_rf_of_tree(t)
                                             for t in trees]
    timings["succinct-v1 round-trip"] = sw.elapsed

    return timings, results


def test_ablation_variants(benchmark):
    timings, results = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    lines = [
        f"Ablation A4: RF-variant overhead through the BFH "
        f"(n={N_TAXA}, r={R_TREES}, Q=R)",
        "=" * 64,
        f"{'variant':<22} {'seconds':>9} {'x plain':>8} {'mean value':>12}",
        "-" * 56,
    ]
    for name, seconds in timings.items():
        mean = sum(results[name]) / len(results[name])
        lines.append(f"{name:<22} {seconds:>9.4f} "
                     f"{seconds / timings['plain']:>8.2f} {mean:>12.4f}")
    lines.append("-" * 56)
    lines.append("all variants run tree-vs-hash; none needs a second pass "
                 "over the collection")
    emit("\n".join(lines), "ablation_variants")

    plain = results["plain"]
    # Filtering and restriction can only remove mismatching splits.
    assert all(f <= p + 1e-9 for f, p in zip(results["size-filtered"], plain))
    assert all(f <= p + 1e-9 for f, p in zip(results["restricted-taxa"], plain))
    # The §IX codec is lossless: scoring after a round trip is exact.
    assert results["succinct-v1 round-trip"] == plain
    # Every variant stays within a modest constant factor of plain RF —
    # the practical meaning of "extensible in the same manner" (§VII-F).
    for name, seconds in timings.items():
        assert seconds < max(timings["plain"] * 25, 5.0), \
            f"variant {name} is disproportionately expensive"
