"""Ablation A3 — bipartition hash-key representation.

The library keys the frequency hash on arbitrary-precision Python ints
(normalized bitmasks).  The paper's future work (§IX) proposes
"loss less and reversible compression of the bipartitions as keys in
the hash to further reduce memory".  This ablation quantifies the
design space on a real split population: build + probe cost and
retained memory for

* ``int``   — the chosen representation;
* ``bytes`` — the masks serialized big-endian (what a C implementation
  would store, and the basis of the compressed codec);
* ``tuple`` — 64-bit limb tuples (a naive structured key);
* ``rle``   — the reversible mask codec :func:`repro.core.table.compress_mask`
  (future-work §IX; succinct-v1 snapshots frame their key blobs with it).
"""

from __future__ import annotations

from common import emit

from repro.bipartitions.extract import bipartition_masks
from repro.core.table import compress_mask, decompress_mask
from repro.simulation.datasets import variable_taxa
from repro.util.memory import trace_peak
from repro.util.timing import Stopwatch

N_TAXA = 200
R_TREES = 150
PROBE_ROUNDS = 5


def _mask_lists(trees):
    return [sorted(bipartition_masks(t)) for t in trees]


def _collect(per_tree_masks, encode):
    counts: dict = {}
    for masks in per_tree_masks:
        for mask in masks:
            key = encode(mask)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _probe(per_tree_masks, counts, encode) -> int:
    total = 0
    for _ in range(PROBE_ROUNDS):
        for masks in per_tree_masks:
            for mask in masks:
                total += counts.get(encode(mask), 0)
    return total


def _sweep():
    from functools import partial

    nbytes = (N_TAXA + 7) // 8
    full_mask = (1 << N_TAXA) - 1
    encoders = {
        "int": lambda m: m,
        "bytes": lambda m: m.to_bytes(nbytes, "big"),
        "tuple": lambda m: tuple((m >> s) & 0xFFFFFFFFFFFFFFFF
                                 for s in range(0, N_TAXA, 64)),
        # Complement-aware codec: the 0-side is the small clade, so
        # passing the leaf set is where the §IX compression wins.
        "rle": partial(compress_mask, leaf_mask=full_mask),
    }
    trees = variable_taxa(N_TAXA, r=R_TREES, seed=77).trees
    per_tree_masks = _mask_lists(trees)

    rows = {}
    reference_total = None
    for name, encode in encoders.items():
        with Stopwatch() as build_sw:
            counts = _collect(per_tree_masks, encode)
        with Stopwatch() as probe_sw:
            probe_total = _probe(per_tree_masks, counts, encode)
        with trace_peak() as mem:
            retained = _collect(per_tree_masks, encode)
        if reference_total is None:
            reference_total = probe_total
        rows[name] = {
            "build_s": build_sw.elapsed,
            "probe_s": probe_sw.elapsed,
            "retained_mb": mem.current_mb,
            "unique": len(counts),
            "probe_total": probe_total,
        }
        del retained
    return rows, reference_total


def test_ablation_key_representation(benchmark):
    rows, reference_total = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    # All representations index the same split population identically.
    uniques = {row["unique"] for row in rows.values()}
    assert len(uniques) == 1
    assert all(row["probe_total"] == reference_total for row in rows.values())

    # The RLE codec must be reversible (spot-checked exhaustively in unit
    # tests; here we assert it produced the same unique count, above).
    # int keys should not be grossly slower than any alternative.
    int_cost = rows["int"]["build_s"] + rows["int"]["probe_s"]
    for name, row in rows.items():
        assert int_cost <= (row["build_s"] + row["probe_s"]) * 2.0, \
            f"int keys unexpectedly slow vs {name}"

    lines = [
        f"Ablation A3: hash-key representation (n={N_TAXA}, r={R_TREES}, "
        f"{next(iter(rows.values()))['unique']} unique splits)",
        "=" * 72,
        f"{'key':>6} {'build s':>9} {'probe s':>9} {'retained MB':>12}",
        "-" * 40,
    ]
    for name, row in rows.items():
        lines.append(f"{name:>6} {row['build_s']:>9.4f} {row['probe_s']:>9.4f} "
                     f"{row['retained_mb']:>12.3f}")
    lines.append("-" * 40)
    lines.append("int = library choice; rle = §IX future-work reversible "
                 "compression (repro.core.table.compress_mask)")
    emit("\n".join(lines), "ablation_keys")
