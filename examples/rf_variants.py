#!/usr/bin/env python
"""Extensibility tour: RF variants through one frequency hash (§VII-D/E/F, §IX).

The paper's argument for exact, non-transformative hash keys is that
every classic RF generalization then works tree-vs-hash with no new
algorithm.  This example demonstrates the catalogue on one simulated
collection:

* bipartition size filtering (the paper's demonstrated extension);
* variable-taxa RF by restriction to shared taxa (supertree setting);
* information-content-weighted RF (Smith-2020-style);
* branch-score (weighted) RF through the weighted hash;
* normalized / halved reporting conventions;
* the §IX reversible key codec, as the succinct-v1 snapshot format.

Run:  python examples/rf_variants.py
"""

import numpy as np

from repro.bipartitions import bipartition_masks
from repro.core import build_bfh
from repro.core.variants import (
    ValuedRF,
    halve_average,
    normalize_average,
    restrict_taxa_transform,
    size_filter_transform,
    split_information_content,
)
from repro.core.bfhrf import bfhrf_average_rf
from repro.core.table import BipartitionTable, get_codec
from repro.hashing import WeightedBipartitionHash
from repro.newick import parse_newick
from repro.simulation import gene_tree_msc, yule_tree
from repro.trees import TaxonNamespace

# Large-ish taxon count so the §IX key compression has room to win
# (sparse clade-side splits encode in a few gap varints).
N_TAXA = 160
N_TREES = 120
SEED = 7


def main() -> None:
    rng = np.random.default_rng(SEED)
    species = yule_tree(N_TAXA, rng=rng)
    trees = [gene_tree_msc(species, rng=rng) for _ in range(N_TREES)]
    ns = species.taxon_namespace
    query = trees[0]

    plain = bfhrf_average_rf([query], trees)[0]
    print(f"plain average RF:                {plain:9.3f}")
    print(f"  halved convention:             {halve_average([plain])[0]:9.3f}")
    print(f"  normalized to [0,1]:           {normalize_average([plain], N_TAXA)[0]:9.3f}")

    # -- 1. size filtering (the paper's demonstrated extension) ----------------
    for min_size in (2, 4, 8):
        value = bfhrf_average_rf([query], trees,
                                 transform=size_filter_transform(min_size=min_size))[0]
        print(f"size-filtered (smaller side >= {min_size}): {value:8.3f}")

    # -- 2. variable taxa: compare trees over different leaf sets --------------
    # Two supertree fragments sharing only taxa 0..15 with the collection.
    shared = ns.labels[:16]
    restrict = restrict_taxa_transform(shared, ns)
    value = bfhrf_average_rf([query], trees, transform=restrict)[0]
    print(f"restricted to {len(shared)} shared taxa:  {value:9.3f}")

    # A genuinely partial tree (missing taxa) becomes comparable too:
    partial_ns_tree = parse_newick(
        "(" + ",".join(shared[:8]) + ",(" + ",".join(shared[8:]) + "));", ns)
    bfh_restricted = build_bfh(trees, transform=restrict)
    masks = restrict(bipartition_masks(partial_ns_tree), partial_ns_tree.leaf_mask())
    print(f"partial 16-taxon tree vs hash:   {bfh_restricted.average_rf(masks):9.3f}")

    # -- 3. information-content weighting ----------------------------------------
    bfh = build_bfh(trees)
    full = species.leaf_mask()
    scorer = ValuedRF(bfh, lambda mask: split_information_content(mask, full))
    print(f"information-weighted RF (bits):  {scorer.average(bipartition_masks(query)):9.3f}")

    # -- 4. branch-score distance through the weighted hash ----------------------
    wh = WeightedBipartitionHash.from_trees(trees)
    print(f"average branch-score distance:   {wh.average_branch_score(query):9.3f}")

    # -- 5. §IX compressed keys: identical algebra, smaller snapshots -----------
    table = BipartitionTable.from_bfh(bfh, n_taxa=N_TAXA)
    succinct = get_codec("succinct-v1")
    sections = succinct.encode(table)
    decoded = succinct.decode(
        sections, n_taxa=N_TAXA, entries=len(table), weighted=False,
        include_trivial=table.include_trivial, n_trees=table.n_trees,
        total=table.total).to_bfh()
    assert decoded.average_rf_of_tree(query) == bfh.average_rf_of_tree(query)
    raw_bytes = get_codec("raw-u64").encode(table).nbytes
    print(f"succinct-v1 table: {sections.nbytes}B "
          f"(raw-u64 would be {raw_bytes}B); values identical  [verified]")


if __name__ == "__main__":
    main()
