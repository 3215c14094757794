"""Grand-tour integration test: a realistic end-to-end analysis session.

Simulates a complete comparative-phylogenetics workflow exercising most
of the library in one coherent story, with cross-checks between stages:

1. simulate a species history and gene-tree posterior (MSC);
2. stream the posterior to disk and back (Newick);
3. build the BFH; compute averages four ways — all equal;
4. summarize: consensus, support annotation, diversity report,
   credible set;
5. cluster a contaminated posterior and recover the islands;
6. fragment the species tree, reassemble via supertree, complete a
   pruned summary tree;
7. convergence-check two posterior halves (ASDSF).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    annotate_support,
    asdsf,
    complete_tree_greedy,
    credible_set,
    diversity_report,
    greedy_rf_supertree,
    kmedoids_rf,
    mean_pairwise_rf,
    topology_key,
    total_restricted_rf,
)
from repro.bipartitions import bipartition_masks
from repro.core import (
    bfhrf_average_rf,
    build_bfh,
    consensus_tree,
    day_rf,
    hashrf_average_rf,
    sequential_average_rf,
)
from repro.core.mrsrf import mrsrf_average_rf
from repro.core.shmrf import shm_average_rf
from repro.newick import read_newick_file, write_newick_file
from repro.simulation import gene_tree_msc, yule_tree
from repro.trees import TaxonNamespace
from repro.trees.manipulate import prune_to_taxa

N_TAXA = 14
N_GENES = 60
SEED = 777


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    rng = np.random.default_rng(SEED)
    species = yule_tree(N_TAXA, rng=rng)
    genes = [gene_tree_msc(species, pop_scale=0.15, rng=rng)
             for _ in range(N_GENES)]
    path = tmp_path_factory.mktemp("tour") / "posterior.nwk"
    write_newick_file(path, genes)
    ns = TaxonNamespace()
    loaded = read_newick_file(path, ns)
    return species, genes, loaded, ns


class TestGrandTour:
    def test_stage1_roundtrip(self, session):
        species, genes, loaded, ns = session
        assert len(loaded) == N_GENES
        assert all(t.n_leaves == N_TAXA for t in loaded)

    def test_stage2_all_backends_agree(self, session):
        _species, _genes, loaded, _ns = session
        baseline = sequential_average_rf(loaded, loaded)
        assert bfhrf_average_rf(loaded) == pytest.approx(baseline)
        assert hashrf_average_rf(loaded) == pytest.approx(baseline)
        assert shm_average_rf(loaded) == pytest.approx(baseline)
        assert mrsrf_average_rf(loaded, partitions=3) == pytest.approx(baseline)

    def test_stage3_summaries_consistent(self, session):
        _species, _genes, loaded, ns = session
        bfh = build_bfh(loaded)
        summary = consensus_tree(bfh, loaded[0].taxon_namespace, method="greedy")
        annotate_support(summary, bfh)

        report = diversity_report(bfh, N_TAXA)
        assert report.n_trees == N_GENES
        assert report.mean_pairwise_rf == pytest.approx(mean_pairwise_rf(bfh))

        # The consensus is at least as central as the median member.
        consensus_score = bfh.average_rf(bipartition_masks(summary))
        members = bfhrf_average_rf(loaded)
        assert consensus_score <= sorted(members)[len(members) // 2] + 1e-9

        # Credible-set exemplars must be actual posterior topologies.
        chosen = credible_set(loaded, 0.8)
        posterior_keys = {topology_key(t) for t in loaded}
        assert all(topology_key(t) in posterior_keys for t, _f in chosen)

    def test_stage4_contamination_clustering(self, session):
        species, genes, _loaded, ns_unused = session
        rng = np.random.default_rng(SEED + 1)
        ns = species.taxon_namespace
        other_species = yule_tree([t.label for t in ns], namespace=ns, rng=rng)
        contaminants = [gene_tree_msc(other_species, pop_scale=0.05, rng=rng)
                        for _ in range(15)]
        mixed = genes[:15] + contaminants
        result = kmedoids_rf(mixed, 2, rng=0)
        labels = result.labels
        # The two halves separate (up to label swap).
        first_half = set(labels[:15].tolist())
        second_half = set(labels[15:].tolist())
        assert len(first_half) == 1 and len(second_half) == 1
        assert first_half != second_half

    def test_stage5_supertree_and_completion(self, session):
        species, genes, _loaded, _ns = session
        ns = species.taxon_namespace
        labels = ns.labels
        fragments = [
            prune_to_taxa(species.copy(), labels[:10]),
            prune_to_taxa(species.copy(), labels[4:]),
        ]
        supertree = greedy_rf_supertree(fragments, ns)
        assert total_restricted_rf(supertree, fragments) == 0
        assert day_rf(supertree, species) <= 4  # fragments may underdetermine

        # Prune two taxa from the species tree, complete against the genes.
        partial = prune_to_taxa(species.copy(), labels[2:])
        bfh = build_bfh(genes)
        completed, score = complete_tree_greedy(partial, bfh)
        assert sorted(completed.leaf_labels()) == sorted(labels)
        species_score = bfh.average_rf(bipartition_masks(species))
        assert score <= species_score + 4

    def test_stage6_convergence(self, session):
        _species, genes, _loaded, _ns = session
        value = asdsf([genes[::2], genes[1::2]])
        # Interleaved halves of one posterior sample: strongly convergent.
        assert value < 0.1
