"""Composable random-tree/collection strategies for the correctness harness.

Every strategy is a deterministic function of a seed: the same seed
always yields byte-identical Newick text, so a failing fuzz round is
replayable from two integers (seed, round).  Strategies layer on
:mod:`repro.simulation` (Yule, coalescent, NNI/SPR perturbation) and add
the adversarial shapes the simulators avoid — caterpillar and balanced
extremes, multifurcations, variable-taxa overlap, zero-length and
stripped branches, Newick-hostile labels.

The unit of work is a :class:`TreeCase`: a (query, reference) workload
over one shared namespace, plus the flags the checks need to decide
applicability (weighted? same collection? full taxon coverage?).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.simulation.coalescent import gene_tree_msc
from repro.simulation.perturb import perturbed_collection
from repro.simulation.yule import default_labels, yule_tree
from repro.trees.manipulate import collapse_edge, prune_to_taxa
from repro.trees.node import Node
from repro.trees.taxon import TaxonNamespace
from repro.trees.tree import Tree
from repro.newick.writer import write_newick
from repro.util.rng import resolve_rng

__all__ = [
    "TreeCase",
    "CaseProfile",
    "PROFILES",
    "STRATEGY_NAMES",
    "caterpillar_tree",
    "balanced_tree",
    "max_rf_caterpillar_orders",
    "generate_case",
]

# Labels exercising the quoting/escaping paths of the Newick writer and
# parser (spaces, quotes, structural characters, comment brackets, a
# line break).
HOSTILE_LABELS = ("taxon one", "it's", "a(b)", "c,d", "x:y", "q[z]", "semi;colon",
                  "new\nline")


@dataclass
class TreeCase:
    """One differential workload: query trees Q scored against reference R."""

    name: str
    seed: int
    query: list[Tree]
    reference: list[Tree]
    namespace: TaxonNamespace
    same_collection: bool = False
    weighted: bool = False
    include_trivial: bool = False
    shrunk: bool = False
    notes: dict = field(default_factory=dict)

    @property
    def n_taxa(self) -> int:
        """Taxa actually covered by the case's trees (not namespace size)."""
        mask = 0
        for tree in self.query:
            mask |= tree.leaf_mask()
        for tree in self.reference:
            mask |= tree.leaf_mask()
        return mask.bit_count()

    def query_newick(self) -> str:
        return "\n".join(
            write_newick(t, include_lengths=self.weighted) for t in self.query)

    def reference_newick(self) -> str:
        return "\n".join(
            write_newick(t, include_lengths=self.weighted) for t in self.reference)

    def replaced(self, query: Sequence[Tree], reference: Sequence[Tree]) -> "TreeCase":
        """A shrunk copy with new tree lists (flags and seed preserved)."""
        return replace(self, query=list(query), reference=list(reference),
                       same_collection=self.same_collection and list(query) == list(reference),
                       shrunk=True)


@dataclass(frozen=True)
class CaseProfile:
    """Size/feature envelope for generated cases (the quick/deep dial)."""

    name: str
    min_taxa: int = 4
    max_taxa: int = 12
    min_trees: int = 2
    max_trees: int = 8
    multifurcation_prob: float = 0.25
    zero_length_prob: float = 0.2
    hostile_label_prob: float = 0.2
    variable_taxa_prob: float = 0.2
    # Occasionally jump the taxon count straight to a 64-bit-word edge of
    # the packed-bitmask representation (the store's snapshot keys change
    # width exactly there); (0 probability or an empty tuple disables).
    boundary_taxa: tuple[int, ...] = (63, 64, 65)
    boundary_taxa_prob: float = 0.1
    default_rounds: int = 50


PROFILES: dict[str, CaseProfile] = {
    "quick": CaseProfile("quick"),
    "deep": CaseProfile("deep", max_taxa=32, max_trees=24,
                        multifurcation_prob=0.35, zero_length_prob=0.3,
                        hostile_label_prob=0.3, variable_taxa_prob=0.3,
                        boundary_taxa=(63, 64, 65, 127, 128, 129),
                        boundary_taxa_prob=0.15,
                        default_rounds=300),
}


# ---------------------------------------------------------------------------
# Deterministic extreme shapes.
# ---------------------------------------------------------------------------

def caterpillar_tree(labels: Sequence[str], ns: TaxonNamespace, *,
                     lengths: bool = False,
                     rng: np.random.Generator | None = None) -> Tree:
    """The ladder ``((((l0,l1),l2),l3),...)`` over ``labels`` in order."""
    if len(labels) < 2:
        raise ValueError("caterpillar needs at least 2 labels")

    def leaf(label: str) -> Node:
        node = Node(ns.require(label))
        if lengths:
            node.length = float(rng.uniform(0.05, 2.0)) if rng is not None else 1.0
        return node

    current = leaf(labels[0])
    for label in labels[1:]:
        parent = Node()
        if lengths:
            current_len = float(rng.uniform(0.05, 2.0)) if rng is not None else 1.0
            parent.length = current_len
        parent.add_child(current)
        parent.add_child(leaf(label))
        current = parent
    current.length = None
    return Tree(current, ns)


def balanced_tree(labels: Sequence[str], ns: TaxonNamespace, *,
                  lengths: bool = False,
                  rng: np.random.Generator | None = None) -> Tree:
    """A maximally balanced binary tree over ``labels`` in order."""
    if len(labels) < 2:
        raise ValueError("balanced tree needs at least 2 labels")

    def build(chunk: Sequence[str]) -> Node:
        if len(chunk) == 1:
            node = Node(ns.require(chunk[0]))
        else:
            mid = len(chunk) // 2
            node = Node()
            node.add_child(build(chunk[:mid]))
            node.add_child(build(chunk[mid:]))
        if lengths:
            node.length = float(rng.uniform(0.05, 2.0)) if rng is not None else 1.0
        return node

    root = build(labels)
    root.length = None
    return Tree(root, ns)


def max_rf_caterpillar_orders(n_taxa: int) -> tuple[list[int], list[int]]:
    """Two leaf orders whose caterpillars are at maximum RF ``2(n-3)``.

    The identity order's non-trivial splits are prefix sets ``{0..k}``;
    the even-then-odd interleave shares none of them (every interleave
    prefix of size ≥ 2 contains 0 but skips 1, so it is neither a
    ``{0..k}`` prefix nor its 0-free complement).  Asserted by the
    ``caterpillar-max-rf`` oracle rather than trusted.
    """
    if n_taxa < 4:
        raise ValueError("max-RF caterpillar pair needs n >= 4")
    identity = list(range(n_taxa))
    interleave = list(range(0, n_taxa, 2)) + list(range(1, n_taxa, 2))
    return identity, interleave


# ---------------------------------------------------------------------------
# Post-ops: structured damage applied to simulated collections.
# ---------------------------------------------------------------------------

def _multifurcate(trees: list[Tree], rng: np.random.Generator, prob: float) -> None:
    """Collapse random internal edges in place, creating polytomies."""
    for tree in trees:
        internals = [n for n in tree.preorder()
                     if n.parent is not None and not n.is_leaf]
        for node in internals:
            if node.parent is not None and node.children and rng.random() < prob:
                collapse_edge(tree, node)


def _zero_lengths(trees: list[Tree], rng: np.random.Generator, prob: float) -> None:
    """Zero out random branch lengths in place (weighted-RF edge case)."""
    for tree in trees:
        for node in tree.preorder():
            if node.length is not None and rng.random() < prob:
                node.length = 0.0


def _strip_lengths(trees: list[Tree]) -> None:
    for tree in trees:
        for node in tree.preorder():
            node.length = None


def _case_labels(n_taxa: int, rng: np.random.Generator, profile: CaseProfile) -> list[str]:
    labels = default_labels(n_taxa)
    if rng.random() < profile.hostile_label_prob:
        k = min(len(HOSTILE_LABELS), n_taxa)
        for slot, hostile in zip(rng.choice(n_taxa, size=k, replace=False),
                                 HOSTILE_LABELS):
            labels[int(slot)] = hostile
    return labels


# ---------------------------------------------------------------------------
# Collection strategies.
# ---------------------------------------------------------------------------

def _yule_forest(rng, labels, n_trees, ns):
    return [yule_tree(labels, namespace=ns, rng=rng) for _ in range(n_trees)]


def _coalescent_forest(rng, labels, n_trees, ns):
    species = yule_tree(labels, namespace=ns, rng=rng)
    return [gene_tree_msc(species, pop_scale=float(rng.uniform(0.2, 3.0)), rng=rng)
            for _ in range(n_trees)]


def _nni_forest(rng, labels, n_trees, ns):
    base = yule_tree(labels, namespace=ns, rng=rng)
    return perturbed_collection(base, n_trees, moves=int(rng.integers(1, 5)),
                                move_kind="nni", rng=rng)


def _spr_forest(rng, labels, n_trees, ns):
    base = yule_tree(labels, namespace=ns, rng=rng)
    return perturbed_collection(base, n_trees, moves=int(rng.integers(1, 4)),
                                move_kind="spr", rng=rng)


def _extreme_forest(rng, labels, n_trees, ns):
    """Caterpillars and balanced trees over shuffled label orders."""
    out = []
    for _ in range(n_trees):
        order = [labels[int(i)] for i in rng.permutation(len(labels))]
        build = caterpillar_tree if rng.random() < 0.5 else balanced_tree
        out.append(build(order, ns, lengths=True, rng=rng))
    return out


_STRATEGIES = {
    "yule": _yule_forest,
    "coalescent": _coalescent_forest,
    "nni": _nni_forest,
    "spr": _spr_forest,
    "extremes": _extreme_forest,
}

STRATEGY_NAMES = tuple(_STRATEGIES)


def generate_case(seed: int, profile: CaseProfile | str = "quick") -> TreeCase:
    """Build one deterministic :class:`TreeCase` from ``seed``.

    Same seed + same profile → identical case (strategy choice, sizes,
    topologies, labels, branch lengths, and therefore Newick text).
    """
    if isinstance(profile, str):
        profile = PROFILES[profile]
    rng = resolve_rng(seed)
    strategy_name = STRATEGY_NAMES[int(rng.integers(len(STRATEGY_NAMES)))]
    strategy = _STRATEGIES[strategy_name]
    n_taxa = int(rng.integers(profile.min_taxa, profile.max_taxa + 1))
    boundary = bool(profile.boundary_taxa and
                    rng.random() < profile.boundary_taxa_prob)
    if boundary:
        n_taxa = int(profile.boundary_taxa[
            int(rng.integers(len(profile.boundary_taxa)))])
    n_trees = int(rng.integers(profile.min_trees, profile.max_trees + 1))
    labels = _case_labels(n_taxa, rng, profile)
    ns = TaxonNamespace()

    query = _STRATEGIES[strategy_name](rng, labels, n_trees, ns)
    same_collection = bool(rng.random() < 0.5)
    if same_collection:
        reference = query
    else:
        reference = strategy(rng, labels, max(1, int(rng.integers(1, profile.max_trees + 1))), ns)

    # Variable-taxa overlap: restrict everything to a common random
    # subset so all implementations stay applicable, while namespace
    # bits above the covered set stress the mask-width assumptions.
    if n_taxa >= 6 and rng.random() < profile.variable_taxa_prob:
        keep_n = int(rng.integers(4, n_taxa))
        keep = [labels[int(i)] for i in rng.choice(n_taxa, size=keep_n, replace=False)]
        query = [prune_to_taxa(t.copy(), keep) for t in query]
        reference = query if same_collection else [
            prune_to_taxa(t.copy(), keep) for t in reference]

    multifurcated = bool(rng.random() < 0.5)
    if multifurcated:
        _multifurcate(query, rng, profile.multifurcation_prob)
        if not same_collection:
            _multifurcate(reference, rng, profile.multifurcation_prob)

    weighted = bool(rng.random() < 0.5)
    if weighted:
        _zero_lengths(query, rng, profile.zero_length_prob)
        if not same_collection:
            _zero_lengths(reference, rng, profile.zero_length_prob)
    else:
        _strip_lengths(query)
        if not same_collection:
            _strip_lengths(reference)

    include_trivial = bool(rng.random() < 0.25)
    return TreeCase(
        name=strategy_name,
        seed=seed,
        query=query,
        reference=reference,
        namespace=ns,
        same_collection=same_collection,
        weighted=weighted,
        include_trivial=include_trivial,
        notes={"multifurcated": multifurcated, "n_taxa": n_taxa,
               "boundary_taxa": boundary},
    )
