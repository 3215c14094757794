"""Memory footprint of the columnar scanner, and its int64 index path.

Positions, depths and prefix counts are int32 below
``scan._INT32_LIMIT`` and int64 from there on; the int64 path is forced
here by lowering that one constant.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.bipartitions import scan
from repro.bipartitions.encoding import words_for_taxa
from repro.bipartitions.scan import scan_newick_text
from repro.trees import TaxonNamespace
from repro.util.errors import ReproError


def _random_newick(rng: random.Random, labels: list[str]) -> str:
    """A rooted bifurcating tree: random pairs of subtrees are joined."""
    nodes = list(labels)
    while len(nodes) > 2:
        i, j = sorted(rng.sample(range(len(nodes)), 2))
        right, left = nodes.pop(j), nodes.pop(i)
        nodes.append(f"({left},{right})")
    return f"({nodes[0]},{nodes[1]});"


def _collection(n_trees: int, n_taxa: int, seed: int) -> str:
    rng = random.Random(seed)
    labels = [f"T{i:03d}" for i in range(n_taxa)]
    return "\n".join(_random_newick(rng, labels) for _ in range(n_trees)) \
        + "\n"


def _traced_peak(fn):
    """``fn()`` and the most bytes it held traced at once."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def reference_text():
    return _collection(1000, 144, seed=29)


class TestFootprint:
    # Each step holds at most this many traced bytes per input byte.
    BOUND = 16

    def test_scan_and_block_peaks(self, reference_text):
        n_bytes = len(reference_text.encode())
        ns = TaxonNamespace()
        scanned, scan_peak = _traced_peak(
            lambda: scan_newick_text(reference_text, ns))
        assert len(scanned) == 1000 and len(ns) == 144
        for field in (scanned.taxa, scanned.tree_offsets, scanned.lo,
                      scanned.hi):
            assert field.dtype == np.int64
        block, block_peak = _traced_peak(
            lambda: scanned.block(words_for_taxa(len(ns))))
        assert block.counts.sum() == 1000 * (144 - 3)
        assert scan_peak <= self.BOUND * n_bytes, scan_peak / n_bytes
        assert block_peak <= self.BOUND * n_bytes, block_peak / n_bytes


PARITY_TEXTS = [
    "((A,B),(C,D),E);\n((A,C),(B,D),E);\n(A,(B,(C,(D,E))));",
    "('it''s A',[c]B:1.5,(C,Ωmega)x:2)root;\n(A,'B',(C,Ωmega));\n"
    "((A,[note; x]B),(C,Ωmega)):0.5;\n",
    "A;\n(A,B);\n((A,B));\n",
]
BAD_TEXTS = [
    "((A,B),(C,D));\n(A,B),C;\n",
    "((A,B),(C,D));\n(A,(B,C);\n",
    "((A,B),(C,D));\n(A,A,B);\n",
    "((A,B),(C,D));\n((A,B):x,C);\n",
    "((A,B),(C,D));\n(A,'B,C);\n",
]


def _read(text):
    """What scanning ``text`` gives: its labels and every array, dtype
    included, of the scan and its blocks; or the error."""
    ns = TaxonNamespace()
    try:
        scanned = scan_newick_text(text, ns)
    except ReproError as exc:
        return type(exc), str(exc), getattr(exc, "position", None), ns.labels
    n_words = words_for_taxa(max(1, len(ns)))
    arrays = [scanned.taxa, scanned.tree_offsets, scanned.lo, scanned.hi]
    for trivial in (False, True):
        block = scanned.block(n_words, include_trivial=trivial)
        arrays += [block.words, block.counts]
    return ns.labels, [(a.dtype.str, a.shape, a.tolist()) for a in arrays]


@pytest.mark.parametrize("text", PARITY_TEXTS + BAD_TEXTS
                         + [_collection(40, 144, seed=5)])
def test_int64_index_path_matches_int32(text, monkeypatch):
    narrow = _read(text)
    assert scan._tokens([text])[3].dtype == np.int32
    monkeypatch.setattr(scan, "_INT32_LIMIT", 0)
    assert scan._tokens([text])[3].dtype == np.int64
    assert _read(text) == narrow
