"""Extracting ``B(T)`` — the bipartition set of a tree (paper §II-B).

Every node's bitmask of taxa under it is the OR of its children's masks;
each non-root edge then induces the split ``subtree | rest``.  That is
the paper's ``O(n²)``-bit procedure: ``O(n)`` edges, each an ``n``-bit
mask.  The two split extractors compute the masks in one pass over the
nodes in reversed level order (children before parents) with a queue of
values: the children of successive nodes sit in successive runs of the
level order, so a node takes its children's masks from the front of the
queue and appends its own.

Three views are offered:

* :func:`bipartition_masks` — the fast set-of-ints form used by every
  core algorithm.
* :func:`bipartitions_with_lengths` — mask → branch length, feeding the
  weighted RF variants.
* :func:`tree_bipartitions` — rich :class:`Bipartition` objects for the
  public API.

:func:`subtree_masks` maps each node to its mask for callers that need
to look a node up (branch support).
"""

from __future__ import annotations

from collections import deque

from repro.bipartitions.encoding import Bipartition
from repro.trees.node import Node
from repro.trees.tree import Tree
from repro.util.errors import TreeStructureError

__all__ = [
    "subtree_masks",
    "bipartition_masks",
    "bipartitions_with_lengths",
    "tree_bipartitions",
    "expected_bipartition_count",
]


def subtree_masks(tree: Tree) -> dict[int, int]:
    """Map ``id(node) -> bitmask of taxa below node`` for every node.

    The root's entry equals :meth:`Tree.leaf_mask`.
    """
    masks: dict[int, int] = {}
    for node in tree.postorder():
        if node.is_leaf:
            if node.taxon is None:
                raise TreeStructureError("leaf without a taxon")
            masks[id(node)] = node.taxon.bit
        else:
            m = 0
            for child in node.children:
                m |= masks[id(child)]
            masks[id(node)] = m
    return masks


def bipartition_masks(tree: Tree, *, include_trivial: bool = False) -> set[int]:
    """The set of normalized split masks of ``tree``.

    Parameters
    ----------
    include_trivial:
        Include pendant-edge splits.  The paper's worked example includes
        them (``|B(T)| = 2n-3`` for binary trees); RF over fixed taxa is
        unchanged by them, so the algorithms default to excluding them
        (``n-3`` splits) for speed — controlled at the API level.

    Notes
    -----
    Returned as a ``set`` so rooted-shape inputs (bifurcating root, whose
    two root edges induce the same split) are deduplicated for free.

    Examples
    --------
    >>> from repro.newick import parse_newick
    >>> t = parse_newick("((A,B),(C,D));")
    >>> sorted(bipartition_masks(t))
    [3]
    >>> len(bipartition_masks(t, include_trivial=True))
    5
    """
    # This is the library's hottest loop (every algorithm extracts B(T)
    # for every tree), so the per-node and per-split work (the mask OR,
    # trivial test, and normalization) is inlined rather than composed
    # from the helper functions — profiling showed the helper-call
    # overhead roughly doubled the cost.
    values: deque[int] = deque()
    push = values.append
    pull = values.popleft
    # Every internal node's mask (the root's too), and each leaf's when
    # pendant splits are wanted.
    raw: list[int] = []
    push_raw = raw.append
    for node in reversed(_level_order(tree)):
        children = node.children
        if children:
            # The oldest values not yet taken are this node's children.
            if len(children) == 2:
                m = pull() | pull()
            else:
                m = 0
                for _ in children:
                    m |= pull()
            push_raw(m)
        else:
            taxon = node.taxon
            if taxon is None:
                raise TreeStructureError("leaf without a taxon")
            m = 1 << taxon.index
            if include_trivial:
                push_raw(m)
        push(m)

    leaf_mask = pull()  # the root's mask: every leaf's bit
    anchor = leaf_mask & -leaf_mask
    if include_trivial:
        # The root's own mask carries no split, and neither does the
        # edge below a redundant (unary) root.
        return {m if m & anchor else m ^ leaf_mask
                for m in raw if m != leaf_mask}
    # Unifurcations above a leaf have one taxon on a side; the root and
    # its unary chain have none on the other.
    lo, hi = 2, leaf_mask.bit_count() - 2
    return {m if m & anchor else m ^ leaf_mask
            for m in raw if lo <= m.bit_count() <= hi}


def _level_order(tree: Tree) -> list[Node]:
    """Nodes level by level, each node's children in one run, the runs
    in their parents' order.  Reversed, every node comes after all of
    its children, and each node's children are the next run of values
    first in, first out.  One ``extend`` per node: cheaper than a
    preorder's pop, append and extend."""
    order = [tree.root]
    grow = order.extend
    for node in order:  # visits what the loop appends
        grow(node.children)
    return order


def bipartitions_with_lengths(tree: Tree, *, include_trivial: bool = False,
                              default_length: float = 0.0) -> dict[int, float]:
    """Map normalized split mask → branch length of its inducing edge.

    For rooted-shape trees the two root edges induce the same split; their
    lengths are *summed*, which is the standard convention (the root
    subdivides one unrooted edge).  Missing lengths count as
    ``default_length``.
    """
    values: deque[int] = deque()
    push = values.append
    pull = values.popleft
    # Edge mask -> summed length.  Only a unary chain shares a mask, and
    # its lengths add from the deepest edge up, as in a postorder.
    raw: dict[int, float] = {}
    root = tree.root
    for node in reversed(_level_order(tree)):
        children = node.children
        if children:
            m = 0
            for _ in children:
                m |= pull()
        else:
            taxon = node.taxon
            if taxon is None:
                raise TreeStructureError("leaf without a taxon")
            m = 1 << taxon.index
        push(m)
        if node is not root:
            raw[m] = raw.get(m, 0.0) + (node.length if node.length is not None else default_length)
    leaf_mask = pull()
    anchor = leaf_mask & -leaf_mask
    lo, hi = (1, leaf_mask.bit_count() - 1) if include_trivial \
        else (2, leaf_mask.bit_count() - 2)
    result: dict[int, float] = {}
    for m, length in raw.items():
        if lo <= m.bit_count() <= hi:
            norm = m if m & anchor else m ^ leaf_mask
            result[norm] = result.get(norm, 0.0) + length
    return result


def tree_bipartitions(tree: Tree, *, include_trivial: bool = False) -> list[Bipartition]:
    """Rich :class:`Bipartition` objects for ``tree`` (public API form)."""
    leaf_mask = tree.leaf_mask()
    lengths = bipartitions_with_lengths(tree, include_trivial=include_trivial)
    return [
        Bipartition(mask, leaf_mask, tree.taxon_namespace, length=length)
        for mask, length in sorted(lengths.items())
    ]


def expected_bipartition_count(n_taxa: int, *, include_trivial: bool = False) -> int:
    """Split count of a binary unrooted tree on ``n_taxa`` leaves (§IV-A).

    ``2n-3`` with trivial splits, ``n-3`` without.

    >>> expected_bipartition_count(4)
    1
    >>> expected_bipartition_count(4, include_trivial=True)
    5
    """
    if n_taxa < 3:
        raise ValueError("bipartition counts are defined for n >= 3")
    return 2 * n_taxa - 3 if include_trivial else n_taxa - 3
