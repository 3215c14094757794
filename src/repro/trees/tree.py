"""The :class:`Tree` container.

A tree owns a root node and a reference to the :class:`TaxonNamespace`
its leaves are bound to.  RF and bipartition semantics in this package
follow the paper: trees are treated as *unrooted*, so a "rooted" Newick
input (bifurcating root) is compared as if the root edge were contracted.
:meth:`Tree.deroot` performs that contraction explicitly; the bipartition
extractor also tolerates rooted shapes by normalizing masks.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.trees.node import Node
from repro.trees.taxon import TaxonNamespace
from repro.trees.traversal import edges, internal_nodes, leaves, levelorder, postorder, preorder
from repro.util.errors import TreeStructureError

__all__ = ["Tree"]


def _rebuild_tree(namespace: TaxonNamespace, parents: list[int], taxa: list,
                  lengths: list, labels: list) -> "Tree":
    """Unpickle target of :meth:`Tree.__reduce__`: relink its flat lists."""
    nodes: list[Node] = []
    for parent, taxon, length, label in zip(parents, taxa, lengths, labels):
        node = Node(taxon, length, label)
        if parent >= 0:
            up = nodes[parent]
            node.parent = up
            up.children.append(node)
        nodes.append(node)
    return Tree(nodes[0], namespace)


class Tree:
    """A phylogenetic tree over a taxon namespace.

    Parameters
    ----------
    root:
        Root node of an existing node structure.
    taxon_namespace:
        Namespace binding the leaf taxa.  All trees that will be compared
        must share one namespace object (or index-compatible namespaces).

    Examples
    --------
    >>> from repro.newick import parse_newick
    >>> t = parse_newick("((A,B),(C,D));")
    >>> t.n_leaves
    4
    >>> sorted(l.taxon.label for l in t.leaves())
    ['A', 'B', 'C', 'D']
    """

    __slots__ = ("root", "taxon_namespace")

    def __init__(self, root: Node, taxon_namespace: TaxonNamespace):
        self.root = root
        self.taxon_namespace = taxon_namespace

    # -- iteration ------------------------------------------------------------

    def preorder(self) -> Iterator[Node]:
        return preorder(self.root)

    def postorder(self) -> Iterator[Node]:
        return postorder(self.root)

    def levelorder(self) -> Iterator[Node]:
        return levelorder(self.root)

    def leaves(self) -> Iterator[Node]:
        return leaves(self.root)

    def internal_nodes(self) -> Iterator[Node]:
        return internal_nodes(self.root)

    def edges(self) -> Iterator[tuple[Node, Node]]:
        return edges(self.root)

    # -- size / shape -----------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.preorder())

    def leaf_labels(self) -> list[str]:
        """Leaf labels in tree (left-to-right) order."""
        out = []
        for leaf in self.leaves():
            if leaf.taxon is None:
                raise TreeStructureError("leaf without a taxon encountered")
            out.append(leaf.taxon.label)
        return out

    def leaf_mask(self) -> int:
        """Bitmask of the taxa present in this tree.

        Equals ``taxon_namespace.full_mask()`` when the tree covers the
        whole namespace; a strict subset for partial-taxa trees (the
        supertree setting of §VII-E).
        """
        mask = 0
        for leaf in self.leaves():
            if leaf.taxon is None:
                raise TreeStructureError("leaf without a taxon encountered")
            mask |= leaf.taxon.bit
        return mask

    def is_binary(self) -> bool:
        """True when the tree is fully resolved *as an unrooted tree*.

        Internal nodes must have graph degree 3, except that a root of
        degree 2 is allowed (it disappears under derooting).
        """
        for node in self.preorder():
            if node.is_leaf:
                continue
            if node.is_root:
                if len(node.children) not in (2, 3):
                    return False
            elif node.degree != 3:
                return False
        return True

    def is_rooted_shape(self) -> bool:
        """True when the root is bifurcating (degree 2) — a rooted-style Newick."""
        return len(self.root.children) == 2

    # -- copying --------------------------------------------------------------

    def copy(self) -> "Tree":
        """Deep-copy the node structure; the namespace is shared, not copied."""
        mapping: dict[int, Node] = {}
        new_root = Node(self.root.taxon, self.root.length, self.root.label)
        mapping[id(self.root)] = new_root
        for node in self.preorder():
            if node is self.root:
                continue
            clone = Node(node.taxon, node.length, node.label)
            mapping[id(node)] = clone
            mapping[id(node.parent)].add_child(clone)
        return Tree(new_root, self.taxon_namespace)

    def __reduce__(self):
        """Pickle as flat lists, so depth never hits the recursion limit.

        Nodes are listed breadth-first (parents before children, children
        in order); each becomes its parent's position (-1 at the root),
        its taxon, length and label, and lengths cross as exact floats.
        The namespace and its taxa go through the pickle memo, so a list
        of trees pickles its one namespace once and the unpickled trees
        share it again.
        """
        nodes = [self.root]
        parents = [-1]
        for i, node in enumerate(nodes):  # grows as it goes: breadth-first
            if node.children:
                nodes.extend(node.children)
                parents.extend([i] * len(node.children))
        return (_rebuild_tree,
                (self.taxon_namespace, parents, [n.taxon for n in nodes],
                 [n.length for n in nodes], [n.label for n in nodes]))

    # -- rerooting / derooting -----------------------------------------------------

    def deroot(self) -> "Tree":
        """Contract a bifurcating root in place, yielding a trifurcating root.

        If the root has exactly two children, one child is merged into the
        root: its children are promoted and the two incident branch
        lengths are summed onto the surviving edge.  No-op otherwise.
        Returns ``self`` for chaining.
        """
        root = self.root
        if len(root.children) != 2:
            return self
        left, right = root.children
        # Merge whichever child is internal; if both are leaves the tree
        # has only 2 taxa and cannot be derooted.
        victim = None
        if not right.is_leaf:
            victim = right
        elif not left.is_leaf:
            victim = left
        if victim is None:
            return self
        other = left if victim is right else right
        if victim.length is not None or other.length is not None:
            other.length = (other.length or 0.0) + (victim.length or 0.0)
        root.remove_child(victim)
        for grandchild in list(victim.children):
            root.add_child(grandchild)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tree(n_leaves={self.n_leaves}, namespace_size={len(self.taxon_namespace)})"
