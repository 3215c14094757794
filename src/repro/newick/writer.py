"""Newick serialization.

The writer is the inverse of :mod:`repro.newick.parser` and is exercised
by the round-trip property tests: ``parse(write(tree))`` must reproduce
the same topology, labels, and branch lengths.
"""

from __future__ import annotations

from repro.newick.parser import LABEL_STOP
from repro.trees.node import Node
from repro.trees.tree import Tree

__all__ = ["write_newick", "format_label"]

# Anything that would end a bare label, plus '"', which other tools
# read as a quote.
_NEEDS_QUOTES = frozenset(LABEL_STOP + '"')


def format_label(label: str) -> str:
    """Quote a label when it contains Newick-structural characters.

    >>> format_label("Homo_sapiens")
    'Homo_sapiens'
    >>> format_label("Homo sapiens")
    "'Homo sapiens'"
    >>> format_label("it's")
    "'it''s'"
    """
    if label and not (_NEEDS_QUOTES & set(label)):
        return label
    return "'" + label.replace("'", "''") + "'"


def _length_suffix(node: Node, precision: int | None) -> str:
    if node.length is None:
        return ""
    if precision is None:
        return f":{node.length!r}"
    return f":{node.length:.{precision}g}"


def write_newick(tree: Tree, *, include_lengths: bool = True,
                 include_internal_labels: bool = True,
                 precision: int | None = None) -> str:
    """Serialize ``tree`` to a single-line Newick string ending in ``;``.

    Parameters
    ----------
    include_lengths:
        Emit ``:length`` suffixes where present (the Insect-style
        unweighted collections simply have none).
    include_internal_labels:
        Emit internal node labels (support values).
    precision:
        Significant digits for lengths; ``None`` uses ``repr`` so that a
        parse/write round trip is exact.

    Examples
    --------
    >>> from repro.newick.parser import parse_newick
    >>> write_newick(parse_newick("((A,B),(C,D));"))
    '((A,B),(C,D));'
    """
    out: list[str] = []
    # Iterative serialization: frames of (node, child_cursor).
    stack: list[tuple[Node, int]] = [(tree.root, 0)]
    while stack:
        node, cursor = stack[-1]
        if node.is_leaf:
            stack.pop()
            out.append(format_label(node.taxon.label if node.taxon else (node.label or "")))
            if include_lengths:
                out.append(_length_suffix(node, precision))
            continue
        if cursor == 0:
            out.append("(")
        if cursor < len(node.children):
            if cursor > 0:
                out.append(",")
            stack[-1] = (node, cursor + 1)
            stack.append((node.children[cursor], 0))
            continue
        stack.pop()
        out.append(")")
        if include_internal_labels and node.label:
            out.append(format_label(node.label))
        if include_lengths:
            out.append(_length_suffix(node, precision))
    out.append(";")
    return "".join(out)
