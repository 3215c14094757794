"""Minimal NEXUS ``TREES`` block reader.

Real-world tree collections — including the Avian and Insect datasets
the paper benchmarks on — frequently ship as NEXUS files rather than
bare Newick.  This reader covers the subset those collections use:

* a ``#NEXUS`` header;
* ``BEGIN TREES; ... END;`` blocks (case-insensitive);
* an optional ``TRANSLATE`` table mapping token labels (usually
  integers) to taxon names;
* ``TREE name = [&U] (newick...);`` statements, whose rooted/unrooted
  annotations (``[&R]``/``[&U]``) and other bracket comments are
  ignored (this library treats trees as unrooted throughout, like the
  paper).

Everything else (DATA blocks, CHARACTERS, commands we don't model) is
skipped without error, which is how tolerant NEXUS consumers behave.

Statement splitting and the TRANSLATE parser are quote-aware: ``;``,
``,``, and bracket-comment characters inside single-quoted labels (with
``''`` escapes) are treated as literal text, matching what the NEXUS
writer emits for such labels.  (This used to be a known limitation; the
selfcheck harness's round-trip property surfaced it as a real bug.)
"""

from __future__ import annotations

import io
import os
import re
from collections.abc import Iterator

from repro.newick.io import open_tree_file, split_records
from repro.newick.parser import COMMENT, QUOTED, parse_newick, unquote
from repro.trees.manipulate import suppress_unifurcations
from repro.trees.taxon import TaxonNamespace
from repro.trees.tree import Tree
from repro.util.errors import NewickParseError

__all__ = ["read_nexus_trees", "iter_nexus_trees", "parse_translate_block"]

# A comment outside quoted labels, to delete; group 1 keeps a quoted
# label.  A quote or comment left open runs to the end of the text.
_COMMENTS = re.compile(rf"({QUOTED}|'.*)|{COMMENT}|\[.*", re.DOTALL)
# A TRANSLATE entry up to the next ',' outside quotes; a quote left open
# runs to the end of the table.
_TRANSLATE_ENTRY = re.compile(rf"(?:[^,']+|{QUOTED})*(?:'.*)?", re.DOTALL)
_TREE_STMT = re.compile(r"^\s*U?TREE\s*(\*)?\s*([^=\s]+)\s*=\s*(.*)$",
                        re.IGNORECASE | re.DOTALL)


def _statements(stream) -> Iterator[str]:
    """Yield ``;``-terminated NEXUS statements, comments removed.

    The scan is quote-aware: inside a single-quoted label, ``;`` and
    ``[``/``]`` are literal characters and ``''`` is an escaped quote, so
    labels like ``'semi;colon'`` or ``'q[z]'`` survive intact.  Bracket
    comments outside quotes (``[&U]`` and friends) are dropped.  A
    comment still open at the end of input drops the rest; a quote still
    open keeps it.
    """
    for record, terminated in split_records(stream, comment_lines=False):
        if statement := _COMMENTS.sub(
                r"\1", record[:-1] if terminated else record).strip():
            yield statement


def parse_translate_block(statement: str) -> dict[str, str]:
    """Parse the body of a ``TRANSLATE`` statement into token -> label.

    Labels may be single-quoted and contain commas, whitespace, or
    escaped quotes (``''``), exactly as the NEXUS writer produces them.

    >>> parse_translate_block("TRANSLATE 1 Homo_sapiens, 2 Pan_troglodytes")
    {'1': 'Homo_sapiens', '2': 'Pan_troglodytes'}
    >>> parse_translate_block("TRANSLATE 1 'c,d', 2 'it''s'")
    {'1': 'c,d', '2': "it's"}
    """
    body = re.sub(r"^\s*TRANSLATE\s*", "", statement, flags=re.IGNORECASE)
    table: dict[str, str] = {}
    for entry in _TRANSLATE_ENTRY.findall(body):
        entry = entry.strip()
        if not entry:
            continue
        match = re.match(r"(\S+)\s+(.+)$", entry, re.DOTALL)
        if match is None:
            raise NewickParseError(f"malformed TRANSLATE entry {entry!r}")
        label = match.group(2).strip()
        quoted = len(label) >= 2 and label[0] == label[-1] == "'"
        table[match.group(1)] = unquote(label) if quoted else label
    return table


def _apply_translation(tree: Tree, table: dict[str, str],
                       namespace: TaxonNamespace) -> Tree:
    """Re-bind leaf taxa through the TRANSLATE table."""
    for leaf in tree.leaves():
        if leaf.taxon is None:
            continue
        token = leaf.taxon.label
        # Untranslated tokens (mixed files) pass through as themselves,
        # but always re-bound into the shared output namespace.
        leaf.taxon = namespace.require(table.get(token, token))
    return tree


def iter_nexus_trees(source: str | os.PathLike | io.TextIOBase,
                     taxon_namespace: TaxonNamespace | None = None) -> Iterator[Tree]:
    """Stream trees from a NEXUS file/handle/string.

    All trees share one namespace; TRANSLATE tokens are resolved to the
    translated labels so the namespace contains real taxon names.

    Examples
    --------
    >>> text = '''#NEXUS
    ... BEGIN TREES;
    ...   TRANSLATE 1 A, 2 B, 3 C, 4 D;
    ...   TREE t1 = [&U] ((1,2),(3,4));
    ... END;'''
    >>> trees = list(iter_nexus_trees(io.StringIO(text)))
    >>> sorted(trees[0].leaf_labels())
    ['A', 'B', 'C', 'D']
    """
    ns = taxon_namespace if taxon_namespace is not None else TaxonNamespace()
    if isinstance(source, (str, os.PathLike)) and not (
            isinstance(source, str) and "\n" in source):
        stream = open_tree_file(source, "r")
        close = True
    elif isinstance(source, str):
        stream = io.StringIO(source)
        close = False
    else:
        stream = source
        close = False

    try:
        first = stream.readline()
        if not first.strip().upper().startswith("#NEXUS"):
            raise NewickParseError("not a NEXUS file (missing #NEXUS header)")
        in_trees = False
        translate: dict[str, str] = {}
        # Tokens parse into a scratch namespace; real labels go into `ns`.
        scratch = TaxonNamespace()
        for statement in _statements(stream):
            upper = statement.upper()
            if upper.startswith("BEGIN"):
                in_trees = upper.split()[1:2] == ["TREES"] or "TREES" in upper
                continue
            if upper.startswith("END"):
                in_trees = False
                continue
            if not in_trees:
                continue
            if upper.startswith("TRANSLATE"):
                translate = parse_translate_block(statement)
                continue
            match = _TREE_STMT.match(statement)
            if not match:
                continue  # tolerate unknown commands inside TREES
            newick = match.group(3).strip()
            if not newick.endswith(";"):
                newick += ";"
            if translate:
                tree = parse_newick(newick, scratch)
                tree = _apply_translation(tree, translate, ns)
                tree.taxon_namespace = ns
            else:
                tree = parse_newick(newick, ns)
            yield suppress_unifurcations(tree)
    finally:
        if close:
            stream.close()


def read_nexus_trees(source: str | os.PathLike | io.TextIOBase,
                     taxon_namespace: TaxonNamespace | None = None) -> list[Tree]:
    """Read a whole NEXUS TREES block into a list."""
    return list(iter_nexus_trees(source, taxon_namespace))
