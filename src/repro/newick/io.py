"""Streaming multi-tree file I/O.

The paper's memory story (§III-B, §VII-C) hinges on *dynamic loading*:
BFHRF never holds a whole collection in memory — it streams reference
trees once to build the frequency hash, then streams query trees for the
comparisons.  :func:`iter_newick_file` provides that streaming read (one
tree per ``;``-terminated record, one line or many), and
:func:`write_newick_file` the matching writer.

Files may contain blank lines and ``#``-prefixed comment lines between
trees, which covers the common export formats of tree-inference tools.
"""

from __future__ import annotations

import gzip
import io
import os
import re
from collections.abc import Iterable, Iterator

from repro.newick.parser import COMMENT, QUOTED, parse_newick
from repro.newick.writer import write_newick
from repro.trees.taxon import TaxonNamespace
from repro.trees.tree import Tree
from repro.util.errors import NewickParseError

__all__ = [
    "iter_newick_strings",
    "iter_newick_file",
    "read_newick_file",
    "write_newick_file",
    "trees_to_string",
    "trees_from_string",
    "open_tree_file",
]

# Record text up to its terminating ';': anything but ';', quotes and
# comment brackets, or a whole quoted label or comment.
_RECORD_BODY = re.compile(rf"(?:[^;'\[]+|{QUOTED}|{COMMENT})*")


def open_tree_file(path: str | os.PathLike, mode: str = "r"):
    """Open a tree file, transparently handling ``.gz`` compression.

    Real gene-tree collections (the Avian/Insect datasets included) ship
    gzipped; every reader/writer in this module accepts ``.gz`` paths
    through this helper.  Text mode only.
    """
    if mode not in ("r", "w"):
        raise ValueError(f"mode must be 'r' or 'w', got {mode!r}")
    if os.fspath(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def split_records(lines: Iterable[str], *,
                  comment_lines: bool) -> Iterator[tuple[str, bool]]:
    """Yield ``(text, terminated)`` for each ``;``-terminated record.

    ``;`` ends a record only outside quoted labels and comments, which
    may span lines.  Each record's text is stripped and keeps its ``;``;
    unterminated text left at the end comes last, with ``terminated``
    false.  With ``comment_lines``, blank lines and lines starting with
    ``#`` between records are skipped.  Lines are read one at a time and
    each character is scanned once.
    """
    pending = ""  # text not yet yielded
    scanned = 0   # pending[:scanned] holds no record-ending ';'
    close = ""    # the character that ends a quote or comment still open
    for line in lines:
        if comment_lines and (not pending or pending.isspace()):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
        pending += line
        start = 0
        while True:
            if close:
                found = pending.find(close, scanned)
                if found < 0:
                    scanned = len(pending)
                    break
                scanned, close = found + 1, ""
            end = _RECORD_BODY.match(pending, scanned).end()
            if end == len(pending):
                scanned = end
                break
            if pending[end] == ";":
                yield pending[start:end + 1].strip(), True
                start = end + 1
            else:  # an opening quote or '[' whose close is not here yet
                close = "]" if pending[end] == "[" else "'"
            scanned = end + 1
        pending, scanned = pending[start:], scanned - start
    if pending.strip():
        yield pending.strip(), False


def iter_newick_strings(stream: io.TextIOBase | Iterable[str]) -> Iterator[str]:
    """Yield one complete ``;``-terminated Newick record at a time.

    Records may span lines; quoted labels and comments containing ``;``
    are respected.  ``#`` starts a comment line only at record boundaries.
    The stream is read one line at a time.
    """
    for record, terminated in split_records(stream, comment_lines=True):
        if not terminated:
            raise NewickParseError("trailing data without terminating ';'")
        yield record


def iter_newick_file(path: str | os.PathLike,
                     taxon_namespace: TaxonNamespace | None = None) -> Iterator[Tree]:
    """Stream trees from a Newick file, one :class:`Tree` at a time.

    All trees are bound into one shared namespace (created fresh when not
    supplied) so the collection is immediately comparable.

    Examples
    --------
    >>> import tempfile, os
    >>> p = tempfile.mktemp()
    >>> _ = open(p, "w").write("(A,(B,(C,D)));\\n((A,B),(C,D));\\n")
    >>> ns = TaxonNamespace()
    >>> sum(1 for _ in iter_newick_file(p, ns))
    2
    >>> os.remove(p)
    """
    ns = taxon_namespace if taxon_namespace is not None else TaxonNamespace()
    with open_tree_file(path, "r") as fh:
        for line_no, record in enumerate(iter_newick_strings(fh), start=1):
            try:
                yield parse_newick(record, ns)
            except NewickParseError as exc:
                raise NewickParseError(
                    f"in {os.fspath(path)}, tree record {line_no}: {exc}"
                ) from exc


def read_newick_file(path: str | os.PathLike,
                     taxon_namespace: TaxonNamespace | None = None) -> list[Tree]:
    """Read a whole Newick file into a list (the non-streaming DS protocol)."""
    return list(iter_newick_file(path, taxon_namespace))


def write_newick_file(path: str | os.PathLike, trees: Iterable[Tree], *,
                      include_lengths: bool = True, precision: int | None = 12) -> int:
    """Write trees one per line; returns the number written."""
    count = 0
    with open_tree_file(path, "w") as fh:
        for tree in trees:
            fh.write(write_newick(tree, include_lengths=include_lengths,
                                   precision=precision))
            fh.write("\n")
            count += 1
    return count


def trees_to_string(trees: Iterable[Tree], **kwargs) -> str:
    """Serialize trees to a newline-separated Newick block (for tests/CLI)."""
    return "\n".join(write_newick(t, **kwargs) for t in trees) + "\n"


def trees_from_string(text: str,
                      taxon_namespace: TaxonNamespace | None = None) -> list[Tree]:
    """Parse a newline/record-separated block of Newick trees."""
    ns = taxon_namespace if taxon_namespace is not None else TaxonNamespace()
    return [parse_newick(record, ns)
            for record in iter_newick_strings(io.StringIO(text))]
