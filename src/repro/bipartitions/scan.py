"""Columnar split scanner: Newick text straight to packed split rows.

Scoring a tree against a frequency table needs only its splits, and no
``Tree`` is needed to find them.  In a Newick record the leaves under any
``(``…``)`` group form a contiguous run of the record's leaf sequence, so
a group is fully described by the interval ``[lo, hi)`` of leaf
positions it covers.  Let ``P`` be the prefix XOR of one-hot leaf words,
an ``(L+1, n_words)`` uint64 array with word 0 most significant as in
:func:`~repro.core.table.masks_to_words`.  Then the split of the group
covering ``[lo, hi)`` is ``P[hi] ^ P[lo]``, and a tree's leaf set is
``P[end] ^ P[start]``.

:func:`scan_records` keeps, per collection, only the leaf taxon indices,
each tree's leaf offsets and the interval of every non-root group.
Parentheses are matched by a stable sort by depth: at each depth, opens
and closes alternate, so the i-th open and the i-th close at one depth
are a pair.  :meth:`ScannedTrees.block` then turns the intervals into
the same per-tree ``(m, n_words)`` rows ``bipartition_masks`` and
``masks_to_words`` give, in a few NumPy passes:

* a group of size ``k`` in a tree of ``n`` leaves is a non-trivial split
  when ``2 <= k <= n - 2``; with ``include_trivial`` every leaf counts
  too and only a group covering the whole tree is dropped;
* a split and its complement are one row.  The complement of an
  interval is itself an interval only for a prefix ``[start, hi)``,
  whose complement is ``[hi, end)``, so mapping prefixes to their
  suffixes and deduplicating the intervals removes exactly the
  duplicate rows (a bifurcating root's two sides, nested unary groups);
* each row is normalized against the tree's own lowest taxon, not taxon
  0: a row whose interval misses that taxon's leaf position is XOR-ed
  with the tree's leaf set.

Packing happens when a block is requested, at the caller's width, so a
namespace that grew after the scan (the reference file adding taxa)
just packs wider.

The scanner accepts exactly what :func:`~repro.newick.parser.parse_newick`
accepts.  Records without quotes or comments are classified byte by byte
with a lookup table built from the parser's ``LABEL_STOP``; other records
go through the parser's own ``_TOKEN``.  The grammar is then checked on
the token kinds of every record at once.  A record the scanner rejects is
re-run through ``parse_newick``, so the error type, message and position
are the parser's own.
"""

from __future__ import annotations

import io
import os
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.newick.io import open_tree_file, split_records
from repro.newick.parser import BARE, LABEL_STOP, _TOKEN, parse_newick, unquote
from repro.observability.metrics import counter as _metric
from repro.observability.state import enabled as _obs_enabled
from repro.trees.taxon import TaxonNamespace
from repro.util.errors import NewickParseError

__all__ = ["SplitBlock", "ScannedTrees", "scan_records", "scan_newick_text",
           "scan_newick_file"]

# Token kinds.  _START is the slot before a record's first token; _END
# closes a record that has no ';' (end of input or a lexical error).
_START, _OPEN, _CLOSE, _COMMA, _SEMI, _COLON, _LABEL, _END = range(8)
_STRUCTURAL = {"(": _OPEN, ")": _CLOSE, ",": _COMMA, ";": _SEMI, ":": _COLON}

# Byte classes of a record without quotes or comments: whitespace is 0,
# structural characters are their token kind, everything else (every
# byte of a multi-byte character included) is label text.
_BYTE_KIND = np.full(256, _LABEL, dtype=np.uint8)
for _char in LABEL_STOP:
    _BYTE_KIND[ord(_char)] = _STRUCTURAL.get(_char, 0)
# A record whose only ';' ends it and that holds no quote or comment.
_PLAIN = re.compile(r"[^;'\[\]]*;")
_BARE = re.compile(BARE)


@dataclass(frozen=True)
class SplitBlock:
    """Packed split rows of a batch of trees, tree by tree.

    ``words`` is ``(m, n_words)`` uint64; tree ``i`` owns the next
    ``counts[i]`` rows.  A tree's rows are distinct; their order is
    unspecified.
    """

    words: np.ndarray
    counts: np.ndarray

    @classmethod
    def concat(cls, blocks: Sequence["SplitBlock"]) -> "SplitBlock":
        return cls(np.concatenate([b.words for b in blocks]),
                   np.concatenate([b.counts for b in blocks]))


@dataclass(frozen=True)
class ScannedTrees:
    """Leaf sequences and non-root group intervals of scanned trees.

    Tree ``t`` owns leaves ``tree_offsets[t]:tree_offsets[t + 1]`` of
    ``taxa`` (namespace indices, in text order).  Group ``g`` covers
    leaves ``lo[g]:hi[g]``; the outermost group of each tree is left
    out, as ``bipartition_masks`` leaves out the root.
    """

    taxa: np.ndarray
    tree_offsets: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self) -> int:
        return len(self.tree_offsets) - 1

    @property
    def leaf_counts(self) -> np.ndarray:
        return np.diff(self.tree_offsets)

    def block(self, n_words: int, *, include_trivial: bool = False) -> SplitBlock:
        """Each tree's normalized, distinct split rows at ``n_words`` width."""
        offsets = self.tree_offsets
        n_leaves = len(self.taxa)
        lo, hi = self.lo, self.hi
        if include_trivial:
            leaves = np.arange(n_leaves, dtype=np.int64)
            lo, hi = np.concatenate([lo, leaves]), np.concatenate([hi, leaves + 1])
        tree = np.searchsorted(offsets, lo, side="right") - 1
        start, end = offsets[tree], offsets[tree + 1]
        size, n = hi - lo, end - start
        keep = size < n if include_trivial else (size >= 2) & (size <= n - 2)
        # A prefix [start, hi) and the suffix [hi, end) are one split:
        # key both by the suffix, then keep one row per distinct key.
        prefix = lo == start
        clo = np.where(prefix, hi, lo)[keep]
        chi = np.where(prefix, end, hi)[keep]
        key = np.sort(clo * (n_leaves + 1) + chi)
        distinct = np.ones(len(key), dtype=bool)
        distinct[1:] = key[1:] != key[:-1]
        key = key[distinct]
        clo, chi = np.divmod(key, n_leaves + 1)
        tree = np.searchsorted(offsets, clo, side="right") - 1

        prefix_xor = self._prefix_xor(n_words)
        words = prefix_xor[chi] ^ prefix_xor[clo]
        anchor = self._anchors()[tree]
        flip = (anchor < clo) | (anchor >= chi)
        leaf_sets = prefix_xor[offsets[1:]] ^ prefix_xor[offsets[:-1]]
        words[flip] ^= leaf_sets[tree[flip]]
        counts = np.bincount(tree, minlength=len(self)).astype(np.int64)
        return SplitBlock(words, counts)

    def _prefix_xor(self, n_words: int) -> np.ndarray:
        taxa = self.taxa
        if len(taxa) and int(taxa.max()) >= 64 * n_words:
            # Refuse to truncate, as masks_to_words does.
            raise ValueError(
                f"taxon {int(taxa.max())} does not fit in {n_words} words")
        out = np.zeros((len(taxa) + 1, n_words), dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), (taxa % 64).astype(np.uint64))
        out[np.arange(1, len(taxa) + 1), n_words - 1 - taxa // 64] = bits
        return np.bitwise_xor.accumulate(out, axis=0)

    def _anchors(self) -> np.ndarray:
        """Leaf position of each tree's lowest taxon."""
        if not len(self):
            return np.zeros(0, dtype=np.int64)
        lowest = np.minimum.reduceat(self.taxa, self.tree_offsets[:-1])
        return np.flatnonzero(self.taxa == np.repeat(lowest, self.leaf_counts))


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

def _plain_tokens(text: str) -> tuple[np.ndarray, list[str]]:
    """Token kinds and labels of records without quotes or comments."""
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    kinds = _BYTE_KIND[data]
    label = kinds == _LABEL
    token = kinds != 0
    token[1:] &= ~(label[1:] & label[:-1])  # a run of label bytes is one token
    return kinds[token], _BARE.findall(text)


def _record_tokens(record: str) -> tuple[np.ndarray, list[str]]:
    """Token kinds and labels of one record, as ``parse_newick`` reads it:
    nothing after the first ';' is looked at."""
    kinds: list[int] = []
    labels: list[str] = []
    for structural, quoted, bare, _end, _error in _TOKEN.findall(record):
        if structural:
            kinds.append(_STRUCTURAL[structural])
            if structural == ";":
                break
        elif quoted or bare:
            kinds.append(_LABEL)
            labels.append(unquote(quoted) if quoted else bare)
        else:
            kinds.append(_END)
            break
    return np.array(kinds, dtype=np.uint8), labels


def _tokens(records: list[str]) -> tuple[np.ndarray, list[str]]:
    kinds: list[np.ndarray] = []
    labels: list[str] = []
    run: list[str] = []

    def flush() -> None:
        if run:
            run_kinds, run_labels = _plain_tokens("".join(run))
            kinds.append(run_kinds)
            labels.extend(run_labels)
            run.clear()

    for record in records:
        if _PLAIN.fullmatch(record):
            run.append(record)
        else:
            flush()
            record_kinds, record_labels = _record_tokens(record)
            kinds.append(record_kinds)
            labels.extend(record_labels)
    flush()
    if not kinds:
        return np.zeros(0, dtype=np.uint8), labels
    return np.concatenate(kinds), labels


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------

def scan_records(records: Iterable[str], namespace: TaxonNamespace, *,
                 source: str | os.PathLike | None = None) -> ScannedTrees:
    """Scan Newick records, binding leaf labels into ``namespace``.

    Each record is read as :func:`~repro.newick.parser.parse_newick`
    reads it, and the namespace grows in the same order.  The first
    record ``parse_newick`` would reject raises its
    :class:`~repro.util.errors.NewickParseError` or
    :class:`~repro.util.errors.TaxonError`; with ``source`` a parse
    error is prefixed ``in <source>, tree record N:`` as the file
    readers do.
    """
    records = list(records)
    kinds, labels = _tokens(records)
    ends = np.flatnonzero((kinds == _SEMI) | (kinds == _END))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    record_of = np.repeat(np.arange(len(records)), ends - starts + 1)

    # The grammar as rules on (previous kind, kind, depth).
    prev = np.empty_like(kinds)
    prev[1:] = kinds[:-1]
    prev[starts] = _START
    is_label = kinds == _LABEL
    opens_subtree = (prev == _START) | (prev == _OPEN) | (prev == _COMMA)
    leaf = is_label & opens_subtree
    length = is_label & (prev == _COLON)
    after_length = np.zeros_like(length)
    after_length[1:] = length[:-1]
    ends_subtree = (prev == _LABEL) | (prev == _CLOSE)
    step = (kinds == _OPEN).astype(np.int64) - (kinds == _CLOSE)
    depth = np.cumsum(step)
    before = depth - step
    before -= np.repeat(before[starts], ends - starts + 1)
    ok = ((kinds == _OPEN) & opens_subtree) | leaf | length \
        | (is_label & (prev == _CLOSE)) \
        | ((kinds == _COLON) & ends_subtree & ~after_length) \
        | ((kinds == _SEMI) & ends_subtree & (before == 0)) \
        | (((kinds == _COMMA) | (kinds == _CLOSE)) & ends_subtree
           & (before > 0))
    bad = np.zeros(len(records), dtype=bool)
    bad[record_of[~ok]] = True

    label_is_leaf = leaf[is_label]
    leaf_labels = labels if label_is_leaf.all() \
        else list(compress(labels, label_is_leaf))
    lengths = list(compress(labels, length[is_label]))
    try:
        list(map(float, lengths))
    except ValueError:
        for at, text in zip(np.flatnonzero(length), lengths):
            try:
                float(text)
            except ValueError:
                bad[record_of[at]] = True

    # Provisional indices: new labels are numbered in order of first
    # appearance, as TaxonNamespace.require numbers them.
    base = len(namespace)
    index = {label: i for i, label in enumerate(namespace.labels)}
    fresh = [label for label in dict.fromkeys(leaf_labels) if label not in index]
    index.update(zip(fresh, range(base, base + len(fresh))))
    taxa = np.fromiter(map(index.__getitem__, leaf_labels), dtype=np.int64,
                       count=len(leaf_labels))
    leaf_record = record_of[leaf]
    if "" in index:
        bad[leaf_record[taxa == index[""]]] = True
    keys = np.sort(leaf_record * max(1, len(index)) + taxa)
    bad[keys[1:][keys[1:] == keys[:-1]] // max(1, len(index))] = True

    if bad.any():
        first = int(np.argmax(bad))
        seen = taxa[:np.searchsorted(leaf_record, first)]
        known = int(seen.max()) + 1 - base if len(seen) else 0
        for label in fresh[:max(0, known)]:
            namespace.require(label)
        _reparse(records[first], namespace, source, first)
    for label in fresh:
        namespace.require(label)

    # All records are valid, so every one starts and ends at depth 0.
    opens = np.flatnonzero(kinds == _OPEN)
    closes = np.flatnonzero(kinds == _CLOSE)
    opens = opens[np.argsort(depth[opens], kind="stable")]
    closes = closes[np.argsort(depth[closes], kind="stable")]
    nonroot = depth[opens] > 1
    leaves_before = np.cumsum(leaf) - leaf
    lo = leaves_before[opens[nonroot]]
    hi = leaves_before[closes[nonroot]]
    tree_offsets = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(np.bincount(leaf_record, minlength=len(records)),
              out=tree_offsets[1:])
    if _obs_enabled():
        _metric("newick.trees_parsed").inc(len(records))
    return ScannedTrees(taxa, tree_offsets, lo, hi)


def _reparse(record: str, namespace: TaxonNamespace,
             source: str | os.PathLike | None, index: int) -> None:
    """Raise the parser's own error for a record the scanner rejected."""
    try:
        parse_newick(record, namespace)
    except NewickParseError as exc:
        if source is None:
            raise
        raise NewickParseError(
            f"in {os.fspath(source)}, tree record {index + 1}: {exc}") from exc
    raise RuntimeError(
        f"the columnar scanner rejected record {index + 1}, which "
        f"parse_newick accepts: {record[:80]!r}")


def scan_newick_text(text: str, namespace: TaxonNamespace) -> ScannedTrees:
    """Scan a block of Newick records, as ``trees_from_string`` reads it."""
    return _scan_lines(io.StringIO(text), namespace)


def scan_newick_file(path: str | os.PathLike,
                     namespace: TaxonNamespace) -> ScannedTrees:
    """Scan a Newick file (``.gz`` too), as ``read_newick_file`` reads it."""
    with open_tree_file(path, "r") as fh:
        return _scan_lines(fh, namespace, source=path)


def _scan_lines(lines: Iterable[str], namespace: TaxonNamespace, *,
                source: str | os.PathLike | None = None) -> ScannedTrees:
    # The Tree readers parse record by record, so a bad record is
    # reported ahead of unterminated trailing text; scanning before
    # raising for the trailing text keeps that order.
    records = []
    trailing = False
    for record, terminated in split_records(lines, comment_lines=True):
        if not terminated:
            trailing = True
            break
        records.append(record)
    scanned = scan_records(records, namespace, source=source)
    if trailing:
        raise NewickParseError("trailing data without terminating ';'")
    return scanned
