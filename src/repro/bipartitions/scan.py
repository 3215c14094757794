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
Parentheses are matched by one sort by (depth, position): at each
depth, opens and closes alternate, so each open pairs with the close
after it.  :meth:`ScannedTrees.block` then turns the intervals into
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
accepts.  The records are encoded to UTF-8 as one text, and one pass
over its bytes finds the plain records: those whose only ';', quote or
comment bracket is the ';' that ends them.  Their bytes are classified
one by one with a lookup table built from the parser's ``LABEL_STOP``;
other records go through the parser's own ``_TOKEN``, and their unquoted
labels are appended to the text.  Every label is a byte span of that
text.  Equal leaf labels are grouped by sorting the spans 8 bytes at a
time, so only distinct labels become strings, sliced from the text's
string at character offsets.  The grammar is then checked on the token
kinds of every record at once, with lookup tables.  A record the
scanner rejects is re-run through ``parse_newick``, so the error type,
message and position are the parser's own.

Every intermediate is only as wide as its values, and is freed once
used.  Byte classes, token kinds and flags are one byte, mapped through
256-byte tables with ``bytes.translate``.  Positions, depths and prefix
counts are int32 unless twice the input bytes plus the record count
reaches 2**31 (``_INT32_LIMIT``), when they are int64; keys packed from
them, and the ``ScannedTrees`` fields, are int64.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.newick.io import open_tree_file, split_records
from repro.newick.parser import LABEL_STOP, _TOKEN, parse_newick, unquote
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


def _table(values: np.ndarray) -> bytes:
    """A lookup of uint8 codes as a ``bytes.translate`` table, which maps
    an array without the intp copy of its codes ``np.take`` makes."""
    table = np.zeros(256, dtype=np.uint8)
    table[:len(values)] = values.view(np.uint8)
    return table.tobytes()


def _lookup(table: bytes, codes: np.ndarray) -> np.ndarray:
    """``table[codes]`` for a uint8 ``codes`` array, read-only uint8."""
    return np.frombuffer(codes.tobytes().translate(table), dtype=np.uint8)


_STEP = np.zeros(8, dtype=np.int8)  # depth change
_STEP[[_OPEN, _CLOSE]] = 1, -1
_STEP = _table(_STEP)
# _LEAF[prev << 3 | kind]: a label where a subtree may start is a leaf.
_LEAF = np.zeros((8, 8), dtype=bool)
_LEAF[[_START, _OPEN, _COMMA], _LABEL] = True
_LEAF = _table(_LEAF.ravel())

# The grammar: _RULES[prev, kind] says when a token may follow the token
# before it, and _ALLOWED[rule, nested, after a length] whether it does.
# ',' and ')' need an open group, ';' none, and ':' may not follow a
# branch length.  _GRAMMAR joins the two, indexed by prev << 5 |
# kind << 2 | nested << 1 | after a length.
_NEVER, _ALWAYS, _AT_TOP, _NESTED, _NOT_AFTER_LENGTH = range(5)
_RULES = np.full((8, 8), _NEVER, dtype=np.uint8)
_RULES[[_START, _OPEN, _COMMA], _OPEN] = _ALWAYS
_RULES[[_START, _OPEN, _COMMA, _COLON, _CLOSE], _LABEL] = _ALWAYS
_RULES[[_LABEL, _CLOSE], _SEMI] = _AT_TOP
_RULES[[_LABEL, _CLOSE], _COMMA] = _NESTED
_RULES[[_LABEL, _CLOSE], _CLOSE] = _NESTED
_RULES[[_LABEL, _CLOSE], _COLON] = _NOT_AFTER_LENGTH
_ALLOWED = np.zeros((5, 2, 2), dtype=bool)
_ALLOWED[_ALWAYS] = True
_ALLOWED[_AT_TOP, 0] = True
_ALLOWED[_NESTED, 1] = True
_ALLOWED[_NOT_AFTER_LENGTH, :, 0] = True
_GRAMMAR = _table(_ALLOWED[_RULES].ravel())

# Byte classes: whitespace is 0, structural characters are their token
# kind, quotes and comment brackets are _QUOTING, and everything else
# (every byte of a multi-byte character included) is label text.
_QUOTING = 8
_BYTE_KIND = np.full(256, _LABEL, dtype=np.uint8)
for _char in LABEL_STOP:
    _BYTE_KIND[ord(_char)] = _STRUCTURAL.get(_char, 0)
_BYTE_KIND[list(b"'[]")] = _QUOTING
_BYTE_KIND = _table(_BYTE_KIND)
_SEMI_BYTE = ord(";")
# In memory order, byte k of _PAD[n] is 0xFF for k >= n and 0 otherwise.
_PAD = np.frombuffer(b"".join(b"\0" * k + b"\xff" * (8 - k)
                              for k in range(9)), dtype=np.uint64)

# Byte and token positions, depths and prefix counts are int32 while
# twice the input bytes plus the record count is below this, and int64
# from there on.  No such value reaches that sum: the text labels are
# sliced from is the input followed by the unquoted labels of the
# records that hold quotes or comments, at most as long again, and a
# record has at most one token that spans no byte.
_INT32_LIMIT = 2**31
# Rows of a block XOR-ed per gather (768 KiB of temporaries at 3 words).
_CHUNK_ROWS = 1 << 15


def _running_sum(values: np.ndarray, dtype) -> np.ndarray:
    """Inclusive prefix sum of ``values`` as ``dtype``, accumulated in
    place: ``cumsum(dtype=...)`` of a narrower input first casts all of
    it to a temporary as wide as the result."""
    out = values.astype(dtype)
    np.cumsum(out, out=out)
    return out


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
        return self.tree_offsets[1:] - self.tree_offsets[:-1]

    def block(self, n_words: int, *, include_trivial: bool = False) -> SplitBlock:
        """Each tree's normalized, distinct split rows at ``n_words`` width."""
        offsets = self.tree_offsets
        n_leaves = len(self.taxa)
        lo, hi = self.lo, self.hi
        if include_trivial:
            leaves = np.arange(n_leaves, dtype=np.int64)
            lo, hi = np.concatenate([lo, leaves]), np.concatenate([hi, leaves + 1])
            del leaves
        tree = offsets.searchsorted(lo, side="right")  # the tree, plus 1
        end = offsets[tree]
        tree -= 1
        start = offsets[tree]
        del tree
        size, n = hi - lo, end - start
        keep = size < n if include_trivial else (size >= 2) & (size <= n - 2)
        del size, n
        # A prefix [start, hi) and the suffix [hi, end) are one split:
        # key both by the suffix, then keep one row per distinct key.
        prefix = lo == start
        del start
        key = np.where(prefix, hi, lo)[keep]
        key *= n_leaves + 1
        key += np.where(prefix, end, hi)[keep]
        del prefix, end, keep, lo, hi
        key.sort()
        distinct = np.ones(len(key), dtype=bool)
        distinct[1:] = key[1:] != key[:-1]
        key = key[distinct]
        del distinct
        clo, chi = np.divmod(key, n_leaves + 1)
        del key
        tree = offsets.searchsorted(clo, side="right")
        tree -= 1
        counts = np.bincount(tree, minlength=len(self)).astype(np.int64,
                                                               copy=False)
        # A row whose interval misses its tree's anchor is XOR-ed with
        # the tree's leaf set, any other with the zero row after them.
        anchor = self._anchors()[tree]
        sets = np.where((anchor < clo) | (anchor >= chi), tree, len(self))
        del anchor, tree

        prefix_xor = self._prefix_xor(n_words)
        leaf_sets = np.zeros((len(self) + 1, n_words), dtype=np.uint64)
        np.bitwise_xor(prefix_xor[offsets[1:]], prefix_xor[offsets[:-1]],
                       out=leaf_sets[:-1])
        # The rows are P[chi] ^ P[clo] ^ leaf_sets[sets], the last two
        # gathered _CHUNK_ROWS rows at a time, so no second array of all
        # the rows is alive beside P and the rows.
        words = prefix_xor.take(chi, axis=0)
        del chi
        for at in range(0, len(words), _CHUNK_ROWS):
            rows = slice(at, at + _CHUNK_ROWS)
            words[rows] ^= prefix_xor.take(clo[rows], axis=0)
            words[rows] ^= leaf_sets.take(sets[rows], axis=0)
        return SplitBlock(words, counts)

    def _prefix_xor(self, n_words: int) -> np.ndarray:
        taxa = self.taxa
        if len(taxa) and int(taxa.max()) >= 64 * n_words:
            # Refuse to truncate, as masks_to_words does.
            raise ValueError(
                f"taxon {int(taxa.max())} does not fit in {n_words} words")
        # Leaf i sets bit taxon & 63 of word n_words - 1 - (taxon >> 6)
        # in row i + 1; the rows then accumulate in place.
        out = np.zeros((len(taxa) + 1, n_words), dtype=np.uint64)
        bits = taxa.view(np.uint64) & np.uint64(63)
        np.left_shift(np.uint64(1), bits, out=bits)
        word = taxa >> 6
        for w in range(n_words):
            np.copyto(out[1:, n_words - 1 - w], bits, where=word == w)
        return np.bitwise_xor.accumulate(out, axis=0, out=out)

    def _anchors(self) -> np.ndarray:
        """Leaf position of each tree's lowest taxon."""
        if not len(self):
            return np.zeros(0, dtype=np.int64)
        lowest = np.minimum.reduceat(self.taxa, self.tree_offsets[:-1])
        return (self.taxa == lowest.repeat(self.leaf_counts)).nonzero()[0]


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

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


def _tokens(records: list[str]) -> tuple[np.ndarray, str, np.ndarray,
                                         np.ndarray, np.ndarray]:
    """Token kinds of every record, a text as a string and as padded
    UTF-8 bytes, and the ``[start, end)`` byte span in that text of each
    label token, in token order.

    The text is the records, then the unquoted labels of records that
    hold quotes or comments; 8 bytes of padding follow its bytes.  The
    spans are int32 or int64 by the ``_INT32_LIMIT`` rule.
    """
    joined = "".join(records)
    data = joined.encode("utf-8", "surrogatepass")
    index = np.int32 if 2 * len(data) + len(records) < _INT32_LIMIT \
        else np.int64
    sizes = list(map(len, records)) if len(data) == len(joined) else [
        len(record.encode("utf-8", "surrogatepass")) for record in records]
    bounds = np.fromiter(accumulate(sizes, initial=0), dtype=index,
                         count=len(records) + 1)
    byte_kinds = np.frombuffer(data.translate(_BYTE_KIND), dtype=np.uint8)
    padded = _padded(data)
    n_data = len(data)
    del data

    # A record is plain when its one ';', quote or comment bracket is the
    # ';' that ends it; its bytes are then classified one by one.
    marks = ((byte_kinds == _SEMI) | (byte_kinds == _QUOTING)).nonzero()[0]
    cuts = marks.searchsorted(bounds)
    # (An empty first record reads its last byte from the padding.)
    plain = (cuts[1:] - cuts[:-1] == 1) \
        & (padded[bounds[1:] - 1] == _SEMI_BYTE)
    all_plain = plain.all()
    if not all_plain:
        byte_kinds = byte_kinds.copy()
        byte_kinds[(~plain).repeat(sizes)] = 0
    label = byte_kinds == _LABEL
    token = byte_kinds != 0
    run = label[1:] & label[:-1]  # a run of label bytes is one token
    np.invert(run, out=run)
    token[1:] &= run
    kinds = byte_kinds[token]  # (compress would build an intp index)
    del byte_kinds
    if not all_plain:
        # The tokens before each odd record, whose own bytes hold none.
        odd = (~plain).nonzero()[0]
        at = bounds[odd].tolist()
        token_cuts = list(accumulate(
            np.count_nonzero(token[a:b]) for a, b in zip([0, *at], at)))
    del token
    # Label runs start and end where the byte class changes; every plain
    # record ends with ';', so every run ends inside the text.
    np.not_equal(label[1:], label[:-1], out=run)
    first_label = len(label) and label[0]
    del label
    edges = np.add(run.nonzero()[0], 1, dtype=index)
    del run
    if first_label:
        edges = np.insert(edges, 0, 0)
    starts, ends = edges[0::2], edges[1::2]
    if all_plain:
        return kinds, joined, padded, starts, ends

    # Other records go through the parser's own tokenizer; their labels,
    # unquoted, are appended to the text and joined to the spans there.
    label_cuts = starts.searchsorted(bounds[odd]).tolist()
    kind_parts, start_parts, end_parts = [], [], []
    names: list[str] = []
    token_at = label_at = 0
    for i, token_cut, label_cut in zip(odd.tolist(), token_cuts, label_cuts):
        record_kinds, labels = _record_tokens(records[i])
        kind_parts += [kinds[token_at:token_cut], record_kinds]
        start_parts.append(starts[label_at:label_cut])
        end_parts.append(ends[label_at:label_cut])
        start_parts.append(np.full(len(labels), -1, dtype=index))
        end_parts.append(start_parts[-1])
        names += labels
        token_at, label_at = token_cut, label_cut
    kind_parts.append(kinds[token_at:])
    start_parts.append(starts[label_at:])
    end_parts.append(ends[label_at:])
    starts = np.concatenate(start_parts)
    ends = np.concatenate(end_parts)
    extra = [name.encode("utf-8", "surrogatepass") for name in names]
    sizes = np.fromiter(map(len, extra), dtype=index, count=len(extra))
    appended = starts < 0
    ends[appended] = n_data + sizes.cumsum()
    starts[appended] = ends[appended] - sizes
    return (np.concatenate(kind_parts), joined + "".join(names),
            _padded(b"".join([padded[:-8], *extra])), starts, ends)


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

def _padded(data: bytes) -> np.ndarray:
    return np.frombuffer(data + b"\xff" * 8, dtype=np.uint8)


def _words(text: np.ndarray, starts: np.ndarray,
           sizes: np.ndarray) -> np.ndarray:
    """Bytes ``[start, start + 8)`` of each span as one uint64, with the
    bytes at and past the span's end set to 0xFF.

    UTF-8 never produces 0xFF (not even with ``surrogatepass``), so two
    spans give equal words exactly when they agree on those 8 bytes and
    on whether, and where, they end within them.
    """
    windows = np.ndarray((len(text) - 7,), np.uint64, text, 0, (1,))
    words = windows[starts]
    words |= _PAD[np.minimum(sizes, 8)]
    return words


def _intern(text: np.ndarray, starts: np.ndarray,
            ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal label spans of ``text``.

    Returns each span's group, numbered ``0..G-1``, and the first span
    of each group.  Spans are sorted by their first word; only spans
    still tied with another and not yet compared to their end are
    sorted again, by their next word within their group.  So the work
    and the memory are bounded by the total label bytes, however long
    the longest label is.
    """
    n = len(starts)
    sizes = ends - starts
    longest = int(sizes.max(initial=0))
    group = np.empty(n, dtype=sizes.dtype)
    n_groups = 0
    firsts = [np.zeros(0, dtype=np.intp)]
    active, at, left = None, starts, sizes  # None: every span
    offset = 0
    while n:
        words = _words(text, at, left)
        if offset:
            tied = group[active]
            order = np.lexsort((words, tied))
            tied = tied[order]
            active = active[order]
        else:
            order = active = words.argsort()
        words = words[order]
        del order
        head = np.ones(len(active), dtype=bool)
        head[1:] = words[1:] != words[:-1]
        del words
        if offset:
            head[1:] |= tied[1:] != tied[:-1]
        rank = _running_sum(head, group.dtype)
        rank += n_groups - 1
        group[active] = rank
        firsts.append(np.minimum.reduceat(active, head.nonzero()[0]))
        n_groups = int(rank[-1]) + 1
        del rank
        offset += 8
        if offset > longest:
            break
        # A span stays when another in its run is still tied with it.
        shared = ~head
        shared[:-1] |= ~head[1:]
        active = active[shared & (sizes[active] >= offset)]
        if not len(active):
            break
        at, left = starts[active] + offset, sizes[active] - offset
    first = np.concatenate(firsts)
    if offset > 8:  # groups split after the first word left gaps
        live = np.zeros(n_groups, dtype=bool)
        live[group] = True
        renumber = _running_sum(live, group.dtype)
        renumber -= 1
        group = renumber[group]
        first = first[live]
    return group, first


def _strings(string: str, text: np.ndarray, starts: np.ndarray,
             ends: np.ndarray) -> list[str]:
    """Byte spans of the padded UTF-8 ``text`` as slices of ``string``,
    the same text decoded.

    A character is one UTF-8 lead byte and its continuation bytes
    (0x80-0xBF; a lone surrogate under ``surrogatepass`` too), so a
    byte offset less the continuation bytes before it is the character
    offset.  When the text is ASCII the two offsets are one.
    """
    if len(string) + 8 < len(text):
        follow = ((text & 0xC0) == 0x80).nonzero()[0]
        starts = starts - follow.searchsorted(starts)
        ends = ends - follow.searchsorted(ends)
    return [string[a:b] for a, b in zip(starts.tolist(), ends.tolist())]


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
    kinds, string, text, label_starts, label_ends = _tokens(records)
    index = label_starts.dtype
    n_tokens = len(kinds)
    # Record r owns tokens starts[r]..ends[r]; the record of a token is
    # found by a search of ends.
    ends = ((kinds == _SEMI) | (kinds == _END)).nonzero()[0]
    starts = np.zeros(len(ends), dtype=ends.dtype)
    starts[1:] = ends[:-1] + 1

    # The grammar as rules on (previous kind, kind, depth).
    context = np.empty_like(kinds)  # the previous kind, for now
    context[1:] = kinds[:-1]
    context[starts] = _START
    is_label = kinds == _LABEL
    length = is_label & (context == _COLON)
    context <<= 3
    context |= kinds
    leaf = _lookup(_LEAF, context).view(bool)
    step = _lookup(_STEP, kinds).view(np.int8)
    del kinds
    # The depth before a token, tested for > 0, runs on across records.
    # A record that leaves a group open or closes one too many is
    # rejected on its own tokens, and every record before the first
    # rejected one starts at depth 0, so that record is still the first.
    depth = _running_sum(step, index)
    nested = depth > step
    del depth
    context <<= 2
    context |= nested.view(np.uint8) << 1
    del nested
    context[1:] |= length[:-1]
    ok = _lookup(_GRAMMAR, context).view(bool)
    del context
    bad = np.zeros(len(records), dtype=bool)
    if not ok.all():
        bad[ends.searchsorted((~ok).nonzero()[0])] = True
    del ok

    if length.any():
        in_length = length[is_label]
        lengths = _strings(string, text, label_starts[in_length],
                           label_ends[in_length])
        try:
            list(map(float, lengths))
        except ValueError:
            for at, value in zip(length.nonzero()[0], lengths):
                try:
                    float(value)
                except ValueError:
                    bad[ends.searchsorted(at)] = True
    del length

    # Each distinct leaf label is decoded once and looked up in the
    # namespace; new labels are numbered in order of first appearance,
    # as TaxonNamespace.require numbers them.
    in_leaf = leaf[is_label]
    del is_label
    leaf_starts, leaf_ends = label_starts[in_leaf], label_ends[in_leaf]
    del label_starts, label_ends, in_leaf
    group, first = _intern(text, leaf_starts, leaf_ends)
    names = _strings(string, text, leaf_starts[first], leaf_ends[first])
    del leaf_starts, leaf_ends, text, string
    ids = np.fromiter(namespace.indices(names), dtype=np.int64,
                      count=len(names))
    base = len(namespace)
    new = (ids < 0).nonzero()[0]
    fresh: list[str] = []
    if len(new):
        new = new[first[new].argsort()]
        ids[new] = np.arange(base, base + len(new))
        fresh = [names[i] for i in new.tolist()]
    taxa = ids[group]
    # Tree r owns leaves tree_offsets[r]:tree_offsets[r + 1].
    leaf_at = leaf.nonzero()[0]
    tree_offsets = np.empty(len(records) + 1, dtype=np.int64)
    tree_offsets[:-1] = leaf_at.searchsorted(starts)
    tree_offsets[-1] = len(leaf_at)
    if "" in names:  # '' names no taxon
        bad[ends.searchsorted(leaf_at[group == names.index("")])] = True
    del leaf_at, group
    # A taxon twice in one record: its (record, taxon) key repeats.
    n_ids = max(1, base + len(new))
    keys = np.arange(0, len(records) * n_ids, n_ids).repeat(
        tree_offsets[1:] - tree_offsets[:-1])
    keys += taxa
    keys.sort()
    bad[keys[1:][keys[1:] == keys[:-1]] // n_ids] = True
    del keys

    if bad.any():
        first_bad = int(np.argmax(bad))
        seen = taxa[:tree_offsets[first_bad]]
        known = int(seen.max()) + 1 - base if len(seen) else 0
        for label in fresh[:max(0, known)]:
            namespace.require(label)
        _reparse(records[first_bad], namespace, source, first_bad)
    for label in fresh:
        namespace.require(label)

    # All records are valid, so every one starts and ends at depth 0,
    # and the depth after a parenthesis is the sum of the steps of the
    # parentheses up to it.  An open is at the depth after it, a close
    # at the depth before it.  At one depth opens and closes alternate,
    # so sorting them by (depth, position) pairs each open with the
    # close after it.
    parens = step.nonzero()[0]
    moves = step[parens]
    del step
    level = _running_sum(moves, np.int64)
    level += moves < 0
    del moves
    shift = n_tokens.bit_length()
    if 2 * shift < 63:  # sort (level, position) packed in one int64
        level <<= shift
        level |= parens
        del parens
        level.sort()
        nonroot = level[0::2] >= 2 << shift
        level &= (1 << shift) - 1
        parens = level
    else:
        order = np.lexsort((parens, level))
        level, parens = level[order], parens[order]
        nonroot = level[0::2] > 1
    del level
    leaves_upto = _running_sum(leaf, index)  # at a paren: the leaves before it
    del leaf
    lo = leaves_upto[parens[0::2][nonroot]].astype(np.int64)
    hi = leaves_upto[parens[1::2][nonroot]].astype(np.int64)
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
    return _scan_lines(_lines(text), namespace)


def _lines(text: str) -> Iterator[str]:
    """The lines of ``io.StringIO(text)``, which would hold a copy of
    ``text`` at 4 bytes a character."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


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
