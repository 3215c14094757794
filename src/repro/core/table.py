"""The canonical bipartition table and its pluggable codecs.

The paper's central data structure — a frequency hash over bipartition
bitmasks — used to be materialized several separate times: as a dict
(:mod:`repro.hashing.bfh`), as sorted NumPy arrays
(:mod:`repro.core.vectorized`), and as a hand-packed on-disk layout
(:mod:`repro.store.format`).  :class:`BipartitionTable` is the one core
those layers now share: sorted keys + counts (+ an optional column of
branch lengths) with ``n_taxa``/``n_words``/``n_trees`` metadata.  The
vectorized backend probes a table's arrays zero-copy, a process fan-out
ships a table to its workers in the executor payload (it pickles as its
two flat arrays), and a store snapshot is a table run through a *codec*.

Two orders, one table
---------------------
Keys live in two total orders:

* **numeric order** — masks ascending as integers.  This is the on-disk
  order (delta compression needs it) and the order
  :meth:`BipartitionTable.numeric_rows` yields.
* **probe order** — rows sorted under the NumPy void-byte comparison the
  vectorized backend's ``searchsorted`` uses.  ``keys``/``counts`` are
  stored in this order so probes adopt them without re-sorting.
  :func:`probe_order` produces it with a lexsort over the byteswapped
  words, not a void sort: a word's bytes in memory order, read
  big-endian, are the byteswapped word.

``from_counts`` and ``from_rows`` sort into probe order once at
construction; codecs convert probe → numeric once at encode, and
decoders numeric → probe once.  Rows already in numeric order (a
compaction's shard slice) are encoded as they are.  A weighted table's
``lengths`` column follows its rows: :func:`take_runs` moves each row's
run of lengths with it.  Exactness is unaffected: both are total orders
over the same multiset.

Codecs
------
A codec turns a table's numeric-order keys and counts into two byte
sections and back, registered with a permanent tag like the method
registry in :mod:`repro.runtime.registry`.  The third section, a
weighted table's branch lengths, is the same in every codec: the
``lengths`` column in numeric row order as raw ``f64`` (floats must
round-trip exactly, so there is nothing lossless-and-simple to squeeze
out of them).  :class:`CodecSpec` writes and reads it for all of them.

* ``raw-u64`` — today's layout, bit-for-bit: packed little-endian
  64-bit-word keys and ``u64`` counts.
* ``succinct-v1`` — the paper's §IX "loss less and reversible
  compression of the bipartitions as keys", as the snapshot format.
  Each key is framed as whichever is shorter: a LEB128 varint delta
  from the previous key (sorted keys share long prefixes, so deltas are
  small) or a :func:`compress_mask` blob (small clades beat deltas).
  A blob is itself the shortest of three tagged forms: ``RAW`` (the
  minimal big-endian bytes of the mask), ``GAPS`` (varints of the gaps
  between set bits) and ``CGAPS`` (the gaps of the complement within
  the leaf set).  CGAPS exists because normalized splits keep the
  anchor taxon on the 1-side, which is usually the dense side; the
  0-side is the small clade, so coding the complement is where most of
  the saving lies.  Counts are run-length blocks.  It is
  :data:`DEFAULT_CODEC`, the format new snapshots are written in.

Every codec decode is exact: the decoded table equals the encoded one
key-for-key and count-for-count (the ``codec-roundtrip`` selfcheck
oracle and the seeded property tests in
``tests/store/test_table_codecs.py`` enforce this across the 64/128-bit
word boundaries, splitless references, and weighted multisets).
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from repro.bipartitions.encoding import words_for_taxa
from repro.util.errors import BipartitionError, StoreCorruptError

__all__ = [
    "BipartitionTable", "TableSections",
    "masks_to_words", "words_to_masks", "probe_order", "take_runs",
    "CodecSpec", "register_codec", "get_codec", "codec_by_tag",
    "codec_names", "codecs", "DEFAULT_CODEC", "default_codec_name",
    "compress_mask", "decompress_mask",
]

_WORD_BITS = 64
_PACK_ROWS = 1024


# ---------------------------------------------------------------------------
# Word packing (array form). The byte form lives in bipartitions.encoding.
# ---------------------------------------------------------------------------

def masks_to_words(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Pack arbitrary-precision masks into an ``(m, n_words)`` uint64 array.

    Word 0 is the *most significant*, so lexicographic order of rows
    equals numeric order of masks.  Each mask becomes its big-endian
    bytes, which read as big-endian words are exactly that row (joined a
    block of masks at a time, so the bytes objects never pile up).
    """
    size = 8 * n_words
    out = np.empty((len(masks), n_words), dtype=np.uint64)
    masks_left = iter(masks)
    try:
        for start in range(0, len(masks), _PACK_ROWS):
            data = b"".join([mask.to_bytes(size, "big")
                             for mask in islice(masks_left, _PACK_ROWS)])
            out[start:start + len(data) // size] = np.frombuffer(
                data, dtype=">u8").reshape(-1, n_words)
    except OverflowError:
        # Refuse to truncate: a dropped high word would make distinct
        # splits collide silently — the worst failure class here.
        bad = next(m for m in masks if m < 0 or m >> (_WORD_BITS * n_words))
        raise ValueError(
            f"mask {bad:#x} does not fit in {n_words} words") from None
    return out


def words_to_masks(keys: np.ndarray) -> list[int]:
    """Inverse of :func:`masks_to_words`: rows back to Python ints."""
    rows = np.ascontiguousarray(keys, dtype=">u8").view(
        np.dtype((np.void, 8 * keys.shape[1]))).ravel().tolist()
    return list(map(int.from_bytes, rows, repeat("big")))


def _ascending_rows(keys: np.ndarray) -> bool:
    """Whether MSW-first word rows are strictly ascending as integers."""
    above = np.zeros(len(keys) - 1 if len(keys) else 0, dtype=bool)
    tied = np.ones_like(above)
    for col in range(keys.shape[1]):
        before, after = keys[:-1, col], keys[1:, col]
        above |= tied & (after > before)
        tied &= after == before
    return bool(above.all())


def probe_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of rows under the probe (void-byte) comparison.

    Void scalars compare as raw bytes in memory order, which on a
    little-endian machine is *not* numeric order.  Probes only need the
    table and the query to share one total order, and this is the one
    ``np.searchsorted`` over void views gets for free.  A word's bytes
    in memory order, read big-endian, are the word byteswapped (on a
    little-endian machine), so one lexsort over the swapped words, word
    0 as the primary key, gives that order without a void sort.
    """
    if sys.byteorder == "little":
        keys = keys.byteswap()
    return np.lexsort(keys.T[::-1])


def take_runs(values: np.ndarray | None, counts: np.ndarray,
              order: np.ndarray) -> np.ndarray | None:
    """``values`` laid out as one run of ``counts[i]`` entries per row
    ``i``, with whole runs reordered as ``order`` reorders the rows
    (``None`` stays ``None``)."""
    if values is None:
        return None
    sizes = counts[order]
    ends = np.cumsum(sizes)
    starts = np.cumsum(counts) - counts
    return values[np.repeat(starts[order] - (ends - sizes), sizes)
                  + np.arange(ends[-1] if len(ends) else 0)]


class BipartitionTable:
    """Sorted bipartition keys + counts (+ branch lengths) with metadata.

    ``keys`` is ``(U, n_words)`` uint64 in probe order; ``counts`` is
    ``(U,)`` int64 aligned with it.  ``lengths`` — present only for
    weighted tables — is one float64 column of ``counts.sum()`` entries:
    each row's ``count`` branch lengths, sorted ascending, in row order
    (the store's exact-removal representation).

    Construct with :meth:`from_counts` / :meth:`from_bfh` (sorts once)
    or directly with arrays already in probe order (zero-copy adoption).
    """

    __slots__ = ("keys", "counts", "lengths", "n_taxa", "n_words",
                 "n_trees", "total", "include_trivial")

    def __init__(self, keys: np.ndarray, counts: np.ndarray, *, n_taxa: int,
                 n_trees: int, total: int, include_trivial: bool = False,
                 lengths: np.ndarray | None = None):
        if keys.ndim != 2 or keys.shape[0] != counts.shape[0]:
            raise ValueError("keys must be (U, n_words) aligned with counts")
        if keys.dtype != np.uint64 or counts.dtype != np.int64 \
                or not keys.flags.c_contiguous or not counts.flags.c_contiguous:
            raise ValueError("BipartitionTable requires contiguous uint64 "
                             "keys and int64 counts (probe order)")
        if keys.shape[1] != words_for_taxa(n_taxa):
            raise ValueError(
                f"key width {keys.shape[1]} words does not match "
                f"{n_taxa} taxa")
        if lengths is not None and len(lengths) != counts.sum():
            raise ValueError(
                f"{len(lengths)} branch lengths for {int(counts.sum())} "
                "counted splits")
        self.keys = keys
        self.counts = counts
        self.lengths = lengths
        self.n_taxa = n_taxa
        self.n_words = keys.shape[1]
        self.n_trees = n_trees
        self.total = total
        self.include_trivial = include_trivial

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_counts(cls, counts: dict[int, int], *, n_taxa: int,
                    n_trees: int, total: int | None = None,
                    include_trivial: bool = False,
                    weights: dict[int, list[float]] | None = None
                    ) -> "BipartitionTable":
        """Build from a frequency dict (one probe sort, from the dict's
        own order); ``weights`` maps each mask to its ``count`` branch
        lengths."""
        keys = masks_to_words(list(counts), words_for_taxa(n_taxa))
        freqs = np.fromiter(counts.values(), dtype=np.int64,
                            count=len(counts))
        lengths = None
        if weights is not None:
            runs = [sorted(weights.get(mask, ())) for mask in counts]
            if list(map(len, runs)) != freqs.tolist():
                raise ValueError("a split's branch lengths are not its count")
            lengths = np.array([x for run in runs for x in run],
                               dtype=np.float64)
        order = probe_order(keys)
        return cls(np.take(keys, order, axis=0), np.take(freqs, order),
                   n_taxa=n_taxa, n_trees=n_trees,
                   total=sum(counts.values()) if total is None else total,
                   include_trivial=include_trivial,
                   lengths=take_runs(lengths, freqs, order))

    @classmethod
    def from_rows(cls, rows: np.ndarray, *, n_taxa: int, n_trees: int,
                  include_trivial: bool = False) -> "BipartitionTable":
        """Count packed split rows, one row per (tree, split) occurrence.

        The rows are sorted into probe order once; each run of equal
        rows is one key, and its length is the key's count, so no
        frequency dict is built.
        """
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        rows = np.take(rows, probe_order(rows), axis=0)
        head = np.ones(len(rows), dtype=bool)  # first row of its run
        head[1:] = False
        for col in rows.T:
            head[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(head)
        return cls(np.take(rows, starts, axis=0),
                   np.diff(starts, append=len(rows)).astype(np.int64),
                   n_taxa=n_taxa, n_trees=n_trees, total=len(rows),
                   include_trivial=include_trivial)

    @classmethod
    def from_bfh(cls, bfh, n_taxa: int) -> "BipartitionTable":
        """Wrap a dict-backed :class:`BipartitionFrequencyHash`."""
        return cls.from_counts(bfh.counts, n_taxa=n_taxa,
                               n_trees=bfh.n_trees, total=bfh.total,
                               include_trivial=bfh.include_trivial)

    # -- views ----------------------------------------------------------------

    @property
    def weighted(self) -> bool:
        return self.lengths is not None

    def __len__(self) -> int:
        return len(self.counts)

    def masks(self) -> list[int]:
        """Masks as Python ints in row (probe) order."""
        return words_to_masks(self.keys)

    def numeric_rows(self) -> tuple[np.ndarray, np.ndarray,
                                    np.ndarray | None]:
        """``(keys, counts, lengths)`` in ascending numeric mask order —
        the codec/on-disk order (one lexsort, word 0 as the primary key).

        A table whose rows are already in that order (a compaction's
        shard slice) is returned as it is."""
        if _ascending_rows(self.keys):
            return self.keys, self.counts, self.lengths
        order = np.lexsort(self.keys.T[::-1])
        return (self.keys[order], self.counts[order],
                take_runs(self.lengths, self.counts, order))

    def to_bfh(self):
        """Materialize as a dict-backed hash (verification aid)."""
        from repro.hashing.bfh import BipartitionFrequencyHash

        return BipartitionFrequencyHash.from_counts(
            dict(zip(self.masks(), self.counts.tolist())), self.n_trees,
            total=self.total, include_trivial=self.include_trivial)

    def vectorized(self, *, transform=None):
        """A :class:`~repro.core.vectorized.VectorizedBFH` probing this
        table's arrays zero-copy (no re-sort, no copy)."""
        from repro.core.vectorized import VectorizedBFH

        return VectorizedBFH(self, transform=transform)

    def same_contents(self, other: "BipartitionTable") -> bool:
        """Exact content equality (metadata + keys + counts + lengths)."""
        return (self.n_taxa == other.n_taxa
                and self.n_words == other.n_words
                and self.n_trees == other.n_trees
                and self.total == other.total
                and self.include_trivial == other.include_trivial
                and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.counts, other.counts)
                and np.array_equal(self.lengths, other.lengths))  # None too

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BipartitionTable(keys={len(self)}, words={self.n_words}, "
                f"taxa={self.n_taxa}, trees={self.n_trees}, "
                f"weighted={self.weighted})")


# ---------------------------------------------------------------------------
# Codec registry.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableSections:
    """One encoded table: the three on-disk byte sections of a snapshot."""

    keys: bytes
    counts: bytes
    weights: bytes

    @property
    def nbytes(self) -> int:
        return len(self.keys) + len(self.counts) + len(self.weights)


@dataclass(frozen=True)
class CodecSpec:
    """One registered table codec.

    Attributes
    ----------
    name:
        The string users and the CLI pass (``--snapshot-format``).
    tag:
        The ``u16`` codec identifier written into v2 snapshot headers.
        Tags are forever: a reader maps tag → codec for any snapshot it
        will ever meet, so a registered tag must never be reused.
    encoder / decoder:
        ``encoder(keys, counts, n_taxa) -> (key_bytes, count_bytes)`` of
        numeric-order rows, and ``decoder(key_bytes, count_bytes, *,
        n_taxa, entries) -> (keys, counts)`` back.  Decoding malformed
        bytes raises :class:`~repro.util.errors.StoreCorruptError` —
        loud, never a silently wrong table.  :meth:`encode` and
        :meth:`decode` add the branch-length section, the same for
        every codec.
    estimator:
        ``estimator(table) -> int`` projected key and count section
        bytes, without writing anything (``store info`` shows the
        compression win before a migrate).
    """

    name: str
    tag: int
    encoder: Callable[[np.ndarray, np.ndarray, int], tuple[bytes, bytes]]
    decoder: Callable[..., tuple[np.ndarray, np.ndarray]]
    estimator: Callable[[BipartitionTable], int]
    summary: str

    def encode(self, table: BipartitionTable) -> TableSections:
        keys, counts, lengths = table.numeric_rows()
        key_bytes, count_bytes = self.encoder(keys, counts, table.n_taxa)
        weights = b"" if lengths is None else lengths.astype("<f8").tobytes()
        return TableSections(keys=key_bytes, counts=count_bytes,
                             weights=weights)

    def decode(self, sections: TableSections, *, n_taxa: int, entries: int,
               weighted: bool, include_trivial: bool, n_trees: int = 0,
               total: int | None = None) -> BipartitionTable:
        """The table of encoded sections, put into probe order."""
        keys, counts = self.decoder(sections.keys, sections.counts,
                                    n_taxa=n_taxa, entries=entries)
        if not _ascending_rows(keys):
            raise StoreCorruptError("snapshot keys are not strictly ascending")
        held = sum(counts.tolist())
        lengths = None
        if weighted:
            if len(sections.weights) != 8 * held:
                raise StoreCorruptError(
                    f"weight section is {len(sections.weights)} bytes, "
                    f"expected {8 * held}")
            lengths = np.frombuffer(sections.weights, "<f8").astype(np.float64)
        elif sections.weights:
            raise StoreCorruptError(
                "unweighted snapshot carries a weight section")
        order = probe_order(keys)
        return BipartitionTable(
            np.take(keys, order, axis=0), np.take(counts, order),
            n_taxa=n_taxa, n_trees=n_trees,
            total=held if total is None else total,
            include_trivial=include_trivial,
            lengths=take_runs(lengths, counts, order))

    def estimated_bytes(self, table: BipartitionTable) -> int:
        lengths = 0 if table.lengths is None else table.lengths.nbytes
        return self.estimator(table) + lengths


_REGISTRY: dict[str, CodecSpec] = {}

# The codec new snapshots are written with.
DEFAULT_CODEC = "succinct-v1"


def register_codec(name: str, *, tag: int, encoder, decoder, estimator,
                   summary: str) -> CodecSpec:
    """Register a table codec; returns its :class:`CodecSpec`.

    Re-registering a *name* replaces the previous entry (reload
    idempotence), but a tag collision with a different name is an error
    — on-disk tags are permanent.
    """
    for spec in _REGISTRY.values():
        if spec.tag == tag and spec.name != name:
            raise ValueError(
                f"codec tag {tag} is already taken by {spec.name!r}")
    spec = CodecSpec(name=name, tag=tag, encoder=encoder, decoder=decoder,
                     estimator=estimator, summary=summary)
    _REGISTRY[name] = spec
    return spec


def get_codec(name: str) -> CodecSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown codec {name!r}; expected one of "
                         f"{', '.join(sorted(_REGISTRY))}")
    return spec


def codec_by_tag(tag: int) -> CodecSpec:
    for spec in _REGISTRY.values():
        if spec.tag == tag:
            return spec
    raise StoreCorruptError(f"snapshot carries unknown codec tag {tag}")


def codec_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def codecs() -> tuple[CodecSpec, ...]:
    return tuple(_REGISTRY.values())


def default_codec_name() -> str:
    """The codec new snapshots are written with."""
    return DEFAULT_CODEC


# ---------------------------------------------------------------------------
# raw-u64: today's layout, bit-for-bit.
# ---------------------------------------------------------------------------

def _raw_encode(keys: np.ndarray, counts: np.ndarray,
                n_taxa: int) -> tuple[bytes, bytes]:
    # Each key little-endian as a whole: least significant word first.
    return (keys[:, ::-1].astype("<u8").tobytes(),
            counts.astype("<u8").tobytes())


def _raw_decode(key_bytes: bytes, count_bytes: bytes, *, n_taxa: int,
                entries: int) -> tuple[np.ndarray, np.ndarray]:
    width = words_for_taxa(n_taxa) * 8
    if len(key_bytes) != entries * width:
        raise StoreCorruptError(
            f"raw-u64 key section is {len(key_bytes)} bytes, expected "
            f"{entries * width}")
    if len(count_bytes) != entries * 8:
        raise StoreCorruptError(
            f"raw-u64 count section is {len(count_bytes)} bytes, "
            f"expected {entries * 8}")
    keys = np.frombuffer(key_bytes, dtype="<u8").reshape(
        entries, width // 8)[:, ::-1].astype(np.uint64)
    counts = np.frombuffer(count_bytes, dtype="<u8")
    if entries and counts.max() >> np.uint64(63):
        raise StoreCorruptError("raw-u64 count does not fit int64")
    return keys, counts.astype(np.int64)


def _raw_estimate(table: BipartitionTable) -> int:
    return len(table) * (table.n_words * 8 + 8)


# ---------------------------------------------------------------------------
# succinct-v1: delta/gap-compressed keys + run-length count blocks.
# ---------------------------------------------------------------------------

_RAW = 0x00
_GAPS = 0x01
_CGAPS = 0x02


def _encode_varint(value: int, out: bytearray) -> None:
    """LEB128 unsigned varint."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise BipartitionError("truncated varint in compressed mask")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _gaps_encoding(mask: int, tag: int) -> bytes:
    out = bytearray([tag])
    prev = -1
    while mask:
        lsb = mask & -mask
        pos = lsb.bit_length() - 1
        _encode_varint(pos - prev, out)
        prev = pos
        mask ^= lsb
    return bytes(out)


def compress_mask(mask: int, leaf_mask: int | None = None) -> bytes:
    """Encode a split mask into its shortest reversible byte form.

    Parameters
    ----------
    leaf_mask:
        The full taxon bitmask the split lives in.  When given, the
        complement side becomes a candidate encoding — for normalized
        splits (anchor on the 1-side) the complement is the small clade
        and usually wins.  The *same* ``leaf_mask`` must be passed to
        :func:`decompress_mask`.

    >>> decompress_mask(compress_mask(0b1011)) == 0b1011
    True
    >>> len(compress_mask(1 << 500)) < len((1 << 500).to_bytes(63, "big"))
    True
    >>> full = (1 << 64) - 1
    >>> dense = full ^ (1 << 40)                    # all but one taxon
    >>> decompress_mask(compress_mask(dense, full), full) == dense
    True
    >>> len(compress_mask(dense, full)) < len(compress_mask(dense))
    True
    """
    if mask < 0:
        raise BipartitionError("masks are non-negative")
    candidates = [
        bytes([_RAW]) + mask.to_bytes(max(1, (mask.bit_length() + 7) // 8), "big"),
        _gaps_encoding(mask, _GAPS),
    ]
    if leaf_mask is not None:
        if mask & ~leaf_mask:
            raise BipartitionError(
                f"mask {mask:#x} has bits outside leaf_mask {leaf_mask:#x}")
        candidates.append(_gaps_encoding(mask ^ leaf_mask, _CGAPS))
    return min(candidates, key=len)


def _decode_gaps(data: bytes, width: int | None) -> int:
    """The mask of a GAPS/CGAPS blob; with ``width``, no bit may lie at
    or past it (checked before the shift, so a huge gap cannot make a
    huge int)."""
    mask = 0
    pos = -1
    offset = 1
    while offset < len(data):
        gap, offset = _decode_varint(data, offset)
        if gap < 1:
            raise BipartitionError("zero gap in compressed mask")
        pos += gap
        if width is not None and pos >= width:
            raise BipartitionError(
                f"compressed mask sets bit {pos}, past the leaf mask's "
                f"{width} bits")
        mask |= 1 << pos
    return mask


def decompress_mask(data: bytes, leaf_mask: int | None = None) -> int:
    """Exact inverse of :func:`compress_mask` (same ``leaf_mask``)."""
    if not data:
        raise BipartitionError("empty compressed mask")
    tag = data[0]
    width = None if leaf_mask is None else leaf_mask.bit_length()
    if tag == _RAW:
        return int.from_bytes(data[1:], "big")
    if tag == _GAPS:
        return _decode_gaps(data, width)
    if tag == _CGAPS:
        if leaf_mask is None:
            raise BipartitionError(
                "complement-coded mask needs the leaf_mask it was encoded with")
        return _decode_gaps(data, width) ^ leaf_mask
    raise BipartitionError(f"unknown compression tag {tag:#x}")


_DELTA = 0x00      # varint(mask - prev_mask) follows
_COMPRESSED = 0x01  # varint(length) + compress_mask blob follows


# The encoder works on a table's packed words, a chunk of rows at a time
# (so peak memory does not grow with the table), and writes exactly the
# bytes the per-key definition gives: ``varint(mask - prev)`` when that
# is no longer than the framed ``compress_mask(mask, leaf_mask)`` blob,
# else the blob.
_CHUNK_WORDS = 1 << 12
_BYTE_ONES = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                           axis=1).sum(axis=1)
_BYTE_BITS = np.array([value.bit_length() for value in range(256)])


def _subtract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a - b`` of MSW-first word rows, modulo ``2**(64 * w)``."""
    out = np.empty_like(a)
    borrow = np.zeros(len(a), dtype=bool)
    for col in range(a.shape[1] - 1, -1, -1):
        x, y = a[:, col], b[:, col]
        out[:, col] = x - y - borrow
        borrow = (x < y) | ((x == y) & borrow)
    return out


def _word_digits(words: np.ndarray) -> np.ndarray:
    """Base-128 digits of MSW-first word rows, least significant first."""
    n_words = words.shape[1]
    low_first = words[:, ::-1]
    start = 7 * np.arange(-(-_WORD_BITS * n_words // 7))
    col = start // _WORD_BITS
    shift = (start % _WORD_BITS).astype(np.uint64)
    digits = low_first[:, col]
    digits >>= shift
    # A digit starting in a word's top six bits ends in the next word.
    spill = np.flatnonzero((shift > 57) & (col + 1 < n_words))
    digits[:, spill] |= (low_first[:, col[spill] + 1]
                         << (np.uint64(_WORD_BITS) - shift[spill]))
    digits &= np.uint64(0x7F)
    return digits.astype(np.uint8)


def _int_digits(values: np.ndarray) -> np.ndarray:
    """Base-128 digits of non-negative int64 values, least significant
    first."""
    top = int(values.max()) if values.size else 0
    shifts = 7 * np.arange(max(1, -(-top.bit_length() // 7)), dtype=np.int64)
    return ((values[:, None] >> shifts) & 0x7F).astype(np.uint8)


def _leb128(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128 varints of values given as ``(k, D)`` base-128 digits.

    Returns the k varints back to back and each one's length (zero is
    one byte), the bytes :func:`_encode_varint` writes.
    """
    width = digits.shape[1]
    place = np.arange(width, dtype=np.min_scalar_type(width))
    lengths = np.maximum(1, ((digits != 0) * (place + 1)).max(axis=1)
                         ).astype(np.int64)
    more = (place < (lengths - 1)[:, None]).astype(np.uint8) << 7
    return (digits | more)[place < lengths[:, None]], lengths


def _select(part: tuple[np.ndarray, np.ndarray],
            keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep only the records ``keep`` marks of a ``(bytes, lengths)``
    part; the others get length 0."""
    flat, lengths = part
    return flat[np.repeat(keep, lengths)], np.where(keep, lengths, 0)


def _interleave(parts: list[tuple[np.ndarray, np.ndarray]]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Lay records out part after part: record 0's parts, then record 1's.

    Each part is ``(bytes, lengths)``: record r owns ``lengths[r]`` bytes
    of it, stored back to back in record order.  Returns the laid-out
    bytes and each record's total length.
    """
    lengths = np.stack([part_lengths for _, part_lengths in parts], axis=1)
    starts = (np.cumsum(lengths.ravel()) - lengths.ravel()).reshape(
        lengths.shape)
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    for col, (flat, part_lengths) in enumerate(parts):
        begins = np.cumsum(part_lengths) - part_lengths
        out[np.repeat(starts[:, col] - begins, part_lengths)
            + np.arange(len(flat))] = flat
    return out, lengths.sum(axis=1)


def _gap_varints(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a 0/1 matrix, the varints of the gaps between its set
    bits (the first gap counts from -1): a GAPS blob after its tag."""
    row, pos = np.nonzero(bits)
    gaps = np.diff(pos, prepend=-1)
    first = np.ones(len(row), dtype=bool)
    first[1:] = row[1:] != row[:-1]
    gaps[first] = pos[first] + 1
    flat, lengths = _leb128(_int_digits(gaps))
    return flat, np.bincount(row, weights=lengths,
                             minlength=len(bits)).astype(np.int64)


def _framed_blobs(big: np.ndarray, raw_bytes: np.ndarray,
                  leaf_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """``varint(len(blob)) + compress_mask(mask, leaf_mask)`` for each
    row of big-endian mask bytes, as a ``(bytes, lengths)`` part."""
    bits = np.unpackbits(big[:, ::-1], axis=1, bitorder="little")
    ones = bits.sum(axis=1, dtype=np.int64)
    # RAW comes first and wins ties, so GAPS (CGAPS) can only win with
    # fewer set (clear leaf) bits than RAW has bytes; no other row gets
    # its gaps built.
    sparse = ones < raw_bytes
    dense = leaf_bits - ones < raw_bytes
    gaps = _gap_varints(bits * sparse[:, None])
    cgaps = _gap_varints((bits[:, :leaf_bits] ^ 1) * dense[:, None])
    never = np.iinfo(np.int64).max
    sizes = np.stack([1 + raw_bytes, np.where(sparse, 1 + gaps[1], never),
                      np.where(dense, 1 + cgaps[1], never)], axis=1)
    form = np.argmin(sizes, axis=1)  # the first shortest, as compress_mask
    raw_keep = np.arange(big.shape[1]) >= (big.shape[1] - raw_bytes)[:, None]
    return _interleave([
        _leb128(_int_digits(sizes[np.arange(len(big)), form])),
        (form.astype(np.uint8), np.ones(len(big), dtype=np.int64)),
        _select((big[raw_keep], raw_bytes), form == _RAW),
        _select(gaps, form == _GAPS),
        _select(cgaps, form == _CGAPS),
    ])


def _encode_key_chunk(rows: np.ndarray, deltas: np.ndarray,
                      leaf_bits: int) -> bytes:
    """The key records of consecutive numeric-order rows; ``deltas`` are
    each row minus the key before it, one word wider."""
    delta = _leb128(_word_digits(deltas))
    big = np.ascontiguousarray(rows, dtype=">u8").view(np.uint8)
    ones = _BYTE_ONES[big].sum(axis=1, dtype=np.int64)
    top = np.argmax(big != 0, axis=1)  # the first nonzero big-endian byte
    raw_bytes = np.where(ones > 0, big.shape[1] - top, 1)
    bit_length = np.where(ones > 0, 8 * raw_bytes - 8
                          + _BYTE_BITS[big[np.arange(len(big)), top]], 0)
    # Gap compression is leaf-set-relative; a mask above the declared
    # taxon count (wider table than namespace) takes the delta arm.  A
    # framed blob is a length byte plus a tag plus at least the raw
    # bytes, one gap byte per set bit, or one per clear leaf bit; a
    # delta no longer than that needs no blob built.
    bound = 2 + np.minimum(raw_bytes, np.minimum(ones, leaf_bits - ones))
    cand = np.flatnonzero((bit_length <= leaf_bits) & (delta[1] > bound))
    framed = _framed_blobs(big[cand], raw_bytes[cand], leaf_bits)
    wins = delta[1][cand] > framed[1]  # a tie keeps the delta
    compressed = np.zeros(len(rows), dtype=bool)
    compressed[cand[wins]] = True
    framed_bytes, framed_lengths = _select(framed, wins)
    lengths = np.zeros(len(rows), dtype=np.int64)
    lengths[cand] = framed_lengths
    out, _ = _interleave([
        (compressed.astype(np.uint8), np.ones(len(rows), dtype=np.int64)),
        _select(delta, ~compressed),
        (framed_bytes, lengths),
    ])
    return out.tobytes()


def _succinct_encode_keys(rows: np.ndarray, n_taxa: int) -> bytes:
    """The key section of numeric-order rows (a ``_DELTA`` or
    ``_COMPRESSED`` tag per key, then its varint or framed blob)."""
    n_keys, n_words = rows.shape
    leaf_bits = max(1, n_taxa)
    step = max(1, _CHUNK_WORDS // (n_words + 1))
    # Deltas get one spare top word: the first key's delta is mask + 1
    # (the key before the first is -1), which overflows n_words when
    # the mask is all ones.
    before = np.full((1, n_words + 1), np.iinfo(np.uint64).max,
                     dtype=np.uint64)
    parts = []
    for i in range(0, n_keys, step):
        chunk = rows[i:i + step]
        wide = np.zeros((len(chunk), n_words + 1), dtype=np.uint64)
        wide[:, 1:] = chunk
        deltas = _subtract(wide, np.concatenate((before, wide[:-1])))
        parts.append(_encode_key_chunk(chunk, deltas, leaf_bits))
        before = wide[-1:]
    return b"".join(parts)


# Decoding works on a whole section at once.  Every tag byte (0 or 1) and
# every varint's last byte lacks the continuation bit, so each record
# starts at one of those bytes, and its varint ends at the next one.
# The record that would start at each such byte is measured for all of
# them together; following those links from byte 0 (pointer doubling)
# finds the real starts.  Delta digits, RAW bytes and gap bits then sum
# into 32-bit limbs per key, and a cumulative sum restarted at each
# compressed (absolute) key turns the deltas into keys.
_LIMB = 32
_LIMB_MASK = (1 << _LIMB) - 1


def _varint_values(data: np.ndarray, begins: np.ndarray, lengths: np.ndarray,
                   digits: int) -> tuple[np.ndarray, np.ndarray]:
    """The varints of ``lengths`` bytes at ``begins`` from their first
    ``digits`` (at most 9) base-128 digits, and which of them have a
    nonzero digit after those, so are at least ``2**(7 * digits)``.
    One pass per byte of the longest varint."""
    values = np.zeros(len(begins), dtype=np.int64)
    big = np.zeros(len(begins), dtype=bool)
    for j in range(int(lengths.max(initial=0))):
        present = lengths > j
        digit = np.where(present, data[np.where(present, begins + j, 0)]
                         & 0x7F, 0)
        if j < digits:
            values |= digit.astype(np.int64) << (7 * j)
        else:
            big |= digit != 0
    return values, big


def _ranges(begins: np.ndarray, lengths: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every byte of back-to-back ranges: its range, its offset in the
    range, and its position."""
    which = np.repeat(np.arange(len(begins)), lengths)
    offset = np.arange(len(which)) - np.repeat(np.cumsum(lengths) - lengths,
                                               lengths)
    return which, offset, begins[which] + offset


def _carry(limbs: np.ndarray) -> None:
    """Normalize columns of signed limb sums (one limb per row, least
    significant first) in place: every limb but the top one into
    ``[0, 2**32)``."""
    for limb in range(len(limbs) - 1):
        limbs[limb + 1] += limbs[limb] >> _LIMB
        limbs[limb] &= _LIMB_MASK


def _record_starts(data: np.ndarray, entries: int, n_bits: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each of ``entries`` key records starts, its varint's length
    and where the record ends.  A record is a tag byte and a varint: the
    delta, or the length of the compressed blob that follows it."""
    size = len(data)
    if data[0] >= 0x80:
        raise StoreCorruptError(
            f"succinct key section has unknown tag {int(data[0]):#x}")
    # The longest valid varint is the first key's delta, mask + 1, which
    # is at most 2**n_bits: n_bits + 1 bits in 7-bit groups.
    max_varint = n_bits // 7 + 1
    at = np.flatnonzero(data < 0x80)  # the bytes a record can start at
    tag = data[at]
    # Just past each record's varint, which ends at the next such byte
    # (past the end of the data when there is none).
    after = np.append(at[1:], size) + 1
    var_len = after - at - 1
    bad = (tag > _COMPRESSED) | (after > size) | (var_len > max_varint)
    comp = np.flatnonzero((tag == _COMPRESSED) & ~bad)
    # Any blob length above the section's size is truncated, however
    # many digits it has.
    blob_len, huge = _varint_values(data, at[comp] + 1, var_len[comp],
                                    max(1, -(-size.bit_length() // 7)))
    after[comp] += blob_len
    bad[comp] |= huge | (after[comp] > size)
    # The next record starts where this one ends, at a byte that can
    # start one: two on after a delta, found after a blob.  Any other
    # successor ends the chain.
    follow = np.arange(2, len(at) + 2)
    chain = np.zeros(len(at), dtype=bool)
    chain[:-2] = at[2:] == after[:-2]
    follow[comp] = np.searchsorted(at, after[comp])
    chain[comp] = np.append(at, -1)[follow[comp]] == after[comp]
    jump = np.append(np.where(chain & ~bad, follow, len(at)), len(at))
    starts = np.zeros(1, dtype=np.int64)
    while len(starts) < entries:
        starts = np.concatenate((starts, jump[starts]))
        if len(starts) < entries:
            jump = jump[jump]
    starts = starts[:entries]
    ended = starts == len(at)
    last = starts[np.argmax(ended) - 1] if ended.any() else starts[-1]
    if bad[last]:
        if tag[last] > _COMPRESSED:
            raise StoreCorruptError(
                f"succinct key section has unknown tag {int(tag[last]):#x}")
        if var_len[last] > max_varint and after[last] <= size:
            raise StoreCorruptError(
                "succinct key section is malformed (varint longer than "
                f"{max_varint} bytes)")
        raise StoreCorruptError("succinct key section is truncated")
    if ended.any():
        if after[last] >= size:
            raise StoreCorruptError("succinct key section is truncated")
        raise StoreCorruptError("succinct key section has unknown tag "
                                f"{int(data[after[last]]):#x}")
    if after[last] != size:
        raise StoreCorruptError(
            f"succinct key section has {size - after[last]} trailing bytes")
    return at[starts], var_len[starts], after[starts]


def _gap_bits(data: np.ndarray, begins: np.ndarray, lengths: np.ndarray,
              n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The set bits of GAPS payloads as ``(payload, position)`` pairs.
    Each gap is bounded before it becomes a position, so a corrupt gap
    costs no memory."""
    if not lengths.any():
        return begins[:0], begins[:0]
    if (data[(begins + lengths - 1)[lengths > 0]] >= 0x80).any():
        raise StoreCorruptError(
            "succinct key section is malformed (truncated varint in "
            "compressed mask)")
    which, _, where = _ranges(begins, lengths)
    byte = data[where]
    last = byte < 0x80
    # Every payload ends a varint, so no varint spans two payloads.
    varint = np.cumsum(last) - last
    first_byte = np.flatnonzero(np.r_[True, last[:-1]])
    digit = np.arange(len(where)) - first_byte[varint]
    # Every valid gap is below 2**35, more than any table's width.
    if ((digit >= 5) & ((byte & 0x7F) != 0)).any():
        raise StoreCorruptError(
            f"succinct key has a set bit beyond its {n_bits} bits")
    low = digit < 5
    gaps = np.bincount(
        varint[low], minlength=int(last.sum()),
        weights=((byte[low] & 0x7F).astype(np.int64)
                 << (7 * digit[low])).astype(np.float64)).astype(np.int64)
    owner = which[last]
    first = np.r_[True, owner[1:] != owner[:-1]]
    step = np.minimum(gaps, n_bits + 1)
    total = np.cumsum(step)
    bit = total - (total - step)[first][np.cumsum(first) - 1] - 1
    if (bit < 0).any() or (bit >= n_bits).any():
        raise StoreCorruptError(
            f"succinct key has a set bit outside its {n_bits} bits")
    keep = gaps > 0  # a zero gap sets its bit again
    return owner[keep], bit[keep]


def _succinct_decode_keys(blob: bytes, entries: int,
                          n_taxa: int) -> np.ndarray:
    """The key rows, in numeric order, of a succinct-v1 key section."""
    n_words = words_for_taxa(n_taxa)
    n_bits = _WORD_BITS * n_words
    data = np.frombuffer(blob, dtype=np.uint8)
    if not entries:
        if len(data):
            raise StoreCorruptError(
                f"succinct key section has {len(data)} trailing bytes")
        return np.zeros((0, n_words), dtype=np.uint64)
    if 2 * entries > len(data):  # every record takes two bytes or more
        raise StoreCorruptError("succinct key section is truncated")
    starts, var_len, ends = _record_starts(data, entries, n_bits)
    delta = data[starts] == _DELTA
    # Limbs, least significant first, each a row over the keys; one spare
    # limb catches what overflows the table's width.
    n_limbs = 2 * n_words + 1
    # Delta digits through a window of the widest varint, one row per
    # digit place.
    width = int(var_len[delta].max(initial=0))
    window = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((data, np.zeros(width, dtype=np.uint8))), width)
    digits = np.ascontiguousarray((window[starts[delta] + 1] & 0x7F).T)
    lengths = var_len[delta]
    deltas = np.zeros((n_limbs, len(lengths)), dtype=np.int64)
    for place, digit in enumerate(digits):
        deltas[7 * place >> 5] += np.where(
            lengths > place, digit, 0).astype(np.int64) << (7 * place & 31)
    _carry(deltas)
    steps = np.zeros((n_limbs, entries), dtype=np.int64)
    steps[:, delta] = deltas
    comp = np.flatnonzero(~delta)
    absolute = _compressed_keys(data, starts[comp] + 1 + var_len[comp],
                                ends[comp], n_taxa, n_limbs)
    # Key i is its last compressed key plus the deltas since; the key
    # before the first is -1.  In place, a limb at a time: the arrays
    # here are the decoder's largest.
    out = np.cumsum(steps, axis=1, out=steps)
    base = np.zeros((n_limbs, len(comp) + 1), dtype=np.int64)
    base[0, 0] = -1
    base[:, 1:] = absolute - out[:, comp]
    segments = np.diff(comp, prepend=0, append=entries)
    for limb, offsets in zip(out, base):
        limb += np.repeat(offsets, segments)
    _carry(out)
    spill = out[2 * n_words]
    if (spill < 0).any():
        raise StoreCorruptError("succinct keys are not strictly ascending")
    if spill.any():
        raise StoreCorruptError(
            f"succinct key is wider than the table's {n_bits} bits")
    limbs = out[:2 * n_words].view(np.uint64)
    words = limbs[0::2] | (limbs[1::2] << np.uint64(_LIMB))
    return np.ascontiguousarray(words[::-1].T)


def _compressed_keys(data: np.ndarray, blob_at: np.ndarray,
                     blob_end: np.ndarray, n_taxa: int,
                     n_limbs: int) -> np.ndarray:
    """The keys of compressed records, as limb rows, from their blobs at
    ``blob_at:blob_end``."""
    n_bits = _WORD_BITS * words_for_taxa(n_taxa)
    blob_len = blob_end - blob_at
    if (blob_len == 0).any():
        raise StoreCorruptError(
            "succinct key section is malformed (empty compressed mask)")
    form = data[blob_at]
    if (form > _CGAPS).any():
        raise StoreCorruptError(
            "succinct key section is malformed (unknown compression tag "
            f"{int(form.max()):#x})")
    raw = np.flatnonzero(form == _RAW)
    key, offset, where = _ranges(blob_at[raw] + 1, blob_len[raw] - 1)
    bit = 8 * (blob_len[raw][key] - 2 - offset)
    wide = bit >= n_bits
    if data[where[wide]].any():
        raise StoreCorruptError(
            f"succinct key is wider than the table's {n_bits} bits")
    gapped = np.flatnonzero(form != _RAW)
    gap_key, gap_bit = _gap_bits(data, blob_at[gapped] + 1,
                                 blob_len[gapped] - 1, n_bits)
    keys = np.concatenate((raw[key[~wide]], gapped[gap_key]))
    bits = np.concatenate((bit[~wide], gap_bit))
    values = np.concatenate((data[where[~wide]].astype(np.int64),
                             np.ones(len(gap_key), dtype=np.int64)))
    # Each key is the sum of its terms value * 2**bit: RAW bytes and gap
    # bits, every sum below 2**40, exact in bincount's float weights.
    limbs = np.bincount(
        (bits >> 5) * len(form) + keys, minlength=n_limbs * len(form),
        weights=(values << (bits & 31)).astype(np.float64)
    ).astype(np.int64).reshape(n_limbs, len(form))
    _carry(limbs)
    leaf = (1 << max(1, n_taxa)) - 1
    cgaps = form == _CGAPS
    for limb in range(n_limbs):
        limbs[limb, cgaps] ^= (leaf >> (_LIMB * limb)) & _LIMB_MASK
    return limbs


def _succinct_encode_counts(freqs: np.ndarray) -> bytes:
    """Run-length ``(varint value, varint run)`` pairs."""
    if not len(freqs):
        return b""
    starts = np.flatnonzero(np.diff(freqs)) + 1
    runs = np.diff(starts, prepend=0, append=len(freqs))
    values = freqs[np.concatenate(([0], starts))]
    out, _ = _interleave([_leb128(_int_digits(values)),
                          _leb128(_int_digits(runs))])
    return out.tobytes()


# A count is a positive int64, at most ten 7-bit digits; bounding the
# varints keeps a corrupt section's decode linear.
_COUNT_VARINT = 10


def _succinct_decode_counts(blob: bytes, entries: int) -> np.ndarray:
    """The counts, in key order, of a succinct-v1 count section."""
    data = np.frombuffer(blob, dtype=np.uint8)
    ends = np.flatnonzero(data < 0x80)
    begins = np.r_[0, ends + 1][:len(ends)]
    values, big = _varint_values(
        data, begins, np.minimum(ends + 1 - begins, _COUNT_VARINT + 1), 9)
    pairs = len(values) // 2
    counts, runs = values[:2 * pairs:2], values[1:2 * pairs:2]
    # The pairs up to the one that fills the table; what follows is
    # trailing.  A run too long to read counts as overfilling.
    filled = np.cumsum(np.where(big[1:2 * pairs:2], entries + 1,
                                np.minimum(runs, entries + 1)))
    used = int(np.searchsorted(filled, entries)) + 1 if entries else 0
    if used > pairs:
        raise StoreCorruptError("succinct count section is truncated")
    if used:
        if (ends[:2 * used] + 1 - begins[:2 * used]).max() > _COUNT_VARINT:
            raise StoreCorruptError(
                "succinct count section is malformed (varint longer than "
                f"{_COUNT_VARINT} bytes)")
        if big[:2 * used].any():
            raise StoreCorruptError("succinct count does not fit int64")
        if (counts[:used] <= 0).any() or (runs[:used] <= 0).any() \
                or filled[used - 1] > entries:
            raise StoreCorruptError(
                "succinct count section has an invalid run")
    consumed = int(ends[2 * used - 1]) + 1 if used else 0
    if consumed != len(data):
        raise StoreCorruptError(
            f"succinct count section has {len(data) - consumed} trailing "
            "bytes")
    return np.repeat(counts[:used], runs[:used])


def _succinct_encode(keys: np.ndarray, counts: np.ndarray,
                     n_taxa: int) -> tuple[bytes, bytes]:
    return (_succinct_encode_keys(keys, n_taxa),
            _succinct_encode_counts(counts))


def _succinct_decode(key_bytes: bytes, count_bytes: bytes, *, n_taxa: int,
                     entries: int) -> tuple[np.ndarray, np.ndarray]:
    return (_succinct_decode_keys(key_bytes, entries, n_taxa),
            _succinct_decode_counts(count_bytes, entries))


def _succinct_estimate(table: BipartitionTable) -> int:
    keys, counts, _ = table.numeric_rows()
    return sum(map(len, _succinct_encode(keys, counts, table.n_taxa)))


register_codec(
    "raw-u64", tag=1,
    encoder=_raw_encode, decoder=_raw_decode, estimator=_raw_estimate,
    summary="fixed-width little-endian 64-bit-word keys and u64 counts "
            "(the v1 snapshot sections, bit-for-bit)")
register_codec(
    "succinct-v1", tag=2,
    encoder=_succinct_encode, decoder=_succinct_decode,
    estimator=_succinct_estimate,
    summary="shortest-of delta-varint / reversible-gap keys with "
            "run-length count blocks")
