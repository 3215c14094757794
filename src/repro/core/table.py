"""The canonical bipartition table and its pluggable codecs.

The paper's central data structure — a frequency hash over bipartition
bitmasks — used to be materialized four separate times: as a dict
(:mod:`repro.hashing.bfh`), as sorted NumPy arrays
(:mod:`repro.core.vectorized`), as flat shared-memory arrays
(:mod:`repro.runtime.shm`), and as a hand-packed on-disk layout
(:mod:`repro.store.format`).  :class:`BipartitionTable` is the one core
those layers now share: sorted keys + counts (+ optional branch-length
multisets) with ``n_taxa``/``n_words``/``n_trees`` metadata.  The
vectorized backend probes a table's arrays zero-copy, a
:class:`~repro.runtime.shm.SharedBFH` is a table laid out in one
segment, and a store snapshot is a table run through a *codec*.

Two orders, one table
---------------------
Keys live in two total orders:

* **numeric order** — masks ascending as integers.  This is the on-disk
  order (delta compression needs it) and the order
  :meth:`BipartitionTable.sorted_masks` yields.
* **probe order** — rows sorted under the NumPy void-byte comparison the
  vectorized backend's ``searchsorted`` uses.  ``keys``/``counts`` are
  stored in this order so probes adopt them without re-sorting.

``from_counts`` converts numeric → probe once at construction; codecs
convert probe → numeric once at encode.  Exactness is unaffected: both
are total orders over the same multiset.

Codecs
------
A codec turns a table into three byte sections (keys, counts, weights)
and back, registered with capability flags exactly like the method
registry in :mod:`repro.runtime.registry`:

* ``raw-u64`` — today's layout, bit-for-bit: packed little-endian
  64-bit-word keys, ``u64`` counts, ``f64`` weight runs.
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
  the saving lies.  Counts are run-length blocks.  Registered with
  ``default_write=True``, so it is the promoted snapshot write format —
  the same last-registered promotion rule the method registry uses for
  ``fast_path``.

Every codec decode is exact: the decoded table equals the encoded one
key-for-key and count-for-count (the ``codec-roundtrip`` selfcheck
oracle and the seeded property tests in
``tests/store/test_table_codecs.py`` enforce this across the 64/128-bit
word boundaries, splitless references, and weighted multisets).
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.bipartitions.encoding import pack_key, unpack_key, words_for_taxa
from repro.util.errors import BipartitionError, StoreCorruptError

__all__ = [
    "BipartitionTable", "TableSections",
    "masks_to_words", "words_to_masks", "probe_order",
    "CodecSpec", "register_codec", "get_codec", "codec_by_tag",
    "codec_names", "codecs", "default_codec_name",
    "compress_mask", "decompress_mask",
]

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


# ---------------------------------------------------------------------------
# Word packing (array form). The byte form lives in bipartitions.encoding.
# ---------------------------------------------------------------------------

def masks_to_words(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Pack arbitrary-precision masks into an ``(m, n_words)`` uint64 array.

    Word 0 is the *most significant*, so lexicographic order of rows
    equals numeric order of masks.
    """
    out = np.empty((len(masks), n_words), dtype=np.uint64)
    for row, mask in enumerate(masks):
        if mask < 0 or mask >> (_WORD_BITS * n_words):
            # Refuse to truncate: a dropped high word would make distinct
            # splits collide silently — the worst failure class here.
            raise ValueError(
                f"mask {mask:#x} does not fit in {n_words} words")
        for col in range(n_words):
            shift = _WORD_BITS * (n_words - 1 - col)
            out[row, col] = (mask >> shift) & _WORD_MASK
    return out


def words_to_masks(keys: np.ndarray) -> list[int]:
    """Inverse of :func:`masks_to_words`: rows back to Python ints."""
    n_words = keys.shape[1]
    out = []
    for row in keys:
        mask = 0
        for col in range(n_words):
            mask = (mask << _WORD_BITS) | int(row[col])
        out.append(mask)
    return out


def probe_order(keys: np.ndarray) -> np.ndarray:
    """Argsort of rows under the probe (void-byte) comparison.

    Void scalars compare as raw bytes — little-endian within each uint64
    on this platform, which is *not* numeric order.  Probes only need
    the table and the query to share one total order, and this is the
    one ``np.searchsorted`` gets for free.
    """
    void = keys.view(
        np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    return np.argsort(void)


class BipartitionTable:
    """Sorted bipartition keys + counts (+ weights) with metadata.

    ``keys`` is ``(U, n_words)`` uint64 in probe order; ``counts`` is
    ``(U,)`` int64 aligned with it.  ``weights`` — present only for
    weighted tables — maps each mask to its sorted branch-length
    multiset (the store's exact-removal representation).

    Construct with :meth:`from_counts` / :meth:`from_bfh` (sorts once)
    or directly with arrays already in probe order (zero-copy adoption —
    the shared-memory path).
    """

    __slots__ = ("keys", "counts", "weights", "n_taxa", "n_words",
                 "n_trees", "total", "include_trivial")

    def __init__(self, keys: np.ndarray, counts: np.ndarray, *, n_taxa: int,
                 n_trees: int, total: int, include_trivial: bool = False,
                 weights: dict[int, list[float]] | None = None):
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
        self.keys = keys
        self.counts = counts
        self.weights = weights
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
        """Build from a frequency dict (one numeric sort + one probe sort)."""
        masks = sorted(counts)
        keys = masks_to_words(masks, words_for_taxa(n_taxa))
        freqs = np.array([counts[m] for m in masks], dtype=np.int64)
        if len(masks):
            order = probe_order(keys)
            keys = np.ascontiguousarray(keys[order])
            freqs = np.ascontiguousarray(freqs[order])
        if weights is not None:
            weights = {mask: sorted(lengths)
                       for mask, lengths in weights.items()}
        return cls(keys, freqs, n_taxa=n_taxa, n_trees=n_trees,
                   total=sum(counts.values()) if total is None else total,
                   include_trivial=include_trivial, weights=weights)

    @classmethod
    def from_rows(cls, rows: np.ndarray, *, n_taxa: int, n_trees: int,
                  include_trivial: bool = False) -> "BipartitionTable":
        """Count packed split rows, one row per (tree, split) occurrence.

        Sorting the rows as void scalars puts the distinct keys straight
        into probe order, so no frequency dict is built.
        """
        n_words = words_for_taxa(n_taxa)
        void = np.ascontiguousarray(rows, dtype=np.uint64).view(
            np.dtype((np.void, 8 * n_words))).ravel()
        keys, counts = np.unique(void, return_counts=True)
        return cls(np.ascontiguousarray(keys).view(np.uint64).reshape(-1, n_words),
                   counts.astype(np.int64), n_taxa=n_taxa, n_trees=n_trees,
                   total=len(rows), include_trivial=include_trivial)

    @classmethod
    def from_bfh(cls, bfh, n_taxa: int) -> "BipartitionTable":
        """Wrap a dict-backed :class:`BipartitionFrequencyHash`."""
        return cls.from_counts(bfh.counts, n_taxa=n_taxa,
                               n_trees=bfh.n_trees, total=bfh.total,
                               include_trivial=bfh.include_trivial)

    # -- views ----------------------------------------------------------------

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def __len__(self) -> int:
        return len(self.counts)

    def masks(self) -> list[int]:
        """Masks as Python ints in row (probe) order."""
        return words_to_masks(self.keys)

    def sorted_masks(self) -> list[int]:
        """Masks ascending numerically — the codec/on-disk order."""
        return sorted(self.masks())

    def sorted_items(self) -> Iterator[tuple[int, int]]:
        """``(mask, count)`` pairs in ascending numeric mask order."""
        counts = self.to_counts()
        for mask in sorted(counts):
            yield mask, counts[mask]

    def to_counts(self) -> dict[int, int]:
        """The frequency dict (the store's in-memory overlay form)."""
        return {mask: int(freq)
                for mask, freq in zip(self.masks(), self.counts)}

    def to_bfh(self):
        """Materialize as a dict-backed hash (verification aid)."""
        from repro.hashing.bfh import BipartitionFrequencyHash

        return BipartitionFrequencyHash.from_counts(
            self.to_counts(), self.n_trees, total=self.total,
            include_trivial=self.include_trivial)

    def vectorized(self, *, transform=None):
        """A :class:`~repro.core.vectorized.VectorizedBFH` probing this
        table's arrays zero-copy (no re-sort, no copy)."""
        from repro.core.vectorized import VectorizedBFH

        return VectorizedBFH.from_table(self, transform=transform)

    def same_contents(self, other: "BipartitionTable") -> bool:
        """Exact content equality (metadata + keys + counts + weights)."""
        return (self.n_taxa == other.n_taxa
                and self.n_words == other.n_words
                and self.n_trees == other.n_trees
                and self.total == other.total
                and self.include_trivial == other.include_trivial
                and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.counts, other.counts)
                and self.weights == other.weights)

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
    """One registered table codec and what it can do.

    Attributes
    ----------
    name:
        The string users and the CLI pass (``--snapshot-format``).
    tag:
        The ``u16`` codec identifier written into v2 snapshot headers.
        Tags are forever: a reader maps tag → codec for any snapshot it
        will ever meet, so a registered tag must never be reused.
    encoder / decoder:
        ``encoder(table) -> TableSections`` and
        ``decoder(sections, *, n_taxa, entries, weighted,
        include_trivial, n_trees, total) -> BipartitionTable``.
        Decoding malformed bytes raises
        :class:`~repro.util.errors.StoreCorruptError` — loud, never a
        silently wrong table.
    estimator:
        ``estimator(table) -> int`` projected encoded byte size, without
        writing anything (``store info`` shows the compression win
        before a migrate).
    supports_weighted:
        Whether the codec can carry branch-length multisets.
    default_write:
        Promotion flag: the most recently registered codec with
        ``default_write=True`` is what new snapshots are written with
        (same rule as the method registry's ``fast_path``).
    """

    name: str
    tag: int
    encoder: Callable[[BipartitionTable], TableSections]
    decoder: Callable[..., BipartitionTable]
    estimator: Callable[[BipartitionTable], int]
    summary: str
    supports_weighted: bool = True
    default_write: bool = False

    def encode(self, table: BipartitionTable) -> TableSections:
        if table.weighted and not self.supports_weighted:
            raise ValueError(
                f"codec {self.name!r} does not support weighted tables")
        return self.encoder(table)

    def decode(self, sections: TableSections, **meta) -> BipartitionTable:
        return self.decoder(sections, **meta)

    def estimated_bytes(self, table: BipartitionTable) -> int:
        return self.estimator(table)


_REGISTRY: dict[str, CodecSpec] = {}


def register_codec(name: str, *, tag: int, encoder, decoder, estimator,
                   summary: str, supports_weighted: bool = True,
                   default_write: bool = False) -> CodecSpec:
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
                     estimator=estimator, summary=summary,
                     supports_weighted=supports_weighted,
                     default_write=default_write)
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
    """The codec new snapshots are written with (last default_write wins)."""
    chosen = "raw-u64"
    for spec in _REGISTRY.values():
        if spec.default_write:
            chosen = spec.name
    return chosen


# ---------------------------------------------------------------------------
# Shared section helpers.
# ---------------------------------------------------------------------------

def _encode_weight_runs(table: BipartitionTable) -> bytes:
    """Per-key sorted f64 branch-length runs, ascending key order.

    Identical bytes in both codecs (floats must round-trip exactly, so
    there is nothing lossless-and-simple to squeeze out of them); the
    keys/counts sections are where the codecs differ.
    """
    if table.weights is None:
        return b""
    parts = []
    for mask, count in table.sorted_items():
        run = sorted(table.weights.get(mask, ()))
        if len(run) != count:
            raise StoreCorruptError(
                f"split {mask:#x}: {len(run)} weights for frequency {count}")
        parts.append(struct.pack(f"<{len(run)}d", *run))
    return b"".join(parts)


def _decode_weight_runs(blob: bytes, masks: list[int],
                        freqs: list[int]) -> dict[int, list[float]]:
    weights: dict[int, list[float]] = {}
    offset = 0
    for mask, freq in zip(masks, freqs):
        end = offset + freq * 8
        if end > len(blob):
            raise StoreCorruptError("weight section is truncated")
        weights[mask] = list(struct.unpack_from(f"<{freq}d", blob, offset))
        offset = end
    if offset != len(blob):
        raise StoreCorruptError(
            f"weight section has {len(blob) - offset} trailing bytes")
    return weights


def _check_ascending(masks: list[int]) -> None:
    if any(b <= a for a, b in zip(masks, masks[1:])):
        raise StoreCorruptError("snapshot keys are not strictly ascending")


def _build_decoded(masks: list[int], freqs: list[int],
                   weights_blob: bytes, *, n_taxa: int, weighted: bool,
                   include_trivial: bool, n_trees: int,
                   total: int | None) -> BipartitionTable:
    _check_ascending(masks)
    weights = None
    if weighted:
        weights = _decode_weight_runs(weights_blob, masks, freqs)
    elif weights_blob:
        raise StoreCorruptError(
            "unweighted snapshot carries a weight section")
    counts = dict(zip(masks, freqs))
    return BipartitionTable.from_counts(
        counts, n_taxa=n_taxa, n_trees=n_trees, total=total,
        include_trivial=include_trivial, weights=weights)


# ---------------------------------------------------------------------------
# raw-u64: today's layout, bit-for-bit.
# ---------------------------------------------------------------------------

def _raw_encode(table: BipartitionTable) -> TableSections:
    n_words = table.n_words
    items = list(table.sorted_items())
    keys = b"".join(pack_key(mask, n_words) for mask, _ in items)
    counts = struct.pack(f"<{len(items)}Q", *(c for _, c in items))
    return TableSections(keys=keys, counts=counts,
                         weights=_encode_weight_runs(table))


def _raw_decode(sections: TableSections, *, n_taxa: int, entries: int,
                weighted: bool, include_trivial: bool, n_trees: int = 0,
                total: int | None = None) -> BipartitionTable:
    key_bytes = words_for_taxa(n_taxa) * 8
    if len(sections.keys) != entries * key_bytes:
        raise StoreCorruptError(
            f"raw-u64 key section is {len(sections.keys)} bytes, expected "
            f"{entries * key_bytes}")
    if len(sections.counts) != entries * 8:
        raise StoreCorruptError(
            f"raw-u64 count section is {len(sections.counts)} bytes, "
            f"expected {entries * 8}")
    masks = [unpack_key(sections.keys[i * key_bytes:(i + 1) * key_bytes])
             for i in range(entries)]
    freqs = list(struct.unpack(f"<{entries}Q", sections.counts))
    return _build_decoded(masks, freqs, sections.weights, n_taxa=n_taxa,
                          weighted=weighted, include_trivial=include_trivial,
                          n_trees=n_trees, total=total)


def _raw_estimate(table: BipartitionTable) -> int:
    size = len(table) * (table.n_words * 8 + 8)
    if table.weighted:
        size += 8 * int(table.counts.sum())
    return size


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


def _decode_gaps(data: bytes) -> int:
    mask = 0
    pos = -1
    offset = 1
    while offset < len(data):
        gap, offset = _decode_varint(data, offset)
        pos += gap
        mask |= 1 << pos
    return mask


def decompress_mask(data: bytes, leaf_mask: int | None = None) -> int:
    """Exact inverse of :func:`compress_mask` (same ``leaf_mask``)."""
    if not data:
        raise BipartitionError("empty compressed mask")
    tag = data[0]
    if tag == _RAW:
        return int.from_bytes(data[1:], "big")
    if tag == _GAPS:
        return _decode_gaps(data)
    if tag == _CGAPS:
        if leaf_mask is None:
            raise BipartitionError(
                "complement-coded mask needs the leaf_mask it was encoded with")
        return _decode_gaps(data) ^ leaf_mask
    raise BipartitionError(f"unknown compression tag {tag:#x}")


_DELTA = 0x00      # varint(mask - prev_mask) follows
_COMPRESSED = 0x01  # varint(length) + compress_mask blob follows


def _succinct_encode_keys(masks: list[int], n_taxa: int) -> bytes:
    leaf_mask = (1 << max(1, n_taxa)) - 1
    out = bytearray()
    prev = -1
    for mask in masks:
        delta = bytearray()
        _encode_varint(mask - prev, delta)
        framed = None
        if 0 <= mask <= leaf_mask:
            # Gap compression is leaf-set-relative; a mask above the
            # declared taxon count (wider table than namespace) still
            # encodes exactly via the delta arm.
            blob = compress_mask(mask, leaf_mask)
            framed = bytearray()
            _encode_varint(len(blob), framed)
            framed.extend(blob)
        if framed is None or len(delta) <= len(framed):
            out.append(_DELTA)
            out.extend(delta)
        else:
            out.append(_COMPRESSED)
            out.extend(framed)
        prev = mask
    return bytes(out)


def _succinct_decode_keys(blob: bytes, entries: int,
                          n_taxa: int) -> list[int]:
    leaf_mask = (1 << max(1, n_taxa)) - 1
    masks: list[int] = []
    prev = -1
    offset = 0
    try:
        for _ in range(entries):
            if offset >= len(blob):
                raise StoreCorruptError("succinct key section is truncated")
            tag = blob[offset]
            offset += 1
            if tag == _DELTA:
                delta, offset = _decode_varint(blob, offset)
                mask = prev + delta
            elif tag == _COMPRESSED:
                length, offset = _decode_varint(blob, offset)
                end = offset + length
                if end > len(blob):
                    raise StoreCorruptError(
                        "succinct key section is truncated")
                mask = decompress_mask(blob[offset:end], leaf_mask)
                offset = end
            else:
                raise StoreCorruptError(
                    f"succinct key section has unknown tag {tag:#x}")
            if mask <= prev:
                raise StoreCorruptError(
                    "succinct keys are not strictly ascending")
            masks.append(mask)
            prev = mask
    except BipartitionError as exc:
        raise StoreCorruptError(
            f"succinct key section is malformed ({exc})") from exc
    if offset != len(blob):
        raise StoreCorruptError(
            f"succinct key section has {len(blob) - offset} trailing bytes")
    return masks


def _succinct_encode_counts(freqs: list[int]) -> bytes:
    out = bytearray()
    i = 0
    while i < len(freqs):
        value = freqs[i]
        run = 1
        while i + run < len(freqs) and freqs[i + run] == value:
            run += 1
        _encode_varint(value, out)
        _encode_varint(run, out)
        i += run
    return bytes(out)


def _succinct_decode_counts(blob: bytes, entries: int) -> list[int]:
    freqs: list[int] = []
    offset = 0
    try:
        while len(freqs) < entries:
            if offset >= len(blob):
                raise StoreCorruptError(
                    "succinct count section is truncated")
            value, offset = _decode_varint(blob, offset)
            run, offset = _decode_varint(blob, offset)
            if value <= 0 or run <= 0 or len(freqs) + run > entries:
                raise StoreCorruptError(
                    "succinct count section has an invalid run")
            freqs.extend([value] * run)
    except BipartitionError as exc:
        raise StoreCorruptError(
            f"succinct count section is malformed ({exc})") from exc
    if offset != len(blob):
        raise StoreCorruptError(
            f"succinct count section has {len(blob) - offset} trailing bytes")
    return freqs


def _succinct_encode(table: BipartitionTable) -> TableSections:
    items = list(table.sorted_items())
    return TableSections(
        keys=_succinct_encode_keys([m for m, _ in items], table.n_taxa),
        counts=_succinct_encode_counts([c for _, c in items]),
        weights=_encode_weight_runs(table))


def _succinct_decode(sections: TableSections, *, n_taxa: int, entries: int,
                     weighted: bool, include_trivial: bool, n_trees: int = 0,
                     total: int | None = None) -> BipartitionTable:
    masks = _succinct_decode_keys(sections.keys, entries, n_taxa)
    freqs = _succinct_decode_counts(sections.counts, entries)
    return _build_decoded(masks, freqs, sections.weights, n_taxa=n_taxa,
                          weighted=weighted, include_trivial=include_trivial,
                          n_trees=n_trees, total=total)


def _succinct_estimate(table: BipartitionTable) -> int:
    sections = _succinct_encode(table)
    return sections.nbytes


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
            "run-length count blocks",
    default_write=True)
