"""The NumPy table decoders against the per-key decoders they replaced.

The per-key decoders are kept here as the oracle, with the bounds the
vectorized decoders added: a GAPS/CGAPS bit position is checked before
it is shifted, a count varint may not run past ten bytes, and a count
must fit int64.  On every input both sides must agree: the same table,
or a :class:`StoreCorruptError` from each.
"""

from __future__ import annotations

import random
import struct
import time

import numpy as np
import pytest

from repro.bipartitions.encoding import unpack_key, words_for_taxa
from repro.core.table import BipartitionTable, TableSections, get_codec
from repro.util.errors import BipartitionError, StoreCorruptError

from tests.store.test_table_codecs import BOUNDARY_TAXA, random_table

_SEED = 20261018


# ---------------------------------------------------------------------------
# The oracle: the previous per-key decoders.
# ---------------------------------------------------------------------------

def _varint(data: bytes, offset: int, max_bytes: int | None = None):
    result = 0
    shift = 0
    stop = len(data) if max_bytes is None else min(len(data),
                                                    offset + max_bytes)
    while True:
        if offset >= stop:
            if offset >= len(data):
                raise BipartitionError("truncated varint")
            raise BipartitionError(f"varint longer than {max_bytes} bytes")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _reference_blob(data: bytes, leaf_mask: int, n_bits: int) -> int:
    """``decompress_mask``, with every gap position bounded first."""
    if not data:
        raise BipartitionError("empty compressed mask")
    tag = data[0]
    if tag == 0x00:
        return int.from_bytes(data[1:], "big")
    if tag not in (0x01, 0x02):
        raise BipartitionError(f"unknown compression tag {tag:#x}")
    mask = 0
    pos = -1
    offset = 1
    while offset < len(data):
        gap, offset = _varint(data, offset)
        pos += gap
        if not 0 <= pos < n_bits:
            raise StoreCorruptError("gap position outside the key")
        mask |= 1 << pos
    return mask ^ leaf_mask if tag == 0x02 else mask


def reference_keys(blob: bytes, entries: int, n_taxa: int) -> list[int]:
    leaf_mask = (1 << max(1, n_taxa)) - 1
    n_bits = 64 * words_for_taxa(n_taxa)
    max_varint = n_bits // 7 + 1
    masks: list[int] = []
    prev = -1
    offset = 0
    try:
        for _ in range(entries):
            if offset >= len(blob):
                raise StoreCorruptError("truncated")
            tag = blob[offset]
            offset += 1
            if tag == 0x00:
                delta, offset = _varint(blob, offset, max_varint)
                mask = prev + delta
            elif tag == 0x01:
                length, offset = _varint(blob, offset, max_varint)
                end = offset + length
                if end > len(blob):
                    raise StoreCorruptError("truncated")
                mask = _reference_blob(blob[offset:end], leaf_mask, n_bits)
                offset = end
            else:
                raise StoreCorruptError("unknown tag")
            if mask >> n_bits:
                raise StoreCorruptError("wider")
            if mask <= prev:
                raise StoreCorruptError("not ascending")
            masks.append(mask)
            prev = mask
    except BipartitionError as exc:
        raise StoreCorruptError(str(exc)) from exc
    if offset != len(blob):
        raise StoreCorruptError("trailing")
    return masks


def reference_counts(blob: bytes, entries: int) -> list[int]:
    freqs: list[int] = []
    offset = 0
    try:
        while len(freqs) < entries:
            if offset >= len(blob):
                raise StoreCorruptError("truncated")
            value, offset = _varint(blob, offset, 10)
            run, offset = _varint(blob, offset, 10)
            if value >> 63:
                raise StoreCorruptError("count does not fit int64")
            if value <= 0 or run <= 0 or len(freqs) + run > entries:
                raise StoreCorruptError("invalid run")
            freqs.extend([value] * run)
    except BipartitionError as exc:
        raise StoreCorruptError(str(exc)) from exc
    if offset != len(blob):
        raise StoreCorruptError("trailing")
    return freqs


def reference_decode(codec: str, sections: TableSections, *, n_taxa: int,
                     entries: int, weighted: bool) -> BipartitionTable:
    if codec == "raw-u64":
        key_bytes = 8 * words_for_taxa(n_taxa)
        if len(sections.keys) != entries * key_bytes or \
                len(sections.counts) != entries * 8:
            raise StoreCorruptError("section length")
        masks = [unpack_key(sections.keys[i * key_bytes:(i + 1) * key_bytes])
                 for i in range(entries)]
        freqs = list(struct.unpack(f"<{entries}Q", sections.counts))
        if any(f >> 63 for f in freqs):
            raise StoreCorruptError("count does not fit int64")
    else:
        masks = reference_keys(sections.keys, entries, n_taxa)
        freqs = reference_counts(sections.counts, entries)
    if any(b <= a for a, b in zip(masks, masks[1:])):
        raise StoreCorruptError("not ascending")
    table = BipartitionTable.from_counts(dict(zip(masks, freqs)),
                                         n_taxa=n_taxa, n_trees=1)
    if not weighted:
        if sections.weights:
            raise StoreCorruptError("weight section")
        return table
    runs = {}
    offset = 0
    for mask, freq in zip(masks, freqs):
        end = offset + freq * 8
        if end > len(sections.weights):
            raise StoreCorruptError("weights truncated")
        runs[mask] = struct.unpack_from(f"<{freq}d", sections.weights, offset)
        offset = end
    if offset != len(sections.weights):
        raise StoreCorruptError("weights trailing")
    # The column: each key's run as written, keys in probe order.
    lengths = np.array([x for mask in table.masks() for x in runs[mask]],
                       dtype=np.float64)
    return BipartitionTable(table.keys, table.counts, n_taxa=n_taxa,
                            n_trees=1, total=table.total, lengths=lengths)


def decode(codec: str, sections: TableSections, *, n_taxa: int,
           entries: int, weighted: bool = False) -> BipartitionTable:
    return get_codec(codec).decode(
        sections, n_taxa=n_taxa, entries=entries, weighted=weighted,
        include_trivial=False, n_trees=1, total=None)


def assert_agrees(codec: str, sections: TableSections, *, n_taxa: int,
                  entries: int, weighted: bool = False) -> bool:
    """Decode both ways; returns whether the input was accepted."""
    try:
        want = reference_decode(codec, sections, n_taxa=n_taxa,
                                entries=entries, weighted=weighted)
    except StoreCorruptError:
        with pytest.raises(StoreCorruptError):
            decode(codec, sections, n_taxa=n_taxa, entries=entries,
                   weighted=weighted)
        return False
    got = decode(codec, sections, n_taxa=n_taxa, entries=entries,
                 weighted=weighted)
    assert got.same_contents(want)
    return True


# ---------------------------------------------------------------------------
# Valid tables.
# ---------------------------------------------------------------------------

def _clade_table(n_taxa: int, seed: int, entries: int) -> BipartitionTable:
    """Small clades and their complements only: every key a blob."""
    rng = random.Random(seed)
    leaf = (1 << n_taxa) - 1
    masks = set()
    while len(masks) < entries:
        clade = 0
        for _ in range(rng.randint(1, 3)):
            clade |= 1 << rng.randrange(n_taxa)
        masks.add(clade if rng.random() < 0.5 else leaf ^ clade)
    masks.discard(0)
    masks.discard(leaf)
    return BipartitionTable.from_counts(
        {m: rng.randint(1, 3) for m in masks}, n_taxa=n_taxa, n_trees=1)


@pytest.mark.parametrize("codec", ["raw-u64", "succinct-v1"])
@pytest.mark.parametrize("n_taxa", BOUNDARY_TAXA + (1, 2, 192, 300))
def test_random_tables_decode_like_the_reference(codec, n_taxa):
    for seed in range(3):
        for weighted in (False, True):
            table = random_table(n_taxa, _SEED + seed, entries=80,
                                 weighted=weighted)
            assert assert_agrees(codec, get_codec(codec).encode(table),
                                 n_taxa=n_taxa, entries=len(table),
                                 weighted=weighted)
        if n_taxa > 8:
            table = _clade_table(n_taxa, seed, 40)
            assert assert_agrees(codec, get_codec(codec).encode(table),
                                 n_taxa=n_taxa, entries=len(table))


@pytest.mark.parametrize("codec", ["raw-u64", "succinct-v1"])
def test_edge_tables_decode_like_the_reference(codec):
    top = (1 << 128) - 1
    for counts, n_taxa in [({}, 8), ({5: 1}, 8), ({0: 3}, 64),
                           ({top: 2}, 128), ({0: 1, top: (1 << 63) - 1}, 128),
                           ({1 << k: k + 1 for k in range(129)}, 129)]:
        table = BipartitionTable.from_counts(counts, n_taxa=n_taxa,
                                             n_trees=1)
        assert assert_agrees(codec, get_codec(codec).encode(table),
                             n_taxa=n_taxa, entries=len(table))


def test_decoded_table_is_in_probe_order():
    table = random_table(129, _SEED, entries=200)
    got = decode("succinct-v1", get_codec("succinct-v1").encode(table),
                 n_taxa=129, entries=len(table))
    assert np.array_equal(got.keys, table.keys)
    assert np.array_equal(got.counts, table.counts)


# ---------------------------------------------------------------------------
# Corrupt sections: the existing cases, then random damage.
# ---------------------------------------------------------------------------

def _base(n_taxa: int = 65, entries: int = 20):
    table = random_table(n_taxa, 20260809, entries=entries)
    return get_codec("succinct-v1").encode(table), len(table)


def test_existing_corrupt_cases_match_the_reference():
    sections, entries = _base()
    keys, counts = sections.keys, sections.counts
    cases = [TableSections(keys[:cut], counts, b"")
             for cut in range(len(keys))]
    cases += [TableSections(keys, counts[:cut], b"")
              for cut in range(len(counts))]
    cases += [TableSections(keys + b"\x00", counts, b""),
              TableSections(keys, counts + b"\x01\x01", b""),
              TableSections(b"\x7f" + keys[1:], counts, b""),
              TableSections(keys, counts, b"\x00" * 8)]
    for case in cases:
        assert not assert_agrees("succinct-v1", case, n_taxa=65,
                                 entries=entries)
    small = [(b"\x00\x05\x00\x00", b"\x01\x02", 2),
             (b"\x00" + bytes([0x81] + [0x80] * 17 + [0x04]), b"\x01\x01", 1),
             (b"\x01\x12\x00\x01" + bytes(16), b"\x01\x01", 1),
             (b"\x00" + b"\x80" * 2_000 + b"\x01", b"\x01\x01", 1),
             (b"\x00\x05", b"\x00\x01", 1),
             (b"\x00\x05", b"\x01\x05", 1)]
    for keys, counts, n in small:
        assert not assert_agrees("succinct-v1", TableSections(keys, counts,
                                                              b""),
                                 n_taxa=65, entries=n)


@pytest.mark.parametrize("n_taxa", [5, 65, 129])
def test_random_damage_matches_the_reference(n_taxa):
    rng = random.Random(n_taxa)
    table = random_table(n_taxa, _SEED, entries=30, weighted=n_taxa == 65)
    weighted = table.weighted
    sections = get_codec("succinct-v1").encode(table)
    accepted = 0
    for _ in range(400):
        parts = [bytearray(sections.keys), bytearray(sections.counts)]
        for _ in range(rng.randint(1, 3)):
            part = parts[rng.random() < 0.3]
            if not part:
                continue
            at = rng.randrange(len(part))
            roll = rng.random()
            if roll < 0.5:
                part[at] ^= 1 << rng.randrange(8)
            elif roll < 0.7:
                part[at] = rng.choice([0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF])
            elif roll < 0.85:
                del part[at]
            else:
                part.insert(at, rng.randrange(256))
        accepted += assert_agrees(
            "succinct-v1", TableSections(bytes(parts[0]), bytes(parts[1]),
                                         sections.weights),
            n_taxa=n_taxa, entries=len(table), weighted=weighted)
    # Some damage still decodes (a changed count, a changed key that stays
    # ascending): the two decoders must then agree on the table.
    assert 0 < accepted < 400


# ---------------------------------------------------------------------------
# The bounds the vectorized decoders added.
# ---------------------------------------------------------------------------

def _varint_bytes(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _one_blob(blob: bytes) -> bytes:
    return b"\x01" + _varint_bytes(len(blob)) + blob


@pytest.mark.parametrize("form", [0x01, 0x02], ids=["GAPS", "CGAPS"])
@pytest.mark.parametrize("gap", [65, 66, 2 ** 26, 2 ** 40, 2 ** 200])
def test_gap_past_the_key_width_is_corrupt(form, gap):
    """A gap beyond the table's width is refused before it becomes a
    bit: a 6-byte gap varint would otherwise ask for a 2**40-bit int."""
    keys = _one_blob(bytes([form]) + _varint_bytes(gap))
    started = time.perf_counter()
    with pytest.raises(StoreCorruptError, match="bit"):
        decode("succinct-v1", TableSections(keys, b"\x01\x01", b""),
               n_taxa=60, entries=1)
    assert time.perf_counter() - started < 2.0
    assert not assert_agrees("succinct-v1",
                             TableSections(keys, b"\x01\x01", b""),
                             n_taxa=60, entries=1)


def test_gaps_up_to_the_key_width_decode():
    keys = _one_blob(b"\x01" + _varint_bytes(3) + _varint_bytes(60))
    table = decode("succinct-v1", TableSections(keys, b"\x01\x01", b""),
                   n_taxa=60, entries=1)
    assert table.masks() == [(1 << 2) | (1 << 62)]


@pytest.mark.parametrize("form", [0x01, 0x02], ids=["GAPS", "CGAPS"])
def test_a_later_zero_gap_sets_its_bit_again(form):
    """``decompress_mask`` ORs each position in, so a zero gap after the
    first repeats a bit rather than adding it twice."""
    # Bits {2, 7}, then a second key above the first: bit 8 as GAPS,
    # all but bit 0 as CGAPS.
    other = 9 if form == 0x01 else 1
    keys = _one_blob(bytes([form, 3, 0, 5, 0, 0])) + \
        _one_blob(bytes([form, other]))
    sections = TableSections(keys, b"\x01\x02", b"")
    assert assert_agrees("succinct-v1", sections, n_taxa=12, entries=2)
    table = decode("succinct-v1", sections, n_taxa=12, entries=2)
    bits = (1 << 2) | (1 << 7)
    assert sorted(table.masks()) == (
        [bits, 1 << 8] if form == 0x01 else [bits ^ 0xFFF, 1 ^ 0xFFF])


@pytest.mark.parametrize("n_taxa", [0, 1, 2])
def test_complement_blobs_of_tiny_tables(n_taxa):
    """A CGAPS blob complements within at least one taxon's bit."""
    for keys in (_one_blob(b"\x02"), _one_blob(b"\x02\x02"),
                 _one_blob(b"\x02\x01")):
        assert_agrees("succinct-v1", TableSections(keys, b"\x01\x01", b""),
                      n_taxa=n_taxa, entries=1)
    table = decode("succinct-v1", TableSections(_one_blob(b"\x02"),
                                                b"\x01\x01", b""),
                   n_taxa=n_taxa, entries=1)
    assert table.masks() == [(1 << max(1, n_taxa)) - 1]


def test_a_blob_cut_short_is_truncated():
    keys = b"\x00\x05" + _one_blob(b"\x00\x10\x00")
    for cut in range(len(keys) - 3, len(keys)):
        with pytest.raises(StoreCorruptError, match="truncated"):
            decode("succinct-v1", TableSections(keys[:cut], b"\x01\x02",
                                                b""), n_taxa=64, entries=2)


def test_first_gap_of_zero_is_corrupt():
    """``decompress_mask`` shifts by -1 here and raises ``ValueError``;
    the store decoder reports a corrupt key."""
    keys = _one_blob(b"\x01\x00")
    with pytest.raises(StoreCorruptError):
        decode("succinct-v1", TableSections(keys, b"\x01\x01", b""),
               n_taxa=60, entries=1)


def test_overlong_count_varint_is_corrupt_and_fast():
    """A 40 kB count varint is refused after ten bytes, not read in
    quadratic time."""
    counts = b"\x81" + b"\x80" * 40_000 + b"\x00\x01"
    started = time.perf_counter()
    with pytest.raises(StoreCorruptError, match="longer than 10 bytes"):
        decode("succinct-v1", TableSections(b"\x00\x05", counts, b""),
               n_taxa=8, entries=1)
    assert time.perf_counter() - started < 2.0


@pytest.mark.parametrize("count", [2 ** 63, 2 ** 64 - 1, 2 ** 69])
def test_count_beyond_int64_is_corrupt_in_succinct(count):
    counts = _varint_bytes(count) + b"\x01"
    with pytest.raises(StoreCorruptError, match="int64"):
        decode("succinct-v1", TableSections(b"\x00\x05", counts, b""),
               n_taxa=8, entries=1)


def test_largest_int64_count_decodes():
    counts = _varint_bytes(2 ** 63 - 1) + b"\x01"
    table = decode("succinct-v1", TableSections(b"\x00\x05", counts, b""),
                   n_taxa=8, entries=1)
    assert table.counts.tolist() == [2 ** 63 - 1]


def test_count_beyond_int64_is_corrupt_in_raw():
    keys = struct.pack("<Q", 5)
    with pytest.raises(StoreCorruptError, match="int64"):
        decode("raw-u64", TableSections(keys, struct.pack("<Q", 2 ** 63),
                                        b""), n_taxa=8, entries=1)
    table = decode("raw-u64", TableSections(
        keys, struct.pack("<Q", 2 ** 63 - 1), b""), n_taxa=8, entries=1)
    assert table.counts.dtype == np.int64
