"""BipartitionTable codecs: seeded round-trip properties, the packing
regression pin, the §IX mask codec, pinned succinct-v1 output bytes,
the vectorized succinct-v1 encoder against its per-key reference,
registry semantics, and loud malformed-input failures.

The exactness bar (ISSUE 9): every codec decode must reproduce the
encoded table key-for-key, count-for-count, and weight-for-weight —
across the 64/128-bit word-width boundaries, splitless/star references,
and weighted multisets — before ``succinct-v1`` is allowed to be the
default write format.
"""

from __future__ import annotations

import hashlib
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bipartitions.encoding import pack_key, unpack_key, words_for_taxa
from repro.core.table import (
    BipartitionTable,
    TableSections,
    codec_by_tag,
    codec_names,
    codecs,
    compress_mask,
    decompress_mask,
    default_codec_name,
    get_codec,
    masks_to_words,
    probe_order,
    register_codec,
    words_to_masks,
)
from repro.util.errors import BipartitionError, StoreCorruptError

from tests.conftest import length_runs

BOUNDARY_TAXA = (5, 63, 64, 65, 127, 128, 129)
_SEED = 20260809


def random_table(n_taxa: int, seed: int, *, entries: int = 60,
                 weighted: bool = False) -> BipartitionTable:
    """A seeded table of distinct masks with skewed counts.

    Mask shapes mix dense random bit patterns with small clades (few set
    bits) so both succinct key encodings — delta varints and the sparse
    gap blobs — get exercised in one table.
    """
    rng = random.Random(seed)
    entries = min(entries, 2 ** n_taxa - 2)  # small-n: fewer masks exist
    masks = set()
    while len(masks) < entries:
        if rng.random() < 0.4:
            mask = 0
            for _ in range(rng.randint(1, 4)):
                mask |= 1 << rng.randrange(n_taxa)
        else:
            mask = rng.getrandbits(n_taxa)
        if 0 < mask < (1 << n_taxa) - 1:
            masks.add(mask)
    # Skew: a long frequency-1 tail plus a few heavy hitters, the shape
    # run-length count blocks are built for.
    counts = {m: (rng.randint(2, 40) if rng.random() < 0.2 else 1)
              for m in masks}
    weights = None
    if weighted:
        weights = {m: sorted(round(rng.uniform(0.01, 3.0), 6)
                             for _ in range(c))
                   for m, c in counts.items()}
    return BipartitionTable.from_counts(
        counts, n_taxa=n_taxa, n_trees=rng.randint(1, 50),
        weights=weights)


class TestPackingRegression:
    """Satellite (a): one canonical packing, pinned byte-for-byte.

    ``pack_key`` used to be re-implemented in ``store/format.py`` and
    the array layout separately in ``core/vectorized.py``; these pins
    make any future drift between the shared helpers loud.
    """

    # Golden bytes: the whole key little-endian (least significant byte
    # first, so the least significant *word* comes first).  These
    # literals must never change — they are the on-disk key layout of
    # every v1 and raw-u64 snapshot.
    GOLDEN = [
        (0x01, 1, "0100000000000000"),
        (0x0102, 1, "0201000000000000"),
        ((1 << 64) - 1, 1, "ffffffffffffffff"),
        (1 << 64, 2, "0000000000000000" "0100000000000000"),
        ((1 << 100) | 0x5, 2, "0500000000000000" "0000000010000000"),
        (1 << 128, 3, "0000000000000000"
                      "0000000000000000" "0100000000000000"),
    ]

    @pytest.mark.parametrize("mask,n_words,hex_bytes", GOLDEN)
    def test_pack_key_bytes_are_pinned(self, mask, n_words, hex_bytes):
        assert pack_key(mask, n_words).hex() == hex_bytes
        assert unpack_key(pack_key(mask, n_words)) == mask

    @pytest.mark.parametrize("n_taxa", BOUNDARY_TAXA)
    def test_array_packing_agrees_with_byte_packing(self, n_taxa):
        """masks_to_words rows hold pack_key's words, MSW-first.

        The byte form is whole-key little-endian (LSW first); the array
        form is MSW-first so lexicographic row order equals numeric
        order.  Same words, opposite word order — reversing a row must
        reproduce pack_key's bytes exactly.
        """
        rng = random.Random(_SEED + n_taxa)
        masks = sorted({rng.getrandbits(n_taxa) | 1 for _ in range(50)})
        n_words = words_for_taxa(n_taxa)
        rows = masks_to_words(masks, n_words)
        for mask, row in zip(masks, rows):
            assert struct.pack(f"<{n_words}Q", *row[::-1]) == \
                pack_key(mask, n_words)
        assert words_to_masks(rows) == masks

    def test_probe_order_is_a_permutation_of_numeric_order(self):
        masks = [1, 1 << 64, 3, (1 << 70) | 5, 2]
        rows = masks_to_words(sorted(masks), 2)
        order = probe_order(rows)
        assert sorted(order.tolist()) == list(range(len(masks)))
        assert sorted(words_to_masks(rows[order])) == sorted(masks)


class TestCodecRoundtrip:
    @pytest.mark.parametrize("codec", ["raw-u64", "succinct-v1"])
    @pytest.mark.parametrize("n_taxa", BOUNDARY_TAXA)
    def test_seeded_tables_roundtrip_exactly(self, codec, n_taxa):
        spec = get_codec(codec)
        for trial in range(3):
            table = random_table(n_taxa, _SEED + 31 * trial + n_taxa)
            sections = spec.encode(table)
            decoded = spec.decode(
                sections, n_taxa=n_taxa, entries=len(table),
                weighted=False, include_trivial=table.include_trivial,
                n_trees=table.n_trees, total=table.total)
            assert decoded.same_contents(table), \
                f"{codec} drifted at n_taxa={n_taxa} trial={trial}"

    @pytest.mark.parametrize("codec", ["raw-u64", "succinct-v1"])
    @pytest.mark.parametrize("n_taxa", [65, 129])
    def test_weighted_multisets_roundtrip_exactly(self, codec, n_taxa):
        spec = get_codec(codec)
        table = random_table(n_taxa, _SEED, weighted=True)
        sections = spec.encode(table)
        decoded = spec.decode(
            sections, n_taxa=n_taxa, entries=len(table), weighted=True,
            include_trivial=False, n_trees=table.n_trees, total=table.total)
        assert decoded.same_contents(table)
        # Floats exact, order kept.
        assert np.array_equal(decoded.lengths, table.lengths)

    @pytest.mark.parametrize("codec", ["raw-u64", "succinct-v1"])
    def test_splitless_star_reference_roundtrips(self, codec):
        """A star tree has no non-trivial splits: the empty table."""
        spec = get_codec(codec)
        table = BipartitionTable.from_counts({}, n_taxa=8, n_trees=3)
        sections = spec.encode(table)
        assert sections.nbytes == 0
        decoded = spec.decode(sections, n_taxa=8, entries=0, weighted=False,
                              include_trivial=False, n_trees=3, total=0)
        assert decoded.same_contents(table)

    @pytest.mark.parametrize("n_taxa", [64, 65, 128, 129])
    def test_extreme_masks_near_word_edges(self, n_taxa):
        """Masks hugging the width limit stress both key encodings."""
        counts = {1: 2, (1 << (n_taxa - 1)) | 1: 1, (1 << n_taxa) - 2: 7,
                  ((1 << n_taxa) - 1) ^ (1 << (n_taxa // 2)): 7}
        table = BipartitionTable.from_counts(counts, n_taxa=n_taxa, n_trees=4)
        for spec in codecs():
            decoded = spec.decode(
                spec.encode(table), n_taxa=n_taxa, entries=len(table),
                weighted=False, include_trivial=False, n_trees=4,
                total=table.total)
            assert decoded.same_contents(table), spec.name

    def test_succinct_is_smaller_on_realistic_skew(self):
        """The compression claim at unit scale: ≥2x on a 129-taxon table
        with a frequency-1 tail (the acceptance-bar ≥3x is measured on
        the store_format benchmark workload)."""
        table = random_table(129, _SEED, entries=400)
        raw = get_codec("raw-u64").estimated_bytes(table)
        succinct = get_codec("succinct-v1").estimated_bytes(table)
        assert succinct * 2 <= raw, (raw, succinct)

    @pytest.mark.parametrize("codec", ["raw-u64", "succinct-v1"])
    def test_estimator_matches_actual_encoding(self, codec):
        spec = get_codec(codec)
        table = random_table(65, _SEED)
        assert spec.estimated_bytes(table) == spec.encode(table).nbytes


class TestMaskCodec:
    """The §IX per-mask codec that succinct-v1 frames its blobs with."""

    @pytest.mark.parametrize("mask", [0, 1, 0b1011, (1 << 64) - 1, 1 << 200,
                                      0b101 << 300, (1 << 1000) | 1])
    def test_roundtrip_known(self, mask):
        assert decompress_mask(compress_mask(mask)) == mask

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 2048) - 1))
    def test_roundtrip_property(self, mask):
        assert decompress_mask(compress_mask(mask)) == mask

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, (1 << 512) - 1), st.integers(0, (1 << 512) - 1))
    def test_injective(self, a, b):
        if a != b:
            assert compress_mask(a) != compress_mask(b)

    def test_sparse_masks_compress_well(self):
        sparse = (1 << 900) | (1 << 10)
        assert len(compress_mask(sparse)) < 10  # raw form would be 113+ bytes

    def test_dense_masks_fall_back_to_raw(self):
        dense = (1 << 256) - 1
        # Raw: 1 + 32 bytes; gaps would be 1 + 256 bytes.
        assert len(compress_mask(dense)) == 33

    def test_never_larger_than_raw_plus_header(self):
        for mask in (0, 1, 0b1010101, (1 << 100) - 1, 1 << 99):
            raw_len = 1 + max(1, (mask.bit_length() + 7) // 8)
            assert len(compress_mask(mask)) <= raw_len

    def test_rejects_negative(self):
        with pytest.raises(BipartitionError):
            compress_mask(-1)

    def test_rejects_garbage(self):
        with pytest.raises(BipartitionError):
            decompress_mask(b"")
        with pytest.raises(BipartitionError):
            decompress_mask(b"\x7fanything")
        with pytest.raises(BipartitionError):
            decompress_mask(b"\x01\x80")  # truncated varint

    def test_zero_gap_is_a_typed_error(self):
        # A gap of 0 would put the first bit at position -1.
        with pytest.raises(BipartitionError, match="zero gap"):
            decompress_mask(b"\x01\x00")

    def test_bit_past_the_leaf_mask_is_rejected(self):
        with pytest.raises(BipartitionError, match="past the leaf mask"):
            decompress_mask(b"\x01\x05", 0b1111)  # bit 4 of a 4-bit set
        # A gap of 2**62 is refused before it is shifted into a huge int.
        gap, varint = 1 << 62, bytearray()
        while gap >= 0x80:
            varint.append(gap & 0x7F | 0x80)
            gap >>= 7
        varint.append(gap)
        with pytest.raises(BipartitionError, match="past the leaf mask"):
            decompress_mask(b"\x02" + bytes(varint), (1 << 64) - 1)


class TestSuccinctGoldenBytes:
    """The succinct-v1 output bytes, pinned by SHA-256 per section.

    Round-trip tests prove a codec decodes what it encodes; they do not
    notice a change to the bytes themselves, which would break every
    snapshot already on disk.  Each table adds the complements of a few
    small clades so all three key forms are written: deltas, GAPS blobs
    and CGAPS blobs.  n=130 crosses the 128-bit word boundary and
    carries branch-length multisets so the weight section is pinned too.
    """

    GOLDEN = {
        48: ("915c1bbca29f590e6c33e82213eb9ecc26bec5bbaee67d56a67df4f600644344",
             "a8c6b7a45b1ff722abe71ff26ae8f42288edfd04822281314868532bd79690d1",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        130: ("39ab3feb3065950f392ef7b1923f80a27bb0130cf4a0cf48b47e054ffae4eba6",
              "109dd82b635863e5bd331f7c801cfcf69b089ff1e3f44f186fd04c1262b5d091",
              "1de368334489aeeeeafe19fffc4cf1e143beb2ba13fae1a886dfedc9c278ee5a"),
    }

    @staticmethod
    def _table(n_taxa: int) -> BipartitionTable:
        weighted = n_taxa > 64
        base = random_table(n_taxa, _SEED + n_taxa, entries=80,
                            weighted=weighted)
        counts = base.to_bfh().counts
        weights = length_runs(base) if weighted else None
        leaf_mask = (1 << n_taxa) - 1
        for i, mask in enumerate(sorted(m for m in counts
                                        if bin(m).count("1") <= 2)[:8]):
            complement = leaf_mask ^ mask
            counts.setdefault(complement, 1 + i % 3)
            if weighted:
                weights.setdefault(complement, [0.25 * (j + 1) for j in
                                                range(counts[complement])])
        return BipartitionTable.from_counts(
            counts, n_taxa=n_taxa, n_trees=base.n_trees, weights=weights)

    @pytest.mark.parametrize("n_taxa", sorted(GOLDEN))
    def test_section_digests_are_pinned(self, n_taxa):
        sections = get_codec("succinct-v1").encode(self._table(n_taxa))
        digests = tuple(hashlib.sha256(section).hexdigest() for section in
                        (sections.keys, sections.counts, sections.weights))
        assert digests == self.GOLDEN[n_taxa]


def _varint(value: int, out: bytearray) -> None:
    while True:
        byte, value = value & 0x7F, value >> 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return


def reference_succinct_sections(table: BipartitionTable) -> TableSections:
    """succinct-v1 as defined key by key: the per-key ``compress_mask``
    loop the vectorized encoder replaced, kept as the byte oracle."""
    counts = table.to_bfh().counts
    masks = sorted(counts)
    leaf_mask = (1 << max(1, table.n_taxa)) - 1
    keys, prev = bytearray(), -1
    for mask in masks:
        delta, framed = bytearray(), None
        _varint(mask - prev, delta)
        if 0 <= mask <= leaf_mask:
            blob = compress_mask(mask, leaf_mask)
            framed = bytearray()
            _varint(len(blob), framed)
            framed.extend(blob)
        if framed is None or len(delta) <= len(framed):
            keys += b"\x00" + delta
        else:
            keys += b"\x01" + framed
        prev = mask
    runs = bytearray()
    freqs = [counts[m] for m in masks]
    i = 0
    while i < len(freqs):
        run = 1
        while i + run < len(freqs) and freqs[i + run] == freqs[i]:
            run += 1
        _varint(freqs[i], runs)
        _varint(run, runs)
        i += run
    weights = b""
    if table.weighted:
        held = length_runs(table)
        weights = b"".join(struct.pack(f"<{counts[m]}d", *sorted(held[m]))
                           for m in masks)
    return TableSections(keys=bytes(keys), counts=bytes(runs),
                         weights=weights)


def assert_encodes_like_reference(table: BipartitionTable) -> None:
    got = get_codec("succinct-v1").encode(table)
    want = reference_succinct_sections(table)
    assert got.keys == want.keys
    assert got.counts == want.counts
    assert got.weights == want.weights


def table_of(masks, n_taxa: int) -> BipartitionTable:
    return BipartitionTable.from_counts(
        {mask: 1 + i % 3 for i, mask in enumerate(sorted(masks))},
        n_taxa=n_taxa, n_trees=3)


def bits_at(positions) -> int:
    return sum(1 << p for p in positions)


class TestEncoderMatchesReference:
    """The vectorized succinct-v1 encoder writes the per-key bytes."""

    @pytest.mark.parametrize("n_taxa", BOUNDARY_TAXA)
    def test_seeded_tables(self, n_taxa):
        for trial in range(4):
            assert_encodes_like_reference(
                random_table(n_taxa, _SEED + 7 * trial + n_taxa,
                             entries=120))

    @pytest.mark.parametrize("n_taxa", [5, 65, 129, 130])
    def test_weighted_tables(self, n_taxa):
        assert_encodes_like_reference(
            random_table(n_taxa, _SEED + n_taxa, weighted=True))

    @pytest.mark.parametrize("n_taxa", [5, 63, 70, 129, 449])
    def test_masks_above_declared_taxa_take_the_delta_arm(self, n_taxa):
        """At 449 taxa (8 words) the delta varints run past bit 384, so
        every word-straddling 7-bit group is written at least once."""
        n_bits = 64 * words_for_taxa(n_taxa)
        rng = random.Random(_SEED + n_taxa)
        masks = {rng.getrandbits(n_bits) for _ in range(30)}
        masks |= {1 << (n_bits - 1), (1 << n_bits) - 1, 1 << n_taxa, 3}
        assert_encodes_like_reference(table_of(masks, n_taxa))

    def test_sparse_wide_masks_write_multibyte_gaps(self):
        """Gaps of 128+ bits are two varint bytes, of 16384+ three."""
        for n_taxa in (260, 300, 20_000):
            leaf_mask = (1 << n_taxa) - 1
            rng = random.Random(_SEED + n_taxa)
            masks = {bits_at(rng.sample(range(n_taxa), rng.randint(1, 4)))
                     for _ in range(40)}
            masks |= {leaf_mask ^ bits_at(rng.sample(range(n_taxa), 2))
                      for _ in range(20)}
            masks |= {bits_at((0, n_taxa - 1)), bits_at((3, 250))}
            if n_taxa > 16_384:
                masks.add(bits_at((0, 17_000)))
                assert compress_mask(bits_at((0, 17_000)), leaf_mask)[3] \
                    & 0x80  # the gap 17000 takes three bytes
            assert compress_mask(bits_at((3, 250)), leaf_mask)[2] & 0x80
            assert_encodes_like_reference(table_of(masks, n_taxa))

    def test_delta_wins_a_tie_with_the_framed_blob(self):
        leaf_mask = (1 << 64) - 1
        mask = 1 << 20  # delta 2**20 + 1: 3 bytes; GAPS blob 2 bytes
        assert 1 + len(compress_mask(mask, leaf_mask)) == 3
        sections = get_codec("succinct-v1").encode(table_of({mask}, 64))
        assert sections.keys[0] == 0x00  # the delta arm
        assert_encodes_like_reference(table_of({mask}, 64))

    @pytest.mark.parametrize("shape", ["raw-vs-gaps", "raw-vs-cgaps"])
    def test_first_shortest_blob_form_wins_a_tie(self, shape):
        n_taxa = 260
        leaf_mask = (1 << n_taxa) - 1
        if shape == "raw-vs-gaps":
            # 25 set bits a byte apart: RAW and GAPS are both 26 bytes.
            mask, size = bits_at(range(0, 193, 8)), 26
        else:
            # 33 clear bits 7 apart: RAW and CGAPS are both 34 bytes.
            mask, size = leaf_mask ^ bits_at(range(0, 225, 7)), 34
        blob = compress_mask(mask, leaf_mask)
        assert blob[0] == 0x00 and len(blob) == size  # RAW, listed first
        sections = get_codec("succinct-v1").encode(table_of({1, mask},
                                                            n_taxa))
        assert sections.keys[2] == 0x01  # second key: the framed blob
        assert_encodes_like_reference(table_of({1, mask}, n_taxa))

    def test_empty_and_single_key_tables(self):
        assert_encodes_like_reference(table_of(set(), 8))
        for n_taxa in BOUNDARY_TAXA:
            leaf_mask = (1 << n_taxa) - 1
            full = (1 << 64 * words_for_taxa(n_taxa)) - 1
            for mask in (0, 1, leaf_mask, leaf_mask - 1, 1 << (n_taxa - 1),
                         full):
                assert_encodes_like_reference(table_of({mask}, n_taxa))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(0, (1 << 64 * words_for_taxa(n)) - 1),
                max_size=40),
        st.lists(st.integers(1, 1 << 40), min_size=1, max_size=40))))
    def test_property_random_mask_sets(self, case):
        n_taxa, masks, freqs = case
        counts = {mask: freqs[i % len(freqs)]
                  for i, mask in enumerate(sorted(masks))}
        assert_encodes_like_reference(BipartitionTable.from_counts(
            counts, n_taxa=n_taxa, n_trees=1))


class TestRegistry:
    def test_builtins_registered_with_permanent_tags(self):
        assert get_codec("raw-u64").tag == 1
        assert get_codec("succinct-v1").tag == 2
        assert codec_by_tag(1).name == "raw-u64"
        assert codec_by_tag(2).name == "succinct-v1"
        assert set(codec_names()) >= {"raw-u64", "succinct-v1"}

    def test_succinct_is_the_default_write_format(self):
        assert default_codec_name() == "succinct-v1"

    def test_unknown_name_and_tag_are_loud(self):
        with pytest.raises(ValueError, match="unknown codec"):
            get_codec("lz4")
        with pytest.raises(StoreCorruptError, match="unknown codec tag"):
            codec_by_tag(999)

    def test_tag_collision_with_different_name_rejected(self):
        spec = get_codec("raw-u64")
        with pytest.raises(ValueError, match="already taken"):
            register_codec("imposter", tag=spec.tag, encoder=spec.encoder,
                           decoder=spec.decoder, estimator=spec.estimator,
                           summary="collides")


class TestMalformedSuccinctSections:
    """Every malformed byte pattern must raise StoreCorruptError —
    the codec layer keeps the store's never-silently-wrong contract."""

    def _decode(self, sections, entries):
        return get_codec("succinct-v1").decode(
            sections, n_taxa=65, entries=entries, weighted=False,
            include_trivial=False, n_trees=1, total=entries)

    def _sections(self, n_taxa=65, entries=20):
        table = random_table(n_taxa, _SEED, entries=entries)
        return get_codec("succinct-v1").encode(table), len(table)

    def test_truncated_keys(self):
        sections, entries = self._sections()
        for cut in range(len(sections.keys)):
            bad = TableSections(keys=sections.keys[:cut],
                                counts=sections.counts, weights=b"")
            with pytest.raises(StoreCorruptError):
                self._decode(bad, entries)

    def test_truncated_counts(self):
        sections, entries = self._sections()
        for cut in range(len(sections.counts)):
            bad = TableSections(keys=sections.keys,
                                counts=sections.counts[:cut], weights=b"")
            with pytest.raises(StoreCorruptError):
                self._decode(bad, entries)

    def test_trailing_bytes_rejected(self):
        sections, entries = self._sections()
        with pytest.raises(StoreCorruptError, match="trailing"):
            self._decode(TableSections(keys=sections.keys + b"\x00",
                                       counts=sections.counts, weights=b""),
                         entries)
        with pytest.raises(StoreCorruptError, match="trailing"):
            self._decode(TableSections(keys=sections.keys,
                                       counts=sections.counts + b"\x01\x01",
                                       weights=b""),
                         entries)

    def test_unknown_key_tag_rejected(self):
        sections, entries = self._sections()
        bad_keys = b"\x7f" + sections.keys[1:]
        with pytest.raises(StoreCorruptError, match="unknown tag"):
            self._decode(TableSections(keys=bad_keys,
                                       counts=sections.counts, weights=b""),
                         entries)

    def test_non_ascending_delta_rejected(self):
        # A zero delta re-encodes the previous key: not strictly ascending.
        keys = b"\x00\x05" + b"\x00\x00"
        counts = b"\x01\x02"  # value 1, run 2
        with pytest.raises(StoreCorruptError, match="ascending"):
            self._decode(TableSections(keys=keys, counts=counts, weights=b""),
                         2)

    @pytest.mark.parametrize("keys", [
        b"\x00" + bytes([0x81] + [0x80] * 17 + [0x04]),  # delta to 2**128
        b"\x01\x12\x00\x01" + bytes(16),  # RAW blob of 2**128
    ], ids=["delta", "blob"])
    def test_key_wider_than_the_table_rejected(self, keys):
        with pytest.raises(StoreCorruptError, match="wider than"):
            self._decode(TableSections(keys=keys, counts=b"\x01\x01",
                                       weights=b""), 1)

    def test_overlong_varint_rejected(self):
        """An unbounded key varint is refused once it outgrows any valid
        key, not decoded (that takes quadratic time)."""
        keys = b"\x00" + b"\x80" * 200_000 + b"\x01"
        with pytest.raises(StoreCorruptError, match="longer than 19 bytes"):
            self._decode(TableSections(keys=keys, counts=b"\x01\x01",
                                       weights=b""), 1)

    def test_zero_count_run_rejected(self):
        keys = b"\x00\x05"
        with pytest.raises(StoreCorruptError, match="invalid run"):
            self._decode(TableSections(keys=keys, counts=b"\x00\x01",
                                       weights=b""), 1)

    def test_count_run_overrun_rejected(self):
        keys = b"\x00\x05"
        with pytest.raises(StoreCorruptError, match="invalid run"):
            self._decode(TableSections(keys=keys, counts=b"\x01\x05",
                                       weights=b""), 1)

    def test_weight_section_on_unweighted_table_rejected(self):
        sections, entries = self._sections()
        bad = TableSections(keys=sections.keys, counts=sections.counts,
                            weights=b"\x00" * 8)
        with pytest.raises(StoreCorruptError, match="weight"):
            self._decode(bad, entries)


class TestTableViews:
    def test_probe_and_numeric_orders_hold_the_same_multiset(self):
        table = random_table(129, _SEED)
        keys, counts, _ = table.numeric_rows()
        masks = words_to_masks(keys)
        assert masks == sorted(table.masks())
        assert dict(zip(masks, counts.tolist())) == table.to_bfh().counts

    def test_vectorized_adoption_is_zero_copy(self):
        table = random_table(64, _SEED)
        vbfh = table.vectorized()
        assert vbfh.table is table
        assert np.shares_memory(vbfh._void_keys, table.keys)
        # A probe of the stored keys answers with the table's own counts.
        assert vbfh.lookup_frequencies(table.keys).tolist() \
            == table.counts.tolist()

    def test_width_mismatch_rejected(self):
        keys = masks_to_words([1, 2], 2)
        counts = np.array([1, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="does not match"):
            BipartitionTable(keys, counts, n_taxa=8, n_trees=1, total=2)

    def test_overflowing_mask_never_truncates_silently(self):
        with pytest.raises(ValueError, match="does not fit"):
            masks_to_words([1 << 64], 1)
        with pytest.raises(ValueError, match="0x1" + "0" * 32):
            masks_to_words([1, 1 << 128, 2], 2)

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError, match="-0x1 does not fit"):
            masks_to_words([3, -1], 2)

    def test_masks_above_declared_taxa_still_roundtrip(self):
        """Partial-coverage cases declare fewer taxa than the namespace
        holds bits for; succinct must fall back to delta keys, not raise
        (the codec-roundtrip oracle found this)."""
        table = BipartitionTable.from_counts(
            {0x45: 2, 0x201: 1}, n_taxa=5, n_trees=2)
        for spec in codecs():
            decoded = spec.decode(
                spec.encode(table), n_taxa=5, entries=2, weighted=False,
                include_trivial=False, n_trees=2, total=table.total)
            assert decoded.same_contents(table), spec.name
