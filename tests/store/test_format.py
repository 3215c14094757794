"""Snapshot/journal binary format: round-trips, word edges, corruption."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.table import BipartitionTable, masks_to_words, words_to_masks
from repro.store.format import (
    JOURNAL_HEADER_SIZE,
    OP_ADD,
    OP_EXTEND_NS,
    OP_REMOVE,
    decode_labels_payload,
    decode_tree_payload,
    encode_labels_payload,
    encode_record,
    encode_tree_payload,
    journal_header,
    namespace_fingerprint,
    pack_key,
    read_journal,
    read_snapshot,
    unpack_key,
    words_for_taxa,
    write_snapshot,
)
from repro.util.errors import StoreCorruptError

FP = namespace_fingerprint([f"T{i}" for i in range(8)])


def rows(counts: dict[int, int], n_taxa: int):
    """A frequency dict as the numeric-order rows a snapshot is written
    from."""
    masks = sorted(counts)
    return (masks_to_words(masks, words_for_taxa(n_taxa)),
            np.array([counts[m] for m in masks], dtype=np.int64))


def tree_payload(masks: list[int], n_taxa: int, lengths=None) -> bytes:
    return encode_tree_payload(masks_to_words(masks, words_for_taxa(n_taxa)),
                               n_taxa, lengths)


def assert_rows_equal(got, want) -> None:
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


class TestKeyPacking:
    @pytest.mark.parametrize("n_taxa,words", [
        (1, 1), (63, 1), (64, 1), (65, 2), (127, 2), (128, 2), (129, 3),
    ])
    def test_word_width_changes_at_64_bit_edges(self, n_taxa, words):
        assert words_for_taxa(n_taxa) == words

    @pytest.mark.parametrize("n_taxa", [63, 64, 65, 127, 128, 129])
    def test_extreme_masks_roundtrip_at_boundaries(self, n_taxa):
        n_words = words_for_taxa(n_taxa)
        for mask in (1, (1 << n_taxa) - 1, 1 << (n_taxa - 1),
                     ((1 << n_taxa) - 1) ^ (1 << (n_taxa // 2))):
            packed = pack_key(mask, n_words)
            assert len(packed) == n_words * 8
            assert unpack_key(packed) == mask

    def test_overflowing_mask_rejected(self):
        with pytest.raises(OverflowError):
            pack_key(1 << 64, words_for_taxa(64))


class TestSnapshotRoundtrip:
    @pytest.mark.parametrize("n_taxa", [5, 63, 64, 65, 127, 128, 129])
    def test_counts_roundtrip_at_word_boundaries(self, tmp_path, n_taxa):
        counts = {1: 3, (1 << (n_taxa - 1)) | 1: 1, (1 << n_taxa) - 2: 7}
        path = tmp_path / "s.snap"
        assert write_snapshot(path, *rows(counts, n_taxa), n_taxa=n_taxa,
                              fingerprint=FP) == 3
        data = read_snapshot(path)
        keys, counts_got, lengths = data.table.numeric_rows()
        assert_rows_equal((keys, counts_got), rows(counts, n_taxa))
        assert data.table.n_taxa == n_taxa
        assert data.fingerprint == FP
        assert lengths is None

    def test_weighted_roundtrip_sorts_multisets(self, tmp_path):
        table = BipartitionTable.from_counts(
            {3: 2, 12: 1}, n_taxa=4, n_trees=2,
            weights={3: [2.5, 0.5], 12: [1.0]})
        keys, counts, lengths = table.numeric_rows()
        path = tmp_path / "w.snap"
        write_snapshot(path, keys, counts, n_taxa=4, fingerprint=FP,
                       lengths=lengths)
        data = read_snapshot(path)
        assert data.table.weighted
        assert data.table.numeric_rows()[2].tolist() == [0.5, 2.5, 1.0]

    def test_weight_count_mismatch_rejected_at_write(self, tmp_path):
        with pytest.raises(ValueError, match="1 branch lengths for 2"):
            write_snapshot(tmp_path / "bad.snap", *rows({3: 2}, 4), n_taxa=4,
                           fingerprint=FP, lengths=np.array([1.0]))

    def test_empty_snapshot(self, tmp_path):
        path = tmp_path / "e.snap"
        write_snapshot(path, *rows({}, 0), n_taxa=0, fingerprint=FP)
        assert len(read_snapshot(path).table) == 0

    def test_bitflip_fails_crc(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, *rows({1: 1, 6: 2}, 4), n_taxa=4,
                       fingerprint=FP)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptError, match="CRC"):
            read_snapshot(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, *rows({1: 1, 6: 2}, 4), n_taxa=4,
                       fingerprint=FP)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 5])
        with pytest.raises(StoreCorruptError):
            read_snapshot(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        path.write_bytes(b"NOTASNAP" + b"\0" * 40)
        with pytest.raises(StoreCorruptError):
            read_snapshot(path)


class TestTreePayload:
    @pytest.mark.parametrize("n_taxa", [4, 63, 64, 65, 128, 129])
    def test_roundtrip_sorts_masks(self, n_taxa):
        masks = [(1 << n_taxa) - 2, 3, 1 << (n_taxa - 1)]
        payload = tree_payload(masks, n_taxa)
        assert payload == struct.pack("<II", n_taxa, 3) + b"".join(
            pack_key(mask, words_for_taxa(n_taxa)) for mask in sorted(masks))
        got_rows, got_lengths, got_taxa = decode_tree_payload(
            payload, weighted=False)
        assert words_to_masks(got_rows) == sorted(masks)
        assert got_lengths is None
        assert got_taxa == n_taxa

    def test_lengths_follow_mask_order(self):
        masks = [12, 3]
        payload = tree_payload(masks, 4, [0.25, 0.75])
        assert payload.endswith(struct.pack("<2d", 0.75, 0.25))
        got_rows, got_lengths, _ = decode_tree_payload(payload, weighted=True)
        assert words_to_masks(got_rows) == [3, 12]
        assert got_lengths == [0.75, 0.25]

    def test_size_mismatch_rejected(self):
        payload = tree_payload([3, 12], 4)
        with pytest.raises(StoreCorruptError):
            decode_tree_payload(payload + b"\0", weighted=False)
        with pytest.raises(StoreCorruptError):
            decode_tree_payload(payload, weighted=True)  # missing lengths


class TestLabelsPayload:
    def test_roundtrip(self):
        labels = ["taxon one", "it's", "a(b)", "δ"]
        assert decode_labels_payload(encode_labels_payload(labels)) == labels

    def test_empty(self):
        assert decode_labels_payload(encode_labels_payload([])) == []


class TestJournal:
    def _journal(self, tmp_path, records):
        path = tmp_path / "j.log"
        path.write_bytes(journal_header(FP) + b"".join(records))
        return path

    def test_roundtrip(self, tmp_path):
        path = self._journal(tmp_path, [
            encode_record(OP_ADD, tree_payload([3, 12], 4)),
            encode_record(OP_EXTEND_NS, encode_labels_payload(["E"])),
            encode_record(OP_REMOVE, tree_payload([3], 5)),
        ])
        records, offset, torn = read_journal(path)
        assert [r.op for r in records] == [OP_ADD, OP_EXTEND_NS, OP_REMOVE]
        assert offset == path.stat().st_size
        assert not torn

    def test_header_only(self, tmp_path):
        path = self._journal(tmp_path, [])
        assert read_journal(path) == ([], JOURNAL_HEADER_SIZE, False)

    def test_short_header_is_corrupt(self, tmp_path):
        path = tmp_path / "j.log"
        path.write_bytes(journal_header(FP)[:10])
        with pytest.raises(StoreCorruptError):
            read_journal(path)

    def test_torn_tail_is_recoverable_not_corrupt(self, tmp_path):
        whole = encode_record(OP_ADD, tree_payload([3], 4))
        path = self._journal(tmp_path, [whole, whole[:len(whole) - 3]])
        records, offset, torn = read_journal(path)
        assert len(records) == 1
        assert offset == JOURNAL_HEADER_SIZE + len(whole)
        assert torn

    def test_complete_record_with_bad_crc_is_corrupt(self, tmp_path):
        record = bytearray(encode_record(OP_ADD, tree_payload([3], 4)))
        record[6] ^= 0x01  # flip a payload bit; framing stays intact
        path = self._journal(tmp_path, [bytes(record)])
        with pytest.raises(StoreCorruptError, match="corrupt, not merely torn"):
            read_journal(path)

    def test_unknown_op_is_corrupt(self, tmp_path):
        import zlib
        payload = b"xx"
        record = struct.pack("<BI", 9, len(payload)) + payload + \
            struct.pack("<I", zlib.crc32(bytes([9]) + payload))
        path = self._journal(tmp_path, [record])
        with pytest.raises(StoreCorruptError, match="unknown record op"):
            read_journal(path)
