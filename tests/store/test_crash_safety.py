"""Crash safety: every journal truncation point recovers or fails loudly.

The contract (docs/store.md): a journal cut anywhere inside the *last*
record — the only place an interrupted append can cut — must reopen to
the previous consistent state with ``recovered`` set; damage elsewhere
(bit flips, missing files) must raise :class:`StoreCorruptError` rather
than serve silently wrong frequencies.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.bfhrf import bfhrf_average_rf
from repro.newick import trees_from_string
from repro.store import BFHStore, build_store
from repro.store.format import JOURNAL_HEADER_SIZE
from repro.util.errors import StoreCorruptError

NWK = ("((A,B),(C,D),E);\n((A,C),(B,D),E);\n"
       "((A,E),(B,C),D);\n((A,B),(C,E),D);")


def journal_path(root):
    manifest = json.loads((root / "manifest.json").read_text())
    return root / manifest["journal"]


@pytest.fixture
def store_dir(tmp_path):
    trees = trees_from_string(NWK)
    store = build_store(tmp_path / "s", trees[:2], n_shards=2)
    store.add_trees(trees[2:3])  # one committed journal record
    return tmp_path / "s"


class TestTornTail:
    def test_every_byte_boundary_of_the_last_record(self, store_dir):
        """Truncate after every single byte of the final record."""
        trees = trees_from_string(NWK)
        store = BFHStore.open(store_dir)
        consistent_len = journal_path(store_dir).stat().st_size
        expected = store.average_rf(trees)
        store.add_trees(trees[3:4])  # the record a crash will tear
        blob = journal_path(store_dir).read_bytes()
        assert len(blob) > consistent_len
        for cut in range(consistent_len + 1, len(blob)):
            journal_path(store_dir).write_bytes(blob[:cut])
            recovered = BFHStore.open(store_dir)
            assert recovered.recovered, f"cut at byte {cut} not flagged"
            assert recovered.n_trees == 3
            assert recovered.average_rf(trees) == expected, \
                f"cut at byte {cut} changed answers"

    def test_append_after_recovery_truncates_the_tail(self, store_dir):
        trees = trees_from_string(NWK)
        blob = journal_path(store_dir).read_bytes()
        journal_path(store_dir).write_bytes(blob[:-4])  # tear the record
        store = BFHStore.open(store_dir)
        assert store.recovered and store.n_trees == 2
        store.add_trees(trees[3:4])
        assert not store.recovered
        reopened = BFHStore.open(store_dir)
        assert not reopened.recovered
        assert reopened.n_trees == 3
        assert reopened.average_rf(trees) == \
            bfhrf_average_rf(trees, trees[:2] + trees[3:4])

    def test_truncation_to_bare_header_recovers_to_snapshot(self, store_dir):
        blob = journal_path(store_dir).read_bytes()
        journal_path(store_dir).write_bytes(blob[:JOURNAL_HEADER_SIZE + 1])
        store = BFHStore.open(store_dir)
        assert store.recovered
        assert store.n_trees == 2  # exactly the compacted snapshot state
        assert store.journal_records == 0


class TestLoudFailures:
    def test_bitflip_in_committed_record_is_corruption(self, store_dir):
        blob = bytearray(journal_path(store_dir).read_bytes())
        blob[JOURNAL_HEADER_SIZE + 10] ^= 0x04
        journal_path(store_dir).write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptError, match="corrupt"):
            BFHStore.open(store_dir)

    def test_journal_cut_into_header_is_corruption(self, store_dir):
        blob = journal_path(store_dir).read_bytes()
        journal_path(store_dir).write_bytes(blob[:JOURNAL_HEADER_SIZE - 3])
        with pytest.raises(StoreCorruptError):
            BFHStore.open(store_dir)

    def test_missing_journal_is_corruption(self, store_dir):
        journal_path(store_dir).unlink()
        with pytest.raises(StoreCorruptError, match="missing"):
            BFHStore.open(store_dir)

    def test_missing_shard_fails(self, store_dir):
        manifest = json.loads((store_dir / "manifest.json").read_text())
        (store_dir / manifest["shards"][0]["file"]).unlink()
        with pytest.raises((StoreCorruptError, FileNotFoundError)):
            BFHStore.open(store_dir)

    def test_manifest_missing_field_is_corruption(self, store_dir):
        manifest = json.loads((store_dir / "manifest.json").read_text())
        del manifest["labels"]
        (store_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptError, match="malformed"):
            BFHStore.open(store_dir)

    def test_manifest_wrong_typed_field_is_corruption(self, store_dir):
        manifest = json.loads((store_dir / "manifest.json").read_text())
        manifest["generation"] = "three"
        (store_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptError, match="malformed"):
            BFHStore.open(store_dir)

    def test_manifest_non_object_is_corruption(self, store_dir):
        (store_dir / "manifest.json").write_text("[1, 2, 3]\n")
        with pytest.raises(StoreCorruptError, match="not a JSON object"):
            BFHStore.open(store_dir)

    def test_foreign_journal_rejected(self, store_dir, tmp_path):
        other_trees = trees_from_string("((X,Y),(Z,W),V);")
        build_store(tmp_path / "other", other_trees)
        foreign = journal_path(tmp_path / "other").read_bytes()
        journal_path(store_dir).write_bytes(foreign)
        with pytest.raises(StoreCorruptError, match="different namespace"):
            BFHStore.open(store_dir)

    def test_replayed_underflow_is_corruption(self, store_dir):
        """A remove record whose tree was never added must not replay."""
        from repro.core.table import masks_to_words
        from repro.store.format import (OP_REMOVE, encode_record,
                                        encode_tree_payload)
        record = encode_record(OP_REMOVE, encode_tree_payload(
            masks_to_words([0b11111], 1), 5))
        with open(journal_path(store_dir), "ab") as fh:
            fh.write(record)
        with pytest.raises(StoreCorruptError, match="replay failed"):
            BFHStore.open(store_dir)


class TestCompactionAtomicity:
    def test_unreferenced_new_generation_files_are_ignored(self, store_dir):
        """A crash after writing gen-N+1 files but before the manifest
        swap leaves them unreferenced; open() must use the old state."""
        store = BFHStore.open(store_dir)
        expected_trees = store.n_trees
        # Simulate the pre-commit half of a compaction crash.
        from repro.core.table import masks_to_words
        from repro.store.format import namespace_fingerprint, write_snapshot
        write_snapshot(store_dir / "shard-000099-000.snap",
                       masks_to_words([1], 1), np.ones(1, dtype=np.int64),
                       n_taxa=5, fingerprint=namespace_fingerprint(store.labels))
        reopened = BFHStore.open(store_dir)
        assert reopened.n_trees == expected_trees
        assert reopened.generation == store.generation

    def test_new_shards_are_fsynced_before_the_manifest_replace(
            self, store_dir, monkeypatch):
        """A committed manifest must never name shard data that is not on
        disk: each new shard is fsynced before its own rename, and all of
        that happens before manifest.json is replaced."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino,
                           os.path.basename(dst)))
            real_replace(src, dst)

        store = BFHStore.open(store_dir)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store.compact(3)
        replaced = [(at, event) for at, event in enumerate(events)
                    if event[0] == "replace"]
        names = [event[2] for _, event in replaced]
        assert names[-1] == "manifest.json"
        commit = replaced[-1][0]
        shards = [(at, event) for at, event in replaced
                  if event[2].endswith(".snap")]
        assert len(shards) == 3
        for at, (_, inode, _) in shards:
            assert at < commit
            assert ("fsync", inode) in events[:at]

    def test_manifest_commit_point(self, store_dir):
        trees = trees_from_string(NWK)
        store = BFHStore.open(store_dir)
        before = store.average_rf(trees)
        store.compact(3)
        assert BFHStore.open(store_dir).average_rf(trees) == before
