"""Format migration: v1 → v2 parity, crash atomicity, truncation.

The contract (docs/store.md): ``migrate`` is a compaction with a codec
switch, so it inherits the manifest-swap commit point — a crash at any
moment mid-migrate leaves the legacy store readable and byte-identical;
a completed migrate changes only the bytes on disk, never an answer.
"""

from __future__ import annotations

import json

import pytest

from repro.core.bfhrf import bfhrf_average_rf
from repro.newick import trees_from_string
from repro.store import BFHStore, build_store, snapshot_sections
from repro.store.format import SNAPSHOT_VERSION, SNAPSHOT_VERSION_V2
from repro.util.errors import StoreCorruptError, StoreError

NWK = ("((A,B),(C,D),E);\n((A,C),(B,D),E);\n"
       "((A,E),(B,C),D);\n((A,B),(C,E),D);")


def shard_paths(root):
    manifest = json.loads((root / "manifest.json").read_text())
    return [root / entry["file"] for entry in manifest["shards"]]


@pytest.fixture
def legacy_store(tmp_path):
    """A store written entirely in the v1 snapshot layout."""
    trees = trees_from_string(NWK)
    build_store(tmp_path / "s", trees, n_shards=2, codec="v1")
    return tmp_path / "s"


class TestMigrateParity:
    def test_queries_identical_across_all_three_states(self, legacy_store):
        """Legacy, migrated, and re-compacted answers must not differ
        by a single bit — the CI compat smoke's contract, in-process."""
        trees = trees_from_string(NWK)
        store = BFHStore.open(legacy_store)
        legacy = store.average_rf(trees)
        assert legacy == bfhrf_average_rf(trees, trees)

        summary = store.migrate()
        assert store.average_rf(trees) == legacy
        assert BFHStore.open(legacy_store).average_rf(trees) == legacy

        store = BFHStore.open(legacy_store)
        store.compact(3)
        assert BFHStore.open(legacy_store).average_rf(trees) == legacy

        assert summary["from_codec"] == "v1"
        assert summary["to_codec"] == "succinct-v1"
        assert summary["snapshot_bytes_before"] > 0
        assert summary["snapshot_bytes_after"] > 0

    def test_migrate_rewrites_every_shard_as_v2(self, legacy_store):
        for path in shard_paths(legacy_store):
            assert snapshot_sections(path)["version"] == SNAPSHOT_VERSION
        BFHStore.open(legacy_store).migrate()
        for path in shard_paths(legacy_store):
            section = snapshot_sections(path)
            assert section["version"] == SNAPSHOT_VERSION_V2
            assert section["codec"] == "succinct-v1"

    def test_legacy_store_compacts_back_to_v1_without_migrate(
            self, legacy_store):
        """Ordinary maintenance must never change a legacy store's
        format under readers that only speak v1."""
        store = BFHStore.open(legacy_store)
        assert store.snapshot_codec == "v1"
        store.add_trees(trees_from_string(NWK)[:1])
        store.compact(3)
        for path in shard_paths(legacy_store):
            assert snapshot_sections(path)["version"] == SNAPSHOT_VERSION

    def test_migrate_to_explicit_codec_and_back(self, legacy_store):
        trees = trees_from_string(NWK)
        store = BFHStore.open(legacy_store)
        want = store.average_rf(trees)
        store.migrate(codec="raw-u64")
        assert snapshot_sections(
            shard_paths(legacy_store)[0])["codec"] == "raw-u64"
        summary = BFHStore.open(legacy_store).migrate(codec="v1")
        assert summary["to_codec"] == "v1"
        assert snapshot_sections(
            shard_paths(legacy_store)[0])["version"] == SNAPSHOT_VERSION
        assert BFHStore.open(legacy_store).average_rf(trees) == want

    def test_unknown_codec_rejected_before_any_rewrite(self, legacy_store):
        store = BFHStore.open(legacy_store)
        generation = store.generation
        with pytest.raises((StoreError, ValueError), match="unknown codec"):
            store.migrate(codec="zstd")
        assert BFHStore.open(legacy_store).generation == generation

    def test_new_stores_default_to_succinct(self, tmp_path):
        trees = trees_from_string(NWK)
        build_store(tmp_path / "fresh", trees, n_shards=2)
        for path in shard_paths(tmp_path / "fresh"):
            assert snapshot_sections(path)["codec"] == "succinct-v1"

    def test_weighted_store_migrates_exactly(self, tmp_path):
        nwk = ("((A:0.5,B:0.25):0.125,(C:1.5,D:2.0):0.75,E:1.0);\n"
               "((A:0.1,C:0.2):0.3,(B:0.4,D:0.5):0.6,E:0.7);")
        trees = trees_from_string(nwk)
        build_store(tmp_path / "w", trees, n_shards=2, codec="v1",
                    weighted=True)
        store = BFHStore.open(tmp_path / "w")
        want = store.average_rf(trees)
        store.migrate()
        assert BFHStore.open(tmp_path / "w").average_rf(trees) == want


class TestMigrateCrashSafety:
    def test_crash_before_manifest_swap_leaves_v1_intact(
            self, legacy_store, monkeypatch):
        """Kill the migrate right before its commit point: the staged
        v2 shards must be unreferenced leftovers, the store still v1."""
        trees = trees_from_string(NWK)
        want = BFHStore.open(legacy_store).average_rf(trees)
        store = BFHStore.open(legacy_store)

        def crash(*args, **kwargs):
            raise OSError("simulated crash at the commit point")

        monkeypatch.setattr(store, "_write_manifest", crash)
        with pytest.raises(OSError, match="simulated crash"):
            store.migrate()

        reopened = BFHStore.open(legacy_store)
        for path in shard_paths(legacy_store):
            assert snapshot_sections(path)["version"] == SNAPSHOT_VERSION
        assert reopened.snapshot_codec == "v1"
        assert reopened.average_rf(trees) == want

    def test_every_byte_truncation_of_v2_snapshots_is_loud(
            self, legacy_store):
        """Cut each migrated shard after every byte: open() must raise
        StoreCorruptError every time, never serve a partial table."""
        BFHStore.open(legacy_store).migrate()
        for path in shard_paths(legacy_store):
            blob = path.read_bytes()
            try:
                for cut in range(len(blob)):
                    path.write_bytes(blob[:cut])
                    with pytest.raises(StoreCorruptError):
                        BFHStore.open(legacy_store)
            finally:
                path.write_bytes(blob)
        # Restored bytes still open clean — the loop damaged nothing.
        assert BFHStore.open(legacy_store).average_rf(
            trees_from_string(NWK)) is not None

    def test_bitflip_in_v2_section_is_loud(self, legacy_store):
        BFHStore.open(legacy_store).migrate()
        path = shard_paths(legacy_store)[0]
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x20
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptError):
            BFHStore.open(legacy_store)


class TestInfoReporting:
    def test_info_reports_format_and_projections(self, legacy_store):
        """Satellite (b): version, per-section bytes, projected sizes."""
        store = BFHStore.open(legacy_store)
        info = store.info()
        assert info["snapshot_codec"] == "v1"
        assert info["snapshot_bytes"] == sum(
            p.stat().st_size for p in shard_paths(legacy_store))
        for shard in info["shards"]:
            assert shard["version"] == SNAPSHOT_VERSION
            assert shard["codec"] == "v1"
            assert shard["file_bytes"] > 0
            assert shard["keys_bytes"] + shard["counts_bytes"] >= 0
        assert "projected_bytes" not in info  # encoding is store info's
        projected = store.projected_bytes()
        assert set(projected) >= {"raw-u64", "succinct-v1"}
        assert projected["succinct-v1"] < projected["raw-u64"]

        store.migrate()
        info = BFHStore.open(legacy_store).info()
        assert info["snapshot_codec"] == "succinct-v1"
        assert all(s["version"] == SNAPSHOT_VERSION_V2
                   for s in info["shards"])

    def test_section_bytes_sum_to_payload(self, legacy_store):
        BFHStore.open(legacy_store).migrate()
        for path in shard_paths(legacy_store):
            section = snapshot_sections(path)
            payload = (section["keys_bytes"] + section["counts_bytes"]
                       + section["weights_bytes"])
            assert payload < section["file_bytes"]
            assert section["entries"] >= 0
