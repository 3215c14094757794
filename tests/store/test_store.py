"""BFHStore lifecycle: build, add, remove, query, compact, reopen."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.hashing.weighted import WeightedBipartitionHash
from repro.newick import trees_from_string
from repro.store import BFHStore, build_store
from repro.util.errors import StoreCorruptError, StoreError

from tests.conftest import length_runs, make_collection

NWK = ("((A,B),(C,D),E);\n((A,C),(B,D),E);\n"
       "((A,E),(B,C),D);\n((A,B),(C,E),D);\n((B,D),(C,E),A);")


@pytest.fixture
def trees():
    return trees_from_string(NWK)


def assert_matches_fresh(store, reference, query):
    """The store contract: answers bitwise-equal to a fresh build."""
    assert store.average_rf(query) == bfhrf_average_rf(query, reference)
    fresh = build_bfh(reference)
    bfh = store.bfh()
    assert bfh.counts == fresh.counts
    assert (bfh.n_trees, bfh.total) == (fresh.n_trees, fresh.total)


class TestLifecycle:
    def test_build_then_query(self, tmp_path, trees):
        store = build_store(tmp_path / "s", trees, n_shards=2)
        assert_matches_fresh(store, trees, trees)
        assert len(store) == len(build_bfh(trees))

    def test_create_refuses_existing_store(self, tmp_path, trees):
        build_store(tmp_path / "s", trees)
        with pytest.raises(StoreError, match="already contains"):
            BFHStore.create(tmp_path / "s")

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(StoreError, match="not a BFH store"):
            BFHStore.open(tmp_path / "nope")

    def test_incremental_add_matches_bulk(self, tmp_path, trees):
        bulk = build_store(tmp_path / "bulk", trees)
        inc = BFHStore.create(tmp_path / "inc")
        for tree in trees:
            inc.add_trees([tree])
        assert inc.bfh().counts == bulk.bfh().counts
        assert inc.average_rf(trees) == bulk.average_rf(trees)

    def test_remove_is_exact_inverse(self, tmp_path, trees):
        store = build_store(tmp_path / "s", trees)
        store.add_trees(trees[:2])
        store.remove_trees(trees[:2])
        assert_matches_fresh(store, trees, trees)

    def test_duplicate_trees_are_a_multiset(self, tmp_path, trees):
        store = build_store(tmp_path / "s", trees)
        store.add_trees([trees[0], trees[0]])
        assert_matches_fresh(store, trees + [trees[0], trees[0]], trees)
        store.remove_trees([trees[0]])
        assert_matches_fresh(store, trees + [trees[0]], trees)

    def test_reopen_preserves_state(self, tmp_path, trees):
        store = build_store(tmp_path / "s", trees[:3], n_shards=2)
        store.add_trees(trees[3:])
        store.remove_trees(trees[1:2])
        reference = trees[:1] + trees[2:]
        reopened = BFHStore.open(tmp_path / "s")
        assert_matches_fresh(reopened, reference, trees)
        assert reopened.journal_records == store.journal_records

    def test_compact_empties_journal_and_preserves_answers(self, tmp_path, trees):
        store = build_store(tmp_path / "s", trees[:2])
        store.add_trees(trees[2:])
        before = store.average_rf(trees)
        store.compact(3)
        assert store.journal_records == 0
        assert store.average_rf(trees) == before
        reopened = BFHStore.open(tmp_path / "s")
        assert reopened.average_rf(trees) == before
        assert reopened.generation == store.generation

    def test_compact_removes_old_generation_files(self, tmp_path, trees):
        store = build_store(tmp_path / "s", trees, n_shards=3)
        gen1 = {p.name for p in (tmp_path / "s").iterdir()}
        store.compact(2)
        gen2 = {p.name for p in (tmp_path / "s").iterdir()}
        assert not {n for n in gen1 if n.startswith(("shard-", "journal-"))} & gen2
        assert len([n for n in gen2 if n.startswith("shard-")]) == 2

    def test_failed_compact_keeps_old_journal_live(self, tmp_path, trees,
                                                   monkeypatch):
        """If the manifest commit fails, the in-memory store must keep
        appending to the journal the on-disk manifest still references —
        not the orphaned new-generation one (regression: deltas written
        after a failed compact were silently lost on reopen)."""
        store = build_store(tmp_path / "s", trees[:2])
        store.add_trees(trees[2:4])
        generation = store.generation
        monkeypatch.setattr(
            store, "_write_manifest",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")))
        with pytest.raises(OSError):
            store.compact()
        monkeypatch.undo()
        assert store.generation == generation
        store.add_trees(trees[4:5])  # must land in the referenced journal
        reopened = BFHStore.open(tmp_path / "s")
        assert reopened.n_trees == 5
        assert_matches_fresh(reopened, trees, trees)

    def test_larger_collection_roundtrip(self, tmp_path):
        reference = make_collection(16, 30, seed=1612)
        store = build_store(tmp_path / "s", reference, n_shards=4)
        store.remove_trees(reference[10:20])
        store.compact()
        current = reference[:10] + reference[20:]
        reopened = BFHStore.open(tmp_path / "s")
        assert_matches_fresh(reopened, current, reference)


class TestWorkerQuery:
    @pytest.mark.parametrize("backend", ["fork", "spawn"])
    def test_workers_match_one_worker_bitwise(self, tmp_path, backend):
        """The store's table ships to process workers in the executor
        payload, packed wide enough for a query-only taxon."""
        from repro.core.shmrf import shm_average_rf
        from repro.newick import write_newick
        from repro.runtime import BACKENDS

        if not BACKENDS[backend].available():
            pytest.skip(f"{backend} unavailable here")
        reference = make_collection(n_taxa=16, n_trees=12, seed=7)
        store = build_store(tmp_path / "s", reference)
        text = "\n".join(write_newick(tree) for tree in reference[:6])
        query = trees_from_string(
            f"{text}\n({write_newick(reference[6])[:-1]},Zed);",
            store.namespace())
        serial = store.average_rf(query)
        table = store.table(len(query[0].taxon_namespace))
        assert shm_average_rf(query, table=table, n_workers=2,
                              executor=backend) == serial
        assert serial == bfhrf_average_rf(query, reference)


class TestQuerySources:
    """``average_rf`` takes what ``add_trees`` takes: Newick paths and
    text are scanned, NEXUS and ``Tree`` lists go through ``Tree``s."""

    def test_every_source_matches_fresh_build(self, tmp_path):
        from repro.newick import write_newick
        from repro.newick.nexus_writer import write_nexus_file

        reference = make_collection(n_taxa=16, n_trees=12, seed=7)
        store = build_store(tmp_path / "s", reference)
        labels = store.labels
        text = "\n".join(write_newick(tree) for tree in reference[:6]) \
            + f"\n({write_newick(reference[6])[:-1]},Zed);\n"
        query = trees_from_string(text, store.namespace())
        want = bfhrf_average_rf(query, reference)
        newick, nexus = tmp_path / "q.nwk", tmp_path / "q.nex"
        newick.write_text(text)
        write_nexus_file(nexus, query)
        for source in (str(newick), newick, text, str(nexus), query):
            assert store.average_rf(source) == want, source
        assert store.labels == labels

        # Zed took no bit in the store: a later add of a new taxon gets
        # the next one, and the query still matches a fresh build.
        added = f"({write_newick(reference[7])[:-1]},Yam);"
        store.add_trees(added)
        assert store.labels == labels + ["Yam"]
        ns = store.namespace()
        current = reference + trees_from_string(added, ns)
        want = bfhrf_average_rf(trees_from_string(text, ns), current)
        assert store.average_rf(text) == want
        assert BFHStore.open(tmp_path / "s").average_rf(str(newick)) == want

    def test_empty_query(self, tmp_path, trees):
        store = build_store(tmp_path / "s", trees)
        assert store.average_rf([]) == []
        path = tmp_path / "empty.nwk"
        path.write_text("")
        assert store.average_rf(path) == []
        assert store.average_rf("") == []  # text, not a path

    def test_foreign_namespace_trees_rejected(self, tmp_path):
        store = build_store(tmp_path / "s",
                            "((A,B),(C,D),E);((A,C),(B,D),E);")
        query = "((E,D),(C,B),A);"
        assert store.average_rf(query) == [4.0]
        with pytest.raises(StoreError, match="namespace conflict"):
            store.average_rf(trees_from_string(query))
        # Taxa past the store's labels are still allowed.
        grown = trees_from_string("((E,D),(C,B),(A,F));", store.namespace())
        reference = trees_from_string("((A,B),(C,D),E);((A,C),(B,D),E);",
                                      grown[0].taxon_namespace)
        assert store.average_rf(grown) == bfhrf_average_rf(grown, reference)


class TestValidation:
    def test_remove_unknown_tree_rejected_atomically(self, tmp_path, trees):
        store = build_store(tmp_path / "s", trees[:2])
        before = store.bfh().counts
        with pytest.raises(StoreError, match="never added"):
            store.remove_trees([trees[0], trees[4]])  # second is foreign
        assert store.bfh().counts == before
        assert store.n_trees == 2

    def test_remove_from_empty_store(self, tmp_path, trees):
        store = BFHStore.create(tmp_path / "s")
        with pytest.raises(StoreError, match="empty"):
            store.remove_trees([trees[0]])

    def test_namespace_conflict_rejected(self, tmp_path):
        a = trees_from_string("((A,B),(C,D),E);")
        b = trees_from_string("((B,A),(C,D),E);")  # B,A swap slots 0/1
        store = build_store(tmp_path / "s", a)
        with pytest.raises(StoreError, match="namespace conflict"):
            store.add_trees(b)

    def test_namespace_extension_is_journaled(self, tmp_path):
        base = trees_from_string("((A,B),(C,D),E);")
        store = build_store(tmp_path / "s", base)
        ns = store.namespace()
        grown = trees_from_string("((A,F),(B,G),(C,D),E);", ns)
        store.add_trees(grown)
        assert store.labels == ["A", "B", "C", "D", "E", "F", "G"]
        reopened = BFHStore.open(tmp_path / "s")
        assert reopened.labels == store.labels
        combined = base + grown
        # Rebuild fresh over the *store's* namespace so masks align.
        want = bfhrf_average_rf(combined, combined)
        assert reopened.average_rf(combined) == want

    def test_failed_add_batch_leaves_store_consistent(self, tmp_path):
        """A conflict on a *later* tree in a batch must not leak earlier
        trees' label extensions into memory (regression: the leaked
        labels made the next add journal records packed for a taxon
        count no extend-ns record announced, bricking the store)."""
        base = trees_from_string("((A,B),(C,D),E);")
        store = build_store(tmp_path / "s", base)
        grown = trees_from_string("((A,F),(B,G),(C,D),E);",
                                  store.namespace())[0]
        bad = trees_from_string("((B,A),(C,D),E);")[0]  # slot 0/1 swap
        with pytest.raises(StoreError, match="namespace conflict"):
            store.add_trees([grown, bad])
        assert store.labels == ["A", "B", "C", "D", "E"]
        assert store.n_trees == 1
        store.add_trees([grown])  # same batch minus the bad tree
        assert store.labels == ["A", "B", "C", "D", "E", "F", "G"]
        reopened = BFHStore.open(tmp_path / "s")
        assert reopened.labels == store.labels
        assert reopened.n_trees == 2

    def test_failed_append_leaves_store_consistent(self, tmp_path, trees,
                                                   monkeypatch):
        store = build_store(tmp_path / "s", trees[:1])
        grown = trees_from_string("((A,F),(B,G),(C,D),E);",
                                  store.namespace())
        monkeypatch.setattr(
            BFHStore, "_append_records",
            lambda self, blobs: (_ for _ in ()).throw(OSError("disk full")))
        with pytest.raises(OSError):
            store.add_trees(grown)
        assert store.labels == ["A", "B", "C", "D", "E"]
        assert store.n_trees == 1
        monkeypatch.undo()
        reopened = BFHStore.open(tmp_path / "s")
        assert reopened.n_trees == 1

    def test_mixed_namespaces_rejected_at_build(self, tmp_path):
        a = trees_from_string("((A,B),(C,D),E);")
        b = trees_from_string("((A,B),(C,D),E);")  # separate namespace object
        with pytest.raises(StoreError, match="share one taxon namespace"):
            build_store(tmp_path / "s", a + b)

    def test_flag_mismatch_between_shard_and_manifest(self, tmp_path, trees):
        import json
        store = build_store(tmp_path / "s", trees)
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        manifest["include_trivial"] = True
        (tmp_path / "s" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptError, match="flags disagree"):
            BFHStore.open(tmp_path / "s")


class TestBatchedBuild:
    """build_store merges a fixed number of trees at a time; a reference
    one tree longer than a batch ends in a one-tree merge."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_batch_boundary_matches_fresh_count(self, tmp_path, weighted):
        from repro.store.store import _BUILD_BATCH

        reference = make_collection(12, _BUILD_BATCH + 1, seed=12)
        table = build_store(tmp_path / "s", reference,
                            weighted=weighted).table()
        fresh = build_bfh(reference)
        assert table.to_bfh().counts == fresh.counts
        assert (table.n_trees, table.total) == (fresh.n_trees, fresh.total)
        if weighted:
            hashed = WeightedBipartitionHash.from_trees(reference)
            assert length_runs(table) == {m: sorted(v) for m, v
                                          in hashed._weights.items()}
        else:
            assert table.lengths is None


class TestWeighted:
    def test_multisets_match_fresh_hash(self, tmp_path):
        reference = make_collection(10, 12, seed=7)
        store = build_store(tmp_path / "s", reference, weighted=True,
                            n_shards=2)
        store.remove_trees(reference[3:6])
        store.compact()
        current = reference[:3] + reference[6:]
        fresh = WeightedBipartitionHash.from_trees(current)
        reopened = BFHStore.open(tmp_path / "s")
        got = reopened.weighted_hash()
        assert {m: sorted(v) for m, v in got._weights.items()} == \
               {m: sorted(v) for m, v in fresh._weights.items()}
        assert got.n_trees == fresh.n_trees
        probe = reference[0]
        assert got.average_branch_score(probe) == pytest.approx(
            fresh.average_branch_score(probe), rel=1e-12)

    def test_weighted_hash_requires_weighted_store(self, tmp_path):
        store = build_store(tmp_path / "s",
                            trees_from_string("((A,B),(C,D),E);"))
        with pytest.raises(StoreError, match="weighted=True"):
            store.weighted_hash()

    def test_remove_checks_branch_lengths(self, tmp_path):
        same_topo = trees_from_string(
            "((A:1,B:1):1,(C:1,D:1):1,E:1);\n((A:1,B:1):2,(C:1,D:1):2,E:1);")
        store = build_store(tmp_path / "s", same_topo[:1], weighted=True)
        with pytest.raises(StoreError, match="branch length"):
            store.remove_trees(same_topo[1:])  # same splits, other lengths

    def test_nan_branch_length_is_refused_before_journaling(self, tmp_path):
        """NaN equals no stored length, so a NaN tree could be added but
        never removed."""
        store = build_store(tmp_path / "s",
                            "((A:1,B:1):1,(C:1,D:1):1,E:1);", weighted=True)
        journal, table = _journal(store), store.table()
        with pytest.raises(StoreError, match="NaN"):
            store.add_trees("((A:1,B:nan):nan,(C:1,D:1):1,E:1);")
        assert _journal(store) == journal
        assert store.table().same_contents(table)
        assert BFHStore.open(tmp_path / "s").n_trees == 1

    def test_add_remove_orders_net_to_one_state(self, tmp_path):
        """Two histories that reach one tree multiset leave equal length
        columns and byte-identical snapshots, lengths shared across trees
        included."""
        trees = ["((A:1,B:1):2,(C:1,D:1):2,E:1);",
                 "((A:1,B:1):2,(C:1,D:1):3,E:1);",
                 "((A:1,C:1):2,(B:1,D:1):2,E:1);",
                 "((A:1,B:1):3,(C:1,D:1):2,E:1);"]
        one = BFHStore.create(tmp_path / "one", weighted=True)
        one.add_trees("\n".join(trees[:3]))
        one.add_trees(trees[0])
        one.remove_trees(trees[1])
        one.add_trees(trees[3])
        two = BFHStore.create(tmp_path / "two", weighted=True)
        two.add_trees("\n".join([trees[3], trees[1], trees[0]]))
        two.remove_trees("\n".join([trees[1], trees[0]]))
        two.add_trees("\n".join([trees[0], trees[2], trees[0]]))
        assert np.array_equal(one.table().lengths, two.table().lengths)
        assert sorted(one.table().lengths.tolist()) == [2.0] * 7 + [3.0]
        assert one.table().same_contents(two.table())
        one.compact()
        two.compact()
        assert [p.read_bytes() for p in sorted((tmp_path / "one").glob(
            "shard-*"))] == [p.read_bytes() for p in sorted(
                (tmp_path / "two").glob("shard-*"))]

    def test_remove_naming_a_tree_twice_changes_nothing(self, tmp_path):
        """The store holds the tree's splits three times (twice under
        other lengths), but its lengths only once."""
        held = "((A:1,B:1):1,(C:1,D:1):1,E:1);"
        other = "((A:1,B:1):2,(C:1,D:1):2,E:1);"
        store = build_store(tmp_path / "s", f"{held}\n{other}", weighted=True)
        store.add_trees(other)
        journal, table = _journal(store), store.table()
        before = table.lengths.copy()
        with pytest.raises(StoreError, match="no stored branch length 1.0"):
            store.remove_trees(held + "\n" + held)
        assert _journal(store) == journal
        assert store.table().same_contents(table)
        assert np.array_equal(store.table().lengths, before)


class TestInfo:
    def test_info_fields(self, tmp_path, trees):
        store = build_store(tmp_path / "s", trees, n_shards=2)
        store.add_trees(trees[:1])
        info = store.info()
        assert info["trees"] == 6
        assert info["snapshot_trees"] == 5
        assert info["journal_records"] == 1
        assert len(info["shards"]) == 2
        assert info["recovered"] is False
        assert info["journal_bytes"] > 26  # header plus the pending record

    def test_shard_snapshots_are_disjoint_and_complete(self, tmp_path, trees):
        """Shards are ascending key ranges: their numeric-order rows,
        shard after shard, are the whole table's, each key once."""
        store = build_store(tmp_path / "s", trees, n_shards=3)
        parts = [data.table.numeric_rows()
                 for _index, data in store.iter_shard_snapshots()]
        keys, counts, _ = store.table().numeric_rows()
        assert np.array_equal(np.concatenate([k for k, _, _ in parts]), keys)
        assert np.array_equal(np.concatenate([c for _, c, _ in parts]),
                              counts)


def _frozen_copy(table):
    return (table.keys.copy(), table.counts.copy(),
            None if table.lengths is None else table.lengths.copy())


def _journal(store):
    return (store.path / f"journal-{store.generation:06d}.log").read_bytes()


class TestStateTable:
    """The store's state is one table; every change is a merge that
    builds new arrays."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_handed_out_table_never_changes(self, tmp_path, weighted):
        reference = make_collection(10, 12, seed=8)
        store = build_store(tmp_path / "s", reference[:6], weighted=weighted)
        handed = store.table()
        before = _frozen_copy(handed)
        store.add_trees(reference[6:])
        store.remove_trees(reference[:3])
        writer = BFHStore.open(tmp_path / "s")
        writer.add_trees(reference[:2])
        assert store.tail_journal() == 2
        assert store.n_trees == 11
        for got, want in zip(_frozen_copy(handed), before):
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want)
            else:
                assert got == want
        assert handed.n_trees == 6

    def test_remove_replayed_before_its_add_is_corruption(self, tmp_path):
        """A journal whose ``remove`` of a tree precedes its ``add`` must
        not replay, even though the two records cancel out."""
        from repro.store.format import encode_record, read_journal

        reference = make_collection(10, 2, seed=9)
        store = BFHStore.create(tmp_path / "s")
        store.add_trees(reference)
        store.remove_trees(reference[1:])
        path = tmp_path / "s" / "journal-000000.log"
        records, _offset, _torn = read_journal(path)
        extend, add_u, add_t, remove_t = records
        blob = path.read_bytes()
        path.write_bytes(blob[:26] + b"".join(
            encode_record(r.op, r.payload)
            for r in (extend, add_u, remove_t, add_t)))
        with pytest.raises(StoreCorruptError, match="replay failed"):
            BFHStore.open(tmp_path / "s")

    def test_failed_remove_changes_nothing(self, tmp_path):
        reference = make_collection(10, 6, seed=10)
        store = build_store(tmp_path / "s", reference[:4])
        store.add_trees(reference[:1])
        journal, table = _journal(store), store.table()
        with pytest.raises(StoreError, match="never added"):
            store.remove_trees([reference[0], reference[5]])
        assert _journal(store) == journal
        assert store.table().same_contents(table)
        assert store.journal_records == 1

    def test_long_uncompacted_journal_replays_exactly(self, tmp_path):
        """2,000 single-tree records, in runs of adds and removes, open
        to the table a fresh count gives."""
        from repro.core.table import BipartitionTable

        reference = make_collection(12, 1500, seed=11)
        store = BFHStore.create(tmp_path / "s")
        store.add_trees(reference[:1000])
        store.remove_trees(reference[200:400])
        store.add_trees(reference[1000:])
        store.remove_trees(reference[600:900])
        assert store.journal_records == 1 + 2000
        current = reference[:200] + reference[400:600] + reference[900:]
        fresh = build_bfh(current)
        want = BipartitionTable.from_counts(
            fresh.counts, n_taxa=12, n_trees=fresh.n_trees, total=fresh.total)
        assert BFHStore.open(tmp_path / "s").table().same_contents(want)
        assert store.table().same_contents(want)
