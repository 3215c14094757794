"""The ``bfhrf store`` verb family end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.bfhrf import bfhrf_average_rf
from repro.newick import read_newick_file
from repro.trees.taxon import TaxonNamespace

NWK = ("((A,B),(C,D),E);\n((A,C),(B,D),E);\n"
       "((A,E),(B,C),D);\n((A,B),(C,E),D);\n")


@pytest.fixture
def trees_file(tmp_path):
    path = tmp_path / "trees.nwk"
    path.write_text(NWK)
    return str(path)


@pytest.fixture
def store_dir(tmp_path, trees_file):
    path = tmp_path / "store"
    assert main(["store", "build", str(path), "-r", trees_file,
                 "--shards", "2", "--quiet"]) == 0
    return str(path)


class TestBuildAndInfo:
    def test_build_then_info(self, store_dir, capsys):
        assert main(["store", "info", store_dir, "--quiet"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["trees"] == 4
        assert len(info["shards"]) == 2
        assert info["journal_records"] == 0
        # The verb adds the codec projections where info() once had them.
        keys = list(info)
        assert keys.index("projected_bytes") + 1 == keys.index("shards")
        assert set(info["projected_bytes"]) == {"raw-u64", "succinct-v1"}

    def test_build_refuses_overwrite(self, store_dir, trees_file, capsys):
        assert main(["store", "build", store_dir, "-r", trees_file,
                     "--quiet"]) == 2
        assert "already contains" in capsys.readouterr().err

    def test_info_on_non_store(self, tmp_path, capsys):
        assert main(["store", "info", str(tmp_path / "no"), "--quiet"]) == 2
        assert "not a BFH store" in capsys.readouterr().err


class TestQueryMatchesAvgRf:
    def test_warm_query_equals_direct_computation(self, store_dir, trees_file,
                                                  capsys):
        assert main(["store", "query", store_dir, trees_file, "--quiet"]) == 0
        got = [float(line.split("\t")[1])
               for line in capsys.readouterr().out.strip().splitlines()]
        trees = read_newick_file(trees_file, TaxonNamespace())
        assert got == pytest.approx(bfhrf_average_rf(trees, trees), abs=5e-7)

    def test_add_remove_cycle_returns_to_start(self, store_dir, trees_file,
                                               capsys):
        assert main(["store", "query", store_dir, trees_file, "--quiet"]) == 0
        before = capsys.readouterr().out
        assert main(["store", "add", store_dir, trees_file, "--quiet"]) == 0
        assert main(["store", "remove", store_dir, trees_file, "--quiet"]) == 0
        assert main(["store", "query", store_dir, trees_file, "--quiet"]) == 0
        assert capsys.readouterr().out == before

    def test_compact_preserves_answers(self, store_dir, trees_file, capsys):
        assert main(["store", "add", store_dir, trees_file, "--quiet"]) == 0
        assert main(["store", "query", store_dir, trees_file, "--quiet"]) == 0
        before = capsys.readouterr().out
        assert main(["store", "compact", store_dir, "--shards", "3",
                     "--quiet"]) == 0
        assert main(["store", "query", store_dir, trees_file, "--quiet"]) == 0
        assert capsys.readouterr().out == before
        assert main(["store", "info", store_dir, "--quiet"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["generation"] == 2
        assert info["journal_records"] == 0
        assert len(info["shards"]) == 3

    def test_remove_foreign_tree_is_an_error(self, store_dir, tmp_path,
                                             capsys):
        foreign = tmp_path / "foreign.nwk"
        foreign.write_text("((A,D),(B,E),C);\n")
        assert main(["store", "remove", store_dir, str(foreign),
                     "--quiet"]) == 2
        assert "never added" in capsys.readouterr().err


class TestObservability:
    def test_metrics_report_carries_store_spans(self, store_dir, trees_file,
                                                tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["store", "compact", store_dir, "--shards", "2",
                     "--metrics-out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())

        def span_names(nodes):
            for node in nodes:
                yield node["name"]
                yield from span_names(node.get("children", []))

        names = set(span_names(report["spans"]))
        assert {"cli.store", "store.open", "store.compact",
                "store.shard"} <= names
        assert "store.compactions" in report["metrics"]["counters"]

    def test_trace_prints_span_tree(self, store_dir, trees_file, capsys):
        assert main(["store", "query", store_dir, trees_file, "--trace"]) == 0
        err = capsys.readouterr().err
        assert "store.open" in err
        assert "store.query" in err


# An add file whose second tree brings two new taxa, and a remove file
# holding one tree of each file.
ADD = "((A,B),(C,E),D);\n((A,F),(B,G),(C,D),E);\n((A,F),(B,C),(D,E),G);\n"
REMOVE = "((A,C),(B,D),E);\n((A,F),(B,G),(C,D),E);\n"


def _dir_bytes(path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestTextInput:
    """``store build|add|remove|query`` pass their files straight to the
    store, which scans Newick text with no ``Tree``; the directory a
    write leaves must be the one the ``Tree`` path writes, byte for
    byte."""

    @pytest.fixture
    def files(self, tmp_path, trees_file):
        (tmp_path / "add.nwk").write_text(ADD)
        (tmp_path / "remove.nwk").write_text(REMOVE)
        return trees_file, str(tmp_path / "add.nwk"), \
            str(tmp_path / "remove.nwk")

    def test_cli_text_matches_tree_path(self, tmp_path, files):
        from repro.store import build_store

        reference, add, remove = files
        scanned = tmp_path / "scanned"
        for argv in (["build", str(scanned), "-r", reference,
                      "--shards", "2"],
                     ["add", str(scanned), add],
                     ["remove", str(scanned), remove]):
            assert main(["store", *argv, "--quiet"]) == 0
        parsed = tmp_path / "parsed"
        store = build_store(parsed, read_newick_file(
            reference, TaxonNamespace()), n_shards=2)
        store.add_trees(read_newick_file(add, store.namespace()))
        store.remove_trees(read_newick_file(remove, store.namespace()))
        assert _dir_bytes(scanned) == _dir_bytes(parsed)
        from repro.store.format import OP_EXTEND_NS, read_journal

        records, _offset, _torn = read_journal(
            scanned / "journal-000001.log")
        assert [r.op == OP_EXTEND_NS for r in records] == \
            [True] + [False] * 5  # one extend-ns, 3 adds, 2 removes

    def test_remove_of_never_added_text_journals_nothing(self, tmp_path,
                                                         files):
        from repro.store import BFHStore, build_store
        from repro.util.errors import StoreError

        reference, add, _remove = files
        store = build_store(tmp_path / "s", reference)
        journal = tmp_path / "s" / "journal-000001.log"
        before = journal.read_bytes()
        for never_added in (add, "((A,D),(B,E),C);"):
            with pytest.raises(StoreError, match="never added"):
                store.remove_trees(never_added)
        assert journal.read_bytes() == before
        assert BFHStore.open(tmp_path / "s").n_trees == 4

    def test_newick_build_and_add_build_no_tree(self, tmp_path, files,
                                                monkeypatch, capsys):
        import repro.newick.io
        import repro.newick.parser

        def refuse(*args, **kwargs):
            raise AssertionError("a Tree was parsed")

        monkeypatch.setattr(repro.newick.parser, "parse_newick", refuse)
        monkeypatch.setattr(repro.newick.io, "parse_newick", refuse)
        reference, add, _remove = files
        path = str(tmp_path / "s")
        assert main(["store", "build", path, "-r", reference, "--quiet"]) == 0
        assert main(["store", "add", path, add, "--quiet"]) == 0
        assert main(["store", "query", path, add, "--quiet"]) == 0
        out = capsys.readouterr().out
        from repro.store import BFHStore

        store = BFHStore.open(path)
        assert store.n_trees == 7
        assert store.labels == list("ABCDEFG")
        monkeypatch.undo()
        ns = TaxonNamespace()
        current = read_newick_file(reference, ns) + read_newick_file(add, ns)
        want = bfhrf_average_rf(read_newick_file(add, ns), current)
        assert out == "".join(f"{i}\t{value:.6f}\n"
                              for i, value in enumerate(want))
