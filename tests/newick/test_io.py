"""Unit tests for repro.newick.io (streaming multi-tree files)."""

import io

import pytest

from repro.newick.io import (
    iter_newick_file,
    iter_newick_strings,
    read_newick_file,
    trees_from_string,
    trees_to_string,
    write_newick_file,
)
from repro.trees import TaxonNamespace
from repro.util.errors import NewickParseError

from tests.conftest import make_collection


class TestIterNewickStrings:
    def test_one_per_line(self):
        records = list(iter_newick_strings(io.StringIO("(A,B);\n(C,D);\n")))
        assert records == ["(A,B);", "(C,D);"]

    def test_multiline_record(self):
        text = "((A,\nB),\n(C,D));\n(A,B);\n"
        records = list(iter_newick_strings(io.StringIO(text)))
        assert len(records) == 2
        assert records[0].replace("\n", "") == "((A,B),(C,D));"

    def test_multiple_records_one_line(self):
        records = list(iter_newick_strings(io.StringIO("(A,B);(C,D);")))
        assert records == ["(A,B);", "(C,D);"]

    def test_blank_and_comment_lines_skipped(self):
        text = "# a comment\n\n(A,B);\n\n# another\n(C,D);\n"
        records = list(iter_newick_strings(io.StringIO(text)))
        assert records == ["(A,B);", "(C,D);"]
        assert [t.n_leaves for t in trees_from_string(text)] == [2, 2]

    def test_reads_one_line_at_a_time(self):
        def lines():
            yield "(A,B);\n"
            yield "(C,"
            raise AssertionError("read past the line holding the first record")

        assert next(iter_newick_strings(lines())) == "(A,B);"

    def test_semicolon_in_quotes_not_a_separator(self):
        records = list(iter_newick_strings(io.StringIO("('a;b',C);\n")))
        assert records == ["('a;b',C);"]

    def test_semicolon_in_comment_not_a_separator(self):
        records = list(iter_newick_strings(io.StringIO("(A[x;y],B);\n")))
        assert records == ["(A[x;y],B);"]

    def test_trailing_garbage_raises(self):
        with pytest.raises(NewickParseError):
            list(iter_newick_strings(io.StringIO("(A,B);\n(C,D)")))

    def test_empty_stream(self):
        assert list(iter_newick_strings(io.StringIO(""))) == []


class TestFileRoundtrip:
    def test_write_then_stream(self, tmp_path):
        trees = make_collection(10, 8, seed=5)
        path = tmp_path / "trees.nwk"
        assert write_newick_file(path, trees) == 8
        ns = TaxonNamespace()
        loaded = list(iter_newick_file(path, ns))
        assert len(loaded) == 8
        assert all(t.n_leaves == 10 for t in loaded)

    def test_streaming_is_lazy(self, tmp_path):
        trees = make_collection(6, 5, seed=6)
        path = tmp_path / "trees.nwk"
        write_newick_file(path, trees)
        it = iter_newick_file(path)
        first = next(it)
        assert first.n_leaves == 6  # no need to exhaust

    def test_read_newick_file_shares_namespace(self, tmp_path):
        trees = make_collection(6, 4, seed=7)
        path = tmp_path / "trees.nwk"
        write_newick_file(path, trees)
        loaded = read_newick_file(path)
        assert all(t.taxon_namespace is loaded[0].taxon_namespace for t in loaded)

    def test_topology_preserved(self, tmp_path):
        from repro.bipartitions import bipartition_masks

        trees = make_collection(12, 6, seed=8)
        path = tmp_path / "trees.nwk"
        write_newick_file(path, trees)
        ns = TaxonNamespace(trees[0].taxon_namespace.labels)
        loaded = read_newick_file(path, ns)
        for original, copy in zip(trees, loaded):
            assert bipartition_masks(original) == bipartition_masks(copy)

    def test_parse_error_reports_record(self, tmp_path):
        path = tmp_path / "bad.nwk"
        path.write_text("(A,B);\n(C,,D);\n")
        with pytest.raises(NewickParseError) as err:
            list(iter_newick_file(path))
        assert "record 2" in str(err.value)

    def test_unweighted_write(self, tmp_path):
        trees = make_collection(6, 3, seed=9)
        path = tmp_path / "unweighted.nwk"
        write_newick_file(path, trees, include_lengths=False)
        assert ":" not in path.read_text()


class TestStringHelpers:
    def test_trees_to_from_string(self):
        trees = make_collection(8, 4, seed=10)
        text = trees_to_string(trees)
        again = trees_from_string(text)
        assert len(again) == 4
        assert again[0].n_leaves == 8

    def test_trees_from_string_shared_namespace(self):
        trees = trees_from_string("((A,B),(C,D));\n((A,C),(B,D));")
        assert trees[0].taxon_namespace is trees[1].taxon_namespace


# Pinned record splitting: each input stream maps to the records it
# yields, or to the error it raises.  ';' ends a record only outside
# quoted labels and [...] comments, which may span lines.
PINNED_RECORDS = [
    ("", []),
    ("\n\n", []),
    ("(A,B);\n(C,D);\n", ["(A,B);", "(C,D);"]),
    ("(A,B);(C,D);", ["(A,B);", "(C,D);"]),
    ("  (A,B) ;  \n", ["(A,B) ;"]),
    ("((A,\nB),\n(C,D));\n", ["((A,\nB),\n(C,D));"]),
    ("# head\n\n(A,B);\n", ["(A,B);"]),
    ("('a;b',C);\n", ["('a;b',C);"]),
    ("('it''s;',B);", ["('it''s;',B);"]),
    ("('q[z;',B);", ["('q[z;',B);"]),
    ("(A[x;y],B);\n", ["(A[x;y],B);"]),
    ("(A[it's;],B);", ["(A[it's;],B);"]),
    ("('a\n;b',C);\n(D,E);", ["('a\n;b',C);", "(D,E);"]),
    ("(A[x\n;y],B);\n(D,E);", ["(A[x\n;y],B);", "(D,E);"]),
    ("(A],B);", ["(A],B);"]),
    ("(A,B);\n(C,D)", NewickParseError),
    ("(A,B);\n('open;\n", NewickParseError),
    ("(A,B);\n(C[open;\n", NewickParseError),
]


@pytest.mark.parametrize("text, expected", PINNED_RECORDS)
def test_pinned_records(text, expected):
    if isinstance(expected, list):
        assert list(iter_newick_strings(io.StringIO(text))) == expected
        return
    with pytest.raises(expected, match="trailing data without terminating ';'"):
        list(iter_newick_strings(io.StringIO(text)))
