"""Tests for repro.bipartitions.scan, the columnar split scanner.

The scanner must accept exactly what ``parse_newick`` accepts, fail with
the parser's own error, and give every tree the split rows the ``Tree``
path gives: ``masks_to_words(sorted(bipartition_masks(tree)))``.
"""

import gzip

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.bipartitions.encoding import words_for_taxa
from repro.bipartitions.extract import bipartition_masks
from repro.bipartitions.scan import SplitBlock, scan_newick_file, \
    scan_newick_text, scan_records
from repro.core.api import average_rf
from repro.core.bfhrf import bfhrf_average_rf
from repro.core.table import words_to_masks
from repro.newick import parse_newick, read_newick_file, trees_from_string
from repro.trees import TaxonNamespace
from repro.util.errors import CollectionError, NewickParseError, ReproError, \
    TaxonError

from tests.newick.test_fuzz import NEWICK_FILE, NEWICK_RECORDS, _prefixes, \
    newick_soup
from tests.newick.test_parser import PINNED


def _scanned_splits(scanned, n_words, include_trivial):
    """Per tree, the sorted masks of the scanned block."""
    block = scanned.block(n_words, include_trivial=include_trivial)
    ends = np.cumsum(block.counts)
    return [sorted(words_to_masks(block.words[end - count:end]))
            for end, count in zip(ends, block.counts)]


def _tree_splits(trees, include_trivial):
    return [sorted(bipartition_masks(t, include_trivial=include_trivial))
            for t in trees]


def _outcome(read, *args):
    """What a reader does with its input: its splits or its error."""
    ns = TaxonNamespace()
    try:
        result = read(*args, ns)
    except ReproError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    if not isinstance(result, list):  # scanned
        n_words = words_for_taxa(max(1, len(ns)))
        return ns.labels, list(result.leaf_counts), [
            _scanned_splits(result, n_words, trivial)
            for trivial in (False, True)]
    return ns.labels, [t.n_leaves for t in result], [
        _tree_splits(result, trivial) for trivial in (False, True)]


def _ladder(labels):
    text = labels[0]
    for label in labels[1:]:
        text = f"({text},{label})"
    return text


def _scan_one(record, ns):
    return scan_records([record], ns)


def _parse_one(record, ns):
    return [parse_newick(record, ns)]


def _assert_same_as_parser(record):
    assert _outcome(_scan_one, record) == _outcome(_parse_one, record)


def _assert_text_same_as_reader(text):
    assert _outcome(scan_newick_text, text) \
        == _outcome(trees_from_string, text)


class TestParserContract:
    @pytest.mark.parametrize("text, expected", PINNED)
    def test_pinned_rows(self, text, expected):
        if isinstance(expected, str):
            _assert_same_as_parser(text)
            return
        exc_type, message, position = expected
        with pytest.raises(exc_type) as err:
            scan_records([text], TaxonNamespace())
        if position is None:
            assert str(err.value) == message
        else:
            assert err.value.position == position
            assert str(err.value) == f"{message} (position {position})"

    @settings(max_examples=300, deadline=None)
    @example("((A,B),(C,D));")
    @example("(A:1:2,B);")
    @example("(A,B)C:1;")
    @example("A:1;")
    @example("((A,B));")
    @example("(A)B(C);")
    @example("(A,B):x;")
    @given(newick_soup)
    def test_soup_matches_parser(self, text):
        _assert_same_as_parser(text)

    def test_first_bad_record_is_reported_with_namespace_as_parser(self):
        records = ["(A,B,C);", "(D,E);", "(F,(G,);", "(H,I);"]
        ns = TaxonNamespace()
        with pytest.raises(NewickParseError) as err:
            scan_records(records, ns)
        assert str(err.value) == "expected subtree, got ')' (position 6)"
        # The parser reads records 1-2 and the failing record's own
        # leaves before it fails; so does the scanner.
        assert ns.labels == list("ABCDEFG")


class TestTruncation:
    """Every prefix of a valid input behaves as it does for the parser."""

    def test_record_prefixes(self):
        for record in NEWICK_RECORDS:
            for prefix in _prefixes(record):
                _assert_same_as_parser(prefix)

    def test_file_prefixes(self):
        for prefix in _prefixes(NEWICK_FILE):
            _assert_text_same_as_reader(prefix)


class TestSplits:
    def test_lowest_taxon_anchors_each_tree(self):
        # The second tree lacks A and B: its splits are normalized
        # against C, not taxon 0.
        _assert_text_same_as_reader(
            "((A,B),(C,D),(E,F));\n((C,D),(E,(F,G)));\n((G,E),(D,C),F);\n")

    def test_bifurcating_root_emits_each_split_once(self):
        labels = [f"T{i:03d}" for i in range(144)]

        def balanced(part):
            if len(part) == 1:
                return part[0]
            half = len(part) // 2
            return f"({balanced(part[:half])},{balanced(part[half:])})"

        scanned = scan_newick_text(balanced(labels) + ";", TaxonNamespace())
        assert len(scanned.lo) == 142
        block = scanned.block(words_for_taxa(144))
        assert block.counts.tolist() == [141]
        assert len(np.unique(block.words, axis=0)) == 141

    def test_include_trivial(self):
        text = "((A,B),(C,(D,E)));\n(A,(B,C));\n(A,B);\n(A);\nA;\n((A,B));\n"
        _assert_text_same_as_reader(text)
        scanned = scan_newick_text(text, TaxonNamespace())
        counts = scanned.block(1, include_trivial=True).counts.tolist()
        assert counts == [7, 3, 1, 0, 0, 1]

    def test_star_and_unary_groups(self):
        _assert_text_same_as_reader("(A,B,C,D,E);\n(((A,B)),((C,D,E)));\n")

    @pytest.mark.parametrize("n_taxa", [63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, n_taxa):
        labels = [f"t{i}" for i in range(n_taxa)]
        shuffled = [labels[(7 * i) % n_taxa] for i in range(n_taxa)] \
            if n_taxa % 7 else labels[::-1]
        _assert_text_same_as_reader(
            f"{_ladder(labels)};\n{_ladder(shuffled)};\n")

    def test_quotes_comments_lengths_and_internal_labels(self):
        text = ("(('it''s':1.5,B)[c;]x:2,('C D',E)'in''t':0.5,F)root;\n"
                "[lead](('it''s',E),(B,'C D'),F:1e-3)'';\n"
                "(A\x0bB,C\xa0D,(E,F));\n")
        _assert_text_same_as_reader(text)
        ns = TaxonNamespace()
        scan_newick_text(text, ns)
        assert "it's" in ns.labels and "A\x0bB" in ns.labels

    def test_duplicate_taxon(self, tmp_path):
        with pytest.raises(TaxonError, match="duplicate taxon label 'A'"):
            scan_newick_text("(A,B,C);\n(A,(B,A));\n", TaxonNamespace())
        path = tmp_path / "dup.nwk"
        path.write_text("(A,B,C);\n(A,(B,A));\n")
        _assert_same_error(path)


def _assert_same_error(path):
    with pytest.raises(ReproError) as want:
        read_newick_file(path, TaxonNamespace())
    with pytest.raises(ReproError) as got:
        scan_newick_file(path, TaxonNamespace())
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


class TestFiles:
    def test_parse_error_names_the_record(self, tmp_path):
        path = tmp_path / "bad.nwk"
        path.write_text("(A,B);\n# comment\n(A,(B,C);\n(C\n")
        _assert_same_error(path)
        with pytest.raises(NewickParseError, match=r"tree record 2: "):
            scan_newick_file(path, TaxonNamespace())

    def test_trailing_text(self, tmp_path):
        path = tmp_path / "tail.nwk"
        path.write_text("(A,B);\n(C,D)")
        _assert_same_error(path)

    def test_gzip(self, tmp_path):
        path = tmp_path / "trees.nwk.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("((A,B),(C,D));\n((A,C),(B,D));\n")
        scanned = scan_newick_file(path, TaxonNamespace())
        assert len(scanned) == 2

    def test_empty_file_raises_as_tree_path(self, tmp_path):
        path = tmp_path / "empty.nwk"
        path.write_text("\n# nothing here\n")
        assert len(scan_newick_file(path, TaxonNamespace())) == 0
        with pytest.raises(CollectionError) as want:
            average_rf(path, method="bfhrf")
        with pytest.raises(CollectionError) as got:
            average_rf(path)
        assert str(got.value) == str(want.value)


class TestAverageRF:
    def _files(self, tmp_path, query, reference):
        q, r = tmp_path / "q.nwk", tmp_path / "r.nwk"
        q.write_text(query)
        r.write_text(reference)
        return q, r

    def test_unknown_reference_taxa_widen_the_query(self, tmp_path):
        # The query scan ends with 60 taxa (one word); the reference adds
        # 10 more, so both sides pack at two words.
        query = "".join(_ladder([f"q{(7 * i + k) % 60}" for i in range(60)])
                        + ";\n" for k in range(3))
        reference = "(" + ",".join(f"n{i}" for i in range(10)) \
            + ",(q0,q1),(q2,(q3,q4)));\n"
        q, r = self._files(tmp_path, query, reference)
        ns = TaxonNamespace()
        want = bfhrf_average_rf(read_newick_file(q, ns), read_newick_file(r, ns))
        assert len(ns) == 70
        assert average_rf(q, r) == want
        assert average_rf(str(q), str(r), include_trivial=True) \
            == bfhrf_average_rf(read_newick_file(q, ns),
                                read_newick_file(r, ns), include_trivial=True)

    def test_text_and_normalized(self):
        text = "((A,B),(C,D),E);\n((A,C),(B,D),E);\n((A,B),C,D);\n"
        trees = trees_from_string(text)
        assert average_rf(text) == bfhrf_average_rf(trees)
        assert average_rf(text, normalized=True) \
            == average_rf(trees, normalized=True)

    def test_dispatch_builds_no_tree(self, tmp_path, monkeypatch):
        import repro.core.api as api

        q, r = self._files(tmp_path, "((A,B),(C,D));\n", "((A,C),(B,D));\n")

        def no_trees(*args, **kwargs):
            raise AssertionError("built Trees")

        monkeypatch.setattr(api, "read_newick_file", no_trees)
        monkeypatch.setattr(api, "trees_from_string", no_trees)
        assert average_rf(q, r) == [2.0]
        assert average_rf("((A,B),(C,D));") == [0.0]
        with pytest.raises(AssertionError):
            average_rf(q, r, method="bfhrf")
        for n_workers in (2, 0):
            assert average_rf(q, r, n_workers=n_workers) == [2.0]

    def test_all_cpu_worker_count_keeps_the_tree_path_values(self, tmp_path):
        q, r = self._files(tmp_path, "((A,B),(C,D),E);\n((A,C),(B,D),E);\n",
                           "((A,C),(B,D),E);\n((A,B),(C,E),D);\n")
        ns = TaxonNamespace()
        trees = read_newick_file(q, ns), read_newick_file(r, ns)
        assert average_rf(*trees, n_workers=0) == average_rf(q, r, n_workers=0)


class TestSplitBlock:
    def test_tree_and_scan_blocks_score_alike(self):
        from repro.core.bfhrf import build_bfh
        from repro.core.table import BipartitionTable

        text = "(A,B,C,D,E);\n((A,B),(C,(D,E)));\n(A,B,(C,D,E));\n"
        ns = TaxonNamespace()
        trees = trees_from_string(text, ns)
        vbfh = BipartitionTable.from_bfh(build_bfh(trees), len(ns)).vectorized()
        scanned = scan_newick_text(text, TaxonNamespace())
        tree_block = vbfh.split_block(trees)
        scan_block = vbfh.split_block(scanned)
        assert tree_block.counts.tolist() == scan_block.counts.tolist() \
            == [0, 2, 1]
        both = SplitBlock.concat([tree_block, scan_block])
        values = vbfh.average_rf_block(both).tolist()
        assert values[:3] == values[3:] == vbfh.average_rf_batch(trees).tolist()
