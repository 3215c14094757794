"""Unit tests for the minimal NEXUS TREES reader."""

import io

import pytest

from repro.bipartitions import bipartition_masks
from repro.newick import parse_newick
from repro.newick.nexus import (
    _statements,
    iter_nexus_trees,
    parse_translate_block,
    read_nexus_trees,
)
from repro.trees import TaxonNamespace
from repro.util.errors import NewickParseError

BASIC = """#NEXUS
BEGIN TREES;
  TRANSLATE
    1 A,
    2 B,
    3 C,
    4 D;
  TREE t1 = [&U] ((1,2),(3,4));
  TREE t2 = [&R] ((1,3),(2,4));
END;
"""

NO_TRANSLATE = """#NEXUS
BEGIN TREES;
  TREE one = ((A,B),(C,D));
END;
"""

WITH_OTHER_BLOCKS = """#NEXUS
BEGIN TAXA;
  DIMENSIONS NTAX=4;
  TAXLABELS A B C D;
END;
BEGIN TREES;
  TREE a = ((A,B),(C,D));
END;
BEGIN NOTES;
  TEXT whatever;
END;
"""


class TestTranslate:
    def test_basic_table(self):
        assert parse_translate_block("TRANSLATE 1 Homo_sapiens, 2 Pan") == {
            "1": "Homo_sapiens", "2": "Pan"}

    def test_quoted_labels(self):
        table = parse_translate_block("TRANSLATE 1 'Homo sapiens'")
        assert table == {"1": "Homo sapiens"}

    def test_malformed_entry(self):
        with pytest.raises(NewickParseError):
            parse_translate_block("TRANSLATE justonetoken,")

    def test_quoted_label_with_comma(self):
        """Regression (selfcheck-found): the entry splitter used to cut
        quoted labels at their internal commas."""
        table = parse_translate_block("TRANSLATE 1 'c,d', 2 X")
        assert table == {"1": "c,d", "2": "X"}

    def test_quoted_label_with_escaped_quote(self):
        table = parse_translate_block("TRANSLATE 1 'it''s'")
        assert table == {"1": "it's"}

    def test_quoted_label_with_spaces_and_structure(self):
        table = parse_translate_block(
            "TRANSLATE 1 'taxon one', 2 'a(b)', 3 'x:y'")
        assert table == {"1": "taxon one", "2": "a(b)", "3": "x:y"}


class TestQuoteAwareStatements:
    def test_quoted_semicolon_label(self):
        """Regression (selfcheck-found): ``;`` inside a quoted label used
        to terminate the statement early."""
        text = ("#NEXUS\nBEGIN TREES;\n"
                "TREE t = (('semi;colon',B),(C,D));\nEND;\n")
        trees = read_nexus_trees(io.StringIO(text))
        assert sorted(trees[0].leaf_labels()) == ["B", "C", "D", "semi;colon"]

    def test_quoted_bracket_label_not_a_comment(self):
        text = ("#NEXUS\nBEGIN TREES;\n"
                "TREE t = (('q[z]',B),(C,D));\nEND;\n")
        trees = read_nexus_trees(io.StringIO(text))
        assert sorted(trees[0].leaf_labels()) == ["B", "C", "D", "q[z]"]

    def test_translate_with_quoted_semicolon(self):
        text = ("#NEXUS\nBEGIN TREES;\n"
                "TRANSLATE 1 'semi;colon', 2 B, 3 C, 4 D;\n"
                "TREE t = ((1,2),(3,4));\nEND;\n")
        trees = read_nexus_trees(io.StringIO(text))
        assert sorted(trees[0].leaf_labels()) == ["B", "C", "D", "semi;colon"]

    def test_comment_between_statements_still_stripped(self):
        text = ("#NEXUS\nBEGIN TREES;\n"
                "[a block comment; with a semicolon]\n"
                "TREE t = [&U] ((A,B),(C,D));\nEND;\n")
        trees = read_nexus_trees(io.StringIO(text))
        assert trees[0].n_leaves == 4


class TestReader:
    def test_basic_file(self):
        trees = read_nexus_trees(io.StringIO(BASIC))
        assert len(trees) == 2
        assert sorted(trees[0].leaf_labels()) == ["A", "B", "C", "D"]
        assert bipartition_masks(trees[0]) == {0b0011}

    def test_shared_namespace_across_trees(self):
        trees = read_nexus_trees(io.StringIO(BASIC))
        assert trees[0].taxon_namespace is trees[1].taxon_namespace

    def test_no_translate(self):
        trees = read_nexus_trees(io.StringIO(NO_TRANSLATE))
        assert sorted(trees[0].leaf_labels()) == ["A", "B", "C", "D"]

    def test_other_blocks_skipped(self):
        trees = read_nexus_trees(io.StringIO(WITH_OTHER_BLOCKS))
        assert len(trees) == 1

    def test_missing_header_rejected(self):
        with pytest.raises(NewickParseError):
            read_nexus_trees(io.StringIO("BEGIN TREES; TREE a = (A,B); END;"))

    def test_string_input(self):
        trees = read_nexus_trees(BASIC)
        assert len(trees) == 2

    def test_path_input(self, tmp_path):
        path = tmp_path / "trees.nex"
        path.write_text(BASIC)
        trees = read_nexus_trees(path)
        assert len(trees) == 2

    def test_streaming(self):
        it = iter_nexus_trees(io.StringIO(BASIC))
        first = next(it)
        assert first.n_leaves == 4

    def test_external_namespace(self):
        ns = TaxonNamespace(["A", "B", "C", "D"])
        trees = read_nexus_trees(io.StringIO(BASIC), ns)
        assert trees[0].taxon_namespace is ns
        assert len(ns) == 4

    def test_comparable_with_newick_parsed_trees(self):
        """NEXUS trees must interoperate with Newick-parsed ones."""
        from repro.core.rf import robinson_foulds

        ns = TaxonNamespace()
        nexus_trees = read_nexus_trees(io.StringIO(BASIC), ns)
        newick_tree = parse_newick("((A,B),(C,D));", ns)
        assert robinson_foulds(nexus_trees[0], newick_tree) == 0
        assert robinson_foulds(nexus_trees[1], newick_tree) == 2

    def test_multiline_tree_statement(self):
        text = "#NEXUS\nBEGIN TREES;\nTREE x =\n ((A,B),\n (C,D));\nEND;\n"
        trees = read_nexus_trees(io.StringIO(text))
        assert trees[0].n_leaves == 4

    def test_star_tree_annotations_stripped(self):
        text = "#NEXUS\nBEGIN TREES;\nTREE * best = [&U][&lnL=-5] ((A,B),(C,D));\nEND;\n"
        trees = read_nexus_trees(io.StringIO(text))
        assert trees[0].n_leaves == 4


# Pinned NEXUS statement splitting: comments outside quoted labels are
# dropped, ';' ends a statement only outside quotes and comments, and a
# trailing statement without ';' is still yielded.  An unterminated
# comment drops the rest of the input; an unterminated quote keeps it.
PINNED_STATEMENTS = [
    ("", []),
    (";; ;\n", []),
    ("BEGIN TREES;\nTREE t = [&U] ((A,B),(C,D));\nEND;\n",
     ["BEGIN TREES", "TREE t =  ((A,B),(C,D))", "END"]),
    ("TREE t = (('semi;colon',B),(C,D));", ["TREE t = (('semi;colon',B),(C,D))"]),
    ("TREE t = (('q[z]',B),C);", ["TREE t = (('q[z]',B),C)"]),
    ("TREE t = (('it''s;',B),C);", ["TREE t = (('it''s;',B),C)"]),
    ("TREE t = ('a\nb',C);", ["TREE t = ('a\nb',C)"]),
    ("[a; comment]\nEND;", ["END"]),
    ("[it's]END;", ["END"]),
    ("BEGIN [x\ny] TREES;", ["BEGIN  TREES"]),
    ("TRANSLATE\n  1 A,\n  2 B;\n", ["TRANSLATE\n  1 A,\n  2 B"]),
    ("END]; x", ["END]", "x"]),
    ("BEGIN TREES;\nEND", ["BEGIN TREES", "END"]),
    ("BEGIN TREES;\nTREE t = (A,B)[oops; END;\n",
     ["BEGIN TREES", "TREE t = (A,B)"]),
    ("BEGIN TREES;\nTREE t = ('open;[x] END;\n",
     ["BEGIN TREES", "TREE t = ('open;[x] END;"]),
]


@pytest.mark.parametrize("text, expected", PINNED_STATEMENTS)
def test_pinned_statements(text, expected):
    assert list(_statements(io.StringIO(text))) == expected


PINNED_TRANSLATE = [
    ("TRANSLATE 1 Homo_sapiens, 2 Pan", {"1": "Homo_sapiens", "2": "Pan"}),
    ("translate\n\t1 'taxon one',\n\t2 'a(b)',\n\t3 'x:y'",
     {"1": "taxon one", "2": "a(b)", "3": "x:y"}),
    ("TRANSLATE 1 'c,d', 2 'it''s', 3 ''''", {"1": "c,d", "2": "it's", "3": "'"}),
    ("TRANSLATE 1 'semi;colon', 2 'q[z]'", {"1": "semi;colon", "2": "q[z]"}),
    ("TRANSLATE 1 'a\nb'", {"1": "a\nb"}),
    ("TRANSLATE 1 A, 2 B,", {"1": "A", "2": "B"}),
    ("TRANSLATE 1 A B", {"1": "A B"}),
    ("TRANSLATE", {}),
    ("TRANSLATE 1 [A, 2 B", {"1": "[A", "2": "B"}),
    ("TRANSLATE 1 'open, 2 B", {"1": "'open, 2 B"}),
    ("TRANSLATE justonetoken,", NewickParseError),
]


@pytest.mark.parametrize("statement, expected", PINNED_TRANSLATE)
def test_pinned_translate(statement, expected):
    if isinstance(expected, dict):
        assert parse_translate_block(statement) == expected
        return
    with pytest.raises(expected, match="malformed TRANSLATE entry 'justonetoken'"):
        parse_translate_block(statement)
