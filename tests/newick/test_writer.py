"""Unit tests for repro.newick.writer."""

import pytest

from repro.newick import format_label, parse_newick, write_newick


class TestFormatLabel:
    def test_plain(self):
        assert format_label("Homo_sapiens") == "Homo_sapiens"

    def test_space_quoted(self):
        assert format_label("Homo sapiens") == "'Homo sapiens'"

    def test_structural_quoted(self):
        assert format_label("a,b") == "'a,b'"
        assert format_label("a(b") == "'a(b'"
        assert format_label('a"b') == "'a\"b'"

    def test_quote_doubled(self):
        assert format_label("it's") == "'it''s'"

    def test_empty_label_quoted(self):
        assert format_label("") == "''"


class TestWrite:
    def test_topology_only(self):
        assert write_newick(parse_newick("((A,B),(C,D));")) == "((A,B),(C,D));"

    def test_polytomy(self):
        assert write_newick(parse_newick("(A,B,C);")) == "(A,B,C);"

    def test_lengths_repr_roundtrip(self):
        text = "((A:1.5,B:2.0):0.25,(C:0.01,D:30.0):0.0);"
        assert parse_newick(write_newick(parse_newick(text))).n_leaves == 4

    def test_lengths_excluded(self):
        t = parse_newick("((A:1,B:2):3,(C:4,D:5):6);")
        assert write_newick(t, include_lengths=False) == "((A,B),(C,D));"

    def test_internal_labels(self):
        t = parse_newick("((A,B)x,(C,D)y);")
        assert write_newick(t) == "((A,B)x,(C,D)y);"
        assert write_newick(t, include_internal_labels=False) == "((A,B),(C,D));"

    def test_precision(self):
        t = parse_newick("(A:0.123456789,B:1);")
        out = write_newick(t, precision=3)
        assert "0.123" in out and "0.123456789" not in out

    def test_quoting_roundtrip(self):
        text = "(('Homo sapiens','it''s'),('a\nb','a\rb'));"
        t = parse_newick(text)
        again = parse_newick(write_newick(t))
        assert sorted(again.leaf_labels()) == sorted(t.leaf_labels())

    def test_bare_leaf(self):
        assert write_newick(parse_newick("A;")) == "A;"

    def test_deep_tree_no_recursion(self):
        n = 2000
        text = "(" * (n - 1) + "t0"
        for i in range(1, n):
            text += f",t{i})"
        text += ";"
        t = parse_newick(text)
        out = write_newick(t)
        assert out.count("(") == n - 1
