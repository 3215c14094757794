"""Unit tests for repro.newick.parser."""

import pytest

from repro.newick import parse_newick, write_newick
from repro.trees import TaxonNamespace
from repro.util.errors import NewickParseError, TaxonError


class TestBasicParsing:
    def test_quartet(self):
        t = parse_newick("((A,B),(C,D));")
        assert t.n_leaves == 4
        assert t.leaf_labels() == ["A", "B", "C", "D"]

    def test_polytomy(self):
        t = parse_newick("(A,B,C,D,E);")
        assert len(t.root.children) == 5

    def test_nested_depth(self):
        t = parse_newick("(((((A,B),C),D),E),F);")
        assert t.n_leaves == 6

    def test_branch_lengths(self):
        t = parse_newick("((A:1.5,B:2):0.25,(C:1e-2,D:3E1):0);")
        lengths = {l.taxon.label: l.length for l in t.leaves()}
        assert lengths == {"A": 1.5, "B": 2.0, "C": 0.01, "D": 30.0}

    def test_internal_labels(self):
        t = parse_newick("((A,B)clade1:0.5,(C,D)clade2);")
        internal = [n for n in t.internal_nodes() if n.label]
        assert sorted(n.label for n in internal) == ["clade1", "clade2"]

    def test_negative_branch_length(self):
        t = parse_newick("(A:-0.5,B:1);")
        assert next(t.leaves()).length == -0.5

    def test_bare_leaf_tree(self):
        t = parse_newick("A;")
        assert t.n_leaves == 1
        assert t.root.taxon.label == "A"

    def test_bare_leaf_with_length(self):
        t = parse_newick("A:3.5;")
        assert t.root.length == 3.5

    def test_quoted_labels(self):
        t = parse_newick("(('Homo sapiens','Pan (chimp)'),(C,D));")
        assert "Homo sapiens" in t.taxon_namespace
        assert "Pan (chimp)" in t.taxon_namespace

    def test_underscores_to_spaces_option(self):
        t = parse_newick("(Homo_sapiens,B);", underscores_to_spaces=True)
        assert "Homo sapiens" in t.taxon_namespace

    def test_comments_ignored(self):
        t = parse_newick("((A[&support=1],B),(C,D))[whole tree];")
        assert t.n_leaves == 4

    def test_whitespace_and_newlines(self):
        t = parse_newick("(\n (A , B) ,\n (C, D)\n) ;")
        assert t.n_leaves == 4


class TestNamespaceBinding:
    def test_shared_namespace(self):
        ns = TaxonNamespace()
        t1 = parse_newick("((A,B),(C,D));", ns)
        t2 = parse_newick("((D,C),(B,A));", ns)
        assert t1.taxon_namespace is t2.taxon_namespace
        assert len(ns) == 4

    def test_fresh_namespace_when_none(self):
        t1 = parse_newick("(A,B,C);")
        t2 = parse_newick("(A,B,C);")
        assert t1.taxon_namespace is not t2.taxon_namespace

    def test_duplicate_taxon_in_one_tree(self):
        with pytest.raises(TaxonError):
            parse_newick("((A,B),(A,C));")

    def test_duplicate_across_trees_is_fine(self):
        ns = TaxonNamespace()
        parse_newick("((A,B),(C,D));", ns)
        parse_newick("((A,B),(C,D));", ns)
        assert len(ns) == 4


class TestParseErrors:
    @pytest.mark.parametrize("bad", [
        "",
        "   ",
        "((A,B),(C,D))",       # missing semicolon
        "((A,B),(C,D)",        # unbalanced
        "(A,B));",             # extra close
        "(A,,B);",             # empty subtree
        "();",                 # empty group
        "(A:;B);",             # missing length after colon
        "(A:x,B);",            # bad length
        ",A;",                 # leading comma
        "(A B);",              # two labels with no separator: B is internal label misplace
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(NewickParseError):
            parse_newick(bad)

    def test_error_position_reported(self):
        try:
            parse_newick("((A,B),(C,D)");
        except NewickParseError as exc:
            assert "position" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected NewickParseError")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(NewickParseError):
            parse_newick("(A,(B,C);")


class TestLargeInput:
    def test_deep_ladder_parses_iteratively(self):
        n = 2000
        text = "(" * (n - 1) + "t0"
        for i in range(1, n):
            text += f",t{i})"
        text += ";"
        t = parse_newick(text)
        assert t.n_leaves == n


# Pinned lexical and syntactic behaviour: each input maps either to the
# writer's output for the parsed tree or to (exception type, message,
# position).  Message and position are compared exactly, so a change to
# how tokens are scanned or where errors are reported shows up here.
PINNED = [
    # Structural tokens, whitespace, branch lengths.
    ("(A,B);", "(A,B);"),
    (" ( A ,\tB ) ;\n", "(A,B);"),
    ("(A:0.5,B:1e-3);", "(A:0.5,B:0.001);"),
    ("A;", "A;"),
    ("'q':1;", "q:1.0;"),
    ("(A,B)'q':1;", "(A,B)q:1.0;"),
    ("((A,B)x:2,C)y;", "((A,B)x:2.0,C)y;"),
    # Quoted labels: structural characters, '' escapes, the empty label.
    ("('Homo sapiens',B);", "('Homo sapiens',B);"),
    ("('a(b,c);:d',B);", "('a(b,c);:d',B);"),
    ("('it''s',B);", "('it''s',B);"),
    ("((A,B)'':1,C);", "((A,B):1.0,C);"),
    ("('q[z]','''',B);", "('q[z]','''',B);"),
    # Comments, including structural characters inside them.
    ("(A[this is a comment],B);", "(A,B);"),
    ("(A[,;()],B);", "(A,B);"),
    ("([c]A[c],[c]B)[c];", "(A,B);"),
    # Bare labels are kept verbatim.
    ("(Homo_sapiens,B);", "(Homo_sapiens,B);"),
    ("(1,2);", "(1,2);"),
    ("(a-b.c|d,B);", "(a-b.c|d,B);"),
    # Only [ \t\r\n] separates tokens; other whitespace is label text.
    ("(A\x0bB,C);", "(A\x0bB,C);"),
    ("(A\xa0B,C);", "(A\xa0B,C);"),
    # Text after the root ';' is never scanned.
    ("(A,B);'x", "(A,B);"),
    ("(A,B);]", "(A,B);"),
    ("(A,B);[x", "(A,B);"),
    ("(A,B);junk", "(A,B);"),
    # Errors, with the position of the offending token.
    ("", (NewickParseError, "empty Newick input", 0)),
    ("   ", (NewickParseError, "empty Newick input", 3)),
    ("(A[oops,B);", (NewickParseError, "unterminated comment", 2)),
    ("(A']", (NewickParseError, "unterminated quoted label", 2)),
    ("('abc,B);", (NewickParseError, "unterminated quoted label", 1)),
    ("('a'',B);", (NewickParseError, "unterminated quoted label", 1)),
    ("(A]B);", (NewickParseError, "unexpected character ']'", 2)),
    ("(AB,,C);", (NewickParseError, "expected subtree, got ','", 4)),
    ("(A,B)C D;", (NewickParseError, "expected ';' after root group", 7)),
    ("(A:,B);", (NewickParseError, "expected branch length after ':'", 3)),
    ("(A:x,B);", (NewickParseError, "invalid branch length 'x'", 3)),
    ("A:;", (NewickParseError, "expected branch length after ':'", 2)),
    ("A B;", (NewickParseError, "expected ';' at end of tree", 2)),
    (";", (NewickParseError, "expected '(' or label, got ';'", 0)),
    ("();", (NewickParseError, "expected subtree, got ')'", 1)),
    ("(A,B)", (NewickParseError, "expected ';' after root group", 5)),
    ("((A,B)", (NewickParseError, "unexpected end of input inside tree", 6)),
    ("((A,B);", (NewickParseError,
                 "unbalanced parentheses: ';' before all groups closed", 6)),
    ("(A B);", (NewickParseError, "unexpected token 'B'", 3)),
    ("(A,(B);", (NewickParseError,
                 "unbalanced parentheses: ';' before all groups closed", 6)),
    ("(A,A);", (TaxonError, "duplicate taxon label 'A' in one tree", None)),
    ("('',B);", (TaxonError, "taxon labels must be non-empty", None)),
]


@pytest.mark.parametrize("text, expected", PINNED)
def test_pinned_parse(text, expected):
    if isinstance(expected, str):
        assert write_newick(parse_newick(text)) == expected
        return
    exc_type, message, position = expected
    with pytest.raises(exc_type) as err:
        parse_newick(text)
    if position is None:
        assert str(err.value) == message
    else:
        assert err.value.position == position
        assert str(err.value) == f"{message} (position {position})"


def test_grammar_patterns_avoid_python_311_syntax():
    """The package supports Python 3.10, whose ``re`` rejects possessive
    quantifiers and atomic groups, so the shared patterns must not use them."""
    import importlib

    from repro.newick import io, nexus, parser

    try:
        sre_parse = importlib.import_module("re._parser")
    except ImportError:  # Python 3.10
        sre_parse = importlib.import_module("sre_parse")

    def ops(node):
        if isinstance(node, sre_parse.SubPattern):
            for op, arg in node:
                yield str(op)
                yield from ops(arg)
        elif isinstance(node, (tuple, list)):
            for item in node:
                yield from ops(item)

    patterns = [parser._TOKEN, io._RECORD_BODY, nexus._COMMENTS,
                nexus._TRANSLATE_ENTRY]
    for pattern in patterns:
        used = set(ops(sre_parse.parse(pattern.pattern, pattern.flags)))
        assert not used & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pattern.pattern
