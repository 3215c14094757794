"""Fuzz tests: parsers must terminate with a library error, never crash.

Malformed tree files are everyday reality (truncated downloads, mixed
formats, editor mangling).  These tests feed adversarial text to the
Newick and NEXUS parsers and assert the failure contract: either a
successful parse or a :class:`ReproError` subclass — never an unhandled
exception, never a hang.
"""

from __future__ import annotations

import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.newick import parse_newick, write_newick
from repro.newick.io import iter_newick_strings
from repro.newick.nexus import read_nexus_trees
from repro.util.errors import ReproError

# Character soup weighted toward Newick-structural characters so the
# fuzzer actually reaches deep parser states.
newick_soup = st.text(
    alphabet=st.sampled_from(list("(),;:'[]ABCxyz0123._- \t\n")),
    max_size=80,
)


class TestNewickFuzz:
    @settings(max_examples=300, deadline=None)
    @example("((A,B),(C,D));")
    @example("(((((((")
    @example("';';';'")
    @example("(A:(B));")
    @example("[[[]]];")
    @example("(A)(B);")
    @example(");(")
    @given(newick_soup)
    def test_parse_contract(self, text):
        try:
            tree = parse_newick(text)
        except ReproError:
            return
        # Successful parses must produce a serializable tree.
        assert write_newick(tree).endswith(";")

    @settings(max_examples=200, deadline=None)
    @given(newick_soup)
    def test_record_splitter_contract(self, text):
        try:
            records = list(iter_newick_strings(io.StringIO(text)))
        except ReproError:
            return
        for record in records:
            assert record.endswith(";")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(newick_soup, max_size=5))
    def test_multirecord_streams(self, chunks):
        stream = io.StringIO("\n".join(chunks))
        try:
            for record in iter_newick_strings(stream):
                try:
                    parse_newick(record)
                except ReproError:
                    pass
        except ReproError:
            pass


nexus_soup = st.text(
    alphabet=st.sampled_from(list("(),;:'=#NEXUSBEGINTREESTRANSLATED abc123\n\t")),
    max_size=120,
)


class TestNexusFuzz:
    @settings(max_examples=200, deadline=None)
    @given(nexus_soup)
    def test_reader_contract(self, text):
        try:
            trees = read_nexus_trees(io.StringIO(text))
        except ReproError:
            return
        for tree in trees:
            assert tree.n_leaves >= 1

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=60))
    def test_arbitrary_unicode(self, text):
        try:
            read_nexus_trees(io.StringIO("#NEXUS\n" + text))
        except ReproError:
            pass


NEWICK_RECORDS = (
    "(('it''s;',B:0.5)[x;y,z]in:1,('semi;colon',D)'q,r':2.5e-1);",
    "((A,[;]B)'x''y':3,(C:1e-3,D));",
)
NEWICK_FILE = "\n# between records\n".join(NEWICK_RECORDS) + "\n"
NEXUS_FILE = """#NEXUS
[header; comment, here]
BEGIN TREES;
  TRANSLATE 1 'it''s;', 2 B, 3 'c,d', 4 D;
  TREE t1 = [&U] ((1:0.5,2)[a;b]in:1,(3,4)'x''y':2);
  TREE t2 = ((1,3),(2,4));
END;
"""


def _prefixes(text):
    return [text[:i] for i in range(len(text) + 1)]


class TestTruncation:
    """Every prefix of a valid input parses or raises a ReproError.

    Truncated downloads cut a file at an arbitrary byte, often inside a
    quoted label or a comment; no prefix may crash a reader.
    """

    def test_corpus_is_valid(self):
        assert [parse_newick(r).n_leaves for r in NEWICK_RECORDS] == [4, 4]
        assert list(iter_newick_strings(io.StringIO(NEWICK_FILE))) \
            == list(NEWICK_RECORDS)
        trees = read_nexus_trees(io.StringIO(NEXUS_FILE))
        assert sorted(trees[0].leaf_labels()) == ["B", "D", "c,d", "it's;"]
        assert len(trees) == 2

    def test_parse_newick_prefixes(self):
        for record in NEWICK_RECORDS:
            for prefix in _prefixes(record):
                try:
                    parse_newick(prefix)
                except ReproError:
                    pass

    def test_record_splitter_prefixes(self):
        for prefix in _prefixes(NEWICK_FILE):
            try:
                list(iter_newick_strings(io.StringIO(prefix)))
            except ReproError:
                pass

    def test_nexus_prefixes(self):
        for prefix in _prefixes(NEXUS_FILE):
            try:
                read_nexus_trees(io.StringIO(prefix))
            except ReproError:
                pass
