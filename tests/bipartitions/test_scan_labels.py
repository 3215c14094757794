"""Label interning in the columnar scanner, across records.

The scanner groups leaf labels as byte spans of the whole text, makes
one string of each distinct label and numbers new taxa in order of
first appearance.  These tests hold it to ``trees_from_string`` on texts of
many records, where one label recurs in plain and quoted records alike,
and bound its memory on long labels.
"""

from __future__ import annotations

import time
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bipartitions.scan import _strings, _tokens, scan_newick_text
from repro.newick import trees_from_string
from repro.newick.writer import format_label
from repro.trees import TaxonNamespace

from tests.bipartitions.test_scan import _assert_text_same_as_reader

# Labels that stress the byte-span interning: non-ASCII text, lone
# surrogates, bytes the parser treats as label text, labels that are
# prefixes of one another (within and across the 8-byte words the
# scanner compares), and labels holding structural characters.
LABELS = [
    "A", "AB", "ABCDEFG", "ABCDEFGH", "ABCDEFGHI", "ABCDEFGHABCDEFGH",
    "ABCDEFGHABCDEFGHX", "é", "éé", "日本語", "\ud800", "a\udfffb",
    "\x00", "A\x00", "x\x0by", "\xa0", "it's", "a,b", "(x)", "s;t", "c:d",
    "sp ace", "[c]", "", "'",
]

label_text = st.one_of(
    st.sampled_from(LABELS),
    st.text(alphabet=st.characters(exclude_categories=()), max_size=12),
)


@st.composite
def rendered_label(draw):
    """A label as Newick text: bare when it can be, else quoted; plain
    labels are sometimes quoted anyway."""
    label = draw(label_text)
    text = format_label(label)
    if text == label and draw(st.booleans()) and draw(st.booleans()):
        text = "'" + label + "'"
    return text


@st.composite
def subtree(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        text = draw(rendered_label())
    else:
        children = draw(st.lists(subtree(depth + 1), min_size=1,
                                 max_size=4))
        text = "(" + ",".join(children) + ")"
        if draw(st.integers(0, 4)) == 0:
            text += draw(rendered_label())
    if draw(st.integers(0, 5)) == 0:
        text += ":" + draw(st.sampled_from(["1", "0.5", "1e-3", "x", "'2'"]))
    if draw(st.integers(0, 9)) == 0:
        text += "[note]"
    return text


records = st.lists(subtree().map(lambda tree: tree + ";"), min_size=1,
                   max_size=6)


class TestAcrossRecords:
    @settings(max_examples=300, deadline=None)
    @example(["(A,B);", "('A',B);", "(B,'A');"])
    @example(["(ABCDEFGH,ABCDEFGHI);", "('ABCDEFGHI',ABCDEFGH,X);"])
    @example(["('\ud800',x);", "(x,'\ud800');", "(x,y);"])
    @example(["(A,B);", "('',C);", "(D,E);"])
    @example(["(é,e);", "((e,é),'日本語');", "(A,A);"])
    @example(["(A:1,B);", "(C:x,D);"])
    @given(records)
    def test_matches_the_tree_reader(self, texts):
        _assert_text_same_as_reader("\n".join(texts) + "\n")

    def test_new_taxa_follow_first_appearance(self):
        ns = TaxonNamespace(["C"])
        scan_newick_text("(B,'A',C);\n(A,D,'it''s');\n('E',B,Z);\n", ns)
        assert ns.labels == ["C", "B", "A", "D", "it's", "E", "Z"]
        want = TaxonNamespace(["C"])
        trees_from_string("(B,'A',C);\n(A,D,'it''s');\n('E',B,Z);\n", want)
        assert ns.labels == want.labels


def test_labels_decode_alike():
    # Byte spans become character spans of the decoded text: a lone
    # surrogate is three bytes and one character, as is '日'.
    records = ["(日本,\ud800b,é:2,x);", "('it''s',\ud800,é,A\x00,'',x);",
               "(B:1.5,'日 本');"]
    _, string, text, starts, ends = _tokens(records)
    want = ["日本", "\ud800b", "é", "2", "x",
            "it's", "\ud800", "é", "A\x00", "", "x", "B", "1.5", "日 本"]
    assert _strings(string, text, starts, ends) == want


def test_every_character_scans_in_linear_time():
    # Each of the first 65,536 code points (lone surrogates and line
    # breaks too), in one quoted label after a 1M-character label: a
    # scan that searched the text once per code point would read it
    # 65,536 times.
    every = "".join(map(chr, range(0x10000)))
    text = "(" + "\uffff" * 2 ** 20 + "," + format_label(every) + ");\n"
    ns = TaxonNamespace()
    t0 = time.perf_counter()
    scan_newick_text(text, ns)
    assert time.perf_counter() - t0 < 1.5
    assert ns.labels == ["\uffff" * 2 ** 20, every]


def test_every_label_character_alone():
    bare = [chr(code) for code in range(0x10000)
            if format_label(chr(code)) == chr(code)]
    text = "(" + ",".join(bare) + ");\n"
    ns, want = TaxonNamespace(), TaxonNamespace()
    scanned = scan_newick_text(text, ns)
    trees_from_string(text, want)
    assert ns.labels == want.labels == bare
    assert scanned.taxa.tolist() == list(range(len(bare)))


class TestLongLabels:
    """Interning memory grows with the label bytes, not with the label
    count times the longest label: padding all 144,000 labels of these
    texts to one 10 kB label would take 1.4 GB."""

    LONG = "L" * 10_000

    def _peak(self, long_in):
        labels = [f"T{i:03d}" for i in range(144)]
        lines = []
        for tree in range(1000):
            leaves = labels[tree % 7:] + labels[:tree % 7]
            if tree in long_in:
                leaves[-1] = self.LONG
            lines.append("(" + ",".join(leaves) + ");")
        text = "\n".join(lines) + "\n"
        ns = TaxonNamespace()
        tracemalloc.start()
        try:
            scanned = scan_newick_text(text, ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scanned) == 1000
        assert (self.LONG in ns.labels) == bool(long_in)
        assert len(ns) == 144 + bool(long_in)
        return peak

    def test_one_long_label(self):
        assert self._peak({500}) < self._peak(set()) + 4 * 2 ** 20

    def test_a_long_label_in_every_tree(self):
        extra = 1000 * len(self.LONG)
        assert self._peak(set(range(1000))) < self._peak(set()) + 24 * extra
