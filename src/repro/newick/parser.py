"""Recursive-descent (iterative) Newick parser.

Grammar (standard Newick)::

    tree      ::= subtree ";"
    subtree   ::= internal | leaf
    internal  ::= "(" subtree ("," subtree)* ")" [label] [":" length]
    leaf      ::= label [":" length]

The lexical grammar is defined here once, as patterns that the package's
other readers and the writer's quoting rule reuse.

The parser is written with an explicit stack instead of recursion so it
handles trees with thousands of taxa regardless of the interpreter's
recursion limit, and binds every leaf label into a caller-supplied
:class:`TaxonNamespace` so collections parsed together are directly
comparable (the property the bipartition bitmasks rely on).
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from repro.observability.metrics import counter as _metric
from repro.observability.state import enabled as _obs_enabled
from repro.trees.node import Node
from repro.trees.taxon import TaxonNamespace
from repro.trees.tree import Tree
from repro.util.errors import NewickParseError, TaxonError

__all__ = ["parse_newick"]

# The lexical grammar, shared with io.py, nexus.py and writer.py.
# Whitespace is exactly [ \t\r\n] (not \s), so characters such as \x0b or
# \xa0 are label text.  A bare label is a run of anything else that is
# not structural, a quote or a comment bracket.
_BLANK = " \t\r\n"
LABEL_STOP = "(),;:[]'" + _BLANK
COMMENT = r"\[[^\]]*\]"
# '' inside is a literal quote.  The lookahead stops a match that would
# end inside a '' escape, so a label left open never matches a prefix.
QUOTED = r"'[^']*(?:''[^']*)*'(?!')"
BARE = rf"[^{re.escape(LABEL_STOP)}]+"

# Skip whitespace and comments, then match one token.  Groups: 1
# structural character, 2 quoted label, 3 bare label, 4 end of input, 5
# the opening character of an unterminated comment or quote, or a stray
# ']'.  Used with finditer, each match starts where the last one ended,
# so scanning stops at the token the parser last asked for.
_TOKEN = re.compile(
    rf"(?:[{_BLANK}]+|{COMMENT})*"
    rf"(?:([(),;:])|({QUOTED})|({BARE})|(\Z)|(.))",
    re.DOTALL,
)
_LEX_ERRORS = {
    "[": "unterminated comment",
    "'": "unterminated quoted label",
    "]": "unexpected character ']'",
}


def unquote(label: str) -> str:
    """Return the text of a quoted label such as ``'it''s'``."""
    return label[1:-1].replace("''", "'")


def _tokens(text: str) -> Iterator[tuple[str, str, int]]:
    """Yield ``(kind, value, position)`` for each token of ``text``.

    ``kind`` is the structural character itself, ``"label"`` for a bare
    or quoted label (``value`` is its text), or ``"eof"`` for the final
    item.  Scanning is lazy: nothing past the last token pulled is read.
    """
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        value = match[group]
        position = match.start(group)
        if group == 1:
            yield value, value, position
        elif group == 2:
            yield "label", unquote(value), position
        elif group == 3:
            yield "label", value, position
        elif group == 4:
            yield "eof", "", position
        else:
            raise NewickParseError(_LEX_ERRORS[value], position=position)


def parse_newick(
    text: str,
    taxon_namespace: TaxonNamespace | None = None,
    *,
    underscores_to_spaces: bool = False,
) -> Tree:
    """Parse one Newick string into a :class:`Tree`.

    Parameters
    ----------
    text:
        A single tree description ending in ``;`` (trailing whitespace ok).
    taxon_namespace:
        Namespace to bind leaf labels into; a fresh one is created when
        ``None``.  Pass the *same* namespace for every tree of a
        collection.
    underscores_to_spaces:
        Apply the classic Newick convention that unquoted underscores
        represent spaces.  Off by default because the paper's simulated
        datasets use plain identifiers.

    Raises
    ------
    NewickParseError
        On any syntactic problem, with the character position.
    TaxonError
        When the same taxon label appears on two leaves of one tree.

    Examples
    --------
    >>> t = parse_newick("((A:1,B:2)x:0.5,(C,D));")
    >>> t.n_leaves
    4
    """
    ns = taxon_namespace if taxon_namespace is not None else TaxonNamespace()
    tokens = _tokens(text)
    kind, value, position = next(tokens)

    def fail(message: str) -> NewickParseError:
        return NewickParseError(message, position=position)

    def branch_length() -> float:
        # Called with ':' current; makes the token after the length
        # current.  That token is scanned before the length is converted,
        # so a scan error there is reported ahead of a bad length.
        nonlocal kind, value, position
        kind, value, position = next(tokens)
        if kind != "label":
            raise fail("expected branch length after ':'")
        raw, at = value, position
        kind, value, position = next(tokens)
        try:
            return float(raw)
        except ValueError:
            raise NewickParseError(
                f"invalid branch length {raw!r}", position=at) from None

    if kind == "eof":
        raise fail("empty Newick input")

    root = Node()
    seen_taxa: set[int] = set()

    if kind != "(":
        # A bare leaf like "A;" — degenerate but legal.
        if kind != "label":
            raise fail(f"expected '(' or label, got {value!r}")
        label = value.replace("_", " ") if underscores_to_spaces else value
        kind, value, position = next(tokens)
        root.taxon = ns.require(label)
        if kind == ":":
            root.length = branch_length()
        if kind != ";":
            raise fail("expected ';' at end of tree")
        if _obs_enabled():
            _metric("newick.trees_parsed").inc()
        return Tree(root, ns)

    kind, value, position = next(tokens)  # consume '('
    # Stack of internal nodes currently open; current is the node whose
    # children we are reading.
    stack: list[Node] = [root]
    current = root
    # State machine: at each point we either expect a subtree start or we
    # have just finished a subtree and expect , ) : label or ;.
    expect_subtree = True

    while True:
        if expect_subtree:
            if kind == "(":
                child = Node()
                current.add_child(child)
                stack.append(child)
                current = child
                kind, value, position = next(tokens)
                continue
            if kind == "label":
                label = value.replace("_", " ") if underscores_to_spaces else value
                kind, value, position = next(tokens)
                taxon = ns.require(label)
                if taxon.index in seen_taxa:
                    raise TaxonError(f"duplicate taxon label {label!r} in one tree")
                seen_taxa.add(taxon.index)
                leaf = Node(taxon)
                current.add_child(leaf)
                if kind == ":":
                    leaf.length = branch_length()
                expect_subtree = False
                continue
            raise fail(f"expected subtree, got {value!r}")

        # Just closed a subtree: , ) or the end.
        if kind == ",":
            kind, value, position = next(tokens)
            expect_subtree = True
            continue
        if kind == ")":
            kind, value, position = next(tokens)
            closed = stack.pop()
            # Optional internal label and length attach to the closed node.
            if kind == "label":
                closed.label = value
                kind, value, position = next(tokens)
            if kind == ":":
                closed.length = branch_length()
            if stack:
                current = stack[-1]
                continue
            # Root closed: must end with semicolon.
            if kind != ";":
                raise fail("expected ';' after root group")
            break
        if kind == ";":
            raise fail("unbalanced parentheses: ';' before all groups closed")
        if kind == "eof":
            raise fail("unexpected end of input inside tree")
        raise fail(f"unexpected token {value!r}")

    if _obs_enabled():
        _metric("newick.trees_parsed").inc()
    return Tree(root, ns)
