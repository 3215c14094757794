"""Newick parsing, serialization, and streaming multi-tree file I/O."""

from repro.newick.io import (
    iter_newick_file,
    iter_newick_strings,
    read_newick_file,
    trees_from_string,
    trees_to_string,
    write_newick_file,
)
from repro.newick.nexus import iter_nexus_trees, parse_translate_block, read_nexus_trees
from repro.newick.nexus_writer import nexus_string, write_nexus_file
from repro.newick.io import open_tree_file
from repro.newick.parser import parse_newick
from repro.newick.writer import format_label, write_newick

__all__ = [
    "parse_newick",
    "write_newick",
    "format_label",
    "iter_newick_strings",
    "iter_newick_file",
    "read_newick_file",
    "write_newick_file",
    "trees_to_string",
    "trees_from_string",
    "iter_nexus_trees",
    "read_nexus_trees",
    "parse_translate_block",
    "write_nexus_file",
    "nexus_string",
    "open_tree_file",
]
