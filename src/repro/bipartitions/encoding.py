"""Bipartition bitmask encoding (paper §II-B).

A bipartition (split) of a tree is encoded as an arbitrary-precision
Python integer: bit ``i`` is set when taxon ``i`` (by namespace index)
lies on the "1" side of the split.  Following the paper's Dendropy-style
scheme, masks are *normalized* so that the side containing the
lowest-index taxon present in the tree is the 1-side — for full-taxa
trees that is the side containing taxon 0 ("species A" in the paper's
worked example), making equal splits bit-identical across trees.

Integers were chosen over ``bytes``/NumPy keys deliberately: CPython
hashes small-to-medium ints quickly, bitwise ops on them are C-speed,
and they pickle compactly for the multiprocessing layer.  The ablation
benchmark ``bench_ablation_keys`` quantifies this choice.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.trees.taxon import TaxonNamespace
from repro.util.errors import BipartitionError

__all__ = [
    "normalize_mask",
    "is_trivial",
    "side_sizes",
    "project_mask",
    "complement",
    "mask_to_string",
    "words_for_taxa",
    "pack_key",
    "unpack_key",
    "Bipartition",
]

WORD_BITS = 64


def words_for_taxa(n_taxa: int) -> int:
    """Key width in 64-bit words for an ``n_taxa`` namespace (min 1).

    The single definition every layer shares: the store's on-disk keys,
    the vectorized backend's ``(U, n_words)`` arrays, and the tables
    shipped to fan-out workers all size their keys through this
    function, so the width flips at exactly the same taxon counts
    (64 → 65, 128 → 129) everywhere.

    >>> [words_for_taxa(n) for n in (1, 64, 65, 128, 129)]
    [1, 1, 2, 2, 3]
    """
    return max(1, (n_taxa + WORD_BITS - 1) // WORD_BITS)


def pack_key(mask: int, n_words: int) -> bytes:
    """Pack a bipartition mask into ``n_words`` little-endian 64-bit words.

    This is the canonical byte form of a stored key — snapshots, journal
    records, and the packing regression tests all pin this exact layout.

    >>> pack_key(0x0102, 1).hex()
    '0201000000000000'
    """
    return mask.to_bytes(n_words * 8, "little")


def unpack_key(data: bytes) -> int:
    """Inverse of :func:`pack_key`.

    >>> unpack_key(pack_key(1 << 100, 2)) == 1 << 100
    True
    """
    return int.from_bytes(data, "little")


def normalize_mask(mask: int, leaf_mask: int) -> int:
    """Return the canonical representative of a split within ``leaf_mask``.

    The canonical form has the lowest set bit of ``leaf_mask`` on the
    1-side; the complementary mask maps to the same representative.

    >>> normalize_mask(0b0011, 0b1111)   # {A,B} side contains A: unchanged
    3
    >>> normalize_mask(0b1100, 0b1111)   # complement of the above
    3
    """
    if mask & ~leaf_mask:
        raise BipartitionError(
            f"mask {mask:#x} has bits outside the tree's leaf set {leaf_mask:#x}"
        )
    anchor = leaf_mask & -leaf_mask  # lowest set bit of the leaf set
    if mask & anchor:
        return mask
    return mask ^ leaf_mask


def complement(mask: int, leaf_mask: int) -> int:
    """The other side of the split (not normalized)."""
    return mask ^ leaf_mask


def side_sizes(mask: int, leaf_mask: int) -> tuple[int, int]:
    """Sizes of (1-side, 0-side) of the split.

    >>> side_sizes(0b0011, 0b1111)
    (2, 2)
    """
    ones = mask.bit_count()
    return ones, leaf_mask.bit_count() - ones


def is_trivial(mask: int, leaf_mask: int) -> bool:
    """True for splits induced by pendant (leaf) edges or degenerate masks.

    A trivial split has fewer than 2 taxa on one side.  Such splits occur
    in every tree over the same taxa and carry no RF information (§IV-A).

    >>> is_trivial(0b0001, 0b1111)
    True
    >>> is_trivial(0b0011, 0b1111)
    False
    """
    a, b = side_sizes(mask, leaf_mask)
    return a < 2 or b < 2


def project_mask(mask: int, leaf_mask: int, keep_mask: int) -> int | None:
    """Restrict a split to the taxa of ``keep_mask`` (variable-taxa RF, §VII-E).

    Returns the normalized restricted mask, or ``None`` when the
    restriction is trivial (all kept taxa end up on one side, or fewer
    than 2 on either side) — restricted-trivial splits are dropped from
    the comparison exactly as in supertree-style RF.
    """
    restricted_leafset = leaf_mask & keep_mask
    if restricted_leafset.bit_count() < 4:
        # Fewer than 4 shared taxa: no non-trivial split can survive.
        return None
    restricted = mask & restricted_leafset
    if is_trivial(restricted, restricted_leafset):
        return None
    return normalize_mask(restricted, restricted_leafset)


def mask_to_string(mask: int, n_taxa: int) -> str:
    """Render a mask as the paper's right-to-left bit string.

    Taxon 0 is the rightmost character, matching the worked example in
    §II-B (``B(T) = {0001, 1101, ...}`` with species A at bit 0).

    >>> mask_to_string(0b0011, 4)
    '0011'
    """
    return format(mask, f"0{n_taxa}b")


class Bipartition:
    """User-facing split object wrapping a normalized mask.

    The core algorithms traffic in plain ints for speed; this class is
    the inspectable form returned by the public API (labels on each side,
    branch length of the inducing edge, pretty-printing).

    Examples
    --------
    >>> from repro.trees import TaxonNamespace
    >>> ns = TaxonNamespace(["A", "B", "C", "D"])
    >>> b = Bipartition(0b0011, ns.full_mask(), ns)
    >>> b.side_labels()
    (['A', 'B'], ['C', 'D'])
    >>> str(b)
    'AB|CD'
    """

    __slots__ = ("mask", "leaf_mask", "namespace", "length")

    def __init__(self, mask: int, leaf_mask: int, namespace: TaxonNamespace,
                 length: float | None = None):
        self.leaf_mask = leaf_mask
        self.mask = normalize_mask(mask, leaf_mask)
        self.namespace = namespace
        self.length = length
        if self.mask == 0 or self.mask == leaf_mask:
            raise BipartitionError("a bipartition must have taxa on both sides")

    # Identity is the (mask, leaf_mask) pair so partial-taxa splits from
    # different leaf sets never collide.
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bipartition)
            and self.mask == other.mask
            and self.leaf_mask == other.leaf_mask
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.leaf_mask))

    @property
    def is_trivial(self) -> bool:
        return is_trivial(self.mask, self.leaf_mask)

    @property
    def smaller_side_size(self) -> int:
        a, b = side_sizes(self.mask, self.leaf_mask)
        return min(a, b)

    def side_labels(self) -> tuple[list[str], list[str]]:
        """Labels on the (1-side, 0-side), each in namespace order."""
        ones = self.namespace.labels_of(self.mask)
        zeros = self.namespace.labels_of(complement(self.mask, self.leaf_mask))
        return ones, zeros

    def bitstring(self) -> str:
        return mask_to_string(self.mask, len(self.namespace))

    def __str__(self) -> str:
        ones, zeros = self.side_labels()
        return f"{''.join(ones)}|{''.join(zeros)}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Bipartition({self.bitstring()})"


def masks_of(bipartitions: Iterable[Bipartition]) -> set[int]:
    """Extract the raw masks from Bipartition objects."""
    return {b.mask for b in bipartitions}
