"""Taxa and taxon namespaces.

A :class:`TaxonNamespace` assigns each taxon label a stable *bit index*.
This is the foundation of the paper's bipartition encoding (§II-B): a
bipartition of an ``n``-taxon tree is a length-``n`` bitmask where bit
``i`` says which side taxon ``i`` falls on.  Everything downstream —
bipartition extraction, the frequency hash, HashRF's universal hashing —
keys off these indices, so two trees are comparable exactly when they
share (or migrate into) one namespace.

Mirrors the role Dendropy's ``TaxonNamespace`` plays for the original
BFHRF implementation, which this repo rebuilds from scratch.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import attrgetter

from repro.util.errors import TaxonError

__all__ = ["Taxon", "TaxonNamespace"]


class Taxon:
    """A single named taxon bound to a namespace slot.

    Taxa are identity objects: two taxa are the same side of a bipartition
    bit exactly when they are the same object.  They are created through
    :meth:`TaxonNamespace.require` and never directly.
    """

    __slots__ = ("label", "index")

    def __init__(self, label: str, index: int):
        self.label = label
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Taxon({self.label!r}, bit={self.index})"

    @property
    def bit(self) -> int:
        """The single-bit mask for this taxon (``1 << index``)."""
        return 1 << self.index


_ABSENT = Taxon("", -1)
_index = attrgetter("index")


class TaxonNamespace:
    """An ordered, append-only registry mapping labels to bit indices.

    Parameters
    ----------
    labels:
        Optional initial labels, assigned indices ``0..len-1`` in order.

    Notes
    -----
    The namespace is append-only on purpose: removing or reordering taxa
    would silently invalidate every bitmask already derived from it.  Use
    a fresh namespace (plus :func:`repro.bipartitions.encoding.project_mask`)
    for restricted-taxa analyses.

    Examples
    --------
    >>> ns = TaxonNamespace(["A", "B", "C", "D"])
    >>> ns["A"].index, ns["D"].index
    (0, 3)
    >>> len(ns)
    4
    """

    __slots__ = ("_taxa", "_by_label")

    def __init__(self, labels: Iterable[str] = ()):
        self._taxa: list[Taxon] = []
        self._by_label: dict[str, Taxon] = {}
        for label in labels:
            self.require(label)

    # -- construction -----------------------------------------------------

    def require(self, label: str) -> Taxon:
        """Return the taxon for ``label``, creating it at the next index if new."""
        if not isinstance(label, str):
            raise TaxonError(f"taxon labels must be strings, got {type(label).__name__}")
        if not label:
            raise TaxonError("taxon labels must be non-empty")
        taxon = self._by_label.get(label)
        if taxon is None:
            taxon = Taxon(label, len(self._taxa))
            self._taxa.append(taxon)
            self._by_label[label] = taxon
        return taxon

    # -- lookup ------------------------------------------------------------

    def get(self, label: str) -> Taxon | None:
        """Return the taxon for ``label`` or ``None`` if absent."""
        return self._by_label.get(label)

    def indices(self, labels: Iterable[str]) -> Iterator[int]:
        """The index of each label, or -1 for a label not in the namespace."""
        return map(_index, map(self._by_label.get, labels, repeat(_ABSENT)))

    def __getitem__(self, key: str | int) -> Taxon:
        if isinstance(key, str):
            taxon = self._by_label.get(key)
            if taxon is None:
                raise TaxonError(f"unknown taxon label {key!r}")
            return taxon
        if isinstance(key, int):
            try:
                return self._taxa[key]
            except IndexError:
                raise TaxonError(f"taxon index {key} out of range (namespace size {len(self)})") from None
        raise TypeError(f"key must be str or int, got {type(key).__name__}")

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and label in self._by_label

    def __len__(self) -> int:
        return len(self._taxa)

    def __iter__(self) -> Iterator[Taxon]:
        return iter(self._taxa)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preview = ", ".join(t.label for t in self._taxa[:5])
        more = ", ..." if len(self) > 5 else ""
        return f"TaxonNamespace([{preview}{more}], size={len(self)})"

    # -- bulk views ----------------------------------------------------------

    @property
    def labels(self) -> list[str]:
        """All labels in index order."""
        return [t.label for t in self._taxa]

    def full_mask(self) -> int:
        """Bitmask with one bit set per taxon (``(1 << n) - 1``)."""
        return (1 << len(self._taxa)) - 1

    def mask_of(self, labels: Iterable[str]) -> int:
        """Bitmask with the bits of the given labels set.

        >>> ns = TaxonNamespace(["A", "B", "C", "D"])
        >>> bin(ns.mask_of(["A", "C"]))
        '0b101'
        """
        mask = 0
        for label in labels:
            mask |= self[label].bit
        return mask

    def labels_of(self, mask: int) -> list[str]:
        """Labels whose bits are set in ``mask``, in index order.

        >>> ns = TaxonNamespace(["A", "B", "C", "D"])
        >>> ns.labels_of(0b1010)
        ['B', 'D']
        """
        if mask < 0 or mask > self.full_mask():
            raise TaxonError(f"mask {mask:#x} has bits outside namespace of size {len(self)}")
        out = []
        i = 0
        while mask:
            if mask & 1:
                out.append(self._taxa[i].label)
            mask >>= 1
            i += 1
        return out

    # -- compatibility ---------------------------------------------------------

    def is_superset_of(self, other: "TaxonNamespace") -> bool:
        """True when every label of ``other`` exists here *at the same index*.

        Index-stability is the property bitmask comparability needs; mere
        set inclusion is not enough.
        """
        if len(other) > len(self):
            return False
        return all(mine.label == theirs.label for mine, theirs in zip(self._taxa, other._taxa))

    @staticmethod
    def union(namespaces: Sequence["TaxonNamespace"]) -> "TaxonNamespace":
        """A new namespace containing every label seen, first-seen order."""
        merged = TaxonNamespace()
        for ns in namespaces:
            for taxon in ns:
                merged.require(taxon.label)
        return merged
