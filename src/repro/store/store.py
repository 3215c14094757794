"""The persistent, incremental, key-sharded BFH store.

A store is one directory::

    store/
      manifest.json              commit point (atomically replaced)
      shard-000002-000.snap      compacted key-range snapshots
      shard-000002-001.snap
      journal-000002.log         append-only deltas since compaction

State at any moment = (shard snapshots at the manifest's generation)
⊕ (journal records in order).  ``add_trees`` / ``remove_trees`` append
fsync'd journal records and apply the same delta in memory; ``compact``
folds the journal into a fresh generation of snapshots and an empty
journal, with the manifest replace as the single atomic commit — a crash
anywhere leaves either the old generation (journal intact) or the new
one (journal empty) fully consistent.

Incremental exactness: the BFH is a pure sum over trees, so the store's
materialized hash after any add/remove/compact history is *equal as a
mapping* to a fresh :func:`~repro.core.bfhrf.build_bfh` over the current
reference multiset, and ``bfhrf_average_rf`` answers through it are
bitwise-identical (all-integer arithmetic until one final division).
The weighted view stores each split's branch-length multiset, so
removal is exact there too; its ``total_weight`` is recomputed with
``math.fsum`` at query time, making weighted answers independent of the
add/remove history.
"""

from __future__ import annotations

import json
import math
import os
import time
from bisect import bisect_left, insort
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from repro.core.bfhrf import bfhrf_average_rf
from repro.core.table import BipartitionTable, default_codec_name, get_codec
from repro.hashing.bfh import BipartitionFrequencyHash
from repro.hashing.weighted import WeightedBipartitionHash
from repro.observability.metrics import counter as _metric, gauge as _gauge, \
    histogram as _histogram
from repro.observability.spans import trace
from repro.observability.state import enabled as _obs_enabled
from repro.store.format import (
    JOURNAL_HEADER_SIZE,
    OP_ADD,
    OP_EXTEND_NS,
    OP_REMOVE,
    SnapshotData,
    check_journal_header,
    decode_labels_payload,
    decode_tree_payload,
    encode_labels_payload,
    encode_record,
    encode_tree_payload,
    journal_header,
    namespace_fingerprint,
    read_journal,
    read_snapshot,
    snapshot_sections,
    write_snapshot,
)
from repro.store.shards import parallel_build_tables, partition_rows
from repro.bipartitions.extract import bipartition_masks, bipartitions_with_lengths
from repro.trees.taxon import TaxonNamespace
from repro.trees.tree import Tree
from repro.util.errors import StoreCorruptError, StoreError

__all__ = ["BFHStore", "build_store", "MANIFEST_VERSION"]

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


def _shard_name(generation: int, index: int) -> str:
    return f"shard-{generation:06d}-{index:03d}.snap"


def _journal_name(generation: int) -> str:
    return f"journal-{generation:06d}.log"


class BFHStore:
    """A BFH that survives across runs and absorbs reference-set deltas.

    Construct with :meth:`create` (new, empty), :meth:`open` (existing),
    or :func:`build_store` (bulk, parallel).  All tree arguments must be
    parsed in a namespace that extends the store's label order —
    use :meth:`namespace` when loading query or delta files.
    """

    def __init__(self, path: Path, *, include_trivial: bool, weighted: bool):
        self.path = Path(path)
        self.include_trivial = include_trivial
        self.weighted = weighted
        self.generation = 0
        self._labels: list[str] = []
        self._base_labels = 0          # labels baked into the manifest
        self._counts: dict[int, int] = {}
        self._weights: dict[int, list[float]] = {}  # sorted multisets
        self.n_trees = 0
        self.total = 0
        self.snapshot_trees = 0        # n_trees as of the last compaction
        self.journal_records = 0
        self.recovered = False         # open() dropped a torn journal tail
        self._journal_good_offset = JOURNAL_HEADER_SIZE
        self._shards: list[dict] = []  # manifest shard entries
        self._boundaries: list[int] = []
        # The codec the *next* compaction writes snapshots with.  New
        # stores get the registry's promoted default; open() re-detects
        # it from the shard files themselves (snapshots are
        # self-describing), so a legacy v1 store keeps writing v1 until
        # an explicit migrate() — compaction never silently changes a
        # store's on-disk format.
        self.snapshot_codec: str = default_codec_name()

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, path: str | os.PathLike, *, include_trivial: bool = False,
               weighted: bool = False) -> "BFHStore":
        """Initialize an empty store directory (refuses to overwrite one)."""
        root = Path(path)
        if (root / MANIFEST_NAME).exists():
            raise StoreError(f"{root} already contains a BFH store")
        root.mkdir(parents=True, exist_ok=True)
        store = cls(root, include_trivial=include_trivial, weighted=weighted)
        store._write_journal_file()
        store._write_manifest()
        return store

    @classmethod
    def open(cls, path: str | os.PathLike) -> "BFHStore":
        """Load a store: shard snapshots merged, journal replayed.

        A torn journal tail (interrupted append) is dropped and flagged
        via :attr:`recovered`; any other integrity failure raises
        :class:`~repro.util.errors.StoreCorruptError`.
        """
        root = Path(path)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"{root} is not a BFH store (no {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            raise StoreCorruptError(f"cannot read {manifest_path}: {exc}") from exc
        if not isinstance(manifest, dict):
            raise StoreCorruptError(
                f"{manifest_path}: manifest is not a JSON object")
        if manifest.get("format_version") != MANIFEST_VERSION:
            raise StoreError(
                f"{root}: unsupported store format version "
                f"{manifest.get('format_version')!r}")
        try:
            store = cls(root,
                        include_trivial=bool(manifest["include_trivial"]),
                        weighted=bool(manifest["weighted"]))
            store.generation = int(manifest["generation"])
            store._labels = [str(label) for label in manifest["labels"]]
            fingerprint = bytes.fromhex(manifest["fingerprint"])
            store._boundaries = [int(b, 16)
                                 for b in manifest.get("boundaries", [])]
            store._shards = [{"file": str(entry["file"]),
                              "entries": int(entry["entries"])}
                             for entry in manifest.get("shards", [])]
            store.snapshot_trees = int(manifest["n_trees"])
            journal_name = str(manifest["journal"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptError(
                f"{manifest_path}: manifest is malformed ({exc!r})") from exc
        store._base_labels = len(store._labels)
        if fingerprint != namespace_fingerprint(store._labels):
            raise StoreCorruptError(
                f"{root}: manifest fingerprint does not match its labels")
        store.n_trees = store.snapshot_trees
        with trace("store.open", shards=len(store._shards)) as span:
            for entry in store._shards:
                store._load_shard(root / entry["file"], fingerprint)
            store.total = sum(store._counts.values())
            store._replay_journal(root / journal_name, fingerprint)
            span.set(trees=store.n_trees, unique=len(store._counts),
                     journal_records=store.journal_records)
        return store

    def _record_journal_tail(self) -> None:
        """Gauge the journal overlay's lag behind the compacted shards."""
        if _obs_enabled():
            _gauge("store.journal_tail_records").set(self.journal_records)
            _gauge("store.journal_tail_bytes").set(
                max(0, self._journal_good_offset - JOURNAL_HEADER_SIZE))

    def _load_shard(self, path: Path, fingerprint: bytes) -> None:
        t0 = time.perf_counter()
        data: SnapshotData = read_snapshot(path)
        if data.fingerprint != fingerprint:
            raise StoreCorruptError(
                f"shard {path} belongs to a different namespace generation")
        if data.include_trivial != self.include_trivial or \
                data.weighted != self.weighted:
            raise StoreCorruptError(
                f"shard {path} flags disagree with the manifest")
        overlap = self._counts.keys() & data.counts.keys()
        if overlap:
            raise StoreCorruptError(
                f"shard {path} overlaps a sibling shard's key range")
        # Snapshots are self-describing: keep writing whatever format the
        # store is already in (v1 stays v1 until an explicit migrate()).
        self.snapshot_codec = "v1" if data.version == 1 else data.codec
        self._counts.update(data.counts)
        if self.weighted:
            for mask, lengths in (data.weights or {}).items():
                self._weights[mask] = list(lengths)
        if _obs_enabled():
            _histogram("store.shard_load_seconds").observe(
                time.perf_counter() - t0)

    def _apply_record(self, record, path: Path) -> None:
        """Apply one decoded journal record to the in-memory tables."""
        if record.op == OP_EXTEND_NS:
            self._labels.extend(decode_labels_payload(record.payload))
            return
        masks, lengths, n_taxa = decode_tree_payload(
            record.payload, weighted=self.weighted)
        if n_taxa > len(self._labels):
            raise StoreCorruptError(
                f"journal {path}: record packed for {n_taxa} taxa but "
                f"only {len(self._labels)} labels are known")
        limit = 1 << n_taxa if n_taxa else 1
        if any(mask >= limit for mask in masks):
            raise StoreCorruptError(
                f"journal {path}: record mask exceeds its {n_taxa}-taxon "
                "namespace")
        if record.op == OP_ADD:
            self._apply_add(masks, lengths)
        else:
            try:
                self._apply_remove(masks, lengths)
            except StoreError as exc:
                raise StoreCorruptError(
                    f"journal {path}: replay failed ({exc}) — "
                    "frequencies would be silently wrong") from exc

    def _replay_journal(self, path: Path, fingerprint: bytes) -> None:
        t0 = time.perf_counter()
        if not path.exists():
            raise StoreCorruptError(f"journal {path} is missing")
        journal_fp = check_journal_header(path.read_bytes(), path)
        if journal_fp != fingerprint:
            raise StoreCorruptError(
                f"journal {path} belongs to a different namespace generation")
        records, good_offset, torn = read_journal(path)
        self._journal_path = path
        self._journal_good_offset = good_offset
        self.recovered = torn
        for record in records:
            self._apply_record(record, path)
        self.journal_records = len(records)
        if _obs_enabled():
            _histogram("store.journal_replay_seconds").observe(
                time.perf_counter() - t0)
        self._record_journal_tail()

    # -- tailing (long-running readers, e.g. ``bfhrf serve``) ---------------

    @classmethod
    def read_generation(cls, path: str | os.PathLike) -> int:
        """The generation committed in the on-disk manifest, without opening.

        A long-running reader polls this: a generation bump means another
        process compacted (the reader's journal file is gone) and the
        store must be reopened rather than tailed.
        """
        manifest_path = Path(path) / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"{path} is not a BFH store (no {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            return int(manifest["generation"])
        except (ValueError, OSError, KeyError, TypeError) as exc:
            raise StoreCorruptError(
                f"cannot read generation from {manifest_path}: {exc!r}"
                ) from exc

    def journal_lag_bytes(self) -> int:
        """Bytes appended to the on-disk journal beyond our applied view.

        Zero for the writing process itself; positive for a reader whose
        last :meth:`tail_journal` predates another process's appends.
        """
        try:
            size = self._journal_file.stat().st_size
        except OSError:
            return 0
        return max(0, size - self._journal_good_offset)

    def tail_journal(self) -> int:
        """Apply records another process appended since our last view.

        Returns how many records were applied.  A torn tail (a writer
        caught mid-append) is left alone — the complete prefix is applied
        and the remainder will be picked up by a later tail once the
        writer finishes.  Raises :class:`StoreError` if the journal file
        is gone (the store was compacted externally: reopen it) and
        :class:`StoreCorruptError` on real damage.
        """
        path = self._journal_file
        try:
            records, good_offset, torn = read_journal(
                path, start=self._journal_good_offset)
        except FileNotFoundError:
            raise StoreError(
                f"journal {path} is gone — the store was compacted by "
                "another process; reopen it") from None
        for record in records:
            self._apply_record(record, path)
        self._journal_good_offset = good_offset
        self.journal_records += len(records)
        if records and _obs_enabled():
            _metric("store.journal_tailed_records").inc(len(records))
        self._record_journal_tail()
        return len(records)

    @property
    def _journal_file(self) -> Path:
        return getattr(self, "_journal_path",
                       self.path / _journal_name(self.generation))

    # -- namespace -----------------------------------------------------------

    def namespace(self) -> TaxonNamespace:
        """A fresh namespace with the store's labels in index order.

        Parse query/delta files through this so their bitmasks share the
        store's taxon→bit assignment.
        """
        return TaxonNamespace(self._labels)

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    def fingerprint(self) -> bytes:
        """Fingerprint of the *current* namespace (base + journal extends)."""
        return namespace_fingerprint(self._labels)

    def _sync_namespace(self, ns: TaxonNamespace,
                        against: list[str] | None = None) -> list[str]:
        """Validate index-stability against ``ns``; return new labels."""
        known = self._labels if against is None else against
        labels = ns.labels
        n_shared = min(len(labels), len(known))
        for i in range(n_shared):
            if labels[i] != known[i]:
                raise StoreError(
                    f"taxon namespace conflict at index {i}: store has "
                    f"{known[i]!r}, trees have {labels[i]!r} — parse "
                    "the trees with store.namespace() to keep bit indices "
                    "aligned")
        return labels[len(known):]

    # -- deltas --------------------------------------------------------------

    def _tree_tables(self, tree: Tree) -> tuple[list[int], list[float] | None]:
        if self.weighted:
            table = bipartitions_with_lengths(
                tree, include_trivial=self.include_trivial)
            masks = list(table)
            return masks, [table[m] for m in masks]
        return list(bipartition_masks(
            tree, include_trivial=self.include_trivial)), None

    def _apply_add(self, masks: Sequence[int],
                   lengths: Sequence[float] | None) -> None:
        counts = self._counts
        for mask in masks:
            counts[mask] = counts.get(mask, 0) + 1
        if self.weighted and lengths is not None:
            for mask, length in zip(masks, lengths):
                insort(self._weights.setdefault(mask, []), length)
        self.total += len(masks)
        self.n_trees += 1

    def _apply_remove(self, masks: Sequence[int],
                      lengths: Sequence[float] | None) -> None:
        if self.n_trees <= 0:
            raise StoreError("store is empty; nothing to remove")
        counts = self._counts
        for mask in masks:
            freq = counts.get(mask, 0)
            if freq <= 0:
                raise StoreError(
                    f"split {mask:#x} has frequency 0; removing a tree that "
                    "was never added")
            if freq == 1:
                del counts[mask]
            else:
                counts[mask] = freq - 1
        if self.weighted and lengths is not None:
            for mask, length in zip(masks, lengths):
                entry = self._weights.get(mask)
                idx = bisect_left(entry, length) if entry else 0
                if not entry or idx >= len(entry) or entry[idx] != length:
                    raise StoreError(
                        f"split {mask:#x} has no stored branch length "
                        f"{length!r}; removing a tree that was never added")
                entry.pop(idx)
                if not entry:
                    del self._weights[mask]
        self.total -= len(masks)
        self.n_trees -= 1

    def _append_records(self, blobs: Iterable[bytes]) -> None:
        """Durably append encoded records, truncating any torn tail first."""
        data = b"".join(blobs)
        if not data:
            return
        path = self._journal_file
        with open(path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            if fh.tell() > self._journal_good_offset:
                # Recovered-from tail from a previous interrupted append.
                fh.truncate(self._journal_good_offset)
            fh.seek(self._journal_good_offset)
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        self._journal_good_offset += len(data)
        self.recovered = False

    def add_trees(self, trees: Iterable[Tree]) -> int:
        """Absorb reference trees; returns how many were added.

        Each tree becomes one journal record; new taxa extend the
        namespace (an ``extend-ns`` record) without touching existing
        bit assignments.
        """
        trees = list(trees)
        if not trees:
            return 0
        with trace("store.add", trees=len(trees)) as span:
            # Validate and encode the whole batch against a *pending* copy
            # of the namespace; nothing in self mutates until the journal
            # append commits, so a namespace conflict on a later tree (or
            # an append failure) leaves the store exactly as it was.
            blobs: list[bytes] = []
            staged: list[tuple[list[int], list[float] | None]] = []
            pending_labels = list(self._labels)
            for tree in trees:
                new_labels = self._sync_namespace(
                    tree.taxon_namespace, pending_labels)
                if new_labels:
                    blobs.append(encode_record(
                        OP_EXTEND_NS, encode_labels_payload(new_labels)))
                    pending_labels.extend(new_labels)
                masks, lengths = self._tree_tables(tree)
                blobs.append(encode_record(OP_ADD, encode_tree_payload(
                    masks, len(pending_labels), lengths)))
                staged.append((masks, lengths))
            self._append_records(blobs)
            self._labels = pending_labels
            for masks, lengths in staged:
                self._apply_add(masks, lengths)
            self.journal_records += len(blobs)
            span.set(r=self.n_trees, unique=len(self._counts))
        if _obs_enabled():
            _metric("store.journal_records").inc(len(blobs))
            _metric("store.trees_added").inc(len(trees))
        self._record_journal_tail()
        return len(trees)

    def remove_trees(self, trees: Iterable[Tree]) -> int:
        """Un-count previously added trees; returns how many were removed.

        The whole batch is validated against the current frequencies
        before anything is journaled, so a bad batch (a tree that was
        never added) raises :class:`StoreError` and changes nothing.
        """
        trees = list(trees)
        if not trees:
            return 0
        with trace("store.remove", trees=len(trees)) as span:
            staged: list[tuple[list[int], list[float] | None]] = []
            sim_counts: dict[int, int] = {}
            sim_weights: dict[int, list[float]] = {}
            sim_trees = self.n_trees
            for tree in trees:
                self._sync_namespace(tree.taxon_namespace)
                if sim_trees <= 0:
                    raise StoreError("store is empty; nothing to remove")
                sim_trees -= 1
                masks, lengths = self._tree_tables(tree)
                for mask in masks:
                    avail = sim_counts.get(mask, self._counts.get(mask, 0))
                    if avail <= 0:
                        raise StoreError(
                            f"split {mask:#x} has frequency 0; removing a "
                            "tree that was never added")
                    sim_counts[mask] = avail - 1
                if self.weighted:
                    for mask, length in zip(masks, lengths):
                        entry = sim_weights.setdefault(
                            mask, list(self._weights.get(mask, [])))
                        idx = bisect_left(entry, length)
                        if idx >= len(entry) or entry[idx] != length:
                            raise StoreError(
                                f"split {mask:#x} has no stored branch "
                                f"length {length!r}; removing a tree that "
                                "was never added")
                        entry.pop(idx)
                staged.append((masks, lengths))
            blobs = [encode_record(OP_REMOVE, encode_tree_payload(
                masks, len(self._labels), lengths))
                for masks, lengths in staged]
            self._append_records(blobs)
            for masks, lengths in staged:
                self._apply_remove(masks, lengths)
            self.journal_records += len(blobs)
            span.set(r=self.n_trees, unique=len(self._counts))
        if _obs_enabled():
            _metric("store.journal_records").inc(len(blobs))
            _metric("store.trees_removed").inc(len(trees))
        self._record_journal_tail()
        return len(trees)

    # -- queries -------------------------------------------------------------

    def bfh(self) -> BipartitionFrequencyHash:
        """Materialize the current state as a standalone frequency hash."""
        return BipartitionFrequencyHash.from_counts(
            dict(self._counts), self.n_trees, total=self.total,
            include_trivial=self.include_trivial)

    def table(self, n_taxa: int | None = None) -> BipartitionTable:
        """Materialize the current state as the canonical sorted-array
        table (shards ⊕ journal overlay).

        ``n_taxa`` widens the packed keys past the store's namespace
        (the serve daemon does this when a query namespace is larger);
        it must be ≥ the store's taxon count.  The result feeds
        :meth:`~repro.core.table.BipartitionTable.vectorized` and
        :meth:`repro.runtime.shm.SharedBFH.from_table` without another
        sort.
        """
        n_store = len(self._labels)
        n_eff = max(n_store, 1) if n_taxa is None else n_taxa
        if n_eff < n_store:
            raise StoreError(
                f"cannot pack {n_store}-taxon keys into {n_eff} taxa")
        return self._state_table(n_eff)

    def _state_table(self, n_taxa: int) -> BipartitionTable:
        # from_counts copies each weight multiset, so the table never
        # aliases the store's own lists.
        return BipartitionTable.from_counts(
            self._counts, n_taxa=n_taxa, n_trees=self.n_trees,
            total=self.total, include_trivial=self.include_trivial,
            weights=self._weights if self.weighted else None)

    def weighted_hash(self) -> WeightedBipartitionHash:
        """Materialize the weighted (branch-score) view.

        ``total_weight`` is recomputed with ``math.fsum`` over the
        sorted multisets, so the value depends only on the current state
        — never on the order trees were added and removed.
        """
        if not self.weighted:
            raise StoreError("store was created without weighted=True")
        wh = WeightedBipartitionHash(include_trivial=self.include_trivial)
        wh._weights = {mask: list(lengths)
                       for mask, lengths in self._weights.items()}
        wh.n_trees = self.n_trees
        wh.total_weight = math.fsum(
            length for lengths in self._weights.values() for length in lengths)
        wh.finalize()
        return wh

    def average_rf(self, query: Sequence[Tree], *,
                   n_workers: int = 1,
                   executor: str | None = None) -> list[float]:
        """Average RF of each query tree against the stored collection.

        Bitwise-identical to ``bfhrf_average_rf(query, reference)`` over
        a fresh build of the current reference set.
        """
        with trace("store.query", q=len(query), r=self.n_trees):
            t0 = time.perf_counter()
            values = bfhrf_average_rf(query, bfh=self.bfh(),
                                      n_workers=n_workers, executor=executor)
            if _obs_enabled():
                _histogram("store.query_seconds").observe(
                    time.perf_counter() - t0)
            return values

    def __len__(self) -> int:
        return len(self._counts)

    # -- compaction ----------------------------------------------------------

    def compact(self, n_shards: int | None = None) -> None:
        """Fold the journal into a new generation of key-range snapshots.

        The state becomes one table; shard boundaries are rebalanced over
        its keys in numeric order, and each shard is written from its
        slice of those rows.  The atomic manifest replace is the commit
        point, after which the journal is empty.
        """
        if n_shards is None:
            n_shards = max(1, len(self._shards))
        if n_shards < 1:
            raise StoreError(f"n_shards must be >= 1, got {n_shards}")
        old_generation = self.generation
        old_files = [entry["file"] for entry in self._shards]
        old_files.append(_journal_name(old_generation))
        generation = old_generation + 1
        n_taxa = len(self._labels)
        table = self._state_table(n_taxa)
        keys, counts = table.numeric_rows()
        boundaries, parts = partition_rows(keys, n_shards)
        fingerprint = namespace_fingerprint(self._labels)
        with trace("store.compact", generation=generation,
                   shards=len(parts)) as span:
            shard_entries = []
            for index, rows in enumerate(parts):
                name = _shard_name(generation, index)
                with trace("store.shard", shard=index) as shard_span:
                    t0 = time.perf_counter()
                    entries = write_snapshot(
                        self.path / name, keys[rows], counts[rows],
                        n_taxa=n_taxa, fingerprint=fingerprint,
                        include_trivial=self.include_trivial,
                        weights=table.weights, codec=self.snapshot_codec)
                    if _obs_enabled():
                        _histogram("store.shard_write_seconds").observe(
                            time.perf_counter() - t0)
                    shard_span.set(entries=entries)
                shard_entries.append({"file": name, "entries": entries})
                if _obs_enabled():
                    _metric("store.shard_entries").inc(entries)
            # Stage the whole new generation on disk first; the manifest
            # replace is the one commit point.  Until it succeeds, self
            # keeps pointing at (and appending to) the old journal, which
            # the on-disk manifest still references — a failed compact
            # loses nothing, it just leaves unreferenced gen-N+1 files.
            new_journal = self.path / _journal_name(generation)
            self._write_journal_header(new_journal)
            self._write_manifest(generation=generation, shards=shard_entries,
                                 boundaries=boundaries, n_trees=self.n_trees)
            self.generation = generation
            self._base_labels = len(self._labels)
            self._shards = shard_entries
            self._boundaries = boundaries
            self.snapshot_trees = self.n_trees
            self._journal_path = new_journal
            self._journal_good_offset = JOURNAL_HEADER_SIZE
            self.recovered = False
            self.journal_records = 0
            span.set(unique=len(self._counts), trees=self.n_trees)
        if _obs_enabled():
            _metric("store.compactions").inc()
        self._record_journal_tail()
        for name in old_files:
            try:
                (self.path / name).unlink()
            except OSError:
                pass  # unreferenced leftovers; harmless

    def _snapshot_bytes(self) -> int:
        total = 0
        for entry in self._shards:
            try:
                total += (self.path / entry["file"]).stat().st_size
            except OSError:
                pass
        return total

    def migrate(self, codec: str | None = None, *,
                n_shards: int | None = None) -> dict:
        """Rewrite every shard in ``codec`` (default: the registry's
        promoted write format) via the atomic compact path.

        This is an ordinary compaction with the write codec switched
        first, so it inherits compact's crash contract: the manifest
        replace is the single commit point, and a crash at any byte
        leaves either the old generation (old format, journal intact) or
        the new one — never a half-migrated store.  Returns a summary
        with the before/after snapshot byte totals.
        """
        codec = default_codec_name() if codec is None else codec
        if codec != "v1":
            get_codec(codec)  # validate the name before touching disk
        previous = self.snapshot_codec
        bytes_before = self._snapshot_bytes()
        self.snapshot_codec = codec
        self.compact(n_shards=n_shards)
        return {
            "from_codec": previous,
            "to_codec": codec,
            "snapshot_bytes_before": bytes_before,
            "snapshot_bytes_after": self._snapshot_bytes(),
        }

    def _fsync_dir(self) -> None:
        """Make file creations/renames in the store directory durable."""
        fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _write_journal_header(self, path: Path) -> None:
        """Create an empty journal file on disk (no in-memory repointing)."""
        with open(path, "wb") as fh:
            fh.write(journal_header(namespace_fingerprint(self._labels)))
            fh.flush()
            os.fsync(fh.fileno())
        self._fsync_dir()

    def _write_journal_file(self) -> None:
        path = self.path / _journal_name(self.generation)
        self._write_journal_header(path)
        self._journal_path = path
        self._journal_good_offset = JOURNAL_HEADER_SIZE
        self.recovered = False

    def _write_manifest(self, *, generation: int | None = None,
                        shards: list[dict] | None = None,
                        boundaries: list[int] | None = None,
                        n_trees: int | None = None) -> None:
        if generation is None:
            generation = self.generation
        manifest = {
            "format_version": MANIFEST_VERSION,
            "generation": generation,
            "include_trivial": self.include_trivial,
            "weighted": self.weighted,
            "labels": self._labels,
            "fingerprint": namespace_fingerprint(self._labels).hex(),
            "n_trees": self.snapshot_trees if n_trees is None else n_trees,
            "journal": _journal_name(generation),
            "shards": self._shards if shards is None else shards,
            "boundaries": [f"{b:x}" for b in (
                self._boundaries if boundaries is None else boundaries)],
        }
        target = self.path / MANIFEST_NAME
        tmp = self.path / (MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        self._fsync_dir()

    # -- introspection -------------------------------------------------------

    def iter_shard_snapshots(self) -> Iterator[tuple[int, SnapshotData]]:
        """Decode each compacted shard straight from disk (no journal)."""
        for index, entry in enumerate(self._shards):
            yield index, read_snapshot(self.path / entry["file"])

    def info(self) -> dict:
        """A JSON-able status summary (the ``store info`` CLI verb)."""
        journal_bytes = 0
        journal = self._journal_file
        if journal.exists():
            journal_bytes = journal.stat().st_size
        shards = []
        snapshot_bytes = 0
        for entry in self._shards:
            shard = dict(entry)
            path = self.path / entry["file"]
            if path.exists():
                # Header-only inspection: format version and per-section
                # byte accounting without decoding the table.
                sections = snapshot_sections(path)
                shard.update(
                    version=sections["version"], codec=sections["codec"],
                    file_bytes=sections["file_bytes"],
                    keys_bytes=sections["keys_bytes"],
                    counts_bytes=sections["counts_bytes"],
                    weights_bytes=sections["weights_bytes"])
                snapshot_bytes += sections["file_bytes"]
            shards.append(shard)
        # What the current state would occupy under each codec — the
        # compression win is visible *before* a migrate.
        current = self.table()
        projected = {spec.name: spec.estimated_bytes(current)
                     for spec in (get_codec("raw-u64"),
                                  get_codec("succinct-v1"))}
        return {
            "path": str(self.path),
            "generation": self.generation,
            "trees": self.n_trees,
            "unique_bipartitions": len(self._counts),
            "total_bipartitions": self.total,
            "taxa": len(self._labels),
            "include_trivial": self.include_trivial,
            "weighted": self.weighted,
            "snapshot_codec": self.snapshot_codec,
            "snapshot_bytes": snapshot_bytes,
            "projected_bytes": projected,
            "shards": shards,
            "snapshot_trees": self.snapshot_trees,
            "journal_records": self.journal_records,
            "journal_bytes": journal_bytes,
            # The same numbers the store.journal_tail_* gauges report:
            # how far the journal overlay extends past the compacted
            # shards, and how far the on-disk journal extends past *this
            # process's* applied view (nonzero only for a tailing reader
            # such as a running `bfhrf serve` daemon).
            "journal_tail_records": self.journal_records,
            "journal_tail_bytes": max(
                0, self._journal_good_offset - JOURNAL_HEADER_SIZE),
            "journal_lag_bytes": max(
                0, journal_bytes - self._journal_good_offset),
            "recovered": self.recovered,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BFHStore({str(self.path)!r}, trees={self.n_trees}, "
                f"unique={len(self._counts)}, gen={self.generation}, "
                f"journal={self.journal_records})")


def build_store(path: str | os.PathLike, reference: Sequence[Tree], *,
                n_workers: int = 1, n_shards: int = 1,
                include_trivial: bool = False,
                weighted: bool = False,
                executor: str | None = None,
                codec: str | None = None) -> BFHStore:
    """Bulk-build a store from a reference collection (``store build``).

    The count fans out over the runtime executor at the tree level; the
    partial tables reduce through the associative BFH merge; the result
    is compacted straight into ``n_shards`` key-range snapshots (the
    journal starts empty).  ``codec`` overrides the snapshot write
    format (``"v1"`` builds a legacy-format store, e.g. for the CI
    format-compat fixture); the default is the registry's promoted
    codec.
    """
    reference = list(reference)
    namespaces = {id(t.taxon_namespace) for t in reference}
    if len(namespaces) > 1:
        raise StoreError(
            "reference trees must share one taxon namespace; parse them "
            "together (or through store.namespace()) before building")
    with trace("store.build", r=len(reference), workers=n_workers,
               shards=n_shards) as span:
        counts, weights, n_trees, total = parallel_build_tables(
            reference, include_trivial=include_trivial, weighted=weighted,
            n_workers=n_workers, executor=executor)
        store = BFHStore.create(path, include_trivial=include_trivial,
                                weighted=weighted)
        if codec is not None:
            if codec != "v1":
                get_codec(codec)  # validate the name before building
            store.snapshot_codec = codec
        if reference:
            store._labels = reference[0].taxon_namespace.labels
        store._counts = counts
        if weighted:
            store._weights = {mask: sorted(lengths)
                              for mask, lengths in (weights or {}).items()}
        store.n_trees = n_trees
        store.total = total
        store.compact(n_shards=n_shards)
        span.set(unique=len(store))
    return store
