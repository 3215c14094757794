"""The persistent, incremental, key-sharded BFH store.

A store is one directory::

    store/
      manifest.json              commit point (atomically replaced)
      shard-000002-000.snap      compacted key-range snapshots
      shard-000002-001.snap
      journal-000002.log         append-only deltas since compaction

State at any moment = (shard snapshots at the manifest's generation)
⊕ (journal records in order).  In memory that state is one
:class:`~repro.core.table.BipartitionTable`: keys in probe order,
counts, and (weighted stores) a column of each key's sorted branch
lengths.
``add_trees`` / ``remove_trees`` append fsync'd journal records and
merge the same delta into a new table; ``compact``
folds the journal into a fresh generation of snapshots and an empty
journal, with the manifest replace as the single atomic commit — a crash
anywhere leaves either the old generation (journal intact) or the new
one (journal empty) fully consistent.

Incremental exactness: the BFH is a pure sum over trees, so the store's
materialized hash after any add/remove/compact history is *equal as a
mapping* to a fresh :func:`~repro.core.bfhrf.build_bfh` over the current
reference multiset, and ``bfhrf_average_rf`` answers through it are
bitwise-identical (all-integer arithmetic until one final division).
The weighted view stores each split's branch lengths, so removal is
exact there too; its ``total_weight`` is recomputed with
``math.fsum`` at query time, making weighted answers independent of the
add/remove history.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Iterable, Iterator
from itertools import groupby, islice
from pathlib import Path

import numpy as np

from repro.bipartitions.extract import bipartition_masks, bipartitions_with_lengths
from repro.bipartitions.scan import ScannedTrees
from repro.core.api import TreesLike, _read, _source_kind
from repro.core.table import BipartitionTable, default_codec_name, \
    get_codec, masks_to_words, probe_order, take_runs, words_to_masks
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
    words_for_taxa,
    write_snapshot,
)
from repro.store.shards import partition_rows
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


def _widen(keys: np.ndarray, n_words: int) -> np.ndarray:
    """Rows at ``n_words`` words.  Widening prepends zero words, which
    keeps probe order: every row then ties on the new leading words."""
    if keys.shape[1] == n_words:
        return keys
    wide = np.zeros((len(keys), n_words), dtype=np.uint64)
    wide[:, n_words - keys.shape[1]:] = keys
    return wide


def _at_width(table: BipartitionTable, n_taxa: int) -> BipartitionTable:
    """``table`` packed for ``n_taxa`` taxa, sharing its arrays when the
    word width is unchanged."""
    if n_taxa == table.n_taxa:
        return table
    return BipartitionTable(
        _widen(table.keys, words_for_taxa(n_taxa)), table.counts,
        n_taxa=n_taxa, n_trees=table.n_trees, total=table.total,
        include_trivial=table.include_trivial, lengths=table.lengths)


def _pair_keys(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``(row, length)`` pairs as 16-byte void items whose byte order is
    their order: by row, then by length (``-0.0`` as ``0.0``)."""
    bits = (lengths + 0.0).view(np.uint64)
    bits = np.where(bits >> np.uint64(63), ~bits, bits | np.uint64(1 << 63))
    return np.ascontiguousarray(np.stack((rows.astype(np.uint64), bits), 1),
                                dtype=">u8").view("V16").ravel()


def _merge_lengths(keys: np.ndarray, held_at: np.ndarray, held: np.ndarray,
                   added_at: np.ndarray, added: np.ndarray, *,
                   remove: bool) -> np.ndarray:
    """The state's branch-length column ``held`` (its ``(row, length)``
    pairs sorted, rows indexing the void ``keys``) with the batch's
    pairs added or removed.  The batch, sorted, finds its places with one
    ``searchsorted``: an added length goes in after the equal stored
    ones, and the i-th of equal removed pairs takes the i-th equal
    stored one.  A removal with no stored pair left raises
    :class:`StoreError`."""
    held_keys, added_keys = _pair_keys(held_at, held), _pair_keys(added_at,
                                                                  added)
    order = np.argsort(added_keys, kind="stable")
    added_keys, added_at, added = (a[order] for a in (added_keys, added_at,
                                                       added))
    if not remove:
        return np.insert(held, np.searchsorted(held_keys, added_keys,
                                               side="right"), added)
    step = np.arange(len(added_keys))
    first = np.ones(len(step), dtype=bool)  # first of its equal pairs
    first[1:] = added_keys[1:] != added_keys[:-1]
    take = np.searchsorted(held_keys, added_keys) + step \
        - np.maximum.accumulate(np.where(first, step, 0))
    short = take >= len(held)
    short[~short] = held_keys[take[~short]] != added_keys[~short]
    if short.any():
        i = np.argmax(short)
        (mask,) = words_to_masks(keys[added_at[i]:added_at[i] + 1].view(
            np.uint64).reshape(1, -1))
        raise StoreError(
            f"split {mask:#x} has no stored branch length "
            f"{float(added[i])!r}; removing a tree that was never added")
    return np.delete(held, take)


# Trees per merge in build_store.  A merge's working set is a few times
# its rows, so one merge of a whole collection would add several times
# the collection's rows to a build's peak memory.
_BUILD_BATCH = 128

_PAST_WIDTH = ("tree has taxa the store does not hold; removing a tree "
               "that was never added")

_TreeRows = tuple[list[str], np.ndarray, list[float] | None]


def _new_labels(labels: list[str], known: list[str]) -> list[str]:
    """The labels past ``known`` of a namespace listing ``labels``, which
    must agree with ``known`` index by index."""
    if labels[:len(known)] != known[:len(labels)]:
        i = next(i for i, (a, b) in enumerate(zip(labels, known)) if a != b)
        raise StoreError(
            f"taxon namespace conflict at index {i}: store has "
            f"{known[i]!r}, trees have {labels[i]!r} — parse "
            "the trees with store.namespace() to keep bit indices "
            "aligned")
    return labels[len(known):]


def _split_rows(source: TreesLike, labels: list[str], *,
                include_trivial: bool, weighted: bool,
                grow: bool) -> Iterator[_TreeRows]:
    """Read ``source`` against a store holding ``labels``: per tree, the
    labels it adds (none unless ``grow``), its split rows packed for the
    labels known by then, and, for weighted stores, their branch lengths.

    Newick paths and text for an unweighted store are scanned, and no
    ``Tree`` is built: the first tree adds every new label.  NEXUS
    sources and weighted stores parse ``Tree``s, because the scanner
    keeps no branch lengths.  The source is read before this returns,
    so a parse error comes before any row.
    """
    namespace = TaxonNamespace(labels)
    read = _read(source, _source_kind(source), namespace, scan=not weighted)
    if isinstance(read, ScannedTrees):
        new = namespace.labels[len(labels):] if grow else []
        try:
            block = read.block(words_for_taxa(len(labels) + len(new)),
                               include_trivial=include_trivial)
        except ValueError:  # a taxon past the store's key width
            raise StoreError(_PAST_WIDTH) from None
        counts = block.counts.tolist()
        ends = np.cumsum(counts).tolist()
        return ((new if i == 0 else [], block.words[end - count:end], None)
                for i, (end, count) in enumerate(zip(ends, counts)))
    return _tree_rows(read, labels, include_trivial=include_trivial,
                      weighted=weighted, grow=grow)


def _tree_rows(trees: list[Tree], labels: list[str], *,
               include_trivial: bool, weighted: bool,
               grow: bool) -> Iterator[_TreeRows]:
    """:func:`_split_rows` for parsed trees."""
    labels = list(labels)
    for tree in trees:
        new = _new_labels(tree.taxon_namespace.labels, labels)
        if grow:
            labels.extend(new)
        splits = (bipartitions_with_lengths if weighted else
                  bipartition_masks)(tree, include_trivial=include_trivial)
        try:
            rows = masks_to_words(list(splits), words_for_taxa(len(labels)))
        except ValueError:  # a split past the store's key width
            raise StoreError(_PAST_WIDTH) from None
        lengths = list(splits.values()) if weighted else None
        if weighted and any(map(math.isnan, lengths)):  # never removable
            raise StoreError("a weighted store cannot hold a NaN length")
        yield new if grow else [], rows, lengths


class BFHStore:
    """A BFH that survives across runs and absorbs reference-set deltas.

    Construct with :meth:`create` (new, empty), :meth:`open` (existing),
    or :func:`build_store` (bulk).  Every write to the state, a bulk
    build included, is a :meth:`_merge` of split rows.  Query and delta
    files can be passed as paths; ``Tree`` arguments must be parsed
    through :meth:`namespace`.
    """

    def __init__(self, path: Path, *, include_trivial: bool, weighted: bool):
        self.path = Path(path)
        self.include_trivial = include_trivial
        self.weighted = weighted
        self.generation = 0
        self._labels: list[str] = []
        self._table = BipartitionTable.from_counts(
            {}, n_taxa=0, n_trees=0, include_trivial=include_trivial,
            weights={} if weighted else None)
        self.snapshot_trees = 0        # n_trees as of the last compaction
        self.journal_records = 0
        self.recovered = False         # open() dropped a torn journal tail
        self._journal_good_offset = JOURNAL_HEADER_SIZE
        self._shards: list[dict] = []  # manifest shard entries
        self._boundaries: list[int] = []
        # The codec the *next* compaction writes snapshots with.  New
        # stores get the default codec; open() re-detects
        # it from the shard files themselves (snapshots are
        # self-describing), so a legacy v1 store keeps writing v1 until
        # an explicit migrate() — compaction never silently changes a
        # store's on-disk format.
        self.snapshot_codec: str = default_codec_name()

    @property
    def n_trees(self) -> int:
        return self._table.n_trees

    @property
    def total(self) -> int:
        return self._table.total

    def _commit(self, table: BipartitionTable) -> None:
        """Make ``table`` the state, frozen: handed-out tables share it."""
        for array in (table.keys, table.counts, table.lengths):
            if array is not None:
                array.flags.writeable = False
        self._table = table

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
        if fingerprint != namespace_fingerprint(store._labels):
            raise StoreCorruptError(
                f"{root}: manifest fingerprint does not match its labels")
        with trace("store.open", shards=len(store._shards)) as span:
            store._commit(store._load_shards(fingerprint))
            store._replay_journal(root / journal_name, fingerprint)
            span.set(trees=store.n_trees, unique=len(store),
                     journal_records=store.journal_records)
        return store

    def _record_journal_tail(self) -> None:
        """Gauge the journal overlay's lag behind the compacted shards."""
        if _obs_enabled():
            _gauge("store.journal_tail_records").set(self.journal_records)
            _gauge("store.journal_tail_bytes").set(
                max(0, self._journal_good_offset - JOURNAL_HEADER_SIZE))

    def _load_shard(self, path: Path, fingerprint: bytes) -> BipartitionTable:
        t0 = time.perf_counter()
        data: SnapshotData = read_snapshot(path)
        if data.fingerprint != fingerprint:
            raise StoreCorruptError(
                f"shard {path} belongs to a different namespace generation")
        if data.table.include_trivial != self.include_trivial or \
                data.table.weighted != self.weighted:
            raise StoreCorruptError(
                f"shard {path} flags disagree with the manifest")
        # Snapshots are self-describing: keep writing whatever format the
        # store is already in (v1 stays v1 until an explicit migrate()).
        self.snapshot_codec = "v1" if data.version == 1 else data.codec
        if _obs_enabled():
            _histogram("store.shard_load_seconds").observe(
                time.perf_counter() - t0)
        return data.table

    def _load_shards(self, fingerprint: bytes) -> BipartitionTable:
        """The compacted state: every shard's rows in one probe-order
        table.  Shards cover disjoint key ranges, so a key in two of them
        (two equal rows, adjacent once sorted) is corruption."""
        n_taxa = len(self._labels)
        tables = [_at_width(table, n_taxa) for table in [self._table] + [
            self._load_shard(self.path / entry["file"], fingerprint)
            for entry in self._shards]]  # the empty state, then the shards
        keys = np.concatenate([t.keys for t in tables])
        counts = np.concatenate([t.counts for t in tables])
        lengths = np.concatenate([t.lengths for t in tables]) \
            if self.weighted else None
        if len(tables) > 2:
            order = probe_order(keys)
            lengths = take_runs(lengths, counts, order)
            keys, counts = keys[order], counts[order]
            if (keys[1:] == keys[:-1]).all(axis=1).any():
                raise StoreCorruptError(
                    f"{self.path}: a key lies in two shards' key ranges")
        return BipartitionTable(
            keys, counts, n_taxa=n_taxa, n_trees=self.snapshot_trees,
            total=int(counts.sum()), include_trivial=self.include_trivial,
            lengths=lengths)

    def _apply_records(self, records, path: Path) -> None:
        """Apply decoded journal records in order; each run of
        consecutive same-op tree records is one merge."""
        for op, run in groupby(records, key=lambda record: record.op):
            if op == OP_EXTEND_NS:
                for record in run:
                    self._labels.extend(decode_labels_payload(record.payload))
                continue
            trees = []
            for record in run:
                rows, lengths, n_taxa = decode_tree_payload(
                    record.payload, weighted=self.weighted)
                if n_taxa > len(self._labels):
                    raise StoreCorruptError(
                        f"journal {path}: record packed for {n_taxa} taxa "
                        f"but only {len(self._labels)} labels are known")
                trees.append((rows, lengths))
            try:
                self._commit(self._merge(trees, n_taxa=len(self._labels),
                                         remove=op == OP_REMOVE))
            except StoreError as exc:
                raise StoreCorruptError(
                    f"journal {path}: replay failed ({exc}) — "
                    "frequencies would be silently wrong") from exc
        self._commit(_at_width(self._table, len(self._labels)))

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
        self._apply_records(records, path)
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
        self._apply_records(records, path)
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
        """A fresh namespace with the store's labels in index order: parse
        ``Tree`` arguments through it to share the store's taxon bits."""
        return TaxonNamespace(self._labels)

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    def fingerprint(self) -> bytes:
        """Fingerprint of the *current* namespace (base + journal extends)."""
        return namespace_fingerprint(self._labels)

    # -- deltas --------------------------------------------------------------

    def _merge(self, run: list[tuple[np.ndarray, list[float] | None]], *,
               n_taxa: int, remove: bool) -> BipartitionTable:
        """The state with a batch of trees (each one's split rows and
        branch lengths) added or removed, as a new table: the batch's
        probe-ordered keys are found in the state's with ``searchsorted``,
        held keys gain or lose their count, new keys are inserted in place
        and keys that reach 0 go; :func:`_merge_lengths` does the same for
        branch lengths.  A removal raises :class:`StoreError` unless
        every key (and branch length) is held often enough."""
        state = self._table
        n_words = words_for_taxa(n_taxa)
        rows = np.concatenate([np.zeros((0, n_words), dtype=np.uint64)]
                              + [_widen(r, n_words) for r, _ in run])
        if remove and len(run) > state.n_trees:
            raise StoreError(f"store holds {state.n_trees} trees; removing "
                             f"{len(run)} would leave it less than empty")
        delta = BipartitionTable.from_rows(rows, n_taxa=n_taxa,
                                           n_trees=len(run))
        keys = _widen(state.keys, n_words)
        have, want = (k.view(np.dtype((np.void, 8 * n_words))).ravel()
                      for k in (keys, delta.keys))  # one item per row
        pos = np.searchsorted(have, want)
        found = pos < len(have)
        found[found] = have[pos[found]] == want[found]
        counts = state.counts.copy()
        inserted = pos[:0]
        if remove:
            short = ~found
            short[found] = counts[pos[found]] < delta.counts[found]
            if short.any():
                mask = words_to_masks(delta.keys[short][:1])[0]
                raise StoreError(f"split {mask:#x} is held too few times; "
                                 "removing a tree that was never added")
            counts[pos] -= delta.counts
        else:
            counts[pos[found]] += delta.counts[found]
            inserted = pos[~found]
            # Whole rows move as single void items: ten times faster.
            have = np.insert(have, inserted, want[~found])
            counts = np.insert(counts, inserted, delta.counts[~found])
        sign = -1 if remove else 1
        lengths = None
        if self.weighted:
            at = np.arange(len(state))  # each state row's row in have
            at += np.searchsorted(inserted, at, side="right")
            lengths = _merge_lengths(
                have, np.repeat(at, state.counts), state.lengths,
                np.searchsorted(have, rows.view(have.dtype).ravel()),
                np.concatenate([np.zeros(0)] + [x for _, x in run]),
                remove=remove)
        if remove:
            kept = counts > 0
            have, counts = have[kept], counts[kept]
        return BipartitionTable(
            have.view(np.uint64).reshape(-1, n_words), counts, n_taxa=n_taxa,
            n_trees=state.n_trees + sign * delta.n_trees,
            total=state.total + sign * delta.total,
            include_trivial=self.include_trivial, lengths=lengths)

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

    def add_trees(self, trees: TreesLike) -> int:
        """Absorb reference trees; returns how many were added.

        ``trees`` is what :func:`~repro.core.api.average_rf` takes: a
        ``Tree`` sequence parsed through :meth:`namespace`, or a
        Newick/NEXUS path or text, read against the store's labels.
        Each tree becomes one journal record; new taxa extend the
        namespace (an ``extend-ns`` record) without touching existing
        bit assignments.
        """
        return self._change(trees, remove=False)

    def remove_trees(self, trees: TreesLike) -> int:
        """Un-count previously added trees; returns how many were removed.

        The whole batch is checked against the current frequencies
        before anything is journaled, so a bad batch (a tree that was
        never added) raises :class:`StoreError` and changes nothing.
        """
        return self._change(trees, remove=True)

    def _change(self, trees: TreesLike, *, remove: bool) -> int:
        per_tree = list(_split_rows(trees, self._labels,
                                    include_trivial=self.include_trivial,
                                    weighted=self.weighted,
                                    grow=not remove))
        if not per_tree:
            return 0
        verb = "remove" if remove else "add"
        with trace(f"store.{verb}", trees=len(per_tree)) as span:
            # Validate, encode and merge the whole batch against a
            # *pending* copy of the namespace; nothing in self mutates
            # until the journal append commits, so a bad tree late in
            # the batch (or an append failure) leaves the store exactly
            # as it was.
            blobs: list[bytes] = []
            labels = list(self._labels)
            for new_labels, rows, lengths in per_tree:
                if new_labels:
                    blobs.append(encode_record(
                        OP_EXTEND_NS, encode_labels_payload(new_labels)))
                    labels.extend(new_labels)
                blobs.append(encode_record(
                    OP_REMOVE if remove else OP_ADD,
                    encode_tree_payload(rows, len(labels), lengths)))
            table = self._merge([(r, lengths) for _, r, lengths in per_tree],
                                n_taxa=len(labels), remove=remove)
            self._append_records(blobs)
            self._labels = labels
            self._commit(table)
            self.journal_records += len(blobs)
            span.set(r=self.n_trees, unique=len(self))
        if _obs_enabled():
            _metric("store.journal_records").inc(len(blobs))
            _metric("store.trees_removed" if remove
                    else "store.trees_added").inc(len(per_tree))
        self._record_journal_tail()
        return len(per_tree)

    # -- queries -------------------------------------------------------------

    def bfh(self) -> BipartitionFrequencyHash:
        """The current state as a dict-backed hash (a verification aid;
        queries probe :meth:`table`)."""
        return self.table().to_bfh()

    def table(self, n_taxa: int | None = None) -> BipartitionTable:
        """The state (shards ⊕ journal overlay) as the canonical table,
        unchanged by later adds, removes and tails.  ``n_taxa`` (≥ the
        store's taxon count) widens the keys for a larger query namespace;
        at the store's own word width the table shares the state's arrays.
        """
        n_store = len(self._labels)
        n_eff = max(n_store, 1) if n_taxa is None else n_taxa
        if n_eff < n_store:
            raise StoreError(
                f"cannot pack {n_store}-taxon keys into {n_eff} taxa")
        return _at_width(self._table, n_eff)

    def weighted_hash(self) -> WeightedBipartitionHash:
        """Materialize the weighted (branch-score) view.

        ``total_weight`` is recomputed with ``math.fsum`` over the
        sorted multisets, so the value depends only on the current state
        — never on the order trees were added and removed.
        """
        if not self.weighted:
            raise StoreError("store was created without weighted=True")
        table = self._table
        lengths = table.lengths.tolist()
        ends = np.cumsum(table.counts).tolist()
        wh = WeightedBipartitionHash(include_trivial=self.include_trivial)
        wh._weights = {mask: lengths[end - count:end] for mask, end, count
                       in zip(table.masks(), ends, table.counts.tolist())}
        wh.n_trees = self.n_trees
        wh.total_weight = math.fsum(lengths)
        wh.finalize()
        return wh

    def average_rf(self, query: TreesLike) -> list[float]:
        """Average RF of each query tree against the stored collection,
        probing :meth:`table`; bitwise-identical to
        ``bfhrf_average_rf(query, reference)`` over a fresh build of the
        current reference set.  ``query`` is what :meth:`add_trees`
        takes; Newick is scanned (no ``Tree``) and NEXUS parsed into a
        fresh :meth:`namespace`, so query-only taxa leave the store's
        labels as they are.  ``Tree`` queries may hold taxa past the
        store's labels, but a namespace that disagrees with them raises
        :class:`StoreError`, as a write does."""
        namespace = self.namespace()
        query = _read(query, _source_kind(query), namespace)
        with trace("store.query", q=len(query), r=self.n_trees):
            t0 = time.perf_counter()
            # Query trees may carry taxa past the store's: pack wide
            # enough for all of them, or a probe would truncate masks.
            # Parsed trees must agree with the store's labels index by
            # index, as written trees must.
            widths = [len(namespace), 1]
            if not isinstance(query, ScannedTrees):
                for query_ns in {id(tree.taxon_namespace): tree.taxon_namespace
                                 for tree in query}.values():
                    _new_labels(query_ns.labels, self._labels)
                    widths.append(len(query_ns))
            table = self.table(max(widths))
            values = table.vectorized().average_rf_batch(query).tolist() \
                if len(query) else []
            if _obs_enabled():
                _histogram("store.query_seconds").observe(
                    time.perf_counter() - t0)
            return values

    def __len__(self) -> int:
        return len(self._table)

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
        table = self._table
        keys, counts, lengths = table.numeric_rows()
        boundaries, parts = partition_rows(keys, n_shards)
        ends = np.concatenate(([0], np.cumsum(counts)))
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
                        n_taxa=table.n_taxa, fingerprint=fingerprint,
                        include_trivial=self.include_trivial,
                        lengths=None if lengths is None else
                        lengths[ends[rows.start]:ends[rows.stop]],
                        codec=self.snapshot_codec)
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
            self._shards = shard_entries
            self._boundaries = boundaries
            self.snapshot_trees = self.n_trees
            self._journal_path = new_journal
            self._journal_good_offset = JOURNAL_HEADER_SIZE
            self.recovered = False
            self.journal_records = 0
            span.set(unique=len(self), trees=self.n_trees)
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
        """Rewrite every shard in ``codec`` (default: the default write
        codec, succinct-v1) via the atomic compact path.

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

    def projected_bytes(self) -> dict[str, int]:
        """What the current state would occupy under each codec, so the
        compression win is visible *before* a migrate.  Encodes the whole
        table once per codec (tens of ms at ~20k keys), which is why
        :meth:`info` leaves it out."""
        current = self.table()
        return {spec.name: spec.estimated_bytes(current)
                for spec in (get_codec("raw-u64"), get_codec("succinct-v1"))}

    def info(self) -> dict:
        """A JSON-able status summary, with no table encoding (the
        ``store info`` CLI verb adds :meth:`projected_bytes`)."""
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
        return {
            "path": str(self.path),
            "generation": self.generation,
            "trees": self.n_trees,
            "unique_bipartitions": len(self),
            "total_bipartitions": self.total,
            "taxa": len(self._labels),
            "include_trivial": self.include_trivial,
            "weighted": self.weighted,
            "snapshot_codec": self.snapshot_codec,
            "snapshot_bytes": snapshot_bytes,
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
                f"unique={len(self)}, gen={self.generation}, "
                f"journal={self.journal_records})")


def build_store(path: str | os.PathLike, reference: TreesLike, *,
                n_shards: int = 1, include_trivial: bool = False,
                weighted: bool = False,
                codec: str | None = None) -> BFHStore:
    """Bulk-build a store from a reference collection (``store build``).

    ``reference`` is read as :meth:`BFHStore.add_trees` reads trees, and
    merged into a new store :data:`_BUILD_BATCH` trees at a time with
    the merge every add uses; the result is compacted straight into
    ``n_shards`` key-range snapshots (the journal starts empty).
    ``codec`` overrides the snapshot write format (``"v1"`` builds a
    legacy-format store, e.g. for the CI format-compat fixture); the
    default is succinct-v1.
    """
    if isinstance(reference, (list, tuple)) and \
            len({id(t.taxon_namespace) for t in reference}) > 1:
        raise StoreError(
            "reference trees must share one taxon namespace; parse them "
            "together (or through store.namespace()) before building")
    with trace("store.build", shards=n_shards) as span:
        rows = _split_rows(reference, [], include_trivial=include_trivial,
                           weighted=weighted, grow=True)
        store = BFHStore.create(path, include_trivial=include_trivial,
                                weighted=weighted)
        if codec is not None:
            if codec != "v1":
                get_codec(codec)  # validate the name before building
            store.snapshot_codec = codec
        while batch := list(islice(rows, _BUILD_BATCH)):
            for new_labels, _, _ in batch:
                store._labels.extend(new_labels)
            store._commit(store._merge(
                [(r, lengths) for _, r, lengths in batch],
                n_taxa=len(store._labels), remove=False))
        store.compact(n_shards=n_shards)
        span.set(r=store.n_trees, unique=len(store))
    return store
