"""Persistent, incremental, key-sharded BFH store.

The answer to "my reference collection changes a little every day":
build the BFH once, persist it, and absorb add/remove deltas through an
append-only journal instead of re-counting every tree.  Queries through
the store are bitwise-identical to a fresh build over the current
reference set.  See ``docs/store.md`` for the on-disk format (v1 and
the codec-tagged v2), the crash-safety contract, and the migration
guide.
"""

from repro.store.format import (
    SnapshotData,
    namespace_fingerprint,
    pack_key,
    read_journal,
    read_snapshot,
    snapshot_sections,
    unpack_key,
    words_for_taxa,
    write_snapshot,
)
from repro.store.shards import partition_rows, shard_boundaries, shard_of
from repro.store.store import BFHStore, build_store

__all__ = [
    "BFHStore",
    "build_store",
    "SnapshotData",
    "namespace_fingerprint",
    "pack_key",
    "unpack_key",
    "words_for_taxa",
    "read_snapshot",
    "snapshot_sections",
    "write_snapshot",
    "read_journal",
    "shard_boundaries",
    "shard_of",
    "partition_rows",
]
