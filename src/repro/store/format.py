"""On-disk encoding of the persistent BFH store.

Two file kinds, both little-endian and CRC-checked:

**Snapshot** (one per shard) — the compacted frequency table of one key
range, laid out for sequential scans::

    magic   8s   b"BFHSNAP\\x01"
    version u16  SNAPSHOT_VERSION
    flags   u16  bit0 = include_trivial, bit1 = weighted
    n_taxa  u32  namespace size the keys were packed under
    n_words u32  key width in 64-bit words (= ceil(n_taxa / 64), min 1)
    entries u64  number of unique bipartition keys
    fprint  16s  taxon-namespace fingerprint (binds shard to manifest)
    keys    entries * n_words u64   packed masks, sorted ascending
    freqs   entries * u64           frequency per key, same order
    [weights]                       weighted stores only: per key,
                                    freq f64 branch lengths, ascending
    crc     u32  CRC-32 of everything above

Keys are packed at 64-bit *word* granularity, not byte granularity, so
the width changes exactly at the taxon counts the generators stress
(64 → 65, 128 → 129) and a reader can mmap/iterate fixed-size rows.

**Snapshot v2** shares the v1 header (version = 2) but replaces the
fixed key/count layout with a codec-tagged table blob::

    header  (as above, version = 2)
    codec       u16  table codec tag (see repro.core.table registry)
    reserved    u16  zero
    keys_len    u64  byte length of the keys section
    counts_len  u64  byte length of the counts section
    weights_len u64  byte length of the weights section
    keys / counts / weights sections, codec-encoded
    crc     u32  CRC-32 of everything above

The explicit section lengths let ``snapshot_sections`` report a shard's
layout from the header alone — no table decode — and each shard decodes
independently (lazily) through :func:`repro.core.table.codec_by_tag`.
Readers reject unknown versions and unknown codec tags loudly; v1
snapshots stay readable forever.

**Journal** — an append-only sequence of self-describing records after
an 8-byte magic + fingerprint header.  Each record::

    op      u8   OP_ADD / OP_REMOVE / OP_EXTEND_NS
    length  u32  payload byte count
    payload length bytes
    crc     u32  CRC-32 of op + payload

Add/remove payloads carry one tree's normalized masks (`n_taxa u32,
n_masks u32, packed masks in ascending order, [n_masks f64 lengths]`); extend-ns payloads
carry new labels, NUL-separated UTF-8.  The framing makes torn tails
(interrupted appends) distinguishable from corruption: a record whose
declared bytes run past EOF is *torn* and recoverable by truncation; a
complete record with a bad CRC is corruption and fails loudly.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The mask↔bytes packing helpers are canonical in bipartitions.encoding
# (one definition shared by snapshots, journal records, and the in-memory
# word arrays); they are re-exported here because the store's public API
# has always offered them.
from repro.bipartitions.encoding import pack_key, unpack_key, words_for_taxa
from repro.core.table import (BipartitionTable, TableSections, codec_by_tag,
                              default_codec_name, get_codec)
from repro.util.errors import StoreCorruptError

__all__ = [
    "SNAPSHOT_MAGIC", "JOURNAL_MAGIC", "SNAPSHOT_VERSION",
    "SNAPSHOT_VERSION_V2", "JOURNAL_VERSION",
    "OP_ADD", "OP_REMOVE", "OP_EXTEND_NS",
    "FLAG_INCLUDE_TRIVIAL", "FLAG_WEIGHTED",
    "words_for_taxa", "pack_key", "unpack_key", "namespace_fingerprint",
    "SnapshotData", "write_snapshot", "read_snapshot", "snapshot_sections",
    "JournalRecord", "journal_header", "check_journal_header",
    "encode_record", "decode_tree_payload", "encode_tree_payload",
    "encode_labels_payload", "decode_labels_payload", "read_journal",
    "JOURNAL_HEADER_SIZE",
]

SNAPSHOT_MAGIC = b"BFHSNAP\x01"
JOURNAL_MAGIC = b"BFHJRNL\x01"
SNAPSHOT_VERSION = 1
SNAPSHOT_VERSION_V2 = 2
JOURNAL_VERSION = 1

FLAG_INCLUDE_TRIVIAL = 1
FLAG_WEIGHTED = 2

OP_ADD = 1
OP_REMOVE = 2
OP_EXTEND_NS = 3

_SNAP_HEADER = struct.Struct("<8sHHIIQ16s")
_V2_EXT = struct.Struct("<HHQQQ")  # codec tag, reserved, 3 section lengths
_RECORD_HEADER = struct.Struct("<BI")
_CRC = struct.Struct("<I")

JOURNAL_HEADER_SIZE = 8 + 2 + 16  # magic + version + fingerprint


def namespace_fingerprint(labels: list[str]) -> bytes:
    """16-byte digest of the ordered label list.

    Order matters: bitmask comparability requires index stability, so two
    namespaces with the same labels in different slots must not match.
    """
    h = hashlib.sha256()
    for label in labels:
        h.update(label.encode("utf-8"))
        h.update(b"\x00")
    return h.digest()[:16]


# ---------------------------------------------------------------------------
# Snapshots.
# ---------------------------------------------------------------------------

@dataclass
class SnapshotData:
    """One decoded shard snapshot: its probe-order table, and whence."""

    table: BipartitionTable
    fingerprint: bytes
    version: int = SNAPSHOT_VERSION
    codec: str = "raw-u64"


def _snapshot_flags(include_trivial: bool, weighted: bool) -> int:
    return (FLAG_INCLUDE_TRIVIAL if include_trivial else 0) | \
           (FLAG_WEIGHTED if weighted else 0)


def _atomic_write(path: Path, blob: bytes) -> None:
    """Write ``blob`` to a temporary file, fsync it, then rename it over
    ``path``: the data is on disk before any manifest can name it."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_snapshot(path: str | Path, keys: np.ndarray, counts: np.ndarray, *,
                   n_taxa: int, fingerprint: bytes,
                   include_trivial: bool = False,
                   lengths: np.ndarray | None = None,
                   codec: str | None = None) -> int:
    """Write one shard snapshot; returns the number of entries written.

    ``keys``/``counts`` are the shard's rows in ascending numeric order
    (a slice of :meth:`~repro.core.table.BipartitionTable.numeric_rows`);
    ``lengths``, for a weighted store, is their slice of its
    branch-length column.  ``codec`` selects the table codec for a v2
    snapshot (default: succinct-v1); the special name ``"v1"`` writes
    the legacy v1 layout, whose body is the raw-u64 sections.
    """
    path = Path(path)
    if codec is None:
        codec = default_codec_name()
    legacy = codec == "v1"
    spec = get_codec("raw-u64" if legacy else codec)
    # Codecs read a table only through numeric_rows(), which hands rows
    # already in numeric order back as they are: no sort here.
    sections = spec.encode(BipartitionTable(
        keys, counts, n_taxa=n_taxa, n_trees=0, total=int(counts.sum()),
        include_trivial=include_trivial, lengths=lengths))
    header = _SNAP_HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION if legacy else SNAPSHOT_VERSION_V2,
        _snapshot_flags(include_trivial, lengths is not None), n_taxa,
        words_for_taxa(n_taxa), len(keys), fingerprint)
    if not legacy:
        header += _V2_EXT.pack(spec.tag, 0, len(sections.keys),
                               len(sections.counts), len(sections.weights))
    body = header + sections.keys + sections.counts + sections.weights
    _atomic_write(path, body + _CRC.pack(zlib.crc32(body)))
    return len(keys)


def read_snapshot(path: str | Path) -> SnapshotData:
    """Decode one shard snapshot (v1 or v2), verifying magic, version,
    codec tag, and CRC.  A v1 body is the raw-u64 sections, so both
    versions decode through the codec registry."""
    blob = Path(path).read_bytes()
    if len(blob) < _SNAP_HEADER.size + _CRC.size:
        raise StoreCorruptError(f"snapshot {path} is truncated "
                                f"({len(blob)} bytes)")
    body, (crc,) = blob[:-_CRC.size], _CRC.unpack(blob[-_CRC.size:])
    if zlib.crc32(body) != crc:
        raise StoreCorruptError(f"snapshot {path} failed its CRC check")
    magic, version, flags, n_taxa, n_words, entries, fingerprint = \
        _SNAP_HEADER.unpack_from(body)
    if magic != SNAPSHOT_MAGIC:
        raise StoreCorruptError(f"{path} is not a BFH snapshot "
                                f"(magic {magic!r})")
    if version not in (SNAPSHOT_VERSION, SNAPSHOT_VERSION_V2):
        raise StoreCorruptError(f"snapshot {path} has unsupported version "
                                f"{version}")
    if n_words != words_for_taxa(n_taxa):
        raise StoreCorruptError(
            f"snapshot {path}: key width {n_words} words does not match "
            f"{n_taxa} taxa")
    weighted = bool(flags & FLAG_WEIGHTED)
    include_trivial = bool(flags & FLAG_INCLUDE_TRIVIAL)
    offset = _SNAP_HEADER.size
    if version == SNAPSHOT_VERSION:
        spec = get_codec("raw-u64")
        keys_len, counts_len = entries * n_words * 8, entries * 8
        weights_len = len(body) - offset - keys_len - counts_len
        if weights_len < 0:
            raise StoreCorruptError(f"snapshot {path} is shorter than its "
                                    f"declared {entries} entries")
    else:
        if len(body) < offset + _V2_EXT.size:
            raise StoreCorruptError(f"snapshot {path} is shorter than its "
                                    "v2 section header")
        tag, _reserved, keys_len, counts_len, weights_len = \
            _V2_EXT.unpack_from(body, offset)
        offset += _V2_EXT.size
        if len(body) - offset != keys_len + counts_len + weights_len:
            raise StoreCorruptError(
                f"snapshot {path}: section lengths do not match the body "
                f"({len(body) - offset} bytes for "
                f"{keys_len}+{counts_len}+{weights_len})")
        spec = codec_by_tag(tag)
    sections = TableSections(
        keys=body[offset:offset + keys_len],
        counts=body[offset + keys_len:offset + keys_len + counts_len],
        weights=body[offset + keys_len + counts_len:])
    try:
        table = spec.decode(sections, n_taxa=n_taxa, entries=entries,
                            weighted=weighted,
                            include_trivial=include_trivial)
    except StoreCorruptError as exc:
        raise StoreCorruptError(f"snapshot {path}: {exc}") from exc
    if len(table) != entries:
        raise StoreCorruptError(
            f"snapshot {path}: codec decoded {len(table)} entries, header "
            f"declares {entries}")
    return SnapshotData(table=table, fingerprint=fingerprint,
                        version=version, codec=spec.name)


def snapshot_sections(path: str | Path) -> dict:
    """Report a snapshot's layout from its header alone (no table decode).

    This is the lazy inspection path ``store info`` uses for per-shard
    byte accounting: for v2 the section lengths are explicit in the
    header; for v1 they follow from the fixed-width layout.
    """
    path = Path(path)
    file_bytes = path.stat().st_size
    with open(path, "rb") as fh:
        head = fh.read(_SNAP_HEADER.size + _V2_EXT.size)
    if len(head) < _SNAP_HEADER.size:
        raise StoreCorruptError(f"snapshot {path} is truncated "
                                f"({file_bytes} bytes)")
    magic, version, flags, n_taxa, n_words, entries, _fingerprint = \
        _SNAP_HEADER.unpack_from(head)
    if magic != SNAPSHOT_MAGIC:
        raise StoreCorruptError(f"{path} is not a BFH snapshot "
                                f"(magic {magic!r})")
    info = {
        "file": path.name,
        "version": version,
        "entries": entries,
        "n_taxa": n_taxa,
        "n_words": n_words,
        "weighted": bool(flags & FLAG_WEIGHTED),
        "include_trivial": bool(flags & FLAG_INCLUDE_TRIVIAL),
        "file_bytes": file_bytes,
    }
    if version == SNAPSHOT_VERSION:
        keys_len = entries * n_words * 8
        counts_len = entries * 8
        weights_len = file_bytes - _SNAP_HEADER.size - _CRC.size \
            - keys_len - counts_len
        if weights_len < 0:
            raise StoreCorruptError(f"snapshot {path} is shorter than its "
                                    f"declared {entries} entries")
        # "v1" (the legacy framing), not "raw-u64": the bytes match the
        # raw-u64 sections, but nothing v2 wrote this file.
        info.update(codec="v1", keys_bytes=keys_len,
                    counts_bytes=counts_len, weights_bytes=weights_len)
    elif version == SNAPSHOT_VERSION_V2:
        if len(head) < _SNAP_HEADER.size + _V2_EXT.size:
            raise StoreCorruptError(f"snapshot {path} is shorter than its "
                                    "v2 section header")
        tag, _reserved, keys_len, counts_len, weights_len = \
            _V2_EXT.unpack_from(head, _SNAP_HEADER.size)
        info.update(codec=codec_by_tag(tag).name, keys_bytes=keys_len,
                    counts_bytes=counts_len, weights_bytes=weights_len)
    else:
        raise StoreCorruptError(f"snapshot {path} has unsupported version "
                                f"{version}")
    return info


# ---------------------------------------------------------------------------
# Journal.
# ---------------------------------------------------------------------------

@dataclass
class JournalRecord:
    """One decoded journal record."""

    op: int
    payload: bytes


def journal_header(fingerprint: bytes) -> bytes:
    return JOURNAL_MAGIC + struct.pack("<H", JOURNAL_VERSION) + fingerprint


def check_journal_header(blob: bytes, path: str | Path) -> bytes:
    """Validate a journal's header; returns its namespace fingerprint."""
    if len(blob) < JOURNAL_HEADER_SIZE:
        raise StoreCorruptError(f"journal {path} is shorter than its header")
    if blob[:8] != JOURNAL_MAGIC:
        raise StoreCorruptError(f"{path} is not a BFH journal "
                                f"(magic {blob[:8]!r})")
    (version,) = struct.unpack_from("<H", blob, 8)
    if version != JOURNAL_VERSION:
        raise StoreCorruptError(f"journal {path} has unsupported version "
                                f"{version}")
    return blob[10:JOURNAL_HEADER_SIZE]


def encode_record(op: int, payload: bytes) -> bytes:
    crc = zlib.crc32(bytes([op]) + payload)
    return _RECORD_HEADER.pack(op, len(payload)) + payload + _CRC.pack(crc)


def encode_tree_payload(rows: np.ndarray, n_taxa: int,
                        lengths: Sequence[float] | None = None) -> bytes:
    """One tree's split rows (:func:`~repro.core.table.masks_to_words`
    at ``n_taxa``) sorted as masks, each laid out as :func:`pack_key`
    lays out its mask, and, for weighted stores, lengths in that order."""
    order = np.lexsort(rows.T[::-1])
    parts = [struct.pack("<II", n_taxa, len(rows)),
             rows[order][:, ::-1].astype("<u8").tobytes()]
    if lengths is not None:
        parts.append(np.asarray(lengths, dtype="<f8")[order].tobytes())
    return b"".join(parts)


def decode_tree_payload(payload: bytes, *, weighted: bool
                        ) -> tuple[np.ndarray, list[float] | None, int]:
    """Inverse of :func:`encode_tree_payload`: ``(rows, lengths, n_taxa)``,
    rows in ascending mask order; a mask past ``n_taxa`` bits is corrupt."""
    if len(payload) < 8:
        raise StoreCorruptError("tree record payload is shorter than its header")
    n_taxa, n_masks = struct.unpack_from("<II", payload)
    n_words = words_for_taxa(n_taxa)
    key_bytes = n_masks * n_words * 8
    expected = 8 + key_bytes + (n_masks * 8 if weighted else 0)
    if len(payload) != expected:
        raise StoreCorruptError(
            f"tree record payload is {len(payload)} bytes, expected {expected}")
    rows = np.frombuffer(payload, dtype="<u8", count=n_masks * n_words,
                         offset=8).reshape(n_masks, n_words)[:, ::-1]
    spare = 64 * n_words - n_taxa  # bits of the top word past n_taxa
    if spare and (rows[:, 0] >> np.uint64(64 - spare)).any():
        raise StoreCorruptError(
            f"tree record mask exceeds its {n_taxa}-taxon namespace")
    lengths = None
    if weighted:
        lengths = np.frombuffer(payload, dtype="<f8", count=n_masks,
                                offset=8 + key_bytes).tolist()
    return np.ascontiguousarray(rows, dtype=np.uint64), lengths, n_taxa


def encode_labels_payload(labels: list[str]) -> bytes:
    return "\x00".join(labels).encode("utf-8")


def decode_labels_payload(payload: bytes) -> list[str]:
    text = payload.decode("utf-8")
    return text.split("\x00") if text else []


def read_journal(path: str | Path, *, start: int = JOURNAL_HEADER_SIZE
                 ) -> tuple[list[JournalRecord], int, bool]:
    """Read every complete record; returns ``(records, good_offset, torn)``.

    ``good_offset`` is the byte offset just past the last complete record
    — the consistent prefix.  ``torn`` is True when trailing bytes after
    it form an incomplete record (an interrupted append): the caller
    recovers by ignoring (and, on the next write, truncating) the tail.
    A *complete* record that fails its CRC raises
    :class:`~repro.util.errors.StoreCorruptError` — that is damage, not
    a torn write, and silently dropping it would corrupt frequencies.

    ``start`` lets a tailing reader resume from a previously-consumed
    good offset instead of the header; it must sit on a record boundary
    the caller learned from an earlier read.  A ``start`` past EOF means
    the file shrank underneath us (journals are append-only within a
    generation) and raises :class:`StoreCorruptError`.
    """
    blob = Path(path).read_bytes()
    check_journal_header(blob, path)
    if start < JOURNAL_HEADER_SIZE:
        raise StoreCorruptError(
            f"journal {path}: start offset {start} is inside the header")
    if start > len(blob):
        raise StoreCorruptError(
            f"journal {path} shrank below offset {start} "
            f"({len(blob)} bytes on disk) — append-only contract broken")
    records: list[JournalRecord] = []
    offset = start
    while offset < len(blob):
        if offset + _RECORD_HEADER.size > len(blob):
            return records, offset, True
        op, length = _RECORD_HEADER.unpack_from(blob, offset)
        end = offset + _RECORD_HEADER.size + length + _CRC.size
        if end > len(blob):
            return records, offset, True
        payload = blob[offset + _RECORD_HEADER.size:end - _CRC.size]
        (crc,) = _CRC.unpack_from(blob, end - _CRC.size)
        if zlib.crc32(bytes([op]) + payload) != crc:
            raise StoreCorruptError(
                f"journal {path}: record at offset {offset} failed its CRC "
                "check (journal is corrupt, not merely torn)")
        if op not in (OP_ADD, OP_REMOVE, OP_EXTEND_NS):
            raise StoreCorruptError(
                f"journal {path}: unknown record op {op} at offset {offset}")
        records.append(JournalRecord(op=op, payload=payload))
        offset = end
    return records, offset, False
