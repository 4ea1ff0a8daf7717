"""The log codec as it stood before the tuple value types: frozen.

A verbatim copy of the per-field encoding helpers, the frozen-dataclass
``StreamHeader``/``LogEntry`` with their encoders and decoders, and the
record codec. The current codec must produce the same bytes and decode
them to equal values; nothing outside the tests imports this module.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import TooManyStreamsError

# -- repro.util.encoding ------------------------------------------------------

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def pack_u16(buf: bytearray, value: int) -> None:
    """Append an unsigned 16-bit integer to *buf*."""
    buf += _U16.pack(value)


def pack_u32(buf: bytearray, value: int) -> None:
    """Append an unsigned 32-bit integer to *buf*."""
    buf += _U32.pack(value)


def pack_u64(buf: bytearray, value: int) -> None:
    """Append an unsigned 64-bit integer to *buf*."""
    buf += _U64.pack(value)


def unpack_u16(buf: bytes, off: int) -> Tuple[int, int]:
    """Read an unsigned 16-bit integer from *buf* at *off*."""
    return _U16.unpack_from(buf, off)[0], off + 2


def unpack_u32(buf: bytes, off: int) -> Tuple[int, int]:
    """Read an unsigned 32-bit integer from *buf* at *off*."""
    return _U32.unpack_from(buf, off)[0], off + 4


def unpack_u64(buf: bytes, off: int) -> Tuple[int, int]:
    """Read an unsigned 64-bit integer from *buf* at *off*."""
    return _U64.unpack_from(buf, off)[0], off + 8


def encode_bytes(buf: bytearray, data: bytes) -> None:
    """Append a length-prefixed byte string to *buf*."""
    pack_u32(buf, len(data))
    buf += data


def decode_bytes(buf: bytes, off: int) -> Tuple[bytes, int]:
    """Read a length-prefixed byte string from *buf* at *off*."""
    length, off = unpack_u32(buf, off)
    return bytes(buf[off : off + length]), off + length


# -- repro.corfu.entry --------------------------------------------------------

# Sentinel meaning "no previous entry for this stream".
NO_BACKPOINTER = -1

# Relative deltas are 16-bit; 0 is reserved as the "none" sentinel since a
# delta of 0 would point an entry at itself.
_MAX_RELATIVE_DELTA = 0xFFFF
_ABSOLUTE_NONE = 0xFFFFFFFFFFFFFFFF

MAX_STREAM_ID = (1 << 31) - 1

#: Default backpointer redundancy (paper: "If K = 4, which is the minimum
#: required for this scheme").
DEFAULT_K = 4

#: Default 4KB log entries (paper section 6).
DEFAULT_ENTRY_SIZE = 4096


@dataclass(frozen=True)
class StreamHeader:
    """One stream's header on a log entry.

    ``backpointers`` always has logical length K (relative format) or
    K/4 (absolute format), padded with :data:`NO_BACKPOINTER`. Pointers
    are absolute log offsets in both cases; the encoding layer converts
    to deltas for the relative format.
    """

    stream_id: int
    backpointers: Tuple[int, ...]
    is_absolute: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.stream_id <= MAX_STREAM_ID:
            raise ValueError(f"stream id {self.stream_id} out of 31-bit range")

    def previous_offset(self) -> int:
        """Offset of the stream's most recent prior entry, or NO_BACKPOINTER."""
        if not self.backpointers:
            return NO_BACKPOINTER
        return self.backpointers[0]

    def encode(self, buf: bytearray, own_offset: int, k: int) -> None:
        """Serialize this header into *buf* for an entry at *own_offset*."""
        flag = 1 if self.is_absolute else 0
        pack_u32(buf, (self.stream_id << 1) | flag)
        if self.is_absolute:
            count = max(1, k // 4)
            ptrs = list(self.backpointers[:count])
            ptrs += [NO_BACKPOINTER] * (count - len(ptrs))
            for ptr in ptrs:
                pack_u64(buf, _ABSOLUTE_NONE if ptr == NO_BACKPOINTER else ptr)
        else:
            ptrs = list(self.backpointers[:k])
            ptrs += [NO_BACKPOINTER] * (k - len(ptrs))
            for ptr in ptrs:
                if ptr == NO_BACKPOINTER:
                    pack_u16(buf, 0)
                    continue
                delta = own_offset - ptr
                if not 0 < delta <= _MAX_RELATIVE_DELTA:
                    raise ValueError(
                        f"relative delta {delta} out of range at offset "
                        f"{own_offset}; caller should have used the "
                        f"absolute format"
                    )
                pack_u16(buf, delta)

    @staticmethod
    def decode(buf: bytes, off: int, own_offset: int, k: int) -> Tuple["StreamHeader", int]:
        """Deserialize a header encoded at *off* for an entry at *own_offset*."""
        word, off = unpack_u32(buf, off)
        stream_id = word >> 1
        is_absolute = bool(word & 1)
        ptrs = []
        if is_absolute:
            for _ in range(max(1, k // 4)):
                raw, off = unpack_u64(buf, off)
                ptrs.append(NO_BACKPOINTER if raw == _ABSOLUTE_NONE else raw)
        else:
            for _ in range(k):
                delta, off = unpack_u16(buf, off)
                ptrs.append(NO_BACKPOINTER if delta == 0 else own_offset - delta)
        return StreamHeader(stream_id, tuple(ptrs), is_absolute), off


def make_header(stream_id: int, last_offsets: Sequence[int], own_offset: int, k: int) -> StreamHeader:
    """Build the header for an entry at *own_offset*, choosing the format.

    *last_offsets* is the sequencer's record of the last K offsets issued
    for this stream, newest first. The relative format is used unless
    **all** K deltas overflow 16 bits (paper section 5); in that case the
    header falls back to K/4 absolute pointers.
    """
    ptrs = [p for p in last_offsets[:k] if p != NO_BACKPOINTER]
    if not ptrs:
        return StreamHeader(stream_id, (NO_BACKPOINTER,) * k, is_absolute=False)
    all_overflow = all(own_offset - p > _MAX_RELATIVE_DELTA for p in ptrs)
    if all_overflow:
        # Padded to K/4 like the relative list below is to K: the header
        # built here is then the header ``decode`` returns, so a writer
        # can keep the entry it encoded in place of reading it back.
        count = max(1, k // 4)
        absolute = ptrs[:count] + [NO_BACKPOINTER] * (count - len(ptrs))
        return StreamHeader(stream_id, tuple(absolute), is_absolute=True)
    # Relative format: individually-overflowing pointers degrade to "none".
    rel = [
        p if own_offset - p <= _MAX_RELATIVE_DELTA else NO_BACKPOINTER
        for p in last_offsets[:k]
    ]
    rel += [NO_BACKPOINTER] * (k - len(rel))
    return StreamHeader(stream_id, tuple(rel), is_absolute=False)


@dataclass(frozen=True)
class LogEntry:
    """A single entry in the shared log.

    ``headers`` carries one :class:`StreamHeader` per stream the entry
    belongs to (at most ``max_streams`` of them, a deployment-time
    constant). ``payload`` is opaque to CORFU; the Tango runtime packs
    update/commit records into it. ``is_junk`` marks entries written by
    the ``fill`` primitive to patch holes left by crashed clients; junk
    entries carry no headers and no payload.
    """

    headers: Tuple[StreamHeader, ...] = field(default_factory=tuple)
    payload: bytes = b""
    is_junk: bool = False

    def stream_ids(self) -> Tuple[int, ...]:
        """Ids of all streams this entry belongs to."""
        return tuple(h.stream_id for h in self.headers)

    def header_for(self, stream_id: int) -> Optional[StreamHeader]:
        """Return this entry's header for *stream_id*, or None."""
        for header in self.headers:
            if header.stream_id == stream_id:
                return header
        return None

    @staticmethod
    def junk() -> "LogEntry":
        """The junk entry used to fill holes."""
        return LogEntry(headers=(), payload=b"", is_junk=True)

    def encode(self, own_offset: int, k: int = DEFAULT_K, max_streams: int = 16) -> bytes:
        """Serialize to the on-flash format.

        Layout: ``[junk:u16][nheaders:u16][headers...][payload]``.
        """
        if len(self.headers) > max_streams:
            raise TooManyStreamsError(len(self.headers), max_streams)
        buf = bytearray()
        pack_u16(buf, 1 if self.is_junk else 0)
        pack_u16(buf, len(self.headers))
        for header in self.headers:
            header.encode(buf, own_offset, k)
        encode_bytes(buf, self.payload)
        return bytes(buf)

    @staticmethod
    def decode(raw: bytes, own_offset: int, k: int = DEFAULT_K) -> "LogEntry":
        """Deserialize an entry previously produced by :meth:`encode`."""
        junk_flag, off = unpack_u16(raw, 0)
        nheaders, off = unpack_u16(raw, off)
        headers = []
        for _ in range(nheaders):
            header, off = StreamHeader.decode(raw, off, own_offset, k)
            headers.append(header)
        payload, off = decode_bytes(raw, off)
        return LogEntry(tuple(headers), payload, is_junk=bool(junk_flag))


# -- repro.tango.records ------------------------------------------------------

_KIND_UPDATE = 1
_KIND_COMMIT = 2
_KIND_DECISION = 3
_KIND_CHECKPOINT = 4
_KIND_DELTA_CHECKPOINT = 5

#: Sentinel version for "never modified" (encodes as all-ones u64).
NO_VERSION = -1
_VERSION_NONE = 0xFFFFFFFFFFFFFFFF

#: tx_id value meaning "not part of any transaction".
NO_TX = 0


def _pack_version(buf: bytearray, version: int) -> None:
    pack_u64(buf, _VERSION_NONE if version == NO_VERSION else version)


def _unpack_version(buf: bytes, off: int) -> Tuple[int, int]:
    raw, off = unpack_u64(buf, off)
    return (NO_VERSION if raw == _VERSION_NONE else raw), off


def _pack_opt_bytes(buf: bytearray, data: Optional[bytes]) -> None:
    if data is None:
        pack_u16(buf, 0)
    else:
        pack_u16(buf, 1)
        encode_bytes(buf, data)


def _unpack_opt_bytes(buf: bytes, off: int) -> Tuple[Optional[bytes], int]:
    flag, off = unpack_u16(buf, off)
    if not flag:
        return None, off
    return decode_bytes(buf, off)


@dataclass(frozen=True)
class UpdateRecord:
    """One mutator invocation on one object."""

    oid: int
    payload: bytes
    key: Optional[bytes] = None
    tx_id: int = NO_TX

    @property
    def is_speculative(self) -> bool:
        return self.tx_id != NO_TX

    def _encode_body(self, buf: bytearray) -> None:
        pack_u32(buf, self.oid)
        pack_u64(buf, self.tx_id)
        _pack_opt_bytes(buf, self.key)
        encode_bytes(buf, self.payload)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["UpdateRecord", int]:
        oid, off = unpack_u32(buf, off)
        tx_id, off = unpack_u64(buf, off)
        key, off = _unpack_opt_bytes(buf, off)
        payload, off = decode_bytes(buf, off)
        return UpdateRecord(oid, payload, key, tx_id), off


@dataclass(frozen=True)
class ReadSetEntry:
    """One read performed by a transaction: (object, optional key, version).

    The version is "the last offset in the shared log that modified the
    object" (or the key within the object, under fine-grained
    versioning) at the time of the read.
    """

    oid: int
    key: Optional[bytes]
    version: int

    def _encode_body(self, buf: bytearray) -> None:
        pack_u32(buf, self.oid)
        _pack_opt_bytes(buf, self.key)
        _pack_version(buf, self.version)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["ReadSetEntry", int]:
        oid, off = unpack_u32(buf, off)
        key, off = _unpack_opt_bytes(buf, off)
        version, off = _unpack_version(buf, off)
        return ReadSetEntry(oid, key, version), off


@dataclass(frozen=True)
class CommitRecord:
    """A transaction's commit point in the total order."""

    tx_id: int
    read_set: Tuple[ReadSetEntry, ...]
    write_oids: Tuple[int, ...]
    inline_updates: Tuple[UpdateRecord, ...] = ()
    #: True when the generating client will append a decision record
    #: because some write-set object is marked as requiring one.
    decision_expected: bool = False
    #: True for the "dummy commit record designed to abort" that any
    #: client may append to terminate an orphaned transaction.
    forced_abort: bool = False

    def read_oids(self) -> Tuple[int, ...]:
        seen = []
        for entry in self.read_set:
            if entry.oid not in seen:
                seen.append(entry.oid)
        return tuple(seen)

    def _encode_body(self, buf: bytearray) -> None:
        pack_u64(buf, self.tx_id)
        flags = (1 if self.decision_expected else 0) | (
            2 if self.forced_abort else 0
        )
        pack_u16(buf, flags)
        pack_u16(buf, len(self.read_set))
        for entry in self.read_set:
            entry._encode_body(buf)
        pack_u16(buf, len(self.write_oids))
        for oid in self.write_oids:
            pack_u32(buf, oid)
        pack_u16(buf, len(self.inline_updates))
        for upd in self.inline_updates:
            upd._encode_body(buf)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["CommitRecord", int]:
        tx_id, off = unpack_u64(buf, off)
        flags, off = unpack_u16(buf, off)
        nreads, off = unpack_u16(buf, off)
        reads = []
        for _ in range(nreads):
            entry, off = ReadSetEntry._decode_body(buf, off)
            reads.append(entry)
        nwrites, off = unpack_u16(buf, off)
        writes = []
        for _ in range(nwrites):
            oid, off = unpack_u32(buf, off)
            writes.append(oid)
        nupd, off = unpack_u16(buf, off)
        updates = []
        for _ in range(nupd):
            upd, off = UpdateRecord._decode_body(buf, off)
            updates.append(upd)
        record = CommitRecord(
            tx_id,
            tuple(reads),
            tuple(writes),
            tuple(updates),
            decision_expected=bool(flags & 1),
            forced_abort=bool(flags & 2),
        )
        return record, off


@dataclass(frozen=True)
class DecisionRecord:
    """The generating client's commit/abort verdict for one transaction."""

    tx_id: int
    committed: bool

    def _encode_body(self, buf: bytearray) -> None:
        pack_u64(buf, self.tx_id)
        pack_u16(buf, 1 if self.committed else 0)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["DecisionRecord", int]:
        tx_id, off = unpack_u64(buf, off)
        committed, off = unpack_u16(buf, off)
        return DecisionRecord(tx_id, bool(committed)), off


@dataclass(frozen=True)
class CheckpointRecord:
    """An object snapshot stored in the log (section 3.1, "History").

    ``covers_offset`` is the highest log offset whose effects are folded
    into ``state``; a fresh view loads the state and then plays the
    stream from the first entry above ``covers_offset``. The version
    tables travel with the snapshot so that transaction conflict checks
    remain correct after a reload.
    """

    oid: int
    covers_offset: int
    object_version: int
    key_versions: Tuple[Tuple[bytes, int], ...]
    state: bytes
    #: Last offset of an *unkeyed* modification, carried exactly so that
    #: a reloaded view makes bit-identical commit/abort decisions.
    unkeyed_version: int = NO_VERSION
    #: Version-eviction horizon of the writer's table (memory-bounded
    #: mode): keys absent from ``key_versions`` but present in
    #: ``evicted_filter`` are conservatively at this version.
    version_floor: int = NO_VERSION
    #: Serialized evicted-key filter (empty when nothing was evicted).
    evicted_filter: bytes = b""

    def _encode_body(self, buf: bytearray) -> None:
        pack_u32(buf, self.oid)
        _pack_version(buf, self.covers_offset)
        _pack_version(buf, self.object_version)
        _pack_version(buf, self.unkeyed_version)
        pack_u32(buf, len(self.key_versions))
        for key, version in self.key_versions:
            encode_bytes(buf, key)
            _pack_version(buf, version)
        encode_bytes(buf, self.state)
        _pack_version(buf, self.version_floor)
        encode_bytes(buf, self.evicted_filter)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["CheckpointRecord", int]:
        oid, off = unpack_u32(buf, off)
        covers, off = _unpack_version(buf, off)
        obj_version, off = _unpack_version(buf, off)
        unkeyed, off = _unpack_version(buf, off)
        nkeys, off = unpack_u32(buf, off)
        keys = []
        for _ in range(nkeys):
            key, off = decode_bytes(buf, off)
            version, off = _unpack_version(buf, off)
            keys.append((key, version))
        state, off = decode_bytes(buf, off)
        floor, off = _unpack_version(buf, off)
        evicted, off = decode_bytes(buf, off)
        record = CheckpointRecord(
            oid,
            covers,
            obj_version,
            tuple(keys),
            state,
            unkeyed_version=unkeyed,
            version_floor=floor,
            evicted_filter=evicted,
        )
        return record, off


@dataclass(frozen=True)
class DeltaCheckpointRecord:
    """An incremental checkpoint: changes since a base checkpoint.

    ``base_offset`` names the log offset of the record this delta builds
    on — a full :class:`CheckpointRecord` or an earlier delta, forming a
    chain back to a full base. A loader applies the base's state, then
    each delta's ``state`` oldest-first (the object's
    ``load_checkpoint_delta`` upcall), and overlays ``key_versions`` the
    same way. ``depth`` is this record's distance from the full base
    (1 = directly on a full checkpoint); the runtime caps it so chains
    stay cheap to reconstruct.
    """

    oid: int
    base_offset: int
    covers_offset: int
    object_version: int
    key_versions: Tuple[Tuple[bytes, int], ...]
    state: bytes
    unkeyed_version: int = NO_VERSION
    version_floor: int = NO_VERSION
    evicted_filter: bytes = b""
    depth: int = 1

    def _encode_body(self, buf: bytearray) -> None:
        pack_u32(buf, self.oid)
        pack_u64(buf, self.base_offset)
        _pack_version(buf, self.covers_offset)
        _pack_version(buf, self.object_version)
        _pack_version(buf, self.unkeyed_version)
        pack_u16(buf, self.depth)
        pack_u32(buf, len(self.key_versions))
        for key, version in self.key_versions:
            encode_bytes(buf, key)
            _pack_version(buf, version)
        encode_bytes(buf, self.state)
        _pack_version(buf, self.version_floor)
        encode_bytes(buf, self.evicted_filter)

    @staticmethod
    def _decode_body(
        buf: bytes, off: int
    ) -> Tuple["DeltaCheckpointRecord", int]:
        oid, off = unpack_u32(buf, off)
        base, off = unpack_u64(buf, off)
        covers, off = _unpack_version(buf, off)
        obj_version, off = _unpack_version(buf, off)
        unkeyed, off = _unpack_version(buf, off)
        depth, off = unpack_u16(buf, off)
        nkeys, off = unpack_u32(buf, off)
        keys = []
        for _ in range(nkeys):
            key, off = decode_bytes(buf, off)
            version, off = _unpack_version(buf, off)
            keys.append((key, version))
        state, off = decode_bytes(buf, off)
        floor, off = _unpack_version(buf, off)
        evicted, off = decode_bytes(buf, off)
        record = DeltaCheckpointRecord(
            oid,
            base,
            covers,
            obj_version,
            tuple(keys),
            state,
            unkeyed_version=unkeyed,
            version_floor=floor,
            evicted_filter=evicted,
            depth=depth,
        )
        return record, off


Record = Union[
    UpdateRecord,
    CommitRecord,
    DecisionRecord,
    CheckpointRecord,
    DeltaCheckpointRecord,
]

_KIND_OF = {
    UpdateRecord: _KIND_UPDATE,
    CommitRecord: _KIND_COMMIT,
    DecisionRecord: _KIND_DECISION,
    CheckpointRecord: _KIND_CHECKPOINT,
    DeltaCheckpointRecord: _KIND_DELTA_CHECKPOINT,
}

_DECODER_OF = {
    _KIND_UPDATE: UpdateRecord._decode_body,
    _KIND_COMMIT: CommitRecord._decode_body,
    _KIND_DECISION: DecisionRecord._decode_body,
    _KIND_CHECKPOINT: CheckpointRecord._decode_body,
    _KIND_DELTA_CHECKPOINT: DeltaCheckpointRecord._decode_body,
}


def encode_records(records: List[Record]) -> bytes:
    """Serialize a batch of records into one entry payload."""
    buf = bytearray()
    pack_u16(buf, len(records))
    for record in records:
        pack_u16(buf, _KIND_OF[type(record)])
        record._encode_body(buf)
    return bytes(buf)


def decode_records(payload: bytes) -> List[Record]:
    """Deserialize an entry payload back into its record batch."""
    if not payload:
        return []
    count, off = unpack_u16(payload, 0)
    records: List[Record] = []
    for _ in range(count):
        kind, off = unpack_u16(payload, off)
        decoder = _DECODER_OF.get(kind)
        if decoder is None:
            raise ValueError(f"unknown record kind {kind}")
        record, off = decoder(payload, off)
        records.append(record)
    return records
