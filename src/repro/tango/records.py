"""Record types carried in log-entry payloads.

Every entry payload appended by the Tango runtime is an encoded batch of
records (the paper batches 4 commit records per 4KB entry). Four record
kinds exist:

- :class:`UpdateRecord` — one mutator invocation: the opaque buffer the
  object handed to ``update_helper``, plus the optional fine-grained
  versioning key. A non-zero ``tx_id`` marks the update *speculative*:
  written ahead of its transaction's commit record and "not to be made
  visible by other clients playing the log until the commit record is
  encountered" (section 3.2).
- :class:`CommitRecord` — a transaction's atomic commit point: the read
  set with versions, the write-set object ids, and any inlined updates.
- :class:`DecisionRecord` — the outcome appended by the generating
  client when some consumer hosts a write-set object but not the whole
  read set (section 4.1, case C).
- :class:`CheckpointRecord` — an object-provided snapshot of a view,
  with the version state needed for conflict checks after a reload.
- :class:`DeltaCheckpointRecord` — an incremental snapshot covering only
  the keys changed since a base checkpoint, chained via ``base_offset``
  so hot objects stop serializing full state every checkpoint.

A checkpoint entry joins two streams: the object's own and the object's
checkpoint stream (:func:`checkpoint_stream`).

Every record is an immutable tuple value: equal (and hashing equal) to
any record, or plain tuple, with the same fields. The byte layouts live
in :mod:`repro.util.encoding`; each record's fixed-width prefix packs
and unpacks in one call.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple, Union

from repro.util.encoding import (
    CHECKPOINT_PREFIX,
    COMMIT_PREFIX,
    DECISION,
    DELTA_CHECKPOINT_PREFIX,
    ONE_UPDATE_HEAD,
    READ_PREFIX,
    U16,
    U32,
    U64,
    UPDATE_PREFIX,
    decode_bytes,
    encode_bytes,
)

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

#: Base of the per-object checkpoint streams. Every checkpoint entry of
#: object ``oid`` is multiappended to ``oid``'s stream and to
#: ``CHECKPOINT_STREAMS | oid``, so one sequencer query names an
#: object's newest checkpoints (section 5: the sequencer keeps each
#: stream's last K offsets).
CHECKPOINT_STREAMS = 1 << 30

#: Largest object id. Object ids stay below ``CHECKPOINT_STREAMS``, and
#: ``CHECKPOINT_STREAMS | MAX_OID`` is the last id below the sequencer's
#: own checkpoint stream, ``(1 << 31) - 1``.
MAX_OID = CHECKPOINT_STREAMS - 2


def checkpoint_stream(oid: int) -> int:
    """The stream every checkpoint entry of object *oid* also joins."""
    return CHECKPOINT_STREAMS | oid


def checkpointed_oid(stream_id: int) -> Optional[int]:
    """The object whose checkpoint stream *stream_id* is, or None."""
    if CHECKPOINT_STREAMS <= stream_id <= CHECKPOINT_STREAMS | MAX_OID:
        return stream_id - CHECKPOINT_STREAMS
    return None

# Decoders build values straight from their fields.
_new = tuple.__new__


def _version_word(version: int) -> int:
    return _VERSION_NONE if version == NO_VERSION else version


def _version(word: int) -> int:
    return NO_VERSION if word == _VERSION_NONE else word


def _encode_key_versions(
    buf: bytearray, key_versions: Tuple[Tuple[bytes, int], ...]
) -> None:
    for key, version in key_versions:
        encode_bytes(buf, key)
        buf += U64.pack(_version_word(version))


def _decode_key_versions(
    buf: bytes, off: int, count: int
) -> Tuple[Tuple[Tuple[bytes, int], ...], int]:
    pairs = []
    for _ in range(count):
        key, off = decode_bytes(buf, off)
        (word,) = U64.unpack_from(buf, off)
        off += 8
        pairs.append((key, _version(word)))
    return tuple(pairs), off


class UpdateRecord(NamedTuple):
    """One mutator invocation on one object."""

    oid: int
    payload: bytes
    key: Optional[bytes] = None
    tx_id: int = NO_TX

    @property
    def is_speculative(self) -> bool:
        return self.tx_id != NO_TX

    def _encode_body(self, buf: bytearray) -> None:
        key = self.key
        buf += UPDATE_PREFIX.pack(self.oid, self.tx_id, 0 if key is None else 1)
        if key is not None:
            encode_bytes(buf, key)
        encode_bytes(buf, self.payload)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["UpdateRecord", int]:
        # The hottest decode in playback: both length-prefixed fields
        # are decode_bytes inlined (a third of this function's cost).
        oid, tx_id, has_key = UPDATE_PREFIX.unpack_from(buf, off)
        off += UPDATE_PREFIX.size
        key = None
        if has_key:
            (length,) = U32.unpack_from(buf, off)
            off += 4
            key = buf[off : off + length]
            off += length
        (length,) = U32.unpack_from(buf, off)
        off += 4
        payload = buf[off : off + length]
        return _new(UpdateRecord, (oid, payload, key, tx_id)), off + length


class ReadSetEntry(NamedTuple):
    """One read performed by a transaction: (object, optional key, version).

    The version is "the last offset in the shared log that modified the
    object" (or the key within the object, under fine-grained
    versioning) at the time of the read.
    """

    oid: int
    key: Optional[bytes]
    version: int

    def _encode_body(self, buf: bytearray) -> None:
        key = self.key
        buf += READ_PREFIX.pack(self.oid, 0 if key is None else 1)
        if key is not None:
            encode_bytes(buf, key)
        buf += U64.pack(_version_word(self.version))

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["ReadSetEntry", int]:
        oid, has_key = READ_PREFIX.unpack_from(buf, off)
        off += READ_PREFIX.size
        key = None
        if has_key:  # decode_bytes, inlined as in UpdateRecord
            (length,) = U32.unpack_from(buf, off)
            off += 4
            key = buf[off : off + length]
            off += length
        (word,) = U64.unpack_from(buf, off)
        return _new(ReadSetEntry, (oid, key, _version(word))), off + 8


class CommitRecord(NamedTuple):
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
        flags = (1 if self.decision_expected else 0) | (
            2 if self.forced_abort else 0
        )
        buf += COMMIT_PREFIX.pack(self.tx_id, flags, len(self.read_set))
        for entry in self.read_set:
            entry._encode_body(buf)
        buf += U16.pack(len(self.write_oids))
        for oid in self.write_oids:
            buf += U32.pack(oid)
        buf += U16.pack(len(self.inline_updates))
        for upd in self.inline_updates:
            upd._encode_body(buf)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["CommitRecord", int]:
        tx_id, flags, nreads = COMMIT_PREFIX.unpack_from(buf, off)
        off += COMMIT_PREFIX.size
        reads = []
        for _ in range(nreads):
            entry, off = ReadSetEntry._decode_body(buf, off)
            reads.append(entry)
        (nwrites,) = U16.unpack_from(buf, off)
        off += 2
        writes = []
        for _ in range(nwrites):
            writes.append(U32.unpack_from(buf, off)[0])
            off += 4
        (nupd,) = U16.unpack_from(buf, off)
        off += 2
        updates = []
        for _ in range(nupd):
            upd, off = UpdateRecord._decode_body(buf, off)
            updates.append(upd)
        record = _new(
            CommitRecord,
            (
                tx_id,
                tuple(reads),
                tuple(writes),
                tuple(updates),
                bool(flags & 1),
                bool(flags & 2),
            ),
        )
        return record, off


class DecisionRecord(NamedTuple):
    """The generating client's commit/abort verdict for one transaction."""

    tx_id: int
    committed: bool

    def _encode_body(self, buf: bytearray) -> None:
        buf += DECISION.pack(self.tx_id, 1 if self.committed else 0)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["DecisionRecord", int]:
        tx_id, committed = DECISION.unpack_from(buf, off)
        return _new(DecisionRecord, (tx_id, committed != 0)), off + DECISION.size


class CheckpointRecord(NamedTuple):
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
        buf += CHECKPOINT_PREFIX.pack(
            self.oid,
            _version_word(self.covers_offset),
            _version_word(self.object_version),
            _version_word(self.unkeyed_version),
            len(self.key_versions),
        )
        _encode_key_versions(buf, self.key_versions)
        encode_bytes(buf, self.state)
        buf += U64.pack(_version_word(self.version_floor))
        encode_bytes(buf, self.evicted_filter)

    @staticmethod
    def _decode_body(buf: bytes, off: int) -> Tuple["CheckpointRecord", int]:
        oid, covers, obj_version, unkeyed, nkeys = CHECKPOINT_PREFIX.unpack_from(
            buf, off
        )
        keys, off = _decode_key_versions(buf, off + CHECKPOINT_PREFIX.size, nkeys)
        state, off = decode_bytes(buf, off)
        (floor,) = U64.unpack_from(buf, off)
        evicted, off = decode_bytes(buf, off + 8)
        record = _new(
            CheckpointRecord,
            (
                oid,
                _version(covers),
                _version(obj_version),
                keys,
                state,
                _version(unkeyed),
                _version(floor),
                evicted,
            ),
        )
        return record, off


class DeltaCheckpointRecord(NamedTuple):
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
        buf += DELTA_CHECKPOINT_PREFIX.pack(
            self.oid,
            self.base_offset,
            _version_word(self.covers_offset),
            _version_word(self.object_version),
            _version_word(self.unkeyed_version),
            self.depth,
            len(self.key_versions),
        )
        _encode_key_versions(buf, self.key_versions)
        encode_bytes(buf, self.state)
        buf += U64.pack(_version_word(self.version_floor))
        encode_bytes(buf, self.evicted_filter)

    @staticmethod
    def _decode_body(
        buf: bytes, off: int
    ) -> Tuple["DeltaCheckpointRecord", int]:
        (
            oid, base, covers, obj_version, unkeyed, depth, nkeys,
        ) = DELTA_CHECKPOINT_PREFIX.unpack_from(buf, off)
        keys, off = _decode_key_versions(
            buf, off + DELTA_CHECKPOINT_PREFIX.size, nkeys
        )
        state, off = decode_bytes(buf, off)
        (floor,) = U64.unpack_from(buf, off)
        evicted, off = decode_bytes(buf, off + 8)
        record = _new(
            DeltaCheckpointRecord,
            (
                oid,
                base,
                _version(covers),
                _version(obj_version),
                keys,
                state,
                _version(unkeyed),
                _version(floor),
                evicted,
                depth,
            ),
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


#: The first bytes of a batch of one update record.
_ONE_UPDATE = U16.pack(1) + U16.pack(_KIND_UPDATE)


def encode_records(records: List[Record]) -> bytes:
    """Serialize a batch of records into one entry payload."""
    first = records[0] if len(records) == 1 else None
    if type(first) is UpdateRecord:
        # What every put writes: the head in one pack, as decoded.
        oid, payload, key, tx_id = first
        if key is None:
            return ONE_UPDATE_HEAD.pack(1, _KIND_UPDATE, oid, tx_id, 0, len(payload)) + payload
        return b"".join((
            ONE_UPDATE_HEAD.pack(1, _KIND_UPDATE, oid, tx_id, 1, len(key)),
            key, U32.pack(len(payload)), payload,
        ))
    buf = bytearray(U16.pack(len(records)))
    for record in records:
        buf += U16.pack(_KIND_OF[type(record)])
        record._encode_body(buf)
    return bytes(buf)


def decode_records(payload: bytes) -> List[Record]:
    """Deserialize an entry payload back into its record batch.

    Byte-string fields come back as ``bytes`` whatever buffer type
    *payload* is (the update decoder slices it directly).
    """
    if not payload:
        return []
    if type(payload) is not bytes:
        payload = bytes(payload)
    if payload.startswith(_ONE_UPDATE):  # what every put writes: one unpack
        _, _, oid, tx_id, has_key, length = ONE_UPDATE_HEAD.unpack_from(payload, 0)
        off = ONE_UPDATE_HEAD.size
        key = None
        if has_key:
            key = payload[off : off + length]
            off += length
            (length,) = U32.unpack_from(payload, off)
            off += 4
        return [_new(UpdateRecord, (oid, payload[off : off + length], key, tx_id))]
    (count,) = U16.unpack_from(payload, 0)
    off = 2
    records: List[Record] = []
    for _ in range(count):
        (kind,) = U16.unpack_from(payload, off)
        decoder = _DECODER_OF.get(kind)
        if decoder is None:
            raise ValueError(f"unknown record kind {kind}")
        record, off = decoder(payload, off + 2)
        records.append(record)
    return records
