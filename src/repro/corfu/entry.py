"""Log entries and stream headers.

Paper section 5: "each entry in the shared log now has a small stream
header. This header includes a stream ID as well as backpointers to the
last K entries in the shared log belonging to the same stream."

Two header formats exist:

- **relative** — K backpointers stored as 2-byte deltas from the current
  offset. A delta overflows if the previous entry of the stream is more
  than 64K entries back.
- **absolute** — if all K deltas overflow, the header stores K/4
  backpointers as 8-byte absolute offsets instead.

"In practice, we use a 31-bit stream ID and use the remaining bit to
store the format indicator. If K = 4, which is the minimum required for
this scheme, the header uses 12 bytes." An entry carries a fixed number
of such headers, equal to the maximum number of streams a single
multiappend (and therefore a single transaction's write set) may touch.

:class:`StreamHeader` and :class:`LogEntry` are immutable tuple values
(equal, and hashing equal, to any value — or plain tuple — with the same
fields). Their byte layouts live in :mod:`repro.util.encoding`; a header
packs and unpacks in one call.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import TooManyStreamsError
from repro.util.encoding import (
    ENTRY_PREFIX,
    U32,
    absolute_header,
    encode_bytes,
    entry_head,
    relative_header,
)

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

#: What a storage unit may hand a decoder.
Buffer = Union[bytes, bytearray, memoryview]

# Decoders build values straight from their fields: the bytes were
# validated when they were encoded.
_new = tuple.__new__

# The common entry's head: one relative header at K = 4.
_ONE_HEADER = entry_head(1, DEFAULT_K)


class _StreamHeaderFields(NamedTuple):
    stream_id: int
    backpointers: Tuple[int, ...]
    is_absolute: bool = False


class StreamHeader(_StreamHeaderFields):
    """One stream's header on a log entry.

    ``backpointers`` always has logical length K (relative format) or
    K/4 (absolute format), padded with :data:`NO_BACKPOINTER`. Pointers
    are absolute log offsets in both cases; the encoding layer converts
    to deltas for the relative format.
    """

    __slots__ = ()

    def __new__(
        cls,
        stream_id: int,
        backpointers: Tuple[int, ...],
        is_absolute: bool = False,
    ) -> "StreamHeader":
        if not 0 <= stream_id <= MAX_STREAM_ID:
            raise ValueError(f"stream id {stream_id} out of 31-bit range")
        return _new(cls, (stream_id, backpointers, is_absolute))

    def previous_offset(self) -> int:
        """Offset of the stream's most recent prior entry, or NO_BACKPOINTER."""
        if not self.backpointers:
            return NO_BACKPOINTER
        return self.backpointers[0]

    def encode(self, buf: bytearray, own_offset: int, k: int) -> None:
        """Serialize this header into *buf* for an entry at *own_offset*."""
        buf += _pack_header(*self, own_offset, k)

    @staticmethod
    def decode(
        buf: Buffer, off: int, own_offset: int, k: int
    ) -> Tuple["StreamHeader", int]:
        """Deserialize a header encoded at *off* for an entry at *own_offset*."""
        headers, off = _decode_headers(buf, off, 1, own_offset, k)
        return headers[0], off


def _pack_header(
    stream_id: int, ptrs: Sequence[int], is_absolute: bool, own_offset: int, k: int
) -> bytes:
    """One header's bytes; a short pointer list is padded with "none"."""
    if is_absolute:
        count = max(1, k // 4)
        raw = [_ABSOLUTE_NONE if ptr == NO_BACKPOINTER else ptr for ptr in ptrs[:count]]
        raw += [_ABSOLUTE_NONE] * (count - len(raw))
        return absolute_header(k).pack((stream_id << 1) | 1, *raw)
    deltas = []
    for ptr in ptrs[:k]:
        if ptr == NO_BACKPOINTER:
            deltas.append(0)
            continue
        delta = own_offset - ptr
        if not 0 < delta <= _MAX_RELATIVE_DELTA:
            raise ValueError(
                f"relative delta {delta} out of range at offset "
                f"{own_offset}; caller should have used the "
                f"absolute format"
            )
        deltas.append(delta)
    deltas += [0] * (k - len(deltas))
    return relative_header(k).pack(stream_id << 1, *deltas)


def _decode_headers(
    buf: Buffer, off: int, count: int, own_offset: int, k: int
) -> Tuple[Tuple[StreamHeader, ...], int]:
    """Decode *count* consecutive headers at *off*: one unpack per header."""
    relative = relative_header(k)
    headers = []
    for _ in range(count):
        if buf[off] & 1:  # the format bit is the low bit of the first byte
            layout = absolute_header(k)
            fields = layout.unpack_from(buf, off)
            ptrs = [
                NO_BACKPOINTER if p == _ABSOLUTE_NONE else p for p in fields[1:]
            ]
            headers.append(_new(StreamHeader, (fields[0] >> 1, tuple(ptrs), True)))
            off += layout.size
        else:
            fields = relative.unpack_from(buf, off)
            ptrs = [own_offset - d if d else NO_BACKPOINTER for d in fields[1:]]
            headers.append(_new(StreamHeader, (fields[0] >> 1, tuple(ptrs), False)))
            off += relative.size
    return tuple(headers), off


def _header_pointers(
    last_offsets: Sequence[int], own_offset: int, k: int
) -> Tuple[Tuple[int, ...], bool]:
    """The header format rule: ``(pointers, is_absolute)`` at *own_offset*.

    *last_offsets* is the sequencer's record of the last K offsets issued
    for the stream, newest first. The relative format is used unless
    **all** K deltas overflow 16 bits (paper section 5); in that case the
    header falls back to K/4 absolute pointers. Both are padded to the
    length ``decode`` returns, so a writer may keep what it encoded.
    """
    window = tuple(last_offsets[:k])
    live = [p for p in window if p != NO_BACKPOINTER] if NO_BACKPOINTER in window else window
    if not live:
        return (NO_BACKPOINTER,) * k, False
    if own_offset - max(live) > _MAX_RELATIVE_DELTA:
        count = max(1, k // 4)
        return tuple(live[:count]) + (NO_BACKPOINTER,) * (count - len(live)), True
    if own_offset - min(live) > _MAX_RELATIVE_DELTA:
        # Individually-overflowing pointers degrade to "none".
        window = tuple(
            p if own_offset - p <= _MAX_RELATIVE_DELTA else NO_BACKPOINTER for p in window
        )
    return window + (NO_BACKPOINTER,) * (k - len(window)), False


def make_header(stream_id: int, last_offsets: Sequence[int], own_offset: int, k: int) -> StreamHeader:
    """Build the header for an entry at *own_offset*, choosing the format
    by :func:`_header_pointers`."""
    return StreamHeader(stream_id, *_header_pointers(last_offsets, own_offset, k))


class LogEntry(NamedTuple):
    """A single entry in the shared log.

    ``headers`` carries one :class:`StreamHeader` per stream the entry
    belongs to (at most ``max_streams`` of them, a deployment-time
    constant). ``payload`` is opaque to CORFU; the Tango runtime packs
    update/commit records into it. ``is_junk`` marks entries written by
    the ``fill`` primitive to patch holes left by crashed clients; junk
    entries carry no headers and no payload.
    """

    headers: Tuple[StreamHeader, ...] = ()
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
        headers = self.headers
        if len(headers) > max_streams:
            raise TooManyStreamsError(len(headers), max_streams)
        buf = bytearray(ENTRY_PREFIX.pack(1 if self.is_junk else 0, len(headers)))
        for header in headers:
            header.encode(buf, own_offset, k)
        encode_bytes(buf, self.payload)
        return bytes(buf)

    @staticmethod
    def decode(raw: Buffer, own_offset: int, k: int = DEFAULT_K) -> "LogEntry":
        """Deserialize an entry previously produced by :meth:`encode`.

        ``payload`` comes back as ``bytes`` whatever buffer type *raw* is.
        At K = 4 an entry whose headers are all relative (each word's
        format bit clear) is one unpack of :func:`entry_head`, its
        pointers built without a loop when it has one header (the
        common entry); an absolute header or another K takes the
        per-header decoder.
        """
        if k == 4:
            nheaders = raw[2] | raw[3] << 8
            if nheaders == 1 and not raw[4] & 1:
                junk_flag, _, word, d1, d2, d3, d4, length = _ONE_HEADER.unpack_from(raw, 0)
                ptrs = (
                    own_offset - d1 if d1 else NO_BACKPOINTER,
                    own_offset - d2 if d2 else NO_BACKPOINTER,
                    own_offset - d3 if d3 else NO_BACKPOINTER,
                    own_offset - d4 if d4 else NO_BACKPOINTER,
                )
                header = _new(StreamHeader, (word >> 1, ptrs, False))
                payload = bytes(raw[20 : 20 + length])  # 20: _ONE_HEADER.size
                return _new(LogEntry, ((header,), payload, junk_flag != 0))
            head = entry_head(nheaders, 4)
            fields = head.unpack_from(raw, 0)
            built = []
            it = iter(fields[2:-1])
            for word, d1, d2, d3, d4 in zip(it, it, it, it, it):
                if word & 1:
                    break  # an absolute header: decode them all one by one
                ptrs = (
                    own_offset - d1 if d1 else NO_BACKPOINTER,
                    own_offset - d2 if d2 else NO_BACKPOINTER,
                    own_offset - d3 if d3 else NO_BACKPOINTER,
                    own_offset - d4 if d4 else NO_BACKPOINTER,
                )
                built.append(_new(StreamHeader, (word >> 1, ptrs, False)))
            else:
                payload = bytes(raw[head.size : head.size + fields[-1]])
                return _new(LogEntry, (tuple(built), payload, fields[0] != 0))
        junk_flag, nheaders = ENTRY_PREFIX.unpack_from(raw, 0)
        headers, off = _decode_headers(
            raw, ENTRY_PREFIX.size, nheaders, own_offset, k
        )
        (length,) = U32.unpack_from(raw, off)
        off += 4
        payload = bytes(raw[off : off + length])  # decode_bytes, inlined
        return _new(LogEntry, (headers, payload, junk_flag != 0))


def encode_append(
    own_offset: int, stream_ids: Sequence[int], backpointers: Mapping[int, Sequence[int]],
    payload: bytes, k: int, keep: bool = False,
) -> Tuple[bytes, Optional[LogEntry]]:
    """Encode a granted entry in one pass: ``(raw, entry or None)``.

    The bytes are those of ``LogEntry(headers=(make_header(sid,
    backpointers[sid], own_offset, k) for sid in stream_ids),
    payload).encode(own_offset, k)``, packed straight from each stream's
    pointer list. The :class:`LogEntry` is built only when *keep* is
    set (someone observes the append), from the same pointer lists. The
    caller has validated the stream ids and their count. This is
    :func:`encode_run`'s per-entry fallback and the sequencer
    checkpoint writer's encoder.
    """
    parts = [ENTRY_PREFIX.pack(0, len(stream_ids))]
    headers = []
    for sid in stream_ids:
        ptrs, is_absolute = _header_pointers(backpointers[sid], own_offset, k)
        parts.append(_pack_header(sid, ptrs, is_absolute, own_offset, k))
        if keep:
            headers.append(_new(StreamHeader, (sid, ptrs, is_absolute)))
    parts += (U32.pack(len(payload)), payload)
    return b"".join(parts), _new(LogEntry, (tuple(headers), payload, False)) if keep else None


def encode_run(
    first: int, stride: int, stream_ids: Sequence[int],
    prior: Mapping[int, Tuple[int, ...]], payloads: Sequence[bytes], k: int,
    keep: bool = False,
) -> Tuple[List[Tuple[int, bytes]], List[Optional[LogEntry]]]:
    """Encode a granted run: ``([(offset, raw)], [entry or None])``.

    Entry j sits at ``first + j * stride`` and joins every stream in
    *stream_ids*. Its pointers for a stream are its batch predecessors,
    newest first, then ``prior[sid]`` (the stream's live tail before the
    run, newest first, without sentinels), first K; its bytes are those
    of :func:`encode_append` with those pointers, and with *keep* set
    its :class:`LogEntry` is built from them. While every delta is in
    1..0xFFFF an entry's head is one :func:`entry_head` pack. From
    position K on every pointer is a batch predecessor at the same
    multiples of the stride, so a run without *keep* computes its head
    fields at most K + 1 times. An entry with a delta out of range
    takes :func:`encode_append`, whose header format rule decides.
    """
    nstreams = len(stream_ids)
    head = entry_head(nstreams, k)
    nones = (NO_BACKPOINTER,) * k
    zeros = (0,) * k
    entries: List[Tuple[int, bytes]] = []
    built: List[Optional[LogEntry]] = []
    batch: Tuple[int, ...] = ()  # the entry's batch predecessors, at most K
    fields: Optional[List[int]] = None
    headers: List[StreamHeader] = []
    offset = first
    for j, payload in enumerate(payloads):
        if j <= k or keep:
            fields, headers = [0, nstreams], []
            for sid in stream_ids:
                window = (batch + prior[sid])[:k]
                fields.append(sid << 1)
                for p in window:
                    delta = offset - p
                    if not 0 < delta <= _MAX_RELATIVE_DELTA:
                        break
                    fields.append(delta)
                else:  # every delta fits
                    fields += zeros[len(window):]
                    if keep:
                        headers.append(_new(StreamHeader, (sid, window + nones[len(window):], False)))
                    continue
                fields = None
                break
        if fields is None:
            raw, entry = encode_append(
                offset, stream_ids, {sid: batch + prior[sid] for sid in stream_ids},
                payload, k, keep,
            )
        else:
            raw = head.pack(*fields, len(payload)) + payload
            entry = _new(LogEntry, (tuple(headers), payload, False)) if keep else None
        entries.append((offset, raw))
        built.append(entry)
        if j < k or keep or fields is None:  # else no later entry reads it
            batch = (offset,) + batch[: k - 1]
        offset += stride
    return entries, built


# -- vector-grant markers ----------------------------------------------------

#: Magic prefix of a vector-grant marker entry. A cross-shard
#: multiappend reserves one offset per touched sequencer shard but
#: writes its data at the highest reservation only; each burned
#: reservation receives a headerless marker entry naming the final
#: offset and the streams of that reservation's shard, so a per-shard
#: recovery scan (which only reads its own stripe) still learns about
#: cross-shard entries living in other stripes. Markers carry no
#: stream headers — normal sync never sees them.
SEQ_VECTOR_MAGIC = b"SEQVEC1"


def encode_vector_marker(final_offset: int, stream_ids: Sequence[int]) -> bytes:
    """Payload of the marker written at a burned vector-grant reservation."""
    import json

    body = {"offset": final_offset, "streams": sorted(stream_ids)}
    return SEQ_VECTOR_MAGIC + json.dumps(
        body, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def decode_vector_marker(payload: bytes) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Invert :func:`encode_vector_marker`; None if not a marker."""
    import json

    if not payload.startswith(SEQ_VECTOR_MAGIC):
        return None
    try:
        body = json.loads(payload[len(SEQ_VECTOR_MAGIC):])
        return int(body["offset"]), tuple(int(s) for s in body["streams"])
    except (ValueError, KeyError, TypeError):
        return None


def header_bytes(k: int) -> int:
    """On-flash size of one stream header with redundancy *k*.

    With the default K=4 this is 12 bytes, matching the paper ("each
    extra stream requiring 12 bytes of space in a 4KB log entry").
    """
    return 4 + 2 * k


def max_payload_bytes(entry_size: int, max_streams: int, k: int = DEFAULT_K) -> int:
    """Payload capacity of an entry given the deployment parameters."""
    overhead = 2 + 2 + max_streams * header_bytes(k) + 4
    return entry_size - overhead
