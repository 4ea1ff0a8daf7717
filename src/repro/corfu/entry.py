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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import TooManyStreamsError
from repro.util.encoding import (
    decode_bytes,
    encode_bytes,
    pack_u16,
    pack_u32,
    pack_u64,
    unpack_u16,
    unpack_u32,
    unpack_u64,
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
