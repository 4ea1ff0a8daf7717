"""Little-endian binary layouts of the shared log.

CORFU log entries are flat byte strings on the storage units, so every
record type in the system (stream headers, update records, commit
records) serializes itself through the layouts defined here — and only
here: :mod:`repro.corfu.entry` and :mod:`repro.tango.records` hold no
format strings of their own. A fixed run of fields is one precompiled
``struct.Struct``, packed and unpacked in a single call; variable-length
byte strings are a ``u32`` length prefix followed by the bytes
(:func:`encode_bytes` / :func:`decode_bytes`).
"""

from __future__ import annotations

import functools
import struct
from typing import Tuple

U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")

#: Log entry prefix: junk flag, number of stream headers.
ENTRY_PREFIX = struct.Struct("<HH")

#: Update record prefix: object id, transaction id, key-present flag.
UPDATE_PREFIX = struct.Struct("<IQH")
#: Commit record prefix: transaction id, flags, read-set size.
COMMIT_PREFIX = struct.Struct("<QHH")
#: Read-set entry prefix: object id, key-present flag.
READ_PREFIX = struct.Struct("<IH")
#: Decision record: transaction id, committed flag.
DECISION = struct.Struct("<QH")
#: Checkpoint prefix: object id, covered offset, object version,
#: unkeyed version, number of key versions.
CHECKPOINT_PREFIX = struct.Struct("<IQQQI")
#: Delta checkpoint prefix: object id, base offset, covered offset,
#: object version, unkeyed version, chain depth, number of key versions.
DELTA_CHECKPOINT_PREFIX = struct.Struct("<IQQQQHI")

@functools.lru_cache(maxsize=None)
def relative_header(k: int) -> struct.Struct:
    """Relative stream header: id/format word, then K ``u16`` deltas."""
    return struct.Struct("<I" + "H" * k)


@functools.lru_cache(maxsize=None)
def absolute_header(k: int) -> struct.Struct:
    """Absolute stream header: id/format word, then K/4 ``u64`` offsets."""
    return struct.Struct("<I" + "Q" * max(1, k // 4))


def encode_bytes(buf: bytearray, data: bytes) -> None:
    """Append a length-prefixed byte string to *buf*."""
    buf += U32.pack(len(data))
    buf += data


def decode_bytes(buf: bytes, off: int) -> Tuple[bytes, int]:
    """Read a length-prefixed byte string from *buf* at *off*."""
    (length,) = U32.unpack_from(buf, off)
    off += 4
    return bytes(buf[off : off + length]), off + length
