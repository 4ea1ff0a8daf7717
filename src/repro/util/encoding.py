"""Little-endian binary layouts of the shared log.

CORFU log entries are flat byte strings on the storage units, so every
record type in the system (stream headers, update records, commit
records) serializes itself through the layouts defined here — and only
here: :mod:`repro.corfu.entry` and :mod:`repro.tango.records` hold no
format strings of their own. A fixed run of fields is one precompiled
``struct.Struct``, packed and unpacked in a single call; variable-length
byte strings are a ``u32`` length prefix followed by the bytes
(:func:`encode_bytes` / :func:`decode_bytes`).

Tango objects' update payloads are opaque to the runtime; the library's
objects encode theirs as *ops* through :class:`OpTable`: one tag byte
naming the op, then each field as one tagged value.
"""

from __future__ import annotations

import functools
import json
import struct
from typing import Any, List, Sequence, Tuple

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


# -- object ops --------------------------------------------------------------

#: First op tag. No JSON text starts with a byte >= 0x80 (JSON starts
#: with ASCII: whitespace, ``{``, ``[``, ``"``, ``-``, a digit, ``t``,
#: ``f``, ``n``, ``N`` or ``I``), so an op payload never parses as a
#: legacy JSON op and vice versa.
OP_TAG_BASE = 0x80

# Value tags. A scalar is packed; anything else is its JSON text, so a
# value decodes to exactly what ``json.loads(json.dumps(value))`` gives.
# A string shorter than 256 bytes has a one-byte length.
_NONE, _FALSE, _TRUE, _INT, _FLOAT, _STR8, _STR, _JSON = range(8)
_TAGGED_INT = struct.Struct("<Bq")
_TAGGED_FLOAT = struct.Struct("<Bd")
_TAGGED_LEN8 = struct.Struct("<BB")
_TAGGED_LEN = struct.Struct("<BI")
_unpack_i64 = struct.Struct("<q").unpack_from
_unpack_f64 = struct.Struct("<d").unpack_from
_unpack_u32 = U32.unpack_from
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_BYTE = [bytes((b,)) for b in range(256)]
_SCALARS = {None: _BYTE[_NONE], False: _BYTE[_FALSE], True: _BYTE[_TRUE]}


def encode_values(parts: List[bytes], values: Sequence[Any]) -> None:
    """Append each of *values*, tagged, to *parts*.

    None, bools, floats, strings and ints that fit in i64 are packed;
    any other value travels as its JSON text (so it must be
    JSON-serializable, and decodes as JSON would decode it).
    """
    for value in values:
        kind = type(value)
        if kind is str:
            try:
                raw = value.encode()
            except UnicodeEncodeError:  # lone surrogates: JSON escapes them
                pass
            else:
                if len(raw) < 256:
                    parts.append(_TAGGED_LEN8.pack(_STR8, len(raw)))
                else:
                    parts.append(_TAGGED_LEN.pack(_STR, len(raw)))
                parts.append(raw)
                continue
        elif kind is int:
            if _I64_MIN <= value <= _I64_MAX:
                parts.append(_TAGGED_INT.pack(_INT, value))
                continue
        elif kind is float:
            parts.append(_TAGGED_FLOAT.pack(_FLOAT, value))
            continue
        elif value is None or kind is bool:
            parts.append(_SCALARS[value])
            continue
        raw = json.dumps(value).encode()
        parts.append(_TAGGED_LEN.pack(_JSON, len(raw)))
        parts.append(raw)


def decode_values(buf: bytes, off: int) -> List[Any]:
    """Every tagged value in *buf* from *off* to its end, in order."""
    values: List[Any] = []
    end = len(buf)
    while off < end:
        tag = buf[off]
        if tag == _STR8:
            start = off + 2
            off = start + buf[off + 1]
            values.append(buf[start:off].decode())
        elif tag == _INT:
            values.append(_unpack_i64(buf, off + 1)[0])
            off += 9
        elif tag <= _TRUE:
            values.append((None, False, True)[tag])
            off += 1
        elif tag == _FLOAT:
            values.append(_unpack_f64(buf, off + 1)[0])
            off += 9
        elif tag == _STR or tag == _JSON:
            start = off + 5
            off = start + _unpack_u32(buf, off + 1)[0]
            text = buf[start:off].decode()
            values.append(text if tag == _STR else json.loads(text))
        else:
            raise ValueError(f"unknown value tag {tag:#04x} at {off}")
    return values


class OpTable:
    """The update ops of one object type: names, fields and tags.

    Declared once per type, one ``"name field ..."`` string per op::

        OPS = OpTable("put k v", "remove k", "clear")

    An op is its tag byte (``OP_TAG_BASE`` plus the op's position in
    the table) followed by its fields in declared order, each one
    tagged value (:func:`encode_values`). Tags are positions, so a
    table only ever grows at its end: logs outlive code. Objects that
    read one stream must share its table.
    """

    __slots__ = ("ops", "_tags")

    def __init__(self, *specs: str) -> None:
        if len(specs) > 0x100 - OP_TAG_BASE:
            raise ValueError(f"at most {0x100 - OP_TAG_BASE} ops per table")
        #: ``(name, fields)`` per op, in tag order.
        self.ops: Tuple[Tuple[str, Tuple[str, ...]], ...] = tuple(
            (name, tuple(fields)) for name, *fields in map(str.split, specs)
        )
        self._tags = {
            name: (_BYTE[OP_TAG_BASE + i], len(fields))
            for i, (name, fields) in enumerate(self.ops)
        }

    def tag(self, name: str) -> int:
        """The tag byte of op *name*."""
        try:
            return self._tags[name][0][0]
        except KeyError:
            raise ValueError(f"unknown op {name!r}") from None

    def fields(self, name: str) -> Tuple[str, ...]:
        """The declared field names of op *name*."""
        return self.ops[self.tag(name) - OP_TAG_BASE][1]

    def encode(self, name: str, values: Sequence[Any]) -> bytes:
        """One op's payload: its tag, then *values* in field order."""
        try:
            tag, arity = self._tags[name]
        except KeyError:
            raise ValueError(f"unknown op {name!r}") from None
        if len(values) != arity:
            raise TypeError(f"op {name!r} takes {arity} fields, got {len(values)}")
        parts = [tag]
        encode_values(parts, values)
        return b"".join(parts)

    def decode(self, payload: bytes) -> Tuple[str, List[Any]]:
        """``(name, values)`` of one op payload written by :meth:`encode`."""
        index = payload[0] - OP_TAG_BASE
        if not 0 <= index < len(self.ops):
            raise ValueError(f"unknown op tag {payload[0]:#04x}")
        return self.ops[index][0], decode_values(payload, 1)
