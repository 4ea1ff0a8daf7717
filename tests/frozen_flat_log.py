"""The legacy flat intention-log format, frozen.

Before segment stores, a durable storage node kept one append-only file,
``<node>.flash``, of intention frames::

    [op:u8][epoch:u64][address:u64][length:u32][data]

with ops ``W`` (page write), ``T`` (sparse trim), ``P`` (prefix trim,
address = the new prefix) and ``S`` (seal, epoch = the new epoch). The
unit that wrote these files is gone; ``repro.store.segment.read_flat_log``
still reads them and ``SegmentedFlashUnit`` migrates them. This writer
has its own ``struct`` so the tests check the reader and the migration
against the format as it was written, not as the current code packs it.
Nothing outside the tests imports this module.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

FRAME = struct.Struct("<BQQI")

WRITE = ord("W")
TRIM = ord("T")
TRIM_PREFIX = ord("P")
SEAL = ord("S")


class FlatLogWriter:
    """Appends intention frames to a flat log file.

    ``frames`` keeps every frame written, as ``(op, epoch, address,
    data)`` — the shape ``read_flat_log`` returns.
    """

    def __init__(self, path: str) -> None:
        self._file = open(path, "ab")
        self.frames: List[Tuple[int, int, int, bytes]] = []

    def _frame(self, op: int, epoch: int, address: int, data: bytes) -> None:
        self._file.write(FRAME.pack(op, epoch, address, len(data)))
        self._file.write(data)
        self.frames.append((op, epoch, address, data))

    def write(self, address: int, data: bytes, epoch: int = 0) -> None:
        self._frame(WRITE, epoch, address, data)

    def trim(self, address: int, epoch: int = 0) -> None:
        self._frame(TRIM, epoch, address, b"")

    def trim_prefix(self, address: int, epoch: int = 0) -> None:
        self._frame(TRIM_PREFIX, epoch, address, b"")

    def seal(self, epoch: int) -> None:
        self._frame(SEAL, epoch, 0, b"")

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "FlatLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
