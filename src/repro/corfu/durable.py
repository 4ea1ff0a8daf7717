"""Durable flash units: file-backed write-once storage.

The in-memory :class:`~repro.corfu.storage.FlashUnit` simulates an SSD
for a single process's lifetime; :class:`DurableFlashUnit` persists the
same write-once address space to a file, so a CORFU deployment — and
therefore every Tango object on it — survives process restarts, not
just node crashes.

The on-disk format is a simple intention log of framed records, append
only (matching how flash is written in practice):

``[op:u8][epoch:u64][address:u64][length:u32][data]``

- ``W`` — a page write;
- ``T`` — a single-address trim;
- ``P`` — a prefix trim (address is the new prefix);
- ``S`` — a seal (epoch is the new epoch).

Replaying the file rebuilds the unit exactly; torn trailing records
(from a crash mid-write) are discarded.
"""

from __future__ import annotations

import logging
import os
import struct

from repro.corfu.storage import FlashUnit

logger = logging.getLogger(__name__)

_FRAME = struct.Struct("<BQQI")
_OP_WRITE = ord("W")
_OP_TRIM = ord("T")
_OP_TRIM_PREFIX = ord("P")
_OP_SEAL = ord("S")


class DurableFlashUnit(FlashUnit):
    """A flash unit whose contents survive process restarts."""

    def __init__(self, name: str, path: str) -> None:
        super().__init__(name)
        self._path = path
        if os.path.exists(path):
            self._replay()
        self._file = open(path, "ab")

    # -- persistence ---------------------------------------------------------

    def _append_frame(self, op: int, epoch: int, address: int, data: bytes) -> None:
        # Deliberately holds the unit lock across file I/O: the frame
        # order must match the apply order, and write-once semantics
        # bound each critical section to a single small frame.
        self._file.write(_FRAME.pack(op, epoch, address, len(data)))  # tangolint: disable=TL012
        self._file.write(data)  # tangolint: disable=TL012
        self._file.flush()
        os.fsync(self._file.fileno())

    def _replay(self) -> None:
        """Rebuild state from the intention log, dropping torn tails."""
        with open(self._path, "rb") as f:
            raw = f.read()
        pos = 0
        valid = 0
        torn_reason = None
        while pos + _FRAME.size <= len(raw):
            op, epoch, address, length = _FRAME.unpack_from(raw, pos)
            body_start = pos + _FRAME.size
            if body_start + length > len(raw):
                torn_reason = (
                    f"torn frame at byte {pos} (need {length} body bytes, "
                    f"{len(raw) - body_start} left)"
                )
                break
            data = raw[body_start : body_start + length]
            if op == _OP_WRITE:
                # Recovery replays frames the guarded write() path
                # already validated before persisting them.
                self._pages[address] = data  # tangolint: disable=TL005
            elif op == _OP_TRIM:
                self._pages.pop(address, None)
                if not self._is_trimmed(address):  # as FlashUnit.trim
                    self._trimmed_sparse.add(address)
                self._compact_trims()
            elif op == _OP_TRIM_PREFIX:
                for addr in [a for a in self._pages if a < address]:
                    del self._pages[addr]
                self._trimmed_prefix = max(self._trimmed_prefix, address)
                self._trimmed_sparse = {
                    a for a in self._trimmed_sparse if a >= address
                }
            elif op == _OP_SEAL:
                self._epoch = max(self._epoch, epoch)
            else:
                torn_reason = f"unknown frame op 0x{op:02x} at byte {pos}"
                break  # corrupt record: stop trusting the tail
            pos = body_start + length
            valid = pos
        if valid < len(raw):
            if torn_reason is None:
                torn_reason = f"torn frame header at byte {valid}"
            logger.warning(
                "durable log %s: %s; discarding %d trailing bytes "
                "(crash mid-append)",
                self._path,
                torn_reason,
                len(raw) - valid,
            )
            # Truncate the torn tail so future appends stay parseable.
            with open(self._path, "ab") as f:
                f.truncate(valid)

    def close(self) -> None:
        """Release the file handle (the unit becomes unusable)."""
        self._file.close()

    # -- overridden mutations (apply, then persist; atomically) ---------------

    # Each override holds the unit lock (an RLock, so the inherited
    # mutation can re-enter it) across apply *and* persist: otherwise two
    # threads' frames can interleave mid-record in the file, or land in
    # an order that disagrees with the in-memory apply order. A page is
    # applied only once its frame is on file, so a failed write serves
    # nothing a reopen would lose.

    def write(self, address: int, data: bytes, epoch: int) -> None:
        with self._lock:
            self._check_write_locked(address, epoch)
            self._append_frame(_OP_WRITE, epoch, address, data)
            self._pages[address] = data
            self.writes += 1

    def trim(self, address: int, epoch: int) -> None:
        with self._lock:
            super().trim(address, epoch)
            self._append_frame(_OP_TRIM, epoch, address, b"")

    def trim_prefix(self, address: int, epoch: int) -> None:
        with self._lock:
            super().trim_prefix(address, epoch)
            self._append_frame(_OP_TRIM_PREFIX, epoch, address, b"")

    def seal(self, epoch: int) -> int:
        with self._lock:
            tail = super().seal(epoch)
            self._append_frame(_OP_SEAL, epoch, 0, b"")
            return tail


def open_durable_cluster(data_dir: str, **kwargs):
    """A :class:`~repro.corfu.cluster.CorfuCluster` backed by *data_dir*.

    By default each storage node persists to a segment-store directory
    ``<data_dir>/<node-name>.store`` (see :mod:`repro.store`); a legacy
    flat file ``<data_dir>/<node-name>.flash`` is migrated into it on
    first open and renamed to ``.flash.migrated``. Pass
    ``segmented=False`` for the original single-flat-file layout.

    Extra storage knobs (all optional): ``segment_bytes`` (roll size),
    ``sync`` (fsync before each write call returns — one per page, or
    per segment a ``write_many`` batch touches — default True),
    ``compaction_policy`` (a
    :class:`~repro.store.compactor.CompactionPolicy`).

    Reopening the same directory reconstructs the whole log — Tango
    clients then rebuild their views from it as usual. The sequencer is
    soft state and recovers via the slow check on first use after a
    restart (pass ``recover_sequencer=False`` to skip).
    """
    from repro.corfu import reconfig
    from repro.corfu.cluster import CorfuCluster

    recover_sequencer = kwargs.pop("recover_sequencer", True)
    segmented = kwargs.pop("segmented", True)
    segment_bytes = kwargs.pop("segment_bytes", None)
    sync = kwargs.pop("sync", True)
    compaction_policy = kwargs.pop("compaction_policy", None)
    os.makedirs(data_dir, exist_ok=True)
    cluster = CorfuCluster(**kwargs)
    for name in list(cluster._units):  # noqa: SLF001 - factory wiring
        path = os.path.join(data_dir, f"{name}.flash")
        if segmented:
            from repro.store import DEFAULT_SEGMENT_BYTES, SegmentedFlashUnit

            cluster._units[name] = SegmentedFlashUnit(
                name,
                os.path.join(data_dir, f"{name}.store"),
                segment_bytes=segment_bytes or DEFAULT_SEGMENT_BYTES,
                sync=sync,
                policy=compaction_policy,
                migrate_flat=path,
            )
        else:
            cluster._units[name] = DurableFlashUnit(name, path)
    if recover_sequencer:
        projection = cluster.projection
        tail = reconfig.slow_check_tail(cluster, projection)
        if tail > 0:
            stream_tails = reconfig.rebuild_stream_tails(
                cluster, projection, tail, cluster.k, projection.epoch
            )
            cluster.sequencer(projection.sequencer).bootstrap(
                tail, stream_tails, projection.epoch
            )
    return cluster
