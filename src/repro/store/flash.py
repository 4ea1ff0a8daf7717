"""A flash unit persisted to a segment store instead of one flat file.

:class:`SegmentedFlashUnit` mirrors
:class:`~repro.corfu.durable.DurableFlashUnit` — every mutation applies
in memory and persists one intention frame, atomically under the unit
lock, and a ``write_many`` batch persists its accepted pages in one
append — but frames land in a :class:`~repro.store.segment.SegmentStore`
directory, so trimmed history can be reclaimed by the
:class:`~repro.store.compactor.Compactor` instead of accreting forever.

A legacy flat-format file can be migrated in place: its frames are
streamed into the store unchanged and the file is renamed to
``<path>.migrated`` so the migration never repeats.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.corfu.storage import FlashUnit
from repro.store.compactor import CompactionPolicy, Compactor
from repro.store.segment import (
    DEFAULT_SEGMENT_BYTES,
    OP_SEAL,
    OP_TRIM,
    OP_TRIM_PREFIX,
    OP_WRITE,
    Frame,
    SegmentStore,
    read_flat_log,
)


class SegmentedFlashUnit(FlashUnit):
    """A durable flash unit backed by sealed, compactable segments."""

    def __init__(
        self,
        name: str,
        directory: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync: bool = True,
        policy: Optional[CompactionPolicy] = None,
        migrate_flat: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.directory = directory
        self.store = SegmentStore(
            directory, segment_bytes=segment_bytes, sync=sync
        )
        for op, epoch, address, data in self.store.replay():
            self._apply_frame(op, epoch, address, data)
        if migrate_flat is not None and os.path.exists(migrate_flat):
            self._migrate_flat(migrate_flat)
        self.compactor = Compactor(self, policy=policy)

    # -- recovery -------------------------------------------------------------

    def _apply_frame(self, op: int, epoch: int, address: int, data: bytes) -> None:
        """Apply one replayed frame (mirrors the flat-format replay)."""
        if op == OP_WRITE:
            if self._is_trimmed(address):
                # A compacted segment's trim preamble can precede a W
                # frame for an address trimmed later in log time; the
                # trim wins either way.
                return
            # Recovery replays frames the guarded write() path already
            # validated (epoch included) before persisting them, so no
            # re-validation here — frames legitimately predate later
            # seals in the same log.
            self._pages[address] = data  # tangolint: disable=TL004,TL005
        elif op == OP_TRIM:
            self._pages.pop(address, None)
            if not self._is_trimmed(address):  # as FlashUnit.trim
                self._trimmed_sparse.add(address)
            self._compact_trims()
        elif op == OP_TRIM_PREFIX:
            for addr in [a for a in self._pages if a < address]:
                del self._pages[addr]
            self._trimmed_prefix = max(self._trimmed_prefix, address)
            self._trimmed_sparse = {
                a for a in self._trimmed_sparse if a >= address
            }
            self._compact_trims()
        elif op == OP_SEAL:
            self._epoch = max(self._epoch, epoch)

    def _migrate_flat(self, path: str) -> None:
        """Import a legacy flat intention log, then retire the file."""
        frames = read_flat_log(path)
        self.store.append_frames(frames)
        for op, epoch, address, data in frames:
            self._apply_frame(op, epoch, address, data)
        os.replace(path, path + ".migrated")

    # -- overridden mutations (apply and persist; atomically) -----------------

    # As in DurableFlashUnit, each override holds the unit lock (an
    # RLock, so the inherited mutation can re-enter it) across apply
    # *and* persist, keeping file frame order equal to apply order. A
    # page is applied only once its frame is on file.

    def write(self, address: int, data: bytes, epoch: int) -> None:
        with self._lock:
            self._check_write_locked(address, epoch)
            self.store.append_frame(OP_WRITE, epoch, address, data)
            self._pages[address] = data
            self.writes += 1

    def write_many(self, writes, epoch: int) -> Dict[int, str]:
        """:meth:`FlashUnit.write_many`, persisted as one frame append.

        The accepted pages' frames go to the store together, in batch
        order — one file write per segment they touch. Pages are applied
        only once their frames are on file; if a later segment's write
        fails, exactly the pages written before it are applied and the
        error propagates.
        """
        with self._lock:
            self._check_up()
            self._check_epoch(epoch)
            results: Dict[int, str] = {}
            frames: List[Frame] = []
            # _is_trimmed, inlined: this loop runs once per page. An
            # address already in *results* was accepted earlier in the
            # batch (a trimmed one would be trimmed again).
            prefix, sparse, pages = (
                self._trimmed_prefix, self._trimmed_sparse, self._pages,
            )
            for address, data in writes:
                if address < 0:
                    raise ValueError(f"negative address {address}")
                if address < prefix or address in sparse:
                    results[address] = "trimmed"
                elif address in pages or address in results:
                    results[address] = "written"
                else:
                    results[address] = "ok"
                    frames.append((OP_WRITE, epoch, address, data))
            if frames:
                before = self.store.frames_appended
                try:
                    self.store.append_frames(frames)
                finally:
                    written = self.store.frames_appended - before
                    for _op, _epoch, address, data in frames[:written]:
                        super().write(address, data, epoch)
            return results

    def trim(self, address: int, epoch: int) -> None:
        with self._lock:
            super().trim(address, epoch)
            self.store.append_frame(OP_TRIM, epoch, address, b"")

    def trim_prefix(self, address: int, epoch: int) -> None:
        with self._lock:
            super().trim_prefix(address, epoch)
            self.store.append_frame(OP_TRIM_PREFIX, epoch, address, b"")

    def seal(self, epoch: int) -> int:
        with self._lock:
            tail = super().seal(epoch)
            self.store.append_frame(OP_SEAL, epoch, 0, b"")
            return tail

    # -- compaction surface ----------------------------------------------------

    def trim_snapshot(self):
        """(epoch, trimmed_prefix, sparse trims) — the liveness horizon."""
        with self._lock:
            return (self._epoch, self._trimmed_prefix, set(self._trimmed_sparse))

    def compact(self) -> Dict[str, int]:
        """Run one deterministic compaction sweep (also an admin RPC)."""
        return self.compactor.run_once()

    def start_compaction(self, interval: float = 0.05) -> None:
        """Start the background compaction thread."""
        self.compactor.start(interval)

    def stop_compaction(self) -> None:
        self.compactor.stop()

    def store_status(self) -> Dict[str, object]:
        """Segment/garbage/compaction accounting (also an admin RPC)."""
        with self._lock:
            epoch = self._epoch
            prefix = self._trimmed_prefix
            sparse = set(self._trimmed_sparse)
            pages = len(self._pages)
            resident = sum(len(data) for data in self._pages.values())

        def is_dead(address: int) -> bool:
            return address < prefix or address in sparse

        status = self.store.usage(is_dead)
        status["kind"] = "segmented"
        status["name"] = self.name
        status["epoch"] = epoch
        status["trimmed_prefix"] = prefix
        status["pages"] = pages
        status["resident_bytes"] = resident
        status["compaction"] = self.compactor.counters()
        return status

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop compaction and release the active segment handle."""
        self.compactor.stop()
        self.store.close()
