"""Flash storage units.

Paper section 2.2: "Each individual storage node exposes a 64-bit
write-once address space ... a single CORFU storage node is an SSD with a
custom interface (i.e., a write-once, 64-bit address space instead of a
conventional LBA, where space is freed by explicit trims rather than
overwrites)."

A :class:`FlashUnit` here is the in-memory simulation of one such SSD.
It enforces exactly the semantics the protocols rely on:

- **write-once**: a second write to the same address raises
  :class:`~repro.errors.WrittenError`; this is what lets chain
  replication arbitrate append races without coordination.
- **trim**: explicit reclamation; reading a trimmed address raises
  :class:`~repro.errors.TrimmedError`.
- **seal**: reconfiguration fences an old epoch; requests carrying a
  stale epoch raise :class:`~repro.errors.SealedError`.
- **local tail**: the unit tracks the highest written address, which the
  slow check uses to recover the global tail when the sequencer is down.
- **crash / recover**: a down unit raises
  :class:`~repro.errors.NodeDownError` for every operation. Flash is
  non-volatile, so recovery preserves contents.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    NodeDownError,
    SealedError,
    TrimmedError,
    UnwrittenError,
    WrittenError,
)


class FlashUnit:
    """One storage node: a write-once 64-bit address space over flash."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._pages: Dict[int, bytes] = {}
        self._trimmed_prefix = 0  # all addresses < this are trimmed
        self._trimmed_sparse: set = set()
        self._epoch = 0
        self._down = False
        # Counters exposed for tests and the performance model: pages
        # served, reads of a trimmed address (a lone read that raised
        # TrimmedError, or one "trimmed" outcome of a batch), pages
        # written.
        self.reads = 0
        self.trimmed_reads = 0
        self.writes = 0
        self.trims = 0
        self._lock = threading.RLock()

    # -- lifecycle ----------------------------------------------------------

    def crash(self) -> None:
        """Take the unit down; subsequent operations raise NodeDownError.

        Taken under the lock so an in-flight data-path operation from
        another thread observes either the live unit or the crash,
        never a page write that lands after the "crash".
        """
        with self._lock:
            self._down = True

    def recover(self) -> None:
        """Bring the unit back up with its (non-volatile) contents intact."""
        with self._lock:
            self._down = False

    @property
    def is_down(self) -> bool:
        with self._lock:
            return self._down

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def _check_up(self) -> None:
        if self._down:
            raise NodeDownError(self.name)

    def _check_epoch(self, epoch: int) -> None:
        if epoch < self._epoch:
            raise SealedError(self._epoch)

    def _is_trimmed(self, address: int) -> bool:
        return address < self._trimmed_prefix or address in self._trimmed_sparse

    # -- data path ----------------------------------------------------------

    def write(self, address: int, data: bytes, epoch: int) -> None:
        """Write-once *data* at *address*.

        Raises :class:`WrittenError` if the address already holds data,
        :class:`TrimmedError` if it was reclaimed, and
        :class:`SealedError` if *epoch* is stale.
        """
        # _check_write_locked, inlined: this is the in-memory hot path.
        if address < 0:
            raise ValueError(f"negative address {address}")
        with self._lock:
            self._check_up()
            self._check_epoch(epoch)
            if self._is_trimmed(address):
                raise TrimmedError(address)
            if address in self._pages:
                raise WrittenError(address)
            self._pages[address] = data
            self.writes += 1

    def _check_write_locked(self, address: int, epoch: int) -> None:
        """Raise whatever :meth:`write` would refuse *address* with.

        Changes nothing: a persistent subclass's :meth:`write` checks,
        persists the page's frame, and only then installs the page, so a
        page is never served unless it is on file.
        """
        if address < 0:
            raise ValueError(f"negative address {address}")
        self._check_up()
        self._check_epoch(epoch)
        if self._is_trimmed(address):
            raise TrimmedError(address)
        if address in self._pages:
            raise WrittenError(address)

    def _check_batch_locked(
        self, writes, epoch: int
    ) -> Tuple[Dict[int, str], List[Tuple[int, bytes]]]:
        """Classify a :meth:`write_many` batch; change nothing.

        Makes :meth:`write`'s checks once per batch: the node-level ones
        (down, stale epoch) raise for the whole call, as does a negative
        address anywhere in it. Returns ``({address: status}, accepted)``
        where *accepted* lists the ``"ok"`` pages in batch order; an
        address accepted earlier in the same batch reports
        ``"written"``, as a second :meth:`write` would.
        """
        self._check_up()
        self._check_epoch(epoch)
        results: Dict[int, str] = {}
        accepted: List[Tuple[int, bytes]] = []
        # _is_trimmed, inlined: this loop runs once per page.
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
                accepted.append((address, data))
        return results, accepted

    def write_many(self, writes, epoch: int) -> Dict[int, str]:
        """Batched write: one RPC applying ``(address, data)`` pairs in order.

        Returns ``{address: status}`` where *status* is ``"ok"`` (the
        page was accepted), ``"written"`` or ``"trimmed"``. As with
        :meth:`read_many`, per-address outcomes are *data* — a batch
        must not stop because one offset lost its write-once race —
        while node-level conditions (down node, stale epoch) and a
        negative address raise for the whole call before anything is
        applied. The batch is checked once, then its accepted pages are
        installed together; the segmented store's unit persists them in
        one append in between. The whole batch holds the unit lock, so
        a delivery repeated by the network bounces off write-once and
        reports ``"written"``.
        """
        with self._lock:
            results, accepted = self._check_batch_locked(writes, epoch)
            self._pages.update(accepted)
            self.writes += len(accepted)
            return results

    def read(self, address: int, epoch: int) -> bytes:
        """Read the data at *address*.

        Raises :class:`UnwrittenError` for holes, :class:`TrimmedError`
        for reclaimed addresses, :class:`SealedError` for stale epochs.
        """
        with self._lock:
            self._check_up()
            self._check_epoch(epoch)
            if self._is_trimmed(address):
                self.trimmed_reads += 1
                raise TrimmedError(address)
            if address not in self._pages:
                raise UnwrittenError(address)
            self.reads += 1
            return self._pages[address]

    def read_many(self, addresses, epoch: int):
        """Batched read: one RPC returning a per-address outcome map.

        Returns ``{address: (status, data)}`` where *status* is ``"ok"``
        (with the page bytes), ``"unwritten"`` or ``"trimmed"`` (with
        ``None``). Per-address holes and reclaimed pages are *data*, not
        errors — a batch must not fail because one offset is a hole.
        Node-level conditions (down node, stale epoch) still raise for
        the whole call, exactly like :meth:`read`.
        """
        with self._lock:
            self._check_up()
            self._check_epoch(epoch)
            results: Dict[int, Tuple[str, Optional[bytes]]] = {}
            # _is_trimmed, inlined: this loop runs once per address.
            prefix, sparse, pages = (
                self._trimmed_prefix, self._trimmed_sparse, self._pages,
            )
            served = trimmed = 0
            for address in addresses:
                if address < prefix or address in sparse:
                    trimmed += 1
                    results[address] = ("trimmed", None)
                    continue
                data = pages.get(address)
                if data is None:
                    results[address] = ("unwritten", None)
                else:
                    served += 1
                    results[address] = ("ok", data)
            self.reads += served
            self.trimmed_reads += trimmed
            return results

    def is_written(self, address: int, epoch: int) -> bool:
        """True if *address* holds data (trimmed counts as written)."""
        with self._lock:
            self._check_up()
            self._check_epoch(epoch)
            return address in self._pages or self._is_trimmed(address)

    def trim(self, address: int, epoch: int) -> None:
        """Reclaim a single address (idempotent)."""
        with self._lock:
            self._check_up()
            self._check_epoch(epoch)
            self._pages.pop(address, None)
            if not self._is_trimmed(address):
                self._trimmed_sparse.add(address)
            self.trims += 1
            self._compact_trims()

    def trim_prefix(self, address: int, epoch: int) -> None:
        """Reclaim every address strictly below *address*.

        Sequential trims "result in substantially less wear on the flash
        than random trims" (section 2.2); Tango's directory-driven GC
        issues prefix trims.
        """
        with self._lock:
            self._check_up()
            self._check_epoch(epoch)
            if address <= self._trimmed_prefix:
                return
            for addr in [a for a in self._pages if a < address]:
                del self._pages[addr]
            self._trimmed_prefix = address
            self._trimmed_sparse = {
                a for a in self._trimmed_sparse if a >= address
            }
            self._compact_trims()
            self.trims += 1

    def _compact_trims(self) -> None:
        """Fold sparse trims adjacent to the prefix into the prefix."""
        while self._trimmed_prefix in self._trimmed_sparse:
            self._trimmed_sparse.discard(self._trimmed_prefix)
            self._trimmed_prefix += 1

    # -- control path -------------------------------------------------------

    def seal(self, epoch: int) -> int:
        """Fence all requests below *epoch*; returns the local tail.

        Used by reconfiguration: once every unit of the old projection is
        sealed, no in-flight client operation from the old epoch can
        complete, so the new projection can be installed safely.
        """
        with self._lock:
            self._check_up()
            if epoch <= self._epoch:
                raise SealedError(self._epoch)
            self._epoch = epoch
            return self.local_tail()

    def local_tail(self) -> int:
        """Highest written local address + 1 (0 if nothing written)."""
        with self._lock:
            self._check_up()
            high = -1
            if self._pages:
                high = max(self._pages)
            if self._trimmed_prefix > 0:
                high = max(high, self._trimmed_prefix - 1)
            if self._trimmed_sparse:
                high = max(high, max(self._trimmed_sparse))
            return high + 1

    def written_addresses(self):
        """Iterate over currently-held addresses (for rebuild/scan paths)."""
        with self._lock:
            self._check_up()
            return sorted(self._pages)

    def store_status(self):
        """Storage accounting for this unit (admin RPC; read-only).

        The in-memory base unit has no segments; subclasses backed by
        :mod:`repro.store` override this with disk/compaction detail
        using the same keys.
        """
        with self._lock:
            self._check_up()
            return {
                "kind": "memory",
                "name": self.name,
                "epoch": self._epoch,
                "trimmed_prefix": self._trimmed_prefix,
                "pages": len(self._pages),
                "resident_bytes": sum(len(d) for d in self._pages.values()),
                "segments": 0,
                "sealed_segments": 0,
                "disk_bytes": 0,
                "data_bytes": 0,
                "dead_bytes": 0,
                "live_bytes": 0,
                "garbage_ratio": 0.0,
                "compaction": {},
            }

    def compact(self):
        """Reclaim dead storage now (admin RPC; idempotent).

        The in-memory unit frees trimmed pages eagerly, so this is a
        no-op reported as zero work; segmented units override it.
        """
        with self._lock:
            self._check_up()
        return {
            "segments_compacted": 0,
            "segments_written": 0,
            "frames_dropped": 0,
            "bytes_reclaimed": 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self._down else f"epoch={self._epoch}"
        return f"<FlashUnit {self.name} {state} pages={len(self._pages)}>"
