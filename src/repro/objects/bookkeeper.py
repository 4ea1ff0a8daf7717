"""TangoBK: BookKeeper's single-writer ledger abstraction over Tango.

Paper section 6.3: "We also implemented the single-writer ledger
abstraction of BookKeeper in around 300 lines of Java code ... Ledger
writes directly translate into stream appends (with some metadata added
to enforce the single-writer property)."

A :class:`Ledger` is a Tango object whose view is the ordered list of
committed entries. The single-writer property is enforced
deterministically in the apply upcall: an ``add`` is accepted only if it
carries the current writer's token and the next expected entry id.
Fencing (BookKeeper's recovery-open) installs a new writer token, after
which the old writer's in-flight adds are rejected by every view —
including the old writer's own, which is how it learns it has been
fenced.

:class:`TangoBK` is the thin manager API (create/open/delete by name)
mirroring BookKeeper's client.
"""

from __future__ import annotations

import base64
import itertools
import json
from typing import List, Optional, Tuple

from repro.errors import LedgerClosedError, LedgerFencedError
from repro.tango.object import TangoObject
from repro.util.encoding import OpTable
from repro.util.ident import default_source

_STATE_OPEN = "open"
_STATE_CLOSED = "closed"


class Ledger(TangoObject):
    """A single-writer, append-only sequence of byte entries."""

    # An add's data is base64 text, so legacy JSON adds decode to the same.
    OPS = OpTable("claim writer", "add writer seq data", "fence writer", "close writer last")

    def __init__(
        self,
        runtime,
        oid: int,
        writer_token: Optional[str] = None,
        host_view: bool = True,
    ) -> None:
        # View state (modified only via apply).
        self._entries: List[bytes] = []
        self._entry_offsets: List[int] = []
        self._writer: Optional[str] = None
        self._state = _STATE_OPEN
        # Local (soft) writer identity, drawn from the seedable process
        # identity source so deterministic-replay tests can pin it.
        if writer_token is None:
            writer_token = default_source().writer_token()
        self.writer_token = writer_token
        self._next_seq = 0
        super().__init__(runtime, oid, host_view=host_view)

    # ------------------------------------------------------------------
    # apply upcall — the deterministic single-writer gate
    # ------------------------------------------------------------------

    def _apply_claim(self, writer: str, offset: int) -> None:
        # First claim wins; later claims by other writers are
        # rejected unless they are fences.
        if self._writer is None:
            self._writer = writer

    def _apply_add(self, writer: str, seq: int, data: str, offset: int) -> None:
        if (
            self._state == _STATE_OPEN
            and writer == self._writer
            and seq == len(self._entries)
        ):
            self._entries.append(base64.b64decode(data))
            self._entry_offsets.append(offset)

    def _apply_fence(self, writer: str, offset: int) -> None:
        # Recovery-open: depose the writer. The ledger stays open
        # for the fencer (who becomes the writer) to close it.
        self._writer = writer

    def _apply_close(self, writer: str, last: Optional[int], offset: int) -> None:
        if writer == self._writer and self._state == _STATE_OPEN:
            self._state = _STATE_CLOSED
            # A close may truncate to the writer's chosen last entry
            # (BookKeeper semantics: recovery decides LAC).
            if last is not None and last + 1 < len(self._entries):
                del self._entries[last + 1 :]
                del self._entry_offsets[last + 1 :]

    def get_checkpoint(self) -> bytes:
        return json.dumps(
            {
                "entries": [base64.b64encode(e).decode("ascii") for e in self._entries],
                "offsets": self._entry_offsets,
                "writer": self._writer,
                "state": self._state,
            }
        ).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        data = json.loads(state.decode("utf-8"))
        self._entries = [base64.b64decode(e) for e in data["entries"]]
        self._entry_offsets = list(data["offsets"])
        self._writer = data["writer"]
        self._state = data["state"]

    # ------------------------------------------------------------------
    # writer API
    # ------------------------------------------------------------------

    def claim(self) -> None:
        """Become the ledger's writer (first claimer wins)."""
        self._op("claim", self.writer_token)
        self._query()
        if self._writer != self.writer_token:
            raise LedgerFencedError(
                f"ledger {self.oid} already owned by {self._writer}"
            )
        self._next_seq = len(self._entries)

    def add_entries(self, batch) -> int:
        """Append several entries; returns the last entry id.

        The whole batch is buffered as one transaction-free sequence of
        appends followed by a single acceptance check, so the common
        journaling pattern ("write these N edits, then fsync") pays one
        playback sync instead of N.
        """
        if not batch:
            return self.last_entry_id()
        first_seq = self._next_seq
        for index, data in enumerate(batch):
            self._add(first_seq + index, data)
        self._query()
        last_seq = first_seq + len(batch) - 1
        if len(self._entries) <= last_seq or self._entries[last_seq] != batch[-1]:
            if self._state == _STATE_CLOSED:
                raise LedgerClosedError(f"ledger {self.oid} is closed")
            raise LedgerFencedError(
                f"ledger {self.oid}: writer {self.writer_token} was fenced "
                f"by {self._writer}"
            )
        self._next_seq = last_seq + 1
        return last_seq

    def length(self) -> int:
        """Number of committed entries (linearizable)."""
        self._query()
        return len(self._entries)

    def read_last_confirmed(self) -> int:
        """BookKeeper's LAC: the last entry every reader may safely read.

        In this design every applied entry is committed (the apply
        upcall is the commit point), so LAC equals the last entry id.
        """
        return self.last_entry_id()

    def add_entry(self, data: bytes) -> int:
        """Append one entry; returns its entry id.

        One stream append plus one sync (the sync verifies acceptance —
        a rejected add means this writer has been fenced or the ledger
        closed).
        """
        seq = self._next_seq
        self._add(seq, data)
        self._query()
        if len(self._entries) <= seq or self._entries[seq] != data:
            if self._state == _STATE_CLOSED:
                raise LedgerClosedError(f"ledger {self.oid} is closed")
            raise LedgerFencedError(
                f"ledger {self.oid}: writer {self.writer_token} was fenced "
                f"by {self._writer}"
            )
        self._next_seq = seq + 1
        return seq

    def _add(self, seq: int, data: bytes) -> None:
        self._op("add", self.writer_token, seq, base64.b64encode(data).decode("ascii"))

    def close(self) -> None:
        """Close the ledger; subsequent adds fail everywhere."""
        self._op("close", self.writer_token, None)
        self._query()

    # ------------------------------------------------------------------
    # reader / recovery API
    # ------------------------------------------------------------------

    def fence_and_recover(self) -> int:
        """BookKeeper's recovery-open: depose the writer, seal the state.

        Returns the id of the last committed entry (-1 if empty). After
        this call the caller may read a stable prefix and the old writer
        can no longer extend it.
        """
        self._op("fence", self.writer_token)
        self._query()
        last = len(self._entries) - 1
        self._op("close", self.writer_token, last)
        self._query()
        return last

    def read_entries(self, first: int, last: int) -> Tuple[bytes, ...]:
        """Entries ``first..last`` inclusive (linearizable)."""
        self._query()
        if first < 0 or last >= len(self._entries) or first > last:
            raise ValueError(
                f"range [{first}, {last}] out of bounds "
                f"(ledger has {len(self._entries)} entries)"
            )
        return tuple(self._entries[first : last + 1])

    def last_entry_id(self) -> int:
        self._query()
        return len(self._entries) - 1

    def entry_offset(self, entry_id: int) -> int:
        """Shared-log offset backing one entry (index-over-log behaviour)."""
        self._query()
        return self._entry_offsets[entry_id]

    @property
    def is_closed(self) -> bool:
        self._query()
        return self._state == _STATE_CLOSED

    @property
    def current_writer(self) -> Optional[str]:
        self._query()
        return self._writer


class TangoBK:
    """Ledger manager: create/open/delete ledgers by name.

    Thin sugar over the Tango directory, mirroring the BookKeeper client
    API shape.
    """

    def __init__(self, runtime, directory) -> None:
        self._runtime = runtime
        self._directory = directory
        self._counter = itertools.count()

    def create_ledger(self, name: str, writer_token: Optional[str] = None) -> Ledger:
        """Create (or open) a ledger and claim its writership."""
        ledger = self._directory.open(Ledger, name, writer_token=writer_token)
        ledger.claim()
        return ledger

    def open_ledger(
        self, name: str, recovery: bool = False, writer_token: Optional[str] = None
    ) -> Ledger:
        """Open an existing ledger for reading.

        With ``recovery=True``, fences the current writer first
        (BookKeeper's openLedger recovery mode).
        """
        ledger = self._directory.open(Ledger, name, writer_token=writer_token)
        if recovery:
            ledger.fence_and_recover()
        return ledger

    def delete_ledger(self, name: str) -> None:
        """Unbind the ledger's name (its history remains until GC)."""
        self._directory.remove(name)
