"""Transaction context objects.

Two kinds of state live here:

- :class:`TxContext` — the thread-local context created by ``BeginTX``
  on the *generating* client: the read set accumulated by accessors and
  the buffered updates accumulated by mutators ("The update_helper call
  now buffers updates instead of writing them immediately to the shared
  log", section 3.2).
- :class:`PendingTx` — the playback-side state a *consuming* client
  keeps for a transaction it has seen speculative updates (or an
  undecidable commit record) for.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.tango.records import CommitRecord, ReadSetEntry, UpdateRecord


class TxContext:
    """Generating-client state for one open transaction."""

    def __init__(self, tx_id: int) -> None:
        self.tx_id = tx_id
        self.read_set: List[ReadSetEntry] = []
        self._read_keys: set = set()
        self.updates: List[UpdateRecord] = []
        self.write_oids: List[int] = []

    def record_read(self, oid: int, key: Optional[bytes], version: int) -> None:
        """Add one accessor invocation to the read set (deduplicated).

        Only the first read of a location matters: the transaction's
        conflict window starts at the first read, and later reads of the
        same location observe the same local view.
        """
        dedup = (oid, key)
        if dedup in self._read_keys:
            return
        self._read_keys.add(dedup)
        self.read_set.append(ReadSetEntry(oid, key, version))

    def record_update(self, oid: int, payload: bytes, key: Optional[bytes]) -> None:
        """Buffer one mutator invocation (applied only if the TX commits)."""
        if type(payload) is not bytes:
            payload = bytes(payload)  # what every reader decodes
        self.updates.append(UpdateRecord(oid, payload, key, tx_id=self.tx_id))
        if oid not in self.write_oids:
            self.write_oids.append(oid)

    @property
    def is_read_only(self) -> bool:
        return not self.updates

    @property
    def is_write_only(self) -> bool:
        return bool(self.updates) and not self.read_set

    def involved_oids(self) -> Tuple[int, ...]:
        """Read-set plus write-set object ids, reads first, deduplicated.

        The commit record is multiappended to all of these streams (as
        in Figure 6, where a TX reading A and writing C appends its
        commit and decision records to both A and C): write-set hosts
        learn the mutation, and read-set hosts can detect orphaned
        commit records and insert decisions on behalf of crashed
        generators (section 4.1, "Failure Handling").
        """
        oids: List[int] = []
        for entry in self.read_set:
            if entry.oid not in oids:
                oids.append(entry.oid)
        for oid in self.write_oids:
            if oid not in oids:
                oids.append(oid)
        return tuple(oids)


class PendingTx:
    """Consuming-client state for an in-flight transaction."""

    def __init__(self, tx_id: int) -> None:
        self.tx_id = tx_id
        # Speculative updates seen while playing, in log order.
        self.speculative: List[Tuple[int, UpdateRecord]] = []
        # Set once the commit record is encountered but cannot be
        # decided locally (awaiting a decision record).
        self.commit_offset: int = -1
        self.commit_record: Optional[CommitRecord] = None
        # The hosted streams that delivered the commit record: the views
        # its decision applies to (one that had passed it already holds
        # the writes, through a checkpoint).
        self.commit_scope: Tuple[int, ...] = ()

    @property
    def awaiting_decision(self) -> bool:
        return self.commit_record is not None
