"""Client-driven chain replication.

Paper section 2.2: "The client then completes the append by directly
issuing writes to the storage nodes in the replica set using a
client-driven variant of Chain Replication [45]. ... the Chain
Replication variant used to write to the storage nodes guarantees that a
single client will 'win' if multiple clients attempt to write to the
same offset."

The rules implemented here:

- **writes** go down the chain head-to-tail. The write-once check at the
  head arbitrates races: whoever writes the head owns the offset and
  must complete the chain; everyone else sees
  :class:`~repro.errors.WrittenError` and gives up. A
  :class:`WrittenError` *past* the head means some reader already
  repaired the suffix on the winner's behalf, so the winner treats it as
  success. A batch of writes obeys the same rule hop by hop: one
  ``write_many`` per replica, head first, only head-accepted entries
  travelling on.
- **reads** go to the tail, because an entry is only guaranteed durable
  (and therefore visible) once the whole chain holds it. A hole at the
  tail with data at the head is an in-flight write; the reader completes
  it (read-repair) and then returns the value.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from repro.corfu.layout import ReplicaSet
from repro.corfu.storage import FlashUnit
from repro.errors import ReproError, TrimmedError, UnwrittenError, WrittenError

# Resolves a storage node name to its FlashUnit (or a transport proxy
# for one — the replicator is agnostic; it calls the same methods).
UnitLookup = Callable[[str], FlashUnit]


class ChainReplicator:
    """Stateless helper implementing the chain read/write rules."""

    def __init__(self, lookup: UnitLookup) -> None:
        self._lookup = lookup

    def write(
        self,
        rset: ReplicaSet,
        address: int,
        data: bytes,
        epoch: int,
        maybe_mine: bool = False,
    ) -> None:
        """Write *data* at *address* down the chain.

        Raises :class:`WrittenError` if another client won the race at
        the head. Propagates :class:`~repro.errors.NodeDownError` /
        :class:`~repro.errors.SealedError` /
        :class:`~repro.errors.RpcTimeout` so the caller can reconfigure
        or retry.

        With *maybe_mine* (set by a client retrying after an ambiguous
        failure: a lost response or a mid-chain error on an earlier
        attempt of this same write), a head ``WrittenError`` over bytes
        identical to *data* is treated as the client's own earlier
        delivery having landed: the chain is completed and the write
        reports success instead of a lost race. This is what keeps
        at-least-once delivery of chain writes exactly-once in the log.
        """
        for hop, node in enumerate(rset.nodes):
            unit = self._lookup(node)
            try:
                unit.write(address, data, epoch)
            except WrittenError:
                if not self._is_ours(
                    unit, node, hop, address, data, epoch, maybe_mine
                ):
                    raise

    def write_pipelined(
        self,
        rset: ReplicaSet,
        writes: Sequence[Tuple[int, bytes]],
        epoch: int,
        maybe_mine: FrozenSet[int] = frozenset(),
    ) -> Dict[int, Optional[BaseException]]:
        """Write many entries down the chain, one batched RPC per hop.

        The batched twin of :meth:`write`, as :meth:`read_many` is of
        :meth:`read`: each replica receives one ``write_many`` carrying
        every entry still travelling, head first. Write-once
        arbitration happens at the head, and the head's batch is
        acknowledged before any suffix hop is sent, so no suffix
        replica ever holds an entry whose head write was not accepted
        (the chain invariant read-repair depends on). Only entries the
        previous hop accepted travel on.

        *writes* is a sequence of ``(address, data)`` pairs; addresses
        in *maybe_mine* get the retry discipline of :meth:`write`'s
        ``maybe_mine`` flag (a head ``"written"`` over identical bytes
        is this client's own earlier delivery).

        Returns a per-address outcome map: ``None`` for a tail-acked
        write, otherwise the exception *instance* that stopped that
        address (``WrittenError`` = lost the head race; anything else =
        the chain is incomplete and the caller must re-drive that
        address with ``maybe_mine`` before trusting it). A node-level
        failure of one hop's ``write_many`` (down, sealed, timed out)
        leaves the fate of its whole batch unknown, so every address
        still pending in that batch reports it.
        """
        results: Dict[int, Optional[BaseException]] = {}
        pending = list(writes)
        for hop, node in enumerate(rset):
            if not pending:
                break
            unit = self._lookup(node)
            try:
                statuses = unit.write_many(pending, epoch)
            except ReproError as exc:
                results.update((address, exc) for address, _ in pending)
                return results
            accepted = []
            for address, data in pending:
                try:
                    if statuses[address] == "trimmed":
                        raise TrimmedError(address)
                    if statuses[address] == "written" and not self._is_ours(
                        unit, node, hop, address, data, epoch,
                        address in maybe_mine,
                    ):
                        raise WrittenError(address)
                except (ReproError, AssertionError) as exc:
                    results[address] = exc
                else:
                    accepted.append((address, data))
            pending = accepted
        results.update((address, None) for address, _ in pending)
        return results

    def _is_ours(
        self,
        unit: FlashUnit,
        node: str,
        hop: int,
        address: int,
        data: bytes,
        epoch: int,
        maybe_mine: bool,
    ) -> bool:
        """Decide a write of *data* that bounced off write-once at *hop*.

        The one head/suffix rule, shared by :meth:`write` and
        :meth:`write_pipelined`. At the head the bounce is a lost race
        — the offset belongs to someone else (False) — unless the
        caller is retrying an ambiguous write and the head holds
        identical bytes: our own earlier, unacknowledged delivery won
        the offset, so the chain carries on. Past the head, a reader
        already repaired the suffix on the winner's behalf; the copy
        must match what the head winner wrote.
        """
        if hop == 0:
            return maybe_mine and self._holds(unit, address, data, epoch)
        if unit.read(address, epoch) != data:
            raise AssertionError(
                f"chain divergence at {node}:{address}: replica "
                f"holds different data than the head winner wrote"
            )
        return True

    @staticmethod
    def _holds(unit: FlashUnit, address: int, data: bytes, epoch: int) -> bool:
        """True if *unit* already holds exactly *data* at *address*."""
        try:
            return unit.read(address, epoch) == data
        except (UnwrittenError, TrimmedError):
            return False

    def read(self, rset: ReplicaSet, address: int, epoch: int) -> bytes:
        """Read *address* from the tail, repairing in-flight writes.

        Raises :class:`UnwrittenError` if the offset is a genuine hole
        (no replica holds data), which the caller may then ``fill``,
        and :class:`TrimmedError` if the offset was reclaimed —
        including when a trim races an in-flight write, leaving the
        tail unwritten and the head (or a repair target) trimmed.
        """
        tail = self._lookup(rset.tail)
        try:
            return tail.read(address, epoch)
        except UnwrittenError:
            if len(rset) == 1:
                raise
        # Tail is unwritten. Check the head: if it holds data, the write
        # is in flight and we complete it; otherwise this is a hole. A
        # TrimmedError anywhere past this point means GC raced the
        # in-flight write; surface it as the normal trimmed outcome
        # (the offset's data was reclaimable anyway), not as a raw
        # mid-chain error — read_many makes the same call.
        head = self._lookup(rset.head)
        try:
            data = head.read(address, epoch)  # raises UnwrittenError on a hole
            self._repair(rset, address, data, epoch)
        except TrimmedError:
            raise TrimmedError(address) from None
        return data

    def read_many(self, rset: ReplicaSet, addresses, epoch: int):
        """Batched tail read: one RPC per replica node, not per address.

        Returns ``{address: (status, data)}`` with the same per-address
        outcome vocabulary as :meth:`FlashUnit.read_many` (``"ok"`` /
        ``"unwritten"`` / ``"trimmed"``). Addresses unwritten at the tail
        are re-checked at the head in a second batched RPC: head-written
        pages are in-flight writes, which are completed (read-repair)
        and returned as ``"ok"``, preserving the read-after-complete
        rule of the single-address path.
        """
        tail = self._lookup(rset.tail)
        # Every delivery hands back a fresh map: it is ours to amend.
        results = tail.read_many(addresses, epoch)
        if len(rset) == 1:
            return results
        pending = [
            addr for addr, (status, _) in results.items() if status == "unwritten"
        ]
        if not pending:
            return results
        pending.sort()
        head = self._lookup(rset.head)
        head_results = head.read_many(pending, epoch)
        for addr in pending:
            status, data = head_results[addr]
            if status == "ok":
                # In-flight write: complete the chain on the writer's
                # behalf, then the value is durable and visible.
                try:
                    self._repair(rset, addr, data, epoch)
                except TrimmedError:
                    # A trim raced the repair mid-chain; same outcome
                    # as finding the head already trimmed.
                    results[addr] = ("trimmed", None)
                    continue
                results[addr] = ("ok", data)
            elif status == "trimmed":
                results[addr] = ("trimmed", None)
            # "unwritten" stays a genuine hole; "trimmed" at the head
            # with an unwritten tail means GC raced an in-flight write —
            # the normal trimmed outcome (the data was reclaimable
            # anyway), never a raw mid-chain error.
        return results

    def is_written(self, rset: ReplicaSet, address: int, epoch: int) -> bool:
        """True if the offset is owned (head written), even if in flight."""
        head = self._lookup(rset.head)
        return head.is_written(address, epoch)

    def trim(self, rset: ReplicaSet, address: int, epoch: int) -> None:
        """Trim one address on every replica."""
        for node in rset:
            self._lookup(node).trim(address, epoch)

    def trim_prefix(self, rset: ReplicaSet, address: int, epoch: int) -> None:
        """Trim all local addresses below *address* on every replica."""
        for node in rset:
            self._lookup(node).trim_prefix(address, epoch)

    def _repair(self, rset: ReplicaSet, address: int, data: bytes, epoch: int) -> None:
        """Copy head data down the rest of the chain (read-repair)."""
        for node in rset.nodes[1:]:
            unit = self._lookup(node)
            try:
                unit.write(address, data, epoch)
            except WrittenError:
                # Someone else repaired concurrently; both copied the
                # head value, so the chain is consistent either way.
                pass
