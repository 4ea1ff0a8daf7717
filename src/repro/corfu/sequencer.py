"""The CORFU sequencer, extended with stream backpointer state.

Paper section 2.2: "the cluster contains a dedicated sequencer node,
which is essentially a networked counter storing the current tail of the
shared log." Section 5 extends it: "the sequencer now accepts a set of
stream IDs in the client's request, and maintains the last K offsets it
has issued for each stream ID. Using this information, the sequencer
returns a set of stream headers in response to the increment request,
along with the new offset. ... The sequencer also supports an interface
to return this information without incrementing the counter."

The sequencer is pure soft state: the tail is recoverable via the slow
check, and the backpointer map is recoverable by scanning the log
backward (see :mod:`repro.corfu.reconfig`). With K=4 the state is
32 bytes per stream — "32MB for 1M streams".

**Sharding.** The paper's own Fig. 2 shows this single counter behind a
single lock is the throughput ceiling of the whole design. To break it,
a :class:`Sequencer` can be one *shard* of a group: shard ``i`` of ``N``
owns every stream with ``sid % N == i`` and issues only offsets
``≡ i (mod N)`` — a striped slice of the global offset space — so
single-stream grants (the common case) touch exactly one shard's lock
and scale with shard count. Internally the counter counts *slots*
(``offset = slot * N + i``), which with the default ``(i=0, N=1)``
degenerates to exactly the classic dense counter.

A multiappend spanning shards takes a **vector grant** driven by the
client: one :meth:`reserve_group` per touched shard (ascending shard
order, with a ratcheting floor), then one :meth:`commit_group` per
touched shard recording the vector's maximum as every touched stream's
newest offset. The entry is written once, at that maximum; the lower
reservations are burned (ordinary holes) and carry marker entries so
per-stripe recovery still finds the cross-shard entry (see
:func:`repro.corfu.entry.encode_vector_marker`).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.corfu.entry import DEFAULT_K, NO_BACKPOINTER
from repro.errors import NodeDownError, SealedError, StaleGrantError


def shard_name(group: str, index: int) -> str:
    """Canonical node name of shard *index* of sequencer group *group*."""
    return f"{group}.{index}"


class Sequencer:
    """A networked counter plus per-stream tail tracking.

    With ``num_shards > 1`` this instance is one independently-locked
    shard of a group, owning offsets ``≡ shard_index (mod num_shards)``.
    """

    def __init__(
        self,
        name: str,
        k: int = DEFAULT_K,
        shard_index: int = 0,
        num_shards: int = 1,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if not 0 <= shard_index < num_shards:
            raise ValueError(
                f"shard_index {shard_index} out of range for "
                f"{num_shards} shards"
            )
        self.name = name
        self.k = k
        self.shard_index = shard_index
        self.num_shards = num_shards
        # The counter counts *slots*; slot t is global offset
        # t * num_shards + shard_index. With (0, 1) this is the classic
        # dense tail counter, bit for bit.
        self._tail = 0
        self._epoch = 0
        self._down = False
        self._lock = threading.Lock()
        # stream id -> last K offsets issued, newest first.
        self._stream_tails: Dict[int, List[int]] = {}
        # Counters for tests / the performance model. ``increments``
        # counts grant RPCs; ``offsets_issued`` counts offsets those
        # grants reserved, so a batched grant (count=n) shows as one
        # RPC covering n offsets.
        self.increments = 0
        self.offsets_issued = 0
        self.queries = 0

    # -- striping helpers (pure arithmetic, callable under the lock) --------

    def _offset_of(self, slot: int) -> int:
        return slot * self.num_shards + self.shard_index

    def _slot_covering(self, offset: int) -> int:
        """Smallest slot whose global offset is >= *offset*."""
        return max(0, -(-(offset - self.shard_index) // self.num_shards))

    def _tail_offset_locked(self) -> int:
        """This shard's contribution to the global tail.

        One past the highest offset this shard has issued, or 0 if it
        has issued nothing; the global tail is the max over shards.
        """
        if self._tail == 0:
            return 0
        return self._offset_of(self._tail - 1) + 1

    # -- lifecycle ----------------------------------------------------------

    def crash(self) -> None:
        """Fail the sequencer; its soft state is lost.

        Taken under the lock so an in-flight ``increment``/``query``
        from another thread observes either the live state or the
        crash, never a half-cleared tail/backpointer map.
        """
        with self._lock:
            self._down = True
            self._tail = 0
            self._stream_tails = {}

    @property
    def is_down(self) -> bool:
        with self._lock:
            return self._down

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def _check(self, epoch: int) -> None:
        if self._down:
            raise NodeDownError(self.name)
        if epoch < self._epoch:
            raise SealedError(self._epoch)

    def seal(self, epoch: int) -> None:
        """Fence requests below *epoch* (reconfiguration support).

        Serialized against ``increment``/``query`` via the lock: once
        seal returns, no concurrently running request can complete at
        the old epoch (that is the whole point of sealing).
        """
        with self._lock:
            if self._down:
                raise NodeDownError(self.name)
            if epoch <= self._epoch:
                raise SealedError(self._epoch)
            self._epoch = epoch

    def bootstrap(self, tail: int, stream_tails: Dict[int, List[int]], epoch: int) -> None:
        """Install recovered state into a fresh sequencer instance.

        Called by reconfiguration after recovering the tail via the slow
        check and the backpointer map via a backward log scan. *tail* is
        the recovered **global** tail; a striped shard resumes at the
        first of its own offsets at or above it. A bootstrap carrying a
        stale epoch is rejected: state recovered under an old projection
        must never overwrite a sequencer that has already been sealed
        into a newer one. Nor may a *late* duplicate — the network
        delivering the same bootstrap again after this instance started
        issuing — rewind it: a live sequencer already at *epoch* whose
        counter is past the recovered tail keeps its state, which is
        newer than what the duplicate carries.
        """
        with self._lock:
            if epoch < self._epoch:
                raise SealedError(self._epoch)
            if (
                not self._down
                and epoch == self._epoch
                and self._tail > self._slot_covering(tail)
            ):
                return
            self._down = False
            self._epoch = epoch
            self._tail = self._slot_covering(tail)
            self._stream_tails = {
                sid: list(offsets[: self.k])
                for sid, offsets in stream_tails.items()
            }

    # -- the counter --------------------------------------------------------

    def increment(
        self, stream_ids: Sequence[int] = (), epoch: int = 0, count: int = 1
    ) -> Tuple[int, Dict[int, Tuple[int, ...]]]:
        """Reserve *count* offsets of this shard's stripe; return the first.

        For each requested stream, returns the last K offsets previously
        issued to that stream (newest first) — the raw material for the
        entry's backpointer headers — and then records the newly issued
        offsets as the stream's most recent entries.

        Multi-offset reservations (count > 1) assign every reserved
        offset to every requested stream; the common case is count=1.
        On a striped shard consecutive reservations are ``num_shards``
        apart (offsets ``first, first + N, ...``); with the default
        single shard they are dense.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        with self._lock:
            self._check(epoch)
            first = self._offset_of(self._tail)
            stride = self.num_shards
            self._tail += count
            self.increments += 1
            self.offsets_issued += count
            # Built once for the whole grant: the issued offsets, newest
            # first, are identical for every requested stream.
            issued = list(
                range(first + (count - 1) * stride, first - 1, -stride)
            )
            backpointers: Dict[int, Tuple[int, ...]] = {}
            for sid in stream_ids:
                prior = self._stream_tails.get(sid, [])
                backpointers[sid] = (
                    tuple(prior[: self.k]) or (NO_BACKPOINTER,) * self.k
                )
                self._stream_tails[sid] = (issued + prior)[: self.k]
            return first, backpointers

    def reserve_group(self, floor: int = 0, epoch: int = 0) -> int:
        """Phase 1 of a vector grant: reserve one stripe offset >= *floor*.

        The client walks the touched shards in ascending (canonical)
        shard order, feeding each reservation plus one as the next
        shard's floor, so the last reservation is the maximum of the
        vector — the offset the entry is written at. Stripe offsets
        skipped to clear the floor are never issued (the counter jumps
        over them); reservations below the maximum are burned by the
        client as holes.
        """
        with self._lock:
            self._check(epoch)
            slot = max(self._tail, self._slot_covering(floor))
            self._tail = slot + 1
            self.increments += 1
            self.offsets_issued += 1
            return self._offset_of(slot)

    def commit_group(
        self, stream_ids: Sequence[int], offset: int, epoch: int = 0
    ) -> Dict[int, Tuple[int, ...]]:
        """Phase 2 of a vector grant: record *offset* for this shard's streams.

        Returns each stream's prior last-K offsets (the entry's
        backpointer material), then records *offset* as its newest and
        bumps the counter past *offset* so later local grants stay
        above it (per-stream offset order must equal grant order).

        Raises :class:`~repro.errors.StaleGrantError` — mutating
        nothing — if any touched stream's newest recorded offset
        already exceeds *offset*: a racing single-shard append was
        granted after our reservation, and recording the older offset
        on top of it would reorder the stream.

        Idempotent under response loss: a retry finding *offset*
        already newest for a stream returns that stream's remaining
        priors instead of re-recording (one backpointer of redundancy
        may be shed — advisory state, absorbed by K-redundancy).
        """
        with self._lock:
            self._check(epoch)
            # Validate before mutating so a stale grant leaves no
            # partial record behind.
            for sid in stream_ids:
                tails = self._stream_tails.get(sid)
                if tails and tails[0] > offset:
                    raise StaleGrantError(offset)
            self.increments += 1
            backpointers: Dict[int, Tuple[int, ...]] = {}
            for sid in stream_ids:
                tails = self._stream_tails.get(sid, [])
                if tails and tails[0] == offset:
                    prior = tails[1:]  # idempotent retry
                else:
                    prior = tails
                    self._stream_tails[sid] = ([offset] + prior)[: self.k]
                backpointers[sid] = (
                    tuple(prior[: self.k]) or (NO_BACKPOINTER,) * self.k
                )
            self._tail = max(self._tail, self._slot_covering(offset + 1))
            return backpointers

    def query(
        self, stream_ids: Sequence[int] = (), epoch: int = 0
    ) -> Tuple[int, Dict[int, Tuple[int, ...]]]:
        """Fast check: current tail + per-stream last-K offsets, no increment.

        This is the sub-millisecond tail check of section 2.2 and the
        "return this information without incrementing the counter"
        interface of section 5 that clients use on startup and on sync.
        A striped shard reports its own contribution to the global tail
        (one past its highest issued offset); the client maxes over the
        shards it cares about.
        """
        with self._lock:
            self._check(epoch)
            self.queries += 1
            tails, result = self._stream_tails, {}
            for sid in stream_ids:
                result[sid] = tuple(tails.get(sid, ()))
            return self._tail_offset_locked(), result

    def stream_state_bytes(self) -> int:
        """Approximate soft-state footprint: K 8-byte offsets per stream."""
        with self._lock:
            return len(self._stream_tails) * self.k * 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self._down else f"tail={self._tail} epoch={self._epoch}"
        shard = (
            f" shard={self.shard_index}/{self.num_shards}"
            if self.num_shards > 1
            else ""
        )
        return f"<Sequencer {self.name}{shard} {state} streams={len(self._stream_tails)}>"


class ShardedSequencer:
    """A sequencer group: N independently-locked striped shards.

    Owns nothing but the shard instances — the group object itself is
    immutable after construction and holds **no lock of its own**, so
    it adds no node to the lock hierarchy (each shard's
    ``Sequencer._lock`` remains a leaf; see ``docs/CONCURRENCY.md``).
    Stream ``sid`` belongs to shard ``sid % shards``; shard ``i``
    issues offsets ``≡ i (mod shards)``. With ``shards=1`` the single
    shard is an ordinary dense sequencer named *name* itself, so the
    group is wire- and behavior-compatible with the classic deployment.
    """

    def __init__(self, name: str, shards: int = 1, k: int = DEFAULT_K) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.name = name
        self.num_shards = shards
        if shards == 1:
            self.shards: Tuple[Sequencer, ...] = (Sequencer(name, k=k),)
        else:
            self.shards = tuple(
                Sequencer(
                    shard_name(name, i), k=k, shard_index=i, num_shards=shards
                )
                for i in range(shards)
            )

    def shard_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.shards)

    def shard_for(self, stream_id: int) -> Sequencer:
        """The shard owning *stream_id*."""
        return self.shards[stream_id % self.num_shards]

    def seal(self, epoch: int) -> None:
        """Seal every shard at *epoch* (callers absorb per-shard errors)."""
        for shard in self.shards:
            shard.seal(epoch)

    def tail(self) -> int:
        """The global tail: max of the shards' contributions."""
        return max(shard.query(())[0] for shard in self.shards)

    def __iter__(self) -> Iterator[Sequencer]:
        return iter(self.shards)

    def __len__(self) -> int:
        return self.num_shards

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ShardedSequencer {self.name} shards={self.num_shards}>"
