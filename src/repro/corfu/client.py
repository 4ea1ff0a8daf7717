"""The CORFU client library.

Paper section 2.2: "The CORFU interface is simple, consisting of four
basic calls": ``append``, ``check``, ``read``, and ``trim``, plus the
``fill`` primitive for patching holes. Section 5 adds stream support:
appends may carry a set of stream ids, in which case the client obtains
backpointers from the sequencer and prepends stream headers to the
payload before running chain replication.

Every node interaction goes through the cluster's transport
(:mod:`repro.net`), and the client owns all retry logic. Each bounded
operation is one attempt (a *body*) run by one retry driver,
``CorfuClient._retry``; between attempts, ``_recover`` reacts:

- a stale epoch (:class:`~repro.errors.SealedError`) refreshes the
  projection;
- a dead node (:class:`~repro.errors.NodeDownError`) drives
  reconfiguration (ejecting the node or replacing the sequencer);
- an RPC timeout (:class:`~repro.errors.RpcTimeout`) backs off,
  refreshes the projection and feeds the failure detector, which
  treats a node that stays silent long enough as dead.

Each body says why a re-run is safe: a lost chain-write response is
retried at the *same* offset with the same bytes, and the chain treats
the client's own earlier (invisible) success as success; losing the
head race (:class:`~repro.errors.WrittenError`) or a lost ``increment``
response costs an offset, which hole-filling absorbs. An exhausted
budget raises :class:`~repro.errors.RetriesExhaustedError` naming the
last failure and, for an append, every offset it already landed.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.corfu.cluster import CorfuCluster
from repro.corfu.entry import (
    MAX_STREAM_ID,
    NO_BACKPOINTER,
    LogEntry,
    encode_run,
    encode_vector_marker,
    max_payload_bytes,
)
from repro.corfu.layout import Projection
from repro.corfu.replication import ChainReplicator
from repro.errors import (
    NodeDownError,
    RetriesExhaustedError,
    RpcTimeout,
    SealedError,
    StaleGrantError,
    TooManyStreamsError,
    TrimmedError,
    UnwrittenError,
    WrittenError,
)

#: Per-offset outcome of a batched read: the decoded entry, or the
#: error *instance* (not raised) describing why the offset has none.
ReadOutcome = Union[LogEntry, UnwrittenError, TrimmedError]

_T = TypeVar("_T")

#: Retry budget per bounded-retry path. Sized for the chaos suite's
#: worst fault mix (10% request drops + 10% response drops + 10%
#: reordering): a 3-hop chain write fails ~70% of attempts there, so a
#: budget of 64 leaves ~1e-10 odds of a healthy-but-lossy deployment
#: exhausting it — Hypothesis searching the seeded fault schedule
#: cannot find a losing run, while a genuinely dead node still
#: surfaces through the failure detector long before the budget.
_MAX_RETRIES = 64

#: Operations whose success clears the failure-detector streaks in a
#: ``_counter_lock`` hold of its own (the read's count, the append
#: round's), so the retry driver takes no second hold for them.
_SELF_NOTED = frozenset({"read", "append.chain_write"})

#: Consecutive timeouts against one node before the client stops
#: treating them as transient and drives reconfiguration around it
#: (the failure-detector threshold).
_TIMEOUT_FAILOVER = 4

#: Second failure-detector signal: a node that stays *silent* (no
#: deliveries at all) while the rest of the cluster completes this many
#: RPCs is partitioned or dead, however rarely we manage to probe it.
#: Catches a cut-off chain tail behind a lossy chain head, where each
#: shared-budget retry burns on the lossy-but-live hops and the streak
#: above accrues too slowly.
_SILENT_PROGRESS_FAILOVER = 12

#: Most appends one pipeline leader commits per round before re-checking
#: the queue. Bounds the sequencer grant width, the payload the leader
#: buffers and the size of one batched chain-write RPC.
_PIPELINE_CHUNK = 32

#: How long a pipeline follower waits on its completion event before
#: re-checking whether leadership freed up (guards against the leader
#: exiting between the follower's enqueue and the leader's last queue
#: check — the follower then takes over rather than sleeping forever).
_FOLLOWER_WAIT_SLICE = 0.005


def _exhausted_at(offset: int, exc: RetriesExhaustedError) -> RetriesExhaustedError:
    """*exc* from the chain write of *offset*, naming that offset: it
    may hold the caller's bytes on part of its chain."""
    return RetriesExhaustedError(exc.op, exc.attempts, last=f"offset {offset}: {exc.last}")


class AppendFuture:
    """Completion handle for one :meth:`CorfuClient.append_async`.

    The append is durable once :meth:`done` is true and :meth:`result`
    returns the assigned log offset. There is no background thread:
    appends are committed by whichever waiter thread becomes the
    pipeline *leader* (see ``_AppendPipeline``).
    """

    __slots__ = ("payload", "stream_ids", "_client", "_done", "_offset", "_exc", "_event")

    def __init__(
        self, client: "CorfuClient", payload: bytes, stream_ids: Tuple[int, ...]
    ) -> None:
        self._client = client
        self.payload = payload
        self.stream_ids = stream_ids
        self._done = False
        self._offset: Optional[int] = None
        self._exc: Optional[BaseException] = None
        self._event: Optional[threading.Event] = None

    def done(self) -> bool:
        """True once the append completed (successfully or not)."""
        return self._done

    def result(self, timeout: Optional[float] = None) -> int:
        """Block until the append lands; return its log offset.

        The calling thread participates in committing queued appends
        (it may be elected pipeline leader). Re-raises the append's
        failure, or :class:`~repro.errors.RpcTimeout` if *timeout*
        elapses first — the append may still complete later (a late
        ack, like any timed-out RPC).
        """
        self._client._pipeline.drive(self, timeout)
        if not self._done:
            raise RpcTimeout("append-pipeline", "result")
        if self._exc is not None:
            raise self._exc
        return self._offset  # type: ignore[return-value]


class _AppendPipeline:
    """Work-stealing group commit behind :meth:`CorfuClient.append_async`.

    Queued futures are drained by a *leader*: the first waiter to find
    the queue non-empty and no leader active. The leader pops a chunk,
    hands each run of consecutive futures with identical stream sets to
    the client's append routine (one sequencer grant and one batched
    chain write per replica chain for the whole run), settles their
    futures, and loops until the queue is empty. Only a follower (a
    waiter behind another leader) makes its future an event, and waits
    on it with a short timeout so a leader that exits just before its
    enqueue is noticed and replaced — no lost wakeups, no background
    thread.

    Lock discipline: ``_lock`` guards the queue, the leader flag and
    each queued future's completion and event (a follower checks and
    makes it in one hold; the leader settles a run in one hold and sets
    the events after). It is never held across an RPC (TL012) and takes
    no other lock (a leaf in the documented hierarchy).
    """

    def __init__(self, client: "CorfuClient") -> None:
        self._client = client
        # Guards _queue, _leading and the queued futures' completion.
        self._lock = threading.Lock()
        self._queue: Deque[AppendFuture] = deque()
        self._leading = False

    def submit(self, fut: AppendFuture) -> None:
        with self._lock:
            self._queue.append(fut)

    def drive(self, fut: AppendFuture, timeout: Optional[float] = None) -> None:
        """Wait for *fut*, leading the pipeline whenever it is leaderless."""
        remaining = timeout
        while not fut._done:
            with self._lock:
                if fut._done:
                    return
                lead = not self._leading and bool(self._queue)
                if lead:
                    self._leading = True
                elif fut._event is None:
                    # Made before the settling hold, so the leader sees it.
                    fut._event = threading.Event()
                event = fut._event
            if lead:
                try:
                    self._drain()
                finally:
                    with self._lock:
                        self._leading = False
                continue
            wait = (
                _FOLLOWER_WAIT_SLICE
                if remaining is None
                else min(_FOLLOWER_WAIT_SLICE, remaining)
            )
            event.wait(wait)
            if remaining is not None:
                remaining -= wait
                if remaining <= 0 and not fut._done:
                    return

    def _drain(self) -> None:
        while True:
            with self._lock:
                if not self._queue:
                    return
                chunk = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), _PIPELINE_CHUNK))
                ]
            self._commit(chunk)

    def _commit(self, chunk: List[AppendFuture]) -> None:
        client = self._client
        i = 0
        while i < len(chunk):
            j = i
            while j < len(chunk) and chunk[j].stream_ids == chunk[i].stream_ids:
                j += 1
            run = chunk[i:j]
            exc: Optional[BaseException] = None
            try:
                offsets: Sequence[Optional[int]] = client._append_entries(
                    [f.payload for f in run], run[0].stream_ids
                )
            except BaseException as failure:  # tangolint: disable=TL006
                # Not swallowed: the leader commits on behalf of other
                # threads, so the failure is captured into each waiter's
                # future and re-raised from result(). The protocol's
                # retry discipline already ran inside _append_entries
                # below this frame.
                offsets, exc = [None] * len(run), failure
            # The whole run settles in one hold; its followers wake after.
            with self._lock:
                for fut, offset in zip(run, offsets):
                    fut._offset, fut._exc, fut._done = offset, exc, True
                events = [fut._event for fut in run if fut._event is not None]
            for event in events:
                event.set()
            if exc is not None and not isinstance(exc, Exception):
                # KeyboardInterrupt and friends: the waiters have their
                # answer; unwind the leader thread too.
                raise exc
            i = j


class _Proxies(dict):
    """Node name -> this client's transport handle on it, made on first lookup
    (racing threads make equivalent handles), so a known node is one dict hit."""

    def __init__(self, net, source: str, resolve: Callable[[str], object]) -> None:
        super().__init__()
        self._net, self._source, self._resolve = net, source, resolve

    def __missing__(self, node: str):
        proxy = self[node] = self._net.proxy(self._source, node, partial(self._resolve, node))
        return proxy


class CorfuClient:
    """One client's handle on the shared log."""

    def __init__(self, cluster: CorfuCluster, name: Optional[str] = None) -> None:
        self._cluster = cluster
        self._net = cluster.transport
        self.name = name if name is not None else cluster.next_client_name()
        self._projection: Projection = cluster.projection
        #: Payload capacity of one log entry: entry size, stream count
        #: and K are deployment constants, so it is computed once.
        self.max_payload = max_payload_bytes(
            cluster.entry_size, cluster.max_streams, cluster.k
        )
        self._storage = _Proxies(self._net, self.name, cluster.storage)
        self._sequencers = _Proxies(self._net, self.name, cluster.sequencer)
        self._chain = ChainReplicator(self._storage.__getitem__)
        # node name -> (consecutive-timeout streak, delivered-RPC count
        # at the last timeout, cluster-wide delivered count when the
        # node went silent) for failure detection: only a *silent* node
        # builds a streak, and cluster-wide progress during its silence
        # is the second down-signal.
        self._timeout_streaks: Dict[str, Tuple[int, int, int]] = {}
        # Counters for tests / the performance model. A client is shared
        # across application threads, so the read-modify-write bumps go
        # through one lock; readers may still access the plain ints.
        self._counter_lock = threading.Lock()
        self.appends = 0
        self.reads = 0
        self.fills = 0
        #: Batched-read observability: ``read_many`` rounds completed
        #: and entries served through them.
        self.batched_reads = 0
        self.batched_read_offsets = 0
        # Trim observers (e.g. the stream layer's entry cache), called
        # as cb(offset, is_prefix) after a trim commits cluster-side.
        self._trim_watchers: List[Callable[[int, bool], None]] = []
        # Append observers (the same cache, filled on the write path),
        # called as cb(offset, entry) once an append of ours has landed.
        self._append_watchers: List[Callable[[int, LogEntry], None]] = []
        # Async append path: queued futures committed by an elected
        # leader thread (see _AppendPipeline).
        self._pipeline = _AppendPipeline(self)

    # -- transport plumbing --------------------------------------------------

    def net_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-endpoint transport counters (rpcs/retries/timeouts/...).

        Each endpoint dict also carries the batched-read counters
        ``batch_rpcs`` (delivered ``read_many`` calls) and
        ``batch_offsets`` (offsets those calls served), so the RPC
        savings of the batched read path are visible per node.
        """
        return self._net.endpoint_stats()

    # -- trim observers ------------------------------------------------------

    def subscribe_trim(self, callback: Callable[[int, bool], None]) -> None:
        """Register ``callback(offset, is_prefix)`` to run after trims.

        The stream layer uses this to evict cached entries for reclaimed
        offsets, so GC actually frees client memory. Callbacks run on
        the trimming thread after the cluster-side trim succeeds.
        """
        self._trim_watchers.append(callback)

    def _notify_trim(self, offset: int, is_prefix: bool) -> None:
        for callback in self._trim_watchers:
            callback(offset, is_prefix)

    # -- append observers ----------------------------------------------------

    def subscribe_append(self, callback: Callable[[int, LogEntry], None]) -> None:
        """Register ``callback(offset, entry)`` to run after own appends land.

        An offset is write-once (section 2.2), so once this client's
        chain write for *offset* has completed, *entry* — the object the
        append routine encoded — is exactly what any reader will decode
        from that offset, for ever. The stream layer uses this to fill
        its entry cache on the write path, so playing one's own writes
        costs no read. Only landed offsets are reported: a payload whose
        head write lost to a hole-filler is reported once, at the offset
        its retry landed at, with the retry's stream headers.

        Callbacks run on the appending thread — for :meth:`append_async`
        that is the pipeline leader — after the chain write returns and
        with no lock of this client held.
        """
        self._append_watchers.append(callback)

    # -- projection management ----------------------------------------------

    @property
    def projection(self) -> Projection:
        return self._projection

    @property
    def max_streams(self) -> int:
        """Maximum streams per entry (caps a transaction's write set)."""
        return self._cluster.max_streams

    def refresh_projection(self) -> None:
        """Fetch the latest projection from the auxiliary."""
        self._projection = self._cluster.projection

    def _recover(self, exc: Exception, attempt: int) -> None:
        """The one reaction to a failed attempt, before the next one.

        A sealed epoch refetches the projection. A timeout is ambiguous
        — the node may be slow, partitioned from us, or dead, and a
        reconfiguration may have completed while our message was in
        flight — so it records the retry, lets the transport advance
        (delayed traffic lands during backoff), refetches the projection
        and feeds the failure detector, which may declare the node dead.
        A dead node drives reconfiguration around it. A lost
        vector-grant race (:class:`StaleGrantError`) needs no repair:
        the next round reserves afresh.
        """
        if isinstance(exc, RpcTimeout):
            self._net.record_retry(exc.node)
            self._net.backoff(self.name, attempt)
            self.refresh_projection()
            # A node that executed *anything* since our last timeout
            # against it is alive — we are losing responses, not talking
            # to a corpse — so the streak restarts. Only a silent node
            # (partitioned or dead: no deliveries at all) accumulates
            # toward failover; ejecting a node that is demonstrably
            # executing calls would let a lossy network shrink healthy
            # chains one retry at a time.
            delivered = self._net.stats_for(exc.node).rpcs
            cluster_delivered = sum(
                s["rpcs"] for s in self._net.endpoint_stats().values()
            )
            with self._counter_lock:
                streak, seen, progress_base = self._timeout_streaks.get(
                    exc.node, (0, -1, cluster_delivered)
                )
                if delivered != seen:
                    streak = 0
                    progress_base = cluster_delivered
                streak += 1
                self._timeout_streaks[exc.node] = (streak, delivered, progress_base)
                # Down-signals: (a) enough consecutive silent timeouts, or
                # (b) the node stayed silent across substantial cluster-wide
                # progress — a partitioned chain tail behind lossy live hops
                # gets probed too rarely for (a) alone to ever trip.
                failover = streak >= _TIMEOUT_FAILOVER or (
                    streak > 1
                    and cluster_delivered - progress_base
                    >= _SILENT_PROGRESS_FAILOVER
                )
                if failover:
                    del self._timeout_streaks[exc.node]
            if not failover:
                return
            # Reconfiguration drives RPCs of its own; never under the lock.
            exc = NodeDownError(exc.node)
        if isinstance(exc, SealedError):
            self.refresh_projection()
        elif isinstance(exc, NodeDownError):
            from repro.corfu import reconfig

            # Another client may have reconfigured already; check the
            # latest projection before driving a redundant epoch change.
            self.refresh_projection()
            proj = self._projection
            if exc.node == proj.sequencer and not proj.seq_shards:
                reconfig.replace_sequencer(self._cluster, source=self.name)
            elif exc.node in proj.sequencer_shards:
                # Per-shard failover: only the dead shard is replaced; the
                # surviving shards keep their soft state and keep issuing.
                reconfig.replace_sequencer_shard(
                    self._cluster,
                    proj.sequencer_shards.index(exc.node),
                    source=self.name,
                )
            elif exc.node in proj.all_nodes():
                reconfig.eject_storage_node(self._cluster, exc.node, source=self.name)
            self.refresh_projection()

    def _retry(self, op: str, body: Callable[..., _T], *args: object) -> _T:
        """The retry driver: run ``body(*args)`` until an attempt completes.

        A body is one attempt of a bounded operation under the current
        projection, and says why a re-run is safe. It runs up to
        ``_MAX_RETRIES`` times, with :meth:`_recover` between attempts,
        then :class:`RetriesExhaustedError` names *op* and the last
        failure. Success clears the failure-detector streaks (unless
        *op* is in ``_SELF_NOTED``). Hot bodies are bound methods: a
        call builds no closure.
        """
        for attempt in range(_MAX_RETRIES):
            try:
                result = body(*args)
            except (SealedError, NodeDownError, RpcTimeout) as exc:
                last = exc
                self._recover(exc, attempt)
            else:
                # An unlocked emptiness test: a streak noted meanwhile
                # counts as noted after this success.
                if self._timeout_streaks and op not in _SELF_NOTED:  # tangolint: disable=TL010
                    with self._counter_lock:
                        self._timeout_streaks.clear()
                return result
        raise RetriesExhaustedError(
            op, _MAX_RETRIES, last=f"{type(last).__name__}: {last}"
        )

    # -- append path ---------------------------------------------------------

    def append(self, payload: bytes, stream_ids: Sequence[int] = ()) -> int:
        """Append *payload* to the log (and to *stream_ids*); return its offset.

        This is the multiappend of section 4.1 when more than one stream
        id is given: the entry occupies a single position in the global
        order but belongs to every listed stream.

        Runs on the calling thread: one sequencer grant, one chain
        write. Concurrent callers do not coalesce; traffic that wants
        shared grants and batched chain writes asks for them with
        :meth:`append_async` or :meth:`append_batch`.

        Stream ids must be distinct and within 31 bits. A bad id or count,
        or an oversized payload, raises before any RPC: it takes no offset.
        """
        self._validate_append((payload,), stream_ids)
        return self._append_entries((payload,), stream_ids)[0]

    def append_async(
        self, payload: bytes, stream_ids: Sequence[int] = ()
    ) -> AppendFuture:
        """Queue *payload* for append; return a completion handle.

        Validation (stream count and ids, payload capacity) happens
        here, synchronously, as in :meth:`append`: nothing is granted
        for a rejected call. The append itself is committed by the
        pipeline leader — whichever thread next waits on a handle — so
        callers may queue a flight of appends and then collect the
        offsets: the flight shares one sequencer grant and one batched
        chain write per replica chain.
        """
        self._validate_append((payload,), stream_ids)
        fut = AppendFuture(self, payload, tuple(stream_ids))
        self._pipeline.submit(fut)
        return fut

    def append_batch(
        self, payloads: Sequence[bytes], stream_ids: Sequence[int] = ()
    ) -> List[int]:
        """Append several payloads with a single sequencer grant.

        Reserves ``len(payloads)`` consecutive offsets in one
        ``increment(count=n)`` RPC (section 5's counter, batched the way
        group commit batches log I/O), then writes them with one
        batched RPC per replica of each chain they stripe over. Every
        payload joins every stream in *stream_ids*, and each entry's
        backpointers chain through its batch predecessors, so the
        resulting stream linked list is identical to sequential
        appends. Returns the offsets in payload order.

        A lost ``increment`` response burns the whole reservation — n
        holes, which the hole-filling machinery absorbs, exactly like a
        burned single grant. If a hole-filler races one of our chain
        writes and wins, that payload transparently takes a fresh
        offset.
        """
        self._validate_append(payloads, stream_ids)
        return self._append_entries(payloads, stream_ids)

    def _validate_append(
        self, payloads: Sequence[bytes], stream_ids: Sequence[int]
    ) -> None:
        # All before the grant: a bad entry found after it burns an offset.
        if len(stream_ids) > self._cluster.max_streams:
            raise TooManyStreamsError(len(stream_ids), self._cluster.max_streams)
        for sid in stream_ids:
            if not 0 <= sid <= MAX_STREAM_ID:
                raise ValueError(f"stream id {sid} out of 31-bit range")
        if len(stream_ids) > 1 and len(set(stream_ids)) < len(stream_ids):
            raise ValueError(f"duplicate stream ids in {tuple(stream_ids)}")
        limit = self.max_payload
        for payload in payloads:
            if len(payload) > limit:
                raise ValueError(
                    f"payload of {len(payload)} bytes exceeds the "
                    f"{limit}-byte capacity of a "
                    f"{self._cluster.entry_size}-byte entry"
                )

    def _append_entries(
        self, payloads: Sequence[bytes], stream_ids: Sequence[int]
    ) -> List[int]:
        """The append routine: grant, encode, chain-write, retry the losers.

        Every append — one payload or a batch, called directly or by
        the pipeline leader — is rounds of this loop: take offsets from
        the sequencer for the payloads still without one, encode the
        granted run, write it down the chains, and carry the payloads
        that lost their head race (a hole-filler got to the reserved
        offset first) into the next round at fresh offsets. Returns the
        offsets in payload order.

        Only the grant can fail a round outright: the chain writes
        retry node-level failures themselves, at the same offset (see
        :meth:`_write_at`). The retry budget counts consecutive
        rounds that landed nothing, so a long batch is not charged for
        its own length. An append that runs out of retries — the grant
        rounds' budget or one chain write's — raises an error naming
        the last failure and every offset the append already landed.
        """
        k = self._cluster.k
        watchers = self._append_watchers
        offsets = [-1] * len(payloads)
        pending: Sequence[int] = range(len(payloads))  # payload indices, in order
        barren = 0  # consecutive rounds that landed nothing
        last = ""  # why the latest barren round landed nothing
        try:
            while pending:
                if barren >= _MAX_RETRIES:
                    raise RetriesExhaustedError("append", _MAX_RETRIES, last=last)
                try:
                    first, stride, count, prior = self._grant(
                        len(pending), stream_ids
                    )
                except (StaleGrantError, SealedError, NodeDownError, RpcTimeout) as exc:
                    # Retrying with fresh offsets is always safe: a grant
                    # that executed unseen (lost response) or lost a
                    # vector-grant race burned its offsets, and those
                    # holes are for fill() to patch.
                    last = f"{type(exc).__name__}: {exc}"
                    self._recover(exc, barren)
                    barren += 1
                    continue
                run = pending[:count]
                # The entries as encoded, built only if someone observes.
                keep = bool(watchers)
                entries, built = encode_run(
                    first, stride, stream_ids, prior,
                    payloads if count == len(payloads) else [payloads[idx] for idx in run],
                    k, keep,
                )
                # A payload whose offset a hole-filler took keeps its
                # stream membership (walkers skip the junk-filled
                # offset); only its position moves.
                lost = self._write_entries(entries, run, offsets)
                landed = count - len(lost)
                with self._counter_lock:  # the count and the streak reset, one hold
                    self.appends += landed
                    if self._timeout_streaks:
                        self._timeout_streaks.clear()
                # Write-once => write-through: what landed is known
                # without reading it back. A lost offset holds someone
                # else's junk; its payload is reported by the round
                # that lands it.
                if keep:
                    for idx, (offset, _), entry in zip(run, entries, built):
                        if offsets[idx] == offset:
                            for callback in watchers:
                                callback(offset, entry)
                barren = 0 if landed else barren + 1
                if not landed:
                    last = f"hole-fillers took offsets {[o for o, _ in entries]}"
                pending = [*lost, *pending[count:]]
        except RetriesExhaustedError as exc:
            done = [offset for offset in offsets if offset >= 0]
            raise RetriesExhaustedError(
                exc.op, exc.attempts,
                last=f"{exc.last}; offsets already landed: {done}",
            ) from None
        return offsets

    def _grant(
        self, count: int, stream_ids: Sequence[int]
    ) -> Tuple[int, int, int, Dict[int, Tuple[int, ...]]]:
        """Take offsets for up to *count* entries joining *stream_ids*.

        Returns the granted run ``(first, stride, count, prior)``: entry
        j of the run sits at ``first + j * stride``, and ``prior`` maps
        each stream to its live tail before the run, newest first (the
        entries backpoint through their batch predecessors into it; see
        :func:`~repro.corfu.entry.encode_run`). The general case is one
        ``increment(count=n)`` on the shard owning the streams
        (streamless appends go to shard 0), the stride the shard count.
        Streams spanning shard groups need one vector grant per entry,
        so that case grants a run of one and the caller comes back for
        the rest.
        """
        proj = self._projection
        shards = proj.sequencer_shards
        width = len(shards)
        groups = {sid % width for sid in stream_ids} if width > 1 else ()
        if len(groups) > 1:
            count = 1
            first, backpointers = self._grant_vector(proj, stream_ids, sorted(groups))
        else:
            seq = self._sequencers[shards[stream_ids[0] % width if stream_ids else 0]]
            first, backpointers = seq.increment(
                stream_ids, epoch=proj.epoch, count=count
            )
        prior: Dict[int, Tuple[int, ...]] = {}
        for sid in stream_ids:
            tail = tuple(backpointers[sid])
            if NO_BACKPOINTER in tail:  # a stream with fewer than K entries
                tail = tuple(p for p in tail if p != NO_BACKPOINTER)
            prior[sid] = tail
        return first, width, count, prior

    def _grant_vector(
        self,
        proj: Projection,
        stream_ids: Sequence[int],
        groups: Sequence[int],
    ) -> Tuple[int, Dict[int, Tuple[int, ...]]]:
        """Cross-shard grant for one entry: a two-phase vector grant.

        Phase 1 reserves one stripe offset per touched shard in
        ascending (canonical) shard order with a ratcheting floor, so
        the last reservation is the vector's maximum — the offset the
        entry is written at. Phase 2 commits that offset to each
        touched shard (same order), which records it as every touched
        stream's newest offset or rejects with
        :class:`~repro.errors.StaleGrantError` if a racing append got
        there first. The burned lower reservations get marker entries
        naming the final offset so per-stripe recovery still finds the
        cross-shard entry; the caller then writes the data entry once.

        No client-side lock is held across any of these RPCs, and the
        shard locks are only ever taken one at a time server-side, so
        the lock hierarchy gains no edges (TL011/TL012).
        """
        shards = proj.sequencer_shards
        per_group: Dict[int, List[int]] = {}
        for sid in stream_ids:
            per_group.setdefault(sid % len(shards), []).append(sid)
        reservations: List[Tuple[int, int]] = []  # (group, reserved offset)
        floor = 0
        for g in groups:
            r = self._sequencers[shards[g]].reserve_group(
                floor, epoch=proj.epoch
            )
            reservations.append((g, r))
            floor = r + 1
        offset = reservations[-1][1]
        backpointers: Dict[int, Tuple[int, ...]] = {}
        for g in groups:
            backpointers.update(
                self._sequencers[shards[g]].commit_group(
                    per_group[g], offset, epoch=proj.epoch
                )
            )
        # Markers before the data entry: once the entry is visible, its
        # cross-shard membership must already be recoverable by a
        # per-stripe backward scan.
        for g, reserved in reservations[:-1]:
            marker = LogEntry(
                headers=(),
                payload=encode_vector_marker(offset, per_group[g]),
            )
            raw = marker.encode(
                reserved, self._cluster.k, self._cluster.max_streams
            )
            try:
                self._retry("append.chain_write", self._write_at, [reserved, raw, False])
            except WrittenError:
                # A hole-filler junked the reservation first. The live
                # shard already recorded the grant; only a later crash
                # of that shard loses this one advisory backpointer,
                # which K-redundancy absorbs.
                pass
            except RetriesExhaustedError as exc:
                raise _exhausted_at(reserved, exc) from None
        return offset, backpointers

    def _write_entries(
        self, entries: Sequence[Tuple[int, bytes]], run: Sequence[int], offsets: List[int]
    ) -> List[int]:
        """Chain-write a granted run, recording in *offsets* what lands.

        ``entries[j]`` is the encoded ``(offset, raw)`` of payload
        ``run[j]``. Each chain's entries go down it as one batch
        (:meth:`ChainReplicator.write_pipelined`); a lone entry takes
        the one-address write, and so does whatever a batch left
        unfinished (see :meth:`_write_at`). An entry is recorded
        the moment it is durable, so an append that fails later still
        names it. Returns, in run order, the payloads whose offset a
        hole-filler took first: they need fresh offsets.
        """
        proj = self._projection
        n = len(proj.replica_sets)
        lost: List[int] = []
        unfinished: List[Tuple[int, int, bytes, bool]] = []  # (..., batch tried it)
        chains: Dict[int, List[Tuple[int, int, bytes]]] = {}
        if len(entries) == 1:  # a lone entry is its chain's group of one
            unfinished.append((run[0], *entries[0], False))
        else:
            for idx, (offset, raw) in zip(run, entries):
                chains.setdefault(offset % n, []).append((idx, offset, raw))
        for set_index in sorted(chains):
            group = chains[set_index]
            if len(group) == 1:
                unfinished.append((*group[0], False))
                continue
            outcomes = self._chain.write_pipelined(
                proj.replica_sets[set_index],
                [(offset // n, raw) for _, offset, raw in group],
                proj.epoch,
            )
            for idx, offset, raw in group:
                outcome = outcomes[offset // n]
                if outcome is None:
                    offsets[idx] = offset
                elif isinstance(outcome, AssertionError):
                    raise outcome  # chain divergence: a bug, not a retry
                elif isinstance(outcome, WrittenError):
                    lost.append(idx)
                else:
                    unfinished.append((idx, offset, raw, True))
        for idx, offset, raw, tried in unfinished:
            try:
                self._retry("append.chain_write", self._write_at, [offset, raw, tried])
            except WrittenError:
                lost.append(idx)
                continue
            except RetriesExhaustedError as exc:
                raise _exhausted_at(offset, exc) from None
            offsets[idx] = offset
        lost.sort()
        return lost

    def _write_at(self, write: List) -> None:
        """One attempt at the chain write ``[offset, raw, maybe_mine]``.

        The offset is this client's. Once its head write may have
        landed it must not be abandoned — the invisible earlier success
        would surface as a duplicate when the payload is appended again
        elsewhere — so every later attempt re-drives the *same* offset
        with the same bytes and ``maybe_mine`` set: a head holding our
        bytes is our own earlier delivery, not a lost race. A genuine
        race loss (different bytes at the head) raises ``WrittenError``.
        ``maybe_mine`` starts set when a batched chain write already
        tried the offset.
        """
        offset, raw, maybe_mine = write
        write[2] = True
        proj = self._projection
        n = len(proj.replica_sets)
        self._chain.write(proj.replica_sets[offset % n], offset // n, raw, proj.epoch, maybe_mine)

    # -- read path ------------------------------------------------------------

    def read(self, offset: int) -> LogEntry:
        """Read and decode the entry at *offset*.

        Raises :class:`UnwrittenError` for holes and
        :class:`TrimmedError` for reclaimed offsets.
        """
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        return self._retry("read", self._read_at, offset)

    def _read_at(self, offset: int) -> LogEntry:
        """One attempt at :meth:`read`; a read is idempotent."""
        proj = self._projection
        n = len(proj.replica_sets)
        raw = self._chain.read(proj.replica_sets[offset % n], offset // n, proj.epoch)
        with self._counter_lock:  # the count and the streak reset, one hold
            self.reads += 1
            if self._timeout_streaks:
                self._timeout_streaks.clear()
        return LogEntry.decode(raw, offset, self._cluster.k)

    def _at_offset(self, chain_op: Callable[..., _T], offset: int) -> _T:
        """One attempt at ``is_written`` or ``trim``: both idempotent."""
        proj = self._projection
        rset, address = proj.map_offset(offset)
        return chain_op(rset, address, proj.epoch)

    def read_many(self, offsets: Sequence[int]) -> Dict[int, ReadOutcome]:
        """Batched read: one storage round trip per replica node.

        Offsets are grouped by :meth:`Projection.map_offset`, so each
        chain's tail receives exactly the addresses it owns in a single
        ``read_many`` RPC. Returns ``{offset: outcome}`` where the
        outcome is the decoded :class:`LogEntry`, or an
        :class:`UnwrittenError` / :class:`TrimmedError` *instance* for
        holes and reclaimed offsets — per-offset conditions are data and
        never fail the batch.

        Retries run as for :meth:`read`, and keep the results already
        collected: a reconfiguration halfway through the groups re-reads
        only what is still missing. A negative offset raises
        ``ValueError`` before any RPC, as it does for :meth:`read`.
        """
        results: Dict[int, ReadOutcome] = {}
        wanted = sorted(set(offsets))
        if not wanted:
            return results
        if wanted[0] < 0:
            raise ValueError(f"negative offset {wanted[0]}")
        k = self._cluster.k
        decode = LogEntry.decode

        def body() -> Dict[int, ReadOutcome]:
            # Reads are idempotent; a re-run reads only what earlier
            # attempts left out, grouped under the current projection.
            proj = self._projection
            n = len(proj.replica_sets)
            groups: Dict[int, List[int]] = {}
            for offset in [o for o in wanted if o not in results] if results else wanted:
                groups.setdefault(offset % n, []).append(offset)
            for set_index in sorted(groups):
                batch = groups[set_index]
                addresses = [offset // n for offset in batch]
                raw_map = self._chain.read_many(
                    proj.replica_sets[set_index], addresses, proj.epoch
                )
                served = 0
                for offset, address in zip(batch, addresses):
                    status, data = raw_map[address]
                    if status == "ok":
                        results[offset] = decode(data, offset, k)
                        served += 1
                    elif status == "trimmed":
                        results[offset] = TrimmedError(offset)
                    else:
                        results[offset] = UnwrittenError(offset)
                with self._counter_lock:
                    self.reads += served
                    self.batched_reads += 1
                    self.batched_read_offsets += len(batch)
            return results

        return self._retry("read_many", body)

    def is_written(self, offset: int) -> bool:
        """True if *offset* is owned by some append (even one in flight)."""
        return self._retry(
            "is_written", self._at_offset, self._chain.is_written, offset
        )

    # -- check ---------------------------------------------------------------

    def check(self, fast: bool = True) -> int:
        """Return the current tail of the log.

        The fast check is one round-trip to the sequencer
        (sub-millisecond in the paper); the slow check queries every
        storage node for its local tail and inverts the mapping function
        (tens of milliseconds), and works with no sequencer at all.
        """
        if fast:
            return self._retry("check", self._query_shards, ())[0]
        from repro.corfu import reconfig

        return reconfig.slow_check_tail(
            self._cluster, self._projection, source=self.name
        )

    def query_streams(
        self, stream_ids: Sequence[int]
    ) -> Tuple[int, Dict[int, Tuple[int, ...]]]:
        """Sequencer query: tail + last-K offsets for each stream.

        Only the shards owning the requested streams are queried (one
        RPC each), so a sync touching one stream costs one round trip
        regardless of shard count; the returned tail is the max over
        the queried shards. With no stream ids, every shard is queried
        (a full tail check).
        """
        return self._retry("query_streams", self._query_shards, stream_ids)

    def _query_shards(
        self, stream_ids: Sequence[int]
    ) -> Tuple[int, Dict[int, Tuple[int, ...]]]:
        """One attempt at :meth:`query_streams`; queries are read-only."""
        proj = self._projection
        shards = proj.sequencer_shards
        if len(shards) == 1:  # the shard's own answer, no merge
            return self._sequencers[shards[0]].query(
                list(stream_ids) if stream_ids else stream_ids, epoch=proj.epoch
            )
        per_shard: Dict[str, List[int]] = {}
        for sid in stream_ids:
            per_shard.setdefault(shards[sid % len(shards)], []).append(sid)
        queries = per_shard or dict.fromkeys(shards, stream_ids)
        tail = 0
        merged: Dict[int, Tuple[int, ...]] = {}
        for name, sids in queries.items():
            shard_tail, tails = self._sequencers[name].query(
                sids, epoch=proj.epoch
            )
            tail = max(tail, shard_tail)
            merged.update(tails)
        return tail, merged

    # -- hole filling and reclamation -----------------------------------------

    def fill(self, offset: int) -> None:
        """Patch the hole at *offset* with a junk value.

        Used after a timeout when a crashed client reserved an offset but
        never wrote it (section 3.2, "Failure Handling"). If the original
        writer races us and wins, that is success too: the hole is gone.
        A duplicated or timed-out fill is likewise absorbed — junk bytes
        are identical no matter who writes them.
        """
        junk = LogEntry.junk().encode(offset, self._cluster.k, self._cluster.max_streams)

        def body() -> None:  # converges: junk is junk, whoever wrote it
            proj = self._projection
            rset, address = proj.map_offset(offset)
            try:
                self._chain.write(rset, address, junk, proj.epoch)
            except WrittenError:
                return  # no longer a hole — either filled or completed
            with self._counter_lock:
                self.fills += 1

        self._retry("fill", body)

    def trim(self, offset: int) -> None:
        """Mark one offset as reclaimable.

        Trim is idempotent on every replica, so the retry driver applies
        without any at-most-once caveats. A trim racing a
        reconfiguration must not leak ``SealedError`` to the
        application — the GC driving it has no projection to refresh.
        """
        self._retry("trim", self._at_offset, self._chain.trim, offset)
        self._notify_trim(offset, False)

    def trim_prefix(self, offset: int) -> None:
        """Reclaim every offset strictly below *offset* (sequential trim).

        Idempotent per replica set; a retry after a partial pass simply
        re-trims already-trimmed prefixes.
        """

        def body() -> None:
            proj = self._projection
            n = len(proj.replica_sets)
            for set_index, rset in enumerate(proj.replica_sets):
                local_count = max(0, (offset - set_index + n - 1) // n)
                self._chain.trim_prefix(rset, local_count, proj.epoch)

        self._retry("trim_prefix", body)
        self._notify_trim(offset, True)

    # -- storage-admin plane ---------------------------------------------------

    def store_status(self) -> Dict[str, Dict[str, object]]:
        """Per-node storage accounting over the wire (read-only RPC).

        Best effort by design: an unreachable or sealed node reports an
        ``{"error": ...}`` entry instead of failing the whole survey —
        operators want the view of whatever is up.
        """
        return self._survey("store_status")

    def compact(self) -> Dict[str, Dict[str, object]]:
        """Trigger one compaction sweep on every reachable storage node.

        Idempotent: a sweep that finds no garbage-heavy segments is a
        no-op, so re-running after a partial failure only re-sweeps.
        Down nodes report ``{"error": ...}`` entries like
        :meth:`store_status`.
        """
        return self._survey("compact")

    def _survey(self, op: str) -> Dict[str, Dict[str, object]]:
        """Call storage op *op* once on every node, best effort."""
        nodes: Dict[str, Dict[str, object]] = {}
        for rset in self._projection.replica_sets:
            for node in rset:
                if node in nodes:
                    continue
                try:
                    nodes[node] = getattr(self._storage[node], op)()
                except (SealedError, NodeDownError, RpcTimeout) as exc:
                    nodes[node] = {"error": type(exc).__name__}
        return nodes
