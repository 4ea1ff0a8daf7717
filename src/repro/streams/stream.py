"""The client-side streaming library over CORFU.

Paper section 5: "the library stores stream metadata as a linked list of
offsets on the address space of the shared log, along with an iterator.
When the application calls readnext on a stream, the library issues a
conventional CORFU random read to the offset pointed to by the iterator,
and moves the iterator forward."

Bringing the linked list up to date (``sync``) contacts the sequencer
for the stream's most recent offsets and then strides backward through
the K-redundant backpointers, issuing roughly N/K reads for N new
entries. Junk entries (filled holes) carry no backpointers, so when all
pointers from an offset lead to junk the library "resorts to scanning
the log backwards to find an earlier valid entry for the stream".

The library fetches each log entry once and caches it, so an entry
multiappended to S streams is read from the cluster a single time even
though every one of the S streams delivers it (section 4.1: "under the
hood, the streaming layer fetches the entry once from the shared log and
caches it"). An entry this client appended itself is not fetched at
all: an offset is write-once, so the cache is filled on the write path
(``_on_append``) with the entry exactly as a reader would decode it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.corfu.client import CorfuClient
from repro.corfu.entry import NO_BACKPOINTER, LogEntry
from repro.errors import (
    ReproError,
    TrimmedError,
    UnknownStreamError,
    UnwrittenError,
)

#: Default client-side entry cache capacity (entries, not bytes).
DEFAULT_CACHE_ENTRIES = 131072

#: Default hole timeout before filling, seconds (paper: "100ms by default").
DEFAULT_HOLE_TIMEOUT = 0.1

#: Offsets per batched RPC when a junk dead-end forces a linear
#: backward scan (the scan reads every offset in range anyway, so
#: batching it is a pure round-trip win).
SCAN_WINDOW = 32

#: Known offsets warmed per batched read round by playback, ``scan``
#: and ``lookahead`` (fewer when a cache byte budget could not hold
#: them until they are played).
PLAYBACK_PREFETCH = 64

#: Estimated fixed per-entry cost charged against a cache byte budget,
#: on top of the payload: LogEntry + header objects + the cache's dict
#: slot. A rough constant — the budget bounds growth, it is not an
#: allocator. An entry whose decoded form is remembered beside it (see
#: :meth:`StreamClient.scan`) is charged twice: the decoded records
#: hold copies of the payload's bytes.
CACHE_ENTRY_OVERHEAD = 200

#: What the iterators take to decode an entry (None: hand out entries).
_Parse = Optional[Callable[[LogEntry], Any]]


class _Cached:
    """One cache slot: the raw entry and, once asked for, its decoded form.

    The decoded form is whatever an iterator's ``parse`` made of the
    entry (opaque here), or what the appender handed over with the
    payload it encoded. Sharing the slot is what ties its lifetime to the
    raw entry's: one LRU position, one byte charge, one trim eviction.
    """

    __slots__ = ("entry", "decoded")

    def __init__(self, entry: LogEntry, decoded: object = None) -> None:
        self.entry = entry
        self.decoded = decoded


class _InflightFetch:
    """Single-flight slot for one read: an offset's fetch, or a batch.

    Exactly one thread (the owner) issues the read RPC and, for a lone
    fetch, runs the hole handler; every concurrent fetch of an offset
    the flight covers waits and shares the owner's entry or exception.
    A batched round claims all its offsets with one flight. An offset
    the flight resolved with neither (the owner obtained nothing it
    could share, e.g. a best-effort batch skipping a hole) tells its
    waiters to retry — the next one through becomes the new owner.

    Almost every flight has no waiter, so the event is made on demand:
    the first waiter creates it under ``_cache_lock``, and the owner
    reads it in the same ``_cache_lock`` hold that resolves the flight
    and sets it, if there is one, once the lock is released.
    """

    __slots__ = ("event", "entries", "exc")

    def __init__(self) -> None:
        self.event: Optional[threading.Event] = None
        self.entries: Dict[int, LogEntry] = {}
        self.exc: Optional[BaseException] = None


class _StreamState:
    """Per-stream metadata: the linked list of offsets plus the iterator."""

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self.offsets: List[int] = []  # ascending offsets known to belong here
        self.known: set = set()
        self.read_ptr = 0  # index into `offsets` of the next entry to deliver
        # Highest offset forgotten to a prefix trim (memory-bounded
        # mode); everything at or below it was delivered-or-reclaimed.
        self.trim_floor = NO_BACKPOINTER

    def highest_known(self) -> int:
        return self.offsets[-1] if self.offsets else self.trim_floor

    def forget_below(self, horizon: int) -> int:
        """Drop linked-list entries below *horizon* (a trimmed prefix).

        The dropped offsets read as junk forever, so neither playback
        nor checkpoint scans can miss anything. Returns the number of
        offsets dropped; the iterator keeps its logical position.
        """
        k = bisect_left(self.offsets, horizon)
        if k:
            self.known.difference_update(self.offsets[:k])
            del self.offsets[:k]
            self.read_ptr = max(0, self.read_ptr - k)
        if horizon - 1 > self.trim_floor:
            self.trim_floor = horizon - 1
        return k

    def extend(self, new_offsets: Sequence[int]) -> None:
        """Add newly discovered offsets (all greater than the current max)."""
        for off in sorted(new_offsets):
            if off not in self.known:
                self.offsets.append(off)
                self.known.add(off)


class StreamClient:
    """Stream creation and playback over a CORFU client.

    Args:
        corfu: the underlying CORFU client library instance.
        hole_handler: called with the offending offset when playback
            encounters a hole. The default fills immediately (the
            functional layer has no real clocks; the 100ms timeout of
            the paper is modeled in the performance layer). Tests inject
            their own handlers to exercise races between slow writers
            and fillers.
        cache_entries: capacity of the shared entry cache.
    """

    def __init__(
        self,
        corfu: CorfuClient,
        hole_handler: Optional[Callable[[int], None]] = None,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
    ) -> None:
        self._corfu = corfu
        self._streams: Dict[int, _StreamState] = {}
        self._cache: "OrderedDict[int, _Cached]" = OrderedDict()
        self._cache_entries = cache_entries
        # Optional cache byte budget (memory-bounded mode); None keeps
        # the entry-count cap alone.
        self._cache_budget: Optional[int] = None
        self._cache_bytes = 0
        # Guards _cache and _inflight. Separate from the iterator lock
        # so a thread waiting on another's in-flight fetch never blocks
        # cache inserts (which would deadlock single-flight waiters).
        self._cache_lock = threading.Lock()
        self._inflight: Dict[int, _InflightFetch] = {}
        self._hole_handler = hole_handler or self._default_hole_handler
        # Serializes iterator/cache state across application threads:
        # every method that reads or moves read_ptr/offsets (readnext,
        # play, seek, peek_offset, reset, position, pending,
        # known_offsets, lookahead, sync) takes it. The owning runtime
        # also holds its own coarser lock during playback; this one
        # covers direct uses like indexed-map reads. Reentrant because
        # readnext fetches (and caches) entries while holding it.
        self._lock = threading.RLock()
        # Per appending thread: (payload, its decoded form) for the
        # append in progress, which the append observer (running on
        # the same thread) stores beside the entry.
        self._appending = threading.local()
        # GC must actually free client memory: evict cached entries for
        # offsets the log reclaims, whoever drives the trim. Registered
        # last — the callbacks use both locks.
        corfu.subscribe_trim(self._on_trim)
        # Never read back what this client wrote: appends that land on
        # an open stream go into the cache as they are acknowledged.
        corfu.subscribe_append(self._on_append)
        # Counters for tests / the performance model.
        self.sync_reads = 0
        self.backward_scans = 0

    # -- stream lifecycle -----------------------------------------------------

    def open_stream(self, stream_id: int) -> None:
        """Start tracking *stream_id* (idempotent)."""
        with self._lock:
            if stream_id not in self._streams:
                self._streams[stream_id] = _StreamState(stream_id)

    def is_open(self, stream_id: int) -> bool:
        with self._lock:
            return stream_id in self._streams

    def open_streams(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(self._streams)

    def _state(self, stream_id: int) -> _StreamState:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise UnknownStreamError(stream_id) from None

    # -- append path ------------------------------------------------------------

    def append(
        self, payload: bytes, stream_ids: Sequence[int], decoded: object = None
    ) -> int:
        """Multiappend *payload* to every stream in *stream_ids*.

        A client does not need to play (or even have opened) a stream to
        append to it — this is what makes remote-write transactions work
        (section 4.1, case A).

        *decoded*, when given, is what a playback ``parse`` would make
        of the written entry — typically the value *payload* was
        encoded from. It is stored in the written-through cache slot
        (charged like any decoded form), so the appender's own playback
        takes it instead of decoding what it just encoded. An entry
        none of whose streams is open here is not cached, form or not.
        """
        if decoded is None:
            return self._corfu.append(payload, stream_ids)
        appending = self._appending
        appending.seed = (payload, decoded)
        try:
            return self._corfu.append(payload, stream_ids)
        finally:
            appending.seed = None

    def append_async(self, payload: bytes, stream_ids: Sequence[int]):
        """Queue a multiappend; return its completion handle.

        Passthrough to :meth:`CorfuClient.append_async`: the returned
        :class:`~repro.corfu.client.AppendFuture` resolves to the log
        offset once the append pipeline commits it. Callers issuing a
        flight of appends and collecting the handles afterwards get the
        batched chain-write path (one RPC per hop, shared grants).
        """
        return self._corfu.append_async(payload, stream_ids)

    def append_batch(
        self, payloads: Sequence[bytes], stream_ids: Sequence[int]
    ) -> List[int]:
        """Multiappend several payloads with one sequencer round trip.

        Each payload joins every stream in *stream_ids*; the resulting
        linked lists are identical to sequential :meth:`append` calls
        (see :meth:`CorfuClient.append_batch`). Returns the offsets in
        payload order.
        """
        return self._corfu.append_batch(payloads, stream_ids)

    # -- entry fetch with hole handling ------------------------------------------

    def _default_hole_handler(self, offset: int) -> None:
        self._corfu.fill(offset)

    def fetch(self, offset: int) -> LogEntry:
        """The entry at *offset*: from the cache, else read, patching holes.

        The cache holds what was fetched before and what this client
        appended itself to a stream it has open (:meth:`_on_append`);
        only a miss goes to the log, and what it reads is cached.
        Returns a junk entry for trimmed offsets so that walkers treat
        reclaimed space like filled holes.

        Concurrent fetches of the same offset are single-flighted:
        exactly one thread issues the read RPC (and, on a hole, runs the
        hole handler exactly once); every other thread waits and shares
        the owner's entry or exception. Without this, the window between
        the cache-miss check and the cache insert lets N threads issue N
        identical RPCs — and run N hole handlers — for one offset.
        """
        while True:
            with self._cache_lock:
                cached = self._cache.get(offset)
                if cached is not None:
                    self._cache.move_to_end(offset)
                    return cached.entry
                flight = self._inflight.get(offset)
                if flight is None:
                    flight = self._inflight[offset] = _InflightFetch()
                    event = None  # we own it
                else:
                    event = flight.event
                    if event is None:
                        event = flight.event = threading.Event()
            if event is not None:
                event.wait()
                if flight.exc is not None:
                    raise flight.exc
                shared = flight.entries.get(offset)
                if shared is not None:
                    return shared
                # Unresolved slot (a best-effort batch skipped this
                # offset): loop and become the new owner.
                continue
            try:
                entry = self._fetch_uncached(offset)
            except BaseException as exc:
                with self._cache_lock:
                    self._inflight.pop(offset, None)
                    flight.exc = exc
                    event = flight.event
                if event is not None:
                    event.set()
                raise
            with self._cache_lock:
                self._cache_insert_locked(offset, entry)
                self._inflight.pop(offset, None)
                flight.entries[offset] = entry
                event = flight.event
            if event is not None:
                event.set()
            return entry

    def _fetch_uncached(self, offset: int) -> LogEntry:
        """The actual read RPC (plus hole handling) behind ``fetch``."""
        try:
            return self._corfu.read(offset)
        except UnwrittenError:
            self._hole_handler(offset)
            try:
                return self._corfu.read(offset)
            except UnwrittenError:
                # Handler chose not to fill (e.g. still inside the
                # timeout window); surface the hole to the caller.
                raise
        except TrimmedError:
            return LogEntry.junk()

    @staticmethod
    def _slot_bytes(slot: _Cached) -> int:
        cost = len(slot.entry.payload) + CACHE_ENTRY_OVERHEAD
        return cost if slot.decoded is None else 2 * cost

    def _cache_insert_locked(
        self, offset: int, entry: LogEntry, decoded: object = None
    ) -> None:
        """Insert into the LRU cache; caller holds ``_cache_lock``."""
        cache = self._cache
        old = cache.get(offset)
        # A new key lands at the LRU's young end.
        cache[offset] = _Cached(entry, decoded)
        if old is not None:
            self._cache_bytes -= self._slot_bytes(old)
            cache.move_to_end(offset)
        cost = len(entry.payload) + CACHE_ENTRY_OVERHEAD
        self._cache_bytes += cost if decoded is None else 2 * cost
        if len(cache) > self._cache_entries or self._cache_budget is not None:
            self._cache_shrink_locked()

    def _cache_shrink_locked(self) -> None:
        """Evict LRU entries past the entry cap or the byte budget."""
        budget = self._cache_budget
        while len(self._cache) > self._cache_entries or (
            budget is not None
            and self._cache_bytes > budget
            and len(self._cache) > 1
        ):
            _off, victim = self._cache.popitem(last=False)
            self._cache_bytes -= self._slot_bytes(victim)

    def _claim_locked(
        self, offsets: Iterable[int]
    ) -> Optional[Tuple[_InflightFetch, List[int]]]:
        """Claim the *offsets* neither cached nor in flight, if two or more.

        The claimed offsets share one new single-flight slot; the caller
        holds ``_cache_lock`` and then reads the claim, outside it, with
        :meth:`_fetch_many_best_effort`. A lone miss is left alone: it
        costs the same round trip either way, and the ``fetch`` that
        follows handles it with full hole semantics.
        """
        cache, inflight = self._cache, self._inflight
        misses = [off for off in offsets if off not in cache and off not in inflight]
        if len(misses) < 2:
            return None
        flight = _InflightFetch()
        for off in misses:
            inflight[off] = flight
        return flight, misses

    def _fetch_many_best_effort(
        self, claim: Optional[Tuple[_InflightFetch, List[int]]]
    ) -> None:
        """Warm the cache for a claim in one batched read per chain.

        Reads the claimed offsets with a single
        :meth:`CorfuClient.read_many` round and caches the written ones
        (trimmed offsets cache as junk, matching ``fetch``). Unwritten
        offsets are *skipped* — no hole handling here — and resolve
        empty, which sends any waiter (including our caller's own
        ``fetch``) through ``fetch`` to own the hole; a round that fails
        with a :class:`ReproError` resolves every offset that way and
        does not raise.
        """
        if claim is None:
            return
        flight, claimed = claim
        outcomes: Mapping[int, object] = {}
        try:
            outcomes = self._corfu.read_many(claimed)
        except ReproError:
            pass  # the per-offset path retries with full discipline
        finally:
            with self._cache_lock:
                for off in claimed:
                    outcome = outcomes.get(off)
                    if isinstance(outcome, LogEntry):
                        entry: Optional[LogEntry] = outcome
                    elif isinstance(outcome, TrimmedError):
                        entry = LogEntry.junk()
                    else:
                        entry = None  # hole: leave to per-offset fetch
                    if entry is not None:
                        self._cache_insert_locked(off, entry)
                        flight.entries[off] = entry
                    self._inflight.pop(off, None)
                event = flight.event
            if event is not None:
                event.set()

    def _prefetch(self, offsets: Iterable[int]) -> None:
        """Best-effort batched cache warm: never raises, never fills holes.

        Only spends an RPC when at least two of the offsets are actual
        cache misses (see :meth:`_claim_locked`).
        """
        with self._cache_lock:
            claim = self._claim_locked(offsets)
        self._fetch_many_best_effort(claim)

    def fetch_many(self, offsets: Sequence[int]) -> Dict[int, LogEntry]:
        """Fetch several offsets, batching the storage round trips.

        Equivalent to ``{off: fetch(off) for off in offsets}`` —
        including hole handling and junk-for-trimmed — but written
        offsets are read with one RPC per replica chain instead of one
        per offset. Holes surface through the per-offset fallback so the
        hole handler runs exactly once per hole.
        """
        wanted = sorted(set(offsets))
        self._prefetch(wanted)
        return {off: self.fetch(off) for off in wanted}

    def scan(self, offsets: Iterable[int], parse: _Parse = None) -> Iterator[Tuple[int, Any]]:
        """Yield ``(offset, entry)`` for each of *offsets*, in the order given.

        For offsets the caller already knows it will visit (a stream's
        linked list walked newest-first for a checkpoint, a suffix
        searched for a decision record): each round warms the next
        :data:`PLAYBACK_PREFETCH` of them with one batched read per
        replica chain, then collects the round's cached entries in one
        hold of the cache lock; an offset missing by then goes through
        :meth:`fetch`, so holes and trimmed offsets behave exactly as
        they do there. Lazy — a consumer that stops early reads at most
        one round more than it used.

        With *parse*, ``(offset, form)`` is yielded instead: the form
        remembered in the entry's slot (by an earlier visitor or the
        appender), else ``parse(entry)``, run with no lock held and
        remembered in one more hold when the round ends or is abandoned
        (unless the entry was evicted meanwhile). A remembered form is
        charged as a second copy of the entry and leaves with it. It is
        opaque here and shared — treat it as immutable — and must not be
        ``None`` (a slot's "not decoded yet"): that raises ``TypeError``.
        """
        offsets = list(offsets)
        done = 0
        while done < len(offsets):
            with self._cache_lock:
                chunk = offsets[done : done + self._warm_limit_locked()]
                claim = self._claim_locked(chunk)
            self._fetch_many_best_effort(claim)
            with self._cache_lock:
                collected = self._collect_locked(chunk)
            fresh: List[Tuple[int, LogEntry, Any]] = []
            try:
                for offset, slot, form in collected:
                    entry = self.fetch(offset) if slot is None else slot.entry
                    if parse is None:
                        form = entry
                    elif form is None:
                        form = self._parsed(parse, offset, entry)
                        fresh.append((offset, entry, form))
                    yield offset, form
            finally:
                if fresh:
                    self._remember(fresh)
            done += len(chunk)

    def _collect_locked(self, offsets: Sequence[int]) -> List[Tuple[int, Optional[_Cached], Any]]:
        """Each offset with its slot (None: not cached) and remembered
        form, touching the LRU as :meth:`fetch` does."""
        cache = self._cache
        collected: List[Tuple[int, Optional[_Cached], Any]] = []
        for offset in offsets:
            slot = cache.get(offset)
            if slot is None:
                collected.append((offset, None, None))
            else:
                cache.move_to_end(offset)
                collected.append((offset, slot, slot.decoded))
        return collected

    @staticmethod
    def _parsed(parse: Callable[[LogEntry], Any], offset: int, entry: LogEntry) -> Any:
        """``parse(entry)``, refusing ``None`` (a slot's "not decoded yet")."""
        form = parse(entry)
        if form is None:
            raise TypeError(f"parse returned None for the entry at {offset}")
        return form

    def _remember(self, fresh: Sequence[Tuple[int, LogEntry, Any]]) -> None:
        """Keep fresh ``(offset, entry, form)`` parses in the entries' slots."""
        with self._cache_lock:
            for offset, entry, form in fresh:
                slot = self._cache.get(offset)
                # Evicted (or re-read) since it was collected: parsed only.
                if slot is not None and slot.entry is entry and slot.decoded is None:
                    self._cache_bytes += self._slot_bytes(slot)
                    slot.decoded = form
            if self._cache_budget is not None:
                self._cache_shrink_locked()

    def _warm_limit_locked(self) -> int:
        """How many known offsets one batched round may warm.

        :data:`PLAYBACK_PREFETCH`, or fewer under a byte budget: a
        round must still be resident when its last entry is played
        (decoded, so charged twice), or the LRU evicts what was just
        warmed and every entry is read twice. Sized from the mean cost
        of what the cache holds now. The caller holds ``_cache_lock``.
        """
        budget = self._cache_budget
        if budget is None:
            return PLAYBACK_PREFETCH
        if self._cache:
            per_entry = self._cache_bytes // len(self._cache)
        else:
            per_entry = self._corfu.max_payload + CACHE_ENTRY_OVERHEAD
        return max(1, min(PLAYBACK_PREFETCH, budget // (2 * per_entry)))

    # -- cache maintenance -------------------------------------------------------

    @property
    def cache_size(self) -> int:
        """Entries currently cached (tests/observability)."""
        with self._cache_lock:
            return len(self._cache)

    def cached_offsets(self) -> Tuple[int, ...]:
        """Snapshot of cached offsets, ascending (tests/observability)."""
        with self._cache_lock:
            return tuple(sorted(self._cache))

    def set_cache_budget(self, budget: Optional[int]) -> None:
        """Cap the entry cache at *budget* bytes (None removes the cap).

        Memory-bounded mode: the cache evicts least-recently-used
        entries until it fits, on every insert and right here. Entry
        cost is ``len(payload) + CACHE_ENTRY_OVERHEAD``.
        """
        if budget is not None and budget <= 0:
            raise ValueError("cache budget must be a positive byte count")
        with self._cache_lock:
            self._cache_budget = budget
            self._cache_shrink_locked()

    def resident_bytes(self) -> int:
        """Estimated bytes held by the entry cache."""
        with self._cache_lock:
            return self._cache_bytes

    def _on_append(self, offset: int, entry: LogEntry) -> None:
        """Write-through: cache an entry this client just appended.

        Registered with :meth:`CorfuClient.subscribe_append`; runs on
        the appending thread once the chain write for *offset* has
        completed. *entry* equals what ``LogEntry.decode`` would return
        for the offset, so it goes in like a fetched entry — same LRU,
        entry cap, byte budget and trim eviction — and playing it costs
        no storage read and no decode. An entry none of whose streams
        is open here is not kept: a client that only writes to streams
        it never plays (remote writes) caches nothing. When this thread
        is inside :meth:`append` with a decoded form for *entry*'s
        payload, the form goes into the slot with it.
        """
        with self._lock:
            for header in entry.headers:
                if header.stream_id in self._streams:
                    break
            else:
                return
        seed = getattr(self._appending, "seed", None)
        decoded = seed[1] if seed is not None and seed[0] is entry.payload else None
        with self._cache_lock:
            self._cache_insert_locked(offset, entry, decoded)

    def _on_trim(self, offset: int, is_prefix: bool) -> None:
        """Release client memory the log just reclaimed.

        Registered with :meth:`CorfuClient.subscribe_trim`; runs on the
        trimming thread after the cluster-side trim succeeds. Without
        this the cache would keep serving entries whose offsets the log
        has already handed back to GC — unbounded memory on a client
        that plays a long-lived, checkpointed stream.

        In memory-bounded mode (a byte budget is set) a prefix trim
        additionally drops the per-stream linked-list entries below the
        horizon: those offsets read as junk forever, so keeping their
        bookkeeping would grow client memory with total log history
        instead of live history.
        """
        with self._cache_lock:
            if is_prefix:
                stale = [off for off in self._cache if off < offset]
            else:
                stale = [offset] if offset in self._cache else []
            for off in stale:
                self._cache_bytes -= self._slot_bytes(self._cache.pop(off))
            bounded = self._cache_budget is not None
        if is_prefix and bounded:
            with self._lock:
                for state in self._streams.values():
                    state.forget_below(offset)

    # -- sync: bring the linked list up to date ------------------------------------

    def sync(self, stream_id: int) -> int:
        """Update the stream's linked list; return its last offset.

        One sequencer query plus ~N/K reads for N newly discovered
        entries. Returns :data:`NO_BACKPOINTER` for an empty stream.
        Applications must call this before ``readnext`` to get
        linearizable semantics (section 5).
        """
        _tail, last_offsets = self._corfu.query_streams((stream_id,))
        return self._sync_from(stream_id, last_offsets.get(stream_id, ()))

    def sync_many(self, stream_ids: Sequence[int]) -> Dict[int, int]:
        """Sync several streams with a single sequencer query.

        Returns each stream's last known offset after the sync. The
        Tango runtime uses this before a merged playback pass so that
        multi-stream commit records find every involved hosted stream
        up to date. One hold of the iterator lock covers every stream,
        and only a stream the sequencer says has moved is walked.
        """
        _tail, last_offsets = self._corfu.query_streams(tuple(stream_ids))
        markers: Dict[int, int] = {}
        with self._lock:
            for sid in stream_ids:
                floor = self._state(sid).highest_known()
                recent = last_offsets.get(sid)
                if recent and max(recent) > floor:
                    floor = self._sync_from_locked(sid, recent)
                markers[sid] = floor
        return markers

    def sync_after_append(
        self, offset: int, stream_ids: Sequence[int]
    ) -> Dict[int, int]:
        """:meth:`sync_many`, for a caller that just appended *offset*.

        The stream headers of an entry are the sequencer's last-K
        offsets for each of its streams as of its own grant (section
        5), so ``(offset,) + backpointers`` is what a sequencer query
        for that stream would have answered at that instant — enough
        to play up to *offset*, which is all a caller deciding its own
        commit record needs. The entry is in the cache because it was
        written through. When it names every stream in *stream_ids*
        the sync is seeded from it and no RPC is sent; otherwise (a
        stream the entry does not belong to, which must not fall
        behind the others, or the entry already evicted) the sequencer
        is asked as usual. Not linearizable past *offset*: accessors
        keep using :meth:`sync_many`.
        """
        with self._cache_lock:
            slot = self._cache.get(offset)
        if slot is not None:
            headers = [slot.entry.header_for(sid) for sid in stream_ids]
            if None not in headers:
                return {
                    sid: self._sync_from(sid, (offset,) + header.backpointers)
                    for sid, header in zip(stream_ids, headers)
                }
        return self.sync_many(stream_ids)

    def _sync_from(self, stream_id: int, recent_offsets: Sequence[int]) -> int:
        """Walk backpointers from the sequencer's last-K offsets."""
        with self._lock:
            return self._sync_from_locked(stream_id, recent_offsets)

    def _sync_from_locked(
        self, stream_id: int, recent_offsets: Sequence[int]
    ) -> int:
        state = self._state(stream_id)
        floor = state.highest_known()
        # Nothing the sequencer named is news (NO_BACKPOINTER sorts
        # below every floor): the common case for all but one hosted
        # stream of a linearizable read.
        if not recent_offsets or max(recent_offsets) <= floor:
            return floor
        recents = [o for o in recent_offsets if o != NO_BACKPOINTER]
        discovered: set = set()
        # Seed the walk with the sequencer's last-K offsets; they are the
        # newest entries of the stream, newest first.
        for off in recents:
            if off > floor:
                discovered.add(off)
        cursor = min(recents)
        if cursor <= floor:
            cursor = None
        while cursor is not None and cursor > floor:
            entry = self._try_fetch(cursor)
            header = entry.header_for(stream_id) if entry is not None else None
            if entry is None or entry.is_junk or header is None:
                # Filled hole (or an offset we cannot interpret): fall
                # back to a linear backward scan for the previous valid
                # entry of this stream.
                discovered.discard(cursor)
                cursor = self._scan_backward(stream_id, cursor - 1, floor)
                if cursor is not None:
                    discovered.add(cursor)
                continue
            self.sync_reads += 1
            discovered.add(cursor)
            ptrs = [
                p
                for p in header.backpointers
                if p != NO_BACKPOINTER and p > floor and p not in discovered
            ]
            if not ptrs:
                # Check whether the chain genuinely ends here or the
                # pointers merely overflowed/landed on known ground.
                prev = [p for p in header.backpointers if p != NO_BACKPOINTER]
                if prev and min(prev) > floor and min(prev) not in discovered:
                    cursor = min(prev)
                else:
                    cursor = None
                continue
            discovered.update(ptrs)
            cursor = min(ptrs)
        state.extend(discovered)
        return state.highest_known()

    def _try_fetch(self, offset: int) -> Optional[LogEntry]:
        """Fetch, mapping unresolvable holes to None."""
        try:
            return self.fetch(offset)
        except UnwrittenError:
            return None

    def _scan_backward(
        self, stream_id: int, start: int, floor: int
    ) -> Optional[int]:
        """Linear backward scan for the previous valid entry of a stream.

        Used when backpointers dead-end in junk (section 5: "a client in
        this situation resorts to scanning the log backwards to find an
        earlier valid entry for the stream").

        The scan examines every offset in range regardless, so it reads
        the log in :data:`SCAN_WINDOW`-sized batches — one storage round
        trip per replica chain per window instead of one per offset.
        Holes inside a window are skipped by the batch and re-fetched
        individually so hole handling stays per-offset and exactly-once.
        """
        top = start
        while top > floor:
            lo = max(floor + 1, top - SCAN_WINDOW + 1)
            if top > lo:
                self._prefetch(range(lo, top + 1))
            for offset in range(top, lo - 1, -1):
                self.backward_scans += 1
                entry = self._try_fetch(offset)
                if entry is None or entry.is_junk:
                    continue
                if entry.header_for(stream_id) is not None:
                    return offset
            top = lo - 1
        return None

    # -- playback ---------------------------------------------------------------

    def play(
        self, stream_ids: Collection[int], upto: Optional[int] = None, parse: _Parse = None
    ) -> Iterator[Tuple[int, Any, Tuple[int, ...]]]:
        """Merged playback: the next entries of *stream_ids*, in log order.

        Yields ``(offset, entry, delivering)`` for every undelivered
        offset of any of the streams, ascending, and moves the
        iterators as it goes. An entry multiappended to several of the
        streams is delivered once; *delivering* names every stream
        whose iterator it advanced, in *stream_ids* order. With *upto*,
        offsets above it are held back (and never read early).

        Works a window of at most :meth:`_warm_limit_locked` offsets at
        a time. Under one hold of the iterator lock it finds the
        streams with something to play (none: it returns), merges only
        their offsets that can fall in the window and, in one hold of
        the cache lock, claims the window's cache misses; it warms
        them with one batched read per replica chain and collects the
        window's entries in one more hold. An offset missing by then
        goes through :meth:`fetch` (so a hole surfaces, and runs the
        hole handler, exactly as there). Each iterator moves just
        before its entry is yielded: a consumer that stops early, or a
        hole that raises, leaves everything not yet yielded
        undelivered. *stream_ids* is read again for every window, so a
        live collection picks up streams opened meanwhile.

        With *parse*, ``(offset, form, delivering)`` is yielded instead,
        the form as :meth:`scan` finds or makes it, but playback is an
        entry's last reader: a fresh parse is not remembered, and the
        forms of the *delivered* entries are given up in one hold when
        the window ends or is abandoned (an undelivered entry keeps its
        own), so played history stays cached raw.
        """
        while True:
            with self._lock:
                # (state, lo, hi): offsets[lo:hi] are what is left to play.
                heads: List[Tuple[_StreamState, int, int]] = []
                for sid in stream_ids:
                    state = self._state(sid)
                    offsets, lo = state.offsets, state.read_ptr
                    if lo < len(offsets) and (upto is None or offsets[lo] <= upto):
                        hi = len(offsets) if upto is None else bisect_right(offsets, upto, lo)
                        heads.append((state, lo, hi))
                if not heads:
                    return
                state, lo, hi = heads[0]
                if len(heads) == 1 and hi - lo == 1:
                    # One entry (a read that finds one new one): nothing
                    # to merge or warm.
                    window = [state.offsets[lo]]
                    slices = [window]
                    claim = None
                else:
                    with self._cache_lock:
                        limit = self._warm_limit_locked()
                        slices = [
                            s.offsets[lo : min(hi, lo + limit)] for s, lo, hi in heads
                        ]
                        if len(slices) == 1:
                            window = slices[0]
                        else:
                            window = sorted(set().union(*slices))[:limit]
                        claim = self._claim_locked(window)
                # A stream takes an offset only from its merged slice:
                # one moved since the merge (seek, reset, a trim that
                # forgot the offset) is left where it now stands.
                claimants = [(h[0], s[0], s[-1]) for h, s in zip(heads, slices)]
            self._fetch_many_best_effort(claim)
            with self._cache_lock:
                collected = self._collect_locked(window)
            taken: List[Tuple[int, LogEntry]] = []
            try:
                for offset, slot, form in collected:
                    entry = self.fetch(offset) if slot is None else slot.entry
                    delivering = []
                    with self._lock:
                        for state, first, last in claimants:
                            if first <= offset <= last:
                                ptr, offsets = state.read_ptr, state.offsets
                                if ptr < len(offsets) and offsets[ptr] == offset:
                                    state.read_ptr = ptr + 1
                                    delivering.append(state.stream_id)
                    if not delivering:
                        continue
                    if parse is None:
                        form = entry
                    elif form is None:
                        form = self._parsed(parse, offset, entry)
                    else:
                        taken.append((offset, entry))
                    yield offset, form, tuple(delivering)
            finally:
                if taken:  # give up the delivered entries' forms
                    with self._cache_lock:
                        for offset, entry in taken:
                            slot = self._cache.get(offset)
                            # Evicted since collected: its charge left with it.
                            if slot is None or slot.entry is not entry or slot.decoded is None:
                                continue
                            slot.decoded = None
                            self._cache_bytes -= self._slot_bytes(slot)

    def readnext(
        self, stream_id: int, upto: Optional[int] = None
    ) -> Optional[Tuple[int, LogEntry]]:
        """Deliver the stream's next entry, or None if caught up.

        With *upto* set, entries at offsets greater than *upto* are held
        back, which instantiates a view from a prefix of the log
        (section 3.1, "History"). :meth:`play` is the same step for
        several streams at once, a window at a time.
        """
        with self._lock:
            state = self._state(stream_id)
            if state.read_ptr >= len(state.offsets):
                return None
            offset = state.offsets[state.read_ptr]
            if upto is not None and offset > upto:
                return None
            claim = None
            with self._cache_lock:
                if offset not in self._cache:
                    # About to go to the log anyway: warm this offset
                    # and the known ones behind it in the same round.
                    # Bounded by *upto* so a held-back suffix is never
                    # read early.
                    lo = state.read_ptr
                    hi = min(lo + self._warm_limit_locked(), len(state.offsets))
                    if upto is not None:
                        hi = bisect_right(state.offsets, upto, lo, hi)
                    claim = self._claim_locked(state.offsets[lo:hi])
            self._fetch_many_best_effort(claim)
            entry = self.fetch(offset)
            state.read_ptr += 1
            return offset, entry

    def peek_offset(self, stream_id: int) -> Optional[int]:
        """Offset of the next undelivered entry, or None if caught up.

        Does not move the iterator.
        """
        with self._lock:
            state = self._state(stream_id)
            if state.read_ptr >= len(state.offsets):
                return None
            return state.offsets[state.read_ptr]

    def seek(self, stream_id: int, after_offset: int) -> None:
        """Move the iterator past every offset <= *after_offset*.

        Used after loading a checkpoint: playback resumes at the first
        entry the checkpoint does not cover.
        """
        with self._lock:
            state = self._state(stream_id)
            state.read_ptr = bisect_right(state.offsets, after_offset)

    def known_offsets(self, stream_id: int) -> Tuple[int, ...]:
        """The stream's current linked list (ascending), without fetching."""
        with self._lock:
            return tuple(self._state(stream_id).offsets)

    def lookahead(self, stream_id: int, after_offset: int, parse: _Parse = None):
        """Yield (offset, entry) pairs beyond *after_offset* without
        moving the iterator — or, with *parse*, (offset, form) pairs as
        :meth:`scan` makes them.

        Consuming clients use this to hunt for a decision record further
        down a stream while replaying history (the decision record of a
        transaction always follows its commit record in the same
        streams). The offset list is snapshotted under the lock; the
        fetches happen outside it so a paused consumer cannot hold the
        iterator lock against playback threads.
        """
        with self._lock:
            offsets = self._state(stream_id).offsets
            offsets = offsets[bisect_right(offsets, after_offset) :]
        yield from self.scan(offsets, parse)

    def position(self, stream_id: int) -> int:
        """Offset of the last delivered entry (NO_BACKPOINTER before any).

        After a prefix trim forgot delivered offsets (memory-bounded
        mode), the trim floor stands in for them: everything at or
        below it is part of the delivered history.
        """
        with self._lock:
            state = self._state(stream_id)
            if state.read_ptr == 0:
                return state.trim_floor
            return state.offsets[state.read_ptr - 1]

    def pending(self, stream_id: int) -> int:
        """Entries discovered by sync but not yet delivered."""
        with self._lock:
            state = self._state(stream_id)
            return len(state.offsets) - state.read_ptr

    def reset(self, stream_id: int) -> None:
        """Rewind the iterator to the beginning of the stream.

        Combined with ``readnext(upto=...)`` this instantiates a view
        from a prefix of the history (time travel, section 3.1).
        """
        with self._lock:
            self._state(stream_id).read_ptr = 0

    # -- passthroughs -------------------------------------------------------------

    def check_tail(self, stream_ids: Optional[Sequence[int]] = None) -> int:
        """Current tail of the underlying shared log (fast check).

        With *stream_ids*, only the sequencer shards owning those
        streams are queried — one RPC per owning shard instead of one
        per shard of the whole group — and the result still bounds
        every offset those streams' entries can occupy (a cross-shard
        entry bumps the owning shard's counter past its offset when
        the grant commits). Without arguments this is the global fast
        check across all shards.
        """
        if stream_ids:
            tail, _ = self._corfu.query_streams(tuple(stream_ids))
            return tail
        return self._corfu.check(fast=True)

    @property
    def corfu(self) -> CorfuClient:
        return self._corfu
