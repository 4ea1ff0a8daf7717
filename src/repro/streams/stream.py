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

Every reader gets its entries one way, whether it wants one offset
(``fetch``, a sync walk's cursor, a read that finds one new entry) or a
window of them (``fetch_many``, ``readnext``'s warm, ``scan``, a window
of ``play``, a backward scan): one cache hold takes the cached ones and
claims the misses, one ``read`` or ``read_many`` round reads the claim
with no lock held, and one more hold caches what came back.
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
    """Single-flight slot for one read of the claimed *offsets*.

    Exactly one thread (the owner) reads them and, for a lone offset,
    runs the hole handler; every concurrent fetch of an offset the
    flight covers waits and shares the owner's entry or exception. An
    offset the flight resolved with neither (the owner obtained nothing
    it could share, e.g. a batched round skipping a hole) tells its
    waiters to retry — the next one through becomes the new owner.

    Almost every flight has no waiter, so the event is made on demand:
    the first waiter creates it under ``_cache_lock``, and the owner
    reads it in the same ``_cache_lock`` hold that resolves the flight
    and sets it, if there is one, once the lock is released.
    """

    __slots__ = ("offsets", "event", "entries", "exc")

    def __init__(self, offsets: List[int]) -> None:
        self.offsets = offsets
        self.event: Optional[threading.Event] = None
        self.entries: Dict[int, LogEntry] = {}
        self.exc: Optional[BaseException] = None


class _StreamState:
    """Per-stream metadata: the linked list of offsets plus the iterator."""

    __slots__ = ("stream_id", "offsets", "read_ptr", "floor", "covered")

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self.offsets: List[int] = []  # ascending offsets known to belong here
        self.read_ptr = 0  # index into `offsets` of the next entry to deliver
        # Everything at or below the floor counts as delivered, listed
        # or not: it was forgotten to a prefix trim (memory-bounded
        # mode), or a seek past the list moved it there (a checkpoint
        # covers it). A walk stops at the floor.
        self.floor = NO_BACKPOINTER
        # True after a seek past the list: the stream's offsets at or
        # below the floor are not listed, though they are in the log.
        self.covered = False

    def highest_known(self) -> int:
        return self.offsets[-1] if self.offsets else self.floor

    def forget_below(self, horizon: int) -> int:
        """Drop linked-list entries below *horizon* (a trimmed prefix).

        The dropped offsets read as junk forever, so neither playback
        nor checkpoint scans can miss anything. Returns the number of
        offsets dropped; the iterator keeps its logical position.
        """
        k = bisect_left(self.offsets, horizon)
        if k:
            del self.offsets[:k]
            self.read_ptr = max(0, self.read_ptr - k)
        if horizon - 1 > self.floor:
            self.floor = horizon - 1
        return k


class _AppendSeed(threading.local):
    """The calling thread's append in progress: (payload, its decoded
    form), which the append observer (on the same thread) caches."""

    seed: Optional[Tuple[bytes, object]] = None


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
        self._appending = _AppendSeed()
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

    def close_stream(self, stream_id: int) -> None:
        """Stop tracking *stream_id* (idempotent): its linked list and
        iterator are dropped, and a later :meth:`open_stream` starts
        afresh. Cached entries stay."""
        with self._lock:
            self._streams.pop(stream_id, None)

    def is_open(self, stream_id: int) -> bool:
        with self._lock:
            return stream_id in self._streams

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
        wanted = (offset,)
        while True:
            with self._cache_lock:
                slots, flight = self._claim_locked(wanted)
                waiting = None
                if slots[0] is None and flight is None:  # another thread reads it
                    waiting = self._inflight[offset]
                    if waiting.event is None:
                        waiting.event = threading.Event()
            if waiting is None:
                (slot,) = self._read_claim(wanted, slots, flight)
                return slot.entry
            waiting.event.wait()
            if waiting.exc is not None:
                raise waiting.exc
            shared = waiting.entries.get(offset)
            if shared is not None:
                return shared
            # Unresolved slot (a batched round skipped this offset):
            # loop and become the new owner.

    def _claim_locked(
        self, offsets: Sequence[int]
    ) -> Tuple[List[Optional[_Cached]], Optional[_InflightFetch]]:
        """Step one of getting *offsets*; the caller holds ``_cache_lock``.

        Returns each offset's cache slot (None: a miss), touching the
        LRU as a hit, and one flight claiming the misses no one else is
        reading (None: nothing claimed). A lone miss is claimed only where
        the consumer stands, at the first offset: one further on costs the
        same round trip when the consumer gets there, through :meth:`fetch`.
        """
        cache, inflight = self._cache, self._inflight
        slots: List[Optional[_Cached]] = []
        misses: List[int] = []
        for off in offsets:
            slot = cache.get(off)
            if slot is not None:
                cache.move_to_end(off)
            elif off not in inflight:
                misses.append(off)
            slots.append(slot)
        if not misses or (len(misses) == 1 and misses[0] != offsets[0]):
            return slots, None
        flight = _InflightFetch(misses)
        for off in misses:
            inflight[off] = flight
        return slots, flight

    def _read_claim(
        self,
        offsets: Sequence[int],
        slots: List[Optional[_Cached]],
        flight: Optional[_InflightFetch],
    ) -> List[Optional[_Cached]]:
        """Steps two and three: read *flight*'s claim with no lock held,
        then cache it, resolve the flight and fill in *slots* in one hold.

        A lone claimed offset is the consumer's: a ``read``, and a hole
        runs the hole handler and is read again (a handler that chose not
        to fill surfaces the hole); a failure is shared with the flight's
        waiters and raised. More are one best-effort ``read_many`` round:
        a hole ahead of the consumer is skipped, and a round failing with
        a :class:`ReproError` reads nothing, so such an offset resolves
        empty and goes through :meth:`fetch`. Trimmed offsets read as junk.
        """
        if flight is None:
            return slots
        claimed, got = flight.offsets, flight.entries
        try:
            if len(claimed) > 1:
                try:
                    outcomes: Mapping[int, object] = self._corfu.read_many(claimed)
                except ReproError:
                    outcomes = {}  # the per-offset path retries with full discipline
                for off, outcome in outcomes.items():
                    if isinstance(outcome, LogEntry):
                        got[off] = outcome
                    elif isinstance(outcome, TrimmedError):
                        got[off] = LogEntry.junk()
            else:
                offset = claimed[0]
                try:
                    got[offset] = self._corfu.read(offset)
                except UnwrittenError:
                    self._hole_handler(offset)
                    got[offset] = self._corfu.read(offset)
                except TrimmedError:
                    got[offset] = LogEntry.junk()
        except BaseException as exc:
            if len(claimed) == 1:  # the consumer's offset: its waiters share it
                flight.exc = exc
            raise
        finally:
            with self._cache_lock:
                for off in claimed:
                    self._inflight.pop(off, None)
                for i, off in enumerate(offsets):
                    if slots[i] is None and off in got:
                        slots[i] = self._cache_insert_locked(off, got[off])
                event = flight.event
            if event is not None:
                event.set()
        return slots

    @staticmethod
    def _slot_bytes(slot: _Cached) -> int:
        cost = len(slot.entry.payload) + CACHE_ENTRY_OVERHEAD
        return cost if slot.decoded is None else 2 * cost

    def _cache_insert_locked(
        self, offset: int, entry: LogEntry, decoded: object = None
    ) -> _Cached:
        """Insert into the LRU cache and return the slot; caller holds
        ``_cache_lock``."""
        cache = self._cache
        old = cache.get(offset)
        # A new key lands at the LRU's young end.
        slot = cache[offset] = _Cached(entry, decoded)
        if old is not None:
            self._cache_bytes -= self._slot_bytes(old)
            cache.move_to_end(offset)
        cost = len(entry.payload) + CACHE_ENTRY_OVERHEAD
        self._cache_bytes += cost if decoded is None else 2 * cost
        if len(cache) > self._cache_entries or self._cache_budget is not None:
            self._cache_shrink_locked()
        return slot

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

    def fetch_many(self, offsets: Sequence[int]) -> Dict[int, LogEntry]:
        """Fetch several offsets, batching the storage round trips.

        Equivalent to ``{off: fetch(off) for off in offsets}`` —
        including hole handling and junk-for-trimmed — but written
        offsets are read with one RPC per replica chain instead of one
        per offset. Holes surface through the per-offset fallback so the
        hole handler runs exactly once per hole.
        """
        wanted = sorted(set(offsets))
        with self._cache_lock:
            slots, flight = self._claim_locked(wanted)
        self._read_claim(wanted, slots, flight)
        return {
            off: self.fetch(off) if slot is None else slot.entry
            for off, slot in zip(wanted, slots)
        }

    def scan(self, offsets: Iterable[int], parse: _Parse = None) -> Iterator[Tuple[int, Any]]:
        """Yield ``(offset, entry)`` for each of *offsets*, in the order given.

        For offsets the caller already knows it will visit (a stream's
        linked list walked newest-first for a checkpoint, a suffix
        searched for a decision record): each round takes the next
        :data:`PLAYBACK_PREFETCH` of them in one hold of the cache lock,
        with its cached entries, and reads its misses with one batched
        read per replica chain (see :meth:`_claim_locked`); an offset
        missing by then goes through :meth:`fetch`, so holes and trimmed
        offsets behave exactly as they do there. Lazy — a consumer that
        stops early reads at most one round more than it used.

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
                slots, flight = self._claim_locked(chunk)
            self._read_claim(chunk, slots, flight)
            fresh: List[Tuple[int, LogEntry, Any]] = []
            try:
                for offset, slot in zip(chunk, slots):
                    if slot is None:
                        entry, form = self.fetch(offset), None
                    else:
                        entry, form = slot.entry, slot.decoded
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
        # Membership only: a lookup in the open-stream table is atomic
        # and needs no iterator lock (an append racing open_stream or
        # close_stream may cache an entry or not, as if ordered either way).
        streams = self._streams  # tangolint: disable=TL010
        for header in entry.headers:
            if header.stream_id in streams:
                break
        else:
            return
        seed = self._appending.seed
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
        return self.sync_many((stream_id,))[stream_id]

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
                markers[sid] = self._sync_from_locked(sid, last_offsets.get(sid, ()))
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
                    sid: self.sync_from(sid, (offset,) + header.backpointers)
                    for sid, header in zip(stream_ids, headers)
                }
        return self.sync_many(stream_ids)

    def sync_from(self, stream_id: int, recent_offsets: Sequence[int]) -> int:
        """:meth:`sync` from a sequencer answer the caller already has:
        walk backpointers from the stream's last-K *recent_offsets*
        down to what is listed (or to the floor). Returns the stream's
        last offset."""
        with self._lock:
            return self._sync_from_locked(stream_id, recent_offsets)

    def _sync_from_locked(
        self, stream_id: int, recent_offsets: Sequence[int]
    ) -> int:
        state = self._state(stream_id)
        offsets = state.offsets
        floor = offsets[-1] if offsets else state.floor
        # Nothing the sequencer named is news (NO_BACKPOINTER sorts
        # below every floor): the common case for all but one hosted
        # stream of a linearizable read.
        if not recent_offsets or max(recent_offsets) <= floor:
            return floor
        named = sorted(set(recent_offsets))
        k = bisect_right(named, floor)
        if k and named[k - 1] != NO_BACKPOINTER:
            # The answer reaches listed ground: it names every new
            # offset, and there is nothing to walk.
            offsets.extend(named[k:])
            return offsets[-1]
        # Every offset named is new: walk the backpointers below them.
        discovered = set(named[k:])
        cursor = named[k]
        while cursor is not None and cursor > floor:
            try:
                entry: Optional[LogEntry] = self.fetch(cursor)
            except UnwrittenError:
                entry = None
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
            # The cursor is the lowest offset discovered, so a pointer
            # not above the floor (NO_BACKPOINTER never is) is all that
            # can end the chain: it reached listed ground or the start.
            ptrs = [p for p in header.backpointers if p > floor and p not in discovered]
            if not ptrs:
                break
            discovered.update(ptrs)
            cursor = min(ptrs)
        offsets.extend(sorted(discovered))
        return state.highest_known()

    def _scan_backward(
        self, stream_id: int, start: int, floor: int
    ) -> Optional[int]:
        """Linear backward scan for the previous valid entry of a stream.

        Used when backpointers dead-end in junk (section 5: "a client in
        this situation resorts to scanning the log backwards to find an
        earlier valid entry for the stream").

        The scan examines every offset in range regardless, so it reads
        the log in :data:`SCAN_WINDOW`-sized windows, newest first — one
        storage round trip per replica chain per window instead of one
        per offset. Holes inside a window are skipped by the batch and
        re-fetched individually so hole handling stays per-offset and
        exactly-once; a hole its handler leaves open is passed over.
        """
        top = start
        while top > floor:
            window = range(top, max(floor, top - SCAN_WINDOW), -1)
            with self._cache_lock:
                slots, flight = self._claim_locked(window)
            try:
                self._read_claim(window, slots, flight)
            except UnwrittenError:  # the top, claimed alone: a hole its handler left open
                slots[0] = _Cached(LogEntry.junk())
            for offset, slot in zip(window, slots):
                self.backward_scans += 1
                try:
                    entry = self.fetch(offset) if slot is None else slot.entry
                except UnwrittenError:
                    continue
                if not entry.is_junk and entry.header_for(stream_id) is not None:
                    return offset
            top = window[-1] - 1
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
        the cache lock, takes the window's cached entries and claims
        its misses (see :meth:`_claim_locked`), which it reads with no
        lock held and caches in one more hold. A window of one cached
        entry (a read that finds one new one) is delivered in the first
        hold. An offset missing by then (a hole the batched read
        skipped, or a lone miss past the window's first offset) goes
        through :meth:`fetch`, so a hole surfaces, and runs the hole
        handler, exactly as there. Each iterator moves just
        before its entry is yielded: a consumer that stops early, or a
        hole that raises, leaves everything not yet yielded
        undelivered. *stream_ids* is read again for every window, so a
        live collection picks up streams opened meanwhile; a window
        that takes every stream's last pending offset is the last, and
        what is listed, opened or rewound while it is consumed waits
        for the next call.

        With *parse*, ``(offset, form, delivering)`` is yielded instead,
        the form as :meth:`scan` finds or makes it, but playback is an
        entry's last reader: a fresh parse is not remembered, and the
        forms of the *delivered* entries are given up (in the one-entry
        window's hold, or in one more when a window ends or is
        abandoned; an undelivered entry keeps its own), so played
        history stays cached raw.
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
                single = len(heads) == 1 and hi - lo == 1
                with self._cache_lock:
                    if single:  # a read that finds one new entry
                        window = state.offsets[lo:hi]
                        slots, flight = self._claim_locked(window)
                        slot, form = slots[0], None
                        if slot is not None:  # cached: delivered in this hold
                            if parse is not None and slot.decoded is not None:
                                form, slot.decoded = slot.decoded, None
                                self._cache_bytes -= self._slot_bytes(slot)
                            state.read_ptr = lo + 1
                    else:
                        limit = self._warm_limit_locked()
                        slices = [
                            s.offsets[lo : min(hi, lo + limit)] for s, lo, hi in heads
                        ]
                        window = slices[0] if len(slices) == 1 else sorted(set().union(*slices))
                        drained = len(window) <= limit and all(hi - lo <= limit for _s, lo, hi in heads)
                        window = window[:limit]
                        slots, flight = self._claim_locked(window)
                if not single:
                    # A stream takes an offset only from its merged slice:
                    # one moved since the merge (seek, reset, a trim that
                    # forgot the offset) is left where it now stands.
                    claimants = [(h[0], s[0], s[-1]) for h, s in zip(heads, slices)]
            if single:
                offset = window[0]
                if slot is None:
                    slot = self._read_claim(window, slots, flight)[0]
                    entry = self.fetch(offset) if slot is None else slot.entry
                    with self._lock:
                        if state.offsets[state.read_ptr : state.read_ptr + 1] != [offset]:
                            return  # moved since: left where it now stands
                        state.read_ptr += 1
                else:
                    entry = slot.entry
                if parse is None:
                    form = entry
                elif form is None:
                    form = self._parsed(parse, offset, entry)
                yield offset, form, (state.stream_id,)
                return
            self._read_claim(window, slots, flight)
            taken: List[Tuple[int, LogEntry]] = []
            try:
                for offset, slot in zip(window, slots):
                    if slot is None:
                        entry, form = self.fetch(offset), None
                    else:
                        entry, form = slot.entry, slot.decoded
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
            if drained:
                return

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
            offsets, lo = state.offsets, state.read_ptr
            hi = len(offsets) if upto is None else bisect_right(offsets, upto, lo)
            if lo >= hi:
                return None
            offset = offsets[lo]
            with self._cache_lock:
                # A miss goes to the log anyway: warm the known offsets
                # behind it in the same round (a cached entry warms
                # nothing, so rounds do not slide by one), never past
                # *upto*, so a held-back suffix is never read early.
                if offset in self._cache:
                    hi = lo + 1
                window = offsets[lo : min(hi, lo + self._warm_limit_locked())]
                slots, flight = self._claim_locked(window)
            slot = self._read_claim(window, slots, flight)[0]
            entry = self.fetch(offset) if slot is None else slot.entry
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
        entry the checkpoint does not cover. A seek past everything
        listed (registration seeks before it walks) covers the stream:
        the list is dropped and the floor moves to *after_offset*, so a
        walk stops there and what lies below stays unlisted until
        :meth:`uncover`.
        """
        with self._lock:
            state = self._state(stream_id)
            if after_offset > state.highest_known():
                state.offsets.clear()
                state.floor = after_offset
                state.covered = True
            state.read_ptr = bisect_right(state.offsets, after_offset)

    def uncover(self, stream_id: int) -> None:
        """List the offsets a covering :meth:`seek` left unlisted.

        For a reader that needs a covered stream's whole history (a
        reconstruction of its versions). Walks from the lowest listed
        offset, or from a fresh sequencer answer when nothing is listed,
        to the start of the stream; the walk fills a state of its own,
        swapped in under the iterator lock so no reader sees it. The
        iterator keeps its logical position: what the walk adds at or
        below the floor counts as delivered. No-op on a stream that is
        not covered.
        """
        with self._lock:
            state = self._state(stream_id)
            if not state.covered:
                return
            start = state.offsets[:1]
        if not start:
            _tail, recent = self._corfu.query_streams((stream_id,))
            start = list(recent.get(stream_id, ()))
        with self._lock:
            state = self._state(stream_id)
            if not state.covered:
                return
            walked = self._streams[stream_id] = _StreamState(stream_id)
            try:
                self.sync_from(stream_id, start)
            finally:
                self._streams[stream_id] = state
            listed = set(state.offsets)
            found = [off for off in walked.offsets if off not in listed]
            state.read_ptr += sum(1 for off in found if off <= state.floor)
            state.offsets = sorted(state.offsets + found)
            state.covered = False

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

        When no listed offset was delivered, the floor stands in: a
        prefix trim forgot the delivered offsets (memory-bounded mode),
        or a seek past the list skipped them (a checkpoint covers them),
        and everything at or below it is part of the delivered history.
        """
        with self._lock:
            state = self._state(stream_id)
            if state.read_ptr == 0:
                return state.floor
            return state.offsets[state.read_ptr - 1]

    def pending(self, stream_id: int) -> int:
        """Entries discovered by sync but not yet delivered."""
        with self._lock:
            state = self._state(stream_id)
            return len(state.offsets) - state.read_ptr

    def reset(self, stream_id: int) -> None:
        """Rewind the iterator to the beginning of the stream.

        Combined with ``readnext(upto=...)`` this instantiates a view
        from a prefix of the history (time travel, section 3.1). A
        covered stream rewinds to its floor; :meth:`uncover` it first
        to replay what lies below.
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
