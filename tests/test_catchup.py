"""Catch-up by a fresh runtime, in exact counts.

A seeded ~600-entry log over four maps (puts, two-map write-only
transactions, one junk fill, one map with a checkpoint and a suffix) is
played by a runtime that has never seen it. What is asserted is counted
by the program itself, so it repeats on any machine: every payload is
decoded once, known offsets travel in batches of up to 64
(``PLAYBACK_PREFETCH``), one new entry costs one storage read, and the
views and versions equal the writer's.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corfu import CorfuCluster
from repro.errors import TangoError
from repro.objects import TangoMap
from repro.streams import StreamClient
from repro.streams import stream as stream_module
from repro.tango import runtime as runtime_module
from repro.tango.runtime import TangoRuntime

OIDS = (1, 2, 3, 4)
KEYS = [f"k{i:03d}" for i in range(48)]
N_OPS = 600
CHECKPOINTED = 4


def _storage(cluster, corfu, field: str = "rpcs") -> int:
    """A transport counter summed over the storage nodes (the transport
    is the cluster's, so callers diff around a single-client phase)."""
    stats = corfu.net_stats()
    return sum(
        stats[n][field] for n in cluster.projection.all_nodes() if n in stats
    )


@pytest.fixture(scope="module")
def history():
    """The cluster, its writer, and the writer's maps, fully played."""
    rng = random.Random(20)
    cluster = CorfuCluster(num_sets=2, replication_factor=2)
    writer = TangoRuntime(cluster, client_id=1, name="writer")
    maps = {oid: TangoMap(writer, oid) for oid in OIDS}
    for i in range(N_OPS):
        if i == N_OPS // 3:
            # A crashed appender: an offset reserved for map 2, filled.
            hole, _ = cluster.sequencer().increment(stream_ids=(2,))
            cluster.client().fill(hole)
        if i == N_OPS // 2:
            maps[CHECKPOINTED].size()  # play it, then snapshot it
            writer.checkpoint(CHECKPOINTED)
        if rng.random() < 0.9:
            maps[rng.choice(OIDS)].put(rng.choice(KEYS), i)
        else:
            first, second = rng.sample(OIDS, 2)
            writer.begin_tx()
            maps[first].put(rng.choice(KEYS), i)
            maps[second].put(rng.choice(KEYS), -i)
            assert writer.end_tx()
    for tmap in maps.values():
        tmap.size()
    return cluster, writer, maps


def _fresh(cluster, client_id: int):
    rt = TangoRuntime(cluster, client_id=client_id, name=f"fresh-{client_id}")
    held = {oid: TangoMap(rt, oid) for oid in OIDS}
    held[OIDS[0]].get(KEYS[0])  # syncs and plays every hosted stream
    return rt, held


def test_every_payload_is_decoded_exactly_once(history, monkeypatch):
    cluster, _writer, _maps = history
    decodes = Counter()
    decode = runtime_module._decode_payload

    def counting(entry):
        decodes[entry.payload] += 1
        return decode(entry)

    monkeypatch.setattr(runtime_module, "_decode_payload", counting)
    rt, _held = _fresh(cluster, client_id=2)
    # Every entry the catch-up looked at, whichever of the checkpoint
    # load, merged playback or (for a two-map commit) a second hosted
    # stream got there first. Map 4's prefix sits under its checkpoint
    # and is never visited at all.
    assert len(decodes) > 0.8 * N_OPS
    assert set(decodes.values()) == {1}
    assert rt.stats["applied_updates"] > 0.8 * N_OPS


def test_known_offsets_travel_in_exact_batches(history):
    cluster, _writer, _maps = history
    # What finding the four linked lists costs, on its own client: the
    # backpointer walk reads one entry in K, one RPC each.
    walker = StreamClient(cluster.client())
    before = _storage(cluster, walker.corfu)
    for oid in OIDS:
        walker.open_stream(oid)
        walker.sync(oid)
    walk_rpcs = _storage(cluster, walker.corfu) - before

    before = _storage(cluster, walker.corfu)
    rt, _held = _fresh(cluster, client_id=3)
    rpcs = _storage(cluster, rt.streams.corfu) - before
    tail = rt.streams.check_tail()
    rounds = -(-tail // 64)
    # Beyond the walk: one batched round per window of 64 known
    # offsets, one RPC per replica chain per round; a few rounds are
    # short (a stream's last window is partial). Windows of
    # 8 sliding by one needed ~N/3 rounds here.
    assert rpcs <= walk_rpcs + 2 * rounds + 2 * len(OIDS) + 4


def test_one_new_entry_costs_one_storage_read(history):
    cluster, writer, maps = history
    rt, held = _fresh(cluster, client_id=4)
    # _fresh plays to map 1's marker; maps 2-4 may hold entries past it,
    # which nothing has read yet. Play every map to its tail first.
    for tmap in held.values():
        tmap.size()
    maps[2].put(KEYS[5], "fresh")
    corfu = rt.streams.corfu
    reads, batched = _storage(cluster, corfu), _storage(cluster, corfu, "batch_rpcs")
    assert held[2].get(KEYS[5]) == "fresh"
    assert _storage(cluster, corfu) - reads == 1
    assert _storage(cluster, corfu, "batch_rpcs") == batched
    # Nothing new: no storage traffic at all.
    reads = _storage(cluster, corfu)
    assert held[2].get(KEYS[5]) == "fresh"
    assert _storage(cluster, corfu) == reads


#: ``_cache_lock`` holds per batched round of ``play`` or ``scan``: the
#: claim of its misses, the insert of what the round's read returned,
#: the collection of its entries and forms, and the hand-over (``scan``
#: remembers fresh forms, playback releases delivered ones). A miss the
#: round did not claim (a lone one) costs ``fetch``'s two more.
HOLDS_PER_WINDOW = 4
HOLDS_PER_MISS = 2


class _CountingLock:
    def __init__(self, lock):
        self._lock = lock
        self.holds = 0

    def __enter__(self):
        self._lock.acquire()
        self.holds += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


def test_a_window_takes_its_entries_and_records_in_a_few_holds(history, monkeypatch):
    """A fresh four-map runtime: the checkpoint load and playback take a
    round's entries and records from the cache in a few lock holds, not
    in a few per entry, and leave nothing decoded behind."""
    cluster, _writer, _maps = history
    streams = StreamClient(cluster.client())
    for oid in OIDS:  # the backpointer walk, outside the count
        streams.open_stream(oid)
        streams.sync(oid)
    decodes = Counter()
    decode = runtime_module.decode_records

    def counting_decode(payload):
        decodes[payload] += 1
        return decode(payload)

    monkeypatch.setattr(runtime_module, "decode_records", counting_decode)
    fetch, scan, play = streams.fetch, streams.scan, streams.play
    fetched, scanned, played = [], [], []

    def spy_fetch(offset):
        fetched.append((offset, offset in streams.cached_offsets()))
        return fetch(offset)

    def spy(iterate, seen):
        def run(*args):
            mine = []
            seen.append(mine)
            for item in iterate(*args):
                mine.append(item[0])
                yield item

        return run

    monkeypatch.setattr(streams, "fetch", spy_fetch)
    monkeypatch.setattr(streams, "scan", spy(scan, scanned))
    monkeypatch.setattr(streams, "play", spy(play, played))
    lock = streams._cache_lock = _CountingLock(streams._cache_lock)

    rt = TangoRuntime(streams, client_id=6, name="counted")
    held = {oid: TangoMap(rt, oid) for oid in OIDS}  # walks nothing new; loads map 4's checkpoint
    load_holds, load_misses = lock.holds, len(fetched)
    lock.holds = 0
    for oid in OIDS:
        held[oid].size()  # plays every hosted stream to its tail
    play_holds, play_misses = lock.holds, len(fetched) - load_misses

    def rounds(calls):
        return sum(-(-len(offsets) // 64) for offsets in calls)

    # The window never goes back to fetch for an entry it found cached.
    assert not any(cached for _off, cached in fetched)
    assert load_holds <= HOLDS_PER_WINDOW * rounds(scanned) + HOLDS_PER_MISS * load_misses
    assert play_holds <= HOLDS_PER_WINDOW * rounds(played) + HOLDS_PER_MISS * play_misses
    # Every entry visited is decoded exactly once, by the load or playback.
    visited = {off for calls in (scanned, played) for offsets in calls for off in offsets}
    assert sum(decodes.values()) == len(visited) and set(decodes.values()) == {1}
    assert len({off for offsets in played for off in offsets}) > 0.8 * N_OPS
    assert rt.stats["applied_updates"] > 0.8 * N_OPS
    # Played history is cached raw: no form is left behind.
    assert streams.resident_bytes() == sum(
        len(fetch(off).payload) + stream_module.CACHE_ENTRY_OVERHEAD
        for off in streams.cached_offsets()
    )


def test_views_and_versions_equal_the_writers(history):
    cluster, writer, maps = history
    for tmap in maps.values():
        tmap.size()
    rt, held = _fresh(cluster, client_id=5)
    assert rt.status()["store"]["checkpoint_chains"] == {CHECKPOINTED: 0}
    for oid in OIDS:
        assert dict(held[oid].items()) == dict(maps[oid].items())
        assert rt.version_of(oid) == writer.version_of(oid)
        for key in KEYS:
            k = key.encode("utf-8")
            assert rt.version_of(oid, k) == writer.version_of(oid, k)


# ---------------------------------------------------------------------
# equivalence: the windowed iterator against a one-entry-at-a-time player
# ---------------------------------------------------------------------

SHARED = (1, 2, 3)
PRIVATE = 9  # read by the guarded transactions, hosted by the writers only
EQ_KEYS = ("a", "b", "c", "d")


class _OneAtATime(StreamClient):
    """The reference player: no windows, no batches, public calls only.

    Delivers the smallest undelivered known offset of the streams, one
    entry per step, through ``peek_offset`` / ``fetch`` / ``seek``, and
    with *parse* decodes every entry it delivers (no remembered forms).
    """

    def play(self, stream_ids, upto=None, parse=None):
        while True:
            heads = {sid: self.peek_offset(sid) for sid in stream_ids}
            live = [
                off
                for off in heads.values()
                if off is not None and (upto is None or off <= upto)
            ]
            if not live:
                return
            best = min(live)
            entry = self.fetch(best)
            delivering = tuple(sid for sid in stream_ids if heads[sid] == best)
            for sid in delivering:
                self.seek(sid, best)
            yield best, entry if parse is None else parse(entry), delivering


class _Marked(TangoMap):
    needs_decision_record = True


class _Consumer:
    """A runtime hosting maps 1 and 2 (3 joins late), with its apply trace."""

    def __init__(self, cluster, streams_cls, client_id):
        self.rt = TangoRuntime(streams_cls(cluster.client()), client_id=client_id)
        self.applied = []
        self.rt.subscribe(
            "apply", lambda ev: self.applied.append((ev["oid"], ev["offset"], ev["key"]))
        )
        self.held = {oid: TangoMap(self.rt, oid) for oid in (1, 2)}

    def act(self, action, tail):
        kind, oid, frac = action
        try:
            if kind == "register":
                if oid not in self.held:
                    self.held[oid] = TangoMap(self.rt, oid)
            elif oid in self.held:
                upto = int(frac * tail) if kind == "upto" else None
                self.rt.query_helper(oid, upto=upto)
        except TangoError as exc:  # e.g. registering while a tx is parked
            return type(exc).__name__
        return None

    def snapshot(self):
        status = self.rt.status()
        return {
            "views": {oid: dict(m._map) for oid, m in self.held.items()},
            "versions": {
                oid: [self.rt.version_of(oid)]
                + [self.rt.version_of(oid, k.encode()) for k in EQ_KEYS]
                for oid in self.held
            },
            "stats": status["stats"],
            "applied": list(self.applied),
            "playback": {
                key: status[key]
                for key in (
                    "watermark",
                    "awaiting_decisions",
                    "blocked_streams",
                    "deferred_entries",
                    "decided_txes",
                )
            },
        }


_shared = st.sampled_from(SHARED)
_key = st.sampled_from(EQ_KEYS)
_park = st.tuples(
    st.just("park"),
    _shared,
    _key,
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)
_writes = st.one_of(
    st.tuples(st.just("put"), _shared, _key),
    st.tuples(st.just("remove"), _shared, _key),
    st.tuples(st.just("tx2"), st.permutations(SHARED), _key),
    # A transaction reading PRIVATE and writing a shared map: consumers
    # host the write set only, so they park it (blocking that stream and
    # deferring the 0-3 puts that follow) until "decide" publishes the
    # decision record. The first flag makes it lose its read race; the
    # second has the consumers play the stream while it is blocked.
    _park,
    _park,
    st.tuples(st.just("decide")),
    st.tuples(st.just("fill"), _shared),
    st.tuples(st.just("checkpoint"), _shared),
)
_reads = st.tuples(
    st.sampled_from(("play", "upto", "register")),
    _shared,
    st.floats(min_value=0.0, max_value=1.0),
)


@given(
    steps=st.lists(st.one_of(_writes, _writes, _reads), max_size=50),
    window=st.sampled_from((2, 5, 64)),
)
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_windowed_playback_equals_one_entry_at_a_time(steps, window):
    # Histories here are shorter than one 64-entry window; small windows
    # put window boundaries (and re-merges after a sync) inside them.
    with mock.patch.object(stream_module, "PLAYBACK_PREFETCH", window):
        _check_equivalence(steps)


def _check_equivalence(steps):
    cluster = CorfuCluster(num_sets=2, replication_factor=2)
    writer = TangoRuntime(cluster, client_id=1, name="writer")
    rival = TangoRuntime(cluster, client_id=2, name="rival")
    maps = {oid: TangoMap(writer, oid) for oid in SHARED}
    private, rival_private = _Marked(writer, PRIVATE), _Marked(rival, PRIVATE)
    private.put("gate", 0)
    windowed = _Consumer(cluster, StreamClient, client_id=3)
    reference = _Consumer(cluster, _OneAtATime, client_id=4)
    parked = []  # (tx_id, commit record), oldest first

    def decide():
        tx_id, record = parked.pop(0)
        private.get("gate")  # the writer plays past the commit: decided
        writer._append_decision(tx_id, writer._decided[tx_id], record)

    def both(action):
        tail = cluster.client().check()
        assert windowed.act(action, tail) == reference.act(action, tail)
        assert windowed.snapshot() == reference.snapshot()

    for n, step in enumerate(steps):
        kind = step[0]
        if kind == "put":
            maps[step[1]].put(step[2], n)
        elif kind == "remove":
            maps[step[1]].remove(step[2])
        elif kind == "tx2":
            writer.begin_tx()
            maps[step[1][0]].put(step[2], n)
            maps[step[1][1]].put(step[2], -n)
            assert writer.end_tx()
        elif kind == "park":
            private.get("gate")
            writer.begin_tx()
            private.get("gate")
            maps[step[1]].put(step[2], n)
            ctx = writer._current_tx()
            writer._tls.tx = None
            if step[3]:
                rival_private.put("gate", n)  # lands first: the tx aborts
            _offset, record = writer._append_commit(ctx)
            parked.append((ctx.tx_id, record))
            for i in range(step[4]):
                maps[step[1]].put(EQ_KEYS[i], n)
            if step[5]:
                both(("play", step[1], 0.0))
        elif kind == "decide":
            if parked:
                decide()
        elif kind == "fill":
            hole, _ = cluster.sequencer().increment(stream_ids=(step[1],))
            cluster.client().fill(hole)
        elif kind == "checkpoint":
            maps[step[1]].size()
            writer.checkpoint(step[1])
        else:
            both(step)
    while parked:
        decide()
    both(("play", 1, 0.0))  # drains what was parked: registering is legal again
    for oid in SHARED:
        both(("register", oid, 0.0))
        both(("play", oid, 0.0))
    final = windowed.snapshot()
    assert final["playback"]["awaiting_decisions"] == []
    # Against the writer too: a parked transaction defers what follows
    # it, and a deferred entry holds every stream it belongs to, so each
    # consumer's view still follows log order.
    for oid in SHARED:
        writer.query_helper(oid)
        assert final["views"][oid] == dict(maps[oid].items())
        offsets = [off for o, off, _key in final["applied"] if o == oid]
        assert offsets == sorted(offsets)


def test_checkpoint_refused_while_its_view_lags_a_parked_transaction():
    """X's iterator on map 1 is past a parked commit and a put deferred
    behind it, which its view has not applied: a checkpoint there would
    hand every later loader a view without either write."""
    cluster = CorfuCluster(num_sets=2, replication_factor=2)
    w = TangoRuntime(cluster, client_id=1, name="W")
    w_map, w_gate = TangoMap(w, 1), _Marked(w, 2)
    w_gate.put("gate", 0)
    x = TangoRuntime(cluster, client_id=3, name="X")
    x_map = TangoMap(x, 1)

    w_gate.get("gate")
    w.begin_tx()
    w_gate.get("gate")
    w_map.put("t", 5)
    ctx = w._current_tx()
    w._tls.tx = None
    _offset, record = w._append_commit(ctx)  # no decision record yet
    w_map.put("b", 2)

    assert x_map.get("b") is None  # parks the commit, defers the put
    assert x.status()["awaiting_decisions"] == [ctx.tx_id]
    with pytest.raises(TangoError, match=str(ctx.tx_id)):
        x.checkpoint(1)
    assert x.stats["full_checkpoints"] == 0

    w_gate.get("gate")  # W plays past its commit: decided
    w._append_decision(ctx.tx_id, w._decided[ctx.tx_id], record)
    assert (x_map.get("t"), x_map.get("b")) == (5, 2)
    x.checkpoint(1)
    fresh = TangoRuntime(cluster, client_id=4, name="fresh")
    loaded = TangoMap(fresh, 1)
    assert fresh.status()["store"]["checkpoint_chains"] == {1: 0}
    assert (loaded.get("t"), loaded.get("b")) == (5, 2)
    assert (w_map.get("t"), w_map.get("b")) == (5, 2)


def test_deferred_entry_holds_its_whole_scope():
    """Park on stream 1; a two-map commit on (1, 2) is deferred behind
    it; a later put on 2 must queue behind that commit, not overtake it."""
    cluster = CorfuCluster(num_sets=2, replication_factor=2)
    writer = TangoRuntime(cluster, client_id=1, name="writer")
    maps = {oid: TangoMap(writer, oid) for oid in (1, 2)}
    private = _Marked(writer, PRIVATE)
    private.put("gate", 0)
    consumer = _Consumer(cluster, StreamClient, client_id=3)

    private.get("gate")
    writer.begin_tx()
    private.get("gate")
    maps[1].put("a", "parked")
    ctx = writer._current_tx()
    writer._tls.tx = None
    _offset, record = writer._append_commit(ctx)

    writer.begin_tx()
    maps[1].put("b", "both")
    maps[2].put("b", "both")
    assert writer.end_tx()
    maps[2].put("b", "after")

    consumer.rt.query_helper(2)
    status = consumer.rt.status()
    assert status["awaiting_decisions"] == [ctx.tx_id]
    assert status["blocked_streams"] == [1, 2]
    assert status["deferred_entries"] == 2
    assert consumer.applied == []

    private.get("gate")
    writer._append_decision(ctx.tx_id, writer._decided[ctx.tx_id], record)
    consumer.rt.query_helper(1)  # the decision record rides on stream 1
    status = consumer.rt.status()
    assert status["blocked_streams"] == [] and status["deferred_entries"] == 0
    for oid in (1, 2):
        offsets = [off for o, off, _key in consumer.applied if o == oid]
        assert offsets == sorted(offsets) and offsets
        assert dict(consumer.held[oid]._map) == dict(maps[oid].items())
    assert consumer.held[2]._map["b"] == "after"
