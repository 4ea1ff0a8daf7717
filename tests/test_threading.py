"""Multithreaded clients: many application threads, one runtime.

The paper's client model is explicitly multithreaded — BeginTX lives in
thread-local storage and the apply upcall must not race "application
threads executing arbitrary methods of the object" (section 3.1/3.2).
These tests drive one runtime (and the shared in-process cluster) from
several Python threads at once.
"""

import threading
from collections import Counter

import pytest

from repro.corfu import CorfuCluster
from repro.objects import TangoCounter, TangoList, TangoMap, TangoQueue
from repro.tango.runtime import TangoRuntime


def _run_threads(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestSingleRuntimeManyThreads:
    def test_concurrent_transactional_increments(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        m.put("n", 0)
        m.get("n")
        errors = []

        def worker():
            try:
                for _ in range(10):
                    rt.run_transaction(lambda: m.put("n", m.get("n") + 1))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        _run_threads([worker] * 4)
        assert not errors
        assert m.get("n") == 40

    def test_concurrent_commutative_updates(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)
        ctr = TangoCounter(rt, oid=1)
        errors = []

        def worker():
            try:
                for _ in range(25):
                    ctr.increment()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        _run_threads([worker] * 4)
        assert not errors
        assert ctr.value() == 100

    def test_concurrent_readers_and_writers(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        stop = threading.Event()
        errors = []

        def writer():
            try:
                for i in range(50):
                    m.put(f"k{i % 10}", i)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    m.get("k3")
                    m.size()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        _run_threads([writer, reader, reader])
        assert not errors
        assert m.size() == 10


class TestManyRuntimesManyThreads:
    def test_cross_client_queue_exactly_once(self, cluster):
        producer_rt = TangoRuntime(cluster, client_id=1)
        producer = TangoQueue(producer_rt, oid=1, host_view=False)
        consumers = [
            TangoQueue(TangoRuntime(cluster, client_id=2 + i), oid=1)
            for i in range(3)
        ]
        for i in range(30):
            producer.enqueue(i)
        taken, errors = [], []
        lock = threading.Lock()

        def consume(q):
            try:
                while True:
                    item = q.dequeue()
                    if item is None:
                        return
                    with lock:
                        taken.append(item)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        _run_threads([lambda q=q: consume(q) for q in consumers])
        assert not errors
        assert sorted(taken) == list(range(30))

    def test_two_runtimes_transacting_concurrently(self, cluster):
        rt1 = TangoRuntime(cluster, client_id=1)
        rt2 = TangoRuntime(cluster, client_id=2)
        m1, m2 = TangoMap(rt1, oid=1), TangoMap(rt2, oid=1)
        m1.put("n", 0)
        m1.get("n")
        m2.get("n")
        errors = []

        def worker(rt, m):
            try:
                for _ in range(15):
                    rt.run_transaction(lambda: m.put("n", m.get("n") + 1))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        _run_threads(
            [lambda: worker(rt1, m1), lambda: worker(rt2, m2)]
        )
        assert not errors
        assert m1.get("n") == m2.get("n") == 30

    def test_concurrent_appends_dense_log(self, cluster):
        """Raw shared-log appends from many threads: unique offsets,
        no holes, all payloads durable."""
        clients = [cluster.client() for _ in range(4)]
        offsets, errors = [], []
        lock = threading.Lock()

        def worker(client, tag):
            try:
                mine = [client.append(b"%d-%d" % (tag, i)) for i in range(25)]
                with lock:
                    offsets.extend(mine)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        _run_threads(
            [lambda c=c, t=t: worker(c, t) for t, c in enumerate(clients)]
        )
        assert not errors
        assert sorted(offsets) == list(range(100))
        reader = cluster.client()
        assert all(not reader.read(o).is_junk for o in range(100))

    def test_thread_local_transactions_do_not_interfere(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        m.put("a", 0)
        m.get("a")
        barrier = threading.Barrier(2)
        outcomes = {}

        def worker(name, key):
            barrier.wait()
            rt.begin_tx()
            _ = m.get(key)
            m.put(key + "-out", name)
            outcomes[name] = rt.end_tx()

        _run_threads(
            [
                lambda: worker("t1", "a"),
                lambda: worker("t2", "a"),
            ]
        )
        # Disjoint write keys, same read key, no interleaved writes to
        # "a": both commit, each from its own thread-local context.
        assert outcomes == {"t1": True, "t2": True}


class TestStreamIteratorThreadSafety:
    """The StreamClient's iterator accessors vs a concurrent reader.

    Before the lock covered seek/peek_offset/reset/position/pending/
    known_offsets/lookahead, a reader thread advancing read_ptr could
    race an accessor mid-update: peek_offset could index past the end
    of the offsets list, and position could read a pointer that another
    thread had just moved. Every observation must be internally
    consistent — values drawn from one coherent iterator state.
    """

    def test_accessors_race_playback(self, cluster):
        from repro.streams import StreamClient

        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        for i in range(60):
            sclient.append(b"e%d" % i, (1,))
        sclient.sync(1)
        all_offsets = sclient.known_offsets(1)
        errors = []
        delivered = []
        stop = threading.Event()

        def reader():
            try:
                while True:
                    item = sclient.readnext(1)
                    if item is None:
                        return
                    delivered.append(item[0])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def observer():
            try:
                while not stop.is_set():
                    peek = sclient.peek_offset(1)
                    assert peek is None or peek in all_offsets
                    pos = sclient.position(1)
                    assert pos == -1 or pos in all_offsets
                    pending = sclient.pending(1)
                    assert 0 <= pending <= len(all_offsets)
                    assert sclient.known_offsets(1) == all_offsets
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def seeker():
            try:
                while not stop.is_set():
                    for _offset, entry in sclient.lookahead(1, 30):
                        assert not entry.is_junk
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        _run_threads([reader, observer, observer, seeker])
        assert not errors
        assert delivered == list(all_offsets)

    def test_seek_and_reset_race_readers(self, cluster):
        from repro.streams import StreamClient

        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        for i in range(40):
            sclient.append(b"e%d" % i, (1,))
        sclient.sync(1)
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    item = sclient.readnext(1)
                    if item is not None:
                        offset, entry = item
                        assert entry.payload == b"e%d" % offset
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def rewinder():
            try:
                for _ in range(200):
                    sclient.reset(1)
                    sclient.seek(1, 20)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        _run_threads([reader, reader, rewinder])
        assert not errors
        # After the last seek(1, 20), playback resumes past 20; the
        # readers may have advanced further before noticing the stop
        # flag, but a torn pointer behind the seek is impossible.
        peek = sclient.peek_offset(1)
        assert peek is None or peek > 20

    def test_concurrent_merged_players_deliver_each_entry_once(self):
        """More players than cores on one StreamClient, the interpreter
        switching threads every few instructions: the per-entry claim
        against the live iterators hands every entry to exactly one of
        them (a lost or doubled ``read_ptr`` move would show as a
        duplicate or a gap), batched rounds share their single-flight
        slot, and each entry's remembered form is handed over with its
        delivery and released once, so the byte accounting of the
        decoded slots adds up to raw entries alone."""
        import sys

        from repro.streams import StreamClient
        from repro.streams.stream import CACHE_ENTRY_OVERHEAD

        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = cluster.client()
        n = 400
        for i in range(n):
            writer.append(b"e%d" % i, (1, 2) if i % 5 == 0 else (1 + i % 2,))
        sclient = StreamClient(cluster.client())
        for sid in (1, 2):
            sclient.open_stream(sid)
        sclient.sync_many((1, 2))
        known = set(sclient.known_offsets(1)) | set(sclient.known_offsets(2))
        seeded = dict(sclient.scan(sorted(known), lambda e: (e.payload,)))
        delivered = [[] for _ in range(6)]
        parses = []
        errors = []

        def parse(entry):
            parses.append(entry.payload)
            return (entry.payload,)

        def player(mine):
            def run():
                try:
                    for off, form, sids in sclient.play((1, 2), parse=parse):
                        assert form == (b"e%d" % off,)
                        mine.append((off, sids, form))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            return run

        threads = [threading.Thread(target=player(mine)) for mine in delivered]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # A two-stream entry may be claimed one stream at a time by two
        # players racing for it; every (offset, stream) pair goes once.
        pairs = sorted(
            (off, sid) for mine in delivered for off, sids, _f in mine for sid in sids
        )
        expected = sorted(
            (off, sid) for sid in (1, 2) for off in sclient.known_offsets(sid)
        )
        assert pairs == expected
        assert sclient.corfu.reads <= n  # no offset was read twice
        # An entry claimed whole goes to one player with the seeded form;
        # only a split two-stream entry can reach a second player, who
        # may find its form already released and parse it afresh.
        handed = Counter(off for mine in delivered for off, _s, _f in mine)
        split = {off for off, count in handed.items() if count > 1}
        assert all(count <= 2 for count in handed.values())
        assert split <= set(sclient.known_offsets(1)) & set(sclient.known_offsets(2))
        assert len(parses) <= len(split)
        assert all(
            form is seeded[off]
            for mine in delivered
            for off, _s, form in mine
            if off not in split
        )
        assert sclient.resident_bytes() == sum(
            len(sclient.fetch(off).payload) + CACHE_ENTRY_OVERHEAD
            for off in sclient.cached_offsets()
        )

    def test_writers_fill_the_cache_while_players_drain_it(self):
        """Appending threads (lone appends and ``append_async`` flights,
        whose observer runs on whichever waiter leads the pipeline) insert
        into the cache that syncing, playing threads are reading: every
        entry is delivered once with its own payload, every one of them
        ends up cached as a reader would decode it, and the byte
        accounting still adds up. A player that meets a granted but
        unwritten offset fills it, so some writers lose a race and
        retry: the junk is delivered as junk and never cached as theirs."""
        import sys

        from repro.streams import StreamClient
        from repro.streams.stream import CACHE_ENTRY_OVERHEAD

        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        sclient = StreamClient(cluster.client())
        for sid in (1, 2):
            sclient.open_stream(sid)
        per_writer, writers = 60, 4
        written = [[] for _ in range(writers)]
        delivered = [[] for _ in range(3)]
        done = threading.Event()
        errors = []

        def writer(w, mine):
            def run():
                try:
                    for i in range(0, per_writer, 4):
                        sids = (1, 2) if i % 3 == 0 else (1 + w % 2,)
                        payloads = [b"w%d-%d" % (w, i + j) for j in range(4)]
                        offsets = [sclient.append(payloads[0], sids)]
                        flight = [sclient.append_async(p, sids) for p in payloads[1:]]
                        offsets += [f.result(timeout=30) for f in flight]
                        mine.extend(zip(offsets, payloads))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            return run

        def player(mine):
            def run():
                try:
                    while True:
                        finished = done.is_set()
                        sclient.sync_many((1, 2))
                        for off, entry, sids in sclient.play((1, 2)):
                            mine.append((off, entry, sids))
                        if finished:
                            return
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            return run

        writing = [threading.Thread(target=writer(w, written[w])) for w in range(writers)]
        playing = [threading.Thread(target=player(mine)) for mine in delivered]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in writing + playing:
                t.start()
            for t in writing:
                t.join(timeout=60)
            done.set()
            for t in playing:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writing + playing)
        assert not errors
        payload_at = {off: p for mine in written for off, p in mine}
        assert len(payload_at) == writers * per_writer
        pairs = sorted(
            (off, sid) for mine in delivered for off, _e, sids in mine for sid in sids
        )
        expected = sorted(
            (off, sid) for sid in (1, 2) for off in sclient.known_offsets(sid)
        )
        assert pairs == expected
        real = {
            off: entry for mine in delivered for off, entry, _s in mine if not entry.is_junk
        }
        assert set(real) == set(payload_at)
        assert all(real[off].payload == payload_at[off] for off in real)
        # Written through (or, in the instant between a write landing
        # and its observer running, read): either way the cache holds
        # what another client decodes from the log.
        cached = sclient.cached_offsets()
        assert set(cached) >= set(payload_at)
        reader = cluster.client()
        for off in cached:
            assert sclient.fetch(off) == reader.read(off)
        assert sclient.resident_bytes() == sum(
            len(sclient.fetch(off).payload) + CACHE_ENTRY_OVERHEAD for off in cached
        )


_RealEvent = threading.Event


class TestSingleFlightWithoutEagerEvents:
    """A fetch's single flight makes its event only when someone waits.

    ``threading.Event`` is swapped for a counting subclass *after* the
    test's threads are built (a ``Thread`` makes an event of its own), so
    every event counted is one the stream layer made.
    """

    N = 8

    @staticmethod
    def _counting_events(monkeypatch):
        from repro.streams import stream as stream_module

        made, waiting = [], []

        class Counting(_RealEvent):
            def __init__(self):
                super().__init__()
                made.append(self)

            def wait(self, timeout=None):
                waiting.append(self)
                return super().wait(timeout)

        monkeypatch.setattr(stream_module.threading, "Event", Counting)
        return made, waiting

    @staticmethod
    def _until(condition, seconds=10.0):
        import time

        deadline = time.monotonic() + seconds
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.001)

    @staticmethod
    def _race(threads):
        """Run *threads* to the end at a 10 µs switch interval."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

    def test_one_read_one_entry_one_event(self, cluster, monkeypatch):
        from repro.streams import StreamClient

        offset = cluster.client().append(b"cold")
        corfu = cluster.client()
        sclient = StreamClient(corfu)
        n, results, reads = self.N, [None] * self.N, []
        barrier = threading.Barrier(n)
        read = corfu.read

        def held_read(off):
            # The owner waits for everyone else to join its flight.
            reads.append(off)
            self._until(lambda: len(waiting) == n - 1)
            return read(off)

        monkeypatch.setattr(corfu, "read", held_read)

        def worker(i):
            barrier.wait()
            results[i] = sclient.fetch(offset)

        def storage_rpcs():
            nodes = set(cluster.projection.all_nodes())
            stats = corfu.net_stats()
            return sum(stats[node]["rpcs"] for node in nodes if node in stats)

        before = storage_rpcs()
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        made, waiting = self._counting_events(monkeypatch)
        self._race(threads)
        assert reads == [offset] and storage_rpcs() - before == 1
        assert all(r is results[0] for r in results)
        assert results[0].payload == b"cold"
        # One event, made by the first waiter; every waiter used it.
        assert len(made) == 1 and len(waiting) == n - 1
        assert all(event is made[0] for event in waiting)

    def test_a_declined_hole_runs_the_handler_once(self, cluster, monkeypatch):
        from repro.errors import UnwrittenError
        from repro.streams import StreamClient

        cluster.sequencer().increment()  # a hole at 0
        n, calls, raised = self.N, [], []
        barrier = threading.Barrier(n)

        def declining(offset):
            calls.append(offset)
            self._until(lambda: len(waiting) == n - 1)

        sclient = StreamClient(cluster.client(), hole_handler=declining)

        def worker():
            barrier.wait()
            try:
                sclient.fetch(0)
            except UnwrittenError as exc:
                raised.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        made, waiting = self._counting_events(monkeypatch)
        self._race(threads)
        assert calls == [0] and len(made) == 1
        assert len(raised) == n and all(exc is raised[0] for exc in raised)

    def test_a_batched_flight_wakes_its_waiters(self, cluster, monkeypatch):
        """Waiters on a ``fetch_many`` round: one shares the round's entry,
        one (on a hole the round skips) retries and owns the hole."""
        from repro.streams import StreamClient

        writer = cluster.client()
        first = writer.append(b"a")
        hole, _ = cluster.sequencer().increment()
        last = writer.append(b"b")
        corfu = cluster.client()
        sclient = StreamClient(corfu)  # the default handler fills
        release, results = _RealEvent(), {}
        read_many = corfu.read_many

        def held_read_many(offsets):
            release.wait(10)
            return read_many(offsets)

        monkeypatch.setattr(corfu, "read_many", held_read_many)

        def batch():
            results["batch"] = sclient.fetch_many([first, hole, last])

        def waiter(offset):
            results[offset] = sclient.fetch(offset)

        batcher = threading.Thread(target=batch)
        waiters = [threading.Thread(target=waiter, args=(o,)) for o in (first, hole)]
        made, waiting = self._counting_events(monkeypatch)
        batcher.start()
        self._until(lambda: hole in sclient._inflight)
        for t in waiters:
            t.start()
        self._until(lambda: len(waiting) == 2)
        assert len(waiting) == 2 and len(made) == 1  # both on the round's event
        release.set()
        for t in [batcher] + waiters:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in [batcher] + waiters)
        assert results[first].payload == b"a"
        assert results[hole].is_junk
        assert results["batch"][last].payload == b"b"
        assert results["batch"][hole].is_junk

    def test_racing_windows_and_fetches_read_each_offset_once(self, cluster):
        """Readers claiming overlapping scan rounds and lone offsets at
        once, each starting elsewhere: every offset is read from the log
        once, and every reader gets the entry written there."""
        from repro.streams import StreamClient

        writer = cluster.client()
        written = {writer.append(b"e%d" % i, (1,)): b"e%d" % i for i in range(96)}
        offsets = sorted(written)
        corfu = cluster.client()
        sclient = StreamClient(corfu)
        n, errors = 6, []
        barrier = threading.Barrier(n)

        def reader(i):
            try:
                barrier.wait()
                mine = offsets[i * 16 :] + offsets[: i * 16]
                got = sclient.scan(mine) if i % 2 else ((o, sclient.fetch(o)) for o in mine)
                for off, entry in got:
                    assert entry.payload == written[off]
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        reads = corfu.reads
        self._race([threading.Thread(target=reader, args=(i,)) for i in range(n)])
        assert not errors
        assert corfu.reads - reads == len(offsets)

    def test_an_uncontended_miss_makes_no_event(self, cluster, monkeypatch):
        from repro.streams import StreamClient

        writer = cluster.client()
        offsets = [writer.append(b"e%d" % i, (1,)) for i in range(12)]
        sclient = StreamClient(cluster.client())
        made, _waiting = self._counting_events(monkeypatch)
        assert sclient.fetch(offsets[0]).payload == b"e0"  # a lone miss
        sclient.fetch_many(offsets[1:6])  # a batched round
        sclient.open_stream(1)
        sclient.sync(1)  # the walk's misses
        assert len(list(sclient.play((1,)))) == len(offsets)  # a window's
        assert made == []
