"""Tests for the batched read path and its concurrency fixes.

Covers the full stack: ``FlashUnit.read_many`` / ``ChainReplicator``
batched tail reads, ``CorfuClient.read_many`` grouping + partial
results, ``append_batch`` single-grant reservations, the stream layer's
single-flight fetch, batched sync/scan/playback prefetch, counter
thread-safety, and cache eviction on trim.
"""

import threading

import pytest

from repro.corfu.entry import LogEntry
from repro.errors import TrimmedError, UnwrittenError
from repro.streams import StreamClient


@pytest.fixture
def client(cluster):
    return cluster.client()


def _storage_rpcs(client, cluster) -> int:
    """Total delivered RPCs across the storage nodes."""
    stats = client.net_stats()
    return sum(
        stats[n]["rpcs"]
        for n in cluster.projection.all_nodes()
        if n in stats
    )


class TestReadMany:
    def test_mixed_outcomes_are_data(self, cluster, client):
        """Holes and trimmed offsets come back as error instances, not
        raises — per-offset conditions never fail the batch."""
        client.append(b"zero")  # 0
        cluster.sequencer().increment()  # hole at 1
        client.append(b"two")  # 2
        client.append(b"three")  # 3
        client.trim(3)
        outcomes = client.read_many([0, 1, 2, 3])
        assert outcomes[0].payload == b"zero"
        assert isinstance(outcomes[1], UnwrittenError)
        assert outcomes[2].payload == b"two"
        assert isinstance(outcomes[3], TrimmedError)

    def test_empty_batch(self, client):
        assert client.read_many([]) == {}

    def test_duplicate_offsets_collapse(self, client):
        client.append(b"a")
        outcomes = client.read_many([0, 0, 0])
        assert list(outcomes) == [0]
        assert outcomes[0].payload == b"a"

    def test_matches_single_reads(self, client):
        offsets = [client.append(b"e%d" % i) for i in range(9)]
        outcomes = client.read_many(offsets)
        for off in offsets:
            assert outcomes[off].payload == client.read(off).payload

    def test_one_rpc_per_chain(self, cluster, client):
        """Offsets grouped by replica set: each chain's tail sees one
        read_many RPC, however many offsets it owns."""
        offsets = [client.append(b"e%d" % i) for i in range(12)]
        before = _storage_rpcs(client, cluster)
        client.read_many(offsets)
        delta = _storage_rpcs(client, cluster) - before
        # 3 chains, 12 fully replicated entries: 3 tail RPCs total.
        assert delta == len(cluster.projection.replica_sets) == 3

    def test_counters(self, cluster, client):
        offsets = [client.append(b"e%d" % i) for i in range(6)]
        cluster.sequencer().increment()  # hole at 6
        reads0 = client.reads
        client.read_many(offsets + [6])
        # reads counts entries actually served; the hole is not a read.
        assert client.reads - reads0 == 6
        assert client.batched_reads == len(cluster.projection.replica_sets)
        assert client.batched_read_offsets == 7

    def test_net_stats_expose_batch_counters(self, cluster, client):
        offsets = [client.append(b"e%d" % i) for i in range(6)]
        client.read_many(offsets)
        stats = client.net_stats()
        tails = [rs.tail for rs in cluster.projection.replica_sets]
        assert sum(stats[t]["batch_rpcs"] for t in tails) == 3
        assert sum(stats[t]["batch_offsets"] for t in tails) == 6

    def test_read_repair_through_batch(self, cluster, client):
        """An in-flight write (head written, tail not) is completed by
        the batched read, same as the single-offset path."""
        client.append(b"committed")  # 0
        rset, address = cluster.projection.map_offset(0)
        # Simulate an in-flight write at offset 3 (same chain as 0 in a
        # 3-chain cluster): write the head replica only.
        for _ in range(3):
            cluster.sequencer().increment()
        raw = LogEntry(headers=(), payload=b"inflight").encode(
            3, cluster.k, cluster.max_streams
        )
        rset3, address3 = cluster.projection.map_offset(3)
        cluster.storage(rset3.head).write(
            address3, raw, cluster.projection.epoch
        )
        outcomes = client.read_many([0, 3])
        assert outcomes[3].payload == b"inflight"
        # Repair is durable: the tail now holds the entry.
        assert (
            cluster.storage(rset3.tail).read(
                address3, cluster.projection.epoch
            )
            == raw
        )


class TestAppendBatch:
    def test_contiguous_offsets_one_grant(self, cluster, client):
        seq = cluster.sequencer()
        inc0, issued0 = seq.increments, seq.offsets_issued
        offsets = client.append_batch([b"a", b"b", b"c"], (1,))
        assert offsets == [0, 1, 2]
        assert seq.increments - inc0 == 1
        assert seq.offsets_issued - issued0 == 3
        assert client.appends == 3

    def test_empty_batch(self, client):
        assert client.append_batch([], (1,)) == []

    def test_stream_walk_sees_batched_entries(self, cluster, client):
        """Batch backpointers chain through batch predecessors: a cold
        sync discovers exactly the same linked list as sequential
        appends would have produced."""
        client.append(b"pre", (1,))
        client.append_batch([b"b%d" % i for i in range(6)], (1,))
        client.append(b"post", (1,))
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        sclient.sync(1)
        assert sclient.known_offsets(1) == tuple(range(8))
        payloads = []
        while True:
            nxt = sclient.readnext(1)
            if nxt is None:
                break
            payloads.append(nxt[1].payload)
        assert payloads == [b"pre"] + [b"b%d" % i for i in range(6)] + [b"post"]

    def test_multi_stream_batch(self, cluster, client):
        client.append_batch([b"x", b"y"], (1, 2))
        sclient = StreamClient(cluster.client())
        for sid in (1, 2):
            sclient.open_stream(sid)
            sclient.sync(sid)
            assert sclient.known_offsets(sid) == (0, 1)


class TestSingleFlightFetch:
    def test_concurrent_misses_issue_one_rpc(self, cluster):
        """N threads racing a cold fetch of one offset must produce
        exactly one storage read; everyone shares the result."""
        corfu = cluster.client()
        sclient = StreamClient(corfu)
        offset = corfu.append(b"shared")
        n = 8
        barrier = threading.Barrier(n)
        results = [None] * n
        errors = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = sclient.fetch(offset)
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        reads0 = corfu.reads
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert corfu.reads - reads0 == 1
        assert all(r is results[0] for r in results)
        assert results[0].payload == b"shared"

    def test_hole_handler_runs_once_under_race(self, cluster):
        """Concurrent fetches of a hole trigger exactly one fill."""
        corfu = cluster.client()
        cluster.sequencer().increment()  # hole at 0
        calls = []
        lock = threading.Lock()

        def handler(offset):
            with lock:
                calls.append(offset)
            corfu.fill(offset)

        sclient = StreamClient(corfu, hole_handler=handler)
        n = 6
        barrier = threading.Barrier(n)
        results = [None] * n
        errors = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = sclient.fetch(0)
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert calls == [0]
        assert all(r.is_junk for r in results)

    def test_failed_fetch_propagates_to_waiters(self, cluster):
        """If the owner's fetch surfaces a hole (handler declines to
        fill), every waiter sees the same UnwrittenError."""
        corfu = cluster.client()
        cluster.sequencer().increment()  # hole at 0
        sclient = StreamClient(corfu, hole_handler=lambda off: None)
        n = 4
        barrier = threading.Barrier(n)
        outcomes = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                sclient.fetch(0)
            except UnwrittenError as exc:
                with lock:
                    outcomes.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcomes) == n


class TestCounterThreadSafety:
    def test_append_counter_exact_under_threads(self, cluster):
        corfu = cluster.client()
        n_threads, per_thread = 6, 10

        def worker(i):
            for j in range(per_thread):
                corfu.append(b"t%d-%d" % (i, j))

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert corfu.appends == n_threads * per_thread

    def test_read_counter_exact_under_threads(self, cluster):
        corfu = cluster.client()
        offsets = [corfu.append(b"e%d" % i) for i in range(30)]
        corfu_reader = cluster.client()

        def worker(chunk):
            for off in chunk:
                corfu_reader.read(off)

        threads = [
            threading.Thread(target=worker, args=(offsets[i::3],))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert corfu_reader.reads == len(offsets)


class TestCacheTrimEviction:
    def test_trim_evicts_single_offset(self, cluster):
        corfu = cluster.client()
        sclient = StreamClient(corfu)
        offsets = [corfu.append(b"e%d" % i) for i in range(4)]
        for off in offsets:
            sclient.fetch(off)
        assert sclient.cache_size == 4
        corfu.trim(2)
        assert 2 not in sclient.cached_offsets()
        assert sclient.cache_size == 3
        # A re-fetch observes the trim (junk), not the stale payload.
        assert sclient.fetch(2).is_junk

    def test_trim_prefix_evicts_below(self, cluster):
        corfu = cluster.client()
        sclient = StreamClient(corfu)
        for i in range(6):
            corfu.append(b"e%d" % i)
        for off in range(6):
            sclient.fetch(off)
        corfu.trim_prefix(4)
        assert sclient.cached_offsets() == (4, 5)

    def test_trim_by_other_client_handle_does_not_evict(self, cluster):
        """Eviction keys off the subscribed client: a different client's
        trim is invisible until the cache misses naturally (documented
        limitation — GC runs through the owning runtime's client)."""
        corfu = cluster.client()
        sclient = StreamClient(corfu)
        corfu.append(b"a")
        sclient.fetch(0)
        other = cluster.client()
        other.trim(0)
        assert sclient.cached_offsets() == (0,)


class TestBatchedSync:
    def test_sync_delivers_each_streams_entries(self, cluster):
        writer = cluster.client()
        for i in range(40):
            writer.append(b"e%d" % i, (1,) if i % 3 else (2,))
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        sclient.sync(1)
        assert sclient.known_offsets(1) == tuple(i for i in range(40) if i % 3)
        for off in sclient.known_offsets(1):
            assert sclient.fetch(off).payload == b"e%d" % off

    def test_sync_with_holes(self, cluster):
        """A hole the backpointer walk meets is resolved per-offset with
        the hole handler and left out of the stream."""
        writer = cluster.client()
        for i in range(10):
            writer.append(b"e%d" % i, (1,))
        cluster.sequencer().increment()  # hole at 10
        for i in range(10, 20):
            writer.append(b"e%d" % i, (1,))
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        sclient.sync(1)
        assert sclient.known_offsets(1) == tuple(
            o for o in range(21) if o != 10
        )

    def test_fetch_many_handles_holes_and_trims(self, cluster):
        corfu = cluster.client()
        corfu.append(b"zero", (1,))
        cluster.sequencer().increment()  # hole at 1
        corfu.append(b"two", (1,))
        corfu.trim(0)
        sclient = StreamClient(corfu)
        entries = sclient.fetch_many([0, 1, 2])
        assert entries[0].is_junk  # trimmed -> junk
        assert entries[1].is_junk  # hole -> filled by the handler
        assert entries[2].payload == b"two"
        assert corfu.fills == 1
