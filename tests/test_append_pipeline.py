"""Tests for the pipelined append path.

``CorfuClient.append_async`` returns an :class:`AppendFuture`;
whichever waiter thread becomes the pipeline leader group-commits the
queued appends: one sequencer grant and one batched chain write per
replica chain (``write_pipelined``) for each run. These
tests pin the completion-handle semantics, the exactly-once guarantee
under concurrency and network faults, and the stream-layer passthrough.
"""

import sys
import threading
import time

import pytest

from repro.corfu import CorfuCluster
from repro.corfu import client as client_module
from repro.errors import TooManyStreamsError, UnwrittenError
from repro.net import FaultyTransport
from repro.streams import StreamClient

_RealEvent = threading.Event


@pytest.fixture
def client(cluster):
    return cluster.client()


def _until(condition, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert condition()


class TestAppendAsync:
    def test_result_returns_offset_and_payload_lands(self, client):
        fut = client.append_async(b"pipelined", (1,))
        offset = fut.result()
        assert fut.done()
        assert client.read(offset).payload == b"pipelined"

    def test_flight_preserves_submission_order(self, client):
        futures = [
            client.append_async(b"entry-%d" % i, (1,)) for i in range(20)
        ]
        offsets = [fut.result() for fut in futures]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == 20
        for i, offset in enumerate(offsets):
            assert client.read(offset).payload == b"entry-%d" % i

    def test_flight_costs_one_rpc_per_hop_per_chain(self):
        """A flight shares one grant and one batched write per replica
        of each chain it stripes over; a lone append is one grant plus
        one write per replica of its chain."""
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        client = cluster.client()

        def delivered():
            return sum(s["rpcs"] for s in client.net_stats().values())

        client.append(b"lone", (1,))
        assert delivered() == 3
        futures = [client.append_async(b"f%d" % i, (1,)) for i in range(16)]
        assert [fut.result() for fut in futures] == list(range(1, 17))
        assert delivered() == 3 + 1 + 2 * 2

    def test_append_is_async_result(self, client):
        """The synchronous append commits directly and the async path
        through the pipeline; interleaving the two keeps the log dense
        and ordered."""
        offsets = [client.append(b"sync-0", (1,))]
        fut = client.append_async(b"async-1", (1,))
        offsets.append(client.append(b"sync-2", (2,)))
        offsets.append(fut.result())
        assert sorted(offsets) == list(range(3))

    def test_mixed_stream_sets_commit_in_runs(self, client):
        futures = [
            client.append_async(b"s%d" % i, (i % 3 + 1,)) for i in range(12)
        ]
        offsets = [fut.result() for fut in futures]
        assert len(set(offsets)) == 12
        for i, offset in enumerate(offsets):
            entry = client.read(offset)
            assert entry.payload == b"s%d" % i
            assert entry.stream_ids() == (i % 3 + 1,)

    def test_validation_errors_raised_at_submit(self, cluster, client):
        with pytest.raises(ValueError):
            client.append_async(b"x" * (cluster.entry_size + 1), (1,))
        with pytest.raises(TooManyStreamsError):
            client.append_async(
                b"x", tuple(range(cluster.max_streams + 1))
            )
        # Nothing was enqueued: the next append gets offset 0.
        assert client.append(b"clean", (1,)) == 0

    def test_stream_layer_passthrough(self, cluster):
        sclient = StreamClient(cluster.client())
        sclient.open_stream(7)
        fut = sclient.append_async(b"via-stream", (7,))
        offset = fut.result()
        sclient.sync(7)
        entry = sclient.fetch(offset)
        assert entry.payload == b"via-stream"

    def test_concurrent_flights_exactly_once(self, cluster):
        """Many threads racing append_async flights: every acknowledged
        payload lands at exactly the offset its future reports, and the
        log is dense (no burned offsets on the happy path)."""
        client = cluster.client()
        per_thread = 12
        acked = {}
        acked_lock = threading.Lock()

        def worker(tid: int) -> None:
            futures = [
                client.append_async(b"t%d-%d" % (tid, i), (1,))
                for i in range(per_thread)
            ]
            resolved = {fut.result(): fut.payload for fut in futures}
            with acked_lock:
                acked.update(resolved)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(acked) == 4 * per_thread
        assert sorted(acked) == list(range(4 * per_thread))
        for offset, payload in acked.items():
            assert client.read(offset).payload == payload


class TestFuturesWithoutEagerEvents:
    """A future's completion is a flag; only a follower that has to wait
    makes an event, and the leader that settles its run sets it.

    ``threading.Event`` is swapped for a counting subclass *after* any
    thread is built (a ``Thread`` makes an event of its own), so every
    event counted is one the pipeline made.
    """

    @staticmethod
    def _counting_events(monkeypatch):
        made = []

        class Counting(_RealEvent):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(client_module.threading, "Event", Counting)
        return made

    @staticmethod
    def _held(client, monkeypatch, outcome):
        """Make the append routine wait for ``release``, then run *outcome*."""
        inside, release = _RealEvent(), _RealEvent()
        append_entries = client._append_entries

        def held(payloads, stream_ids):
            inside.set()
            release.wait(10)
            return outcome(append_entries, payloads, stream_ids)

        monkeypatch.setattr(client, "_append_entries", held)
        return inside, release

    def test_an_uncontended_flight_makes_no_event(self, monkeypatch):
        client = CorfuCluster(num_sets=2, replication_factor=2).client()
        made = self._counting_events(monkeypatch)
        futures = [client.append_async(b"f%d" % i, (1,)) for i in range(16)]
        assert [fut.result() for fut in futures] == list(range(16))
        assert all(fut.done() for fut in futures)
        assert made == []

    def test_a_follower_is_woken_by_its_leader(self, client, monkeypatch):
        """With the wait slice at 30 s, only the leader's wake-up can
        return the follower within 2 s."""
        monkeypatch.setattr(client_module, "_FOLLOWER_WAIT_SLICE", 30.0)
        inside, release = self._held(
            client, monkeypatch, lambda routine, *args: routine(*args)
        )
        lead = client.append_async(b"lead", (1,))
        follow = client.append_async(b"follow", (1,))
        results = {}
        leader = threading.Thread(target=lambda: results.update(lead=lead.result()))
        follower = threading.Thread(
            target=lambda: results.update(follow=follow.result())
        )
        made = self._counting_events(monkeypatch)
        leader.start()
        assert inside.wait(10)  # the leader holds the run [lead, follow]
        follower.start()
        _until(lambda: follow._event is not None)
        release.set()
        follower.join(timeout=2)
        leader.join(timeout=10)
        assert not follower.is_alive() and not leader.is_alive()
        assert results == {"lead": 0, "follow": 1}
        assert made == [follow._event] and lead._event is None

    def test_a_failed_run_fails_every_future(self, client, monkeypatch):
        boom = RuntimeError("injected")

        def fail(*_args):
            raise boom

        inside, release = self._held(client, monkeypatch, fail)
        futures = [client.append_async(b"x%d" % i, (1,)) for i in range(4)]
        raised = {}

        def collect(i):
            try:
                futures[i].result()
            except RuntimeError as exc:
                raised[i] = exc

        threads = [threading.Thread(target=collect, args=(i,)) for i in range(4)]
        threads[0].start()
        assert inside.wait(10)  # thread 0 leads the whole run
        for t in threads[1:]:
            t.start()
        _until(lambda: all(fut._event is not None for fut in futures[1:]))
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert set(raised) == {0, 1, 2, 3}
        assert all(exc is boom for exc in raised.values())
        assert all(fut.done() for fut in futures)

    def test_lone_appends_and_flights_race(self, cluster):
        """Eight threads at a 10 µs switch interval, each alternating a
        lone append with a flight of four: every offset is handed out
        once, and reads back its own payload."""
        client = cluster.client()
        acked, failures = {}, []
        acked_lock = threading.Lock()

        def worker(tid):
            try:
                for r in range(6):
                    sids = (1 + (tid + r) % 2,)
                    if (tid + r) % 3 == 0:
                        payload = b"t%d-r%d" % (tid, r)
                        got = [(client.append(payload, sids), payload)]
                    else:
                        futures = [
                            client.append_async(b"t%d-r%d-%d" % (tid, r, i), sids)
                            for i in range(4)
                        ]
                        got = [(fut.result(), fut.payload) for fut in futures]
                    with acked_lock:
                        for offset, payload in got:
                            assert offset not in acked
                            acked[offset] = payload
            except BaseException as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
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
        assert not failures
        tail = client.check()
        assert sorted(acked) == list(range(tail))  # dense: nothing burned
        payloads = [client.read(offset).payload for offset in range(tail)]
        assert len(set(payloads)) == tail
        assert all(payloads[offset] == p for offset, p in acked.items())


class TestAppendAsyncUnderFaults:
    def test_exactly_once_under_drops_and_duplicates(self):
        """Acknowledged async appends survive lost responses (the retry
        re-drives the chain with maybe_mine) and duplicated deliveries
        (the write-once check absorbs the replay): each acknowledged
        payload appears in the log exactly once, at its reported offset."""
        transport = FaultyTransport(
            seed=7, drop_request=0.1, drop_response=0.1,
            duplicate=0.15, reorder=0.1,
        )
        cluster = CorfuCluster(
            num_sets=1, replication_factor=3, transport=transport
        )
        client = cluster.client()
        acked = {}
        for i in range(30):
            futures = [
                client.append_async(b"f%d-%d" % (i, j), (1,))
                for j in range(4)
            ]
            for fut in futures:
                acked[fut.result()] = fut.payload
        transport.calm()
        assert len(acked) == 120
        for offset, payload in acked.items():
            assert client.read(offset).payload == payload
        # Exactly once: no other live offset repeats an acked payload.
        seen = set()
        for offset in range(client.check()):
            try:
                entry = client.read(offset)
            except UnwrittenError:
                client.fill(offset)
                continue
            if entry.is_junk:
                continue
            assert entry.payload not in seen
            seen.add(entry.payload)

    def test_concurrent_flights_under_faults(self):
        transport = FaultyTransport(
            seed=19, drop_response=0.08, duplicate=0.1,
        )
        cluster = CorfuCluster(
            num_sets=1, replication_factor=3, transport=transport
        )
        client = cluster.client()
        acked = {}
        acked_lock = threading.Lock()
        failures = []

        def worker(tid: int) -> None:
            try:
                futures = [
                    client.append_async(b"w%d-%d" % (tid, i), (1,))
                    for i in range(8)
                ]
                resolved = {fut.result(): fut.payload for fut in futures}
                with acked_lock:
                    acked.update(resolved)
            except BaseException as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        transport.calm()
        assert len(acked) == 24
        payloads = set()
        for offset, payload in acked.items():
            entry = client.read(offset)
            assert entry.payload == payload
            assert payload not in payloads
            payloads.add(payload)
