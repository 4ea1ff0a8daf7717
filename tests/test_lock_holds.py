"""Lock holds per operation, counted (docs/CONCURRENCY.md lists them).

Every lock a ``TangoMap`` put or get can take on the in-process 2×2
layout is replaced by a counting proxy, and one operation of each shape
is counted: a put outside a transaction, an idle get, a get that plays
one entry its own runtime wrote, a get that plays one entry the other
runtime wrote and a get that plays a window of two of them. A change
that adds a hold to these paths shows up here and has to update the
documented numbers with it.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.corfu import CorfuCluster
from repro.objects import TangoMap
from repro.tango.runtime import TangoRuntime


class _CountingLock:
    """A lock (or RLock) that counts its acquisitions under *label*."""

    def __init__(self, lock, label: str, counts: Counter) -> None:
        self._lock, self._label, self._counts = lock, label, counts

    def acquire(self, *args, **kwargs):
        acquired = self._lock.acquire(*args, **kwargs)
        if acquired:
            self._counts[self._label] += 1
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def _wrap(counts: Counter, label: str, owner, attr: str = "_lock") -> None:
    setattr(owner, attr, _CountingLock(getattr(owner, attr), label, counts))


@pytest.fixture
def counted():
    """Two runtimes sharing map 1, warmed up, every reachable lock counted."""
    cluster = CorfuCluster(num_sets=2, replication_factor=2)
    a, b = TangoRuntime(cluster, client_id=1), TangoRuntime(cluster, client_id=2)
    ma, mb = TangoMap(a, 1), TangoMap(b, 1)
    ma.put("k", 0)
    mb.put("k", 1)
    ma.get("k")
    mb.get("k")
    counts: Counter = Counter()
    proj = cluster.projection
    for name in proj.all_nodes():
        _wrap(counts, "FlashUnit._lock", cluster.storage(name))
    for name in proj.sequencer_shards:
        _wrap(counts, "Sequencer._lock", cluster.sequencer(name))
    transport = cluster.transport
    for stats in transport._stats.values():
        _wrap(counts, "EndpointStats._lock", stats)
    _wrap(counts, "Transport._stats_lock", transport, "_stats_lock")
    _wrap(counts, "CorfuCluster._lock", cluster)
    for rt in (a, b):
        _wrap(counts, "TangoRuntime._play_lock", rt, "_play_lock")
        _wrap(counts, "StreamClient._lock", rt.streams)
        _wrap(counts, "StreamClient._cache_lock", rt.streams, "_cache_lock")
        _wrap(counts, "CorfuClient._counter_lock", rt.streams.corfu, "_counter_lock")
    return counts, ma, mb


def _holds(counts: Counter, op) -> dict:
    counts.clear()
    op()
    return dict(counts)


#: An idle get: the query RPC (its endpoint's counter and the shard) and
#: one iterator-lock hold each for the sync and the empty playback.
IDLE_GET = {
    "TangoRuntime._play_lock": 1,
    "EndpointStats._lock": 1,
    "Sequencer._lock": 1,
    "StreamClient._lock": 2,
}

#: A get of one's own put: the entry is collected, delivered and its
#: decoded form given up in the playback's one hold.
OWN_GET = {**IDLE_GET, "StreamClient._cache_lock": 1}

#: A get of the other runtime's put: a miss, claimed in the playback's
#: one cache hold and read (the RPC) with no stream lock held; one more
#: cache hold caches it, and a second ``_lock`` hold delivers it.
REMOTE_GET = {
    "TangoRuntime._play_lock": 1,
    "EndpointStats._lock": 2,
    "Sequencer._lock": 1,
    "FlashUnit._lock": 1,
    "CorfuClient._counter_lock": 1,
    "StreamClient._lock": 3,
    "StreamClient._cache_lock": 2,
}

#: A get of two puts of the other runtime: one window, whose two misses
#: are claimed together and read with one ``read_many`` per chain (the
#: entries sit on the two chains), then delivered one ``_lock`` hold each.
REMOTE_WINDOW_GET = {
    "TangoRuntime._play_lock": 1,
    "EndpointStats._lock": 3,
    "Sequencer._lock": 1,
    "FlashUnit._lock": 2,
    "CorfuClient._counter_lock": 2,
    "StreamClient._lock": 4,
    "StreamClient._cache_lock": 2,
}

#: A put outside a transaction: the grant, the head and tail writes,
#: the client's counters and the write-through insert.
PUT = {
    "EndpointStats._lock": 3,
    "Sequencer._lock": 1,
    "FlashUnit._lock": 2,
    "CorfuClient._counter_lock": 1,
    "StreamClient._cache_lock": 1,
}


def test_a_put_takes_eight_holds(counted):
    counts, ma, _mb = counted
    assert _holds(counts, lambda: ma.put("k", 2)) == PUT
    assert sum(PUT.values()) == 8


def test_an_idle_get_takes_five_holds(counted):
    counts, ma, _mb = counted
    assert _holds(counts, lambda: ma.get("k")) == IDLE_GET
    assert sum(IDLE_GET.values()) == 5


def test_a_get_of_ones_own_put_takes_six_holds(counted):
    counts, ma, _mb = counted
    ma.put("k", 3)
    assert _holds(counts, lambda: ma.get("k")) == OWN_GET
    assert sum(OWN_GET.values()) == 6


def test_a_get_of_a_remote_put_takes_eleven_holds(counted):
    counts, ma, mb = counted
    mb.put("k", 4)
    assert _holds(counts, lambda: ma.get("k")) == REMOTE_GET
    assert sum(REMOTE_GET.values()) == 11


def test_a_get_of_a_window_of_two_remote_puts_takes_fifteen_holds(counted):
    counts, ma, mb = counted
    mb.put("k", 5)
    mb.put("j", 6)
    assert _holds(counts, lambda: ma.get("k")) == REMOTE_WINDOW_GET
    assert sum(REMOTE_WINDOW_GET.values()) == 15
