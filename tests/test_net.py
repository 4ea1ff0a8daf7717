"""The transport layer: loopback semantics, fault injection, retries.

``repro.net`` mediates every client↔node call. The loopback transport
must preserve direct-call semantics exactly; the faulty transport must
inject drops, duplicates, reordering and partitions deterministically;
and the client's retry machinery must keep the log exactly-once under
all of them (burned sequencer offsets become filled holes, duplicated
chain writes bounce off the write-once check, lost responses are
retried against the same offset).
"""

import sys
import threading

import pytest

import repro.corfu.client as client_mod
from repro.corfu import CorfuCluster, reconfig
from repro.corfu.storage import FlashUnit
from repro.errors import (
    CorfuError,
    RetriesExhaustedError,
    RpcTimeout,
    UnwrittenError,
)
from repro.net import FaultyTransport, LoopbackTransport
from repro.objects import TangoMap
from repro.tango.runtime import TangoRuntime
from repro.tools import lockcheck


class _Echo:
    """A minimal RPC server for transport-level tests."""

    def __init__(self):
        self.calls = []
        self.label = "echo"

    def ping(self, value, scale=1):
        self.calls.append(value)
        return value * scale


# ---------------------------------------------------------------------------
# loopback: direct-call semantics plus counters
# ---------------------------------------------------------------------------


class TestLoopbackTransport:
    def test_proxy_forwards_calls_and_counts(self):
        net = LoopbackTransport()
        server = _Echo()
        proxy = net.proxy("client-1", "node-a", lambda: server)
        assert proxy.ping(3, scale=2) == 6
        assert server.calls == [3]
        assert net.endpoint_stats()["node-a"]["rpcs"] == 1

    def test_attribute_reach_through_is_a_hard_error(self):
        # A real wire has no server object to reach into: accessing a
        # name yields an RPC callable, and *invoking* it against a
        # non-callable server attribute fails loudly at delivery time.
        net = LoopbackTransport()
        proxy = net.proxy("client-1", "node-a", lambda: _Echo())
        rpc = proxy.label  # attribute access only names the RPC
        assert callable(rpc)
        assert net.endpoint_stats() == {}  # nothing delivered yet
        with pytest.raises(TypeError, match="non-callable"):
            rpc()

    def test_proxy_exposes_endpoint_metadata_locally(self):
        net = LoopbackTransport()
        proxy = net.proxy("client-1", "node-a", lambda: _Echo())
        assert proxy.source == "client-1"
        assert proxy.target == "node-a"
        assert net.endpoint_stats() == {}  # metadata reads are local
        with pytest.raises(AttributeError):
            proxy._resolve_anything  # private names are never RPCs

    def test_resolve_happens_at_delivery_time(self):
        # Swapping the live server object (crash/recover) must be
        # visible through an existing proxy, like a real reconnect.
        net = LoopbackTransport()
        box = {"server": _Echo()}
        proxy = net.proxy("client-1", "node-a", lambda: box["server"])
        proxy.ping(1)
        replacement = _Echo()
        box["server"] = replacement
        proxy.ping(2)
        assert replacement.calls == [2]

    def test_stats_snapshot_is_fresh_and_sorted(self):
        net = LoopbackTransport()
        for node in ("node-b", "node-a"):
            net.record_retry(node)
        snap = net.endpoint_stats()
        assert list(snap) == ["node-a", "node-b"]
        snap["node-a"]["retries"] = 99
        assert net.endpoint_stats()["node-a"]["retries"] == 1

    def test_backoff_is_a_no_op(self):
        LoopbackTransport().backoff("client-1", attempt=3)


class TestRpcStubs:
    def test_a_stub_is_built_once_per_op(self):
        net = LoopbackTransport()
        unit = FlashUnit("flash-0")
        proxy = net.proxy("client-1", "flash-0", lambda: unit)
        assert proxy.read is proxy.read
        assert proxy.read is not proxy.write
        proxy.write(0, b"x", 0)
        assert proxy.read(0, 0) == b"x"
        assert net.endpoint_stats()["flash-0"]["rpcs"] == 2

    def test_replacing_call_after_a_stub_is_cached_sees_every_call(self):
        # A tracer swaps ``call`` on the transport instance, possibly
        # after clients have already used (and cached) their stubs.
        net = LoopbackTransport()
        server = _Echo()
        proxy = net.proxy("client-1", "node-a", lambda: server)
        stub = proxy.ping
        assert stub(1) == 1
        seen = []
        call = net.call

        def traced(source, target, op, resolve, args, kwargs):
            seen.append((source, target, op, args))
            return call(source, target, op, resolve, args, kwargs)

        net.call = traced
        try:
            assert stub(2) == 2
            assert proxy.ping(3) == 3
        finally:
            del net.call
        proxy.ping(4)
        assert seen == [
            ("client-1", "node-a", "ping", (2,)),
            ("client-1", "node-a", "ping", (3,)),
        ]
        assert server.calls == [1, 2, 3, 4]
        assert net.endpoint_stats()["node-a"]["rpcs"] == 4


class TestCountersUnderThreads:
    _THREADS = 8
    _CALLS = 300

    def _race(self, work):
        """Run *work(i)* on 8 threads released together, with the
        interpreter switching threads every 10 microseconds."""
        barrier = threading.Barrier(self._THREADS)
        results = [None] * self._THREADS

        def run(i):
            barrier.wait()
            results[i] = work(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(self._THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return results

    def test_no_lost_delivery_counts(self):
        net = LoopbackTransport()
        servers = {name: _Echo() for name in ("node-a", "node-b")}

        def work(i):
            name = "node-a" if i % 2 else "node-b"
            proxy = net.proxy(f"client-{i}", name, lambda: servers[name])
            for j in range(self._CALLS):
                proxy.ping(j)

        self._race(work)
        per_node = self._CALLS * self._THREADS // 2
        stats = net.endpoint_stats()
        assert stats["node-a"]["rpcs"] == per_node
        assert stats["node-b"]["rpcs"] == per_node
        assert net.inflight_stats()["inflight"] == 0
        assert 1 <= net.inflight_stats()["max_inflight"] <= self._THREADS

    def test_first_contact_creates_one_endpoint(self):
        # Enough endpoints that a thread switch inside the
        # check-and-create window is all but certain to happen.
        net = LoopbackTransport()
        targets = [f"node-{t}" for t in range(2000)]
        seen = self._race(lambda i: [net.stats_for(t) for t in targets])
        for column in zip(*seen):
            assert len({id(stats) for stats in column}) == 1
        assert sorted(net.endpoint_stats()) == sorted(targets)


class _CountingLock:
    """Counts acquisitions of the lock it wraps. It wraps whatever lock
    object it is given, so it also counts under ``REPRO_LOCKCHECK=1``."""

    def __init__(self, inner):
        self.inner = inner
        self.acquired = 0

    def acquire(self, *args, **kwargs):
        got = self.inner.acquire(*args, **kwargs)
        self.acquired += bool(got)
        return got

    def release(self):
        self.inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()


class TestDeliveryHotPath:
    def test_max_inflight_counts_every_overlapping_delivery(self):
        # Each delivery waits inside the server until all N are in, so
        # the high-water mark must read exactly N: a lock-free gauge
        # that stopped seeing overlap would read less.
        n = 6
        net = LoopbackTransport()
        barrier = threading.Barrier(n)

        class Gate:
            def wait(self):
                return barrier.wait(timeout=30)

        gate = Gate()
        threads = [
            threading.Thread(
                target=net.proxy(f"client-{i}", "node-a", lambda: gate).wait
            )
            for i in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not barrier.broken
        assert net.inflight_stats() == {"inflight": 0, "max_inflight": n}
        assert net.endpoint_stats()["node-a"]["rpcs"] == n

    def test_a_steady_state_rpc_takes_only_its_endpoint_lock(self):
        net = LoopbackTransport()
        server = _Echo()
        proxy = net.proxy("client-1", "node-a", lambda: server)
        proxy.ping(0)  # first contact creates the endpoint and the mark
        endpoint = net.stats_for("node-a")
        endpoint._lock = counted_endpoint = _CountingLock(endpoint._lock)
        net._stats_lock = counted_map = _CountingLock(net._stats_lock)
        for i in range(50):
            assert proxy.ping(i) == i
        assert counted_endpoint.acquired == 50
        assert counted_map.acquired == 0
        assert net.endpoint_stats()["node-a"]["rpcs"] == 51
        assert counted_map.acquired == 1  # snapshots still take it

    def test_a_steady_state_append_takes_no_map_lock(self):
        # The grant resolves its sequencer through CorfuCluster.sequencer
        # and every RPC its endpoint's stats: both hit add-only maps.
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        client = cluster.client()
        for _ in range(2):  # first contact with both chains' endpoints
            client.append(b"warm", (1,))
        cluster._lock = counted_cluster = _CountingLock(cluster._lock)
        net = cluster.transport
        net._stats_lock = counted_map = _CountingLock(net._stats_lock)
        for i in range(20):
            client.append(b"x%d" % i, (1,))
        client.append_batch([b"b"] * 4, (1,))
        assert counted_cluster.acquired == 0
        assert counted_map.acquired == 0
        assert client.appends == 26


# ---------------------------------------------------------------------------
# fault injection mechanics
# ---------------------------------------------------------------------------


class TestFaultyTransportMechanics:
    def _proxy(self, net, server):
        return net.proxy("client-1", "node-a", lambda: server)

    def test_no_faults_behaves_like_loopback(self):
        net = FaultyTransport(seed=0)
        server = _Echo()
        assert self._proxy(net, server).ping(7) == 7
        assert server.calls == [7]

    def test_request_drop_never_reaches_the_server(self):
        net = FaultyTransport(seed=0, drop_request=1.0)
        server = _Echo()
        with pytest.raises(RpcTimeout):
            self._proxy(net, server).ping(1)
        assert server.calls == []
        stats = net.endpoint_stats()["node-a"]
        assert stats["drops"] == stats["timeouts"] == 1
        assert stats["rpcs"] == 0

    def test_response_drop_executes_but_times_out(self):
        net = FaultyTransport(seed=0, drop_response=1.0)
        server = _Echo()
        with pytest.raises(RpcTimeout):
            self._proxy(net, server).ping(1)
        assert server.calls == [1]  # the ambiguity: it DID execute
        assert net.endpoint_stats()["node-a"]["rpcs"] == 1

    def test_duplicate_executes_twice_returns_once(self):
        net = FaultyTransport(seed=0, duplicate=1.0)
        server = _Echo()
        assert self._proxy(net, server).ping(5) == 5
        assert server.calls == [5, 5]
        stats = net.endpoint_stats()["node-a"]
        assert stats["duplicates"] == 1 and stats["rpcs"] == 2

    def test_duplicate_swallows_the_second_outcome(self):
        # The retransmission bouncing off an idempotence check
        # (WrittenError and friends) must not surface to the caller.
        class OnceOnly:
            def __init__(self):
                self.armed = True

            def op(self):
                if self.armed:
                    self.armed = False
                    return "ok"
                raise CorfuError("already done")

        net = FaultyTransport(seed=0, duplicate=1.0)
        server = OnceOnly()
        proxy = net.proxy("c", "n", lambda: server)
        assert proxy.op() == "ok"
        assert not server.armed

    def test_reorder_defers_delivery_until_backoff(self):
        net = FaultyTransport(seed=0, reorder=1.0, max_delay=1)
        server = _Echo()
        proxy = self._proxy(net, server)
        with pytest.raises(RpcTimeout):
            proxy.ping(9)
        assert server.calls == []  # in flight, not delivered
        net.set_rates(reorder=0.0)
        net.backoff("client-1", attempt=0)  # logical time advances
        assert server.calls == [9]
        assert net.endpoint_stats()["node-a"]["reordered"] == 1

    def test_deliver_delayed_flushes_everything(self):
        net = FaultyTransport(seed=0, reorder=1.0, max_delay=1000)
        server = _Echo()
        proxy = self._proxy(net, server)
        for i in range(3):
            with pytest.raises(RpcTimeout):
                proxy.ping(i)
        assert net.deliver_delayed() == 3
        assert sorted(server.calls) == [0, 1, 2]

    def test_partition_and_heal(self):
        net = FaultyTransport(seed=0)
        server = _Echo()
        proxy = self._proxy(net, server)
        net.partition("client-1", "node-a")
        assert net.partitioned("node-a", "client-1")  # symmetric
        with pytest.raises(RpcTimeout):
            proxy.ping(1)
        assert server.calls == []
        net.heal("client-1", "node-a")
        assert proxy.ping(2) == 2
        with pytest.raises(ValueError):
            net.heal("client-1")  # one endpoint only is ambiguous

    def test_calm_silences_every_fault(self):
        net = FaultyTransport(
            seed=0, drop_request=1.0, duplicate=1.0, reorder=1.0
        )
        net.partition("a", "b")
        net.calm()
        assert net.partitions == ()
        server = _Echo()
        assert self._proxy(net, server).ping(4) == 4
        assert server.calls == [4]

    def test_set_rates_rejects_unknown_knobs(self):
        with pytest.raises(ValueError):
            FaultyTransport(seed=0).set_rates(jitter=0.5)

    def test_simulated_latency_accrues_without_sleeping(self):
        net = FaultyTransport(seed=0, latency_ms=5.0)
        proxy = self._proxy(net, _Echo())
        for _ in range(10):
            proxy.ping(0)
        assert 0 < net.simulated_latency_ms <= 50.0

    def test_same_seed_same_fault_schedule(self):
        def run(seed):
            net = FaultyTransport(
                seed=seed, drop_request=0.3, drop_response=0.2, duplicate=0.2
            )
            server = _Echo()
            proxy = net.proxy("c", "n", lambda: server)
            outcomes = []
            for i in range(40):
                try:
                    proxy.ping(i)
                    outcomes.append("ok")
                except RpcTimeout:
                    outcomes.append("timeout")
            return outcomes, server.calls, net.endpoint_stats()

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_a_seeded_schedule_replays_as_pinned(self):
        # Every fault knob at once, with backoff flushes: the RNG draw
        # order per call is part of the contract, so a change to how
        # deliveries run must leave this schedule exactly as it was.
        net = FaultyTransport(
            seed=11, drop_request=0.15, drop_response=0.15, duplicate=0.2,
            reorder=0.2, max_delay=3, latency_ms=1.0,
        )
        server = _Echo()
        proxy = net.proxy("c", "n", lambda: server)
        outcomes = []
        for i in range(30):
            try:
                proxy.ping(i)
                outcomes.append("o")
            except RpcTimeout:
                outcomes.append("t")
                net.backoff("c", 0)
        net.deliver_delayed()
        assert "".join(outcomes) == "oototottotttoottoottttttottoto"
        assert server.calls == [
            0, 1, 3, 2, 4, 4, 5, 6, 6, 7, 8, 8, 11, 12, 13, 13, 16, 16,
            17, 19, 20, 21, 22, 23, 24, 25, 27, 26, 29,
        ]
        assert net.endpoint_stats()["n"] == {
            "rpcs": 29, "retries": 0, "timeouts": 18, "duplicates": 5,
            "drops": 12, "reordered": 6, "batch_rpcs": 0, "batch_offsets": 0,
        }
        assert round(net.simulated_latency_ms, 6) == 14.546567
        assert net.inflight_stats() == {"inflight": 0, "max_inflight": 1}


class TestFaultyTransportLockOrder:
    def test_a_faulty_schedule_holds_only_the_clock_under_its_lock(self):
        # docs/CONCURRENCY.md orders FaultyTransport._lock after the
        # stats and cluster locks and before the servers' locks: the
        # fault lock must never be held across a delivery or a counter
        # bump, only across its draws and the clock's tick.
        preinstalled = lockcheck.monitor() is not None
        monitor = lockcheck.install()
        try:
            net = FaultyTransport(
                seed=5, drop_request=0.1, drop_response=0.1, duplicate=0.25,
                reorder=0.25, max_delay=3,
            )
            cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
            client = cluster.client()
            offsets = [client.append(b"p%d" % i, (1,)) for i in range(40)]
            offsets += client.append_batch([b"b%d" % i for i in range(8)], (1,))
            net.calm()
            assert client.read(offsets[-1]).payload == b"b7"
            stats = net.endpoint_stats()
        finally:
            if not preinstalled:
                lockcheck.uninstall()
        assert sum(s["duplicates"] for s in stats.values()) > 0
        assert sum(s["reordered"] for s in stats.values()) > 0
        assert sum(s["drops"] for s in stats.values()) > 0
        held_under_faulty = {
            dst.split("@")[0]
            for src, dst in monitor.edges()
            if src.startswith("FaultyTransport@faulty.py")
        }
        assert held_under_faulty <= {"LogicalClock"}
        monitor.assert_acyclic()

class TestFaultyDeliveriesEnterTheGauge:
    """Every execution a server performs is one delivery: counted once
    in ``rpcs`` and inside the in-flight gauge while it runs."""

    def _probe(self, net):
        seen = []

        class Probe:
            def touch(self):
                seen.append(net.inflight_stats()["inflight"])

        probe = Probe()
        return net.proxy("client-1", "node-a", lambda: probe), seen

    def test_duplicate_deliveries(self):
        net = FaultyTransport(seed=5, duplicate=1.0)
        proxy, seen = self._probe(net)
        for _ in range(3):
            proxy.touch()
        assert len(seen) == 6  # each call executed twice
        assert min(seen) >= 1
        stats = net.endpoint_stats()["node-a"]
        assert stats["rpcs"] == 6 and stats["duplicates"] == 3
        assert net.inflight_stats()["inflight"] == 0

    def test_reordered_deliveries(self):
        net = FaultyTransport(seed=5, reorder=1.0, max_delay=1000)
        proxy, seen = self._probe(net)
        for _ in range(3):
            with pytest.raises(RpcTimeout):
                proxy.touch()
        assert seen == []  # deferred, not executed
        assert net.endpoint_stats()["node-a"]["rpcs"] == 0
        assert net.deliver_delayed() == 3
        assert len(seen) == 3 and min(seen) >= 1
        stats = net.endpoint_stats()["node-a"]
        assert stats["rpcs"] == 3 and stats["reordered"] == 3
        assert net.inflight_stats()["inflight"] == 0


# ---------------------------------------------------------------------------
# end-to-end: the client's retry machinery over a faulty network
# ---------------------------------------------------------------------------


def _harvest(cluster, client):
    """Read the whole log, filling any leftover holes; return
    (non-junk payloads in offset order, junk offsets)."""
    tail = client.check()
    payloads, junk = [], []
    for offset in range(tail):
        try:
            entry = client.read(offset)
        except UnwrittenError:
            client.fill(offset)
            entry = client.read(offset)
        if entry.is_junk:
            junk.append(offset)
        else:
            payloads.append(entry.payload)
    return payloads, junk


class TestClientOverFaultyNetwork:
    def test_response_drops_never_duplicate_or_lose_entries(self):
        # Lost responses force retries of both increments (burning
        # offsets) and chain writes (retried at the SAME offset with
        # maybe_mine); each payload must land exactly once.
        net = FaultyTransport(seed=3, drop_request=0.1, drop_response=0.2)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        client = cluster.client()
        expected = [b"payload-%d" % i for i in range(40)]
        offsets = [client.append(p) for p in expected]
        assert len(set(offsets)) == len(offsets)
        net.calm()
        payloads, _junk = _harvest(cluster, cluster.client())
        assert payloads == expected  # exactly once, in append order

    def test_duplicated_increments_become_filled_holes(self):
        # At-least-once delivery of `increment` burns offsets: the
        # second execution's offset is never written and must be
        # absorbed by hole-filling as a junk entry — the acceptance
        # criterion for the fault model.
        net = FaultyTransport(seed=7, duplicate=0.4)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        client = cluster.client()
        expected = [b"p%d" % i for i in range(30)]
        offsets = [client.append(p) for p in expected]
        net.calm()
        tail = client.check()
        assert tail > len(expected)  # offsets were burned
        burned = sorted(set(range(tail)) - set(offsets))
        assert burned
        reader = cluster.client()
        payloads, junk = _harvest(cluster, reader)
        assert junk == burned  # every burned offset is now a junk fill
        assert payloads == expected
        assert reader.fills == len(burned)

    def test_partition_from_storage_drives_ejection(self):
        net = FaultyTransport(seed=1)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        client = cluster.client()
        client.append(b"before")
        victim = sorted(cluster.projection.all_nodes())[0]
        epoch0 = cluster.projection.epoch
        net.partition(client.name, victim)
        for i in range(6):
            client.append(b"during-%d" % i)
        assert cluster.projection.epoch > epoch0
        assert victim not in cluster.projection.all_nodes()
        net.calm()
        payloads, _ = _harvest(cluster, cluster.client())
        assert payloads == [b"before"] + [b"during-%d" % i for i in range(6)]

    def test_partition_from_sequencer_drives_failover(self):
        net = FaultyTransport(seed=1)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        client = cluster.client()
        client.append(b"one", stream_ids=(4,))
        old_seq = cluster.projection.sequencer
        net.partition(client.name, old_seq)
        client.append(b"two", stream_ids=(4,))
        assert cluster.projection.sequencer != old_seq
        # The replacement recovered tail and backpointers by scanning.
        tail, ptrs = client.query_streams((4,))
        assert tail == 2
        assert set(ptrs[4]) == {0, 1}

    def test_retries_exhausted_surfaces_as_typed_error(self, monkeypatch):
        # With the failure detector disabled, a persistent partition
        # exhausts the retry budget instead of reconfiguring — every
        # bounded-retry path must raise RetriesExhaustedError, never
        # the old sentinel values, naming its op and its last failure.
        monkeypatch.setattr(client_mod, "_TIMEOUT_FAILOVER", 10**9)
        net = FaultyTransport(seed=0)
        cluster = CorfuCluster(num_sets=1, replication_factor=2, transport=net)
        client = cluster.client()
        client.append(b"ok")
        net.partition(client.name, cluster.projection.sequencer)
        for node in cluster.projection.all_nodes():
            net.partition(client.name, node)
        ops = {
            "check": client.check,
            "query_streams": lambda: client.query_streams((1,)),
            "read": lambda: client.read(0),
            "read_many": lambda: client.read_many([0]),
            "is_written": lambda: client.is_written(0),
            "fill": lambda: client.fill(5),
            "trim": lambda: client.trim(0),
            "trim_prefix": lambda: client.trim_prefix(1),
        }
        for op, call in ops.items():
            with pytest.raises(RetriesExhaustedError) as excinfo:
                call()
            assert excinfo.value.op == op
            assert excinfo.value.attempts == client_mod._MAX_RETRIES
            assert excinfo.value.last.startswith("RpcTimeout"), op
            assert isinstance(excinfo.value, CorfuError)

    def test_chain_write_exhaustion_names_the_offset_and_cause(
        self, monkeypatch
    ):
        # The grant succeeds, then every write to the chain head times
        # out: the offset may hold the caller's bytes on part of the
        # chain, so the error must say which offset and why.
        monkeypatch.setattr(client_mod, "_TIMEOUT_FAILOVER", 10**9)
        net = FaultyTransport(seed=0)
        cluster = CorfuCluster(num_sets=1, replication_factor=2, transport=net)
        client = cluster.client()
        client.append(b"ok")
        granted = client.check()  # the offset the next grant hands out
        net.partition(client.name, cluster.projection.replica_sets[0].head)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            client.append(b"stuck")
        error = excinfo.value
        assert error.op == "append.chain_write"
        assert error.last.startswith(f"offset {granted}: RpcTimeout")
        assert f"offset {granted}" in str(error)
        assert client.check() == granted + 1  # the grant did happen

    def test_batch_chain_write_exhaustion_names_what_landed(self, monkeypatch):
        # A batch striped over two chains: the chain the client can
        # reach lands its entries in one batched write, the other
        # chain's lone entry times out until the budget runs out. The
        # entries that landed hold the caller's payloads, so the error
        # must name them — a caller that retries would duplicate them.
        monkeypatch.setattr(client_mod, "_TIMEOUT_FAILOVER", 10**9)
        net = FaultyTransport(seed=0)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        client = cluster.client()
        granted = client.check()
        net.partition(client.name, cluster.projection.replica_sets[1].head)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            client.append_batch([b"a", b"b", b"c"], (1,))
        error = excinfo.value
        stuck = next(o for o in range(granted, granted + 3) if o % 2 == 1)
        landed = [o for o in range(granted, granted + 3) if o % 2 == 0]
        assert error.op == "append.chain_write"
        assert error.last.startswith(f"offset {stuck}: RpcTimeout")
        assert error.last.endswith(f"offsets already landed: {landed}")
        net.calm()
        payloads = {o: cluster.client().read(o).payload for o in landed}
        assert sorted(payloads.values()) == [b"a", b"c"]

    def test_grant_exhaustion_names_the_cause_and_what_landed(self, monkeypatch):
        # The batch's first round lands two of three entries (a
        # hole-filler takes the middle reservation), then the client is
        # cut off from the sequencer: every later grant round times out,
        # and the error must say why and which offsets already landed.
        monkeypatch.setattr(client_mod, "_TIMEOUT_FAILOVER", 10**9)
        net = FaultyTransport(seed=0)
        cluster = CorfuCluster(num_sets=1, replication_factor=2, transport=net)
        client = cluster.client()
        grant, runs = client._grant, []

        def raced(count, stream_ids):
            run = grant(count, stream_ids)
            first, stride, _, _ = run
            runs.append(run)
            cluster.client().fill(first + stride)
            net.partition(client.name, cluster.projection.sequencer)
            return run

        monkeypatch.setattr(client, "_grant", raced)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            client.append_batch([b"a", b"b", b"c"], (1,))
        error = excinfo.value
        (first, stride, count, _), = runs
        assert error.op == "append" and count == 3
        assert error.last.startswith("RpcTimeout")
        landed = [first, first + 2 * stride]
        assert error.last.endswith(f"offsets already landed: {landed}")
        assert f"offsets already landed: {landed}" in str(error)

    def test_lost_bootstrap_replies_count_as_retries(self):
        # The replacement sequencer executes each bootstrap but the
        # first three replies are lost: the failover retries through
        # them, and each retry shows in the transport's counters like
        # any other client or reconfiguration retry.
        class LosesBootstrapReplies(FaultyTransport):
            lost = 0

            def call(self, source, target, op, resolve, args, kwargs):
                result = super().call(source, target, op, resolve, args, kwargs)
                if op == "bootstrap" and self.lost:
                    self.lost -= 1
                    raise RpcTimeout(target, op)
                return result

        net = LosesBootstrapReplies(seed=0)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        client = cluster.client()
        client.append(b"one", stream_ids=(4,))
        net.lost = 3
        reconfig.replace_sequencer(cluster)
        new_seq = cluster.projection.sequencer
        assert net.lost == 0
        assert client.net_stats()[new_seq]["retries"] == 3
        assert client.append(b"two", stream_ids=(4,)) == 1

    def test_net_counters_reach_runtime_status(self):
        net = FaultyTransport(seed=2, drop_response=0.3)
        cluster = CorfuCluster(num_sets=2, replication_factor=2, transport=net)
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        for i in range(15):
            m.put(f"k{i}", i)
        status = rt.status()
        stats = status["net"]
        assert stats  # per-endpoint dicts present
        assert any(s["timeouts"] > 0 for s in stats.values())
        assert any(s["retries"] > 0 for s in stats.values())
        assert sum(s["rpcs"] for s in stats.values()) > 15

    def test_loopback_leaves_existing_counters_unchanged(self, cluster):
        # The default transport must not perturb the counters the
        # performance model reads (an append is still exactly one
        # sequencer increment plus one chain write per replica).
        client = cluster.client()
        client.append(b"x")
        seq = cluster.sequencer(cluster.projection.sequencer)
        assert seq.increments == 1
        stats = client.net_stats()
        assert stats[cluster.projection.sequencer]["rpcs"] == 1
        assert all(s["timeouts"] == 0 for s in stats.values())
        assert all(s["retries"] == 0 for s in stats.values())
