"""End-to-end multi-process suite: real processes, real TCP, real kills.

The acceptance test for the wire deployment: a 3-node + sequencer
cluster runs as separate OS processes under the supervisor, the whole
client stack (append/read, batch paths, stream sync) works unchanged
over :class:`SocketTransport`, a SIGKILLed storage node fails over via
the standard reconfiguration protocol with appends staying exactly
once, and teardown leaves no processes behind.

Skip-marked on platforms without POSIX signals (the supervisor drives
children with SIGTERM/SIGKILL).
"""

import os
import signal
import threading

import pytest

from repro.errors import NodeDownError, TrimmedError, UnwrittenError
from repro.objects import TangoMap
from repro.proc import RemoteCluster, Supervisor, cluster_specs
from repro.streams import StreamClient
from repro.tango.runtime import TangoRuntime

pytestmark = pytest.mark.skipif(
    os.name != "posix" or not hasattr(signal, "SIGKILL"),
    reason="requires POSIX process control (SIGKILL)",
)


# -- shared happy-path deployment (module-scoped: spawn once) ---------------


@pytest.fixture(scope="module")
def fleet():
    supervisor = Supervisor(cluster_specs(1, 3)).start()
    yield supervisor
    supervisor.stop()


@pytest.fixture()
def cluster(fleet):
    cluster = RemoteCluster(
        fleet.addresses(), num_sets=1, replication_factor=3, timeout=5.0
    )
    yield cluster
    cluster.close()


def _read_payloads(client, offsets):
    return [client.read(offset).payload for offset in offsets]


class TestHappyPath:
    def test_nodes_are_separate_processes(self, fleet):
        pids = {name: fleet.ping(name)["pid"] for name in fleet.addresses()}
        assert len(pids) == 4  # 3 storage + sequencer
        assert len(set(pids.values())) == 4  # four distinct processes
        assert os.getpid() not in pids.values()  # none of them is us

    def test_append_read_over_the_wire(self, cluster):
        client = cluster.client()
        offsets = [client.append(b"wire-%d" % i, (1,)) for i in range(10)]
        assert _read_payloads(client, offsets) == [
            b"wire-%d" % i for i in range(10)
        ]

    def test_append_batch_and_read_many(self, cluster):
        client = cluster.client()
        payloads = [b"batch-%d" % i for i in range(16)]
        offsets = client.append_batch(payloads, (2,))
        assert offsets == sorted(offsets)
        outcomes = client.read_many(offsets)
        assert [outcomes[o].payload for o in offsets] == payloads
        # Batching is visible on the wire too: the chain tail served
        # the batch in read_many RPCs, not one RPC per offset.
        stats = client.net_stats()
        assert any(s["batch_rpcs"] > 0 for s in stats.values())

    def test_read_many_returns_error_instances_for_holes(self, cluster):
        client = cluster.client()
        offset = client.append(b"present", (3,))
        tail = client.check(fast=True)
        outcomes = client.read_many([offset, tail + 5])
        assert outcomes[offset].payload == b"present"
        # The hole crossed the wire as a typed error instance, exactly
        # like loopback.
        assert isinstance(outcomes[tail + 5], UnwrittenError)
        assert outcomes[tail + 5].offset == tail + 5

    def test_stream_append_and_sync(self, cluster):
        sclient = StreamClient(cluster.client())
        sclient.open_stream(7)
        appended = [sclient.append(b"s%d" % i, (7,)) for i in range(12)]
        assert sclient.sync(7) == appended[-1]
        got = []
        while True:
            item = sclient.readnext(7)
            if item is None:
                break
            offset, entry = item
            got.append(entry.payload)
        assert got == [b"s%d" % i for i in range(12)]

    def test_fill_and_typed_errors(self, cluster):
        client = cluster.client()
        tail = client.check(fast=True)
        with pytest.raises(UnwrittenError):
            client.read(tail + 50)
        # Burn an offset via the sequencer, then fill the hole.
        burned = client.append(b"tmp", ())
        client.trim(burned)
        with pytest.raises(TrimmedError):
            client.read(burned)

    def test_net_stats_cover_all_nodes(self, cluster):
        client = cluster.client()
        client.append(b"stats", (1,))
        client.check(fast=True)
        stats = client.net_stats()
        for node in ("flash-0-0", "flash-0-1", "flash-0-2", "seq-0"):
            assert stats[node]["rpcs"] > 0


class TestTangoRoundTrips:
    """Tango objects over the wire cost their necessary round trips.

    The same exact counts as ``tests/test_round_trips.py`` asserts
    in-process, on the same 2x2+1 layout, with every RPC a real TCP
    exchange with another process.
    """

    def test_put_get_and_commit_counts_over_tcp(self):
        with Supervisor(cluster_specs(2, 2)) as supervisor:
            with RemoteCluster(
                supervisor.addresses(),
                num_sets=2,
                replication_factor=2,
                timeout=5.0,
            ) as cluster:
                rt = TangoRuntime(cluster, client_id=1)
                tmap = TangoMap(rt, 1)
                tmap.put("warm", 0)
                tmap.get("warm")
                corfu = rt.streams.corfu

                def cost():
                    rpcs = sum(s["rpcs"] for s in corfu.net_stats().values())
                    return rpcs, corfu.reads

                before = cost()
                tmap.put("k", "v")
                assert tmap.get("k") == "v"
                after = cost()
                # increment, two chain writes, query; nothing read back.
                assert (after[0] - before[0], after[1] - before[1]) == (4, 0)

                before = cost()
                rt.begin_tx()
                for i in range(3):
                    tmap.get("k%d" % i)
                for i in range(3):
                    tmap.put("k%d" % i, i)
                assert rt.end_tx()
                after = cost()
                # The commit's own grant is its sync: the append alone.
                assert (after[0] - before[0], after[1] - before[1]) == (3, 0)
                assert tmap.get("k2") == 2


# -- failure drills (function-scoped deployments: they kill things) ---------


class TestStorageFailover:
    def test_sigkill_storage_node_fails_over_exactly_once(self):
        with Supervisor(cluster_specs(1, 3)) as supervisor:
            with RemoteCluster(
                supervisor.addresses(),
                num_sets=1,
                replication_factor=3,
                timeout=0.5,
            ) as cluster:
                client = cluster.client()
                payloads = [b"pre-%d" % i for i in range(10)]
                offsets = [client.append(p, (1,)) for p in payloads]

                victim = "flash-0-1"
                supervisor.kill(victim, signal.SIGKILL)
                assert not supervisor.alive(victim)
                assert victim in supervisor.down_nodes()

                # Appends keep working: the client hits the dead chain
                # node, drives eject_storage_node, and retries.
                more = [b"post-%d" % i for i in range(10)]
                offsets += [client.append(p, (1,)) for p in more]
                payloads += more

                proj = client.projection
                assert proj.epoch > 0
                assert victim not in proj.all_nodes()

                # Exactly-once: every appended payload is at exactly its
                # offset, every offset is readable, nothing duplicated.
                seen = {}
                tail = client.check(fast=True)
                for offset in range(tail):
                    try:
                        entry = client.read(offset)
                    except UnwrittenError:
                        client.fill(offset)
                        continue
                    if not entry.is_junk:
                        seen[offset] = entry.payload
                assert seen == dict(zip(offsets, payloads))

    def test_supervisor_surfaces_crash_as_node_down(self):
        with Supervisor(cluster_specs(1, 2)) as supervisor:
            observed = []
            event = threading.Event()

            def on_down(exc):
                observed.append(exc)
                event.set()

            supervisor.monitor(on_down, interval=0.05)
            supervisor.ensure_up()  # everyone healthy at first
            supervisor.kill("flash-0-0", signal.SIGKILL)
            assert event.wait(10.0)
            assert isinstance(observed[0], NodeDownError)
            assert observed[0].node == "flash-0-0"
            with pytest.raises(NodeDownError):
                supervisor.ensure_up()
            with pytest.raises(NodeDownError):
                supervisor.ping("flash-0-0")


class TestSequencerFailover:
    def test_sigkill_sequencer_fails_over_to_standby(self):
        with Supervisor(
            cluster_specs(1, 2, standby_sequencers=1)
        ) as supervisor:
            with RemoteCluster(
                supervisor.addresses(),
                num_sets=1,
                replication_factor=2,
                timeout=0.5,
            ) as cluster:
                client = cluster.client()
                before = [client.append(b"pre-%d" % i, (1,)) for i in range(5)]

                supervisor.kill("seq-0", signal.SIGKILL)

                # The next appends hit the dead sequencer, drive
                # replace_sequencer (seal, slow check, backward scan,
                # bootstrap seq-1 over the wire), and continue.
                after = [client.append(b"post-%d" % i, (1,)) for i in range(5)]

                proj = client.projection
                assert proj.sequencer == "seq-1"
                assert proj.epoch > 0
                for i, offset in enumerate(before):
                    assert client.read(offset).payload == b"pre-%d" % i
                for i, offset in enumerate(after):
                    assert client.read(offset).payload == b"post-%d" % i
                # The recovered sequencer's tail covers everything.
                assert client.check(fast=True) > max(after)


class TestTeardown:
    def test_clean_shutdown_reaps_everything(self):
        supervisor = Supervisor(cluster_specs(1, 2)).start()
        addresses = supervisor.addresses()
        assert len(addresses) == 3
        exit_codes = supervisor.stop()
        # Graceful shutdown: every child exits 0 (no SIGTERM/SIGKILL
        # escalation needed).
        assert exit_codes == {name: 0 for name in addresses}
        for name in addresses:
            assert not supervisor.alive(name)
            with pytest.raises(NodeDownError):
                supervisor.ping(name)

    def test_kill_then_stop_reports_signal_exit(self):
        supervisor = Supervisor(cluster_specs(1, 1)).start()
        supervisor.kill("flash-0-0", signal.SIGKILL)
        exit_codes = supervisor.stop()
        assert exit_codes["flash-0-0"] == -signal.SIGKILL
        assert exit_codes["seq-0"] == 0
