"""Tests for reconfiguration: seal-and-advance, failover, recovery."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corfu import CorfuCluster, reconfig
from repro.corfu.durable import open_durable_cluster
from repro.corfu.entry import encode_append
from repro.errors import SealedError, TrimmedError
from tests import frozen_recovery_scan as frozen


class TestSeal:
    def test_seal_cluster_fences_old_epoch(self, cluster):
        client = cluster.client()
        client.append(b"x")
        old = cluster.projection
        reconfig.seal_cluster(cluster, old, old.epoch + 1)
        unit = cluster.storage(old.replica_sets[0].head)
        with pytest.raises(SealedError):
            unit.write(99, b"stale", epoch=old.epoch)

    def test_seal_tolerates_dead_nodes(self, cluster):
        old = cluster.projection
        cluster.crash_storage(old.replica_sets[0].head)
        reconfig.seal_cluster(cluster, old, old.epoch + 1)  # must not raise


class TestEjectStorageNode:
    def test_eject_installs_new_projection(self, cluster):
        victim = cluster.projection.replica_sets[0].head
        new = reconfig.eject_storage_node(cluster, victim)
        assert new.epoch == 1
        assert victim not in new.all_nodes()
        assert cluster.projection.epoch == 1

    def test_eject_is_idempotent(self, cluster):
        victim = cluster.projection.replica_sets[0].head
        reconfig.eject_storage_node(cluster, victim)
        again = reconfig.eject_storage_node(cluster, victim)
        assert again.epoch == 1  # no extra epoch burned

    def test_concurrent_ejections_converge(self, cluster):
        """Two clients ejecting different nodes both make progress."""
        v1 = cluster.projection.replica_sets[0].head
        v2 = cluster.projection.replica_sets[1].head
        reconfig.eject_storage_node(cluster, v1)
        new = reconfig.eject_storage_node(cluster, v2)
        assert v1 not in new.all_nodes()
        assert v2 not in new.all_nodes()


class TestSlowCheck:
    def test_empty_log(self, cluster):
        assert reconfig.slow_check_tail(cluster, cluster.projection) == 0

    def test_matches_sequencer(self, cluster):
        client = cluster.client()
        for i in range(11):
            client.append(b"e%d" % i)
        assert reconfig.slow_check_tail(cluster, cluster.projection) == 11

    def test_with_one_dead_replica(self, cluster):
        client = cluster.client()
        for i in range(6):
            client.append(b"e%d" % i)
        cluster.storage(cluster.projection.replica_sets[0].head).crash()
        assert reconfig.slow_check_tail(cluster, cluster.projection) == 6


class TestSequencerFailover:
    def test_failover_recovers_tail(self, cluster):
        client = cluster.client()
        for i in range(8):
            client.append(b"e%d" % i)
        cluster.crash_sequencer()
        new = reconfig.replace_sequencer(cluster)
        assert new.sequencer != "seq-0"
        tail, _ = cluster.sequencer(new.sequencer).query(epoch=new.epoch)
        assert tail == 8

    def test_failover_recovers_backpointers(self, cluster):
        client = cluster.client()
        for i in range(12):
            client.append(b"e%d" % i, stream_ids=(i % 3,))
        expected = {}
        seq = cluster.sequencer()
        for sid in range(3):
            expected[sid] = seq.query(stream_ids=(sid,))[1][sid]
        cluster.crash_sequencer()
        new = reconfig.replace_sequencer(cluster)
        recovered = cluster.sequencer(new.sequencer)
        for sid in range(3):
            got = recovered.query(stream_ids=(sid,), epoch=new.epoch)[1][sid]
            assert tuple(got) == tuple(expected[sid])

    def test_failover_skips_holes(self, cluster):
        client = cluster.client()
        client.append(b"a", stream_ids=(1,))
        cluster.sequencer().increment(stream_ids=(1,))  # hole at 1
        client.append(b"b", stream_ids=(1,))  # offset 2
        cluster.crash_sequencer()
        new = reconfig.replace_sequencer(cluster)
        recovered = cluster.sequencer(new.sequencer)
        _, streams = recovered.query(stream_ids=(1,), epoch=new.epoch)
        # The hole at 1 contributes nothing; entries 2 and 0 survive.
        assert tuple(streams[1]) == (2, 0)

    def test_appends_work_after_failover(self, cluster):
        client = cluster.client()
        client.append(b"before", stream_ids=(1,))
        cluster.crash_sequencer()
        offset = client.append(b"after", stream_ids=(1,))
        assert offset == 1
        entry = client.read(1)
        assert entry.header_for(1).previous_offset() == 0

    def test_stale_clients_forced_to_new_sequencer(self, cluster):
        """Paper: "Any client attempting to write to a storage node
        after obtaining an offset from the old sequencer will receive an
        error message, forcing it to update its view"."""
        c1, c2 = cluster.client(), cluster.client()
        c1.append(b"x")
        cluster.crash_sequencer()
        c1.append(b"drives-failover")
        # c2 still holds epoch-0 projection; its append must succeed via
        # refresh rather than talking to the dead sequencer.
        offset = c2.append(b"from-stale-client")
        assert c2.read(offset).payload == b"from-stale-client"

    def test_failover_with_trimmed_prefix(self, cluster):
        client = cluster.client()
        for i in range(9):
            client.append(b"e%d" % i, stream_ids=(1,))
        client.trim_prefix(6)
        cluster.crash_sequencer()
        new = reconfig.replace_sequencer(cluster)
        tail, streams = cluster.sequencer(new.sequencer).query(
            stream_ids=(1,), epoch=new.epoch
        )
        assert tail == 9
        assert tuple(streams[1]) == (8, 7, 6)


class TestTrimDuringReconfig:
    def test_trim_with_stale_projection_refreshes_and_succeeds(self, cluster):
        """A trim racing a reconfiguration must not leak SealedError to
        the application (the GC driver has no projection to refresh)."""
        from repro.errors import TrimmedError

        client = cluster.client()
        offsets = [client.append(b"e%d" % i) for i in range(6)]
        # Reconfigure behind the client's back: its projection is stale.
        reconfig.replace_sequencer(cluster)
        client.trim(offsets[0])
        with pytest.raises(TrimmedError):
            client.read(offsets[0])
        # trim_prefix takes the same retry path.
        reconfig.eject_storage_node(
            cluster, sorted(cluster.projection.all_nodes())[0]
        )
        client.trim_prefix(4)
        with pytest.raises(TrimmedError):
            client.read(3)
        assert client.read(5).payload == b"e5"

    def test_trim_races_a_live_reconfiguration_thread(self, cluster):
        import threading

        client = cluster.client()
        for i in range(30):
            client.append(b"e%d" % i)
        errors = []
        started = threading.Barrier(2)

        def reconfigure():
            try:
                started.wait()
                for _ in range(5):
                    reconfig.replace_sequencer(cluster)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def trimmer():
            try:
                started.wait()
                for offset in range(25):
                    client.trim(offset)
                client.trim_prefix(25)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=reconfigure),
            threading.Thread(target=trimmer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cluster.client().read(29).payload == b"e29"


def _storage_rpcs(cluster) -> int:
    """Delivered RPCs to storage nodes, trimmed and unwritten reads included."""
    nodes = set(cluster.projection.all_nodes())
    stats = cluster.transport.endpoint_stats()
    return sum(s["rpcs"] for name, s in stats.items() if name in nodes)


#: Storage RPCs a failover of the 9x2 layout pays however long the log
#: is: a seal and a local tail for each of the 18 nodes, one trim-mark
#: probe per set, and the opening rounds of the doubling schedule that
#: ask a set fewer than 64 addresses (1 + 2 + 4 + 8 offsets, then six
#: rounds over all nine sets).
FAILOVER_FIXED_RPCS = 18 + 18 + 9 + (1 + 2 + 4 + 8 + 6 * 9)


class TestRecoveryCost:
    """Recovery reads the live log in batches and stops at the trim mark."""

    @staticmethod
    def _reopen_rpcs(data_dir, trimmed: int):
        cluster = open_durable_cluster(
            str(data_dir), num_sets=2, replication_factor=2, sync=False
        )
        client = cluster.client()
        for _ in range(trimmed):
            client.append(b"old", stream_ids=(1,))
        client.trim_prefix(trimmed)
        for i in range(5):
            client.append(b"live-%d" % i, stream_ids=(1 + i % 2,))
        for name in cluster.projection.all_nodes():
            cluster.storage(name).close()
        reopened = open_durable_cluster(
            str(data_dir), num_sets=2, replication_factor=2, sync=False
        )
        cost = _storage_rpcs(reopened)
        tail, streams = reopened.sequencer().query((1, 2))
        for name in reopened.projection.all_nodes():
            reopened.storage(name).close()
        t = trimmed
        assert tail == t + 5
        assert streams == {1: (t + 4, t + 2, t), 2: (t + 3, t + 1)}
        return cost

    def test_reopen_cost_does_not_grow_with_the_trimmed_prefix(self, tmp_path):
        assert self._reopen_rpcs(tmp_path / "short", 600) == self._reopen_rpcs(
            tmp_path / "long", 9600
        )

    def test_failover_reads_the_log_in_batches(self, big_cluster):
        entries = 1600
        client = big_cluster.client()
        for i in range(entries):
            client.append(b"p%d" % i, stream_ids=(i % 8,))
        big_cluster.crash_sequencer()
        before = _storage_rpcs(big_cluster)
        reconfig.replace_sequencer(big_cluster)
        replicas = len(big_cluster.projection.replica_sets[0])
        assert _storage_rpcs(big_cluster) - before <= (
            math.ceil(entries / reconfig._SCAN_BATCH) * replicas
            + FAILOVER_FIXED_RPCS
        )


def _run_plan(cluster, plan, crash_tail):
    """Build a log from *plan*: appends, holes, junk, trims, checkpoints.

    A sharded log's stripes advance independently, so a trim may reach
    offsets a lagging shard has yet to issue; an op that is then granted
    a trimmed offset is simply dropped from the log.
    """
    client = cluster.client()
    for op, arg in plan:
        try:
            _run_op(cluster, client, op, arg)
        except TrimmedError:
            pass
    if crash_tail is not None:
        sets = cluster.projection.replica_sets
        rset = sets[crash_tail % len(sets)]
        cluster.crash_storage(rset.tail)


def _run_op(cluster, client, op, arg):
    proj = cluster.projection
    shards = proj.sequencer_shards
    if op == "append":
        client.append(b"a", stream_ids=arg)
    elif op in ("hole", "junk", "in-flight"):
        seq = cluster.sequencer(shards[arg % len(shards)])
        offset, backpointers = seq.increment((arg,), epoch=proj.epoch)
        if op == "junk":
            client.fill(offset)
        elif op == "in-flight":
            raw, _ = encode_append(offset, (arg,), backpointers, b"f", cluster.k)
            rset, address = proj.map_offset(offset)
            cluster.storage(rset.head).write(address, raw, proj.epoch)
    elif op == "trim":
        tail = client.check()
        if tail:
            client.trim(arg % tail)
    elif op == "prefix":
        client.trim_prefix(arg * client.check() // 8)
    elif op == "checkpoint" and len(shards) == 1:
        reconfig.checkpoint_sequencer_state(cluster)


_streams = st.integers(min_value=0, max_value=5)
_plan_ops = st.one_of(
    st.tuples(
        st.just("append"),
        st.lists(_streams, max_size=3, unique=True).map(tuple),
    ),
    st.tuples(st.sampled_from(["hole", "junk", "in-flight"]), _streams),
    st.tuples(st.just("trim"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("prefix"), st.integers(min_value=0, max_value=8)),
)


@st.composite
def _plans(draw):
    plan = draw(st.lists(_plan_ops, max_size=50))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        plan.insert(draw(st.integers(0, len(plan))), ("checkpoint", None))
    return plan


class TestScanMatchesFrozenScanners:
    """The batched scanner returns what the per-offset scanners returned."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_sets=st.integers(min_value=1, max_value=3),
        seq_shards=st.sampled_from([1, 1, 2, 3, 4]),
        k=st.sampled_from([1, 2, 4]),
        plan=_plans(),
        crash_tail=st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
    )
    def test_same_map(self, num_sets, seq_shards, k, plan, crash_tail):
        cluster = CorfuCluster(
            num_sets=num_sets, replication_factor=2, k=k, seq_shards=seq_shards
        )
        _run_plan(cluster, plan, crash_tail)
        proj = cluster.projection
        tail = reconfig.slow_check_tail(cluster, proj)
        for shard in range(seq_shards):
            got = reconfig.rebuild_stream_tails(
                cluster, proj, tail, k, proj.epoch,
                shard_index=shard, num_shards=seq_shards,
            )
            if seq_shards == 1:
                want = frozen.rebuild_stream_tails(cluster, proj, tail, k, proj.epoch)
            else:
                want = frozen.rebuild_shard_stream_tails(
                    cluster, proj, tail, k, proj.epoch, shard, seq_shards
                )
            assert got == want
