"""Tests for the CORFU client library (append/read/check/trim/fill)."""

import pytest

from repro.corfu import CorfuCluster
from repro.errors import (
    RpcTimeout,
    TooManyStreamsError,
    TrimmedError,
    UnwrittenError,
)
from repro.net import LoopbackTransport


@pytest.fixture
def client(cluster):
    return cluster.client()


class TestAppendRead:
    def test_append_returns_sequential_offsets(self, client):
        offsets = [client.append(b"entry-%d" % i) for i in range(5)]
        assert offsets == list(range(5))

    def test_read_round_trips_payload(self, client):
        offset = client.append(b"hello log")
        entry = client.read(offset)
        assert entry.payload == b"hello log"
        assert not entry.is_junk

    def test_appends_stripe_across_chains(self, cluster, client):
        for i in range(6):
            client.append(b"e%d" % i)
        # 3 chains, 6 entries: each chain holds 2 local addresses.
        proj = cluster.projection
        for rset in proj.replica_sets:
            head = cluster.storage(rset.head)
            assert head.local_tail() == 2

    def test_stream_headers_written(self, client):
        client.append(b"a", stream_ids=(5,))
        offset = client.append(b"b", stream_ids=(5,))
        entry = client.read(offset)
        header = entry.header_for(5)
        assert header is not None
        assert header.previous_offset() == 0

    def test_multiappend_single_position(self, client):
        """A multiappend occupies one position in the global order."""
        offset = client.append(b"tx", stream_ids=(1, 2, 3))
        entry = client.read(offset)
        assert entry.stream_ids() == (1, 2, 3)
        assert client.check() == offset + 1

    def test_too_many_streams_rejected(self, cluster, client):
        with pytest.raises(TooManyStreamsError):
            client.append(b"x", stream_ids=tuple(range(cluster.max_streams + 1)))

    def test_oversized_payload_rejected(self, cluster, client):
        with pytest.raises(ValueError):
            client.append(b"x" * (cluster.entry_size + 1))

    @pytest.mark.parametrize("stream_ids", [(2**31,), (-1,), (5, 5), (1, 7, 1)])
    @pytest.mark.parametrize("call", ["append", "append_batch", "append_async"])
    def test_bad_stream_ids_take_no_offset(self, stream_ids, call):
        """An id outside 31 bits or a repeated id is refused before any
        RPC: no offset is granted, so none is burned into a hole that
        readers must fill."""
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        client = cluster.client()
        client.append(b"a", (5,))
        tail = client.check()

        def sequencer_rpcs():
            return client.net_stats()[cluster.projection.sequencer]["rpcs"]

        before = sequencer_rpcs()
        with pytest.raises(ValueError):
            if call == "append_batch":
                client.append_batch([b"b", b"c"], stream_ids)
            else:
                getattr(client, call)(b"b", stream_ids)
        assert sequencer_rpcs() == before
        assert client.check() == tail
        for offset in range(tail):
            client.read(offset)  # no hole
        assert client.append(b"next", (5,)) == tail

    def test_read_hole(self, cluster, client):
        # Reserve an offset without writing it (simulated crash).
        seq = cluster.sequencer()
        seq.increment()
        client.append(b"after-hole")  # offset 1
        with pytest.raises(UnwrittenError):
            client.read(0)


class TestCheck:
    def test_fast_check_empty(self, client):
        assert client.check() == 0

    def test_fast_check_advances(self, client):
        client.append(b"x")
        client.append(b"y")
        assert client.check() == 2

    def test_slow_check_matches_fast(self, client):
        for i in range(7):
            client.append(b"e%d" % i)
        assert client.check(fast=False) == client.check(fast=True)

    def test_slow_check_survives_sequencer_crash(self, cluster, client):
        for i in range(5):
            client.append(b"e%d" % i)
        cluster.crash_sequencer()
        assert client.check(fast=False) == 5

    def test_linearizable_check_sees_completed_appends(self, cluster):
        """A check by one client sees another client's appends."""
        c1, c2 = cluster.client(), cluster.client()
        c1.append(b"from-c1")
        assert c2.check() == 1


class TestFill:
    def test_fill_patches_hole(self, cluster, client):
        cluster.sequencer().increment()  # hole at 0
        client.fill(0)
        assert client.read(0).is_junk

    def test_fill_loses_to_slow_writer(self, cluster, client):
        """If the original writer completes first, fill is a no-op."""
        client.append(b"real-data")
        client.fill(0)
        assert client.read(0).payload == b"real-data"

    def test_fill_races_are_safe(self, cluster):
        cluster.sequencer().increment()
        c1, c2 = cluster.client(), cluster.client()
        c1.fill(0)
        c2.fill(0)  # double-fill must not error
        assert c1.read(0).is_junk


class TestTrim:
    def test_trim_single_offset(self, client):
        offset = client.append(b"x")
        client.trim(offset)
        with pytest.raises(TrimmedError):
            client.read(offset)

    def test_trim_prefix(self, client):
        for i in range(9):
            client.append(b"e%d" % i)
        client.trim_prefix(6)
        for offset in range(6):
            with pytest.raises(TrimmedError):
                client.read(offset)
        assert client.read(6).payload == b"e6"

    def test_trim_prefix_preserves_tail(self, client):
        for i in range(9):
            client.append(b"e%d" % i)
        client.trim_prefix(6)
        assert client.check(fast=False) == 9


class TestFaultTolerance:
    def test_append_survives_storage_failure(self, cluster, client):
        """Losing one replica of a chain is transparent to appends."""
        client.append(b"before")
        victim = cluster.projection.replica_sets[0].head
        cluster.crash_storage(victim)
        for i in range(6):
            client.append(b"after-%d" % i)
        assert cluster.projection.epoch == 1
        assert victim not in cluster.projection.all_nodes()

    def test_read_survives_storage_failure(self, cluster, client):
        offsets = [client.append(b"e%d" % i) for i in range(6)]
        victim = cluster.projection.replica_sets[0].tail
        cluster.crash_storage(victim)
        for offset in offsets:
            assert client.read(offset).payload == b"e%d" % offset

    def test_append_survives_sequencer_failure(self, cluster, client):
        client.append(b"before")
        cluster.crash_sequencer()
        offset = client.append(b"after")
        assert offset == 1
        assert client.read(1).payload == b"after"

    def test_two_clients_after_reconfiguration(self, cluster):
        """A client with a stale projection transparently refreshes.

        Its first reserved offset may be abandoned mid-append (a stale
        epoch fails the chain write), leaving a hole any client may
        fill — but the append itself completes at some later offset.
        """
        c1, c2 = cluster.client(), cluster.client()
        c1.append(b"x")
        victim = cluster.projection.replica_sets[1].head
        cluster.crash_storage(victim)
        c1.append(b"y")  # c1 drives reconfiguration
        offset = c2.append(b"z")  # c2 held the old projection
        assert offset >= 2
        assert c2.read(offset).payload == b"z"
        # Any abandoned reservations below are fillable holes.
        for maybe_hole in range(offset):
            if not c1.is_written(maybe_hole):
                c1.fill(maybe_hole)
                assert c1.read(maybe_hole).is_junk

    def test_batch_absorbs_hole_filler_beating_a_lost_head_write(self):
        """A batched head write times out undelivered and a hole-filler
        junk-fills one of its offsets before the re-drive. That payload
        lost a genuine race: it moves to a fresh offset, and the caller
        sees three appends, not a ``WrittenError`` it would answer by
        re-appending the entries that did land."""

        class FillThenLoseHeadWrite(LoopbackTransport):
            armed = True

            def call(self, source, target, op, resolve, args, kwargs):
                covers_1 = (op == "write" and args[0] == 1) or (
                    op == "write_many" and any(a == 1 for a, _ in args[0])
                )
                if self.armed and target == head and covers_1:
                    self.armed = False
                    filler.fill(1)
                    raise RpcTimeout(target, op)
                return super().call(source, target, op, resolve, args, kwargs)

        cluster = CorfuCluster(
            num_sets=1, replication_factor=2, transport=FillThenLoseHeadWrite()
        )
        head = cluster.projection.replica_sets[0].head
        client, filler = cluster.client(), cluster.client()
        offsets = client.append_batch([b"a", b"b", b"c"], (1,))
        assert len(set(offsets)) == 3
        assert [client.read(o).payload for o in offsets] == [b"a", b"b", b"c"]
        live = [
            client.read(o).payload
            for o in range(client.check())
            if not client.read(o).is_junk
        ]
        assert sorted(live) == [b"a", b"b", b"c"]

    def test_max_payload_property(self, cluster, client):
        assert client.max_payload > 0
        assert client.max_streams == cluster.max_streams
