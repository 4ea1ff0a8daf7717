"""Tests for durable storage nodes and durable clusters."""

import os
import struct

import pytest

from repro.corfu.durable import open_durable_cluster
from repro.errors import SealedError, TrimmedError, UnwrittenError
from repro.objects import TangoMap
from repro.store import open_node_unit
from repro.tango.runtime import TangoRuntime


def node_unit(tmp_path):
    return open_node_unit(str(tmp_path), "u", segment_bytes=256)


def active_segment(tmp_path):
    """The one segment file of a store that never rolled."""
    store = tmp_path / "u.store"
    (name,) = [n for n in os.listdir(store) if n.endswith(".seg")]
    return store / name


class TestDurableUnitReopen:
    """A durable node's unit rebuilds its state from disk on reopen
    (writes, write-once, sparse trims and ``write_many`` are covered in
    ``test_store.py::TestSegmentedFlashUnit``)."""

    def test_trim_prefix_survives_reopen(self, tmp_path):
        unit = node_unit(tmp_path)
        for addr in range(6):
            unit.write(addr, b"%d" % addr, epoch=0)
        unit.trim_prefix(4, epoch=0)
        unit.close()
        reopened = node_unit(tmp_path)
        with pytest.raises(TrimmedError):
            reopened.read(3, epoch=0)
        assert reopened.read(4, epoch=0) == b"4"
        assert reopened.local_tail() == 6
        reopened.close()

    def test_seal_survives_reopen(self, tmp_path):
        unit = node_unit(tmp_path)
        unit.seal(3)
        unit.close()
        reopened = node_unit(tmp_path)
        with pytest.raises(SealedError):
            reopened.write(0, b"x", epoch=2)
        reopened.close()

    def test_torn_tail_discarded(self, tmp_path):
        """A crash mid-write leaves a torn frame; replay drops it."""
        unit = node_unit(tmp_path)
        unit.write(0, b"complete", epoch=0)
        unit.close()
        with open(active_segment(tmp_path), "ab") as f:
            f.write(b"\x57\x00\x00")  # half a frame header
        reopened = node_unit(tmp_path)
        assert reopened.read(0, epoch=0) == b"complete"
        with pytest.raises(UnwrittenError):
            reopened.read(1, epoch=0)
        # And the unit keeps working after truncating the tear.
        reopened.write(1, b"after", epoch=0)
        reopened.close()
        final = node_unit(tmp_path)
        assert final.read(1, epoch=0) == b"after"
        final.close()

    def test_torn_tail_is_reported(self, tmp_path, caplog):
        """Crash injection: a torn tail replays with a loud warning."""
        unit = node_unit(tmp_path)
        unit.write(0, b"complete", epoch=0)
        unit.close()
        # Crash mid-append: a full frame header promising more body
        # bytes than were ever written.
        with open(active_segment(tmp_path), "ab") as f:
            f.write(struct.pack("<BQQI", ord("W"), 0, 1, 4096))
            f.write(b"only-part-of-the-body")
        with caplog.at_level("WARNING", logger="repro.store.segment"):
            reopened = node_unit(tmp_path)
        torn = [r for r in caplog.records if "torn frame" in r.getMessage()]
        assert len(torn) == 1
        assert "discarding" in torn[0].getMessage()
        # The tear was discarded, not applied.
        assert reopened.read(0, epoch=0) == b"complete"
        with pytest.raises(UnwrittenError):
            reopened.read(1, epoch=0)
        reopened.close()
        # A second reopen is quiet: the tail was truncated for good.
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.store.segment"):
            node_unit(tmp_path).close()
        assert not caplog.records

    def test_local_tail_after_reopen(self, tmp_path):
        unit = node_unit(tmp_path)
        unit.write(9, b"x", epoch=0)
        unit.close()
        reopened = node_unit(tmp_path)
        assert reopened.local_tail() == 10
        reopened.close()


class TestDurableCluster:
    def test_tango_state_survives_process_restart(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        cluster = open_durable_cluster(
            data_dir, num_sets=3, replication_factor=2
        )
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        for i in range(10):
            m.put(f"k{i}", i)
        assert m.get("k9") == 9
        # "Restart": a brand-new cluster object over the same files.
        reopened = open_durable_cluster(
            data_dir, num_sets=3, replication_factor=2
        )
        rt2 = TangoRuntime(reopened, client_id=2)
        recovered = TangoMap(rt2, oid=1)
        assert recovered.size() == 10
        assert recovered.get("k5") == 5

    def test_appends_continue_after_restart(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        cluster = open_durable_cluster(
            data_dir, num_sets=3, replication_factor=2
        )
        client = cluster.client()
        for i in range(7):
            client.append(b"pre-%d" % i, stream_ids=(1,))
        reopened = open_durable_cluster(
            data_dir, num_sets=3, replication_factor=2
        )
        client2 = reopened.client()
        offset = client2.append(b"post", stream_ids=(1,))
        assert offset == 7  # the recovered sequencer knows the tail
        entry = client2.read(offset)
        assert entry.header_for(1).previous_offset() == 6

    def test_sharded_appends_continue_after_restart(self, tmp_path):
        """Every shard of a sharded sequencer is rebuilt from its stripe."""
        data_dir = str(tmp_path / "cluster")
        kwargs = dict(num_sets=3, replication_factor=2, seq_shards=2)
        client = open_durable_cluster(data_dir, **kwargs).client()
        last = {sid: client.append(b"pre", stream_ids=(sid,)) for sid in (0, 1, 2, 3)}
        reopened = open_durable_cluster(data_dir, **kwargs).client()
        for sid in (0, 1, 2, 3):
            offset = reopened.append(b"post", stream_ids=(sid,))
            assert offset > max(last.values())
            assert reopened.read(offset).header_for(sid).previous_offset() == last[sid]

    def test_restart_slow_check_sees_durable_entries(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        cluster = open_durable_cluster(
            data_dir, num_sets=3, replication_factor=2
        )
        cluster.client().append(b"x")
        reopened = open_durable_cluster(
            data_dir, num_sets=3, replication_factor=2
        )
        # The slow check sees the durable entries.
        assert reopened.client().check(fast=False) == 1
