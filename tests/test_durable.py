"""Tests for file-backed flash units and durable clusters."""

import os

import pytest

from repro.corfu.durable import DurableFlashUnit, open_durable_cluster
from repro.errors import SealedError, TrimmedError, UnwrittenError, WrittenError
from repro.objects import TangoMap
from repro.store.segment import OP_WRITE, read_flat_log
from repro.tango.runtime import TangoRuntime


class TestDurableFlashUnit:
    def test_write_survives_reopen(self, tmp_path):
        path = str(tmp_path / "unit.flash")
        unit = DurableFlashUnit("u", path)
        unit.write(5, b"persisted", epoch=0)
        unit.close()
        reopened = DurableFlashUnit("u", path)
        assert reopened.read(5, epoch=0) == b"persisted"

    def test_write_once_enforced_across_reopen(self, tmp_path):
        path = str(tmp_path / "unit.flash")
        unit = DurableFlashUnit("u", path)
        unit.write(5, b"first", epoch=0)
        unit.close()
        reopened = DurableFlashUnit("u", path)
        with pytest.raises(WrittenError):
            reopened.write(5, b"second", epoch=0)

    def test_write_many_persists_each_accepted_page_once(self, tmp_path):
        path = str(tmp_path / "unit.flash")
        unit = DurableFlashUnit("u", path)
        unit.write(1, b"theirs", epoch=0)
        batch = [(0, b"a"), (1, b"b"), (2, b"c")]
        assert unit.write_many(batch, epoch=0) == {0: "ok", 1: "written", 2: "ok"}
        # A repeated delivery is rejected in memory and adds no frame.
        assert set(unit.write_many(batch, epoch=0).values()) == {"written"}
        unit.seal(1)
        with pytest.raises(SealedError):
            unit.write_many([(3, b"late")], epoch=0)
        unit.close()
        frames = [
            (address, data)
            for op, _, address, data in read_flat_log(path)
            if op == OP_WRITE
        ]
        assert frames == [(1, b"theirs"), (0, b"a"), (2, b"c")]
        reopened = DurableFlashUnit("u", path)
        assert reopened.written_addresses() == [0, 1, 2]
        assert reopened.read(1, epoch=1) == b"theirs"

    def test_trim_survives_reopen(self, tmp_path):
        path = str(tmp_path / "unit.flash")
        unit = DurableFlashUnit("u", path)
        unit.write(5, b"x", epoch=0)
        unit.trim(5, epoch=0)
        unit.close()
        reopened = DurableFlashUnit("u", path)
        with pytest.raises(TrimmedError):
            reopened.read(5, epoch=0)

    def test_trim_prefix_survives_reopen(self, tmp_path):
        path = str(tmp_path / "unit.flash")
        unit = DurableFlashUnit("u", path)
        for addr in range(6):
            unit.write(addr, b"%d" % addr, epoch=0)
        unit.trim_prefix(4, epoch=0)
        unit.close()
        reopened = DurableFlashUnit("u", path)
        with pytest.raises(TrimmedError):
            reopened.read(3, epoch=0)
        assert reopened.read(4, epoch=0) == b"4"
        assert reopened.local_tail() == 6

    def test_seal_survives_reopen(self, tmp_path):
        path = str(tmp_path / "unit.flash")
        unit = DurableFlashUnit("u", path)
        unit.seal(3)
        unit.close()
        reopened = DurableFlashUnit("u", path)
        with pytest.raises(SealedError):
            reopened.write(0, b"x", epoch=2)

    def test_torn_tail_discarded(self, tmp_path):
        """A crash mid-write leaves a torn record; replay drops it."""
        path = str(tmp_path / "unit.flash")
        unit = DurableFlashUnit("u", path)
        unit.write(0, b"complete", epoch=0)
        unit.close()
        with open(path, "ab") as f:
            f.write(b"\x57\x00\x00")  # half a frame header
        reopened = DurableFlashUnit("u", path)
        assert reopened.read(0, epoch=0) == b"complete"
        with pytest.raises(UnwrittenError):
            reopened.read(1, epoch=0)
        # And the unit keeps working after truncating the tear.
        reopened.write(1, b"after", epoch=0)
        reopened.close()
        final = DurableFlashUnit("u", path)
        assert final.read(1, epoch=0) == b"after"

    def test_torn_tail_is_reported(self, tmp_path, caplog):
        """Crash injection: a torn tail replays with a loud warning."""
        path = str(tmp_path / "unit.flash")
        unit = DurableFlashUnit("u", path)
        unit.write(0, b"complete", epoch=0)
        unit.close()
        # Crash mid-append: a full frame header promising more body
        # bytes than were ever written.
        import struct

        with open(path, "ab") as f:
            f.write(struct.pack("<BQQI", ord("W"), 0, 1, 4096))
            f.write(b"only-part-of-the-body")
        with caplog.at_level("WARNING", logger="repro.corfu.durable"):
            reopened = DurableFlashUnit("u", path)
        torn = [
            r for r in caplog.records if "crash mid-append" in r.getMessage()
        ]
        assert len(torn) == 1
        assert "discarding" in torn[0].getMessage()
        assert "torn frame" in torn[0].getMessage()
        # The tear was discarded, not applied.
        assert reopened.read(0, epoch=0) == b"complete"
        with pytest.raises(UnwrittenError):
            reopened.read(1, epoch=0)
        reopened.close()
        # A second reopen is quiet: the tail was truncated for good.
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.corfu.durable"):
            DurableFlashUnit("u", path).close()
        assert not caplog.records

    def test_local_tail_after_reopen(self, tmp_path):
        path = str(tmp_path / "unit.flash")
        unit = DurableFlashUnit("u", path)
        unit.write(9, b"x", epoch=0)
        unit.close()
        assert DurableFlashUnit("u", path).local_tail() == 10


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

    def test_restart_without_sequencer_recovery(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        cluster = open_durable_cluster(
            data_dir, num_sets=3, replication_factor=2
        )
        cluster.client().append(b"x")
        reopened = open_durable_cluster(
            data_dir,
            num_sets=3,
            replication_factor=2,
            recover_sequencer=False,
        )
        # The slow check still sees the durable entries.
        assert reopened.client().check(fast=False) == 1
