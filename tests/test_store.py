"""Tests for repro.store: segments, compaction, migration, admin plane."""

import os
import struct

import pytest

from repro.corfu import CorfuCluster
from repro.corfu.durable import open_durable_cluster
from repro.errors import SealedError, TrimmedError, UnwrittenError, WrittenError
from repro.store import (
    CompactionPolicy,
    Compactor,
    SegmentedFlashUnit,
    SegmentStore,
)
from repro.store.segment import (
    FRAME,
    OP_SEAL,
    OP_TRIM,
    OP_TRIM_PREFIX,
    OP_WRITE,
    pack_frame,
    read_flat_log,
)
from tests.frozen_flat_log import FlatLogWriter


def small_store(tmp_path, segment_bytes=256, name="store"):
    return SegmentStore(str(tmp_path / name), segment_bytes=segment_bytes)


class TestSegmentStore:
    def test_frames_survive_reopen(self, tmp_path):
        store = small_store(tmp_path)
        store.append_frame(OP_WRITE, 0, 1, b"one")
        store.append_frame(OP_WRITE, 0, 2, b"two")
        store.close()
        reopened = small_store(tmp_path)
        frames = list(reopened.replay())
        assert frames == [(OP_WRITE, 0, 1, b"one"), (OP_WRITE, 0, 2, b"two")]
        reopened.close()

    def test_rolls_and_seals_at_segment_size(self, tmp_path):
        store = small_store(tmp_path, segment_bytes=128)
        for addr in range(20):
            store.append_frame(OP_WRITE, 0, addr, b"x" * 16)
        usage = store.usage(lambda addr: False)
        assert usage["segments"] > 1
        # At most one segment (the active one) may be unsealed.
        assert usage["sealed_segments"] >= usage["segments"] - 1
        store.close()

    def test_replay_order_preserved_across_rolls(self, tmp_path):
        store = small_store(tmp_path, segment_bytes=128)
        for addr in range(30):
            store.append_frame(OP_WRITE, 0, addr, b"p" * 8)
        store.close()
        reopened = small_store(tmp_path, segment_bytes=128)
        addrs = [address for _op, _e, address, _d in reopened.replay()]
        assert addrs == list(range(30))
        reopened.close()

    def test_torn_active_tail_truncated(self, tmp_path, caplog):
        store = small_store(tmp_path)
        store.append_frame(OP_WRITE, 0, 7, b"whole")
        store.close()
        seg = [
            p
            for p in os.listdir(store.directory)
            if p.startswith("seg-") and p.endswith(".seg")
        ]
        assert len(seg) == 1
        with open(os.path.join(store.directory, seg[0]), "ab") as f:
            f.write(b"\x57\x01\x02")  # half a frame header
        with caplog.at_level("WARNING", logger="repro.store.segment"):
            reopened = small_store(tmp_path)
        assert any("torn" in r.message for r in caplog.records)
        assert list(reopened.replay()) == [(OP_WRITE, 0, 7, b"whole")]
        # The tear was truncated: appends keep the file parseable.
        reopened.append_frame(OP_WRITE, 0, 8, b"after")
        reopened.close()
        final = small_store(tmp_path)
        assert [a for _o, _e, a, _d in final.replay()] == [7, 8]
        final.close()

    def test_sealed_footer_crc_detects_corruption(self, tmp_path, caplog):
        store = small_store(tmp_path, segment_bytes=64)
        for addr in range(6):
            store.append_frame(OP_WRITE, 0, addr, b"d" * 12)
        store.close()
        sealed = store.sealed_segments()[0]
        # Flip one payload byte inside the sealed segment body.
        with open(sealed.path, "r+b") as f:
            f.seek(40)
            byte = f.read(1)
            f.seek(40)
            f.write(bytes([byte[0] ^ 0xFF]))
        with caplog.at_level("WARNING", logger="repro.store.segment"):
            reopened = small_store(tmp_path, segment_bytes=64)
        assert any("footer mismatch" in r.message for r in caplog.records)
        reopened.close()

    def test_crashed_tmp_file_removed(self, tmp_path):
        store = small_store(tmp_path)
        store.append_frame(OP_WRITE, 0, 1, b"x")
        store.close()
        tmp = os.path.join(store.directory, "seg-0000000000000099-00000001.seg.tmp")
        with open(tmp, "wb") as f:
            f.write(b"partial compaction output")
        reopened = small_store(tmp_path)
        assert not os.path.exists(tmp)
        reopened.close()

    def test_winner_selection_drops_stale_inputs(self, tmp_path):
        """A crash after rename but before input deletion self-repairs."""
        store = small_store(tmp_path, segment_bytes=64)
        for addr in range(8):
            store.append_frame(OP_WRITE, 0, addr, b"v" * 12)
        store.seal_active()
        targets = store.sealed_segments()[:2]
        stale_paths = [t.path for t in targets]
        # Simulate the crash: copy inputs aside, rewrite, restore inputs.
        saved = {p: open(p, "rb").read() for p in stale_paths}
        store.rewrite_segments(
            targets, keep=lambda addr: addr % 2 == 0, preamble=[]
        )
        store.close()
        for path, raw in saved.items():
            with open(path, "wb") as f:
                f.write(raw)
        reopened = small_store(tmp_path, segment_bytes=64)
        # The resurrected originals are recognized as superseded and gone.
        assert not any(os.path.exists(p) for p in stale_paths)
        replayed = {a for op, _e, a, _d in reopened.replay() if op == OP_WRITE}
        assert {0, 2, 4, 6}.issubset(replayed)
        assert 1 not in replayed and 3 not in replayed
        reopened.close()

    def test_rewrite_preserves_preamble_state(self, tmp_path):
        store = small_store(tmp_path, segment_bytes=64)
        for addr in range(6):
            store.append_frame(OP_WRITE, 3, addr, b"q" * 12)
        store.seal_active()
        targets = store.sealed_segments()
        preamble = [(OP_SEAL, 3, 0, b""), (OP_TRIM_PREFIX, 3, 4, b"")]
        store.rewrite_segments(targets, keep=lambda a: a >= 4, preamble=preamble)
        store.close()
        reopened = small_store(tmp_path, segment_bytes=64)
        frames = list(reopened.replay())
        assert frames[0] == (OP_SEAL, 3, 0, b"")
        assert frames[1] == (OP_TRIM_PREFIX, 3, 4, b"")
        assert {a for op, _e, a, _d in frames if op == OP_WRITE} <= {4, 5}
        reopened.close()


class TestCompactionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(min_garbage_ratio=0.0)
        with pytest.raises(ValueError):
            CompactionPolicy(min_dead_bytes=0)
        with pytest.raises(ValueError):
            CompactionPolicy(max_batch_segments=0)

    def test_fully_dead_neighbors_are_absorbed(self, tmp_path):
        """Tiny fully-dead segments merge into an adjacent eligible run.

        A rewrite output decays to preamble-plus-dead-frames as the trim
        horizon advances; alone it never clears ``min_dead_bytes``, so
        it must ride along with a neighbor or files accrete forever.
        """
        unit = SegmentedFlashUnit(
            "u",
            str(tmp_path / "u.store"),
            segment_bytes=512,
            policy=CompactionPolicy(min_garbage_ratio=0.3, min_dead_bytes=200),
        )
        # Segment 1: two small writes (~74 dead bytes once trimmed —
        # below the byte floor, so never eligible by itself).
        unit.write(0, b"a" * 16, epoch=0)
        unit.write(1, b"b" * 16, epoch=0)
        unit.store.seal_active()
        # Segment 2: bulk writes, mostly trimmed (clearly eligible).
        for addr in range(2, 8):
            unit.write(addr, b"c" * 48, epoch=0)
        unit.store.seal_active()
        unit.trim_prefix(7, epoch=0)  # kills 0..6; address 7 stays live
        stats = unit.compact()
        assert stats["segments_compacted"] == 2  # both, merged as one run
        assert stats["segments_written"] == 1
        # One compacted output + the active segment holding the trim.
        assert unit.store.file_count() == 2
        assert unit.read(7, epoch=0) == b"c" * 48
        # A preamble-only survivor alone never re-triggers (no churn).
        assert unit.compact()["segments_compacted"] == 0
        unit.close()

    def test_fully_dead_segment_alone_does_not_trigger(self, tmp_path):
        unit = SegmentedFlashUnit(
            "u",
            str(tmp_path / "u.store"),
            segment_bytes=128,
            policy=CompactionPolicy(min_garbage_ratio=0.3, min_dead_bytes=200),
        )
        unit.write(0, b"a" * 16, epoch=0)
        unit.write(1, b"b" * 16, epoch=0)
        unit.store.seal_active()
        unit.trim_prefix(2, epoch=0)  # fully dead, but only ~74 bytes
        assert unit.compact()["segments_compacted"] == 0
        unit.close()


class TestSegmentedFlashUnit:
    def unit(self, tmp_path, **kwargs):
        kwargs.setdefault("segment_bytes", 256)
        return SegmentedFlashUnit("u", str(tmp_path / "u.store"), **kwargs)

    def test_mutations_survive_reopen(self, tmp_path):
        unit = self.unit(tmp_path)
        unit.write(5, b"persisted", epoch=0)
        unit.write(6, b"doomed", epoch=0)
        unit.trim(6, epoch=0)
        unit.close()
        reopened = self.unit(tmp_path)
        assert reopened.read(5, epoch=0) == b"persisted"
        with pytest.raises(TrimmedError):
            reopened.read(6, epoch=0)
        with pytest.raises(WrittenError):
            reopened.write(5, b"again", epoch=0)
        reopened.close()

    def test_write_many_persists_each_accepted_page_once(self, tmp_path):
        unit = self.unit(tmp_path)
        unit.write(0, b"gone", epoch=0)
        unit.trim_prefix(1, epoch=0)
        unit.write(2, b"theirs", epoch=0)
        batch = [(0, b"a"), (1, b"b"), (2, b"c"), (3, b"d" * 300), (4, b"e")]
        assert unit.write_many(batch, epoch=0) == {
            0: "trimmed", 1: "ok", 2: "written", 3: "ok", 4: "ok",
        }
        # A repeated delivery is rejected in memory and adds no frame.
        assert "ok" not in unit.write_many(batch, epoch=0).values()
        unit.seal(1)
        with pytest.raises(SealedError):
            unit.write_many([(5, b"late")], epoch=0)
        unit.close()
        on_disk = small_store(tmp_path, name="u.store")
        frames = [
            (address, data)
            for op, _, address, data in on_disk.replay()
            if op == OP_WRITE
        ]
        on_disk.close()
        # The 300-byte page rolled the 256-byte segment mid-batch.
        assert frames == [
            (0, b"gone"), (2, b"theirs"), (1, b"b"), (3, b"d" * 300), (4, b"e"),
        ]
        reopened = self.unit(tmp_path)
        assert reopened.written_addresses() == [1, 2, 3, 4]
        assert reopened.read(2, epoch=1) == b"theirs"
        reopened.close()

    def test_compaction_reclaims_trimmed_prefix(self, tmp_path):
        unit = self.unit(
            tmp_path,
            policy=CompactionPolicy(min_garbage_ratio=0.3, min_dead_bytes=64),
        )
        for addr in range(40):
            unit.write(addr, b"b" * 32, epoch=0)
        unit.trim_prefix(36, epoch=0)
        unit.store.seal_active()
        before = unit.store_status()
        stats = unit.compact()
        after = unit.store_status()
        assert stats["segments_compacted"] > 0
        assert stats["bytes_reclaimed"] > 0
        assert after["disk_bytes"] < before["disk_bytes"]
        assert after["garbage_ratio"] < before["garbage_ratio"]
        # Live data still readable, trimmed data still trimmed.
        assert unit.read(38, epoch=0) == b"b" * 32
        with pytest.raises(TrimmedError):
            unit.read(3, epoch=0)
        unit.close()
        # And the compacted state round-trips through recovery.
        reopened = self.unit(tmp_path)
        assert reopened.read(38, epoch=0) == b"b" * 32
        with pytest.raises(TrimmedError):
            reopened.read(3, epoch=0)
        reopened.close()

    def test_compaction_preserves_seal_epoch(self, tmp_path):
        unit = self.unit(
            tmp_path,
            policy=CompactionPolicy(min_garbage_ratio=0.3, min_dead_bytes=64),
        )
        for addr in range(20):
            unit.write(addr, b"s" * 32, epoch=0)
        unit.seal(7)
        unit.trim_prefix(18, epoch=7)
        unit.store.seal_active()
        unit.compact()
        unit.close()
        reopened = self.unit(tmp_path)
        assert reopened.epoch == 7
        reopened.close()

    def test_compaction_noop_below_thresholds(self, tmp_path):
        unit = self.unit(tmp_path)
        for addr in range(10):
            unit.write(addr, b"n" * 16, epoch=0)
        unit.store.seal_active()
        stats = unit.compact()  # nothing trimmed: nothing eligible
        assert stats["segments_compacted"] == 0
        assert unit.compactor.counters()["noop_runs"] == 1
        unit.close()

    def test_background_compaction_thread(self, tmp_path):
        unit = self.unit(
            tmp_path,
            policy=CompactionPolicy(min_garbage_ratio=0.3, min_dead_bytes=64),
        )
        for addr in range(40):
            unit.write(addr, b"t" * 32, epoch=0)
        unit.trim_prefix(36, epoch=0)
        unit.store.seal_active()
        unit.start_compaction(interval=0.01)
        deadline = 200
        while unit.compactor.counters()["runs"] == 0 and deadline:
            import time

            time.sleep(0.01)
            deadline -= 1
        unit.stop_compaction()
        assert unit.compactor.counters()["runs"] > 0
        unit.close()

    def test_migrates_flat_file(self, tmp_path):
        flat = str(tmp_path / "legacy.flash")
        with FlatLogWriter(flat) as legacy:
            for addr in range(12):
                legacy.write(addr, b"m%d" % addr)
            legacy.trim(2)
            legacy.seal(1)
        unit = SegmentedFlashUnit(
            "u", str(tmp_path / "u.store"), migrate_flat=flat
        )
        # Identical replayed contents...
        for addr in range(12):
            if addr == 2:
                with pytest.raises(TrimmedError):
                    unit.read(addr, epoch=1)
            else:
                assert unit.read(addr, epoch=1) == b"m%d" % addr
        assert unit.epoch == 1
        # ...and the migration retired the flat file, never to repeat.
        assert not os.path.exists(flat)
        assert os.path.exists(flat + ".migrated")
        unit.close()

    def test_torn_flat_file_migrates_its_valid_prefix(self, tmp_path, caplog):
        flat = str(tmp_path / "legacy.flash")
        with FlatLogWriter(flat) as legacy:
            legacy.write(0, b"whole")
            legacy.write(1, b"also whole")
        with open(flat, "ab") as f:  # crash mid-append: half a frame
            f.write(struct.pack("<BQQI", ord("W"), 0, 2, 64) + b"part")
        with caplog.at_level("WARNING", logger="repro.store.segment"):
            unit = SegmentedFlashUnit(
                "u", str(tmp_path / "u.store"), migrate_flat=flat
            )
        assert any("torn frame" in r.message for r in caplog.records)
        assert unit.read(0, epoch=0) == b"whole"
        assert unit.read(1, epoch=0) == b"also whole"
        with pytest.raises(UnwrittenError):
            unit.read(2, epoch=0)
        assert os.path.exists(flat + ".migrated")
        unit.close()
        # The store holds exactly the valid prefix.
        reopened = SegmentedFlashUnit("u", str(tmp_path / "u.store"))
        assert reopened.written_addresses() == [0, 1]
        reopened.close()

    def test_store_status_shape(self, tmp_path):
        unit = self.unit(tmp_path)
        unit.write(0, b"s", epoch=0)
        status = unit.store_status()
        assert status["kind"] == "segmented"
        assert status["segments"] >= 1
        assert status["pages"] == 1
        assert "garbage_ratio" in status and "compaction" in status
        unit.close()


class TestFlatFormatCompatibility:
    def test_flat_log_reader_matches_frozen_writer(self, tmp_path):
        """The old flat format stays readable with identical contents."""
        flat = str(tmp_path / "unit.flash")
        with FlatLogWriter(flat) as writer:
            writer.write(0, b"alpha")
            writer.write(1, b"beta")
            writer.trim(0)
            writer.trim_prefix(1, epoch=2)
            writer.seal(3)
        frames = read_flat_log(flat)
        assert frames == writer.frames == [
            (OP_WRITE, 0, 0, b"alpha"),
            (OP_WRITE, 0, 1, b"beta"),
            (OP_TRIM, 0, 0, b""),
            (OP_TRIM_PREFIX, 2, 1, b""),
            (OP_SEAL, 3, 0, b""),
        ]

    def test_unknown_op_stops_flat_parse(self, tmp_path, caplog):
        flat = str(tmp_path / "unit.flash")
        with open(flat, "wb") as f:
            f.write(pack_frame(OP_WRITE, 0, 1, b"ok"))
            f.write(struct.pack("<BQQI", 0x7A, 0, 0, 0))  # bogus op 'z'
        with caplog.at_level("WARNING", logger="repro.store.segment"):
            frames = read_flat_log(flat)
        assert frames == [(OP_WRITE, 0, 1, b"ok")]
        assert any("unknown frame op" in r.message for r in caplog.records)


class TestDurableClusterIntegration:
    def test_segmented_is_default_and_survives_restart(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        cluster = open_durable_cluster(
            data_dir, num_sets=2, replication_factor=2
        )
        client = cluster.client()
        for i in range(9):
            client.append(b"entry-%d" % i, stream_ids=(1,))
        # Segment directories, not flat files.
        stores = [n for n in os.listdir(data_dir) if n.endswith(".store")]
        assert stores, os.listdir(data_dir)
        reopened = open_durable_cluster(
            data_dir, num_sets=2, replication_factor=2
        )
        client2 = reopened.client()
        assert client2.read(4).payload == b"entry-4"
        assert client2.append(b"post", stream_ids=(1,)) == 9

    def test_flat_cluster_migrates_to_segments(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        os.makedirs(data_dir)
        # A legacy deployment: every node's pages in <node>.flash.
        old = CorfuCluster(num_sets=2, replication_factor=2)
        client = old.client()
        for i in range(7):
            client.append(b"old-%d" % i, stream_ids=(1,))
        for name in old.projection.all_nodes():
            unit = old.storage(name)
            path = os.path.join(data_dir, f"{name}.flash")
            with FlatLogWriter(path) as flat:
                for address in unit.written_addresses():
                    flat.write(address, unit.read(address, epoch=0))
        migrated = open_durable_cluster(
            data_dir, num_sets=2, replication_factor=2
        )
        client2 = migrated.client()
        for i in range(7):
            assert client2.read(i).payload == b"old-%d" % i
        # The flat files were retired in place.
        assert not any(n.endswith(".flash") for n in os.listdir(data_dir))
        assert any(n.endswith(".flash.migrated") for n in os.listdir(data_dir))

    def test_cluster_store_status_aggregates(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        cluster = open_durable_cluster(
            data_dir, num_sets=2, replication_factor=2
        )
        client = cluster.client()
        for i in range(4):  # touch every replica set
            client.append(b"x%d" % i, stream_ids=(1,))
        status = cluster.store_status()
        assert status["nodes"]
        assert status["segments"] >= len(status["nodes"])
        assert all(
            node["kind"] == "segmented" for node in status["nodes"].values()
        )

    def test_client_admin_rpcs(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        cluster = open_durable_cluster(
            data_dir, num_sets=2, replication_factor=2
        )
        client = cluster.client()
        client.append(b"x", stream_ids=(1,))
        nodes = client.store_status()
        assert nodes and all("error" not in v for v in nodes.values())
        compacted = client.compact()
        assert set(nodes) == set(compacted)
        # Idempotent: a second sweep with no new garbage is a no-op.
        again = client.compact()
        assert all(v["segments_compacted"] == 0 for v in again.values())
