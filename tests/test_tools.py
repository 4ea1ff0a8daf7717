"""Tests for the log inspection tooling."""

import pytest

from repro.objects import TangoList, TangoMap
from repro.tango.runtime import TangoRuntime
from repro.tools import check_log, dump_log, format_dump, stream_summary


class TestDumpLog:
    def test_empty_log(self, cluster):
        assert dump_log(cluster) == []

    def test_dump_describes_updates(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        m.put("k", 1)
        rows = dump_log(cluster)
        assert len(rows) == 1
        assert rows[0]["streams"] == [1]
        assert any("update oid=1" in r for r in rows[0]["records"])

    def test_dump_describes_commits_and_decisions(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)

        class Marked(TangoMap):
            needs_decision_record = True

        m = Marked(rt, oid=1)
        lst = TangoList(rt, oid=2)
        m.put("k", 1)
        m.get("k")

        def tx():
            _ = m.get("k")
            lst.append("x")

        rt.run_transaction(tx)
        descriptions = [
            record for row in dump_log(cluster) for record in row.get("records", [])
        ]
        assert any(record.startswith("commit tx=") for record in descriptions)
        assert any(record.startswith("decision tx=") for record in descriptions)

    def test_dump_marks_holes_and_junk(self, cluster):
        client = cluster.client()
        client.append(b"x", stream_ids=(1,))
        cluster.sequencer().increment()  # hole
        client.append(b"y", stream_ids=(1,))
        client.fill(1)
        rows = dump_log(cluster)
        assert rows[1]["state"] == "junk"

    def test_format_dump_renders(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        m.put("k", 1)
        text = format_dump(dump_log(cluster))
        assert "streams=[1]" in text
        assert "update oid=1" in text


class TestCheckpointStreamLabels:
    def test_checkpoint_entry_joins_and_names_the_checkpoint_stream(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=4)
        m.put("k", 1)
        m.size()
        offset = rt.checkpoint(4)
        row = dump_log(cluster)[offset]
        assert row["streams"] == [4, "ckpt:4"]
        assert row["records"][0].startswith("checkpoint oid=4")
        assert "streams=[4,ckpt:4]" in format_dump(dump_log(cluster))
        summary = stream_summary(cluster)
        assert summary["ckpt:4"]["entries"] == 1
        assert summary["ckpt:4"]["first_offset"] == offset
        assert summary[4]["entries"] == 2

    def test_sequencer_checkpoint_stream_keeps_its_id(self, cluster):
        from repro.corfu.reconfig import SEQUENCER_CHECKPOINT_STREAM
        from repro.tools.inspect import stream_label

        assert stream_label(SEQUENCER_CHECKPOINT_STREAM) == SEQUENCER_CHECKPOINT_STREAM
        assert stream_label(7) == 7


class TestStreamSummary:
    def test_summary_counts(self, cluster):
        client = cluster.client()
        for i in range(6):
            client.append(b"e%d" % i, stream_ids=(i % 2,))
        summary = stream_summary(cluster)
        assert summary[0]["entries"] == 3
        assert summary[1]["entries"] == 3
        assert summary[0]["first_offset"] == 0
        assert summary[1]["last_offset"] == 5

    def test_multiappend_counted_in_both(self, cluster):
        client = cluster.client()
        client.append(b"both", stream_ids=(1, 2))
        summary = stream_summary(cluster)
        assert summary[1]["entries"] == summary[2]["entries"] == 1


class TestCheckLog:
    def test_healthy_log(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        for i in range(10):
            m.put(f"k{i}", i)
        rt.run_transaction(lambda: m.put("tx", m.get("k0")))
        report = check_log(cluster)
        assert report.healthy
        assert report.entries == report.tail
        assert not report.holes

    def test_holes_reported_but_not_unhealthy(self, cluster):
        client = cluster.client()
        client.append(b"x", stream_ids=(1,))
        cluster.sequencer().increment(stream_ids=(1,))
        client.append(b"y", stream_ids=(1,))
        report = check_log(cluster)
        assert report.holes == [1]
        assert report.healthy

    def test_orphaned_transaction_detected(self, cluster):
        from repro.tango.records import UpdateRecord, encode_records

        client = cluster.client()
        client.append(
            encode_records([UpdateRecord(1, b"{}", tx_id=0xBEEF)]), (1,)
        )
        report = check_log(cluster)
        assert report.orphaned_txes == [0xBEEF]
        assert not report.healthy

    def test_orphan_resolved_by_forced_abort(self, cluster):
        from repro.tango.records import UpdateRecord, encode_records

        client = cluster.client()
        client.append(
            encode_records([UpdateRecord(1, b"{}", tx_id=0xBEEF)]), (1,)
        )
        rt = TangoRuntime(cluster, client_id=1)
        rt.force_abort(0xBEEF, oids=(1,))
        report = check_log(cluster)
        assert report.orphaned_txes == []
        assert report.healthy

    def test_missing_decision_detected(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)

        class Marked(TangoMap):
            needs_decision_record = True

        m = Marked(rt, oid=1)
        lst = TangoList(rt, oid=2)
        m.put("k", 1)
        m.get("k")
        # Append a commit record with decision_expected but "crash"
        # before the decision record.
        rt.begin_tx()
        _ = m.get("k")
        lst.append("x")
        ctx = rt._current_tx()
        rt._tls.tx = None
        rt._append_commit(ctx)
        report = check_log(cluster)
        assert report.undecided_txes == [ctx.tx_id]
        assert not report.healthy

    def test_backpointers_all_valid_in_normal_operation(self, cluster):
        client = cluster.client()
        for i in range(30):
            client.append(b"e%d" % i, stream_ids=(i % 3,))
        report = check_log(cluster)
        assert report.bad_backpointers == []

    def test_backpointers_valid_through_holes(self, cluster):
        client = cluster.client()
        client.append(b"a", stream_ids=(1,))
        cluster.sequencer().increment(stream_ids=(1,))  # hole, in-stream
        client.append(b"b", stream_ids=(1,))
        client.fill(1)
        report = check_log(cluster)
        assert report.bad_backpointers == []

    def test_checkpoint_stream_header_is_validated(self, cluster):
        """fsck checks a checkpoint entry's second header like its first:
        a checkpoint-stream pointer at an entry outside that stream is a
        bad backpointer."""
        from repro.corfu.entry import encode_append
        from repro.tango.records import checkpoint_stream

        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        m.put("k", 1)
        m.size()
        first = rt.checkpoint(1, mode="full")
        m.put("k", 2)
        m.size()
        rt.checkpoint(1, mode="full")
        assert check_log(cluster).healthy  # the second points at the first
        # A third checkpoint entry, written by hand, whose checkpoint-stream
        # header points at the map's first update instead.
        ckpt = checkpoint_stream(1)
        proj = cluster.projection
        offset, backpointers = cluster.sequencer().increment((1, ckpt), epoch=proj.epoch)
        assert first in backpointers[ckpt]
        payload = cluster.client().read(first).payload
        raw, _ = encode_append(
            offset, (1, ckpt), {1: backpointers[1], ckpt: (0,)}, payload, cluster.k
        )
        rset, address = proj.map_offset(offset)
        for node in rset.nodes:
            cluster.storage(node).write(address, raw, proj.epoch)
        report = check_log(cluster)
        assert report.bad_backpointers == [(offset, ckpt, 0)]
        assert not report.healthy
