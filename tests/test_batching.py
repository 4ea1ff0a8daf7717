"""Tests for group-commit update batching (section 6: batch size 4)."""

import pytest

from repro.corfu import CorfuCluster
from repro.errors import ReproError, RpcTimeout, TangoError
from repro.net.transport import LoopbackTransport
from repro.objects import TangoList, TangoMap
from repro.tango.records import UpdateRecord, decode_records
from repro.tango.runtime import TangoRuntime


class TestBatchScope:
    def test_batch_coalesces_appends(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        before = rt.streams.corfu.appends
        with rt.batch(size=4):
            for i in range(8):
                m.put(f"k{i}", i)
        assert rt.streams.corfu.appends == before + 2  # 8 records / 4
        assert m.size() == 8

    def test_partial_batch_flushes_on_exit(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        before = rt.streams.corfu.appends
        with rt.batch(size=4):
            m.put("a", 1)
            m.put("b", 2)
        assert rt.streams.corfu.appends == before + 1
        assert m.get("a") == 1

    def test_records_preserve_order(self, make_runtime):
        rt = make_runtime()
        lst = TangoList(rt, oid=1)
        with rt.batch(size=8):
            for i in range(6):
                lst.append(i)
        assert lst.to_list() == (0, 1, 2, 3, 4, 5)

    def test_batched_entry_multiappended_to_all_streams(self, make_runtime):
        """A mixed batch lands in every involved object's stream."""
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        lst = TangoList(rt, oid=2)
        with rt.batch(size=4):
            m.put("k", 1)
            lst.append("x")
        entry = rt.streams.corfu.read(rt.streams.corfu.check() - 1)
        assert set(entry.stream_ids()) == {1, 2}
        records = decode_records(entry.payload)
        assert len(records) == 2

    def test_read_your_writes_inside_batch(self, make_runtime):
        """An accessor inside the scope flushes pending updates first."""
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        with rt.batch(size=100):
            m.put("k", 42)
            assert m.get("k") == 42  # flushed by the read

    def test_other_clients_see_batched_updates(self, make_runtime):
        rt1, rt2 = make_runtime(), make_runtime()
        m1, m2 = TangoMap(rt1, oid=1), TangoMap(rt2, oid=1)
        with rt1.batch(size=4):
            for i in range(4):
                m1.put(f"k{i}", i)
        assert m2.size() == 4

    def test_nested_batch_rejected(self, make_runtime):
        rt = make_runtime()
        with rt.batch():
            with pytest.raises(TangoError):
                with rt.batch():
                    pass

    def test_exception_discards_unflushed_records(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        with pytest.raises(RuntimeError):
            with rt.batch(size=100):
                m.put("doomed", 1)
                raise RuntimeError("boom")
        assert m.get("doomed") is None

    def test_exception_keeps_already_flushed_records(self, make_runtime):
        """Flushed entries are in the log; only the buffer is dropped."""
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        with pytest.raises(RuntimeError):
            with rt.batch(size=1):  # every update flushes immediately
                m.put("durable", 1)
                raise RuntimeError("boom")
        assert m.get("durable") == 1

    def test_oversized_batch_falls_back_per_record(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        big = "x" * 1500
        with rt.batch(size=8):
            for i in range(8):
                m.put(f"k{i}", big)  # 8 x ~1.5KB > one 4KB entry
        assert m.size() == 8

    def test_transactions_unaffected_by_batch_scope(self, make_runtime):
        """TX buffering takes precedence over batch buffering."""
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        m.put("k", 0)
        m.get("k")
        with rt.batch(size=4):
            committed = rt.run_transaction(lambda: m.put("k", m.get("k") + 1))
        assert m.get("k") == 1

    def test_discard_on_error_no_partial_entry_in_log(self, make_runtime):
        """API.md's _BatchScope error semantics: a body exception
        discards the buffer — NO entry, partial or otherwise, reaches
        the log for the unflushed records."""
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        corfu = rt.streams.corfu
        tail_before = corfu.check()
        with pytest.raises(RuntimeError):
            with rt.batch(size=100):
                m.put("doomed-1", 1)
                m.put("doomed-2", 2)
                raise RuntimeError("boom")
        assert corfu.check() == tail_before
        assert m.get("doomed-1") is None
        assert m.get("doomed-2") is None


class _TrippingTransport(LoopbackTransport):
    """Delivers normally until armed; then a budget of sequencer grants
    remains and every further ``increment`` times out (simulating the
    append path exhausting retries mid-flush)."""

    def __init__(self) -> None:
        super().__init__()
        self._allow = None  # None = disarmed

    def arm(self, allow: int) -> None:
        self._allow = allow

    def disarm(self) -> None:
        self._allow = None

    def call(self, source, target, op, resolve, args, kwargs):
        if op == "increment" and self._allow is not None:
            if self._allow <= 0:
                self.stats_for(target).note_timeout()
                raise RpcTimeout(target, op)
            self._allow -= 1
        return super().call(source, target, op, resolve, args, kwargs)


class TestFlushExceptionSafety:
    def test_mid_flush_failure_keeps_unsent_records(self):
        """Regression for the lossy flush: the old code emptied the
        buffer before appending, so an append failure mid-flush dropped
        every record that had not been sent yet. The fixed flush trims
        the buffer only after each append returns: the failed run stays
        buffered and the next flush delivers it."""
        transport = _TrippingTransport()
        cluster = CorfuCluster(
            num_sets=1, replication_factor=2, transport=transport
        )
        rt = TangoRuntime(cluster, client_id=1)
        m1, m2 = TangoMap(rt, oid=1), TangoMap(rt, oid=2)
        big = "x" * 3000  # two ~3KB records cannot share one 4KB entry
        with rt.batch(size=100):
            m1.put("a", big)
            m2.put("b", big)
            # The oversized flush splits into one run per oid. Allow
            # run A's sequencer grant, then time out every later grant:
            # run B's append exhausts its retries mid-flush.
            transport.arm(allow=1)
            with pytest.raises(ReproError):
                m1.get("a")  # read-your-writes flush raises on run B
            transport.disarm()
            # Run A landed; run B is still buffered, not lost.
        # Clean scope exit retried the buffered run B.
        assert m1.get("a") == big
        assert m2.get("b") == big

    def test_mid_flush_failure_preserves_record_order(self):
        transport = _TrippingTransport()
        cluster = CorfuCluster(
            num_sets=1, replication_factor=2, transport=transport
        )
        rt = TangoRuntime(cluster, client_id=1)
        l1, l2 = TangoList(rt, oid=1), TangoList(rt, oid=2)
        big = "x" * 3000
        with rt.batch(size=100):
            l1.append(big + "1")
            l2.append(big + "2")
            l2.append(big + "3")
            transport.arm(allow=1)
            with pytest.raises(ReproError):
                l1.to_list()
            transport.disarm()
        assert l1.to_list() == (big + "1",)
        assert l2.to_list() == (big + "2", big + "3")


class TestAdaptiveGroupCommit:
    """The group-commit size no longer adapts; a default scope keeps the
    paper's fixed batch of 4 for every flush."""

    def test_default_scope_starts_at_paper_size(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        for _ in range(2):
            before = rt.streams.corfu.appends
            with rt.batch():
                for i in range(8):
                    m.put(f"k{i}", i)
            assert rt.streams.corfu.appends == before + 2  # 8 records / 4
        assert m.size() == 8
