"""Tests for Tango transactions: OCC, decision records, failure paths."""

import pytest

from repro.errors import (
    NestedTransactionError,
    NoActiveTransaction,
    RemoteReadError,
    TransactionAborted,
)
from repro.objects import TangoList, TangoMap, TangoRegister
from repro.tango.records import CommitRecord, DecisionRecord, decode_records
from repro.tango.runtime import TangoRuntime


@pytest.fixture
def two_clients(make_runtime):
    """Two runtimes each hosting views of the same two objects."""
    rt1, rt2 = make_runtime(), make_runtime()
    m1, l1 = TangoMap(rt1, oid=1), TangoList(rt1, oid=2)
    m2, l2 = TangoMap(rt2, oid=1), TangoList(rt2, oid=2)
    return rt1, rt2, m1, l1, m2, l2


class TestContextManagement:
    def test_nested_begin_rejected(self, make_runtime):
        rt = make_runtime()
        rt.begin_tx()
        with pytest.raises(NestedTransactionError):
            rt.begin_tx()
        rt.abort_tx()

    def test_end_without_begin_rejected(self, make_runtime):
        rt = make_runtime()
        with pytest.raises(NoActiveTransaction):
            rt.end_tx()

    def test_abort_without_begin_rejected(self, make_runtime):
        rt = make_runtime()
        with pytest.raises(NoActiveTransaction):
            rt.abort_tx()

    def test_abort_discards_buffered_updates(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        rt.begin_tx()
        m.put("a", 1)
        rt.abort_tx()
        assert m.get("a") is None

    def test_empty_transaction_commits(self, make_runtime):
        rt = make_runtime()
        rt.begin_tx()
        assert rt.end_tx() is True

    def test_context_manager_commits(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        m.get("a")
        with rt.transaction() as tx:
            m.put("a", 1)
        assert tx.committed
        assert m.get("a") == 1

    def test_context_manager_raises_on_abort(self, two_clients):
        rt1, rt2, m1, l1, m2, l2 = two_clients
        m1.get("k")
        with pytest.raises(TransactionAborted):
            with rt1.transaction():
                _ = m1.get("k")
                l1.append("x")
                m2.put("k", "conflict")  # intervening write
        assert not l2.to_list()

    def test_exception_in_body_aborts(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        with pytest.raises(RuntimeError):
            with rt.transaction():
                m.put("a", 1)
                raise RuntimeError("boom")
        assert m.get("a") is None
        assert rt._current_tx() is None


class TestCommitAbortSemantics:
    def test_figure4_pattern_commits(self, two_clients):
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.put("owner", "me")
        assert m1.get("owner") == "me"
        rt1.begin_tx()
        if m1.get("owner") == "me":
            l1.append("item")
        assert rt1.end_tx() is True
        assert l2.to_list() == ("item",)

    def test_stale_read_aborts(self, two_clients):
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.put("owner", "me")
        m1.get("owner")
        rt1.begin_tx()
        _ = m1.get("owner")
        l1.append("item")
        m2.put("owner", "thief")  # lands before the commit record
        assert rt1.end_tx() is False
        assert l2.to_list() == ()

    def test_all_clients_decide_identically(self, two_clients):
        rt1, rt2, m1, l1, m2, l2 = two_clients
        m1.put("k", 0)
        m1.get("k")
        m2.get("k")

        def bump_at(rt, m):
            def body():
                m.put("k", m.get("k") + 1)

            return rt.run_transaction(body)

        bump_at(rt1, m1)
        bump_at(rt2, m2)
        assert m1.get("k") == m2.get("k") == 2

    def test_fine_grained_keys_do_not_conflict(self, two_clients):
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.get("a")
        rt1.begin_tx()
        _ = m1.get("a")
        m1.put("a", 1)
        m2.put("b", 2)  # disjoint key: no conflict
        assert rt1.end_tx() is True

    def test_same_key_conflicts(self, two_clients):
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.get("a")
        rt1.begin_tx()
        _ = m1.get("a")
        m1.put("a", 1)
        m2.put("a", 2)
        assert rt1.end_tx() is False

    def test_aborted_tx_leaves_no_trace_in_views(self, two_clients):
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.put("a", "original")
        m1.get("a")
        rt1.begin_tx()
        _ = m1.get("a")
        m1.put("a", "doomed")
        l1.append("doomed-item")
        m2.put("a", "conflict")
        assert rt1.end_tx() is False
        assert m1.get("a") == "conflict"
        assert m2.get("a") == "conflict"
        assert l1.to_list() == () == l2.to_list()

    def test_run_transaction_retries_until_commit(self, two_clients):
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.put("n", 0)
        m1.get("n")  # sync the view before transacting
        attempts = []

        def body():
            attempts.append(1)
            value = m1.get("n")
            if len(attempts) == 1:
                # Sabotage the first attempt only.
                m2.put("n", value + 100)
            m1.put("n", value + 1)

        rt1.run_transaction(body)
        assert len(attempts) == 2
        assert m1.get("n") == 101

    def test_run_transaction_exhausts_retries(self, two_clients):
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.put("n", 0)
        m1.get("n")  # sync the view before transacting

        def hostile():
            value = m1.get("n")
            m2.put("n", value + 100)  # always invalidate
            m1.put("n", value + 1)

        with pytest.raises(TransactionAborted):
            rt1.run_transaction(hostile, retries=2)


class TestFastPaths:
    def test_read_only_tx_appends_nothing(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        m.put("a", 1)
        m.get("a")
        appends_before = rt.streams.corfu.appends
        rt.begin_tx()
        _ = m.get("a")
        assert rt.end_tx() is True
        assert rt.streams.corfu.appends == appends_before

    def test_read_only_tx_aborts_on_conflict(self, two_clients):
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.put("a", 1)
        m1.get("a")
        rt1.begin_tx()
        _ = m1.get("a")
        m2.put("a", 2)
        assert rt1.end_tx() is False

    def test_stale_read_only_tx_skips_log(self, two_clients):
        """allow_stale: decide locally without playing the log forward."""
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.put("a", 1)
        m1.get("a")
        rt1.begin_tx()
        _ = m1.get("a")
        m2.put("a", 2)  # invisible to the stale snapshot
        assert rt1.end_tx(allow_stale=True) is True

    def test_write_only_tx_commits_immediately(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        rt.begin_tx()
        m.put("a", 1)
        assert rt.end_tx() is True
        assert m.get("a") == 1

    def test_write_only_tx_single_append(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        before = rt.streams.corfu.appends
        rt.begin_tx()
        m.put("a", 1)
        m.put("b", 2)
        rt.end_tx()
        assert rt.streams.corfu.appends == before + 1  # inlined commit


class TestCommitRecordLayout:
    def test_commit_multiappended_to_read_and_write_streams(self, two_clients):
        """Figure 6: the commit record lands in every involved stream."""
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.put("k", 1)
        m1.get("k")
        rt1.begin_tx()
        _ = m1.get("k")  # read object 1
        l1.append("x")  # write object 2
        rt1.end_tx()
        client = rt1.streams.corfu
        tail = client.check()
        entry = client.read(tail - 1)
        assert set(entry.stream_ids()) == {1, 2}
        records = decode_records(entry.payload)
        assert any(isinstance(r, CommitRecord) for r in records)

    def test_single_log_position_per_tx(self, two_clients):
        rt1, _rt2, m1, l1, m2, l2 = two_clients
        m1.get("k")
        before = rt1.streams.corfu.check()
        rt1.begin_tx()
        _ = m1.get("k")
        l1.append("x")
        rt1.end_tx()
        assert rt1.streams.corfu.check() == before + 1


class TestRemoteAccess:
    def test_remote_write(self, make_runtime):
        """Case A: write an object with no local view."""
        rt1, rt2 = make_runtime(), make_runtime()
        hosted = TangoList(rt1, oid=5)
        producer = TangoList(rt2, oid=5, host_view=False)
        producer.append("from-producer")
        assert hosted.to_list() == ("from-producer",)

    def test_remote_write_in_tx(self, make_runtime):
        rt1, rt2 = make_runtime(), make_runtime()
        hosted_q = TangoList(rt1, oid=5)
        local_m = TangoMap(rt2, oid=6)
        remote_q = TangoList(rt2, oid=5, host_view=False)
        local_m.put("sent", False)
        local_m.get("sent")

        def send():
            if not local_m.get("sent"):
                remote_q.append("payload")
                local_m.put("sent", True)

        rt2.run_transaction(send)
        assert hosted_q.to_list() == ("payload",)
        assert local_m.get("sent") is True

    def test_remote_read_rejected(self, make_runtime):
        """Case D: transactions cannot read objects with no local view."""
        rt = make_runtime()
        ghost = TangoMap(rt, oid=5, host_view=False)
        rt.begin_tx()
        with pytest.raises(RemoteReadError):
            rt.query_helper(5)
        rt.abort_tx()


class TestDecisionRecords:
    def _marked_map(self, rt, oid):
        class MarkedMap(TangoMap):
            needs_decision_record = True

        return MarkedMap(rt, oid=oid)

    def test_consumer_without_read_set_waits_for_decision(self, make_runtime):
        """Case C: the generating client appends a decision record and
        the consumer applies the writes only after seeing it."""
        rt1, rt2 = make_runtime(), make_runtime()
        private = self._marked_map(rt1, 1)  # only rt1 hosts this
        shared1 = TangoList(rt1, oid=2)
        shared2 = TangoList(rt2, oid=2)  # rt2 hosts the write target only
        private.put("gate", "open")
        private.get("gate")

        def guarded_append():
            if private.get("gate") == "open":
                shared1.append("allowed")

        rt1.run_transaction(guarded_append)
        assert rt1.stats["decisions_published"] == 1
        assert shared2.to_list() == ("allowed",)

    def test_aborted_tx_decision_discards_writes_at_consumer(self, make_runtime):
        rt1, rt2, rt3 = make_runtime(), make_runtime(), make_runtime()
        private1 = self._marked_map(rt1, 1)
        private3 = self._marked_map(rt3, 1)
        shared1 = TangoList(rt1, oid=2)
        shared2 = TangoList(rt2, oid=2)
        private1.put("gate", "open")
        private1.get("gate")
        rt1.begin_tx()
        if private1.get("gate") == "open":
            shared1.append("doomed")
        private3.put("gate", "slammed")  # conflict before commit
        assert rt1.end_tx() is False
        assert shared2.to_list() == ()
        assert shared1.to_list() == ()

    def test_consumer_blocks_stream_until_decision(self, cluster, make_runtime):
        """Entries behind an awaiting commit are deferred, not skipped."""
        rt1, rt2 = make_runtime(), make_runtime()
        private = self._marked_map(rt1, 1)
        shared1 = TangoList(rt1, oid=2)
        shared2 = TangoList(rt2, oid=2)
        private.put("g", 1)
        private.get("g")

        # Build the log manually so that the decision record arrives
        # after further appends to the shared stream:
        rt1.begin_tx()
        _ = private.get("g")
        shared1.append("tx-item")
        commit_offset, record = rt1._append_commit(rt1._current_tx())
        ctx = rt1._current_tx()
        rt1._tls.tx = None
        # Another client appends to the shared stream before the
        # decision exists.
        shared1.append("later-item")
        # Consumer plays: sees the commit (parks), sees later-item
        # (deferred), no decision yet.
        rt2.query_helper(2)
        assert shared2.to_list() == ()
        # Generator decides and publishes.
        rt1._streams.sync_many(rt1.hosted_oids())
        rt1._play_until(commit_offset)
        outcome = rt1._decided[ctx.tx_id]
        rt1._append_decision(ctx.tx_id, outcome, record)
        # Consumer now sees both, in order.
        rt2.query_helper(2)
        assert shared2.to_list() == ("tx-item", "later-item")

    def test_generator_waits_for_predecessor_decision(self, make_runtime):
        """A commit parked on one stream delays decisions of later
        transactions that share it — end_tx keeps playing forward."""
        rt1, rt2 = make_runtime(), make_runtime()
        private1 = self._marked_map(rt1, 1)
        shared1 = TangoList(rt1, oid=3)
        private2 = self._marked_map(rt2, 2)
        shared2 = TangoList(rt2, oid=3)
        private1.put("a", 1)
        private1.get("a")
        private2.put("b", 1)
        private2.get("b")

        def tx1():
            _ = private1.get("a")
            shared1.append("one")

        def tx2():
            _ = private2.get("b")
            shared2.append("two")

        rt1.run_transaction(tx1)
        rt2.run_transaction(tx2)  # must wait for tx1's decision, then decide
        assert shared1.to_list() == ("one", "two")
        assert shared2.to_list() == ("one", "two")


class TestDecisionRecordObservers:
    def test_a_decision_record_decides_for_subscribers_and_publish(self, cluster):
        """A fresh runtime hosting only the write-set list of a marked
        transaction decides it by the decision record: its subscriber
        sees one commit event, and it can republish the decision."""
        rt1 = TangoRuntime(cluster, client_id=1)

        class MarkedMap(TangoMap):
            needs_decision_record = True

        private = MarkedMap(rt1, oid=1)
        shared = TangoList(rt1, oid=2)
        private.put("gate", "open")
        private.get("gate")
        rt1.begin_tx()
        assert private.get("gate") == "open"
        shared.append("allowed")
        tx_id = rt1._current_tx().tx_id
        assert rt1.end_tx()
        assert rt1.stats["decisions_published"] == 1

        rt2 = TangoRuntime(cluster, client_id=2)
        events = []
        rt2.subscribe("commit", events.append)
        rt2.subscribe("abort", events.append)
        consumer = TangoList(rt2, oid=2)
        assert consumer.to_list() == ("allowed",)
        assert [event["tx_id"] for event in events] == [tx_id]
        assert rt2.publish_decision(tx_id) is True
        assert consumer.to_list() == ("allowed",)
        assert [event["tx_id"] for event in events] == [tx_id]


class TestFailureHandling:
    def test_force_abort_orphan(self, make_runtime):
        """A dummy commit record aborts an orphaned transaction."""
        rt1, rt2 = make_runtime(), make_runtime()
        m1 = TangoMap(rt1, oid=1)
        m2 = TangoMap(rt2, oid=1)
        # rt1 "crashes" mid-transaction: speculative update in the log,
        # no commit record. Simulate by appending a speculative record.
        from repro.tango.records import UpdateRecord, encode_records

        orphan_tx = 0xDEAD
        rt1.streams.append(
            encode_records(
                [UpdateRecord(1, b'{"op":"put","k":"x","v":1}', tx_id=orphan_tx)]
            ),
            (1,),
        )
        rt2.force_abort(orphan_tx, oids=(1,))
        assert m2.get("x") is None  # orphan's write never applied
        m2.put("y", 2)
        assert m2.get("y") == 2  # stream is healthy afterwards

    def test_publish_decision_for_crashed_generator(self, make_runtime):
        """A client hosting the read set can publish the decision on
        behalf of a generator that crashed before its decision record."""
        rt1, rt2, rt3 = make_runtime(), make_runtime(), make_runtime()

        class MarkedMap(TangoMap):
            needs_decision_record = True

        private1 = MarkedMap(rt1, 1)
        shared1 = TangoList(rt1, oid=2)
        private1.put("g", 1)
        private1.get("g")
        # rt1 appends commit record then "crashes" before the decision.
        rt1.begin_tx()
        _ = private1.get("g")
        shared1.append("item")
        ctx = rt1._current_tx()
        rt1._tls.tx = None
        commit_offset, record = rt1._append_commit(ctx)
        # rt3 hosts the read set too; it plays, decides, and publishes.
        private3 = MarkedMap(rt3, 1)
        shared3 = TangoList(rt3, oid=2)
        shared3.to_list()  # plays the commit; decides locally
        assert rt3.publish_decision(ctx.tx_id) is True
        # rt2 hosts only the write set; the published decision unblocks it.
        shared2 = TangoList(rt2, oid=2)
        assert shared2.to_list() == ("item",)

    def test_publish_decision_unknown_tx(self, make_runtime):
        rt = make_runtime()
        assert rt.publish_decision(12345) is False


class TestReconstructionFallback:
    def test_consumer_reconstructs_unhosted_read_set(self, make_runtime):
        """Section 4.1 last resort: rebuild read-set versions from the
        log when no decision record is coming."""
        rt1, rt2 = make_runtime(), make_runtime()
        owners1 = TangoMap(rt1, oid=1)  # not marked: no decision records
        items1 = TangoList(rt1, oid=2)
        owners1.put("k", "v")
        owners1.get("k")

        def tx():
            _ = owners1.get("k")
            items1.append("x")

        rt1.run_transaction(tx)
        # rt2 hosts only the list; it must reconstruct object 1's
        # versions to decide the commit record.
        items2 = TangoList(rt2, oid=2)
        assert items2.to_list() == ("x",)

    def test_reconstruction_of_aborted_tx(self, make_runtime):
        rt1, rt2, rt3 = make_runtime(), make_runtime(), make_runtime()
        owners1 = TangoMap(rt1, oid=1)
        items1 = TangoList(rt1, oid=2)
        owners3 = TangoMap(rt3, oid=1)
        owners1.put("k", "v")
        owners1.get("k")
        rt1.begin_tx()
        _ = owners1.get("k")
        items1.append("doomed")
        owners3.put("k", "conflict")
        assert rt1.end_tx() is False
        items2 = TangoList(rt2, oid=2)
        assert items2.to_list() == ()

    def test_checkpoint_above_an_overwrite_does_not_roll_it_back(
        self, make_runtime
    ):
        """A lagging client's checkpoint of A lands above an overwrite of
        the key a transaction read; reconstruction must still see the
        overwrite and abort, as the generator did."""
        gen, lagging, writer, consumer = (make_runtime() for _ in range(4))
        accounts = TangoMap(gen, oid=1)
        audit = TangoMap(gen, oid=3)
        accounts.put("k", "v0")
        assert accounts.get("k") == "v0"
        lagging_view = TangoMap(lagging, oid=1)  # plays up to "v0", no further
        assert lagging_view.get("k") == "v0"
        gen.begin_tx()
        _ = accounts.get("k")
        audit.put("x", 1)
        TangoMap(writer, oid=1).put("k", "v1")
        # Its cover sits below the overwrite; the entry sits above it.
        lagging.checkpoint(1, mode="full")
        assert gen.end_tx() is False
        # Hosting only the audit map, the consumer decides the commit
        # record by rebuilding the accounts map's versions.
        assert TangoMap(consumer, oid=3).get("x") is None

    def test_decision_made_in_reconstruction_emits_once(self, make_runtime):
        """T1 (reads A and U) is decided by reconstruction, which decides
        T0 (reads U, writes A) on the way; each commit is emitted once,
        including when a later registration plays T0's write."""
        gen, consumer = make_runtime(), make_runtime()
        a, u, w = TangoMap(gen, oid=1), TangoMap(gen, oid=2), TangoMap(gen, oid=3)
        generated = []
        gen.subscribe("commit", lambda event: generated.append(event["tx_id"]))
        u.put("u", 0)

        def t0():
            _ = u.get("u")
            a.put("a", 1)

        def t1():
            _ = a.get("a")
            _ = u.get("u")
            w.put("w", 2)

        gen.run_transaction(t0)
        gen.run_transaction(t1)
        assert len(generated) == 2
        seen = []
        consumer.subscribe("commit", lambda event: seen.append(event["tx_id"]))
        assert TangoMap(consumer, oid=3).get("w") == 2
        assert TangoMap(consumer, oid=1).get("a") == 1
        assert sorted(seen) == sorted(generated)
