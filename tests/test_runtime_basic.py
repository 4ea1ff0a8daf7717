"""Tests for the Tango runtime: SMR mechanics, playback, checkpoints."""

import pytest

from repro.errors import (
    ObjectExistsError,
    TangoError,
    UnknownObjectError,
)
from repro.objects import TangoCounter, TangoMap, TangoRegister
from repro.tango.directory import TangoDirectory
from repro.tango.runtime import TangoRuntime


class TestStateMachineReplication:
    def test_mutator_does_not_touch_view_directly(self, make_runtime):
        """Mutators append; only apply (via query) changes the view."""
        rt = make_runtime()
        reg = TangoRegister(rt, oid=1)
        reg.write(42)
        assert reg._state is None  # not yet applied locally
        assert reg.read() == 42  # accessor syncs, apply runs

    def test_two_views_converge(self, make_runtime):
        rt1, rt2 = make_runtime(), make_runtime()
        r1 = TangoRegister(rt1, oid=1)
        r2 = TangoRegister(rt2, oid=1)
        r1.write("a")
        r2.write("b")
        assert r1.read() == r2.read() == "b"

    def test_linearizable_read_sees_completed_write(self, make_runtime):
        rt1, rt2 = make_runtime(), make_runtime()
        r1 = TangoRegister(rt1, oid=1)
        r2 = TangoRegister(rt2, oid=1)
        r1.write("committed")
        assert r2.read() == "committed"

    def test_apply_receives_log_offset(self, make_runtime):
        rt = make_runtime()
        seen = []

        class Probe(TangoRegister):
            def apply(self, payload, offset):
                seen.append(offset)
                super().apply(payload, offset)

        probe = Probe(rt, oid=1)
        probe.write(1)
        probe.write(2)
        probe.read()
        assert seen == [0, 1]

    def test_fresh_view_replays_history(self, cluster, make_runtime):
        rt1 = make_runtime()
        counter = TangoCounter(rt1, oid=1)
        for _ in range(5):
            counter.increment()
        rt2 = make_runtime()
        fresh = TangoCounter(rt2, oid=1)
        assert fresh.value() == 5

    def test_duplicate_registration_rejected(self, make_runtime):
        rt = make_runtime()
        TangoRegister(rt, oid=1)
        with pytest.raises(ObjectExistsError):
            TangoRegister(rt, oid=1)

    def test_query_unhosted_object_rejected(self, make_runtime):
        rt = make_runtime()
        with pytest.raises(UnknownObjectError):
            rt.query_helper(99)

    def test_deregister(self, make_runtime):
        rt = make_runtime()
        reg = TangoRegister(rt, oid=1)
        reg.write(1)
        rt.deregister_object(1)
        assert not rt.is_hosted(1)
        assert rt.get_object(1) is None


class TestMergedPlayback:
    def test_multiple_objects_share_one_runtime(self, make_runtime):
        rt = make_runtime()
        reg = TangoRegister(rt, oid=1)
        ctr = TangoCounter(rt, oid=2)
        reg.write("x")
        ctr.increment()
        assert reg.read() == "x"
        assert ctr.value() == 1

    def test_query_one_object_plays_others_in_order(self, make_runtime):
        """Merged playback keeps cross-object order (section 4.1)."""
        rt = make_runtime()
        order = []

        class Probe(TangoRegister):
            def apply(self, payload, offset):
                order.append((self.oid, offset))
                super().apply(payload, offset)

        a = Probe(rt, oid=1)
        b = Probe(rt, oid=2)
        a.write(1)  # offset 0
        b.write(2)  # offset 1
        a.write(3)  # offset 2
        a.read()
        assert order == [(1, 0), (2, 1), (1, 2)]

    def test_watermark_advances(self, make_runtime):
        rt = make_runtime()
        reg = TangoRegister(rt, oid=1)
        reg.write(1)
        reg.read()
        assert rt._watermark == 0

    def test_version_of_tracks_last_modifier(self, make_runtime):
        rt = make_runtime()
        m = TangoMap(rt, oid=1)
        m.put("a", 1)  # offset 0
        m.put("b", 2)  # offset 1
        m.get("a")
        assert rt.version_of(1) == 1
        assert rt.version_of(1, b"a") == 0
        assert rt.version_of(1, b"b") == 1


class TestLateRegistration:
    def test_catch_up_after_other_streams_played(self, make_runtime):
        rt1, rt2 = make_runtime(), make_runtime()
        m1 = TangoMap(rt1, oid=1)
        m2 = TangoMap(rt1, oid=2)
        m1.put("x", 1)
        m2.put("y", 2)
        # rt2 hosts object 1 only, plays it...
        other1 = TangoMap(rt2, oid=1)
        assert other1.get("x") == 1
        # ... then registers object 2 late; it must catch up.
        other2 = TangoMap(rt2, oid=2)
        assert other2.get("y") == 2

    def test_late_registration_with_single_object_tx(self, make_runtime):
        rt1, rt2 = make_runtime(), make_runtime()
        m1 = TangoMap(rt1, oid=1)
        m1.put("a", 0)
        m1.get("a")

        def bump():
            m1.put("a", m1.get("a") + 1)

        rt1.run_transaction(bump)
        # rt2 plays something else first, then registers oid 1 late.
        reg = TangoRegister(rt2, oid=9)
        reg.write("noise")
        reg.read()
        late = TangoMap(rt2, oid=1)
        assert late.get("a") == 1

    def test_late_registration_emits_commit_and_abort_events(self, make_runtime):
        """A late stream's history is played like any other: every
        transaction it decides reaches the commit/abort subscribers."""

        def record_decisions(rt):
            events = []
            for event in ("commit", "abort"):
                rt.subscribe(event, lambda p, e=event: events.append((e, p)))
            return events

        rt1, rt2, rt3 = make_runtime(), make_runtime(), make_runtime()
        writer_events = record_decisions(rt1)
        m, other = TangoMap(rt1, oid=1), TangoMap(rt2, oid=1)
        m.put("k", 0)
        m.get("k")
        rt1.begin_tx()
        m.get("k")
        m.put("out", 1)
        assert rt1.end_tx()
        rt1.begin_tx()
        m.get("k")
        other.put("k", 2)
        m.put("out", 2)
        assert not rt1.end_tx()

        reg = TangoRegister(rt3, oid=9)
        reg.write("noise")
        reg.read()
        late_events = record_decisions(rt3)
        TangoMap(rt3, oid=1)  # caught up to the watermark on registration
        assert [e for e, _ in late_events] == ["commit", "abort"]
        assert late_events == writer_events

    def test_late_registration_decides_by_the_decision_record(
        self, make_runtime, monkeypatch
    ):
        """A late stream holding a commit that expects a decision record
        waits for that record, as playback does; nothing is rebuilt."""

        class Marked(TangoMap):
            needs_decision_record = True

        rt1 = make_runtime()
        r, w = Marked(rt1, oid=1), TangoMap(rt1, oid=2)
        r.put("k", 0)
        r.get("k")
        rt1.begin_tx()
        r.get("k")
        w.put("out", "committed")
        assert rt1.end_tx()

        rt2 = make_runtime()
        reg = TangoRegister(rt2, oid=9)
        reg.write("noise")
        reg.read()
        calls = []
        rebuild = rt2._decide_by_reconstruction
        monkeypatch.setattr(
            rt2,
            "_decide_by_reconstruction",
            lambda *a: calls.append(a) or rebuild(*a),
        )
        late = TangoMap(rt2, oid=2)
        assert late.get("out") == "committed"
        assert calls == []
        assert rt2.status()["awaiting_decisions"] == []


class TestHistory:
    def test_historical_view(self, make_runtime):
        rt1 = make_runtime()
        reg = TangoRegister(rt1, oid=1)
        reg.write("v1")  # offset 0
        reg.write("v2")  # offset 1
        reg.read()
        rt2 = make_runtime()
        old = TangoRegister(rt2, oid=1)
        old.sync_to(0)
        assert old._state == "v1"

    def test_sync_to_then_forward(self, make_runtime):
        rt1 = make_runtime()
        reg = TangoRegister(rt1, oid=1)
        for value in ("a", "b", "c"):
            reg.write(value)
        rt2 = make_runtime()
        replica = TangoRegister(rt2, oid=1)
        replica.sync_to(1)
        assert replica._state == "b"
        assert replica.read() == "c"  # accessor plays the rest


class TestCheckpoints:
    def test_checkpoint_and_reload(self, make_runtime):
        rt1 = make_runtime()
        m = TangoMap(rt1, oid=1)
        for i in range(10):
            m.put(f"k{i}", i)
        m.get("k0")
        rt1.checkpoint(1)
        # A fresh client must reconstruct through the checkpoint.
        rt2 = make_runtime()
        fresh = TangoMap(rt2, oid=1)
        assert fresh.get("k7") == 7
        assert fresh.size() == 10

    def test_checkpoint_skips_covered_history(self, make_runtime):
        """Reload plays only entries above the checkpoint's cover."""
        rt1 = make_runtime()
        m = TangoMap(rt1, oid=1)
        for i in range(20):
            m.put(f"k{i}", i)
        m.get("k0")  # play everything
        rt1.checkpoint(1)
        m.put("after", 99)

        rt2 = make_runtime()
        applied = []

        class Probe(TangoMap):
            def apply(self, payload, offset):
                applied.append(offset)
                super().apply(payload, offset)

        fresh = Probe(rt2, oid=1)
        assert fresh.get("after") == 99
        assert fresh.get("k3") == 3  # from the checkpoint state
        assert len(applied) == 1  # only the post-checkpoint update

    def test_reload_after_trim(self, cluster, make_runtime):
        """After GC below the checkpoint, reconstruction still works."""
        rt1 = make_runtime()
        m = TangoMap(rt1, oid=1)
        for i in range(10):
            m.put(f"k{i}", i)
        m.get("k0")
        rt1.checkpoint(1)
        covers = rt1.streams.position(1)
        rt1.streams.corfu.trim_prefix(covers)
        rt2 = make_runtime()
        fresh = TangoMap(rt2, oid=1)
        assert fresh.size() == 10
        assert fresh.get("k9") == 9

    def test_checkpoint_preserves_versions(self, make_runtime):
        """Conflict decisions agree between reloaded and full views."""
        rt1 = make_runtime()
        m = TangoMap(rt1, oid=1)
        m.put("a", 1)
        m.get("a")
        rt1.checkpoint(1)
        rt2 = make_runtime()
        fresh = TangoMap(rt2, oid=1)
        fresh.get("a")
        assert rt2.version_of(1, b"a") == rt1.version_of(1, b"a")

    @pytest.mark.parametrize("order", ["read_first", "write_first", "write_late"])
    def test_commit_below_a_checkpoint_is_decided_as_of_its_offset(
        self, make_runtime, order
    ):
        """A checkpoint of a read-set object taken after a commit does not
        re-decide that commit for a fresh consumer: the read set's
        versions as of the commit's offset decide it, not the newer ones
        the checkpoint installs, in whatever order the consumer
        registers the objects."""
        rt = make_runtime()
        r, w = TangoMap(rt, oid=1), TangoMap(rt, oid=2)
        r.put("k", 0)
        r.get("k")

        def tx():
            if r.get("k") == 0:
                w.put("out", "committed")

        rt.run_transaction(tx)
        r.put("k", 1)
        r.get("k")
        rt.checkpoint(1, "full")
        assert w.get("out") == "committed"

        fresh = make_runtime()
        if order == "write_first":
            fw, fr = TangoMap(fresh, oid=2), TangoMap(fresh, oid=1)
        else:
            fr = TangoMap(fresh, oid=1)
            if order == "write_late":
                assert fr.get("k") == 1
            fw = TangoMap(fresh, oid=2)
        assert fw.get("out") == w.get("out")
        assert fr.get("k") == 1

    def test_decision_record_below_a_checkpoint_leaves_the_reloaded_view(
        self, make_runtime
    ):
        """A commit that expects a decision record, met below a reloaded
        checkpoint of one of its objects, waits for the record and then
        applies its writes only to the views that had not yet passed it."""

        class Marked(TangoMap):
            needs_decision_record = True

        rt = make_runtime()
        r, w = Marked(rt, oid=1), TangoMap(rt, oid=2)
        r.put("k", 0)
        r.get("k")
        rt.begin_tx()
        r.get("k")
        r.put("seen", "tx")
        w.put("out", "committed")
        assert rt.end_tx()
        r.put("k", 1)
        r.put("seen", "later")
        r.get("k")
        rt.checkpoint(1, "full")

        fresh = make_runtime()
        fr, fw = Marked(fresh, oid=1), TangoMap(fresh, oid=2)
        assert fw.get("out") == "committed"
        assert fr.get("seen") == "later"
        assert fr.get("k") == 1

    def test_checkpoint_unhosted_rejected(self, make_runtime):
        rt = make_runtime()
        with pytest.raises(UnknownObjectError):
            rt.checkpoint(42)


class TestRuntimeConveniences:
    def test_cluster_shorthand_constructor(self, cluster):
        rt = TangoRuntime(cluster)
        reg = TangoRegister(rt, oid=1)
        reg.write(5)
        assert reg.read() == 5

    def test_stats_counters(self, make_runtime):
        rt = make_runtime()
        reg = TangoRegister(rt, oid=1)
        reg.write(1)
        reg.read()
        assert rt.stats["applied_updates"] == 1
