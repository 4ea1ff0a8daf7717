"""Tests for memory-bounded mode: version eviction and cache budgets."""

from unittest import mock

import pytest

from repro.corfu import CorfuCluster
from repro.objects import TangoMap
from repro.streams.stream import CACHE_ENTRY_OVERHEAD
from repro.tango import runtime as runtime_module
from repro.tango.directory import TangoDirectory
from repro.tango.records import NO_VERSION
from repro.tango.runtime import TangoRuntime
from repro.tango.versioning import EvictedKeySet, VersionTable


class TestEvictedKeySet:
    def test_membership(self):
        s = EvictedKeySet()
        s.add_many([b"a", b"b", b"c"])
        assert b"a" in s and b"c" in s
        assert b"zzz" not in s
        assert len(s) == 3

    def test_add_is_idempotent(self):
        s = EvictedKeySet()
        s.add_many([b"a", b"b"])
        s.add_many([b"b", b"a"])
        assert len(s) == 2

    def test_serialization_round_trip(self):
        s = EvictedKeySet()
        s.add_many([b"k%d" % i for i in range(50)])
        restored = EvictedKeySet.from_bytes(s.to_bytes())
        assert len(restored) == 50
        assert all(b"k%d" % i in restored for i in range(50))

    def test_merge(self):
        a, b = EvictedKeySet(), EvictedKeySet()
        a.add_many([b"x", b"y"])
        b.add_many([b"y", b"z"])
        a.merge_bytes(b.to_bytes())
        assert len(a) == 3
        assert b"z" in a


class TestVersionTableEviction:
    def test_evict_below_drops_keyed_entries(self):
        table = VersionTable()
        for i in range(10):
            table.bump(1, i, key=b"k%d" % i)
        assert table.resident_stats()["keyed_entries"] == 10
        assert table.evict_below(5) == 5
        stats = table.resident_stats()
        assert stats["keyed_entries"] == 5
        assert stats["evicted_keys"] == 5

    def test_evicted_keys_answer_with_floor(self):
        """Evicted keys report an upper bound, never a stale low version."""
        table = VersionTable()
        table.bump(1, 2, key=b"old")
        table.bump(1, 9, key=b"new")
        table.evict_below(5)
        assert table.get(1, b"old") == 4  # the floor: horizon - 1
        assert table.get(1, b"new") == 9  # exact version retained
        assert table.get(1, b"never-seen") == NO_VERSION

    def test_floor_is_conservative_for_occ(self):
        """A read at a version below the floor must look stale."""
        table = VersionTable()
        table.bump(1, 2, key=b"k")
        table.evict_below(5)
        assert table.is_stale(1, b"k", read_version=2)  # would be fresh
        assert not table.is_stale(1, b"k", read_version=4)

    def test_eviction_snapshot_round_trips_through_checkpoint(self):
        writer = VersionTable()
        writer.bump(1, 2, key=b"gone")
        writer.evict_below(5)
        floor, blob = writer.eviction_snapshot(1)
        reader = VersionTable()
        reader.load_checkpoint(
            1, 9, (), version_floor=floor, evicted_filter=blob
        )
        assert reader.get(1, b"gone") == floor
        assert reader.get(1, b"other") == NO_VERSION


class TestRuntimeMemoryBudget:
    def test_budget_validation(self, cluster):
        with pytest.raises(ValueError):
            TangoRuntime(cluster, client_id=900, memory_budget=0)
        with pytest.raises(ValueError):
            TangoRuntime(cluster, client_id=901, memory_budget=-1)

    def bounded_client(self, cluster, budget=64 * 1024, cid=902):
        rt = TangoRuntime(
            cluster, client_id=cid, name=f"bounded-{cid}", memory_budget=budget
        )
        return rt, TangoDirectory(rt)

    def test_trim_evicts_version_entries(self, cluster):
        rt, directory = self.bounded_client(cluster)
        m = directory.open(TangoMap, "obj")
        for i in range(30):
            m.put(f"k{i}", i)
        m.size()
        before = rt.status()["store"]["versions"]["keyed_entries"]
        assert before >= 30
        rt.checkpoint_and_forget(m.oid, directory)
        rt.checkpoint_and_forget(directory.oid, directory)
        assert directory.gc() > 0
        after = rt.status()["store"]["versions"]
        assert after["keyed_entries"] < before
        assert after["evicted_keys"] > 0
        assert rt.stats["evicted_versions"] > 0
        # The map still answers correctly through the floor.
        assert m.get("k7") == 7

    def test_unbounded_runtime_keeps_exact_versions(self, cluster):
        """Without a budget, trim must not change version bookkeeping."""
        rt = TangoRuntime(cluster, client_id=903, name="unbounded")
        directory = TangoDirectory(rt)
        m = directory.open(TangoMap, "obj")
        for i in range(10):
            m.put(f"k{i}", i)
        m.size()
        before = rt.status()["store"]["versions"]["keyed_entries"]
        rt.checkpoint_and_forget(m.oid, directory)
        rt.checkpoint_and_forget(directory.oid, directory)
        directory.gc()
        after = rt.status()["store"]["versions"]
        # GC bookkeeping (forget records) may add entries; none drop.
        assert after["keyed_entries"] >= before
        assert after["evicted_keys"] == 0
        assert rt.stats["evicted_versions"] == 0

    def test_transactions_stay_sound_after_eviction(self, cluster):
        """Spurious aborts are allowed post-eviction; lost conflicts are not."""
        rt1, d1 = self.bounded_client(cluster, cid=904)
        rt2 = TangoRuntime(cluster, client_id=905, name="peer")
        m1 = d1.open(TangoMap, "obj")
        m2 = TangoMap(rt2, oid=m1.oid)
        for i in range(10):
            m1.put(f"k{i}", i)
        m1.size()
        rt1.checkpoint_and_forget(m1.oid, d1)
        rt1.checkpoint_and_forget(d1.oid, d1)
        d1.gc()
        # A genuinely conflicting tx must still abort.
        m2.get("k3")
        rt2.begin_tx()
        _ = m2.get("k3")
        m2.put("k3", 100)
        m1.put("k3", 999)
        assert rt2.end_tx() is False
        # And a clean write-only tx still commits.
        rt1.run_transaction(lambda: m1.put("fresh", 1))
        assert m1.get("fresh") == 1


class TestStreamCacheBudget:
    def test_cache_budget_validation(self, cluster):
        rt = TangoRuntime(cluster, client_id=906)
        with pytest.raises(ValueError):
            rt.streams.set_cache_budget(0)

    def test_resident_bytes_stay_under_budget(self, cluster):
        budget = 8 * 1024
        rt = TangoRuntime(cluster, client_id=907, memory_budget=budget)
        m = TangoMap(rt, oid=1)
        for i in range(200):
            m.put(f"k{i}", "v" * 64)
        m.size()
        cache = rt.status()["store"]["stream_cache"]
        assert 0 < cache["resident_bytes"] <= budget

    def test_playback_correct_with_tiny_cache(self, cluster):
        rt = TangoRuntime(cluster, client_id=908, memory_budget=1024)
        m = TangoMap(rt, oid=1)
        for i in range(50):
            m.put(f"k{i}", i)
        assert m.size() == 50
        assert all(m.get(f"k{i}") == i for i in range(0, 50, 7))

    def test_catch_up_under_a_budget_smaller_than_one_window(self):
        """A fresh runtime whose cache cannot hold 64 entries: the bytes
        charged (decoded forms included) never pass the budget, the
        views are right, and no entry is read more than once per pass —
        a warm-up sized past the budget would evict what it just read
        and fetch every entry twice."""
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = TangoRuntime(cluster, client_id=1)
        maps = {oid: TangoMap(writer, oid) for oid in (1, 2)}
        n = 300
        for i in range(n):
            maps[1 + i % 2].put(f"k{i % 40}", "v" * 64 + str(i))
        for tmap in maps.values():
            tmap.size()

        budget = 8 * 1024  # ~25 raw entries of ~320 charged bytes
        rt = TangoRuntime(cluster, client_id=2, memory_budget=budget)
        streams = rt.streams
        peak = []
        decode = runtime_module._decode_payload

        def sampling(entry):
            peak.append(streams.resident_bytes())
            return decode(entry)

        def raw_bytes():
            resident = streams.cached_offsets()
            assert 0 < len(resident) < 64
            return sum(
                len(streams.fetch(off).payload) + CACHE_ENTRY_OVERHEAD
                for off in resident
            )

        rt.subscribe("apply", lambda ev: peak.append(streams.resident_bytes()))
        with mock.patch.object(runtime_module, "_decode_payload", sampling):
            held = {oid: TangoMap(rt, oid) for oid in (1, 2)}
            # Registration only walked the backpointers: what it left
            # resident is raw, and nothing was decoded yet...
            assert streams.resident_bytes() == raw_bytes()
            assert peak == []
            for tmap in held.values():  # every entry: one decode, one apply
                tmap.size()
        # ...and playback, the last reader, leaves history raw too.
        assert streams.resident_bytes() == raw_bytes()
        assert len(peak) >= 2 * n and 0 < max(peak) <= budget
        for oid in (1, 2):
            assert dict(held[oid].items()) == dict(maps[oid].items())
        # The backpointer walk (one entry in K) and playback: one read
        # per entry per pass, nothing read twice in a pass.
        assert streams.corfu.reads <= n // 4 + n + 8

    def test_trim_releases_stream_state(self, cluster):
        """Prefix GC shrinks per-stream offset lists in bounded mode."""
        rt, directory = TestRuntimeMemoryBudget().bounded_client(
            cluster, cid=909
        )
        m = directory.open(TangoMap, "obj")
        for i in range(40):
            m.put(f"k{i}", i)
        m.size()
        rt.checkpoint_and_forget(m.oid, directory)
        rt.checkpoint_and_forget(directory.oid, directory)
        assert directory.gc() > 0
        # Continued use stays linearizable after the forget.
        m.put("post", 1)
        assert m.get("post") == 1
        assert m.get("k11") == 11


class TestStoreStatus:
    def test_status_shape(self, cluster):
        rt = TangoRuntime(cluster, client_id=910, memory_budget=1 << 20)
        m = TangoMap(rt, oid=1)
        m.put("a", 1)
        m.get("a")
        rt.checkpoint(1)
        store = rt.status()["store"]
        assert store["memory_budget"] == 1 << 20
        assert store["versions"]["objects"] >= 1
        assert store["stream_cache"]["entries"] >= 0
        assert store["checkpoint_chains"] == {1: 0}
        # In-process deployments aggregate node accounting too.
        assert store["cluster"]["nodes"]

    def test_status_without_budget(self, cluster):
        rt = TangoRuntime(cluster, client_id=911)
        assert rt.status()["store"]["memory_budget"] is None

    def test_store_status_rpc_survey(self, cluster):
        rt = TangoRuntime(cluster, client_id=912)
        nodes = rt.store_status()
        assert nodes
        assert all("kind" in status for status in nodes.values())


def test_memory_budget_accepted_by_cluster_kwarg():
    """The knob is part of the constructor surface, not a hidden setter."""
    cluster = CorfuCluster(num_sets=2, replication_factor=2)
    rt = TangoRuntime(cluster, client_id=913, memory_budget=1 << 16)
    assert rt.status()["store"]["memory_budget"] == 1 << 16


class TestWriterUnderABudgetSmallerThanItsBurst:
    """Write-through goes through the same budget as a fetched entry."""

    def test_own_entries_are_evicted_reread_and_still_correct(self, cluster):
        budget = 4 * 1024
        rt = TangoRuntime(cluster, client_id=911, memory_budget=budget)
        m = TangoMap(rt, oid=1)
        streams, corfu = rt.streams, rt.streams.corfu
        value = "x" * 100
        burst = 60  # ~60 x (payload + overhead) is several budgets
        for i in range(burst):
            m.put(f"k{i:02d}", value + str(i))
            assert streams.resident_bytes() <= budget
        # The burst outgrew the cache: the oldest of our own entries
        # are gone, the newest are resident without ever being read.
        assert 0 < streams.cache_size < burst
        assert corfu.reads == 0
        newest = streams.cached_offsets()[-1]
        assert m.get(f"k{burst - 1:02d}") == value + str(burst - 1)
        assert newest in streams.cached_offsets()
        # Playing the burst re-reads what was evicted: at worst the
        # backpointer walk's one entry in K and then each entry once.
        assert 0 < corfu.reads <= burst // 4 + burst + 2
        assert streams.resident_bytes() <= budget
        for i in range(burst):
            assert m.get(f"k{i:02d}") == value + str(i)
        # Down to a single slot, a commit still decides correctly: its
        # record displaces whatever held the slot.
        streams.set_cache_budget(1)
        m.put("pad", value)
        rt.begin_tx()
        m.get("k00")
        m.put("k00", "committed")
        assert rt.end_tx()
        assert m.get("k00") == "committed"
        assert streams.cache_size == 1

    def test_seeded_forms_are_charged_and_played_away(self, cluster):
        """A write-through slot also holds the records the entry was
        encoded from, charged as a decoded form: a writer that never
        reads stays inside its budget, and one read plays the forms
        away, leaving the raw entries' charge."""
        budget = 16 * 1024
        rt = TangoRuntime(cluster, client_id=914, memory_budget=budget)
        m = TangoMap(rt, oid=1)
        streams = rt.streams

        def raw_bytes():
            return sum(
                len(streams.fetch(off).payload) + CACHE_ENTRY_OVERHEAD
                for off in streams.cached_offsets()
            )

        burst = 60
        for i in range(burst):
            m.put(f"k{i:02d}", "x" * 100)
            assert streams.resident_bytes() <= budget
        assert 0 < streams.cache_size < burst
        assert streams.resident_bytes() == 2 * raw_bytes()
        assert m.get(f"k{burst - 1:02d}") == "x" * 100
        assert 0 < streams.resident_bytes() == raw_bytes() <= budget
