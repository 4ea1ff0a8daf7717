"""Checkpoints live in a stream of their own, one per object.

Every checkpoint entry is multiappended to its object's stream and to
``checkpoint_stream(oid)``. Registration names both streams in the one
sequencer query it sends, loads the newest checkpoint among the
checkpoint stream's last K offsets, and walks the object's stream only
down to that checkpoint's cover. What is asserted here is counted by the
program itself (storage RPCs, decodes, backward-scan visits), so it
repeats on any machine.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corfu import CorfuCluster
from repro.corfu.durable import open_durable_cluster
from repro.objects import TangoMap
from repro.streams import StreamClient
from repro.tango import runtime as runtime_module
from repro.tango.directory import TangoDirectory
from repro.tango.records import MAX_OID, checkpoint_stream
from repro.tango.runtime import TangoRuntime

KEYS = [f"k{i:02d}" for i in range(48)]


def _storage_rpcs(cluster, corfu) -> int:
    """RPCs to the storage nodes (the transport is the cluster's, so
    callers diff around a single-client phase)."""
    stats = corfu.net_stats()
    return sum(stats[n]["rpcs"] for n in cluster.projection.all_nodes() if n in stats)


def _same_view(fresh: TangoRuntime, held: TangoMap, writer: TangoRuntime, tmap: TangoMap):
    assert dict(held.items()) == dict(tmap.items())
    oid = tmap.oid
    assert fresh.version_of(oid) == writer.version_of(oid)
    for key in KEYS:
        k = key.encode("utf-8")
        assert fresh.version_of(oid, k) == writer.version_of(oid, k)


@pytest.fixture
def decodes(monkeypatch):
    """The payloads the runtime decodes, in order."""
    seen = []
    decode = runtime_module._decode_payload

    def counting(entry):
        seen.append(entry.payload)
        return decode(entry)

    monkeypatch.setattr(runtime_module, "_decode_payload", counting)
    return seen


class TestRegistrationCost:
    def test_a_stream_without_checkpoint_costs_the_walk_and_no_more(self, decodes):
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = TangoRuntime(cluster, client_id=1)
        maps = {oid: TangoMap(writer, oid) for oid in (1, 2)}
        rng = random.Random(5)
        for i in range(300):
            maps[1 if rng.random() < 0.7 else 2].put(rng.choice(KEYS), i)
        maps[1].size()
        walker = StreamClient(cluster.client())
        walker.open_stream(1)
        before = _storage_rpcs(cluster, walker.corfu)
        walker.sync(1)
        walk = _storage_rpcs(cluster, walker.corfu) - before
        assert walk > 0

        del decodes[:]
        rt = TangoRuntime(cluster, client_id=2)
        before = _storage_rpcs(cluster, rt.streams.corfu)
        held = TangoMap(rt, 1)
        # The walk's reads, one per K entries; no checkpoint to look
        # for (the checkpoint stream is empty), nothing decoded.
        assert _storage_rpcs(cluster, rt.streams.corfu) - before == walk
        assert decodes == []
        assert rt.streams.known_offsets(1) == walker.known_offsets(1)
        _same_view(rt, held, writer, maps[1])

    def test_a_checkpoint_at_90_percent_costs_the_suffix_walk(self, decodes):
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = TangoRuntime(cluster, client_id=1)
        tmap = TangoMap(writer, 1)
        n = 400
        for i in range(n):
            if i == 9 * n // 10:
                tmap.size()
                cover = writer.streams.position(1)
                writer.checkpoint(1, mode="full")
            tmap.put(KEYS[i % len(KEYS)], i)
        tmap.size()
        # Entries of the stream the checkpoint does not cover: its own
        # entry and the puts after it.
        suffix = sum(1 for off in writer.streams.known_offsets(1) if off > cover)
        assert suffix == n // 10 + 1

        del decodes[:]
        rt = TangoRuntime(cluster, client_id=2)
        before = _storage_rpcs(cluster, rt.streams.corfu)
        held = TangoMap(rt, 1)
        reads = _storage_rpcs(cluster, rt.streams.corfu) - before
        # c = 2 allows for the checkpoint entry's own read (one entry in
        # the checkpoint stream: no batch) and a last stride of the walk
        # that stops short of the cover. Here the checkpoint entry is
        # also one of the walk's stops: 11 reads, ceil(41 / 4). The
        # whole-stream scan this replaced read 103.
        c = 2
        assert reads <= math.ceil(suffix / cluster.k) + c
        assert len(decodes) == 1  # the checkpoint, nothing below it
        assert rt.streams.known_offsets(1)[0] > cover
        assert rt.streams.position(1) == cover
        _same_view(rt, held, writer, tmap)
        assert rt.stats["applied_updates"] == n // 10

    def test_forgotten_history_costs_a_fresh_runtime_nothing(self, tmp_path):
        """A durable cluster, one directory-opened map, rounds of 20 puts,
        checkpoint-and-forget of the map then the directory, GC and
        compaction: what a fresh runtime reads does not grow with the
        rounds, and it never scans the trimmed prefix backward."""
        cluster = open_durable_cluster(
            str(tmp_path), num_sets=2, replication_factor=2, sync=False
        )
        rt = TangoRuntime(cluster, client_id=1)
        directory = TangoDirectory(rt)
        tmap = directory.open(TangoMap, "m")
        client = cluster.client()
        rpcs, done = [], 0
        for rounds in (25, 100, 400):
            while done < rounds:
                for k in range(20):
                    tmap.put(f"k{k}", done * 1000 + k)
                tmap.size()
                rt.checkpoint_and_forget(tmap.oid, directory)
                rt.checkpoint_and_forget(directory.oid, directory)
                directory.gc()
                client.compact()
                done += 1
            fresh = TangoRuntime(cluster, client_id=1000 + rounds)
            before = _storage_rpcs(cluster, fresh.streams.corfu)
            held = TangoDirectory(fresh).open(TangoMap, "m")
            assert dict(held.items()) == dict(tmap.items())
            rpcs.append(_storage_rpcs(cluster, fresh.streams.corfu) - before)
            assert fresh.streams.backward_scans == 0
        assert max(rpcs) <= 1.1 * min(rpcs), rpcs


    def test_a_trimmed_prefix_without_checkpoint_shows_as_trimmed_outcomes(self):
        """A stream whose prefix was trimmed with no checkpoint to cover
        it: registration still walks into the prefix (ROADMAP item 15's
        open half), and each trimmed offset it visits is one trimmed
        outcome at a flash unit, not a served page."""
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = TangoRuntime(cluster, client_id=1)
        tmap = TangoMap(writer, 1)
        for i in range(40):
            tmap.put(f"k{i % 8}", i)
        writer.streams.corfu.trim_prefix(24)
        served, trimmed = cluster.total_storage_reads(), cluster.total_trimmed_reads()
        fresh = TangoRuntime(cluster, client_id=2)
        held = TangoMap(fresh, 1)
        assert dict(held.items()) == {f"k{i % 8}": i for i in range(32, 40)}
        assert cluster.total_storage_reads() - served == 16  # the live suffix
        assert cluster.total_trimmed_reads() - trimmed == 24  # every trimmed offset, once


class TestWhichCheckpointLoads:
    def test_none_of_the_last_k_loads_walks_the_checkpoint_stream_back(self):
        """Deltas whose base was trimmed fill the checkpoint stream's last
        K offsets; the older full checkpoint behind them is found by
        walking that stream, and the view replays from its cover."""
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = TangoRuntime(cluster, client_id=1)
        tmap = TangoMap(writer, 1)

        def puts(lo, hi):
            for i in range(lo, hi):
                tmap.put(KEYS[i % len(KEYS)], i)
            tmap.size()

        puts(0, 40)
        oldest = writer.checkpoint(1, mode="full")
        puts(40, 60)
        base = writer.checkpoint(1, mode="full")
        deltas = []
        for step in range(cluster.k):
            puts(60 + 10 * step, 70 + 10 * step)
            deltas.append(writer.checkpoint(1, mode="delta"))
        puts(200, 210)
        cluster.client().trim(base)

        rt = TangoRuntime(cluster, client_id=2)
        held = TangoMap(rt, 1)
        assert rt._checkpoint_chains[1] == (oldest, 0)
        _same_view(rt, held, writer, tmap)
        ckpt = checkpoint_stream(1)
        assert rt.streams.known_offsets(ckpt) == (oldest, base, *deltas)

    def test_reregistering_without_the_checkpoint_replays_the_whole_stream(self):
        """Deregistration drops the stream's list, which a cover left
        short: a registration that loads no checkpoint walks it all."""
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = TangoRuntime(cluster, client_id=1)
        tmap = TangoMap(writer, 1)
        for i in range(80):
            tmap.put(KEYS[i % len(KEYS)], i)
        tmap.size()
        writer.checkpoint(1, mode="full")
        tmap.put("after", 1)
        rt = TangoRuntime(cluster, client_id=2)
        held = TangoMap(rt, 1)
        _same_view(rt, held, writer, tmap)
        assert rt.stats["applied_updates"] == 1
        rt.deregister_object(1)
        assert not rt.streams.is_open(1)
        again = TangoMap(rt, 1, host_view=False)
        again._hosted = True
        rt.register_object(again, from_checkpoint=False)
        _same_view(rt, again, writer, tmap)
        assert rt.stats["applied_updates"] == 1 + 81

    @pytest.mark.parametrize("older", [0, 1])
    def test_an_answer_older_than_a_checkpoint_still_builds_the_writers_view(
        self, monkeypatch, older
    ):
        """The registration's sequencer answer predates a checkpoint (and
        the puts around it): it loads what the answer names, walks the
        stream as of the answer, and the next read plays the rest."""
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = TangoRuntime(cluster, client_id=1)
        tmap = TangoMap(writer, 1)
        for i in range(60):
            tmap.put(KEYS[i % len(KEYS)], i)
        tmap.size()
        named = writer.checkpoint(1, mode="full") if older else None
        for i in range(60, 90):
            tmap.put(KEYS[i % len(KEYS)], i)

        rt = TangoRuntime(cluster, client_id=2)
        corfu = rt.streams.corfu
        answer = corfu.query_streams
        raced = []

        def write_more():
            for i in range(90, 110):
                tmap.put(KEYS[i % len(KEYS)], i)
            tmap.size()
            writer.checkpoint(1, mode="full")
            for i in range(110, 120):
                tmap.put(KEYS[i % len(KEYS)], i)

        def racing(stream_ids):
            out = answer(stream_ids)
            if not raced:
                raced.append(stream_ids)
                # The writer runs on a thread of its own, as it would: on
                # this one its play lock would nest inside the reader's.
                with ThreadPoolExecutor(max_workers=1) as pool:
                    pool.submit(write_more).result()
            return out

        monkeypatch.setattr(corfu, "query_streams", racing)
        held = TangoMap(rt, 1)
        assert raced == [(1, checkpoint_stream(1))]
        if older:
            assert rt._checkpoint_chains[1] == (named, 0)
        else:
            assert 1 not in rt._checkpoint_chains
        _same_view(rt, held, writer, tmap)

    def test_a_reopened_cluster_still_names_the_newest_checkpoint(self, tmp_path):
        """The sequencer rebuilds the checkpoint stream's tail from the log
        like any other stream's when a durable cluster is reopened."""
        cluster = open_durable_cluster(
            str(tmp_path), num_sets=2, replication_factor=2, sync=False
        )
        writer = TangoRuntime(cluster, client_id=1)
        tmap = TangoMap(writer, 1)
        for i in range(100):
            tmap.put(KEYS[i % len(KEYS)], i)
        tmap.size()
        offset = writer.checkpoint(1, mode="full")
        tmap.put("after", 1)
        tmap.size()
        reopened = open_durable_cluster(
            str(tmp_path), num_sets=2, replication_factor=2, sync=False
        )
        rt = TangoRuntime(reopened, client_id=2)
        held = TangoMap(rt, 1)
        assert rt._checkpoint_chains[1] == (offset, 0)
        _same_view(rt, held, writer, tmap)
        assert rt.stats["applied_updates"] == 1

    def test_on_a_sharded_sequencer_the_checkpoint_is_a_vector_grant(self):
        cluster = CorfuCluster(num_sets=2, replication_factor=2, seq_shards=3)
        shards = cluster.projection.sequencer_shards
        assert shards[1 % 3] != shards[checkpoint_stream(1) % 3]
        writer = TangoRuntime(cluster, client_id=1)
        tmap = TangoMap(writer, 1)
        for i in range(50):
            tmap.put(KEYS[i % len(KEYS)], i)
        tmap.size()
        offset = writer.checkpoint(1, mode="full")
        tmap.put("after", 1)
        rt = TangoRuntime(cluster, client_id=2)
        held = TangoMap(rt, 1)
        assert rt._checkpoint_chains[1] == (offset, 0)
        _same_view(rt, held, writer, tmap)


class TestObjectIds:
    def test_object_ids_stop_below_the_checkpoint_streams(self):
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        rt = TangoRuntime(cluster, client_id=1)
        for oid in (-1, MAX_OID + 1, checkpoint_stream(0), (1 << 31) - 1):
            with pytest.raises(ValueError, match="outside"):
                TangoMap(rt, oid)
            assert not rt.is_hosted(oid)
        top = TangoMap(rt, MAX_OID)
        top.put("k", 1)
        top.size()
        offset = rt.checkpoint(MAX_OID)
        assert checkpoint_stream(MAX_OID) == (1 << 31) - 2
        fresh = TangoRuntime(cluster, client_id=2)
        assert TangoMap(fresh, MAX_OID).get("k") == 1
        assert fresh._checkpoint_chains[MAX_OID] == (offset, 0)


class TestReconstructionThroughACover:
    """A commit that reads a map hosted from a checkpoint and an object
    hosted nowhere here is decided by reconstruction, below the map's
    cover and above it, as a runtime that replays the map's whole
    history decides it — and as its generator did."""

    A, U, W = 1, 2, 3

    def _history(self, seed):
        rng = random.Random(seed)
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = TangoRuntime(cluster, client_id=1, name="writer")
        rival = TangoRuntime(cluster, client_id=2, name="rival")
        mine = {oid: TangoMap(writer, oid) for oid in (self.A, self.U, self.W)}
        theirs = {oid: TangoMap(rival, oid) for oid in (self.A, self.U)}
        outcomes = {}

        def rounds(count):
            for _ in range(count):
                for oid in (self.A, self.U):
                    theirs[oid].put(rng.choice(KEYS[:8]), rng.random())
                for tmap in mine.values():
                    tmap.size()
                writer.begin_tx()
                read_a, read_u = rng.choice(KEYS[:8]), rng.choice(KEYS[:8])
                mine[self.A].get(read_a)
                mine[self.U].get(read_u)
                mine[self.W].put(rng.choice(KEYS[:8]), (read_a, read_u))
                tx_id = writer._current_tx().tx_id
                if rng.random() < 0.5:  # a rival write may land in the read set
                    oid, key = rng.choice(((self.A, read_a), (self.U, read_u)))
                    theirs[oid].put(key, "rival")
                outcomes[tx_id] = writer.end_tx()

        rounds(20)
        mine[self.A].size()
        cover = writer.streams.position(self.A)
        writer.checkpoint(self.A, mode="full")
        rounds(20)
        for tmap in mine.values():
            tmap.size()
        return cluster, writer, mine, outcomes, cover

    def _consumer(self, cluster, client_id, from_checkpoint, spy):
        """A runtime hosting A (through its checkpoint or its whole
        stream) and W, played to W's tail; *spy* collects the offsets of
        the commits it decides by reconstruction."""
        rt = TangoRuntime(cluster, client_id=client_id)
        decide = rt._decide_by_reconstruction

        def spying(offset, record, depth):
            if depth == 0:
                spy.append(offset)
            return decide(offset, record, depth)

        rt._decide_by_reconstruction = spying
        held = {self.A: TangoMap(rt, self.A, host_view=False)}
        held[self.A]._hosted = True
        rt.register_object(held[self.A], from_checkpoint=from_checkpoint)
        held[self.W] = TangoMap(rt, self.W)
        held[self.W].size()
        return rt, held

    @pytest.mark.parametrize("seed", [3, 11])
    def test_decided_as_full_history_decides(self, seed):
        cluster, writer, mine, outcomes, cover = self._history(seed)
        assert set(outcomes.values()) == {True, False}
        views = {}
        for from_checkpoint in (True, False):
            spy = []
            rt, held = self._consumer(cluster, 10 + from_checkpoint, from_checkpoint, spy)
            if from_checkpoint:
                assert rt._checkpoint_chains[self.A][1] == 0
            # Reconstruction ran for commits below the cover and above it.
            assert any(off < cover for off in spy) and any(off > cover for off in spy)
            assert {tx: rt._decided[tx] for tx in outcomes} == outcomes
            views[from_checkpoint] = {oid: dict(m.items()) for oid, m in held.items()}
            for oid in (self.A, self.W):
                assert views[from_checkpoint][oid] == dict(mine[oid].items())
                assert rt.version_of(oid) == writer.version_of(oid)
        assert views[True] == views[False]
