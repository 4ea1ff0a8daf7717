"""What a Tango operation costs, in exact round trips.

Counted from the transport's own per-endpoint ``rpcs`` and the client's
``reads`` on a 2x2+1 cluster (two chains of two, one sequencer), so the
numbers repeat on any machine. An offset is write-once, so a client
never reads back what it appended (the stream cache is filled on the
write path), and a commit record's own grant stands in for the
sequencer query when it names every hosted stream.

A lone append is 3 RPCs here: ``increment``, head ``write``, tail
``write``. A linearizable read adds the ``query``; playing a foreign
entry adds one storage ``read``. Nor does a client decode what it
encoded: its records go into the cache slot with the write.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.corfu import CorfuCluster
from repro.objects import TangoMap
from repro.streams import StreamClient
from repro.tango import runtime as runtime_module
from repro.tango.records import CommitRecord, UpdateRecord, decode_records
from repro.tango.runtime import TangoRuntime


@pytest.fixture
def cluster() -> CorfuCluster:
    return CorfuCluster(num_sets=2, replication_factor=2)


class _Meter:
    """RPCs delivered cluster-wide and entries this client read, as deltas.

    The transport is the cluster's, so a delta is exact only around a
    phase in which one client talks — which is how every test below is
    written.
    """

    def __init__(self, corfu) -> None:
        self._corfu = corfu
        self.mark()

    def _now(self):
        stats = self._corfu.net_stats()
        rpcs = sum(s["rpcs"] for s in stats.values())
        sequencer = sum(
            s["rpcs"] for node, s in stats.items() if node.startswith("seq")
        )
        return rpcs, sequencer, self._corfu.reads

    def mark(self) -> None:
        self._base = self._now()

    def delta(self):
        """``(rpcs, of which to the sequencer, storage reads)`` since mark."""
        return tuple(now - was for now, was in zip(self._now(), self._base))


def _hosted_map(cluster, client_id=1, oids=(1,)):
    rt = TangoRuntime(cluster, client_id=client_id)
    maps = {oid: TangoMap(rt, oid) for oid in oids}
    for tmap in maps.values():
        tmap.put("warm", 0)
        tmap.get("warm")
    return rt, maps, _Meter(rt.streams.corfu)


def _three_plus_three(rt, tmap) -> bool:
    rt.begin_tx()
    for i in range(3):
        tmap.get("k%d" % i)
    for i in range(3):
        tmap.put("k%d" % i, i)
    return rt.end_tx()


class TestTangoOperations:
    def test_put_then_get_is_four_rpcs_and_no_read(self, cluster):
        _rt, maps, meter = _hosted_map(cluster)
        meter.mark()
        maps[1].put("k", "v")
        assert meter.delta() == (3, 1, 0)
        assert maps[1].get("k") == "v"
        # increment, head write, tail write, query: the parent paid a
        # fifth, reading its own entry back.
        assert meter.delta() == (4, 2, 0)

    def test_commit_naming_every_hosted_stream_is_three_rpcs(self, cluster):
        rt, maps, meter = _hosted_map(cluster)
        meter.mark()
        assert _three_plus_three(rt, maps[1])
        # The append and nothing else: no query (the grant is the
        # answer), no read (the commit record was written through).
        assert meter.delta() == (3, 1, 0)
        assert maps[1].get("k2") == 2

    def test_commit_over_two_hosted_maps_is_three_rpcs(self, cluster):
        rt, maps, meter = _hosted_map(cluster, oids=(1, 2))
        meter.mark()
        rt.begin_tx()
        maps[1].get("warm")
        maps[2].get("warm")
        maps[1].put("a", 1)
        maps[2].put("b", 2)
        assert rt.end_tx()
        assert meter.delta() == (3, 1, 0)

    def test_hosted_stream_outside_the_commit_still_sends_the_query(self, cluster):
        rt, maps, meter = _hosted_map(cluster, oids=(1, 2))
        meter.mark()
        assert _three_plus_three(rt, maps[1])
        # Map 2 is hosted but not in the transaction: a multi-stream
        # entry must reach all its hosted streams in one delivery, so
        # the sequencer is asked about both.
        assert meter.delta() == (4, 2, 0)

    def test_conflicting_commit_aborts_from_its_own_grant(self, cluster):
        rt, maps, meter = _hosted_map(cluster)
        rival = TangoRuntime(cluster, client_id=2)
        rival_map = TangoMap(rival, 1)
        rt.begin_tx()
        maps[1].get("k")
        maps[1].put("k", "mine")
        rival_map.put("k", "theirs")  # lands below our commit record
        meter.mark()
        assert not rt.end_tx()
        # The rival's entry is reached through our commit record's
        # backpointers and read once; still no sequencer query.
        assert meter.delta() == (4, 1, 1)
        assert maps[1].get("k") == "theirs"
        assert rt.stats["aborts"] == 1

    def test_foreign_entry_costs_exactly_one_storage_read(self, cluster):
        _rt, maps, meter = _hosted_map(cluster)
        other = TangoMap(TangoRuntime(cluster, client_id=2), 1)
        other.put("theirs", 7)
        meter.mark()
        assert maps[1].get("theirs") == 7
        assert meter.delta() == (2, 1, 1)  # query + read
        assert maps[1].get("theirs") == 7
        assert meter.delta() == (3, 2, 1)  # query only


class TestWriteThrough:
    def test_append_async_flight_and_append_batch_are_cached(self, cluster):
        streams = StreamClient(cluster.client())
        streams.open_stream(1)
        futures = [streams.append_async(b"f%d" % i, (1,)) for i in range(5)]
        flight = [f.result() for f in futures]
        batch = streams.append_batch([b"b%d" % i for i in range(4)], (1, 2))
        assert set(flight + batch) <= set(streams.cached_offsets())
        meter = _Meter(streams.corfu)
        streams.sync(1)
        played = [entry.payload for _off, entry, _sids in streams.play((1,))]
        assert played == [b"f%d" % i for i in range(5)] + [
            b"b%d" % i for i in range(4)
        ]
        assert meter.delta() == (1, 1, 0)  # the sync's query, nothing else

    def test_cached_entry_is_what_a_reader_decodes(self, cluster):
        streams = StreamClient(cluster.client())
        streams.open_stream(1)
        offsets = [streams.append(b"x%d" % i, (1, 2)) for i in range(6)]
        reader = cluster.client()
        for offset in offsets:
            assert streams.fetch(offset) == reader.read(offset)
        assert streams.corfu.reads == 0

    def test_lost_race_caches_the_retry_not_the_junk(self, cluster, monkeypatch):
        streams = StreamClient(cluster.client())
        streams.open_stream(1)
        streams.append(b"first", (1,))
        corfu = streams.corfu
        grant, junked = corfu._grant, []

        def raced(count, stream_ids):
            run = grant(count, stream_ids)
            if not junked:
                # A hole-filler gets to the middle reservation first.
                first, stride, _, _ = run
                junked.append(first + stride)
                cluster.client().fill(junked[0])
            return run

        monkeypatch.setattr(corfu, "_grant", raced)
        offsets = streams.append_batch([b"a", b"b", b"c"], (1,))
        assert junked[0] not in offsets and offsets[1] > offsets[2]
        cached = set(streams.cached_offsets())
        assert set(offsets) <= cached and junked[0] not in cached
        # The retried entry carries the retry's grant: its newest
        # backpointer is the batch's last entry, not what the first
        # grant said.
        retried = streams.fetch(offsets[1])
        assert retried.header_for(1).backpointers[0] == offsets[2]
        reader = cluster.client()
        for offset in offsets:
            assert streams.fetch(offset) == reader.read(offset)
        assert reader.read(junked[0]).is_junk
        assert corfu.reads == 0

    def test_sync_after_append_falls_back_once_the_entry_is_evicted(self, cluster):
        streams = StreamClient(cluster.client())
        streams.open_stream(1)
        streams.set_cache_budget(1)  # a single slot
        first = streams.append(b"first", (1,))
        second = streams.append(b"second", (1,))
        assert streams.cached_offsets() == (second,)
        meter = _Meter(streams.corfu)
        assert streams.sync_after_append(first, (1,)) == {1: second}
        # Evicted: the sequencer is asked, and the walk down from its
        # answer reads the evicted entry back like anyone else's.
        assert meter.delta() == (2, 1, 1)
        third = streams.append(b"third", (1,))
        meter.mark()
        assert streams.sync_after_append(third, (1,)) == {1: third}
        assert meter.delta() == (0, 0, 0)  # cached: the grant is the answer
        assert streams.known_offsets(1) == (first, second, third)

    def test_remote_write_only_client_caches_nothing(self, cluster):
        rt = TangoRuntime(cluster, client_id=1)
        hosted = TangoMap(rt, 1)
        hosted.get("x")
        baseline = rt.streams.cache_size
        for i in range(20):
            rt.update_helper(2, b'{"op": "put", "k": "r", "v": %d}' % i)
        rt.begin_tx()
        rt.update_helper(2, b'{"op": "put", "k": "r", "v": -1}')
        rt.update_helper(3, b'{"op": "put", "k": "r", "v": -1}')
        assert rt.end_tx()
        assert rt.streams.cache_size == baseline == 0
        writer_only = StreamClient(cluster.client())
        writer_only.append_batch([b"p", b"q"], (5, 6))
        assert writer_only.cache_size == 0


def _assert_same(seeded, decoded) -> None:
    """Equal field by field, down to the type of every field."""
    assert type(seeded) is type(decoded)
    if isinstance(seeded, tuple):
        assert len(seeded) == len(decoded)
        for mine, theirs in zip(seeded, decoded):
            _assert_same(mine, theirs)
    else:
        assert seeded == decoded


class TestNeverDecodeWhatYouEncoded:
    """Exact decode counts: ``_decode_payload`` is the runtime's one decode."""

    @pytest.fixture
    def decodes(self, monkeypatch) -> Counter:
        counts: Counter = Counter()
        decode = runtime_module._decode_payload

        def counting(entry):
            counts[entry.payload] += 1
            return decode(entry)

        monkeypatch.setattr(runtime_module, "_decode_payload", counting)
        return counts

    def test_own_put_then_get_decodes_nothing(self, cluster, decodes):
        _rt, maps, _meter = _hosted_map(cluster)
        maps[1].put("k", "v")
        assert maps[1].get("k") == "v"
        assert sum(decodes.values()) == 0

    def test_commit_decodes_nothing_not_even_its_own_record(self, cluster, decodes):
        rt, maps, _meter = _hosted_map(cluster)
        # end_tx plays its own commit record to decide it.
        assert _three_plus_three(rt, maps[1])
        assert maps[1].get("k2") == 2
        assert sum(decodes.values()) == 0

    def test_foreign_put_is_decoded_exactly_once(self, cluster, decodes):
        _rt, maps, _meter = _hosted_map(cluster)
        other = TangoMap(TangoRuntime(cluster, client_id=2), 1)
        other.put("theirs", 7)
        decodes.clear()
        assert maps[1].get("theirs") == 7
        assert list(decodes.values()) == [1]
        assert maps[1].get("theirs") == 7
        assert list(decodes.values()) == [1]

    def test_seeded_forms_equal_what_a_reader_decodes(
        self, cluster, decodes, monkeypatch
    ):
        rt, maps, _meter = _hosted_map(cluster)
        streams = rt.streams
        handed = []
        play = streams.play

        def spy(stream_ids, upto=None, parse=None):
            for offset, form, delivering in play(stream_ids, upto, parse):
                handed.append((streams.fetch(offset), form))
                yield offset, form, delivering

        monkeypatch.setattr(streams, "play", spy)
        maps[1].put("k", "v")  # an update
        assert maps[1].get("k") == "v"
        assert _three_plus_three(rt, maps[1])  # an inline commit
        assert sum(decodes.values()) == 0
        kinds = set()
        for entry, form in handed:
            _assert_same(form, tuple(decode_records(entry.payload)))
            kinds.update(type(record) for record in form)
        assert kinds == {UpdateRecord, CommitRecord}
        (commit,) = (form[0] for _e, form in handed if type(form[0]) is CommitRecord)
        assert len(commit.read_set) == 3 and len(commit.inline_updates) == 3
