"""Tests for the streaming layer: sync, readnext, multiappend, holes."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corfu import CorfuCluster
from repro.corfu.entry import NO_BACKPOINTER
from repro.errors import UnknownStreamError, UnwrittenError
from repro.streams import StreamClient
from repro.streams.stream import CACHE_ENTRY_OVERHEAD


@pytest.fixture
def sclient(cluster):
    return StreamClient(cluster.client())


class TestBasics:
    def test_unknown_stream_rejected(self, sclient):
        with pytest.raises(UnknownStreamError):
            sclient.readnext(99)

    def test_empty_stream_sync(self, sclient):
        sclient.open_stream(1)
        assert sclient.sync(1) == NO_BACKPOINTER
        assert sclient.readnext(1) is None

    def test_append_sync_readnext(self, sclient):
        sclient.open_stream(1)
        sclient.append(b"first", (1,))
        sclient.append(b"second", (1,))
        assert sclient.sync(1) == 1
        offset, entry = sclient.readnext(1)
        assert (offset, entry.payload) == (0, b"first")
        offset, entry = sclient.readnext(1)
        assert (offset, entry.payload) == (1, b"second")
        assert sclient.readnext(1) is None

    def test_streams_skip_other_streams(self, sclient):
        """readnext skips entries belonging to other streams."""
        sclient.open_stream(1)
        sclient.append(b"a", (1,))
        sclient.append(b"noise", (2,))
        sclient.append(b"b", (1,))
        sclient.sync(1)
        assert sclient.readnext(1)[0] == 0
        assert sclient.readnext(1)[0] == 2
        assert sclient.readnext(1) is None

    def test_open_is_idempotent(self, sclient):
        sclient.open_stream(1)
        sclient.append(b"a", (1,))
        sclient.sync(1)
        sclient.readnext(1)
        sclient.open_stream(1)  # must not reset the iterator
        assert sclient.readnext(1) is None

    def test_position_and_pending(self, sclient):
        sclient.open_stream(1)
        assert sclient.position(1) == NO_BACKPOINTER
        for i in range(3):
            sclient.append(b"e%d" % i, (1,))
        sclient.sync(1)
        assert sclient.pending(1) == 3
        sclient.readnext(1)
        assert sclient.position(1) == 0
        assert sclient.pending(1) == 2

    def test_reset_replays_history(self, sclient):
        sclient.open_stream(1)
        for i in range(3):
            sclient.append(b"e%d" % i, (1,))
        sclient.sync(1)
        while sclient.readnext(1):
            pass
        sclient.reset(1)
        assert sclient.readnext(1)[1].payload == b"e0"

    def test_readnext_upto(self, sclient):
        """Bounded playback instantiates historical views."""
        sclient.open_stream(1)
        for i in range(4):
            sclient.append(b"e%d" % i, (1,))
        sclient.sync(1)
        assert sclient.readnext(1, upto=1)[0] == 0
        assert sclient.readnext(1, upto=1)[0] == 1
        assert sclient.readnext(1, upto=1) is None  # held back
        assert sclient.readnext(1)[0] == 2  # unbounded resumes


class TestMultiappend:
    def test_entry_in_both_streams(self, sclient):
        sclient.open_stream(1)
        sclient.open_stream(2)
        offset = sclient.append(b"both", (1, 2))
        sclient.sync(1)
        sclient.sync(2)
        assert sclient.readnext(1)[0] == offset
        assert sclient.readnext(2)[0] == offset

    def test_entry_fetched_once(self, cluster):
        """The streaming layer fetches a multiappended entry once and
        caches it (paper section 4.1)."""
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        sclient.open_stream(2)
        sclient.append(b"both", (1, 2))
        sclient.sync(1)
        sclient.sync(2)
        before = sclient.corfu.reads
        sclient.readnext(1)
        mid = sclient.corfu.reads
        sclient.readnext(2)
        assert sclient.corfu.reads == mid  # second delivery from cache
        assert mid >= before


class TestBackpointerWalk:
    def test_sync_uses_strided_reads(self, cluster):
        """Building the list takes ~N/K reads, not N (paper section 5)."""
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        n = 40
        for i in range(n):
            sclient.append(b"e%d" % i, (1,))
        before = sclient.corfu.reads
        sclient.sync(1)
        walk_reads = sclient.corfu.reads - before
        assert walk_reads <= n // 4 + 2  # K=4 stride

    def test_incremental_sync_reads_only_new_entries(self, sclient):
        sclient.open_stream(1)
        for i in range(10):
            sclient.append(b"e%d" % i, (1,))
        sclient.sync(1)
        sclient.append(b"new", (1,))
        before = sclient.corfu.reads
        assert sclient.sync(1) == 10
        assert sclient.corfu.reads - before <= 2
        assert sclient.pending(1) == 11

    def test_interleaved_streams_sync_correctly(self, sclient):
        sclient.open_stream(1)
        sclient.open_stream(2)
        expected = {1: [], 2: []}
        for i in range(30):
            sid = 1 if i % 3 else 2
            offset = sclient.append(b"e%d" % i, (sid,))
            expected[sid].append(offset)
        results = sclient.sync_many((1, 2))
        assert results[1] == expected[1][-1]
        assert results[2] == expected[2][-1]
        for sid in (1, 2):
            got = []
            while True:
                item = sclient.readnext(sid)
                if item is None:
                    break
                got.append(item[0])
            assert got == expected[sid]

    def test_sync_after_sequencer_failover(self, cluster):
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        for i in range(10):
            sclient.append(b"e%d" % i, (1,))
        cluster.crash_sequencer()
        assert sclient.sync(1) == 9
        assert sclient.pending(1) == 10


class TestHolesAndJunk:
    def test_hole_filled_during_sync(self, cluster):
        """A crashed appender's reserved offset becomes junk; the stream
        skips it."""
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        sclient.append(b"a", (1,))
        # Crash simulation: sequencer assigned offset 1 to stream 1 but
        # nothing was written.
        cluster.sequencer().increment(stream_ids=(1,))
        sclient.append(b"b", (1,))  # offset 2
        assert sclient.sync(1) == 2
        delivered = []
        while True:
            item = sclient.readnext(1)
            if item is None:
                break
            delivered.append(item)
        payloads = [e.payload for _, e in delivered if not e.is_junk]
        assert payloads == [b"a", b"b"]

    def test_backward_scan_past_junk(self, cluster):
        """When backpointers dead-end in junk, the client scans the log
        backward for a valid entry (paper section 5)."""
        sclient = StreamClient(cluster.client())
        writer = StreamClient(cluster.client())
        writer.append(b"a", (1,))  # offset 0
        # Force the next K=4 stream-1 reservations to be holes.
        for _ in range(4):
            cluster.sequencer().increment(stream_ids=(1,))
        writer.append(b"b", (1,))  # offset 5
        sclient.open_stream(1)
        assert sclient.sync(1) == 5
        assert sclient.backward_scans > 0
        offsets = []
        while True:
            item = sclient.readnext(1)
            if item is None:
                break
            if not item[1].is_junk:
                offsets.append(item[0])
        assert offsets == [0, 5]

    def test_custom_hole_handler_can_defer(self, cluster):
        """A handler modeling the 100ms timeout may decline to fill."""
        attempts = []

        def patient_handler(offset):
            attempts.append(offset)
            if len(attempts) >= 2:
                cluster.client().fill(offset)

        sclient = StreamClient(cluster.client(), hole_handler=patient_handler)
        cluster.sequencer().increment(stream_ids=(1,))
        sclient.open_stream(1)
        with pytest.raises(UnwrittenError):
            sclient.fetch(0)
        assert sclient.fetch(0).is_junk  # second attempt fills
        assert attempts == [0, 0]

    def test_trimmed_offsets_read_as_junk(self, cluster):
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        sclient.append(b"old", (1,))
        sclient.append(b"new", (1,))
        sclient.corfu.trim(0)
        assert sclient.fetch(0).is_junk


class TestCache:
    def test_cache_eviction(self, cluster):
        sclient = StreamClient(cluster.client(), cache_entries=4)
        offsets = [sclient.append(b"e%d" % i, (1,)) for i in range(8)]
        for offset in offsets:
            sclient.fetch(offset)
        assert len(sclient._cache) == 4

    def test_lru_keeps_hot_entries(self, cluster):
        sclient = StreamClient(cluster.client(), cache_entries=2)
        a = sclient.append(b"a", (1,))
        b = sclient.append(b"b", (1,))
        c = sclient.append(b"c", (1,))
        sclient.fetch(a)
        sclient.fetch(b)
        sclient.fetch(a)  # a is now most-recent
        sclient.fetch(c)  # evicts b
        reads_before = sclient.corfu.reads
        sclient.fetch(a)
        assert sclient.corfu.reads == reads_before  # cache hit


def _storage_rpcs(sclient, cluster) -> int:
    stats = sclient.corfu.net_stats()
    return sum(
        stats[n]["rpcs"] for n in cluster.projection.all_nodes() if n in stats
    )


class TestSeek:
    """seek positions by bisection; same answers as the old linear walk."""

    @pytest.fixture
    def odd(self, sclient):
        """Stream 1 holds offsets 1, 3, 5, 7, 9 (stream 2 the even ones)."""
        sclient.open_stream(1)
        for i in range(10):
            sclient.append(b"e%d" % i, (1,) if i % 2 else (2,))
        sclient.sync(1)
        assert sclient.known_offsets(1) == (1, 3, 5, 7, 9)
        return sclient

    @pytest.mark.parametrize(
        "after, nxt",
        [
            (NO_BACKPOINTER, 1),  # below the first offset
            (0, 1),
            (4, 5),  # between two
            (5, 7),  # exactly on one
            (9, None),  # on the last
            (100, None),  # beyond the last
        ],
    )
    def test_seek_lands_past_after_offset(self, odd, after, nxt):
        odd.seek(1, 7)  # somewhere else first: seek is absolute
        odd.seek(1, after)
        assert odd.peek_offset(1) == nxt

    def test_seek_after_forget_below_moved_the_list(self, odd):
        odd.set_cache_budget(1 << 20)  # bounded mode: a trim forgets offsets
        odd.corfu.trim_prefix(4)
        assert odd.known_offsets(1) == (5, 7, 9)
        odd.seek(1, 5)
        assert odd.peek_offset(1) == 7
        assert odd.position(1) == 5
        odd.seek(1, 0)  # below everything still listed
        assert odd.peek_offset(1) == 5
        assert odd.position(1) == 3  # the trim floor stands in
        odd.seek(1, 9)
        assert odd.peek_offset(1) is None


class TestMergedPlay:
    """StreamClient.play: several streams, log order, a window at a time."""

    def test_log_order_one_delivery_per_entry(self, sclient):
        for sid in (1, 2, 3):
            sclient.open_stream(sid)
        sclient.append(b"a", (1,))  # 0
        sclient.append(b"b", (2,))  # 1
        sclient.append(b"ab", (1, 2))  # 2
        sclient.append(b"other", (9,))  # 3: not played
        sclient.append(b"c", (3,))  # 4
        sclient.append(b"abc", (3, 1, 2))  # 5
        sclient.sync_many((1, 2, 3))
        played = [
            (off, entry.payload, sids)
            for off, entry, sids in sclient.play((2, 1, 3))
        ]
        # Once per entry, every delivering stream named in the order asked.
        assert played == [
            (0, b"a", (1,)),
            (1, b"b", (2,)),
            (2, b"ab", (2, 1)),
            (4, b"c", (3,)),
            (5, b"abc", (2, 1, 3)),
        ]
        assert [sclient.pending(sid) for sid in (1, 2, 3)] == [0, 0, 0]
        assert list(sclient.play((1, 2, 3))) == []

    def test_upto_holds_back_and_reads_nothing_above(self, cluster, sclient):
        sclient.open_stream(1)
        # Another client's appends: our own would be written through
        # to the cache, and this is about what playback reads.
        writer = StreamClient(cluster.client())
        for i in range(6):
            writer.append(b"e%d" % i, (1,))
        sclient.sync(1)
        assert [off for off, _, _ in sclient.play((1,), upto=2)] == [0, 1, 2]
        assert not set(sclient.cached_offsets()) & {3, 5}  # 4: the sync walk
        assert sclient.readnext(1, upto=2) is None
        assert [off for off, _, _ in sclient.play((1,))] == [3, 4, 5]

    def test_stopping_early_leaves_the_rest_undelivered(self, sclient):
        sclient.open_stream(1)
        sclient.open_stream(2)
        for i in range(8):
            sclient.append(b"e%d" % i, (1, 2) if i % 2 else (1,))
        sclient.sync_many((1, 2))
        for off, _entry, _sids in sclient.play((1, 2)):
            if off == 2:
                break
        assert sclient.position(1) == 2 and sclient.position(2) == 1
        assert [off for off, _, _ in sclient.play((1, 2))] == [3, 4, 5, 6, 7]

    def test_iterator_moved_mid_window_is_left_where_it_stands(self, sclient):
        """seek/reset between two yields win over the merged window."""
        sclient.open_stream(1)
        for i in range(6):
            sclient.append(b"e%d" % i, (1,))
        sclient.sync(1)
        seen = []
        for off, _entry, _sids in sclient.play((1,)):
            seen.append(off)
            if off == 1:
                sclient.seek(1, 3)
        assert seen == [0, 1, 4, 5]

    def test_hole_surfaces_once_and_stays_undelivered(self, cluster):
        attempts = []

        def patient(offset):
            attempts.append(offset)
            if len(attempts) >= 2:
                cluster.client().fill(offset)

        sclient = StreamClient(cluster.client(), hole_handler=patient)
        sclient.open_stream(1)
        sclient.append(b"a", (1,))  # 0
        cluster.sequencer().increment(stream_ids=(1,))  # hole at 1
        sclient.append(b"b", (1,))  # 2
        sclient.sync(1)
        assert sclient.known_offsets(1) == (0, 1, 2)
        seen = []
        with pytest.raises(UnwrittenError):
            for off, _entry, _sids in sclient.play((1,)):
                seen.append(off)
        # The batched warm-up skipped the hole; the per-offset fetch
        # ran the handler (once) and the hole was not consumed.
        assert seen == [0] and attempts == [1]
        assert sclient.peek_offset(1) == 1
        rest = [(off, e.is_junk) for off, e, _ in sclient.play((1,))]
        assert rest == [(1, True), (2, False)]
        assert attempts == [1, 1]

    def test_known_offsets_are_read_in_exact_batches(self):
        """A window's misses cost one read_many per chain, not ~N/3 rounds."""
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = cluster.client()
        n = 200
        for i in range(n):
            writer.append(b"e%d" % i, (1,))
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        sclient.sync(1)  # the walk caches every 4th entry
        before = _storage_rpcs(sclient, cluster)
        assert len(list(sclient.play((1,)))) == n
        windows = -(-n // 64)
        assert _storage_rpcs(sclient, cluster) - before <= 2 * windows
        # The same goes for the one-stream iterator (it used to slide
        # its window by one and end up reading two offsets per round).
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        sclient.sync(1)
        before = _storage_rpcs(sclient, cluster)
        while sclient.readnext(1) is not None:
            pass
        assert _storage_rpcs(sclient, cluster) - before <= 2 * windows

    def test_scan_keeps_the_callers_order_and_stops_lazily(self):
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        sclient = StreamClient(cluster.client())
        offsets = [sclient.append(b"e%d" % i, (1,)) for i in range(200)]
        newest_first = list(reversed(offsets))
        reads0 = sclient.corfu.reads
        for off, entry in sclient.scan(newest_first):
            assert entry.payload == b"e%d" % off
            if off == 190:
                break
        assert sclient.corfu.reads - reads0 == 64  # one round, no more
        assert [off for off, _ in sclient.scan(newest_first)] == newest_first
        assert sclient.corfu.reads - reads0 == 200  # each entry read once


def _parser(calls):
    def parse(entry):
        calls.append(entry.payload)
        return (entry.payload.upper(),)

    return parse


def _form(sclient, offset, parse):
    """What a one-offset ``scan`` with *parse* hands out (and remembers)."""
    ((_off, form),) = sclient.scan((offset,), parse)
    return form


class TestDecodedSlot:
    """The slot's decoded form: one parse per cached residency of an entry.

    ``scan``/``lookahead`` with a ``parse`` remember what they parse;
    ``play`` with one is the entry's last reader and takes it.
    """

    def test_parsed_once_while_cached(self, sclient):
        calls = []
        parse = _parser(calls)
        off = sclient.append(b"abc", (1,))
        sclient.fetch(off)
        first = _form(sclient, off, parse)
        assert first == (b"ABC",)
        assert _form(sclient, off, parse) is first
        assert calls == [b"abc"]

    def test_decoded_form_is_charged_and_leaves_with_its_entry(self, cluster):
        sclient = StreamClient(cluster.client(), cache_entries=2)
        calls = []
        parse = _parser(calls)
        a = sclient.append(b"a" * 50, (1,))
        assert sclient.resident_bytes() == 0
        sclient.fetch(a)
        raw = sclient.resident_bytes()
        _form(sclient, a, parse)
        assert sclient.resident_bytes() == 2 * raw
        # LRU eviction takes both halves of the slot...
        for i in range(2):
            sclient.fetch(sclient.append(b"x%d" % i, (1,)))
        assert a not in sclient.cached_offsets()
        assert sclient.resident_bytes() < 2 * raw
        _form(sclient, a, parse)
        assert calls == [b"a" * 50] * 2
        # ...and so does a trim: nothing of the offset stays resident.
        sclient.corfu.trim(a)
        assert a not in sclient.cached_offsets()
        junk = sclient.fetch(a)
        assert junk.is_junk and _form(sclient, a, parse) == (b"",)

    def test_uncached_entry_is_parsed_but_not_remembered(self, cluster):
        sclient = StreamClient(cluster.client(), cache_entries=1)
        calls = []
        parse = _parser(calls)
        a = sclient.append(b"a", (1,))
        b = sclient.append(b"b", (1,))
        sclient.fetch(a)
        scan = sclient.scan((a,), parse)
        assert next(scan) == (a, (b"A",))
        sclient.fetch(b)  # evicts a before the round remembers its parse
        before = sclient.resident_bytes()
        assert list(scan) == []
        assert sclient.resident_bytes() == before
        assert sclient.cached_offsets() == (b,)
        assert _form(sclient, a, parse) == (b"A",)
        assert calls == [b"a", b"a"]

    def test_last_reader_takes_the_form_and_leaves_nothing(self, sclient):
        calls = []
        parse = _parser(calls)
        sclient.open_stream(1)
        off = sclient.append(b"abc", (1,))  # written through, raw
        sclient.sync(1)
        raw = sclient.resident_bytes()
        kept = _form(sclient, off, parse)
        assert sclient.resident_bytes() == 2 * raw
        # Playback hands the remembered object over and forgets it...
        ((_off, form, _sids),) = sclient.play((1,), parse=parse)
        assert form is kept
        assert sclient.resident_bytes() == raw and calls == [b"abc"]
        # ...and does not remember a parse of its own.
        sclient.reset(1)
        ((_off, form, _sids),) = sclient.play((1,), parse=parse)
        assert form == kept
        assert sclient.resident_bytes() == raw and calls == [b"abc"] * 2
        _form(sclient, off, parse)
        assert sclient.resident_bytes() == 2 * raw and calls == [b"abc"] * 3

    def test_a_none_parse_is_refused_and_charges_nothing(self, cluster):
        # None is a slot's "not decoded yet": remembering it would charge
        # the slot again on every call, and a budget would then evict
        # the whole cache.
        sclient = StreamClient(cluster.client())
        sclient.set_cache_budget(1 << 20)
        off = cluster.client().append(b"abc", (1,))
        sclient.fetch(off)
        raw = sclient.resident_bytes()
        for _ in range(3):
            with pytest.raises(TypeError):
                _form(sclient, off, lambda e: None)
        sclient.open_stream(1)
        sclient.sync(1)
        with pytest.raises(TypeError):
            list(sclient.play((1,), parse=lambda e: None))
        assert sclient.resident_bytes() == raw
        assert _form(sclient, off, lambda e: (e.payload,)) == (b"abc",)
        assert sclient.resident_bytes() == 2 * raw


class TestWindowHandOver:
    """play(parse=...): forms leave with delivery, not with collection."""

    @staticmethod
    def _seeded(sclient, n):
        """*n* entries on stream 1, each with a remembered form."""
        sclient.open_stream(1)
        offsets = [sclient.append(b"e%d" % i, (1,)) for i in range(n)]
        sclient.sync(1)
        seeding = []
        forms = dict(sclient.scan(offsets, _parser(seeding)))
        assert len(seeding) == n
        return offsets, forms

    @staticmethod
    def _raw(sclient, offsets):
        return sum(
            len(sclient.fetch(off).payload) + CACHE_ENTRY_OVERHEAD for off in offsets
        )

    def test_abandoned_window_keeps_undelivered_forms(self, sclient):
        offsets, forms = self._seeded(sclient, 10)
        raw = self._raw(sclient, offsets)
        assert sclient.resident_bytes() == 2 * raw
        calls = []
        player = sclient.play((1,), parse=_parser(calls))
        for _ in range(3):
            off, form, _sids = next(player)
            assert form is forms[off]
        player.close()  # mid-window
        assert sclient.position(1) == offsets[2]
        delivered, rest = offsets[:3], offsets[3:]
        assert sclient.resident_bytes() == self._raw(sclient, delivered) + 2 * self._raw(
            sclient, rest
        )
        # The next play hands the kept forms over without parsing again.
        played = list(sclient.play((1,), parse=_parser(calls)))
        assert [off for off, _f, _s in played] == rest
        assert all(form is forms[off] for off, form, _s in played)
        assert calls == [] and sclient.resident_bytes() == raw

    def test_entry_evicted_inside_a_window_is_delivered_in_order(self, cluster):
        """Under a budget: evicted after the window collected it, an entry
        is delivered with the form it was collected with; gone before
        collection, it is read again (through ``fetch``) and parsed."""
        sclient = StreamClient(cluster.client())
        offsets, forms = self._seeded(sclient, 12)
        calls = []
        played = []
        for off, form, _sids in sclient.play((1,), parse=_parser(calls)):
            played.append(off)
            assert form == forms[off]
            if off == offsets[1]:
                sclient.set_cache_budget(1)  # evicts all but the youngest
            assert sclient.resident_bytes() >= 0
        assert played == offsets and calls == []
        # The window's hand-over skipped the evicted slots: no negative
        # and no stale charge.
        cached = sclient.cached_offsets()
        assert sclient.resident_bytes() == self._raw(sclient, cached)
        # Not cached when the window collects it (a lone miss, which no
        # batched round claims): read through fetch, parsed once more.
        sclient.set_cache_budget(None)
        sclient.fetch_many(offsets[:10])
        assert offsets[10] not in sclient.cached_offsets()
        sclient.reset(1)
        fetched = []
        fetch = sclient.fetch
        sclient.fetch = lambda off: fetched.append(off) or fetch(off)
        replayed = [off for off, _f, _s in sclient.play((1,), parse=_parser(calls))]
        assert replayed == offsets and fetched == [offsets[10]]
        assert calls == [b"e%d" % i for i in range(12)]
        assert sclient.resident_bytes() == self._raw(sclient, offsets)

    def test_junk_goes_through_parse(self, cluster):
        sclient = StreamClient(cluster.client())
        sclient.open_stream(1)
        sclient.append(b"a", (1,))
        hole, _ = cluster.sequencer().increment(stream_ids=(1,))
        cluster.client().fill(hole)
        sclient.sync(1)
        calls = []
        played = [(off, form) for off, form, _s in sclient.play((1,), parse=_parser(calls))]
        assert played == [(0, (b"A",)), (hole, (b"",))]
        assert calls == [b"a", b""]


_membership = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.frozensets(st.integers(min_value=1, max_value=n), min_size=1),
            min_size=1,
            max_size=120,
        ),
    )
)


class TestWindowBounds:
    """play under a byte budget that holds fewer than 64 entries."""

    @given(
        layout=_membership,
        budget=st.sampled_from((2048, 4096, 8192)),
        upto_frac=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    )
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_windows_fit_the_warm_limit_and_read_each_entry_once(
        self, layout, budget, upto_frac
    ):
        n_streams, members = layout
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer = cluster.client()
        for i, sids in enumerate(members):
            writer.append(b"e%d" % i, tuple(sorted(sids)))
        sclient = StreamClient(cluster.client())
        sclient.set_cache_budget(budget)
        ids = tuple(range(n_streams, 0, -1))  # not ascending on purpose
        for sid in ids:
            sclient.open_stream(sid)
        sclient.sync_many(ids)
        upto = None if upto_frac is None else int(upto_frac * len(members))
        # The one-at-a-time reference: every known offset up to *upto*,
        # ascending, delivered to the streams holding it in *ids* order.
        known = {sid: set(sclient.known_offsets(sid)) for sid in ids}
        expected = [
            (off, tuple(sid for sid in ids if off in known[sid]))
            for off in sorted(set().union(*known.values()))
            if upto is None or off <= upto
        ]
        corfu = sclient.corfu
        read, read_many = corfu.read, corfu.read_many
        rounds, reads = [], []

        def counting_read(offset):
            reads.append(offset)
            return read(offset)

        def counting_read_many(offsets):
            with sclient._cache_lock:
                rounds.append((len(offsets), sclient._warm_limit_locked()))
            reads.extend(offsets)
            return read_many(offsets)

        corfu.read, corfu.read_many = counting_read, counting_read_many
        cached = set(sclient.cached_offsets())
        played = []
        for off, entry, sids in sclient.play(ids, upto):
            assert entry.payload == b"e%d" % off
            played.append((off, sids))
        assert played == expected
        assert all(size <= limit < 64 for size, limit in rounds)
        # Every storage read is of an offset played, none twice, and
        # what was not already cached was read.
        offsets = {off for off, _ in played}
        assert len(reads) == len(set(reads))
        assert offsets - cached <= set(reads) <= offsets
