"""Tests for log entries and stream headers (paper section 5 formats)."""

import dataclasses
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.corfu.entry import (
    DEFAULT_K,
    MAX_STREAM_ID,
    NO_BACKPOINTER,
    LogEntry,
    StreamHeader,
    encode_append,
    encode_run,
    header_bytes,
    make_header,
    max_payload_bytes,
)
from repro.errors import TooManyStreamsError
from tests import frozen_codec as frozen


class TestStreamHeader:
    def test_relative_round_trip(self):
        header = StreamHeader(7, (95, 90, 80, NO_BACKPOINTER))
        buf = bytearray()
        header.encode(buf, own_offset=100, k=4)
        decoded, off = StreamHeader.decode(bytes(buf), 0, own_offset=100, k=4)
        assert decoded == header
        assert off == len(buf) == header_bytes(4)

    def test_absolute_round_trip(self):
        header = StreamHeader(7, (1_000_000,), is_absolute=True)
        buf = bytearray()
        header.encode(buf, own_offset=2_000_000, k=4)
        decoded, _ = StreamHeader.decode(bytes(buf), 0, own_offset=2_000_000, k=4)
        assert decoded == header

    def test_header_size_is_12_bytes_with_k4(self):
        """Paper: "If K = 4 ... the header uses 12 bytes"."""
        assert header_bytes(4) == 12
        header = StreamHeader(1, (5, 4, 3, 2))
        buf = bytearray()
        header.encode(buf, own_offset=6, k=4)
        assert len(buf) == 12

    def test_absolute_header_same_size(self):
        header = StreamHeader(1, (5,), is_absolute=True)
        buf = bytearray()
        header.encode(buf, own_offset=6, k=4)
        assert len(buf) == 12  # 4 (id+flag) + 1 * 8 (absolute pointer)

    def test_stream_id_31_bits(self):
        StreamHeader(MAX_STREAM_ID, (NO_BACKPOINTER,) * 4)
        with pytest.raises(ValueError):
            StreamHeader(MAX_STREAM_ID + 1, ())
        with pytest.raises(ValueError):
            StreamHeader(-1, ())

    def test_relative_delta_overflow_rejected_at_encode(self):
        header = StreamHeader(1, (0,))  # delta of 100000 from offset 100000
        buf = bytearray()
        with pytest.raises(ValueError):
            header.encode(buf, own_offset=100_000, k=4)

    def test_previous_offset(self):
        assert StreamHeader(1, (42, 41)).previous_offset() == 42
        assert StreamHeader(1, ()).previous_offset() == NO_BACKPOINTER


class TestMakeHeader:
    def test_empty_stream(self):
        header = make_header(3, (), own_offset=10, k=4)
        assert not header.is_absolute
        assert header.backpointers == (NO_BACKPOINTER,) * 4

    def test_relative_when_deltas_fit(self):
        header = make_header(3, (99, 98, 97, 96), own_offset=100, k=4)
        assert not header.is_absolute
        assert header.backpointers == (99, 98, 97, 96)

    def test_individual_overflow_degrades_to_none(self):
        # Oldest pointer is 70000 back — beyond the 64K relative range.
        header = make_header(3, (99_999, 30_000), own_offset=100_000, k=4)
        assert not header.is_absolute
        assert header.backpointers == (99_999, NO_BACKPOINTER, NO_BACKPOINTER, NO_BACKPOINTER)

    def test_all_overflow_switches_to_absolute(self):
        """Paper: "To handle the case where all K deltas overflow, the
        header uses an alternative format"."""
        header = make_header(3, (10, 9, 8, 7), own_offset=1_000_000, k=4)
        assert header.is_absolute
        assert header.backpointers == (10,)  # K/4 pointers

    def test_round_trip_absolute_through_entry(self):
        header = make_header(3, (10,), own_offset=1_000_000, k=4)
        entry = LogEntry(headers=(header,), payload=b"x")
        raw = entry.encode(1_000_000)
        decoded = LogEntry.decode(raw, 1_000_000)
        assert decoded.headers[0].backpointers == (10,)
        assert decoded.headers[0].is_absolute


class TestLogEntry:
    def test_round_trip(self):
        headers = (
            make_header(1, (5, 4), 10, 4),
            make_header(2, (9,), 10, 4),
        )
        entry = LogEntry(headers=headers, payload=b"payload bytes")
        raw = entry.encode(10)
        decoded = LogEntry.decode(raw, 10)
        assert decoded.payload == b"payload bytes"
        assert decoded.stream_ids() == (1, 2)
        assert not decoded.is_junk

    def test_junk_entry(self):
        raw = LogEntry.junk().encode(5)
        decoded = LogEntry.decode(raw, 5)
        assert decoded.is_junk
        assert decoded.headers == ()
        assert decoded.payload == b""

    def test_header_for(self):
        entry = LogEntry(headers=(make_header(1, (), 0, 4),))
        assert entry.header_for(1) is not None
        assert entry.header_for(2) is None

    def test_too_many_streams(self):
        headers = tuple(make_header(i, (), 0, 4) for i in range(17))
        entry = LogEntry(headers=headers)
        with pytest.raises(TooManyStreamsError):
            entry.encode(0, max_streams=16)

    def test_max_payload_accounting(self):
        """An entry at the payload cap must encode within entry_size."""
        cap = max_payload_bytes(4096, max_streams=16, k=4)
        headers = tuple(make_header(i, (), 100, 4) for i in range(16))
        entry = LogEntry(headers=headers, payload=b"x" * cap)
        assert len(entry.encode(100)) <= 4096

    @given(
        payload=st.binary(max_size=512),
        offsets=st.lists(
            st.integers(min_value=0, max_value=999), max_size=4, unique=True
        ),
        own=st.integers(min_value=1000, max_value=2000),
    )
    def test_round_trip_property(self, payload, offsets, own):
        offsets = sorted(offsets, reverse=True)
        header = make_header(5, tuple(offsets), own, 4)
        entry = LogEntry(headers=(header,), payload=payload)
        decoded = LogEntry.decode(entry.encode(own), own)
        assert decoded.payload == payload
        back = [p for p in decoded.headers[0].backpointers if p != NO_BACKPOINTER]
        assert back == offsets[: len(back)]

    #: Gaps between consecutive entries of one stream, on both sides of
    #: the 16-bit relative-delta limit.
    _GAPS = st.one_of(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0xFFFF - 2, max_value=0xFFFF + 2),
        st.integers(min_value=0x10000, max_value=1 << 24),
    )

    @given(
        data=st.data(),
        k=st.sampled_from((4, 8, 16)),
        max_streams=st.integers(min_value=1, max_value=16),
        own=st.integers(min_value=0, max_value=1 << 34),
        payload=st.binary(max_size=256),
    )
    def test_what_the_writer_built_is_what_a_reader_decodes(
        self, data, k, max_streams, own, payload
    ):
        """The write-through cache keeps the entry the append routine
        built instead of reading it back: for every header
        ``make_header`` can produce — relative, individually
        overflowed to none, absolute (padded to K/4) — that object must
        equal the decoded one."""
        headers = []
        for sid in range(data.draw(st.integers(min_value=1, max_value=max_streams))):
            # The sequencer's last-K answer for the stream: newest
            # first, NO_BACKPOINTER-padded, possibly longer than K
            # (a batch prepends its own predecessors).
            last = _walk(data.draw, own, k)
            if data.draw(st.booleans()):
                last += [NO_BACKPOINTER] * max(0, k - len(last))
            headers.append(make_header(sid, tuple(last), own, k))
        entry = LogEntry(headers=tuple(headers), payload=payload)
        raw = entry.encode(own, k, max_streams)
        assert LogEntry.decode(raw, own, k) == entry
        assert len(raw) == 8 + len(headers) * header_bytes(k) + len(payload)


# -- equivalence with the frozen codec -----------------------------------------

#: Every buffer type a storage unit may hand the decoder.
_BUFFERS = st.sampled_from((bytes, bytearray, memoryview))


def _fill(n):
    return bytes(range(256)) * (n // 256) + bytes(range(n % 256))


def _walk(draw, own, k):
    """A stream's prior offsets below *own*, newest first, up to K + 2
    of them, spaced by :attr:`TestLogEntry._GAPS`."""
    last, cursor = [], own
    for gap in draw(st.lists(TestLogEntry._GAPS, max_size=k + 2)):
        cursor -= gap
        if cursor < 0:
            break
        last.append(cursor)
    return last


@st.composite
def _entries(draw):
    """(k, max_streams, own offset, entry) over every header shape
    ``make_header`` produces, junk entries, and payloads from empty to
    the entry's capacity."""
    k = draw(st.sampled_from((4, 8, 16)))
    max_streams = draw(st.integers(min_value=1, max_value=16))
    own = draw(st.integers(min_value=0, max_value=1 << 34))
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        return k, max_streams, own, LogEntry.junk()
    sids = draw(
        st.lists(
            st.integers(min_value=0, max_value=MAX_STREAM_ID),
            max_size=max_streams,
            unique=True,
        )
    )
    headers = []
    for sid in sids:
        last = _walk(draw, own, k)
        if draw(st.booleans()):
            last += [NO_BACKPOINTER] * max(0, k - len(last))
        header = make_header(sid, tuple(last), own, k)
        assert header == dataclasses.astuple(
            frozen.make_header(sid, tuple(last), own, k)
        )
        headers.append(header)
    cap = max_payload_bytes(4096, max_streams, k)
    payload = draw(
        st.one_of(
            st.binary(max_size=64),
            st.integers(min_value=0, max_value=cap).map(_fill),
        )
    )
    return k, max_streams, own, LogEntry(headers=tuple(headers), payload=payload)


def _frozen_entry(entry):
    return frozen.LogEntry(
        tuple(frozen.StreamHeader(*h) for h in entry.headers),
        entry.payload,
        entry.is_junk,
    )


def _case(k, own, *pointer_lists, payload=b"p" * 9):
    """(k, max_streams, own offset, entry): one header per pointer
    list, streams 1, 2, ... in order."""
    headers = tuple(
        make_header(sid, ptrs, own, k) for sid, ptrs in enumerate(pointer_lists, 1)
    )
    return k, 16, own, LogEntry(headers=headers, payload=payload)


#: Entries that run each decode path on every pass. At K = 4 an entry
#: of relative headers is one unpack (one header: the unrolled path);
#: an absolute header, or any other K, takes the per-header decoder.
#: A delta of 0 is "no pointer", never the entry's own offset.
_PATH_CASES = (
    _case(4, 100, (90, 80)),  # one relative header, two deltas of 0
    _case(4, 100, ()),  # one header, every delta 0
    _case(4, 0xFFFF, (0, 1, 2, 3)),  # the widest relative deltas
    _case(4, 100_000, (99_999, 99_990, 40_000), (99_998,), (), payload=b""),
    _case(4, 1_000_000, (999_999,), (10, 9), (), (999_990, 999_980)),  # absolute among relative
    _case(4, 1_000_000, (10,)),  # one absolute header
    _case(8, 100, tuple(range(99, 90, -1))),
    _case(8, 1_000_000, (999_999,), (10, 9)),
    _case(16, 100, (99, 98), ()),
    _case(16, 1_000_000, (10, 9, 8)),
    (4, 16, 7, LogEntry.junk()),
    (8, 16, 7, LogEntry.junk()),
)


def _path_examples(test):
    for case in _PATH_CASES:
        for buffer in (bytes, bytearray, memoryview):
            test = example(case=case, buffer=buffer, bad_sid=1)(test)
    return test


class TestFrozenCodecEquivalence:
    """The tuple value types against a verbatim copy of the
    frozen-dataclass codec they replaced (``tests/frozen_codec.py``)."""

    @given(case=_entries(), buffer=_BUFFERS, bad_sid=st.integers(min_value=1))
    @_path_examples
    def test_same_bytes_same_values(self, case, buffer, bad_sid):
        k, max_streams, own, entry = case
        raw = entry.encode(own, k, max_streams)
        assert raw == _frozen_entry(entry).encode(own, k, max_streams)

        decoded = LogEntry.decode(buffer(raw), own, k)
        reference = frozen.LogEntry.decode(raw, own, k)
        assert decoded == entry
        assert decoded._fields == tuple(
            f.name for f in dataclasses.fields(reference)
        )
        assert decoded == dataclasses.astuple(reference)
        for header, ref in zip(decoded.headers, reference.headers):
            assert type(header) is StreamHeader
            assert header == dataclasses.astuple(ref)
        assert hash(decoded) == hash(entry)
        assert type(decoded.payload) is bytes

        with pytest.raises(AttributeError):
            decoded.payload = b""
        for header in decoded.headers:
            with pytest.raises(AttributeError):
                header.stream_id = 0
        with pytest.raises(ValueError):
            StreamHeader(MAX_STREAM_ID + bad_sid, ())
        with pytest.raises(ValueError):
            StreamHeader(-bad_sid, ())

    @given(
        k=st.sampled_from((4, 8, 16)),
        own=st.integers(min_value=0xFFFF, max_value=1 << 34),
        is_absolute=st.booleans(),
        data=st.data(),
    )
    def test_short_pointer_lists_pad_identically(self, k, own, is_absolute, data):
        """Hand-built headers may carry fewer pointers than the format
        holds; both codecs pad them with the "none" sentinel."""
        if is_absolute:
            pointer = st.integers(min_value=0, max_value=own)
            size = max(1, k // 4)
        else:
            pointer = st.integers(min_value=own - 0xFFFF, max_value=own - 1)
            size = k
        ptrs = data.draw(
            st.lists(pointer | st.just(NO_BACKPOINTER), max_size=size)
        )
        header = StreamHeader(1, tuple(ptrs), is_absolute)
        buf, ref = bytearray(), bytearray()
        header.encode(buf, own, k)
        frozen.StreamHeader(1, tuple(ptrs), is_absolute).encode(ref, own, k)
        assert buf == ref
        decoded, off = StreamHeader.decode(bytes(buf), 0, own, k)
        expected, ref_off = frozen.StreamHeader.decode(bytes(ref), 0, own, k)
        assert decoded == dataclasses.astuple(expected)
        assert off == ref_off == len(buf)

    @given(case=_entries(), data=st.data())
    def test_truncated_prefix_or_headers_still_raise(self, case, data):
        k, max_streams, own, entry = case
        raw = entry.encode(own, k, max_streams)
        fixed = len(raw) - len(entry.payload)  # prefix, headers, length
        cut = data.draw(st.integers(min_value=0, max_value=fixed - 1))
        with pytest.raises(struct.error):
            frozen.LogEntry.decode(raw[:cut], own, k)
        with pytest.raises((struct.error, IndexError)):
            LogEntry.decode(raw[:cut], own, k)

    @pytest.mark.parametrize("case", _PATH_CASES)
    def test_every_truncation_of_every_path_decodes_as_frozen(self, case):
        """Cut anywhere: a cut before the payload raises in both
        codecs; a cut in the payload decodes to the same short entry."""
        k, max_streams, own, entry = case
        raw = entry.encode(own, k, max_streams)
        fixed = len(raw) - len(entry.payload)
        for cut in range(len(raw)):
            for buffer in (bytes, bytearray, memoryview):
                if cut < fixed:
                    with pytest.raises(struct.error):
                        frozen.LogEntry.decode(raw[:cut], own, k)
                    with pytest.raises((struct.error, IndexError)):
                        LogEntry.decode(buffer(raw[:cut]), own, k)
                else:
                    reference = frozen.LogEntry.decode(raw[:cut], own, k)
                    decoded = LogEntry.decode(buffer(raw[:cut]), own, k)
                    assert decoded == dataclasses.astuple(reference)


@st.composite
def _grants(draw):
    """(k, max_streams, own offset, stream ids, backpointers): each
    stream's pointer list newest first, shorter than K, padded with
    ``NO_BACKPOINTER`` or holed by it, longer than K (a batch's own
    predecessors come first), with deltas on both sides of 0xFFFF and
    all of them past it (the absolute form)."""
    k = draw(st.sampled_from((4, 8, 16)))
    max_streams = draw(st.integers(min_value=1, max_value=16))
    own = draw(st.integers(min_value=0, max_value=1 << 34))
    sids = draw(
        st.lists(
            st.integers(min_value=0, max_value=MAX_STREAM_ID),
            max_size=max_streams,
            unique=True,
        )
    )
    backpointers = {}
    for sid in sids:
        last = _walk(draw, own, k)
        shape = draw(st.sampled_from(("as drawn", "padded", "holed")))
        if shape == "padded":
            last += [NO_BACKPOINTER] * max(0, k - len(last))
        elif shape == "holed" and last:
            for i in draw(st.sets(st.integers(0, len(last) - 1))):
                last[i] = NO_BACKPOINTER
        backpointers[sid] = tuple(last)
    return k, max_streams, own, tuple(sids), backpointers


class TestOnePassEncoder:
    """``encode_append`` against the frozen codec's ``make_header`` +
    ``LogEntry.encode``, and the entry it builds for an observer against
    ``LogEntry.decode`` of its bytes."""

    @given(grant=_grants(), payload=st.binary(max_size=256))
    def test_same_bytes_as_the_frozen_codec(self, grant, payload):
        k, max_streams, own, sids, backpointers = grant
        raw, entry = encode_append(own, sids, backpointers, payload, k, keep=True)
        reference = frozen.LogEntry(
            headers=tuple(
                frozen.make_header(sid, backpointers[sid], own, k) for sid in sids
            ),
            payload=payload,
        ).encode(own, k, max_streams)
        assert raw == reference
        assert encode_append(own, sids, backpointers, payload, k) == (raw, None)

        decoded = LogEntry.decode(raw, own, k)
        assert type(entry) is LogEntry
        assert entry.payload == decoded.payload and type(entry.payload) is bytes
        assert entry.is_junk is decoded.is_junk is False
        assert len(entry.headers) == len(decoded.headers) == len(sids)
        for built, read in zip(entry.headers, decoded.headers):
            assert type(built) is StreamHeader
            assert built.stream_id == read.stream_id
            assert built.backpointers == read.backpointers
            assert type(built.backpointers) is tuple
            assert built.is_absolute is read.is_absolute
        assert entry == decoded

    @pytest.mark.parametrize("pointer", [10, 11])
    def test_a_pointer_not_before_its_entry_is_refused(self, pointer):
        with pytest.raises(ValueError):
            encode_append(10, (3,), {3: (pointer, 9)}, b"x", 4)



@st.composite
def _runs(draw):
    """(k, first offset, stride, stream ids, prior tails, payloads): a
    granted run of 1-40 entries, each stream's live prior tail newest
    first below the run, with deltas on both sides of 0xFFFF."""
    k = draw(st.sampled_from((1, 2, 4, 8)))
    first = draw(st.integers(min_value=0, max_value=1 << 34))
    stride = draw(st.integers(min_value=1, max_value=3))
    sids = tuple(draw(st.lists(st.integers(0, MAX_STREAM_ID), max_size=3, unique=True)))
    prior = {sid: tuple(_walk(draw, first, k)) for sid in sids}
    payloads = draw(st.lists(st.binary(max_size=16), min_size=1, max_size=40))
    return k, first, stride, sids, prior, payloads


def _run_example(k, first, stride, prior, length):
    return {
        "run": (k, first, stride, tuple(prior), prior, [b"p%d" % j for j in range(length)])
    }


class TestRunEncoder:
    """``encode_run`` against the frozen codec's ``make_header`` +
    ``LogEntry.encode`` at each entry's offset, and the entries it
    builds for an observer against ``LogEntry.decode`` of its bytes."""

    @given(run=_runs())
    # Every path on every pass: one pack per head, a prior delta that
    # overflows while the window still reaches it (j < K), every delta
    # overflowing (absolute), K = 8, three streams, stride 2, a run of
    # one, runs longer than K + 1, and a streamless run.
    @example(**_run_example(4, 1000, 1, {5: (990, 980)}, 7))
    @example(**_run_example(4, 100_000, 1, {5: (99_990, 20_000)}, 6))
    @example(**_run_example(4, 100_000, 1, {5: (20_000, 10_000)}, 3))
    @example(**_run_example(8, 500, 1, {1: tuple(range(499, 489, -1))}, 12))
    @example(**_run_example(4, 700, 1, {1: (699,), 2: (), 3: (650, 600, 550, 500)}, 7))
    @example(**_run_example(4, 901, 2, {2: (899, 897)}, 8))
    @example(**_run_example(4, 50, 1, {9: (40,)}, 1))
    @example(**_run_example(1, 70_000, 3, {4: (1,)}, 4))
    @example(**_run_example(4, 10, 1, {}, 3))
    def test_every_entry_is_the_frozen_codecs(self, run):
        k, first, stride, sids, prior, payloads = run
        entries, built = encode_run(first, stride, sids, prior, payloads, k, keep=True)
        assert len(entries) == len(built) == len(payloads)
        for j, ((offset, raw), entry, payload) in enumerate(zip(entries, built, payloads)):
            assert offset == first + j * stride
            batch = tuple(range(offset - stride, first - 1, -stride))
            reference = frozen.LogEntry(
                headers=tuple(
                    frozen.make_header(sid, batch + prior[sid], offset, k) for sid in sids
                ),
                payload=payload,
            ).encode(offset, k, 16)
            assert raw == reference
            assert type(entry) is LogEntry
            assert entry == LogEntry.decode(raw, offset, k)
            assert all(type(h.backpointers) is tuple for h in entry.headers)
        assert encode_run(first, stride, sids, prior, payloads, k) == (
            entries, [None] * len(payloads)
        )

    @pytest.mark.parametrize("pointer", [10, 11])
    def test_a_pointer_not_before_its_entry_is_refused(self, pointer):
        with pytest.raises(ValueError):
            encode_run(10, 1, (3,), {3: (pointer, 9)}, [b"x"], 4)

class TestValueSemantics:
    def test_equal_to_a_plain_tuple_of_its_fields(self):
        header = StreamHeader(3, (9, NO_BACKPOINTER))
        entry = LogEntry(headers=(header,), payload=b"p")
        assert header == (3, (9, NO_BACKPOINTER), False)
        assert entry == (((3, (9, NO_BACKPOINTER), False),), b"p", False)
        assert hash(entry) == hash((((3, (9, NO_BACKPOINTER), False),), b"p", False))

    def test_no_new_attributes(self):
        entry = LogEntry.junk()
        with pytest.raises(AttributeError):
            entry.extra = 1
        with pytest.raises(AttributeError):
            StreamHeader(1, ()).extra = 1
