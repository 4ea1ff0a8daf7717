"""Tests for Tango record serialization."""

import dataclasses
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.tango.records import (
    NO_TX,
    NO_VERSION,
    CheckpointRecord,
    CommitRecord,
    DecisionRecord,
    DeltaCheckpointRecord,
    ReadSetEntry,
    UpdateRecord,
    decode_records,
    encode_records,
)
from tests import frozen_codec as frozen


class TestUpdateRecord:
    def test_round_trip(self):
        record = UpdateRecord(7, b"payload", key=b"k1", tx_id=42)
        decoded = decode_records(encode_records([record]))
        assert decoded == [record]

    def test_no_key(self):
        record = UpdateRecord(7, b"payload")
        decoded = decode_records(encode_records([record]))[0]
        assert decoded.key is None
        assert decoded.tx_id == NO_TX

    def test_speculative_flag(self):
        assert UpdateRecord(1, b"x", tx_id=5).is_speculative
        assert not UpdateRecord(1, b"x").is_speculative

    def test_empty_key_is_distinct_from_no_key(self):
        record = UpdateRecord(1, b"x", key=b"")
        decoded = decode_records(encode_records([record]))[0]
        assert decoded.key == b""


class TestCommitRecord:
    def _sample(self, **kwargs):
        return CommitRecord(
            tx_id=99,
            read_set=(
                ReadSetEntry(1, b"k", 10),
                ReadSetEntry(2, None, NO_VERSION),
            ),
            write_oids=(2, 3),
            inline_updates=(UpdateRecord(2, b"up", tx_id=99),),
            **kwargs,
        )

    def test_round_trip(self):
        record = self._sample()
        decoded = decode_records(encode_records([record]))[0]
        assert decoded == record

    def test_flags(self):
        record = self._sample(decision_expected=True, forced_abort=True)
        decoded = decode_records(encode_records([record]))[0]
        assert decoded.decision_expected
        assert decoded.forced_abort

    def test_no_version_sentinel(self):
        record = self._sample()
        decoded = decode_records(encode_records([record]))[0]
        assert decoded.read_set[1].version == NO_VERSION

    def test_read_oids_deduplicated(self):
        record = CommitRecord(
            1,
            (ReadSetEntry(5, b"a", 1), ReadSetEntry(5, b"b", 2), ReadSetEntry(6, None, 3)),
            (),
        )
        assert record.read_oids() == (5, 6)


class TestDecisionRecord:
    def test_round_trip(self):
        for committed in (True, False):
            record = DecisionRecord(7, committed)
            assert decode_records(encode_records([record])) == [record]


class TestCheckpointRecord:
    def test_round_trip(self):
        record = CheckpointRecord(
            oid=4,
            covers_offset=100,
            object_version=99,
            key_versions=((b"a", 5), (b"b", 7)),
            state=b"serialized-view",
            unkeyed_version=42,
        )
        decoded = decode_records(encode_records([record]))[0]
        assert decoded == record

    def test_no_version_fields(self):
        record = CheckpointRecord(1, NO_VERSION, NO_VERSION, (), b"")
        decoded = decode_records(encode_records([record]))[0]
        assert decoded.covers_offset == NO_VERSION
        assert decoded.unkeyed_version == NO_VERSION


class TestBatches:
    def test_mixed_batch(self):
        batch = [
            UpdateRecord(1, b"u"),
            CommitRecord(2, (), (1,)),
            DecisionRecord(2, True),
            CheckpointRecord(1, 5, 5, (), b"s"),
        ]
        assert decode_records(encode_records(batch)) == batch

    def test_empty_payload(self):
        assert decode_records(b"") == []

    def test_empty_batch(self):
        assert decode_records(encode_records([])) == []

    def test_unknown_kind_rejected(self):
        raw = bytearray(encode_records([UpdateRecord(1, b"x")]))
        raw[2] = 0xEE  # corrupt the record kind
        with pytest.raises(ValueError):
            decode_records(bytes(raw))


_updates = st.builds(
    UpdateRecord,
    oid=st.integers(min_value=0, max_value=2**32 - 1),
    payload=st.binary(max_size=128),
    key=st.none() | st.binary(max_size=16),
    tx_id=st.integers(min_value=0, max_value=2**64 - 1),
)

_read_entries = st.builds(
    ReadSetEntry,
    oid=st.integers(min_value=0, max_value=2**32 - 1),
    key=st.none() | st.binary(max_size=16),
    version=st.one_of(
        st.just(NO_VERSION), st.integers(min_value=0, max_value=2**62)
    ),
)

_commits = st.builds(
    CommitRecord,
    tx_id=st.integers(min_value=0, max_value=2**64 - 1),
    read_set=st.lists(_read_entries, max_size=4).map(tuple),
    write_oids=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1), max_size=4
    ).map(tuple),
    inline_updates=st.lists(_updates, max_size=3).map(tuple),
    decision_expected=st.booleans(),
    forced_abort=st.booleans(),
)


class TestProperties:
    @given(st.lists(_updates, max_size=8))
    def test_update_batches_round_trip(self, batch):
        assert decode_records(encode_records(batch)) == batch

    @given(st.lists(_commits, max_size=4))
    def test_commit_batches_round_trip(self, batch):
        assert decode_records(encode_records(batch)) == batch


# -- equivalence with the frozen codec -----------------------------------------

_u32 = st.integers(min_value=0, max_value=2**32 - 1)
_versions = st.one_of(st.just(NO_VERSION), st.integers(min_value=0, max_value=2**62))
_key_versions = st.lists(
    st.tuples(st.binary(max_size=8), _versions), max_size=4
).map(tuple)

_decisions = st.builds(
    DecisionRecord,
    tx_id=st.integers(min_value=0, max_value=2**64 - 1),
    committed=st.booleans(),
)

_checkpoints = st.builds(
    CheckpointRecord,
    oid=_u32,
    covers_offset=_versions,
    object_version=_versions,
    key_versions=_key_versions,
    state=st.binary(max_size=64),
    unkeyed_version=_versions,
    version_floor=_versions,
    evicted_filter=st.binary(max_size=32),
)

_deltas = st.builds(
    DeltaCheckpointRecord,
    oid=_u32,
    base_offset=st.integers(min_value=0, max_value=2**62),
    covers_offset=_versions,
    object_version=_versions,
    key_versions=_key_versions,
    state=st.binary(max_size=64),
    unkeyed_version=_versions,
    version_floor=_versions,
    evicted_filter=st.binary(min_size=1, max_size=32) | st.just(b""),
    depth=st.integers(min_value=1, max_value=0xFFFF),
)

_records = st.one_of(_updates, _commits, _decisions, _checkpoints, _deltas)


def _to_frozen(record):
    """The same record as the frozen codec's dataclass."""
    cls = getattr(frozen, type(record).__name__)
    if isinstance(record, CommitRecord):
        return cls(
            record.tx_id,
            tuple(_to_frozen(r) for r in record.read_set),
            record.write_oids,
            tuple(_to_frozen(u) for u in record.inline_updates),
            record.decision_expected,
            record.forced_abort,
        )
    return cls(*record)


def _byte_fields(value):
    """Every bytes-like leaf of a (nested) record value."""
    for item in value:
        if isinstance(item, tuple):
            yield from _byte_fields(item)
        elif isinstance(item, (bytes, bytearray, memoryview)):
            yield item


#: Batches that exercise each decode path on every pass. A batch of
#: one update (what every ``put`` writes) is one unpack up to its first
#: length; every other batch walks its records. ``b""`` is a key, not
#: "no key".
_PATH_BATCHES = (
    [UpdateRecord(7, b"payload", key=b"k01234")],
    [UpdateRecord(7, b"payload")],
    [UpdateRecord(7, b"payload", key=b"")],
    [UpdateRecord(7, b"", key=b"k", tx_id=2**64 - 1)],
    [UpdateRecord(2**32 - 1, b"", tx_id=5)],
    [UpdateRecord(1, b"a", key=b"k"), UpdateRecord(2, b"b")],
    [
        CommitRecord(
            9,
            (
                ReadSetEntry(1, b"k1", 10),
                ReadSetEntry(2, b"", NO_VERSION),
                ReadSetEntry(3, None, 12),
            ),
            (1, 2, 3),
            (UpdateRecord(1, b"u", key=b"k1", tx_id=9), UpdateRecord(2, b"v", tx_id=9)),
        )
    ],
    [DecisionRecord(3, True)],
    [UpdateRecord(1, b"u", key=b"k"), DecisionRecord(3, False)],
)


def _batch_examples(test):
    for batch in _PATH_BATCHES:
        for buffer in (bytes, bytearray, memoryview):
            test = example(batch=batch, buffer=buffer)(test)
    return test


class TestFrozenCodecEquivalence:
    """Records against a verbatim copy of the frozen-dataclass codec
    they replaced (``tests/frozen_codec.py``)."""

    @given(
        batch=st.lists(_records, max_size=6),
        buffer=st.sampled_from((bytes, bytearray, memoryview)),
    )
    @_batch_examples
    def test_same_bytes_same_values(self, batch, buffer):
        raw = encode_records(batch)
        assert raw == frozen.encode_records([_to_frozen(r) for r in batch])

        decoded = decode_records(buffer(raw))
        reference = frozen.decode_records(raw)
        assert decoded == batch
        assert len(decoded) == len(reference)
        for record, ref, built in zip(decoded, reference, batch):
            assert type(record) is type(built)
            assert record._fields == tuple(f.name for f in dataclasses.fields(ref))
            assert record == dataclasses.astuple(ref)
            assert hash(record) == hash(built)
            assert all(type(b) is bytes for b in _byte_fields(record))
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], 0)
            with pytest.raises(AttributeError):
                record.extra = 0

    def test_a_record_equals_a_plain_tuple_of_its_fields(self):
        record = UpdateRecord(7, b"p", key=b"k", tx_id=3)
        assert record == (7, b"p", b"k", 3)
        assert hash(record) == hash((7, b"p", b"k", 3))
        assert DecisionRecord(9, True) == (9, True)

    def test_inline_updates_and_read_sets_keep_their_types(self):
        record = CommitRecord(
            1, (ReadSetEntry(2, None, 5),), (2,), (UpdateRecord(2, b"u", tx_id=1),)
        )
        (decoded,) = decode_records(encode_records([record]))
        assert type(decoded.read_set[0]) is ReadSetEntry
        assert type(decoded.inline_updates[0]) is UpdateRecord
        assert decoded.inline_updates[0].is_speculative

    @pytest.mark.parametrize("batch", _PATH_BATCHES)
    def test_every_truncation_of_every_path_decodes_as_frozen(self, batch):
        """Cut anywhere: both codecs raise ``struct.error`` or decode
        the same (short) records."""
        raw = encode_records(batch)
        for cut in range(1, len(raw)):
            try:
                reference = frozen.decode_records(raw[:cut])
            except struct.error:
                with pytest.raises(struct.error):
                    decode_records(memoryview(raw)[:cut])
                continue
            decoded = decode_records(memoryview(raw)[:cut])
            assert decoded == [dataclasses.astuple(r) for r in reference]
