"""Tests for the flash storage unit (write-once semantics, trim, seal)."""

import pytest

from repro.corfu.storage import FlashUnit
from repro.errors import (
    NodeDownError,
    SealedError,
    TrimmedError,
    UnwrittenError,
    WrittenError,
)
from repro.store import SegmentedFlashUnit


@pytest.fixture
def unit():
    return FlashUnit("flash-0")


class TestWriteOnce:
    def test_write_then_read(self, unit):
        unit.write(5, b"data", epoch=0)
        assert unit.read(5, epoch=0) == b"data"

    def test_double_write_rejected(self, unit):
        unit.write(5, b"first", epoch=0)
        with pytest.raises(WrittenError):
            unit.write(5, b"second", epoch=0)
        assert unit.read(5, epoch=0) == b"first"

    def test_read_unwritten(self, unit):
        with pytest.raises(UnwrittenError):
            unit.read(0, epoch=0)

    def test_is_written(self, unit):
        assert not unit.is_written(3, epoch=0)
        unit.write(3, b"x", epoch=0)
        assert unit.is_written(3, epoch=0)

    def test_negative_address_rejected(self, unit):
        with pytest.raises(ValueError):
            unit.write(-1, b"x", epoch=0)

    def test_sparse_address_space(self, unit):
        unit.write(0, b"a", epoch=0)
        unit.write(2**40, b"b", epoch=0)
        assert unit.read(2**40, epoch=0) == b"b"


class TestWriteMany:
    def test_mixed_outcomes_are_data_and_do_not_stop_the_batch(self, unit):
        unit.write(0, b"gone", epoch=0)
        unit.trim_prefix(1, epoch=0)
        unit.write(2, b"theirs", epoch=0)
        statuses = unit.write_many(
            [(0, b"a"), (1, b"b"), (2, b"c"), (3, b"d")], epoch=0
        )
        assert statuses == {0: "trimmed", 1: "ok", 2: "written", 3: "ok"}
        assert unit.read(1, epoch=0) == b"b"
        assert unit.read(2, epoch=0) == b"theirs"
        assert unit.read(3, epoch=0) == b"d"

    def test_repeated_delivery_bounces_off_write_once(self, unit):
        batch = [(0, b"a"), (1, b"b")]
        assert unit.write_many(batch, epoch=0) == {0: "ok", 1: "ok"}
        assert unit.write_many(batch, epoch=0) == {0: "written", 1: "written"}
        assert unit.writes == 2

    def test_sealed_or_down_raises_and_applies_nothing(self, unit):
        unit.seal(2)
        with pytest.raises(SealedError):
            unit.write_many([(0, b"a"), (1, b"b")], epoch=1)
        unit.crash()
        with pytest.raises(NodeDownError):
            unit.write_many([(0, b"a"), (1, b"b")], epoch=2)
        unit.recover()
        assert unit.written_addresses() == []

    @pytest.mark.parametrize("kind", ["memory", "segmented"])
    def test_malformed_address_rejects_the_whole_batch(self, kind, tmp_path):
        unit = (
            FlashUnit("flash-0")
            if kind == "memory"
            else SegmentedFlashUnit("flash-0", str(tmp_path / "u.store"))
        )
        with pytest.raises(ValueError):
            unit.write_many([(0, b"x"), (-1, b"y")], epoch=0)
        assert unit.writes == 0
        assert unit.written_addresses() == []
        assert unit.write_many([(0, b"x")], epoch=0) == {0: "ok"}
        if kind == "segmented":
            unit.close()


class TestTrim:
    def test_trim_single(self, unit):
        unit.write(5, b"x", epoch=0)
        unit.trim(5, epoch=0)
        with pytest.raises(TrimmedError):
            unit.read(5, epoch=0)

    def test_trimmed_counts_as_written(self, unit):
        unit.write(5, b"x", epoch=0)
        unit.trim(5, epoch=0)
        assert unit.is_written(5, epoch=0)
        with pytest.raises(TrimmedError):
            unit.write(5, b"y", epoch=0)

    def test_trim_idempotent(self, unit):
        unit.write(5, b"x", epoch=0)
        unit.trim(5, epoch=0)
        unit.trim(5, epoch=0)

    def test_trim_unwritten_address(self, unit):
        unit.trim(9, epoch=0)
        with pytest.raises(TrimmedError):
            unit.read(9, epoch=0)

    def test_trim_prefix(self, unit):
        for addr in range(10):
            unit.write(addr, b"%d" % addr, epoch=0)
        unit.trim_prefix(7, epoch=0)
        for addr in range(7):
            with pytest.raises(TrimmedError):
                unit.read(addr, epoch=0)
        assert unit.read(7, epoch=0) == b"7"

    def test_trim_prefix_is_monotone(self, unit):
        unit.write(5, b"x", epoch=0)
        unit.trim_prefix(4, epoch=0)
        unit.trim_prefix(2, epoch=0)  # lower prefix is a no-op
        assert unit.read(5, epoch=0) == b"x"
        with pytest.raises(TrimmedError):
            unit.read(3, epoch=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda path: FlashUnit("flash-0"),
            lambda path: SegmentedFlashUnit("flash-0", str(path), sync=False),
        ],
        ids=["flash", "segmented"],
    )
    def test_trimmed_outcomes_are_counted_apart_from_served_pages(self, make, tmp_path):
        unit = make(tmp_path)
        for addr in range(6):
            unit.write(addr, b"x", epoch=0)
        unit.trim_prefix(3, epoch=0)
        unit.trim(4, epoch=0)
        with pytest.raises(TrimmedError):
            unit.read(1, epoch=0)
        assert unit.read(3, epoch=0) == b"x"
        assert (unit.reads, unit.trimmed_reads) == (1, 1)
        outcomes = unit.read_many([0, 2, 3, 4, 5, 9], epoch=0)
        assert [outcomes[a][0] for a in (0, 2, 3, 4, 5, 9)] == [
            "trimmed", "trimmed", "ok", "trimmed", "ok", "unwritten",
        ]
        assert (unit.reads, unit.trimmed_reads) == (3, 4)

    def test_sparse_trims_compact_into_prefix(self, unit):
        for addr in range(5):
            unit.write(addr, b"x", epoch=0)
        for addr in (0, 1, 2):
            unit.trim(addr, epoch=0)
        # Internal compaction keeps memory bounded; semantics unchanged.
        assert unit._trimmed_prefix == 3
        assert unit._trimmed_sparse == set()


class TestLocalTail:
    def test_empty(self, unit):
        assert unit.local_tail() == 0

    def test_after_writes(self, unit):
        unit.write(0, b"x", epoch=0)
        unit.write(7, b"y", epoch=0)
        assert unit.local_tail() == 8

    def test_trim_preserves_tail(self, unit):
        """The slow check must still work after reclamation."""
        unit.write(9, b"x", epoch=0)
        unit.trim(9, epoch=0)
        assert unit.local_tail() == 10

    def test_trim_prefix_preserves_tail(self, unit):
        for addr in range(4):
            unit.write(addr, b"x", epoch=0)
        unit.trim_prefix(4, epoch=0)
        assert unit.local_tail() == 4


class TestSeal:
    def test_seal_fences_old_epoch(self, unit):
        unit.write(0, b"x", epoch=0)
        unit.seal(1)
        with pytest.raises(SealedError):
            unit.write(1, b"y", epoch=0)
        with pytest.raises(SealedError):
            unit.read(0, epoch=0)

    def test_new_epoch_accepted_after_seal(self, unit):
        unit.seal(1)
        unit.write(0, b"x", epoch=1)
        assert unit.read(0, epoch=1) == b"x"

    def test_seal_returns_local_tail(self, unit):
        unit.write(3, b"x", epoch=0)
        assert unit.seal(1) == 4

    def test_seal_not_backwards(self, unit):
        unit.seal(2)
        with pytest.raises(SealedError):
            unit.seal(1)
        with pytest.raises(SealedError):
            unit.seal(2)

    def test_future_epoch_requests_pass(self, unit):
        # A client with a newer projection than the unit has seen.
        unit.write(0, b"x", epoch=3)
        assert unit.epoch == 0  # seal is explicit, not implied


class TestCrashRecover:
    def test_down_unit_rejects_everything(self, unit):
        unit.write(0, b"x", epoch=0)
        unit.crash()
        assert unit.is_down
        with pytest.raises(NodeDownError):
            unit.read(0, epoch=0)
        with pytest.raises(NodeDownError):
            unit.write(1, b"y", epoch=0)
        with pytest.raises(NodeDownError):
            unit.local_tail()

    def test_flash_is_nonvolatile(self, unit):
        unit.write(0, b"x", epoch=0)
        unit.crash()
        unit.recover()
        assert unit.read(0, epoch=0) == b"x"

    def test_epoch_survives_crash(self, unit):
        unit.seal(3)
        unit.crash()
        unit.recover()
        with pytest.raises(SealedError):
            unit.write(0, b"x", epoch=2)


class TestCounters:
    def test_read_write_counters(self, unit):
        unit.write(0, b"x", epoch=0)
        unit.read(0, epoch=0)
        unit.read(0, epoch=0)
        assert unit.writes == 1
        assert unit.reads == 2

    def test_written_addresses(self, unit):
        unit.write(3, b"x", epoch=0)
        unit.write(1, b"y", epoch=0)
        assert unit.written_addresses() == [1, 3]
