"""Group commit in the segment store: one write per batch per segment.

A ``write_many`` batch reaches a :class:`SegmentedFlashUnit` as one
:meth:`SegmentStore.append_frames`: its accepted pages cost one file
write (and under ``sync`` one fsync) per segment they touch, footers are
built from the running CRC instead of reading the segment back, and a
page is served only once its frame is on file.
"""

import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.corfu.durable import DurableFlashUnit
from repro.corfu.storage import FlashUnit
from repro.errors import ReproError, UnwrittenError
from repro.store import CompactionPolicy, SegmentedFlashUnit, SegmentStore, segment
from repro.store.segment import FRAME, OP_WRITE


def segmented(directory, **kwargs):
    kwargs.setdefault("segment_bytes", 256)
    return SegmentedFlashUnit("u", os.path.join(directory, "u.store"), **kwargs)


def flat(directory):
    return DurableFlashUnit("u", os.path.join(directory, "u.flash"))


def page(address, size):
    return bytes([address % 251]) * size


class IOSpy:
    """Counts fsyncs, file writes and opens made by the segment store."""

    def __init__(self, monkeypatch):
        self.fsyncs = 0
        self.writes = 0
        self.opens = []
        real_fsync, real_open = os.fsync, open

        def fsync(fd):
            self.fsyncs += 1
            real_fsync(fd)

        spy = self

        class CountingFile:
            def __init__(self, f):
                self._f = f

            def write(self, data):
                spy.writes += 1
                return self._f.write(data)

            def __getattr__(self, name):
                return getattr(self._f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._f.close()

        def counting_open(path, mode="r", *args, **kwargs):
            self.opens.append(mode)
            return CountingFile(real_open(path, mode, *args, **kwargs))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(segment, "open", counting_open, raising=False)

    def reset(self):
        self.fsyncs = self.writes = 0
        self.opens = []


class TestUnpersistedPagesAreNotServed:
    @pytest.mark.parametrize("make", [segmented, flat], ids=["segmented", "flat"])
    def test_write_after_close_serves_nothing(self, tmp_path, make):
        unit = make(str(tmp_path))
        unit.write(1, b"one", epoch=0)
        unit.close()
        with pytest.raises(ValueError):
            unit.write(2, b"two", epoch=0)
        with pytest.raises(UnwrittenError):
            unit.read(2, epoch=0)
        with pytest.raises(ValueError):
            unit.write_many([(3, b"three"), (4, b"four")], epoch=0)
        for address in (3, 4):
            with pytest.raises(UnwrittenError):
                unit.read(address, epoch=0)
        reopened = make(str(tmp_path))
        assert reopened.written_addresses() == [1]
        reopened.close()

    def test_failed_later_run_applies_exactly_the_written_pages(
        self, tmp_path, monkeypatch
    ):
        # Nine 100-byte pages fill a 1000-byte segment; writing the
        # second segment fails, so the rest of the batch never lands.
        unit = segmented(str(tmp_path), segment_bytes=1000)
        created = []

        class FullDisk:
            def __init__(self, f):
                self._f = f

            def write(self, data):
                raise OSError("disk full")

            def __getattr__(self, name):
                return getattr(self._f, name)

        def flaky_open(path, mode="r", *args, **kwargs):
            f = open(path, mode, *args, **kwargs)
            if mode == "wb":
                created.append(path)
                if len(created) == 2:
                    return FullDisk(f)
            return f

        monkeypatch.setattr(segment, "open", flaky_open, raising=False)
        batch = [(a, page(a, 100)) for a in range(16)]
        with pytest.raises(OSError, match="disk full"):
            unit.write_many(batch, epoch=0)
        monkeypatch.undo()
        assert unit.written_addresses() == list(range(9))
        assert unit.writes == 9
        with pytest.raises(UnwrittenError):
            unit.read(9, epoch=0)
        unit.close()
        reopened = segmented(str(tmp_path), segment_bytes=1000)
        assert reopened.written_addresses() == list(range(9))
        reopened.close()


class TestIOCounts:
    def test_batch_in_one_segment_is_one_write_and_one_fsync(
        self, tmp_path, monkeypatch
    ):
        unit = segmented(str(tmp_path), segment_bytes=1 << 16, sync=True)
        spy = IOSpy(monkeypatch)
        batch = [(a, page(a, 256)) for a in range(16)]
        assert set(unit.write_many(batch, epoch=0).values()) == {"ok"}
        # The new segment's header rides in the same write.
        assert (spy.writes, spy.fsyncs, spy.opens) == (1, 1, ["wb"])
        spy.reset()
        unit.write_many([(a, page(a, 256)) for a in range(16, 32)], epoch=0)
        assert (spy.writes, spy.fsyncs, spy.opens) == (1, 1, [])
        spy.reset()
        unit.write(32, b"lone", epoch=0)
        assert (spy.writes, spy.fsyncs) == (1, 1)
        unit.close()

    def test_batch_across_a_roll_pays_per_segment_plus_the_seal(
        self, tmp_path, monkeypatch
    ):
        unit = segmented(str(tmp_path), segment_bytes=1000, sync=True)
        spy = IOSpy(monkeypatch)
        unit.write(100, b"warm", epoch=0)
        spy.reset()
        batch = [(a, page(a, 100)) for a in range(16)]
        unit.write_many(batch, epoch=0)
        # Two runs and one footer; two run fsyncs and the seal's. The
        # footer comes from held state: nothing is opened for reading.
        assert spy.writes == 3
        assert spy.fsyncs == 3
        assert spy.opens == ["wb"]
        assert len(unit.store.sealed_segments()) == 1
        unit.close()

    def test_roll_without_sync_still_fsyncs_the_seal(self, tmp_path, monkeypatch):
        unit = segmented(str(tmp_path), segment_bytes=1000, sync=False)
        spy = IOSpy(monkeypatch)
        unit.write_many([(a, page(a, 100)) for a in range(16)], epoch=0)
        assert (spy.writes, spy.fsyncs) == (3, 1)
        unit.close()

    def test_compaction_output_costs_one_file_and_one_directory_fsync(
        self, tmp_path, monkeypatch
    ):
        unit = segmented(
            str(tmp_path),
            sync=False,
            policy=CompactionPolicy(min_garbage_ratio=0.3, min_dead_bytes=64),
        )
        for address in range(40):
            unit.write(address, page(address, 32), epoch=0)
        unit.trim_prefix(36, epoch=0)
        spy = IOSpy(monkeypatch)
        stats = unit.compact()
        assert stats["segments_written"] == 1
        assert spy.fsyncs == 2
        assert spy.writes == 1
        assert spy.opens.count("wb") == 1
        unit.close()


class TestReopenThenRoll:
    def test_running_crc_survives_reopen(self, tmp_path, caplog):
        directory = str(tmp_path / "s")
        store = SegmentStore(directory, segment_bytes=256)
        for address in range(3):
            store.append_frame(OP_WRITE, 0, address, page(address, 20))
        store.close()
        reopened = SegmentStore(directory, segment_bytes=256)
        assert not reopened.sealed_segments()
        address = 3
        while not reopened.sealed_segments():
            reopened.append_frame(OP_WRITE, 0, address, page(address, 20))
            address += 1
        reopened.close()
        sealed = reopened.sealed_segments()[0]
        with open(sealed.path, "rb") as f:
            raw = f.read()
        (footer_len,) = struct.unpack_from("<I", raw, len(raw) - 4)
        footer_start = len(raw) - 4 - footer_len
        _magic, _count, crc, _n = struct.unpack_from("<4sIII", raw, footer_start)
        assert crc == zlib.crc32(raw[segment._HEADER.size : footer_start])
        with caplog.at_level("WARNING", logger="repro.store.segment"):
            final = SegmentStore(directory, segment_bytes=256)
        assert not any("mismatch" in r.message for r in caplog.records)
        assert [a for _o, _e, a, _d in final.replay()] == list(range(address))
        final.close()


# -- batched bytes equal one-by-one bytes --------------------------------------

_addresses = st.integers(min_value=0, max_value=40)
_sizes = st.integers(min_value=0, max_value=300)
_ops = st.one_of(
    st.tuples(st.just("write"), _addresses, _sizes),
    st.tuples(
        st.just("write_many"),
        st.lists(st.tuples(_addresses, _sizes), min_size=0, max_size=12),
    ),
    st.tuples(st.just("trim"), _addresses),
    st.tuples(st.just("trim_prefix"), _addresses),
    st.tuples(st.just("seal")),
    st.tuples(st.just("seal_segment")),
    st.tuples(st.just("compact")),
)


def _drive(unit, op, batched):
    """Apply *op*; return its outcome (an error type name, or a value)."""
    epoch = unit.epoch
    try:
        if op[0] == "write":
            return unit.write(op[1], page(op[1], op[2]), epoch)
        if op[0] == "write_many":
            batch = [(a, page(a, n)) for a, n in op[1]]
            if batched:
                return unit.write_many(batch, epoch)
            return FlashUnit.write_many(unit, batch, epoch)  # page by page
        if op[0] == "trim":
            return unit.trim(op[1], epoch)
        if op[0] == "trim_prefix":
            return unit.trim_prefix(op[1], epoch)
        if op[0] == "seal":
            return unit.seal(epoch + 1)
        if op[0] == "seal_segment":
            return unit.store.seal_active()
        return unit.compact()
    except ReproError as exc:
        return type(exc).__name__


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


def _state(unit):
    pages = {a: unit.read(a, unit.epoch) for a in unit.written_addresses()}
    return pages, unit.epoch, unit.trim_snapshot()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    segment_bytes=st.integers(min_value=FRAME.size, max_value=700),
    ops=st.lists(_ops, max_size=25),
)
# A sparse trim at the new prefix folds into it live as on reopen.
@example(segment_bytes=21, ops=[("trim", 1), ("trim_prefix", 1), ("compact",)])
def test_batched_segments_are_byte_identical_to_page_by_page(segment_bytes, ops):
    policy = CompactionPolicy(min_garbage_ratio=0.2, min_dead_bytes=1)
    with tempfile.TemporaryDirectory() as batched_dir, \
            tempfile.TemporaryDirectory() as single_dir:
        units = [
            segmented(d, segment_bytes=segment_bytes, sync=False, policy=policy)
            for d in (batched_dir, single_dir)
        ]
        batched, single = units
        for op in ops:
            assert _drive(batched, op, True) == _drive(single, op, False), op
        for unit in units:
            unit.close()
        batched_files = _files(os.path.join(batched_dir, "u.store"))
        assert batched_files == _files(os.path.join(single_dir, "u.store"))
        reopened = [
            segmented(d, segment_bytes=segment_bytes, sync=False)
            for d in (batched_dir, single_dir)
        ]
        assert _state(reopened[0]) == _state(reopened[1])
        assert _state(reopened[0]) == _state(units[0])
        for unit in reopened:
            unit.close()
