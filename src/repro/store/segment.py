"""Segmented durable log storage.

One :class:`SegmentStore` keeps a unit's intention log as a directory
of fixed-size *segment* files. The frame format inside a segment is
exactly the legacy single-file flat format —
``[op:u8][epoch:u64][address:u64][length:u32][data]`` with ops ``W``
(page write), ``T`` (sparse trim), ``P`` (prefix trim) and ``S``
(seal) — so a flat file can be migrated by streaming its frames into a
store unchanged.

Segment file layout::

    header : magic "RSG1", version u16, reserved u16,
             base u64, gen u32, covers_end u64
    frames : zero or more intention frames
    footer : (sealed segments only)
             magic "RFT1", frame_count u32, crc32(frames) u32,
             index_count u32, W-frame address u64 each,
             footer_len u32   <- last 4 bytes of the file

``base``/``covers_end`` place the segment in a monotone *segment
sequence space*: a fresh append segment covers exactly one sequence
number; a compacted segment produced by
:meth:`SegmentStore.rewrite_segments` covers the whole contiguous range
of the inputs it replaced and carries a higher ``gen``. On open, any
segment whose range is covered by an already-kept segment is stale
(a crash happened between the compactor's rename and its deletes) and
is removed — so compaction is crash-safe by construction: write temp,
fsync, rename, then delete the inputs.

Torn tails: the active (unsealed) segment may end mid-frame after a
crash; parsing stops at the last whole frame, logs a warning and
truncates the tail. A sealed segment whose footer checksum does not
match is salvaged frame-by-frame with a warning rather than discarded.
"""

from __future__ import annotations

import logging
import os
import struct
import threading
import zlib
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

logger = logging.getLogger(__name__)

#: One intention frame header: op, epoch, address, payload length.
FRAME = struct.Struct("<BQQI")

OP_WRITE = ord("W")
OP_TRIM = ord("T")
OP_TRIM_PREFIX = ord("P")
OP_SEAL = ord("S")
_KNOWN_OPS = frozenset({OP_WRITE, OP_TRIM, OP_TRIM_PREFIX, OP_SEAL})

#: (op, epoch, address, data) — the unit of replay.
Frame = Tuple[int, int, int, bytes]

SEGMENT_MAGIC = b"RSG1"
FOOTER_MAGIC = b"RFT1"
SEGMENT_VERSION = 1
_HEADER = struct.Struct("<4sHHQIQ")  # magic, version, reserved, base, gen, covers_end
_FOOTER_FIXED = struct.Struct("<4sIII")  # magic, frame_count, crc32, index_count

#: Default segment roll size. Small enough that GC-driven compaction
#: frees disk promptly, large enough that steady appends rarely roll.
DEFAULT_SEGMENT_BYTES = 1 << 20


def pack_frame(op: int, epoch: int, address: int, data: bytes) -> bytes:
    """Serialize one intention frame (shared with the flat format)."""
    return FRAME.pack(op, epoch, address, len(data)) + data


def parse_frames(
    raw: bytes, start: int, end: int, describe: str
) -> Tuple[List[Frame], int]:
    """Parse frames in ``raw[start:end]``; stop at a torn/corrupt tail.

    Returns ``(frames, consumed_end)``. A truncated final frame or an
    unknown op byte ends the parse with a warning — the caller decides
    whether the remainder is expected (active segment after a crash) or
    genuine corruption.
    """
    frames: List[Frame] = []
    pos = start
    while pos + FRAME.size <= end:
        op, epoch, address, length = FRAME.unpack_from(raw, pos)
        body_start = pos + FRAME.size
        if op not in _KNOWN_OPS:
            logger.warning(
                "%s: unknown frame op 0x%02x at byte %d; "
                "discarding the remaining %d bytes",
                describe,
                op,
                pos,
                end - pos,
            )
            return frames, pos
        if body_start + length > end:
            logger.warning(
                "%s: torn frame at byte %d (need %d body bytes, %d left); "
                "discarding the tail",
                describe,
                pos,
                length,
                end - body_start,
            )
            return frames, pos
        frames.append((op, epoch, address, raw[body_start : body_start + length]))
        pos = body_start + length
    if pos < end:
        logger.warning(
            "%s: torn frame header at byte %d (%d trailing bytes); "
            "discarding the tail",
            describe,
            pos,
            end - pos,
        )
    return frames, pos


def read_flat_log(path: str) -> List[Frame]:
    """Read a legacy flat intention-log file, tolerating a torn tail."""
    with open(path, "rb") as f:
        raw = f.read()
    frames, _consumed = parse_frames(raw, 0, len(raw), f"flat log {path}")
    return frames


class SegmentInfo:
    """In-memory accounting for one segment file.

    ``w_frames`` maps each W-frame address to its on-disk frame size;
    addresses are unique store-wide (the address space is write-once),
    so the map doubles as the per-segment index, and ``max_w`` is its
    highest address (-1 with no W frame). ``control_bytes``
    counts T/P/S frames — always reclaimable by a rewrite, because the
    compactor re-records the trim/epoch snapshot in its preamble.
    ``crc`` is the running crc32 of the frame region, so sealing a
    segment never reads its file back.
    """

    __slots__ = (
        "path",
        "base",
        "gen",
        "covers_end",
        "sealed",
        "frame_count",
        "data_bytes",
        "control_bytes",
        "w_frames",
        "max_w",
        "crc",
    )

    def __init__(
        self, path: str, base: int, gen: int, covers_end: int, sealed: bool
    ) -> None:
        self.path = path
        self.base = base
        self.gen = gen
        self.covers_end = covers_end
        self.sealed = sealed
        self.frame_count = 0
        self.data_bytes = 0  # frame-region bytes (header/footer excluded)
        self.control_bytes = 0
        self.w_frames: Dict[int, int] = {}
        self.max_w = -1
        self.crc = 0

    def note_frame(self, op: int, address: int, frame_len: int) -> None:
        self.frame_count += 1
        self.data_bytes += frame_len
        if op == OP_WRITE:
            self.w_frames[address] = frame_len
            if address > self.max_w:
                self.max_w = address
        else:
            self.control_bytes += frame_len

    def dead_bytes(self, is_dead: Callable[[int], bool]) -> int:
        """Reclaimable bytes under the given liveness predicate."""
        return self.control_bytes + sum(
            size for addr, size in self.w_frames.items() if is_dead(addr)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "sealed" if self.sealed else "active"
        return (
            f"<SegmentInfo {os.path.basename(self.path)} {state} "
            f"[{self.base}..{self.covers_end}] gen={self.gen} "
            f"frames={self.frame_count}>"
        )


def _segment_filename(base: int, gen: int) -> str:
    return f"seg-{base:016d}-{gen:08d}.seg"


def _footer(info: SegmentInfo) -> bytes:
    """The footer sealing *info*, built from its accounting alone."""
    index = sorted(info.w_frames)
    return struct.pack(
        f"<4sIII{len(index)}QI",
        FOOTER_MAGIC,
        info.frame_count,
        info.crc,
        len(index),
        *index,
        _FOOTER_FIXED.size + 8 * len(index),
    )


def _seal(info: SegmentInfo, f: BinaryIO) -> None:
    """Append *info*'s footer through *f*, fsync it, and close *f*."""
    with f:
        f.write(_footer(info))
        f.flush()
        os.fsync(f.fileno())
    info.sealed = True


class SegmentStore:
    """A directory of sealed segment files plus one active append segment.

    Thread safety: ``_lock`` guards the segment list, the active file
    handle, and the sequence counter. Appends hold it across the file
    write so the frame order matches the caller's apply order.
    :meth:`rewrite_segments` reads and writes *sealed* files outside the
    lock — they are immutable — and takes it only to splice the segment
    list.

    ``frames_appended`` counts the frames handed to the file since open.
    The owning unit, whose lock serializes all of its appends, reads it
    around an :meth:`append_frames` call to learn how many of the
    call's frames reached the file if the call raises.
    """

    def __init__(
        self,
        directory: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync: bool = True,
    ) -> None:
        if segment_bytes < FRAME.size:
            raise ValueError(f"segment_bytes {segment_bytes} too small")
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.sync = sync
        self._lock = threading.Lock()
        self._segments: List[SegmentInfo] = []
        self._active: Optional[SegmentInfo] = None
        self._active_file = None
        # A new segment's header, written with its first run of frames.
        self._active_header = b""
        self._next_seq = 0
        self._closed = False
        self.frames_appended = 0
        os.makedirs(directory, exist_ok=True)
        self._replay_frames: List[Frame] = self._load()

    # -- open-time recovery ---------------------------------------------------

    def _load(self) -> List[Frame]:
        """Parse the directory; returns every kept frame in replay order."""
        parsed: List[Tuple[SegmentInfo, List[Frame]]] = []
        for name in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, name)
            if name.endswith(".tmp"):
                os.unlink(path)  # crashed compaction output
                continue
            if not (name.startswith("seg-") and name.endswith(".seg")):
                continue
            loaded = self._load_segment(path)
            if loaded is not None:
                parsed.append(loaded)
        # Winner selection: order by (base asc, gen desc); a segment whose
        # base falls inside an already-kept range is a compacted-away
        # original (or a lower-gen duplicate) left behind by a crash.
        parsed.sort(key=lambda item: (item[0].base, -item[0].gen))
        kept: List[Tuple[SegmentInfo, List[Frame]]] = []
        covered_end = -1
        for info, frames in parsed:
            if info.base <= covered_end:
                logger.warning(
                    "segment store %s: removing stale segment %s "
                    "(superseded by a compacted segment)",
                    self.directory,
                    os.path.basename(info.path),
                )
                os.unlink(info.path)
                continue
            kept.append((info, frames))
            covered_end = info.covers_end
        self._segments = [info for info, _frames in kept]
        self._next_seq = covered_end + 1
        # Only the last segment may legitimately be unsealed (the active
        # segment at crash time); seal any earlier stragglers.
        for info in self._segments[:-1]:
            if not info.sealed:
                _seal(info, open(info.path, "ab"))
        if self._segments and not self._segments[-1].sealed:
            tail = self._segments[-1]
            if tail.data_bytes >= self.segment_bytes:
                _seal(tail, open(tail.path, "ab"))
            else:
                self._active = tail
                self._active_file = open(tail.path, "ab")
        out: List[Frame] = []
        for _info, frames in kept:
            out.extend(frames)
        return out

    def _load_segment(
        self, path: str
    ) -> Optional[Tuple[SegmentInfo, List[Frame]]]:
        with open(path, "rb") as f:
            raw = f.read()
        name = os.path.basename(path)
        if len(raw) < _HEADER.size:
            logger.warning(
                "segment store %s: %s shorter than a header; removing",
                self.directory,
                name,
            )
            os.unlink(path)
            return None
        magic, version, _reserved, base, gen, covers_end = _HEADER.unpack_from(
            raw, 0
        )
        if magic != SEGMENT_MAGIC or version != SEGMENT_VERSION:
            logger.warning(
                "segment store %s: %s has bad magic/version; removing",
                self.directory,
                name,
            )
            os.unlink(path)
            return None
        info = SegmentInfo(path, base, gen, covers_end, sealed=False)
        frames_end, sealed = self._locate_footer(raw, name)
        describe = f"segment {name}"
        frames, consumed = parse_frames(raw, _HEADER.size, frames_end, describe)
        if not sealed and consumed < len(raw):
            # Torn active tail: truncate so future appends stay parseable.
            with open(path, "ab") as f:
                f.truncate(consumed)
        info.sealed = sealed
        for op, _epoch, address, data in frames:
            info.note_frame(op, address, FRAME.size + len(data))
        # An unsealed segment keeps only its parsed frames (the tear was
        # truncated above); a sealed one is checked against its footer.
        info.crc = zlib.crc32(
            memoryview(raw)[_HEADER.size : frames_end if sealed else consumed]
        )
        if sealed:
            self._verify_footer(raw, frames_end, info, name)
        return info, frames

    def _locate_footer(self, raw: bytes, name: str) -> Tuple[int, bool]:
        """Return (end-of-frames offset, sealed?) for a segment image."""
        if len(raw) < _HEADER.size + _FOOTER_FIXED.size + 4:
            return len(raw), False
        (footer_len,) = struct.unpack_from("<I", raw, len(raw) - 4)
        footer_start = len(raw) - 4 - footer_len
        if footer_start < _HEADER.size or footer_len < _FOOTER_FIXED.size:
            return len(raw), False
        if raw[footer_start : footer_start + 4] != FOOTER_MAGIC:
            return len(raw), False
        return footer_start, True

    def _verify_footer(
        self, raw: bytes, footer_start: int, info: SegmentInfo, name: str
    ) -> None:
        _magic, frame_count, crc, index_count = _FOOTER_FIXED.unpack_from(
            raw, footer_start
        )
        if crc != info.crc or frame_count != info.frame_count:
            logger.warning(
                "segment store %s: %s footer mismatch "
                "(crc %08x vs %08x, frames %d vs %d); "
                "salvaged %d parseable frames",
                self.directory,
                name,
                crc,
                info.crc,
                frame_count,
                info.frame_count,
                info.frame_count,
            )
            return
        index: List[int] = []
        off = footer_start + _FOOTER_FIXED.size
        for _ in range(index_count):
            if off + 8 > len(raw) - 4:
                break
            (addr,) = struct.unpack_from("<Q", raw, off)
            index.append(addr)
            off += 8
        if sorted(index) != sorted(info.w_frames):
            logger.warning(
                "segment store %s: %s footer index disagrees with its "
                "frames (%d indexed, %d parsed); trusting the frames",
                self.directory,
                name,
                len(index),
                len(info.w_frames),
            )

    # -- replay ---------------------------------------------------------------

    def replay(self) -> Iterator[Frame]:
        """Yield every frame recovered at open, in order, then drop them."""
        frames, self._replay_frames = self._replay_frames, []
        return iter(frames)

    # -- append path ----------------------------------------------------------

    def append_frame(self, op: int, epoch: int, address: int, data: bytes) -> None:
        """Append one frame to the active segment, rolling when full."""
        blob = pack_frame(op, epoch, address, data)
        with self._lock:
            if self._closed:
                raise ValueError("segment store is closed")
            self._write_run_locked(blob, ((op, address, len(blob)),))

    def append_frames(self, frames: Sequence[Frame]) -> None:
        """Append *frames* in order, with one file write per segment run.

        The frames split only where one fills the active segment (the
        segment rolls after the frame that reaches ``segment_bytes``), so
        segment boundaries fall exactly where one-by-one appends would
        put them. Each run costs one ``write``, one ``flush`` and, under
        ``sync``, one ``fsync``. A run's frames are accounted, and counted
        in ``frames_appended``, only once the run is written; if a later
        run fails, the earlier runs stay on file and the error propagates.
        """
        with self._lock:
            if self._closed:
                raise ValueError("segment store is closed")
            active = self._active
            room = self.segment_bytes - (active.data_bytes if active else 0)
            parts: List[bytes] = []
            notes: List[Tuple[int, int, int]] = []
            pack, header = FRAME.pack, FRAME.size
            for op, epoch, address, data in frames:
                size = len(data)
                parts += (pack(op, epoch, address, size), data)
                size += header
                notes.append((op, address, size))
                room -= size
                if room <= 0:  # this frame fills the segment: write, roll
                    self._write_run_locked(b"".join(parts), notes)
                    room, parts, notes = self.segment_bytes, [], []
            if notes:
                self._write_run_locked(b"".join(parts), notes)

    def _write_run_locked(
        self, run: bytes, notes: Sequence[Tuple[int, int, int]]
    ) -> None:
        """Write *run* — the packed frames described by *notes*, each
        ``(op, address, frame size)`` — to the active segment in one
        write, then account the frames and roll if the segment is full."""
        if self._active is None:
            self._open_active_locked()
        info, f, head = self._active, self._active_file, self._active_header
        assert info is not None and f is not None
        # Holding the lock across the file write is deliberate: the frame
        # order must match the caller's apply order, and each critical
        # section covers one caller's batch.
        f.write(head + run if head else run)  # tangolint: disable=TL012
        f.flush()
        if self.sync:
            os.fsync(f.fileno())
        self._active_header = b""
        info.crc = zlib.crc32(run, info.crc)
        for op, address, size in notes:
            info.note_frame(op, address, size)
        self.frames_appended += len(notes)
        if info.data_bytes >= self.segment_bytes:
            self._seal_active_locked()

    def _open_active_locked(self) -> None:
        """Create the next append segment; its header goes out with the
        first run (a file left without a whole header is removed at
        open)."""
        seq = self._next_seq
        self._next_seq += 1
        path = os.path.join(self.directory, _segment_filename(seq, 0))
        info = SegmentInfo(path, seq, 0, seq, sealed=False)
        self._active_file = open(path, "wb")
        self._segments.append(info)
        self._active = info
        self._active_header = _HEADER.pack(
            SEGMENT_MAGIC, SEGMENT_VERSION, 0, seq, 0, seq
        )

    def _seal_active_locked(self) -> None:
        info, f = self._active, self._active_file
        if info is None or f is None:
            return
        self._active = None
        self._active_file = None
        _seal(info, f)

    def seal_active(self) -> None:
        """Seal the active segment now (tests/shutdown); idempotent."""
        with self._lock:
            self._seal_active_locked()

    # -- introspection --------------------------------------------------------

    def segment_snapshot(self) -> List[SegmentInfo]:
        """Current segments, base-ascending (infos are live objects)."""
        with self._lock:
            return list(self._segments)

    def sealed_segments(self) -> List[SegmentInfo]:
        with self._lock:
            return [s for s in self._segments if s.sealed]

    def usage(self, is_dead: Callable[[int], bool]) -> Dict[str, object]:
        """Aggregate disk accounting under a liveness predicate."""
        with self._lock:
            segments = list(self._segments)
        data_bytes = sum(s.data_bytes for s in segments)
        dead = sum(s.dead_bytes(is_dead) for s in segments)
        disk = 0
        for s in segments:
            try:
                disk += os.path.getsize(s.path)
            except OSError:  # pragma: no cover - racing a compaction
                pass
        return {
            "segments": len(segments),
            "sealed_segments": sum(1 for s in segments if s.sealed),
            "disk_bytes": disk,
            "data_bytes": data_bytes,
            "dead_bytes": dead,
            "live_bytes": data_bytes - dead,
            "garbage_ratio": round(dead / data_bytes, 4) if data_bytes else 0.0,
        }

    def file_count(self) -> int:
        with self._lock:
            return len(self._segments)

    # -- compaction support ---------------------------------------------------

    def rewrite_segments(
        self,
        targets: Sequence[SegmentInfo],
        keep: Callable[[int], bool],
        preamble: Sequence[Frame],
    ) -> Dict[str, int]:
        """Replace adjacent sealed *targets* with one compacted segment.

        The output carries *preamble* (the caller's trim/epoch snapshot)
        followed by every W frame whose address satisfies *keep*, covers
        the union of the targets' sequence ranges, and takes a higher
        gen. An input none of whose W addresses satisfies *keep* is
        dropped unread, all its frames counted as dropped. Crash-safe:
        temp write (body and footer, one fsync), rename, directory fsync,
        then delete inputs — a crash at any point leaves a state
        :meth:`_load` repairs.
        """
        if not targets:
            raise ValueError("rewrite_segments needs at least one target")
        for info in targets:
            if not info.sealed:
                raise ValueError(f"cannot rewrite unsealed segment {info.path}")
        base = targets[0].base
        covers_end = targets[-1].covers_end
        gen = max(t.gen for t in targets) + 1
        # Sealed segments are immutable: read and filter outside the lock.
        out = bytearray(
            _HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, 0, base, gen, covers_end)
        )
        new_info = SegmentInfo("", base, gen, covers_end, sealed=False)
        for op, epoch, address, data in preamble:
            blob = pack_frame(op, epoch, address, data)
            out += blob
            new_info.note_frame(op, address, len(blob))
        frames_dropped = 0
        bytes_in = 0
        for info in targets:
            bytes_in += info.data_bytes
            if not any(map(keep, info.w_frames)):
                frames_dropped += info.frame_count
                continue
            with open(info.path, "rb") as f:
                raw = f.read()
            frames_end, _sealed = self._locate_footer(
                raw, os.path.basename(info.path)
            )
            frames, _consumed = parse_frames(
                raw, _HEADER.size, frames_end, f"segment {info.path}"
            )
            for op, epoch, address, data in frames:
                if op == OP_WRITE and keep(address):
                    blob = pack_frame(op, epoch, address, data)
                    out += blob
                    new_info.note_frame(op, address, len(blob))
                else:
                    frames_dropped += 1
        new_info.crc = zlib.crc32(memoryview(out)[_HEADER.size :])
        out += _footer(new_info)
        new_info.sealed = True
        final_path = os.path.join(self.directory, _segment_filename(base, gen))
        tmp_path = final_path + ".tmp"
        with open(tmp_path, "wb") as f:
            f.write(out)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, final_path)
        new_info.path = final_path
        self._fsync_directory()
        with self._lock:
            positions = [
                i
                for i, s in enumerate(self._segments)
                if any(s is t for t in targets)
            ]
            if len(positions) != len(targets):
                # A concurrent rewrite replaced one of our inputs; the
                # new file is superseded-by-construction and removable.
                os.unlink(final_path)
                raise RuntimeError(
                    "rewrite_segments raced another rewrite of the same inputs"
                )
            first = positions[0]
            self._segments[first : positions[-1] + 1] = [new_info]
        for info in targets:
            try:
                os.unlink(info.path)
            except OSError:  # pragma: no cover - already gone
                pass
        return {
            "segments_in": len(targets),
            "frames_dropped": frames_dropped,
            "bytes_in": bytes_in,
            "bytes_out": new_info.data_bytes,
            "bytes_reclaimed": max(0, bytes_in - new_info.data_bytes),
        }

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Flush and release the active file handle."""
        with self._lock:
            if self._active_file is not None:
                self._active_file.flush()
                self._active_file.close()
                self._active_file = None
                self._active = None
            self._closed = True
