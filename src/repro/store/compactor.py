"""Background compaction for the segment store.

The compactor looks at sealed segments through a liveness predicate
derived from the owning flash unit's trim state: a W frame is *dead*
when its address sits below the trimmed prefix or in the sparse-trim
set; every control frame (T/P/S) is reclaimable because each rewrite
re-records the trim/epoch snapshot in a compacted segment's preamble.

Policy: a sealed segment is *eligible* when its garbage ratio reaches
``min_garbage_ratio`` **and** its reclaimable bytes reach
``min_dead_bytes`` (the byte floor stops a tiny preamble-only segment —
ratio 1.0 by construction — from being recompacted forever). Each run
merges maximal adjacent runs of eligible segments into one replacement
segment, which both reclaims space and bounds the segment-file count.

The compactor is deterministic when driven with :meth:`Compactor.run_once`
(sim/tests) and can also run on a daemon thread (:meth:`Compactor.start`)
with a timed wait between sweeps.

Lock order: ``Compactor._lock`` (serializes sweeps) is taken before the
unit lock (trim snapshot) and before ``SegmentStore._lock`` (list
splice, inside :meth:`SegmentStore.rewrite_segments`) — see
``docs/CONCURRENCY.md``. File reads and the temp-file write happen with
no lock held; sealed segments are immutable.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.store.segment import (
    OP_SEAL,
    OP_TRIM,
    OP_TRIM_PREFIX,
    Frame,
    SegmentInfo,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.flash import SegmentedFlashUnit


class CompactionPolicy:
    """When is a sealed segment worth rewriting?"""

    def __init__(
        self,
        min_garbage_ratio: float = 0.5,
        min_dead_bytes: int = 1024,
        max_batch_segments: int = 8,
    ) -> None:
        if not 0.0 < min_garbage_ratio <= 1.0:
            raise ValueError("min_garbage_ratio must be in (0, 1]")
        if min_dead_bytes < 1:
            raise ValueError("min_dead_bytes must be >= 1")
        if max_batch_segments < 1:
            raise ValueError("max_batch_segments must be >= 1")
        self.min_garbage_ratio = min_garbage_ratio
        self.min_dead_bytes = min_dead_bytes
        self.max_batch_segments = max_batch_segments

    def eligible(self, info: SegmentInfo, dead_bytes: int) -> bool:
        if info.data_bytes <= 0:
            return False
        if dead_bytes < self.min_dead_bytes:
            return False
        return dead_bytes / info.data_bytes >= self.min_garbage_ratio

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompactionPolicy(min_garbage_ratio={self.min_garbage_ratio}, "
            f"min_dead_bytes={self.min_dead_bytes}, "
            f"max_batch_segments={self.max_batch_segments})"
        )


class Compactor:
    """Rewrites garbage-heavy sealed segments of one flash unit."""

    def __init__(
        self,
        unit: "SegmentedFlashUnit",
        policy: Optional[CompactionPolicy] = None,
    ) -> None:
        self._unit = unit
        self.policy = policy or CompactionPolicy()
        # Serializes sweeps (RPC-triggered vs. background thread).
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._counters: Dict[str, int] = {
            "runs": 0,
            "noop_runs": 0,
            "segments_compacted": 0,
            "segments_written": 0,
            "frames_dropped": 0,
            "bytes_reclaimed": 0,
        }

    # -- one deterministic sweep ---------------------------------------------

    def run_once(self) -> Dict[str, int]:
        """Sweep once; returns this sweep's deltas (all zero on no-op)."""
        with self._lock:
            return self._run_locked()

    def _run_locked(self) -> Dict[str, int]:
        epoch, prefix, sparse = self._unit.trim_snapshot()
        store = self._unit.store

        def is_dead(address: int) -> bool:
            return address < prefix or address in sparse

        sealed = store.sealed_segments()
        runs = self._plan_runs(sealed, prefix, is_dead)
        result = {
            "segments_compacted": 0,
            "segments_written": 0,
            "frames_dropped": 0,
            "bytes_reclaimed": 0,
        }
        preamble = self._preamble(epoch, prefix, sorted(sparse))
        for run in runs:
            stats = store.rewrite_segments(
                run, keep=lambda addr: not is_dead(addr), preamble=preamble
            )
            result["segments_compacted"] += stats["segments_in"]
            result["segments_written"] += 1
            result["frames_dropped"] += stats["frames_dropped"]
            result["bytes_reclaimed"] += stats["bytes_reclaimed"]
        self._counters["runs"] += 1
        if not runs:
            self._counters["noop_runs"] += 1
        for key, value in result.items():
            self._counters[key] += value
        return result

    def _plan_runs(
        self, sealed: List[SegmentInfo], prefix: int, is_dead
    ) -> List[List[SegmentInfo]]:
        """Maximal adjacent runs of compactable segments, batch-capped.

        A run fires only when it contains at least one *eligible*
        segment (the policy's churn guard), but *fully dead* neighbors —
        segments with no live W bytes left, which is what every rewrite
        output decays to as the trim horizon advances past it — ride
        along even below the byte floor. Absorbing them is what bounds
        the segment-file count: alone, each is too small to ever clear
        ``min_dead_bytes``, and one new one appears per sweep. A segment
        whose W addresses all lie below the trimmed *prefix* is fully
        dead without a visit to any of them.
        """
        runs: List[List[SegmentInfo]] = []
        current: List[SegmentInfo] = []
        has_eligible = False

        def flush() -> None:
            nonlocal current, has_eligible
            if current and has_eligible:
                runs.append(current)
            current, has_eligible = [], False

        for info in sealed:
            below = info.max_w < prefix
            dead = info.data_bytes if below else info.dead_bytes(is_dead)
            eligible = self.policy.eligible(info, dead)
            if not (eligible or below or self._fully_dead(info, is_dead)):
                flush()
                continue
            if len(current) >= self.policy.max_batch_segments:
                flush()
            current.append(info)
            has_eligible = has_eligible or eligible
        flush()
        return runs

    @staticmethod
    def _fully_dead(info: SegmentInfo, is_dead) -> bool:
        """No live W frame survives in this segment.

        Such a segment is absorbable into an adjacent run but never
        triggers one by itself: a preamble-only rewrite output is fully
        dead by construction (control frames only), and recompacting it
        alone would churn forever without reclaiming anything.
        """
        return all(is_dead(addr) for addr in info.w_frames)

    @staticmethod
    def _preamble(epoch: int, prefix: int, sparse: List[int]) -> List[Frame]:
        """Trim/epoch snapshot recorded ahead of the surviving W frames."""
        frames: List[Frame] = [(OP_SEAL, epoch, 0, b"")]
        if prefix:
            frames.append((OP_TRIM_PREFIX, epoch, prefix, b""))
        for address in sparse:
            frames.append((OP_TRIM, epoch, address, b""))
        return frames

    # -- counters -------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    # -- background thread ----------------------------------------------------

    def start(self, interval: float = 0.05) -> None:
        """Sweep every *interval* seconds on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("compactor already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop,
            args=(interval,),
            name=f"repro-compactor-{self._unit.name}",
            daemon=True,
        )
        self._thread.start()

    def _loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self.run_once()

    def stop(self) -> None:
        """Stop the background thread (no-op if never started)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
