"""Workload base: timed operations, failure accounting, the role metrics.

A workload runs closed-loop from the one driver thread. Each operation
fills one of four roles - ``write`` (one update acknowledged), ``read``
(one linearizable read), ``group`` (writes submitted together and all
awaited) and ``scan`` (bulk read) - and the end-to-end metrics are the
same functions of those roles on every workload.
"""

from __future__ import annotations

import sys
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional

from tb.backends import BACKENDS, Backend
from tb.clock import Recorder
from tb.spans import Tracer
from tb.spec import BLOCK_SECONDS, Sizes

#: Returned by :meth:`Workload.timed` when the operation raised.
FAILED = object()

_MAX_REPORTED = 5


class Segment:
    """What one stretch of the timed phase measured (a traced run has
    two: the traced part and an untraced tail)."""

    def __init__(self) -> None:
        self.rec = Recorder()
        #: application-level operations completed (a flight, scan or
        #: catch-up counts its entries).
        self.ops_done = 0
        self.group_writes = 0
        self.scan_entries = 0
        self.selective_entries = 0  # tango_catchup's 1-of-4 rounds

    def end_to_end(self, raw: bool = False) -> Dict[str, float]:
        """The role metrics (all but ``setup_s``)."""
        rec = self.rec
        wall = rec.raw_wall if raw else rec.corrected_wall
        group_time = rec.total("group", raw)
        scan_time = rec.total("scan", raw)
        return {
            "ops_per_s": self.ops_done / wall if wall else 0.0,
            "write_p50_us": rec.quantile_us("write", 0.50, raw),
            "write_p99_us": rec.quantile_us("write", 0.99, raw),
            "read_p50_us": rec.quantile_us("read", 0.50, raw),
            "group_p50_us": rec.quantile_us("group", 0.50, raw),
            "group_p99_us": rec.quantile_us("group", 0.99, raw),
            "group_writes_per_s": self.group_writes / group_time if group_time else 0.0,
            "scan_entries_per_s": self.scan_entries / scan_time if scan_time else 0.0,
        }


class Workload:
    name = ""
    backend_kind = "inproc"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.backend: Optional[Backend] = None
        self.seg = Segment()
        self.tracer: Optional[Tracer] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: cycles run under the tracer; the first ``count_cycles`` of
        #: them feed the exact (#) counts.
        self.traced_cycles = 0
        self.count_cycles = sizes.count_cycles

    # -- lifecycle (subclasses extend) ---------------------------------------

    def setup(self) -> None:
        """Open the backend, prepopulate and warm up; untimed ops only."""
        self.backend = BACKENDS[self.backend_kind]()

    def cycle(self) -> None:
        """One repetition of the workload's operation pattern."""
        raise NotImplementedError

    def between_blocks(self) -> None:
        """Untimed oracle work between two timed blocks."""

    def finish(self) -> None:
        """Final oracle checks after the timed phase."""

    def digest(self) -> str:
        return ""

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    # -- the timed phase -----------------------------------------------------

    def run_block(self) -> None:
        """Cycles for about BLOCK_SECONDS between two reference timings."""
        rec = self.seg.rec
        rec.begin_block()
        until = perf_counter() + BLOCK_SECONDS
        while True:
            self.counted_cycle()
            if perf_counter() >= until:
                break
        rec.end_block()

    def counted_cycle(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.counting = self.traced_cycles < self.count_cycles
            self.traced_cycles += 1
        self.cycle()

    def timed(self, role: str, fn: Callable, *args):
        """Run one operation, record its latency under *role*.

        An operation that raises is a failed operation, not a crash of
        the benchmark: this is the boundary that keeps the run going
        and reports it.
        """
        self.attempted += 1
        tracer = self.tracer
        frame = tracer.begin_op(role) if tracer is not None else None
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception:  # noqa: BLE001 - see docstring
            self.fail(f"{role} raised:\n{traceback.format_exc()}")
            out = FAILED
        else:
            self.seg.rec.kind(role).append(perf_counter() - t0)
        finally:
            if frame is not None:
                tracer.end_op(frame)
        return out

    def fail(self, why: str) -> None:
        """Count one attempted operation as failed: it raised, or the
        oracle rejected what it returned or left in the log."""
        self.failed += 1
        if len(self.failures) < _MAX_REPORTED:
            self.failures.append(why)
            print(f"tangobench: FAILED {self.name}: {why}", file=sys.stderr)

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        """This workload's per-layer metrics from the traced segment."""
        return {}
