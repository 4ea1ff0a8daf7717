"""Drift-corrected timing.

On a shared 2-core sandbox the machine's speed wanders by 10-30% over
seconds (neighbours, not preemption: ``process_time`` tracks wall). A
fixed pure-Python reference kernel is timed before and after every
~15 ms block of operations; each sample of the block is scaled by
``NOMINAL_REF_US / observed`` and so reads "at nominal machine speed".
Raw samples are kept beside the corrected ones so nothing is hidden.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from tb.spec import NOMINAL_REF_US


def ref_kernel() -> int:
    """Fixed interpreter-bound work: dict, int, bytes and call traffic."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(600):
        key = i & 63
        table[key] = acc
        acc = (acc + len(b"%d" % i) + table.get(key ^ 1, 0)) & 0xFFFF
    return acc


def time_ref() -> float:
    """Seconds for one kernel run: the faster of two, to shed a preemption."""
    t0 = perf_counter()
    ref_kernel()
    t1 = perf_counter()
    ref_kernel()
    t2 = perf_counter()
    return min(t1 - t0, t2 - t1)


def drift_scale(ref_before: float, ref_after: float) -> float:
    """Factor that turns a wall time measured between two reference
    timings into a time "at nominal machine speed"."""
    return NOMINAL_REF_US * 1e-6 / ((ref_before + ref_after) / 2)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


class Recorder:
    """Per-kind latency samples gathered in reference-bracketed blocks.

    Usage: ``begin_block()``, append raw durations to ``block[kind]``,
    ``end_block()``. ``corrected`` and ``raw`` hold seconds.
    """

    def __init__(self) -> None:
        self.block: Dict[str, List[float]] = {}
        self.raw: Dict[str, List[float]] = {}
        self.corrected: Dict[str, List[float]] = {}
        self.refs: List[float] = []
        self.jitters: List[float] = []
        self.raw_wall = 0.0
        self.corrected_wall = 0.0
        self.ref_wall = 0.0
        self._ref_before = 0.0
        self._t0 = 0.0

    def kind(self, name: str) -> List[float]:
        """The current block's sample list for *name*."""
        return self.block.setdefault(name, [])

    def begin_block(self) -> None:
        if not self._ref_before:
            t = perf_counter()
            self._ref_before = time_ref()
            self.refs.append(self._ref_before)
            self.ref_wall += perf_counter() - t
        self._t0 = perf_counter()

    def end_block(self) -> None:
        t1 = perf_counter()
        ref_after = time_ref()
        self.ref_wall += perf_counter() - t1
        self.refs.append(ref_after)
        scale = drift_scale(self._ref_before, ref_after)
        self.jitters.append(
            abs(ref_after - self._ref_before) / ((self._ref_before + ref_after) / 2)
        )
        self._ref_before = ref_after  # the next block's "before"
        wall = t1 - self._t0
        self.raw_wall += wall
        self.corrected_wall += wall * scale
        for name, samples in self.block.items():
            if samples:
                self.raw.setdefault(name, []).extend(samples)
                self.corrected.setdefault(name, []).extend(
                    [s * scale for s in samples]
                )
                samples.clear()

    def count(self, name: str) -> int:
        return len(self.raw.get(name, ()))

    def quantile_us(self, name: str, q: float, raw: bool = False) -> float:
        data = sorted((self.raw if raw else self.corrected).get(name, ()))
        return percentile(data, q) * 1e6

    def total(self, name: str, raw: bool = False) -> float:
        return sum((self.raw if raw else self.corrected).get(name, ()))

    def ref_stats(self) -> Tuple[float, float, float]:
        """(median kernel ms, its IQR / median over the run, jitter).

        The spread says how far the machine's speed wandered, which the
        correction absorbs. The jitter - the median disagreement between
        the two timings that bracket a block - says how well a block's
        speed is known, which bounds how good the correction can be.
        """
        if not self.refs:
            return 0.0, 0.0, 0.0
        return (
            statistics.median(self.refs) * 1e3,
            spread(self.refs),
            statistics.median(self.jitters),
        )
