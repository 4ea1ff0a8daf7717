"""Run one workload once: set-up, timed phase, oracle, metrics, report."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from tb import backends, spans
from tb.clock import drift_scale, percentile, time_ref
from tb.log_workload import LogDurable, LogInproc, LogWire
from tb.spec import (
    END_TO_END,
    PER_LAYER,
    REF_JITTER_LIMIT,
    SMOKE,
    WORKLOADS,
    Sizes,
)
from tb.tango_workloads import TangoCatchup, TangoMix
from tb.workload import Segment, Workload

CLASSES = {
    cls.name: cls for cls in (LogInproc, LogWire, LogDurable, TangoMix, TangoCatchup)
}
assert list(CLASSES) == list(WORKLOADS)

#: Share of a traced run spent untraced at the end, to price the tracing.
#: The traced part comes first so that it starts from the state set-up
#: left, whatever the machine's speed: the exact (#) counts cover its
#: first operations.
UNTRACED_TAIL = 0.2

#: Operations whose layer budget is printed (and must add up).
BUDGET_KINDS = ("write", "read", "group", "scan")
COVERED_KINDS = ("write", "read", "group")


class Watchdog:
    """Hard limit on one run, set-up included: report the hang as a
    failure and exit.

    Counts the unfinished operation as failed instead of hanging; node
    processes and temp dirs are released before the process exits.
    """

    def __init__(self, limit_s: float, name: str) -> None:
        self._timer = threading.Timer(limit_s, self._expire)
        self._timer.daemon = True
        self._limit = limit_s
        self._name = name
        #: the workload being set up or measured, once there is one.
        self.workload: Optional[Workload] = None

    def __enter__(self) -> "Watchdog":
        self._timer.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.cancel()

    def _expire(self) -> None:
        wl = self.workload
        print(f"tangobench: {self._name} exceeded {self._limit:.0f}s; giving up", file=sys.stderr)
        result = {
            "correct": False,
            "attempted": (wl.attempted if wl else 0) + 1,
            "failed": (wl.failed if wl else 0) + 1,
            "metrics": {},
        }
        print(json.dumps(result), flush=True)
        backends.close_all()
        os._exit(3)


def _cpu_seconds(pids: Dict[str, int]) -> float:
    """User + system CPU the node processes have used so far."""
    ticks = 0
    for pid in pids.values():
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pids: Dict[str, int]) -> float:
    total_kb = 0
    for pid in pids.values():
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


def _timed_phase(wl: Workload, seconds: float) -> None:
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        wl.run_block()
        wl.between_blocks()


def _set_up(
    cls, seed: int, sizes: Sizes, import_s: float, corrupt_seq: Optional[int], watchdog: Watchdog
) -> Tuple[Workload, List[float]]:
    """Set up ``sizes.setups`` times; keep the last, time them all.

    Each duration is drift-corrected like every other wall time: scaled
    by the reference kernel timed just before and after it. The
    process's one start-up (*import_s*) counts towards every set-up.
    """
    durations: List[float] = []
    wl: Optional[Workload] = None
    ref_before = time_ref()
    start_up = import_s * drift_scale(ref_before, ref_before)
    for _ in range(sizes.setups):
        if wl is not None:
            wl.close()
        wl = watchdog.workload = cls(seed, sizes)
        if corrupt_seq is not None:
            wl.corrupt_seq = corrupt_seq
        t0 = perf_counter()
        try:
            wl.setup()
        except BaseException:
            wl.close()
            raise
        wall = perf_counter() - t0
        ref_after = time_ref()
        durations.append(start_up + wall * drift_scale(ref_before, ref_after))
        ref_before = ref_after
    assert wl is not None
    return wl, durations


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes,
    import_s: float = 0.0,
    corrupt_seq: Optional[int] = None,
) -> Dict:
    """One run; returns the full report (see :func:`emit`)."""
    limit_s = seconds + 120.0  # set-ups, the timed phase, the final oracle pass
    if trace:  # set-up time is an untraced-pass metric
        sizes = sizes._replace(setups=1)
    with Watchdog(limit_s, name) as watchdog:
        wl, setups = _set_up(CLASSES[name], seed, sizes, import_s, corrupt_seq, watchdog)
        try:
            return _measure(wl, seconds, trace, setups)
        finally:
            wl.close()


def _measure(wl: Workload, seconds: float, trace: bool, setups: List[float]) -> Dict:
    pids = wl.backend.node_pids()
    cpu0, node_cpu0 = time.process_time(), _cpu_seconds(pids)
    seg = wl.seg
    plain: Optional[Segment] = None  # a traced run's untraced tail
    tracer: Optional[spans.Tracer] = None
    frames: Optional[List] = [] if wl.backend.kind == "wire" else None
    # The cyclic collector is off while operations are timed (as
    # ``timeit`` does). Measured on tango_mix (a 400 MB heap by the end):
    # it found nothing to free during the phase, yet its full passes put
    # 100 ms pauses on random operations - run-to-run spread of mean tx
    # latency 8.5% with it, 4.2% without; of a lagging catch-up 16% vs
    # 3.6%. Workloads that drop cyclic garbage collect it between blocks,
    # and ``bench.gc_unreachable`` is what a final pass still finds.
    gc.collect()
    gc.disable()
    try:
        if trace:
            tracer = wl.tracer = spans.Tracer()
            patches = spans.install(tracer, wl.backend.transport, frames)
            try:
                _timed_phase(wl, seconds * (1 - UNTRACED_TAIL))
            finally:
                patches.restore()
                wl.tracer = None
            plain = wl.seg = Segment()
            _timed_phase(wl, seconds * UNTRACED_TAIL)
        else:
            _timed_phase(wl, seconds)
    finally:
        gc.enable()
    cpu1, node_cpu1 = time.process_time(), _cpu_seconds(pids)
    unreachable = gc.collect()
    wl.finish()

    ref_ms, ref_spread, ref_jitter = seg.rec.ref_stats()
    report: Dict = {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": seconds,
        "trace": int(trace),
        "digest": wl.digest(),
        "attempted": wl.attempted,
        "failed": min(wl.failed, wl.attempted),
        "noisy": ref_jitter > REF_JITTER_LIMIT,
        "samples": {kind: seg.rec.count(kind) for kind in sorted(seg.rec.raw)},
        "failures": wl.failures,
        "tables": [],
    }
    report["correct"] = report["failed"] == 0
    end_to_end = seg.end_to_end()
    end_to_end["setup_s"] = statistics.median(setups)
    raw = (plain or seg).end_to_end(raw=True)
    ops = seg.ops_done + (plain.ops_done if plain else 0)
    qualifiers = {
        "bench.ref_kernel_ms": ref_ms,
        "bench.ref_spread": ref_spread,
        "bench.ref_jitter": ref_jitter,
        "bench.ref_cost_frac": seg.rec.ref_wall / (seg.rec.ref_wall + seg.rec.raw_wall),
        "bench.driver_cpu_us_per_op": (cpu1 - cpu0) / ops * 1e6 if ops else 0.0,
        "bench.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bench.gc_unreachable": unreachable,
        "bench.trim_stall_ms": seg.rec.quantile_us("trim", 0.5) / 1e3,
        **{f"bench.raw_{key}": value for key, value in raw.items()},
    }
    if not trace:
        report["metrics"] = {m.name: end_to_end[m.name] for m in END_TO_END}
        report["extras"] = qualifiers
        return report

    assert tracer is not None and plain is not None
    layer = dict.fromkeys((m.name for m in PER_LAYER), 0.0)
    layer.update(wl.layer_metrics(tracer))
    layer.update(qualifiers)
    if pids:
        layer["net.server.cpu_us_per_op"] = (node_cpu1 - node_cpu0) / ops * 1e6 if ops else 0.0
        layer["net.server.peak_rss_mb"] = _peak_rss_mb(pids)
        layer["proc.spawn_ready_s"] = wl.backend.spawn_ready_s
    traced_p50 = seg.rec.quantile_us("write", 0.5)
    untraced_p50 = plain.rec.quantile_us("write", 0.5)
    layer["bench.trace_overhead_frac"] = traced_p50 / untraced_p50 - 1 if untraced_p50 else 0.0
    covered = [tracer.coverage(kind) for kind in COVERED_KINDS if tracer.op_total.get(kind)]
    # the operation kind whose layers add up worst speaks for the run
    layer["bench.span_coverage_frac"] = max(covered, key=lambda c: abs(c - 1)) if covered else 0.0
    report["count_prefix_complete"] = wl.traced_cycles >= wl.count_cycles
    for kind in BUDGET_KINDS:
        if tracer.op_total.get(kind):
            report["tables"].append(budget_table(wl.name, kind, tracer))
    if isinstance(wl, LogWire):
        layer.update(_wire_metrics(wl, tracer, frames or [], report))
    report["metrics"] = {m.name: layer[m.name] for m in PER_LAYER}
    report["extras"] = {k: v for k, v in end_to_end.items() if k != "setup_s"}
    os.makedirs(backends.OUT_DIR, exist_ok=True)
    tracer.write_raw(os.path.join(backends.OUT_DIR, f"trace-{wl.name}.jsonl"))
    return report


def budget_table(workload: str, kind: str, tracer: spans.Tracer) -> str:
    total = tracer.op_p50_us(kind)
    lines = [
        f"where the time goes: {workload} {kind} "
        f"(traced p50 {total:.1f} us over {len(tracer.op_total[kind])} ops, "
        f"layers cover {tracer.coverage(kind):.2f} of it)",
        f"  {'layer':<20}{'p50 self us':>12}{'share':>8}",
    ]
    for layer, us, share in tracer.budget(kind):
        lines.append(f"  {layer:<20}{us:>12.1f}{share:>8.1%}")
    return "\n".join(lines)


def _wire_metrics(wl: LogWire, tracer: spans.Tracer, frames: List, report: Dict) -> Dict[str, float]:
    """Wire-only layer metrics, and the in-proc vs wire budget table.

    The same seeded cycle runs for a moment on an in-process cluster in
    this process, traced the same way, so the two budgets sit side by
    side and ``net.socket.overhead_us`` has its in-proc baseline.
    """
    out = wl.codec_metrics(frames, tracer.ops_counted.get("write", 0))
    transport = wl.backend.transport
    pings = []
    for _ in range(200):
        t0 = perf_counter()
        transport.call("tangobench", "seq-0", "ping", None, (), {})
        pings.append(perf_counter() - t0)
    out["net.socket.rtt_floor_us"] = percentile(sorted(pings), 0.5) * 1e6
    calls = {
        "increment": "sequencer.increment",
        "write": "storage.write.hop0",
        "read": "storage.read.hop1",
    }
    for short, span in calls.items():
        out[f"net.socket.call_us.{short}"] = tracer.dur_p50_us("net.socket", span)

    local = LogInproc(wl.seed, SMOKE)
    local.setup()
    try:
        local_tracer = local.tracer = spans.Tracer()
        patches = spans.install(local_tracer, local.backend.transport)
        try:
            for _ in range(150):
                local.cycle()
        finally:
            patches.restore()
    finally:
        local.close()
    out["net.socket.overhead_us"] = out["net.socket.call_us.write"] - local_tracer.dur_p50_us(
        "net.transport", calls["write"]
    )
    for kind in ("write", "read"):
        report["tables"].append(side_by_side(kind, local_tracer, tracer))
    return out


def side_by_side(kind: str, inproc: spans.Tracer, wire: spans.Tracer) -> str:
    rows_in = {layer: us for layer, us, _ in inproc.budget(kind)}
    rows_wire = {layer: us for layer, us, _ in wire.budget(kind)}
    lines = [
        f"log_inproc vs log_wire: {kind} "
        f"(traced p50 {inproc.op_p50_us(kind):.1f} vs {wire.op_p50_us(kind):.1f} us)",
        f"  {'layer':<20}{'inproc us':>12}{'wire us':>12}{'wire - inproc':>15}",
    ]
    for layer in sorted(set(rows_in) | set(rows_wire), key=lambda la: -rows_wire.get(la, 0.0)):
        a, b = rows_in.get(layer, 0.0), rows_wire.get(layer, 0.0)
        lines.append(f"  {layer:<20}{a:>12.1f}{b:>12.1f}{b - a:>+15.1f}")
    return "\n".join(lines)


def emit(report: Dict) -> int:
    """Print the report, then the contract's one-line JSON; exit code."""
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    label = " NOISY (comparisons are unresolved)" if report["noisy"] else ""
    print(
        f"tangobench {report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']} trace={report['trace']} "
        f"digest={report['digest']}{label}"
    )
    print(f"  samples: {report['samples']}")
    for title in ("metrics", "extras"):
        print(f"  {title}:")
        for name, value in report[title].items():
            print(f"    {name:<50}{value:>16.4f} {units.get(name, '')}")
    for table in report["tables"]:
        print(table)
    os.makedirs(backends.OUT_DIR, exist_ok=True)
    sidecar = os.path.join(
        backends.OUT_DIR, f"result-{report['workload']}-trace{report['trace']}.json"
    )
    with open(sidecar, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=1, sort_keys=True)
    line = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if report["correct"] else 1
