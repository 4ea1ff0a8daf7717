"""Regenerate the paper's evaluation from the command line.

::

    python -m repro.bench                 # every figure, default sizes
    python -m repro.bench fig2 fig10l     # a subset
    python -m repro.bench --quick         # fast, low-resolution pass

Prints one paper-vs-measured table per figure. The same experiments run
under pytest with shape assertions via ``pytest benchmarks/
--benchmark-only``; this entry point is for eyeballing curves and
generating tables for reports.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

from repro.bench import experiments as E
from repro.bench import experiments_functional as F
from repro.bench.plotting import ascii_chart, series_from_rows

_PLOT = {"enabled": False}


def _plot(title, rows, x_key, y_key, group_key=None):
    if not _PLOT["enabled"] or not rows:
        return
    print()
    print(ascii_chart(series_from_rows(rows, x_key, y_key, group_key),
                      title=f"{title} [plot]", x_label=x_key, y_label=y_key))


def _table(title: str, rows: List[dict], columns) -> None:
    print(f"\n=== {title} ===")
    header = " | ".join(f"{c:>20}" for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:>20.2f}")
            else:
                cells.append(f"{str(value):>20}")
        print(" | ".join(cells))


def _run_fig2(quick: bool) -> None:
    clients = (1, 4, 16, 32) if quick else (1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40)
    rows = E.fig2_sequencer(client_counts=clients)
    _table("Figure 2: sequencer throughput (paper plateau ~570K)", rows,
           ("clients", "kreq_per_sec"))
    _plot("Figure 2", rows, "clients", "kreq_per_sec")


def _run_fig8l(quick: bool) -> None:
    windows = (8, 64, 256) if quick else (8, 16, 32, 64, 128, 256)
    ratios = (1.0, 0.0) if quick else (1.0, 0.9, 0.5, 0.1, 0.0)
    rows = E.fig8_single_view(write_ratios=ratios, windows=windows)
    _table("Figure 8 left: latency vs throughput (paper: 135K reads / 38K writes)",
           rows, ("write_ratio", "window", "kops_per_sec", "latency_ms"))


def _run_fig8m(quick: bool) -> None:
    rates = (0, 10e3, 40e3) if quick else (0, 5e3, 10e3, 15e3, 20e3, 25e3, 30e3, 35e3, 40e3)
    rows = E.fig8_two_views(target_write_rates=rates)
    _table("Figure 8 middle: primary/backup (paper: total ~40K, latency climbs)",
           rows, ("target_writes_kops", "reads_kops", "writes_kops", "read_latency_ms"))


def _run_fig8r(quick: bool) -> None:
    readers = (4, 12, 18) if quick else (2, 4, 6, 8, 10, 12, 14, 16, 18)
    rows = E.fig8_elasticity(reader_counts=readers)
    _table("Figure 8 right: elasticity (paper: 2-server ~120K cap; 18-server 180K)",
           rows, ("log", "readers", "reads_kops", "read_latency_ms"))
    _plot("Figure 8 right", rows, "readers", "reads_kops", group_key="log")


def _run_fig9(quick: bool) -> None:
    nodes = (2, 3, 8) if quick else (2, 3, 4, 5, 6, 7, 8)
    keys = (100, 10_000, 1_000_000) if quick else (10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000)
    rows = E.fig9_tx_goodput(node_counts=nodes, key_counts=keys)
    _table("Figure 9: full replication (paper: 99%/70% goodput; playback cap)",
           rows, ("distribution", "keys", "nodes", "ktx_per_sec", "goodput_pct"))


def _run_fig10l(quick: bool) -> None:
    nodes = (2, 10, 18) if quick else (2, 4, 6, 8, 10, 12, 14, 16, 18)
    rows = E.fig10_partitions(node_counts=nodes)
    _table("Figure 10 left: partitions (paper: 6-server caps ~150K; 18-server ~200K)",
           rows, ("log", "nodes", "ktx_per_sec"))
    _plot("Figure 10 left", rows, "nodes", "ktx_per_sec", group_key="log")


def _run_fig10m(quick: bool) -> None:
    pcts = (0, 16, 100) if quick else (0, 1, 2, 4, 8, 16, 32, 64, 100)
    rows = E.fig10_cross_partition(cross_pcts=pcts)
    _table("Figure 10 middle: cross-partition, Tango vs 2PL (paper: graceful, comparable)",
           rows, ("cross_pct", "tango_ktx", "twopl_ktx"))
    _plot("Figure 10 middle (Tango)", rows, "cross_pct", "tango_ktx")


def _run_fig10r(quick: bool) -> None:
    pcts = (0, 1, 8, 100) if quick else (0, 1, 2, 4, 8, 16, 32, 64, 100)
    rows = E.fig10_shared_object(shared_pcts=pcts)
    _table("Figure 10 right: shared object (paper: sharp knee, graceful tail)",
           rows, ("shared_pct", "ktx_per_sec", "latency_ms"))
    _plot("Figure 10 right", rows, "shared_pct", "ktx_per_sec")


def _run_sec63(quick: bool) -> None:
    scale = (2, 40, 20) if quick else (3, 120, 60)
    rows = F.sec63_zookeeper(clients=scale[0], ops_per_client=scale[1], moves=scale[2])
    rows += F.sec63_bookkeeper(entries=100 if quick else 300)
    _table("Section 6.3: TangoZK / TangoBK (functional layer)",
           rows, ("metric", "measured", "paper"))


def _run_sec5(quick: bool) -> None:
    rows = F.sec5_sequencer_failover(entries=100 if quick else 300)
    _table("Section 5: sequencer failover (functional layer)",
           rows, ("metric", "measured", "paper"))
    rows = F.sec5_failover_vs_checkpoint(
        log_sizes=(100, 400) if quick else (100, 400, 1600)
    )
    _table("Section 5 ablation: failover with/without sequencer checkpoints",
           rows, ("log_entries", "checkpointed", "scan_reads", "scan_rpcs", "failover_ms"))


_RUNNERS: Dict[str, object] = {
    "fig2": _run_fig2,
    "fig8l": _run_fig8l,
    "fig8m": _run_fig8m,
    "fig8r": _run_fig8r,
    "fig9": _run_fig9,
    "fig10l": _run_fig10l,
    "fig10m": _run_fig10m,
    "fig10r": _run_fig10r,
    "sec63": _run_sec63,
    "sec5": _run_sec5,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the Tango paper's evaluation figures.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help=f"subset to run ({', '.join(_RUNNERS)}); default: all",
    )
    parser.add_argument(
        "--quick", action="store_true", help="low-resolution fast pass"
    )
    parser.add_argument(
        "--plot", action="store_true", help="draw ASCII charts of the curves"
    )
    args = parser.parse_args(argv)
    _PLOT["enabled"] = args.plot
    targets = args.figures or list(_RUNNERS)
    unknown = [t for t in targets if t not in _RUNNERS]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")
    started = time.time()
    for target in targets:
        _RUNNERS[target](args.quick)
    print(f"\ndone in {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
