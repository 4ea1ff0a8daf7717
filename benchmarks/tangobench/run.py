#!/usr/bin/env python3
"""tangobench: one command, one workload, one run.

    python3 benchmarks/tangobench/run.py --workload log_inproc --seed 1 \\
        --seconds 10 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric
and the where-the-time-goes tables) by name and unit, checks every
output against an oracle, and ends with one JSON line. See README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import atexit  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def pin_to_one_cpu() -> None:
    """Run the driver, its helper threads and the node processes it
    spawns (they inherit the mask) on a single CPU.

    One driver thread runs a closed loop, and the program's own helper
    threads share the interpreter lock with it, so a second CPU adds no
    parallelism - only a choice for the scheduler to make. Measured on
    2 cores: unpinned, a 16-entry flight flips between 570 and 1050 us
    within one run (and 3.6 / 6.2 ms over the wire) depending on where
    the stage threads land; pinned it holds 5.1-5.4 reference units.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tangobench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics, budget tables)")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, tiny sizes, oracle on, well under 15 s")
    parser.add_argument("--check-repeat", action="store_true",
                        help="two full sets; fail unless they agree within the bounds")
    parser.add_argument("--selftest-corrupt", type=int, default=None, metavar="SEQ",
                        help="(self-test) make the oracle expect a wrong payload for append SEQ")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"tangobench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from tb import backends, driver, repeat, spec

    atexit.register(backends.close_all)
    import_s = time.perf_counter() - _T0

    if args.check_repeat:
        return repeat.check_repeat(os.path.abspath(__file__), args.seed, args.seconds)
    if args.smoke:
        code = 0
        for name in spec.WORKLOADS:
            for trace in (False, True):
                report = driver.run_workload(name, args.seed, 0.6, trace, spec.SMOKE)
                code |= driver.emit(report)
        return code
    if args.workload not in spec.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(spec.WORKLOADS)}")
    report = driver.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), spec.FULL,
        import_s=import_s, corrupt_seq=args.selftest_corrupt,
    )
    return driver.emit(report)


if __name__ == "__main__":
    sys.exit(main())
