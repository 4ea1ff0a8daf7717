"""``--check-repeat``: does the benchmark agree with itself?

Runs two full sets of the same code - every workload untraced and
traced, each in its own process exactly as the driver would start it -
and fails unless every end-to-end metric of the second set is within
its ``BENCHMARK.json`` bound of the first and every exact (#) count is
identical. A pair where either run was labelled ``noisy`` is
``unresolved``: reported, never counted as agreement.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

from tb.backends import OUT_DIR
from tb.spec import PER_LAYER, WORKLOADS

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(OUT_DIR))), "BENCHMARK.json"
)


def _run(run_py: str, workload: str, seed: int, seconds: float, trace: int) -> Dict:
    argv = [
        sys.executable, run_py, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=300, check=False)
    if done.returncode != 0:
        raise SystemExit(f"check-repeat: {' '.join(argv)} exited {done.returncode}")
    with open(os.path.join(OUT_DIR, f"result-{workload}-trace{trace}.json"), encoding="utf-8") as f:
        return json.load(f)


def check_repeat(run_py: str, seed: int, seconds: float) -> int:
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    exact = [m.name for m in PER_LAYER if m.exact]
    sets: List[Dict[str, Dict[int, Dict]]] = []
    for number in (1, 2):
        reports: Dict[str, Dict[int, Dict]] = {}
        for workload in WORKLOADS:
            print(f"check-repeat: set {number}: {workload}", file=sys.stderr)
            reports[workload] = {
                trace: _run(run_py, workload, seed, seconds, trace) for trace in (0, 1)
            }
        sets.append(reports)

    disagreements = 0
    for workload in WORKLOADS:
        first, second = (reports[workload] for reports in sets)
        noisy = first[0]["noisy"] or second[0]["noisy"]
        print(f"{workload}{' (noisy run: unresolved)' if noisy else ''}")
        print(f"  {'metric':<40}{'set 1':>14}{'set 2':>14}{'differ':>9}{'bound':>7}  verdict")
        for name, bound in bounds.items():
            a, b = first[0]["metrics"][name], second[0]["metrics"][name]
            differ = abs(a - b) / a if a else float(b != 0)
            if noisy:
                verdict = "unresolved"
            elif differ <= bound:
                verdict = "agree"
            else:
                verdict = "DISAGREE"
                disagreements += 1
            print(f"  {name:<40}{a:>14.3f}{b:>14.3f}{differ:>9.1%}{bound:>7.0%}  {verdict}")
        complete = first[1]["count_prefix_complete"] and second[1]["count_prefix_complete"]
        for name in exact:
            a, b = first[1]["metrics"][name], second[1]["metrics"][name]
            if not complete:
                verdict = "unresolved (run too short for the count prefix)"
            elif a == b:
                verdict = "identical"
            else:
                verdict = "DIFFERENT"
                disagreements += 1
            print(f"  {name + ' #':<40}{a:>14.4f}{b:>14.4f}{'':>16}  {verdict}")
        if first[0]["digest"] != second[0]["digest"]:
            print("  op digest DIFFERENT between the sets")
            disagreements += 1
    print(f"check-repeat: {disagreements} disagreement(s)")
    return 1 if disagreements else 0
