"""The seed fixes the operation sequence and every exact (#) count."""

import json
import os

import pytest
from conftest import BENCH_DIR, run_bench

from tb import spec

EXACT = [m.name for m in spec.PER_LAYER if m.exact]


def sidecar(workload, trace):
    path = os.path.join(BENCH_DIR, "out", f"result-{workload}-trace{trace}.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def digest(workload, seed):
    code, _, _ = run_bench("--workload", workload, "--seed", seed, "--seconds", 1, "--trace", 0)
    assert code == 0
    return sidecar(workload, 0)["digest"]


def test_same_seed_same_ops_on_inproc_and_wire_and_across_runs():
    first = digest("log_inproc", 7)
    assert first == digest("log_inproc", 7), "across runs"
    assert first == digest("log_wire", 7), "inproc and wire run the identical sequence"
    assert first != digest("log_inproc", 8), "another seed, another sequence"


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_exact_counts_repeat(workload):
    runs = []
    for _ in range(2):
        code, result, _ = run_bench(
            "--workload", workload, "--seed", 5, "--seconds", 3, "--trace", 1
        )
        assert code == 0 and result["correct"]
        assert sidecar(workload, 1)["count_prefix_complete"]
        runs.append({name: result["metrics"][name]["value"] for name in EXACT})
    assert runs[0] == runs[1]
    assert any(runs[0].values()), "the workload moves at least one count"
