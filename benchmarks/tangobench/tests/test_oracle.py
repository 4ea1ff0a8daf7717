"""A wrong output must be caught: failed > 0 and a non-zero exit."""

import shutil
import subprocess
import sys

from conftest import BENCH_DIR, REPO, run_bench


def test_healthy_run_is_correct():
    code, result, _ = run_bench("--workload", "log_durable", "--seed", 2, "--seconds", 1, "--trace", 0)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0


def test_corrupted_payload_in_the_oracles_view_fails_the_run():
    # The oracle is told to expect a flipped byte in append seq 100 (a
    # warm-up append): the log is healthy, so the read-back must mismatch.
    code, result, _ = run_bench(
        "--workload", "log_inproc", "--seed", 2, "--seconds", 1, "--trace", 0,
        "--selftest-corrupt", 100,
    )
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_smoke_runs_every_workload_with_the_oracle_on():
    code, result, out = run_bench("--smoke", timeout=60)
    assert code == 0, out[-2000:]
    assert result["correct"] is True
    for name in ("log_inproc", "log_wire", "log_durable", "tango_mix", "tango_catchup"):
        assert f"tangobench {name} " in out


def test_without_the_program_there_is_no_result(tmp_path):
    """In a directory holding only the benchmark, the command must fail
    without printing a result (the driver tries exactly this)."""
    dest = tmp_path / "benchmarks" / "tangobench"
    shutil.copytree(BENCH_DIR, dest, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(f"{REPO}/BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/tangobench/run.py", "--workload", "log_inproc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
