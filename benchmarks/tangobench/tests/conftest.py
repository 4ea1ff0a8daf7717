"""Self-tests of the benchmark itself. Run explicitly (not tier-1):

    python3 -m pytest benchmarks/tangobench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(BENCH_DIR))
RUN_PY = os.path.join(BENCH_DIR, "run.py")

sys.path.insert(0, BENCH_DIR)


def run_bench(*args, timeout=170):
    """Run the command as the driver does; (exit code, last-line JSON, stdout)."""
    done = subprocess.run(
        [sys.executable, RUN_PY, *map(str, args)],
        cwd=REPO, capture_output=True, text=True, timeout=timeout, check=False,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stdout


@pytest.fixture(scope="session")
def benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)
