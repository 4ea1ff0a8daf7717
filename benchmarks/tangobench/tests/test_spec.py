"""BENCHMARK.json, tb.spec and what the command prints name the same things."""

import re

import pytest
from conftest import run_bench

from tb import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_units_and_caps():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    names = list(spec.WORKLOADS) + [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert NAME.match(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    for why in spec.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


def test_benchmark_json_matches_spec(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark_json["paths"] == ["benchmarks/tangobench"]
    assert benchmark_json["command"] == ["python3", "benchmarks/tangobench/run.py"]
    assert [(w["name"], w["why"]) for w in benchmark_json["workloads"]] == list(
        spec.WORKLOADS.items()
    )
    listed = [(m["name"], m["unit"], m["better"]) for m in benchmark_json["end_to_end"]]
    assert listed == [(m.name, m.unit, m.better) for m in spec.END_TO_END]
    listed = [(m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]]
    assert listed == [(m.name, m.unit, m.better) for m in spec.PER_LAYER]
    for metric in benchmark_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in benchmark_json["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_exactly_the_listed_metrics(benchmark_json, trace, section):
    code, result, _ = run_bench(
        "--workload", "log_inproc", "--seed", 3, "--seconds", 1, "--trace", trace
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in benchmark_json[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values()), "never 0"
