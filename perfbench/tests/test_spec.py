"""Metric and workload names are valid, and BENCHMARK.json matches the spec."""

import json
from pathlib import Path

from perfbench.scenarios import SCENARIOS
from perfbench.spec import END_TO_END, NAME_PATTERN, PER_LAYER, UNIT_PATTERN, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_names_and_units_are_valid_and_unique():
    names = list(WORKLOADS) + [metric.name for metric in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_PATTERN.fullmatch(name), name
    for metric in END_TO_END + PER_LAYER:
        assert UNIT_PATTERN.fullmatch(metric.unit), metric
        assert metric.better in ("higher", "lower"), metric


def test_end_to_end_bounds_and_setup_metric():
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    for metric in END_TO_END:
        assert metric.bound is not None and 0 < metric.bound <= 0.25, metric
    setup = next(metric for metric in END_TO_END if metric.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(metric.bound for metric in END_TO_END)
    assert all(metric.bound is None for metric in PER_LAYER)


def test_workloads_have_one_line_reasons_and_a_scenario():
    assert 2 <= len(WORKLOADS) <= 8
    assert set(WORKLOADS) == set(SCENARIOS)
    for why in WORKLOADS.values():
        assert why and "\n" not in why and len(why) <= 200


def test_benchmark_json_matches_the_spec():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(config) == keys
    assert config["command"] == ["python3", "perfbench/run.py"]
    assert config["paths"] == ["perfbench"]
    assert isinstance(config["run_seconds"], int) and 1 <= config["run_seconds"] <= 60
    assert config["workloads"] == [{"name": name, "why": why} for name, why in WORKLOADS.items()]
    assert config["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert config["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
