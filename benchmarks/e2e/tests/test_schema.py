"""``BENCHMARK.json`` against the driver's contract, and ``compare.py``."""

from __future__ import annotations

import json
import re

import pytest

from conftest import E2E, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_top_level_keys_and_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    # 4 + 22 runs per workload, set-up included, inside the driver's 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 15) <= 3420


def test_command_and_paths_stay_inside_the_benchmark(spec):
    assert spec["paths"] == ["benchmarks/e2e"]
    assert E2E == ROOT / spec["paths"][0]
    assert len(spec["command"]) <= 32
    for part in spec["command"]:
        assert len(part) <= 200 and not part.startswith("/") and ".." not in part
    assert spec["command"][1].startswith(spec["paths"][0] + "/")
    assert (ROOT / spec["command"][1]).is_file()


def test_every_name_is_legal_and_used_once(spec):
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))


def test_workloads_have_a_one_line_why(spec):
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_have_unit_direction_and_bound(spec):
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")


def test_setup_time_is_a_metric_with_the_largest_bound(spec):
    by_name = {m["name"]: m for m in spec["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_worsening_is_a_share_of_the_base_in_the_metrics_direction(compare):
    assert compare.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert compare.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert compare.worsening(100.0, 80.0, "higher") == pytest.approx(0.20)


def test_verdict_needs_a_spread_narrower_than_the_bound(compare):
    assert compare.verdict(0.05, base_spread=0.03, bound=0.10) == "ok"
    assert compare.verdict(0.12, base_spread=0.03, bound=0.10) == "regressed"
    assert compare.verdict(0.12, base_spread=0.11, bound=0.10) == "unresolved"
    assert compare.verdict(-0.30, base_spread=0.11, bound=0.10) == "unresolved"


def _result(median, spread=0.02, sha="a", exact=None):
    return {
        "seed": 11, "seconds": 10.0,
        "workloads": {
            "w": {
                "output_sha256": sha, "failed": 0,
                "exact": exact or {"workload.stmts": 5.0},
                "end_to_end": {
                    "work_per_cpu_s": {
                        "unit": "1/s", "better": "higher", "bound": 0.15,
                        "median": median, "spread": spread,
                    }
                },
            }
        },
    }


def test_compare_gives_every_ratio_with_its_base(compare):
    (row,) = compare.compare(_result(10.0), _result(8.0))
    assert (row["base"], row["change"]) == (10.0, 8.0)
    assert row["ratio"] == pytest.approx(0.8)
    assert row["worse_by"] == pytest.approx(0.2)
    assert row["verdict"] == "regressed"
    (row,) = compare.compare(_result(10.0, spread=0.2), _result(8.0))
    assert row["verdict"] == "unresolved"


def test_compare_reports_outputs_that_stopped_repeating(compare):
    assert compare.output_differences(_result(1.0), _result(1.0)) == {}
    changed = _result(1.0, sha="b", exact={"workload.stmts": 6.0})
    assert compare.output_differences(_result(1.0), changed) == {
        "w": ["output_sha256", "workload.stmts"]
    }
