"""The benchmark end to end, small: every workload, traced and untraced."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import E2E, ROOT

#: Directories tools other than the benchmark write to during a test run.
_NOT_OURS = {".git", ".pytest_cache", ".hypothesis"}


def _tree_outside_the_benchmark():
    found = set()
    for directory, names, files in os.walk(ROOT):
        relative = os.path.relpath(directory, ROOT)
        names[:] = [
            name for name in names
            if name not in _NOT_OURS
            and os.path.join(relative, name) != os.path.join("benchmarks", "e2e")
        ]
        found.update(os.path.join(relative, name) for name in files)
    return found


def _run(*arguments, cwd=ROOT, env=None, script=E2E / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *arguments],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    before = _tree_outside_the_benchmark()
    done = _run(
        "--quick", "--out", str(out / "result.json"),
        "--trace-out", str(out / "trace.json"),
    )
    after = _tree_outside_the_benchmark()
    return done, out, before, after


def test_quick_run_measures_all_five_workloads(quick, spec_names):
    done, out, _before, _after = quick
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out / "result.json", encoding="utf-8") as handle:
        report = json.load(handle)
    workloads, end_to_end, per_layer = spec_names
    assert list(report["workloads"]) == workloads
    for name, summary in report["workloads"].items():
        assert summary["failed"] == 0 and summary["attempted"] >= 1
        assert len(summary["output_sha256"]) == 64
        assert list(summary["end_to_end"]) == end_to_end
        for row in summary["end_to_end"].values():
            assert row["median"] > 0 and row["n"] == 1
            assert {"unit", "better", "bound", "q1", "q3", "spread"} <= set(row)
        assert list(summary["per_layer"]) == per_layer
        assert summary["per_layer"]["trace.work_per_cpu_s"] > 0


def test_layers_show_up_only_where_the_workload_enters_them(quick):
    _done, out, _before, _after = quick
    with open(out / "result.json", encoding="utf-8") as handle:
        layers = {
            name: summary["per_layer"]
            for name, summary in json.load(handle)["workloads"].items()
        }
    assert layers["tune_dta"]["dta.sessions"] > 0
    assert layers["tune_dta"]["whatif.calls"] > 0
    assert layers["tune_dta"]["exec.select_s"] == 0
    assert layers["ingest_dml"]["exec.dml_s"] > 0
    assert layers["ingest_dml"]["whatif.calls"] == 0
    assert layers["fleet_standard"]["controlplane.self_s"] > 0
    for name, values in layers.items():
        parallel = [v for k, v in values.items() if k.startswith("parallel.")]
        assert any(parallel) == (name == "fleet_sharded"), name
    for name in ("fleet_standard", "fleet_premium", "tune_dta", "ingest_dml"):
        assert layers[name]["trace.unattributed_share"] <= 0.05, name


def test_trace_files_load_as_trace_events(quick):
    _done, out, _before, _after = quick
    with open(out / "trace.fleet_standard.json", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert {"root", "engine.facade", "controlplane.process"} <= {
        event["name"] for event in events
    }


def test_a_run_leaves_the_rest_of_the_tree_untouched(quick):
    _done, _out, before, after = quick
    assert after == before


@pytest.fixture(scope="module")
def spec_names():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple(
        [entry["name"] for entry in spec[key]]
        for key in ("workloads", "end_to_end", "per_layer")
    )


def test_single_run_prints_exactly_the_contract_keys_last(spec_names):
    done = _run(
        "--workload", "ingest_dml", "--seed", "3", "--seconds", "0.3",
        "--trace", "0",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == spec_names[1]
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"} and value["value"] > 0


def test_refuses_to_start_with_an_engine_switch_set():
    env = dict(os.environ, REPRO_EXECUTOR="interp")
    done = _run("--workload", "tune_dta", "--trace", "0", env=env)
    assert done.returncode != 0
    assert "REPRO_EXECUTOR" in done.stderr and not done.stdout.strip()


def test_fails_without_printing_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = _run(
        "--workload", "fleet_standard", "--seed", "1", "--seconds", "10",
        "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
