"""The observability-name lint: one rule per namespace, one generic pass.

For every namespace an uncatalogued literal and (where the lint can
attribute the call) a non-literal argument are each one violation, the
``allow-dynamic`` comment suppresses the latter, and directories listed
in ``BENCHMARK.json["paths"]`` are never scanned.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1]
    / "scripts"
    / "check_observability_names.py"
)


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("name_lint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def catalogs(lint):
    return lint.load_catalogs()


#: label -> (uncatalogued literal site, non-literal site or None).
NAMESPACES = {
    "metric name": ('registry.counter("no_such_metric")', "registry.gauge(name)"),
    "audit event type": (
        'audit.emit(now, "no_such_event", db)',
        "audit.emit(now, kind, db)",
    ),
    "fleet_* metric": ('x = "fleet_no_such_gauge"', None),
    "whatif_batch_* metric": ('x = "whatif_batch_no_such"', None),
    "phase name": ('timer.phase("no_such_phase")', "trace.observe_phase(p, d)"),
    "sampled-series name": ('store.mean("no_such_series", 16)', None),
    "executor_fallback_* metric": ('x = "executor_fallback_nope_total"', None),
    "slo_*": ('x = "slo_no_such_objective"', None),
}


def test_every_rule_has_a_case(lint):
    assert [rule.label for rule in lint.RULES] == list(NAMESPACES)


@pytest.mark.parametrize("label", NAMESPACES)
def test_namespace_violations(lint, catalogs, tmp_path, label):
    literal, dynamic = NAMESPACES[label]
    path = tmp_path / "case.py"

    path.write_text(literal + "\n")
    errors = lint.check_file(path, catalogs)
    assert len(errors) == 1, errors
    assert label in errors[0] and f"{path}:1:" in errors[0]

    rule = next(rule for rule in lint.RULES if rule.label == label)
    assert (dynamic is None) == (rule.any_call is None)
    if dynamic is None:
        return
    path.write_text(dynamic + "\n")
    errors = lint.check_file(path, catalogs)
    assert len(errors) == 1, errors
    assert f"{label} is not a string literal" in errors[0]

    path.write_text(f"{dynamic}  # {lint.ALLOW_DYNAMIC}\n")
    assert lint.check_file(path, catalogs) == []


def test_cataloged_names_and_table_driven_loop_pass(lint, catalogs, tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(
        'registry.gauge("fleet_databases").set(1)\n'
        "registry.gauge(engine_gauge.name).set(1)\n"
        'timer.phase(\n    "merge")\n'
    )
    assert lint.check_file(path, catalogs) == []


def test_repository_passes(lint, capsys):
    assert lint.main([]) == 0
    assert " 0 violation(s)" in capsys.readouterr().out


def test_slo_reading_an_uncatalogued_series_is_a_violation(
    lint, catalogs, monkeypatch, capsys
):
    slos = dict(catalogs["SLO_CATALOG"])
    slos["slo_orphan"] = dataclasses.replace(
        slos["slo_revert_rate"], name="slo_orphan", series="no_such_series"
    )
    monkeypatch.setattr(
        lint, "load_catalogs", lambda: dict(catalogs, SLO_CATALOG=slos)
    )
    assert lint.main([]) == 1
    out = capsys.readouterr().out
    assert (
        "SLO_CATALOG['slo_orphan'] reads series 'no_such_series' "
        "which is not in SAMPLE_CATALOG"
    ) in out
    assert " 1 violation(s)" in out


def test_frozen_benchmark_dirs_are_skipped(lint, tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"paths": ["frozen"]}))
    for directory in ("frozen", "live"):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "mod.py").write_text('x = "fleet_standard"\n')
    monkeypatch.setattr(lint, "REPO_ROOT", tmp_path)
    assert list(lint.iter_py_files([tmp_path])) == [tmp_path / "live" / "mod.py"]
