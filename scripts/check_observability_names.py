#!/usr/bin/env python
"""Lint: every observability name used in source must be cataloged.

One static check over the whole observability taxonomy:

- **Metrics** — ``.counter("...")``, ``.gauge("...")``,
  ``.histogram("...")``, ``.total("...")``, ``.series_for("...")`` call
  sites must use snake_case names registered in
  :data:`repro.observability.metrics.CATALOG`;
- **Audit events** — ``audit.emit(at, "...", ...)`` call sites must use
  event types declared in
  :data:`repro.observability.audit.AUDIT_CATALOG`;
- **Tick phases** — ``timer.phase("...")`` / ``trace.observe_phase("...")``
  call sites must use phase names declared in
  :data:`repro.parallel.timing.PHASE_CATALOG`;
- **Sampled series** — history query calls with a literal series name
  (``.range("...")``, ``.mean("...")``, ``.latest("...")``,
  ``.observe("...")``) must use names declared in
  :data:`repro.observability.timeseries.SAMPLE_CATALOG`;
- **SLOs** — **any** string literal starting with ``slo_`` must name an
  :data:`repro.observability.slo.SLO_CATALOG` entry (the namespace is
  reserved, like ``fleet_*`` below).  The SLO catalog is also the alert
  catalog: the watchdog pages on its non-advisory entries by name.

Call sites whose name argument is not a string literal are flagged too,
because the lint (and the exporters'/explain renderers' help text) can
only vouch for literal names.  A call site that *must* be dynamic (the
fleet-parallel merge replays already-linted worker call sites) may carry
an ``# observability-names: allow-dynamic`` comment on the same line.
The control plane's engine-counter publisher is table-driven instead:
the lint reads the gauge names from
:data:`repro.controlplane.control_plane.ENGINE_GAUGES` and checks each
row against the CATALOG, which vouches for the one loop that walks it.

The ``fleet_*`` and ``whatif_batch_*`` namespaces get a stricter pass:
**any** string literal starting with ``fleet_`` or ``whatif_batch_`` —
not just registry call arguments — must name a CATALOG metric, so those
metrics cannot be referenced (in benchmarks, dashboards, or scripts)
before being declared.

Directories ``BENCHMARK.json`` lists under ``"paths"`` are not scanned:
the end-to-end benchmark is frozen between ``benchmark`` PRs, and its
workload names (``fleet_standard``, ...) share the ``fleet_`` prefix
without being metrics.

Every namespace is one row of :data:`RULES` (plus, for a new catalog,
one row of :data:`CATALOGS`); :func:`check_file` is a single generic
pass over that table.

Usage: ``python scripts/check_observability_names.py [paths...]``
Exit status 0 = clean, 1 = violations found.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import re
import sys
from typing import NamedTuple, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_PATHS = (
    REPO_ROOT / "src",
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "scripts",
)

#: Same-line opt-out for call sites that replay already-linted names.
ALLOW_DYNAMIC = "observability-names: allow-dynamic"

SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Catalog name -> (defining module, plural for the summary line).  The
#: defining modules validate their own names at runtime, so the lint
#: skips them: catalog declarations must not self-flag.
CATALOGS = {
    "CATALOG": ("repro.observability.metrics", "metrics"),
    "AUDIT_CATALOG": ("repro.observability.audit", "audit events"),
    "PHASE_CATALOG": ("repro.parallel.timing", "tick phases"),
    "SAMPLE_CATALOG": ("repro.observability.timeseries", "sampled series"),
    "SLO_CATALOG": ("repro.observability.slo", "SLOs"),
}


def module_path(catalog: str) -> str:
    """Repo-relative source path of the module declaring ``catalog``."""
    return "src/" + CATALOGS[catalog][0].replace(".", "/") + ".py"


class Rule(NamedTuple):
    """One namespace: where its names appear and which catalog owns them."""

    catalog: str
    #: What a violation calls the name ("metric name"); for a reserved
    #: prefix, the namespace ("fleet_* metric").
    label: str
    #: Sites with a string-literal name (group ``name``).
    literal: "re.Pattern"
    #: The same sites with any first argument (group ``arg``), to flag
    #: non-literal names.  None where the verbs are too common to
    #: attribute a dynamic call to the catalog statically.
    any_call: Optional["re.Pattern"] = None
    #: The pattern matches *any* string literal with the prefix, not a
    #: call site: the namespace cannot be referenced before declaration.
    reserved: bool = False
    snake_case: bool = False


_QUOTED = r"[rbu]*(?P<q>[\"'])(?P<name>%s)(?P=q)"


def _call(opener: str, dynamic: bool = True) -> dict:
    """Patterns for a call whose name argument follows ``opener``.

    ``\\s*`` crosses newlines, so calls that wrap the name onto the next
    line are still checked.
    """
    patterns = {"literal": re.compile(opener + r"\s*" + _QUOTED % "[^\"']*")}
    if dynamic:
        patterns["any_call"] = re.compile(opener + r"\s*(?P<arg>[^)\s,]*)")
    return patterns


def _reserved(names: str) -> dict:
    return {"literal": re.compile(_QUOTED % names), "reserved": True}


RULES = (
    # ``engine_gauge.name`` is the loop that walks ENGINE_GAUGES; main()
    # checks the table's names themselves.
    Rule(
        "CATALOG", "metric name", snake_case=True,
        **_call(
            r"\.(?:counter|gauge|histogram|total|series_for)\("
            r"(?!\s*engine_gauge\.name\b)"
        ),
    ),
    # The first argument (the timestamp) is matched non-greedily up to
    # the first comma, which is where every call site puts it.
    Rule(
        "AUDIT_CATALOG", "audit event type",
        **_call(r"\baudit\.emit\(\s*(?P<at>[^,()]+?),"),
    ),
    Rule("CATALOG", "fleet_* metric", **_reserved("fleet_[a-z0-9_]*")),
    Rule(
        "CATALOG", "whatif_batch_* metric",
        **_reserved("whatif_batch_[a-z0-9_]*"),
    ),
    Rule(
        "PHASE_CATALOG", "phase name",
        **_call(r"\.(?:phase|observe_phase)\("),
    ),
    # History-store queries: only literal sites are checked — these verbs
    # (``.mean``, ``.observe``...) are common method names elsewhere.
    Rule(
        "SAMPLE_CATALOG", "sampled-series name",
        **_call(
            r"\.(?:range|mean|latest|observe)\(",
            dynamic=False,
        ),
    ),
    # Requiring the ``_total`` suffix lets the one sanctioned dynamic
    # builder (``FALLBACK_GAUGES`` in repro.engine.exec.dispatch) pass:
    # its f-string template never forms a complete name literal.
    Rule(
        "CATALOG", "executor_fallback_* metric",
        **_reserved("executor_fallback_[a-z0-9_]*_total"),
    ),
    Rule("SLO_CATALOG", "slo_*", **_reserved("slo_[a-z0-9_]*")),
)


def load_catalogs() -> dict:
    """Catalog name -> the catalog mapping itself."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    return {
        name: getattr(importlib.import_module(module), name)
        for name, (module, _plural) in CATALOGS.items()
    }


def frozen_benchmark_dirs() -> list:
    """The directories ``BENCHMARK.json`` declares as the benchmark's."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return [(REPO_ROOT / entry).resolve() for entry in spec["paths"]]


def iter_py_files(paths):
    frozen = frozen_benchmark_dirs()
    for path in paths:
        path = pathlib.Path(path)
        files = [path] if path.is_file() else sorted(path.rglob("*.py"))
        for file in files:
            if not any(d in file.resolve().parents for d in frozen):
                yield file


#: Files never checked: the defining modules, and the lint itself (its
#: docstring and patterns are full of example names).
SKIPPED_FILES = {
    (REPO_ROOT / module_path(name)).resolve() for name in CATALOGS
} | {pathlib.Path(__file__).resolve()}


def check_file(path: pathlib.Path, catalogs: dict) -> list:
    if path.resolve() in SKIPPED_FILES:
        return []
    text = path.read_text()
    lines = text.splitlines()
    errors = []

    def lineno(offset: int) -> int:
        return text.count("\n", 0, offset) + 1

    for rule in RULES:
        known = catalogs[rule.catalog]
        taxonomy = f"the {rule.catalog} taxonomy ({module_path(rule.catalog)})"
        literal_starts = set()
        for match in rule.literal.finditer(text):
            literal_starts.add(match.start())
            name = match.group("name")
            where = f"{path}:{lineno(match.start())}"
            if rule.snake_case and not SNAKE_CASE.match(name):
                errors.append(
                    f"{where}: {rule.label} {name!r} is not snake_case"
                )
            elif name in known:
                continue
            elif rule.reserved:
                errors.append(
                    f"{where}: string {name!r} is in the reserved "
                    f"{rule.label} namespace but is not in {taxonomy} — "
                    "declare it before use"
                )
            else:
                errors.append(
                    f"{where}: {rule.label} {name!r} is not in {taxonomy}"
                )
        if rule.any_call is None:
            continue
        for match in rule.any_call.finditer(text):
            if match.start() in literal_starts:
                continue
            arg = match.group("arg")
            if arg.startswith(("'", '"')) or arg == "":
                continue  # empty call, or a literal truncated oddly
            line = lineno(match.start())
            if ALLOW_DYNAMIC in lines[line - 1]:
                continue
            errors.append(
                f"{path}:{line}: {rule.label} is not a string literal "
                f"({arg!r}); the lint cannot verify it"
            )
    return errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = argv or DEFAULT_PATHS
    catalogs = load_catalogs()
    metrics = catalogs["CATALOG"]
    samples = catalogs["SAMPLE_CATALOG"]
    slos = catalogs["SLO_CATALOG"]
    errors = []
    # Cross-catalog invariant: the executor_fallback_* gauge family in
    # the metrics CATALOG must exactly mirror the dispatch layer's
    # fallback taxonomy — a reason added (or renamed) in one place but
    # not the other would silently publish uncataloged gauges or
    # catalog dead ones.
    from repro.engine.exec.dispatch import FALLBACK_GAUGES

    expected_fallbacks = set(FALLBACK_GAUGES.values())
    cataloged_fallbacks = {
        name for name in metrics if name.startswith("executor_fallback_")
    }
    for name in sorted(expected_fallbacks - cataloged_fallbacks):
        errors.append(
            f"dispatch FALLBACK_REASONS publishes {name!r} but the metrics "
            "CATALOG (src/repro/observability/metrics.py) does not "
            "declare it"
        )
    for name in sorted(cataloged_fallbacks - expected_fallbacks):
        errors.append(
            f"metrics CATALOG declares {name!r} but no dispatch fallback "
            "reason (repro.engine.exec.dispatch.FALLBACK_REASONS) "
            "publishes it"
        )
    # The control plane's declarative engine-counter table: every row
    # must publish a cataloged gauge.
    from repro.controlplane.control_plane import ENGINE_GAUGES

    for gauge in ENGINE_GAUGES:
        if gauge.name not in metrics:
            errors.append(
                f"ENGINE_GAUGES (src/repro/controlplane/control_plane.py) "
                f"publishes {gauge.name!r} but the metrics CATALOG "
                "(src/repro/observability/metrics.py) does not declare it"
            )
    # Cross-catalog invariant: every SLO reads a cataloged series
    # (enforced again at import).
    for name, spec in sorted(slos.items()):
        if spec.series not in samples:
            errors.append(
                f"SLO_CATALOG[{name!r}] reads series {spec.series!r} "
                "which is not in SAMPLE_CATALOG"
            )
    checked = 0
    for path in iter_py_files(paths):
        errors.extend(check_file(path, catalogs))
        checked += 1
    for error in errors:
        print(error)
    entries = ", ".join(
        f"{len(catalogs[name])} {plural}"
        for name, (_module, plural) in CATALOGS.items()
    )
    print(
        f"check_observability_names: {checked} files checked, "
        f"{len(errors)} violation(s); catalog entries: {entries}"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
