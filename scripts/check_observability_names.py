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
- **Alert rules** — ``AlertRule(name="...")`` construction sites must
  use rule names declared in
  :data:`repro.observability.alerts.ALERT_CATALOG`;
- **Tick phases** — ``timer.phase("...")`` / ``trace.observe_phase("...")``
  call sites must use phase names declared in
  :data:`repro.parallel.timing.PHASE_CATALOG`;
- **Span kinds** — ``tracer.start("...", ...)`` call sites must use span
  kinds declared in :data:`repro.observability.spans.SPAN_KIND_CATALOG`;
- **Sampled series** — history query calls with a literal series name
  (``.range("...")``, ``.rate("...")``, ``.delta("...")``,
  ``.quantile("...")``, ``.latest("...")``, ``.window_stats("...")``)
  must use names declared in
  :data:`repro.observability.timeseries.SAMPLE_CATALOG`;
- **SLOs** — **any** string literal starting with ``slo_`` must name an
  :data:`repro.observability.slo.SLO_CATALOG` entry (the namespace is
  reserved, like ``fleet_*`` below), and every non-advisory SLO must
  also appear in ALERT_CATALOG so its burn-rate alert passes AlertRule
  validation.

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

Usage: ``python scripts/check_observability_names.py [paths...]``
Exit status 0 = clean, 1 = violations found.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_PATHS = (
    REPO_ROOT / "src",
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "scripts",
)

#: Same-line opt-out for call sites that replay already-linted names.
ALLOW_DYNAMIC = "observability-names: allow-dynamic"
#: The name argument of the loop that walks ENGINE_GAUGES; main() checks
#: the table's names themselves.
TABLE_DRIVEN_ARG = "engine_gauge.name"

SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*$")
#: A registry method call with a string-literal first argument.
LITERAL_CALL = re.compile(
    r"\.(?:counter|gauge|histogram|total|series_for)\(\s*[rbu]*([\"'])"
    r"(?P<name>[^\"']*)\1"
)
#: Any registry method call, literal or not (to flag dynamic names).
ANY_CALL = re.compile(
    r"\.(?:counter|gauge|histogram|total|series_for)\(\s*(?P<arg>[^)\s,]*)"
)
#: ``audit.emit(at, "event_type", ...)`` with a literal event type.  The
#: first argument (the timestamp) is matched non-greedily up to the
#: first comma, which is where every call site puts it.
LITERAL_EMIT = re.compile(
    r"\baudit\.emit\(\s*(?P<at>[^,()]+?),\s*[rbu]*([\"'])"
    r"(?P<name>[^\"']*)\2"
)
#: Any ``audit.emit`` call (to flag dynamic event types).
ANY_EMIT = re.compile(
    r"\baudit\.emit\(\s*(?P<at>[^,()]+?),\s*(?P<arg>[^)\s,]*)"
)
#: ``AlertRule(name="...")`` construction with a literal rule name.
LITERAL_RULE = re.compile(
    r"\bAlertRule\(\s*name=[rbu]*([\"'])(?P<name>[^\"']*)\1"
)
#: Any ``"fleet_..."`` string literal (reserved metric namespace).
FLEET_LITERAL = re.compile(r"([\"'])(?P<name>fleet_[a-z0-9_]*)\1")
#: Any ``"whatif_batch_..."`` string literal (reserved metric namespace).
WHATIF_BATCH_LITERAL = re.compile(
    r"([\"'])(?P<name>whatif_batch_[a-z0-9_]*)\1"
)
#: A tick-phase bracket with a string-literal phase name.
LITERAL_PHASE = re.compile(
    r"\.(?:phase|observe_phase)\(\s*[rbu]*([\"'])(?P<name>[^\"']*)\1"
)
#: Any tick-phase bracket call (to flag dynamic phase names).
ANY_PHASE = re.compile(
    r"\.(?:phase|observe_phase)\(\s*(?P<arg>[^)\s,]*)"
)
#: ``tracer.start("kind", ...)`` with a literal span kind.
LITERAL_SPAN = re.compile(
    r"\btracer\.start\(\s*[rbu]*([\"'])(?P<name>[^\"']*)\1"
)
#: Any ``tracer.start`` call (to flag dynamic span kinds).
ANY_SPAN = re.compile(r"\btracer\.start\(\s*(?P<arg>[^)\s,]*)")
#: A history-store query call with a string-literal series name.  Only
#: literal sites are checked: these verbs (``.rate``, ``.observe``...)
#: are common method names on other objects, so dynamic-argument sites
#: cannot be attributed to the store statically.
LITERAL_SERIES = re.compile(
    r"\.(?:range|rate|delta|quantile|latest|window_stats|observe)\(\s*"
    r"[rbu]*([\"'])(?P<name>[^\"']*)\1"
)
#: Any ``"slo_..."`` string literal (reserved SLO namespace).
SLO_LITERAL = re.compile(r"([\"'])(?P<name>slo_[a-z0-9_]*)\1")
#: Any complete ``"executor_fallback_<reason>_total"`` string literal
#: (reserved metric namespace; the gauge-per-reason family).  Requiring
#: the ``_total`` suffix lets the one sanctioned dynamic builder
#: (``FALLBACK_GAUGES`` in repro.engine.exec.dispatch) pass, since its
#: f-string template never forms a complete name literal.
EXEC_FALLBACK_LITERAL = re.compile(
    r"([\"'])(?P<name>executor_fallback_[a-z0-9_]*_total)\1"
)


def load_catalogs() -> tuple:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.observability.alerts import ALERT_CATALOG
    from repro.observability.audit import AUDIT_CATALOG
    from repro.observability.metrics import CATALOG
    from repro.observability.slo import SLO_CATALOG
    from repro.observability.spans import SPAN_KIND_CATALOG
    from repro.observability.timeseries import SAMPLE_CATALOG
    from repro.parallel.timing import PHASE_CATALOG

    return (
        set(CATALOG),
        set(AUDIT_CATALOG),
        set(ALERT_CATALOG),
        set(PHASE_CATALOG),
        set(SPAN_KIND_CATALOG),
        set(SAMPLE_CATALOG),
        SLO_CATALOG,
    )


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


def check_file(
    path: pathlib.Path,
    metrics: set,
    events: set,
    rules: set,
    phases: set,
    span_kinds: set,
    samples: set,
    slos: dict,
) -> list:
    errors = []
    # The defining modules validate their own names at runtime; skip
    # their internals so catalog declarations don't self-flag.  The lint
    # itself is also skipped: its docstring and regexes are full of
    # example names.
    if path.name in (
        "metrics.py", "audit.py", "alerts.py", "spans.py",
        "timeseries.py", "slo.py",
    ) and ("observability" in path.parts):
        return errors
    if path.name == "timing.py" and "parallel" in path.parts:
        return errors
    if path.resolve() == pathlib.Path(__file__).resolve():
        return errors
    text = path.read_text()

    def lineno(offset: int) -> int:
        return text.count("\n", 0, offset) + 1

    lines = text.splitlines()

    def allows_dynamic(offset: int) -> bool:
        return ALLOW_DYNAMIC in lines[lineno(offset) - 1]

    # Both patterns' \s* crosses newlines, so calls that wrap the name
    # onto the next line are still checked.
    literal_starts = set()
    for match in LITERAL_CALL.finditer(text):
        literal_starts.add(match.start())
        name = match.group("name")
        if not SNAKE_CASE.match(name):
            errors.append(
                f"{path}:{lineno(match.start())}: metric name {name!r} "
                "is not snake_case"
            )
        elif name not in metrics:
            errors.append(
                f"{path}:{lineno(match.start())}: metric name {name!r} is "
                "not in the CATALOG taxonomy "
                "(src/repro/observability/metrics.py)"
            )
    for match in ANY_CALL.finditer(text):
        if match.start() in literal_starts:
            continue
        arg = match.group("arg")
        if arg.startswith(("'", '"')) or arg == "":
            continue  # empty call, or a literal ANY_CALL truncated oddly
        if arg == TABLE_DRIVEN_ARG or allows_dynamic(match.start()):
            continue
        errors.append(
            f"{path}:{lineno(match.start())}: metric name is not a string "
            f"literal ({arg!r}); the lint cannot verify it"
        )
    emit_starts = set()
    for match in LITERAL_EMIT.finditer(text):
        emit_starts.add(match.start())
        name = match.group("name")
        if name not in events:
            errors.append(
                f"{path}:{lineno(match.start())}: audit event type {name!r} "
                "is not in the AUDIT_CATALOG taxonomy "
                "(src/repro/observability/audit.py)"
            )
    for match in ANY_EMIT.finditer(text):
        if match.start() in emit_starts:
            continue
        arg = match.group("arg")
        if arg.startswith(("'", '"')) or arg == "":
            continue
        if allows_dynamic(match.start()):
            continue
        errors.append(
            f"{path}:{lineno(match.start())}: audit event type is not a "
            f"string literal ({arg!r}); the lint cannot verify it"
        )
    for match in LITERAL_RULE.finditer(text):
        name = match.group("name")
        if name not in rules:
            errors.append(
                f"{path}:{lineno(match.start())}: alert rule name {name!r} "
                "is not in the ALERT_CATALOG taxonomy "
                "(src/repro/observability/alerts.py)"
            )
    for match in FLEET_LITERAL.finditer(text):
        name = match.group("name")
        if name not in metrics:
            errors.append(
                f"{path}:{lineno(match.start())}: string {name!r} is in the "
                "reserved fleet_* metric namespace but is not in the CATALOG "
                "taxonomy (src/repro/observability/metrics.py) — declare it "
                "before use"
            )
    for match in WHATIF_BATCH_LITERAL.finditer(text):
        name = match.group("name")
        if name not in metrics:
            errors.append(
                f"{path}:{lineno(match.start())}: string {name!r} is in the "
                "reserved whatif_batch_* metric namespace but is not in the "
                "CATALOG taxonomy (src/repro/observability/metrics.py) — "
                "declare it before use"
            )
    phase_starts = set()
    for match in LITERAL_PHASE.finditer(text):
        phase_starts.add(match.start())
        name = match.group("name")
        if name not in phases:
            errors.append(
                f"{path}:{lineno(match.start())}: phase name {name!r} is "
                "not in the PHASE_CATALOG taxonomy "
                "(src/repro/parallel/timing.py)"
            )
    for match in ANY_PHASE.finditer(text):
        if match.start() in phase_starts:
            continue
        arg = match.group("arg")
        if arg.startswith(("'", '"')) or arg == "":
            continue
        if allows_dynamic(match.start()):
            continue
        errors.append(
            f"{path}:{lineno(match.start())}: phase name is not a string "
            f"literal ({arg!r}); the lint cannot verify it"
        )
    span_starts = set()
    for match in LITERAL_SPAN.finditer(text):
        span_starts.add(match.start())
        name = match.group("name")
        if name not in span_kinds:
            errors.append(
                f"{path}:{lineno(match.start())}: span kind {name!r} is "
                "not in the SPAN_KIND_CATALOG taxonomy "
                "(src/repro/observability/spans.py)"
            )
    for match in ANY_SPAN.finditer(text):
        if match.start() in span_starts:
            continue
        arg = match.group("arg")
        if arg.startswith(("'", '"')) or arg == "":
            continue
        if allows_dynamic(match.start()):
            continue
        errors.append(
            f"{path}:{lineno(match.start())}: span kind is not a string "
            f"literal ({arg!r}); the lint cannot verify it"
        )
    for match in LITERAL_SERIES.finditer(text):
        name = match.group("name")
        if name not in samples:
            errors.append(
                f"{path}:{lineno(match.start())}: sampled-series name "
                f"{name!r} is not in the SAMPLE_CATALOG taxonomy "
                "(src/repro/observability/timeseries.py)"
            )
    for match in EXEC_FALLBACK_LITERAL.finditer(text):
        name = match.group("name")
        if name not in metrics:
            errors.append(
                f"{path}:{lineno(match.start())}: string {name!r} is in the "
                "reserved executor_fallback_* metric namespace but is not "
                "in the CATALOG taxonomy "
                "(src/repro/observability/metrics.py) — declare it before "
                "use"
            )
    for match in SLO_LITERAL.finditer(text):
        name = match.group("name")
        if name not in slos:
            errors.append(
                f"{path}:{lineno(match.start())}: string {name!r} is in "
                "the reserved slo_* namespace but is not in the "
                "SLO_CATALOG taxonomy (src/repro/observability/slo.py) — "
                "declare it before use"
            )
    return errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = argv or DEFAULT_PATHS
    metrics, events, rules, phases, span_kinds, samples, slos = (
        load_catalogs()
    )
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
    # Cross-catalog invariants: every SLO reads a cataloged series
    # (enforced again at import), and every non-advisory SLO must have
    # an ALERT_CATALOG entry so burn_alert_rules() passes AlertRule
    # validation.
    for name, spec in sorted(slos.items()):
        if spec.series not in samples:
            errors.append(
                f"SLO_CATALOG[{name!r}] reads series {spec.series!r} "
                "which is not in SAMPLE_CATALOG"
            )
        if not spec.advisory and name not in rules:
            errors.append(
                f"SLO_CATALOG[{name!r}] is non-advisory but has no "
                "ALERT_CATALOG entry (src/repro/observability/alerts.py) "
                "for its burn-rate alert"
            )
    checked = 0
    for path in iter_py_files(paths):
        errors.extend(
            check_file(
                path, metrics, events, rules, phases, span_kinds,
                samples, slos,
            )
        )
        checked += 1
    for error in errors:
        print(error)
    print(
        f"check_observability_names: {checked} files checked, "
        f"{len(errors)} violation(s); catalog entries: "
        f"{len(metrics)} metrics, {len(events)} audit events, "
        f"{len(rules)} alert rules, {len(phases)} tick phases, "
        f"{len(span_kinds)} span kinds, {len(samples)} sampled series, "
        f"{len(slos)} SLOs"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
