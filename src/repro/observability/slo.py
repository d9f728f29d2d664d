"""SLO catalog and multi-window burn-rate evaluation over history.

The paper's operators do not stare at raw telemetry — they hold the
fleet to objectives ("reverts stay rare", "validation rarely fails",
"accepted indexes land promptly") and page when the error budget burns
too fast.  This module declares those objectives in a linted
:data:`SLO_CATALOG` and evaluates each with the standard *multi-window
burn rate* recipe: an SLO alerts only when **both** a short window
(recent ticks — is it burning *now*?) and a long window (has enough
budget actually burned?) exceed the burn threshold.  Short windows
alone page on blips; long windows alone page hours late; requiring
both is the SRE-workbook compromise.

Every objective is a ceiling (e.g. revert rate ≤ 0.30), and burn rate
is ``burn = mean / objective``: 1.0 means "the window ran exactly at
objective", and 2.0 means the budget burns twice as fast as allowed.

Every SLO reads a series from
:data:`~repro.observability.timeseries.SAMPLE_CATALOG`, and no window is
longer than the history ring
(:data:`~repro.observability.timeseries.RING_CAPACITY`) — both validated
at import — so every window mean is exact over the samples the store
retains.  This catalog is the one alert policy: the
:class:`~repro.observability.alerts.AlertWatchdog` pages on every
non-advisory SLO, recording each transition in the audit stream
(``alert_raised`` / ``alert_resolved``) the dashboard and ``repro
explain`` render.  Advisory SLOs (wall-clock budgets) appear in reports
but never page — wall time is host-dependent and excluded from the
determinism contract.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, IO, Iterable, List, Optional, Tuple, Union

from repro.errors import TelemetryError
from repro.observability.audit import jsonl_lines, write_text
from repro.observability.timeseries import (
    RING_CAPACITY,
    SAMPLE_CATALOG,
    TimeSeriesStore,
)

#: Version of the JSONL status schema below.  Bump when a record's
#: meaning changes; :func:`replay_statuses` refuses newer ones.  v1
#: records also said whether the objective was a floor or a ceiling; v2
#: objectives are all ceilings, and replay drops that key.
SLO_SCHEMA_VERSION = 2


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """One catalog entry: an objective over a sampled series."""

    name: str
    description: str
    #: Sampled series (must be in SAMPLE_CATALOG) the objective reads.
    series: str
    #: The ceiling the window mean is held to.
    objective: float
    unit: str
    #: Burn-rate windows, in ticks (short = paging speed, long = paging
    #: confidence); both must exceed ``burn_threshold`` to alert.
    short_window: int = 16
    long_window: int = 256
    burn_threshold: float = 1.0
    #: Minimum samples in the short window before the SLO can alert.
    min_samples: int = 8
    #: Advisory SLOs render in reports but never feed the watchdog
    #: (wall-clock budgets are host-dependent).
    advisory: bool = False


def _spec(**kwargs) -> Tuple[str, SloSpec]:
    spec = SloSpec(**kwargs)
    return spec.name, spec


#: The SLO taxonomy.  Names are stable public API: the watchdog's
#: alerts, the `repro slo` report, the JSONL dump, and the
#: observability-name lint all key on them.
SLO_CATALOG: Dict[str, SloSpec] = dict(
    [
        _spec(
            name="slo_revert_rate",
            description="Validation-triggered reverts stay rare: the "
            "fleet revert rate holds at or under the objective "
            "(the paper's Section 8.1 headline guarantee).",
            series="revert_rate",
            objective=0.30,
            unit="ratio",
        ),
        _spec(
            name="slo_validation_failure_rate",
            description="Most implemented indexes survive validation: "
            "the REGRESSED share of completed validations holds at or "
            "under the objective.",
            series="validation_failure_rate",
            objective=0.50,
            unit="ratio",
        ),
        _spec(
            name="slo_time_to_implement",
            description="Accepted recommendations land promptly: p95 "
            "simulated minutes spent IMPLEMENTING holds at or under "
            "the objective.",
            series="time_to_implement_minutes",
            objective=240.0,
            unit="minutes",
            burn_threshold=1.5,
        ),
        _spec(
            name="slo_tick_wall_seconds",
            description="Control-plane ticks fit the wall budget "
            "(advisory: wall time is host-dependent and never pages).",
            series="tick_wall_seconds",
            objective=5.0,
            unit="seconds",
            advisory=True,
        ),
    ]
)

for _slo in SLO_CATALOG.values():
    if _slo.series not in SAMPLE_CATALOG:
        raise TelemetryError(
            f"SLO {_slo.name!r} reads series {_slo.series!r} which is "
            "not in SAMPLE_CATALOG"
        )
    if max(_slo.short_window, _slo.long_window) > RING_CAPACITY:
        raise TelemetryError(
            f"SLO {_slo.name!r} has a window longer than the history "
            f"ring ({RING_CAPACITY} ticks); its mean could not be exact"
        )
del _slo


@dataclasses.dataclass
class SloStatus:
    """One SLO's evaluation: window means, burn rates, alerting state."""

    name: str
    series: str
    objective: float
    unit: str
    advisory: bool
    short_window: int
    long_window: int
    burn_threshold: float
    short_mean: float
    long_mean: float
    short_burn: float
    long_burn: float
    samples: int
    alerting: bool

    @property
    def burn(self) -> float:
        """The governing burn rate (the lower of the two windows —
        both must exceed the threshold for the SLO to alert)."""
        return min(self.short_burn, self.long_burn)

    def to_payload(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["schema_version"] = SLO_SCHEMA_VERSION
        payload["burn"] = self.burn
        return payload


def _burn(mean: float, spec: SloSpec) -> float:
    if spec.objective <= 0.0:
        return float("inf") if mean > 0.0 else 0.0
    return mean / spec.objective


def evaluate_slo(store: TimeSeriesStore, spec: SloSpec) -> SloStatus:
    """Evaluate one SLO against the history store."""
    short_mean, samples = store.mean(spec.series, spec.short_window)
    long_mean, _long_samples = store.mean(spec.series, spec.long_window)
    short_burn = _burn(short_mean, spec)
    long_burn = _burn(long_mean, spec)
    alerting = (
        not spec.advisory
        and samples >= spec.min_samples
        and short_burn >= spec.burn_threshold
        and long_burn >= spec.burn_threshold
    )
    return SloStatus(
        name=spec.name,
        series=spec.series,
        objective=spec.objective,
        unit=spec.unit,
        advisory=spec.advisory,
        short_window=spec.short_window,
        long_window=spec.long_window,
        burn_threshold=spec.burn_threshold,
        short_mean=short_mean,
        long_mean=long_mean,
        short_burn=short_burn,
        long_burn=long_burn,
        samples=samples,
        alerting=alerting,
    )


def evaluate_catalog(
    store: TimeSeriesStore,
    catalog: Optional[Dict[str, SloSpec]] = None,
) -> List[SloStatus]:
    """Evaluate every cataloged SLO, in stable name order."""
    specs = catalog if catalog is not None else SLO_CATALOG
    return [evaluate_slo(store, specs[name]) for name in sorted(specs)]


# ----------------------------------------------------------------------
# Report rendering and JSONL persistence (mirrors audit.py)


def render_slo_report(statuses: List[SloStatus]) -> List[str]:
    """Fixed-width report lines for the `repro slo` CLI."""
    lines = [
        "SLO burn-rate report",
        f"  {'slo':<30} {'window mean (short/long)':>26} "
        f"{'burn (short/long)':>19} {'objective':>10}  state",
    ]
    for status in statuses:
        if status.alerting:
            state = "ALERTING"
        elif status.advisory:
            state = "advisory"
        elif status.samples < 1:
            state = "no data"
        else:
            state = "ok"
        lines.append(
            f"  {status.name:<30} "
            f"{status.short_mean:>12.4f}/{status.long_mean:<13.4f} "
            f"{status.short_burn:>9.2f}/{status.long_burn:<9.2f} "
            f"<= {status.objective:<7g}  {state}"
        )
    alerting = [s.name for s in statuses if s.alerting]
    if alerting:
        lines.append(f"  burn-rate alerts: {', '.join(alerting)}")
    else:
        lines.append("  burn-rate alerts: none")
    return lines


def dump_statuses(
    statuses: List[SloStatus], destination: Union[str, IO[str]]
) -> int:
    """Write statuses as schema-versioned JSONL; returns the count."""
    text = "".join(
        json.dumps(status.to_payload(), sort_keys=True) + "\n"
        for status in statuses
    )
    write_text(destination, text)
    return len(statuses)


def replay_statuses(source: Union[str, Iterable[str]]) -> List[SloStatus]:
    """Rebuild statuses from JSONL text, lines, or a file path."""
    fields = {f.name for f in dataclasses.fields(SloStatus)}
    statuses = []
    for line in jsonl_lines(source):
        raw = json.loads(line)
        version = raw.get("schema_version", 0)
        if version > SLO_SCHEMA_VERSION:
            raise TelemetryError(
                f"SLO record schema v{version} is newer than this "
                f"reader (v{SLO_SCHEMA_VERSION})"
            )
        statuses.append(
            SloStatus(**{k: v for k, v in raw.items() if k in fields})
        )
    return statuses
