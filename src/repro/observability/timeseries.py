"""Telemetry history: one memory-bounded ring of samples per series.

The :class:`~repro.observability.metrics.MetricsRegistry` only holds
*current* values — it answers "what is the revert rate now", never "is
the revert rate rising".  This module adds the missing time axis the
paper's operators lean on (continuously monitored validation/revert
telemetry, Section 8) without unbounded memory: every control-plane
tick the full registry is reduced to a small set of cataloged samples
and appended to a :class:`TimeSeriesStore`, which keeps the last
:data:`RING_CAPACITY` ``(tick, value)`` samples of every series in a
ring buffer.  A run of any length retains a fixed number of samples
(the AIM-at-Meta production-practicality posture: bounded state).

Determinism contract: samples are keyed by the **virtual tick index**
and carry only virtual-time-derived values; wall-clock readings live in
series explicitly marked ``wall=True`` in :data:`SAMPLE_CATALOG` and are
excluded from anomaly detection (and therefore from the audit stream),
so parallel fleet runs stay byte-identical to serial ones with sampling
enabled.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
from typing import Deque, Dict, IO, Iterable, List, Optional, Tuple, Union

from repro.errors import TelemetryError
from repro.observability.audit import jsonl_lines, write_text
from repro.observability.metrics import Histogram, MetricsRegistry

#: Version of the JSONL record schema below.  Bump when a record's
#: meaning changes; :meth:`TimeSeriesStore.replay` refuses newer ones.
#: v1 wrote three records per series (a raw ring plus two derived
#: tiers); v2 writes the ring alone.
HISTORY_SCHEMA_VERSION = 2

#: Samples retained per series.  Every reader asks about a trailing
#: window (SLO burn rates 16 and 256 ticks, the dashboard sparkline 64);
#: ``slo.py`` checks at import that none exceeds this, so every window
#: mean is exact.
RING_CAPACITY = 512

#: Database label for fleet-level history events (matches the alert
#: watchdog's fleet scope so explain timelines join both).
HISTORY_SCOPE = "<fleet>"


@dataclasses.dataclass(frozen=True)
class SampleSpec:
    """One catalog entry: the contract for a sampled series name."""

    name: str
    unit: str
    description: str
    #: Wall-clock-derived series: retained for trend queries but never
    #: fed to the anomaly detector (audit streams must stay virtual).
    wall: bool = False
    #: Whether the EWMA/z-score detector watches this series (rates and
    #: level gauges only — cumulative counters trend up by construction).
    anomaly: bool = False


def _spec(
    name: str,
    unit: str,
    description: str,
    wall: bool = False,
    anomaly: bool = False,
) -> Tuple[str, SampleSpec]:
    return name, SampleSpec(name, unit, description, wall, anomaly)


#: The sampled-series taxonomy.  Names are stable public API: the SLO
#: catalog, the dashboard sparklines, the JSON export, and the
#: observability-name lint all key on them.
SAMPLE_CATALOG: Dict[str, SampleSpec] = dict(
    [
        _spec("revert_rate", "ratio",
              "Share of decided recommendations that ended REVERTED "
              "(cumulative, the paper's Section 8.1 headline rate).",
              anomaly=True),
        _spec("validation_failure_rate", "ratio",
              "Share of completed validations that judged REGRESSED "
              "(cumulative).", anomaly=True),
        _spec("plan_cache_hit_rate", "ratio",
              "Fleet-wide optimizer plan-cache hit rate (cumulative).",
              anomaly=True),
        _spec("recommendations_created", "recommendations",
              "Recommendations registered so far (cumulative counter)."),
        _spec("implementations_completed", "implementations",
              "Index changes fully implemented so far (cumulative)."),
        _spec("validation_reverts", "reverts",
              "Validation-triggered reverts so far (cumulative)."),
        _spec("incidents", "incidents",
              "Service-health incidents raised so far (cumulative)."),
        _spec("records_live", "records",
              "Recommendation records currently in a non-terminal state.",
              anomaly=True),
        _spec("alerts_firing_count", "alerts",
              "SLO burn-rate alerts currently firing.", anomaly=True),
        _spec("time_to_implement_minutes", "minutes",
              "p95 simulated minutes records spent IMPLEMENTING "
              "(from the state_duration_minutes histogram)."),
        _spec("tick_wall_seconds", "seconds",
              "Wall-clock seconds per fleet tick (host-dependent; "
              "excluded from the determinism contract).", wall=True),
    ]
)

#: Non-terminal lifecycle states (``records_live`` sums these).
_LIVE_STATES = ("active", "implementing", "validating", "reverting", "retry")


def _validate_series(name: str) -> None:
    if name not in SAMPLE_CATALOG:
        raise TelemetryError(
            f"sampled series {name!r} is not in SAMPLE_CATALOG "
            "(src/repro/observability/timeseries.py)"
        )


class TimeSeriesStore:
    """Memory-bounded store: the last ``ring_capacity`` ``(tick, value)``
    samples per series.

    :meth:`retained_samples` against :meth:`capacity` is the provable
    memory bound the test suite drives 10,000+ ticks through.
    """

    def __init__(self, ring_capacity: int = RING_CAPACITY) -> None:
        if ring_capacity < 1:
            raise TelemetryError("history ring capacity must be >= 1")
        self.ring_capacity = ring_capacity
        self._series: Dict[str, Deque[Tuple[int, float]]] = {}

    def observe(self, name: str, tick: int, value: float) -> None:
        """Append one sample; ``name`` must be in :data:`SAMPLE_CATALOG`."""
        _validate_series(name)
        ring = self._series.get(name)
        if ring is None:
            ring = self._series[name] = collections.deque(
                maxlen=self.ring_capacity
            )
        ring.append((tick, float(value)))

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def last_tick(self) -> Optional[int]:
        # Rings are created by their first sample, so none is empty.
        return max((r[-1][0] for r in self._series.values()), default=None)

    def retained_samples(self) -> int:
        """Total samples currently held across every series."""
        return sum(len(ring) for ring in self._series.values())

    def capacity(self) -> int:
        """Upper bound on :meth:`retained_samples` for the current
        series set."""
        return self.ring_capacity * max(1, len(self._series))

    def _ring(self, name: str) -> Iterable[Tuple[int, float]]:
        _validate_series(name)
        return self._series.get(name, ())

    def latest(self, name: str) -> Optional[float]:
        ring = self._ring(name)
        return ring[-1][1] if ring else None

    def range(self, name: str, start: int) -> List[Tuple[int, float]]:
        """Retained samples at or after tick ``start``, oldest first."""
        return [sample for sample in self._ring(name) if sample[0] >= start]

    def mean(self, name: str, window: int) -> Tuple[float, int]:
        """(mean, sample count) over the trailing ``window`` ticks.

        Exact while the ring covers the window; a longer window answers
        over what is retained and the count reports how much that was.
        """
        ring = self._ring(name)
        if not ring:
            return 0.0, 0
        start = ring[-1][0] - window + 1
        values = [value for tick, value in ring if tick >= start]
        count = len(values)
        return (sum(values) / count if count else 0.0), count

    def export(self) -> dict:
        """A JSON-serializable, deterministic snapshot of the store."""
        return {
            "schema": f"repro-history-v{HISTORY_SCHEMA_VERSION}",
            "schema_version": HISTORY_SCHEMA_VERSION,
            "last_tick": self.last_tick(),
            "retained_samples": self.retained_samples(),
            "series": [
                {
                    "name": name,
                    "unit": SAMPLE_CATALOG[name].unit,
                    "wall": SAMPLE_CATALOG[name].wall,
                    "latest": self.latest(name),
                    "samples": [list(s) for s in self._series[name]],
                }
                for name in self.series_names()
            ],
        }

    def to_jsonl(self) -> str:
        """The store as JSON lines: one record per series.

        Mirrors :meth:`repro.observability.audit.AuditLog.to_jsonl`:
        deterministic ordering, schema-versioned records, no wall-clock
        timestamps beyond series explicitly cataloged as wall series.
        """
        return "".join(
            json.dumps(
                {
                    "schema_version": HISTORY_SCHEMA_VERSION,
                    "series": name,
                    # The ring capacity rides along so a replayed store
                    # evicts exactly like the original when appended to.
                    "capacity": self.ring_capacity,
                    "samples": [list(s) for s in self._series[name]],
                },
                sort_keys=True,
            )
            + "\n"
            for name in self.series_names()
        )

    def dump(self, destination: Union[str, IO[str]]) -> int:
        """Write the store as JSONL; returns the record count."""
        write_text(destination, self.to_jsonl())
        return len(self._series)

    @classmethod
    def replay(cls, source: Union[str, Iterable[str]]) -> "TimeSeriesStore":
        """Rebuild a store from JSONL text, lines, or a file path.

        Samples round-trip exactly: ``replay(to_jsonl()).to_jsonl()`` is
        byte-identical and appending to a replayed store evicts like the
        original.  A schema-v1 dump loads from its ``tier == "raw"``
        records (one ``start,end,min,max,sum,count,last`` row per
        sample); its other records were derived from those.
        """
        store = cls()
        for line in jsonl_lines(source):
            raw = json.loads(line)
            version = raw.get("schema_version", 0)
            if version > HISTORY_SCHEMA_VERSION:
                raise TelemetryError(
                    f"history record schema v{version} is newer than this "
                    f"reader (v{HISTORY_SCHEMA_VERSION})"
                )
            name = raw["series"]
            _validate_series(name)
            if version < 2:
                if raw["tier"] != "raw":
                    continue
                capacity = raw.get("raw_capacity")
                samples = [(row[0], row[6]) for row in raw["buckets"]]
            else:
                capacity = raw.get("capacity")
                samples = raw["samples"]
            if not store._series and capacity is not None:
                # First record configures the ring capacity (dumps
                # without one keep the default).
                store.ring_capacity = int(capacity)
            for tick, value in samples:
                store.observe(name, int(tick), value)
        return store


# ----------------------------------------------------------------------
# Registry sampling


class FleetSampler:
    """Reduces a :class:`MetricsRegistry` to the cataloged samples.

    Every value is derived from virtual-time-driven counters/gauges, so
    the same merged registry state yields the same samples on every
    backend.  Wall series are *not* produced here — they are observed
    separately by callers that actually measure wall time.
    """

    def sample(self, registry: MetricsRegistry) -> Dict[str, float]:
        reverted = registry.total(
            "state_transitions_total", to_state="reverted"
        )
        success = registry.total("state_transitions_total", to_state="success")
        reverting = registry.total(
            "state_transitions_total", to_state="reverting"
        )
        decided = reverted + success
        validated = reverting + success
        hits = registry.total("plan_cache_hits")
        misses = registry.total("plan_cache_misses")
        lookups = hits + misses
        live = sum(
            registry.total("records_in_state", state=state)
            for state in _LIVE_STATES
        )
        firing = sum(
            1.0
            for series in registry.series_for("alerts_firing")
            if series.metric.value
        )
        implement_p95 = 0.0
        for series in registry.series_for(
            "state_duration_minutes", state="implementing"
        ):
            metric = series.metric
            if isinstance(metric, Histogram) and metric.count:
                implement_p95 = metric.p95
        return {
            "revert_rate": (reverted / decided) if decided else 0.0,
            "validation_failure_rate": (
                (reverting / validated) if validated else 0.0
            ),
            "plan_cache_hit_rate": (hits / lookups) if lookups else 1.0,
            "recommendations_created": registry.total(
                "recommendations_created_total"
            ),
            "implementations_completed": registry.total(
                "implementations_completed_total"
            ),
            "validation_reverts": reverted,
            "incidents": registry.total("incidents_total"),
            "records_live": live,
            "alerts_firing_count": firing,
            "time_to_implement_minutes": implement_p95,
        }


# ----------------------------------------------------------------------
# Anomaly detection


@dataclasses.dataclass
class Anomaly:
    """One z-score excursion on one sampled series."""

    series: str
    tick: int
    value: float
    zscore: float
    ewma_mean: float
    ewma_std: float


class _EwmaState:
    __slots__ = ("mean", "var", "samples", "suppressed_until")

    def __init__(self) -> None:
        self.mean = 0.0
        self.var = 0.0
        self.samples = 0
        self.suppressed_until = -1


class AnomalyDetector:
    """EWMA mean/variance tracker with z-score excursion detection.

    Per series, the detector keeps an exponentially weighted moving
    average and variance; a sample whose z-score magnitude reaches
    ``z_threshold`` after ``warmup`` samples is an anomaly.  A cooldown
    suppresses repeat firings while a level shift is absorbed into the
    moving statistics, so one regression produces one typed event, not
    a storm.  All state is pure float arithmetic over virtual-tick
    samples: deterministic across runs and backends.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        z_threshold: float = 4.0,
        warmup: int = 12,
        cooldown: int = 32,
        min_std: float = 1e-3,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise TelemetryError("EWMA alpha must be in (0, 1]")
        self.alpha = alpha
        self.z_threshold = z_threshold
        self.warmup = warmup
        self.cooldown = cooldown
        self.min_std = min_std
        self._states: Dict[str, _EwmaState] = {}

    def observe(self, series: str, tick: int, value: float) -> Optional[Anomaly]:
        """Feed one sample; returns an :class:`Anomaly` when it excurses."""
        state = self._states.get(series)
        if state is None:
            state = self._states[series] = _EwmaState()
        anomaly = None
        if state.samples >= self.warmup and tick >= state.suppressed_until:
            std = max(math.sqrt(state.var), self.min_std)
            z = (value - state.mean) / std
            if abs(z) >= self.z_threshold:
                anomaly = Anomaly(
                    series=series,
                    tick=tick,
                    value=value,
                    zscore=z,
                    ewma_mean=state.mean,
                    ewma_std=std,
                )
                state.suppressed_until = tick + self.cooldown
        if state.samples == 0:
            state.mean = value
            state.var = 0.0
        else:
            delta = value - state.mean
            state.mean += self.alpha * delta
            state.var = (1.0 - self.alpha) * (
                state.var + self.alpha * delta * delta
            )
        state.samples += 1
        return anomaly


# ----------------------------------------------------------------------
# The per-service orchestrator


class TelemetryHistory:
    """Samples a registry each tick, stores history, detects anomalies.

    One per region service, fed at its post-merge point (the seeded
    regression scenario, which drives one bare plane, owns its own).
    Control planes never sample — history, like SLO alerts, is a
    fleet-level responsibility evaluated over merged state, which is
    what keeps parallel runs byte-identical to serial.
    """

    def __init__(self) -> None:
        self.store = TimeSeriesStore()
        self.sampler = FleetSampler()
        self.detector = AnomalyDetector()
        self.anomalies: List[Anomaly] = []
        #: Ticks sampled so far (the next sample's tick index).
        self.ticks = 0

    def observe_tick(
        self,
        registry: MetricsRegistry,
        now: float,
        audit=None,
    ) -> int:
        """Sample the registry at virtual time ``now``; returns the tick
        index used.

        Anomalies on cataloged (non-wall) series emit typed
        ``telemetry_anomaly`` audit events at ``now``, joining the same
        provenance chain ``repro explain`` renders.
        """
        tick = self.ticks
        self.ticks += 1
        values = self.sampler.sample(registry)
        for name in sorted(values):
            value = values[name]
            self.store.observe(name, tick, value)
            spec = SAMPLE_CATALOG[name]
            if not spec.anomaly or spec.wall:
                continue
            anomaly = self.detector.observe(name, tick, value)
            if anomaly is None:
                continue
            self.anomalies.append(anomaly)
            registry.counter(
                "telemetry_anomalies_total", series=name
            ).inc()
            if audit is not None:
                audit.emit(
                    now,
                    "telemetry_anomaly",
                    HISTORY_SCOPE,
                    series=anomaly.series,
                    tick=anomaly.tick,
                    value=anomaly.value,
                    zscore=anomaly.zscore,
                    ewma_mean=anomaly.ewma_mean,
                    ewma_std=anomaly.ewma_std,
                )
        registry.gauge("telemetry_history_samples").set(
            self.store.retained_samples()
        )
        return tick

    def observe_wall(self, tick: int, wall_seconds: float) -> None:
        """Record one tick's wall time into the (wall-flagged) series.

        Kept separate from :meth:`observe_tick` so callers without a
        wall measurement (the regression scenario) never create the
        series, and the anomaly/audit path can never see wall values.
        """
        self.store.observe("tick_wall_seconds", tick, wall_seconds)
