"""The alert watchdog: pages on the SLO catalog.

The paper's service pages an engineer when fleet-level rates drift
(Section 8: revert rates, validation outcomes); this module reproduces
that loop.  The one alert policy is
:data:`~repro.observability.slo.SLO_CATALOG`: on every region-service
tick, after the merge, the :class:`AlertWatchdog` evaluates
each non-advisory SLO's multi-window burn rate over the telemetry
history, raises an alert when the SLO starts alerting and resolves it
when it stops.  Transitions are recorded into the audit stream
(``alert_raised`` / ``alert_resolved`` events) and the firing set backs
the dashboard panel.  A one-tick jump in a sampled rate is the anomaly
detector's to report (``telemetry_anomaly``), not the pager's.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.observability.audit import AuditLog
from repro.observability.metrics import MetricsRegistry
from repro.observability.slo import SLO_CATALOG, evaluate_slo
from repro.observability.timeseries import TimeSeriesStore

#: Database label used for fleet-level (cross-database) audit events.
FLEET_SCOPE = "<fleet>"


@dataclasses.dataclass
class Alert:
    """One firing (or resolved) instance of an SLO's burn-rate alert."""

    rule: str
    raised_at: float
    #: The governing burn rate (the lower of the SLO's two windows).
    value: float
    #: Samples in the short window.
    samples: int
    #: The SLO's burn threshold.
    threshold: float
    resolved_at: Optional[float] = None

    @property
    def firing(self) -> bool:
        return self.resolved_at is None


class AlertWatchdog:
    """Evaluates the non-advisory SLOs each control-plane tick.

    State transitions (inactive -> firing, firing -> resolved) emit
    audit events and bump the ``alerts_raised_total`` counter; the
    current firing set backs the dashboard's alerts panel.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        store: TimeSeriesStore,
        audit: Optional[AuditLog] = None,
    ) -> None:
        self.registry = registry
        self.store = store
        self.audit = audit
        #: The SLOs that page, in catalog-name order.
        self.slos = [
            spec for _name, spec in sorted(SLO_CATALOG.items())
            if not spec.advisory
        ]
        self._active: Dict[str, Alert] = {}
        self.history: List[Alert] = []

    def evaluate(self, now: float) -> List[Alert]:
        """One evaluation pass; returns alerts newly raised at ``now``."""
        raised: List[Alert] = []
        for spec in self.slos:
            status = evaluate_slo(self.store, spec)
            value, samples = status.burn, status.samples
            active = self._active.get(spec.name)
            if status.alerting and active is None:
                alert = Alert(
                    rule=spec.name,
                    raised_at=now,
                    value=value,
                    samples=samples,
                    threshold=spec.burn_threshold,
                )
                self._active[spec.name] = alert
                self.history.append(alert)
                raised.append(alert)
                self.registry.counter("alerts_raised_total", rule=spec.name).inc()
                self.registry.gauge("alerts_firing", rule=spec.name).set(1.0)
                if self.audit is not None:
                    # ``direction`` is constant (a burn alerts at or
                    # above its threshold) but stays in the payload, so
                    # recorded audit streams and digests keep their bytes.
                    self.audit.emit(
                        now, "alert_raised", FLEET_SCOPE,
                        rule=spec.name, value=value, samples=samples,
                        threshold=spec.burn_threshold, direction="above",
                    )
            elif status.alerting:
                # Keep the evidence current while the alert stays up.
                active.value = value
                active.samples = samples
            elif active is not None:
                active.resolved_at = now
                del self._active[spec.name]
                self.registry.gauge("alerts_firing", rule=spec.name).set(0.0)
                if self.audit is not None:
                    self.audit.emit(
                        now, "alert_resolved", FLEET_SCOPE,
                        rule=spec.name, value=value, samples=samples,
                        threshold=spec.burn_threshold,
                    )
        return raised

    def active(self) -> List[Alert]:
        """Currently firing alerts, ordered by rule name."""
        return [self._active[name] for name in sorted(self._active)]
