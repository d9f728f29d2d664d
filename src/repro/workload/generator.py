"""Workload execution: statement streams with rates, diurnal shape, drift."""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from typing import List, Optional

import numpy as np

from repro.clock import HOURS
from repro.engine.engine import SqlEngine
from repro.workload.templates import QueryTemplate


def _normalized_cdf(weights: np.ndarray) -> List[float]:
    """The cumulative table ``Generator.choice`` draws ``p = weights /
    weights.sum()`` from, built the way it builds it."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclasses.dataclass
class RecordedStatement:
    """One statement in a recorded (TDS-like) stream."""

    at: float
    query: object
    template_name: str


@dataclasses.dataclass
class WorkloadRecording:
    """A recorded statement stream, replayable on a B-instance."""

    statements: List[RecordedStatement]

    def __len__(self) -> int:
        return len(self.statements)

    def duration(self) -> float:
        if not self.statements:
            return 0.0
        return self.statements[-1].at - self.statements[0].at


class Workload:
    """A weighted mix of query templates executed over virtual time.

    ``statements_per_hour`` sets the base rate; a diurnal sine modulates it
    (amplitude 0 disables).  ``drift_rate`` gradually perturbs template
    weights over time, modeling workload drift (Section 1.1's continuous
    tuning motivation).
    """

    def __init__(
        self,
        templates: List[QueryTemplate],
        rng: np.random.Generator,
        statements_per_hour: float = 60.0,
        diurnal_amplitude: float = 0.3,
        drift_rate: float = 0.0,
    ) -> None:
        if not templates:
            raise ValueError("workload needs at least one template")
        self.templates = templates
        self.rng = rng
        self.statements_per_hour = statements_per_hour
        self.diurnal_amplitude = diurnal_amplitude
        self.drift_rate = drift_rate
        self._weights = np.array([t.weight for t in templates], dtype=float)
        #: The undrifted weights' cumulative table, built on first draw.
        self._cdf: Optional[List[float]] = None

    def _current_weights(self, now: float) -> np.ndarray:
        if self.drift_rate <= 0:
            return self._weights
        # Smooth deterministic drift: each template's weight oscillates with
        # its own phase, so the top-K statement set changes over days.
        drifted = self._weights.copy()
        for i in range(len(drifted)):
            phase = (i * 2.399963) % (2 * math.pi)  # golden-angle spacing
            factor = 1.0 + self.drift_rate * math.sin(
                now / (24 * HOURS) * 2 * math.pi + phase
            )
            drifted[i] *= max(0.05, factor)
        return drifted

    def _rate(self, now: float) -> float:
        hour_of_day = (now / HOURS) % 24.0
        modulation = 1.0 + self.diurnal_amplitude * math.sin(
            (hour_of_day - 6.0) / 24.0 * 2 * math.pi
        )
        return max(0.1, self.statements_per_hour * modulation)

    def sample_template(self, now: float) -> QueryTemplate:
        # ``rng.choice(n, p=...)``'s draw, without its per-call
        # validation: one ``random()`` bisected (side right) into the
        # cumulative table it builds, ``cumsum(p) / cumsum(p)[-1]``.
        # The undrifted table is cached; ``drift_rate`` may be set after
        # construction, so it is read here.
        if self.drift_rate > 0:
            cdf = _normalized_cdf(self._current_weights(now))
        else:
            if self._cdf is None:
                self._cdf = _normalized_cdf(self._weights)
            cdf = self._cdf
        return self.templates[bisect_right(cdf, self.rng.random())]

    def run(
        self,
        engine: SqlEngine,
        hours: float,
        record: bool = False,
        max_statements: Optional[int] = None,
    ) -> WorkloadRecording:
        """Execute the workload against ``engine`` for ``hours`` of sim time.

        Statements are spaced by the (possibly diurnal) rate; the engine's
        clock is advanced as they execute.  Returns the recording (empty
        unless ``record`` is True).
        """
        recording: List[RecordedStatement] = []
        end = engine.clock.now + hours * HOURS
        executed = 0
        while engine.clock.now < end:
            if max_statements is not None and executed >= max_statements:
                break
            now = engine.clock.now
            template = self.sample_template(now)
            query = template.sample(self.rng)
            engine.execute(query)
            if record:
                recording.append(
                    RecordedStatement(at=now, query=query, template_name=template.name)
                )
            executed += 1
            gap_minutes = 60.0 / self._rate(now)
            # Exponential inter-arrivals around the rate.
            engine.clock.advance(float(self.rng.exponential(gap_minutes)))
        return WorkloadRecording(statements=recording)

    def generate_recording(
        self,
        start: float,
        hours: float,
        max_statements: Optional[int] = None,
    ) -> WorkloadRecording:
        """Generate a statement stream without executing it."""
        recording: List[RecordedStatement] = []
        now = start
        end = start + hours * HOURS
        while now < end:
            if max_statements is not None and len(recording) >= max_statements:
                break
            template = self.sample_template(now)
            recording.append(
                RecordedStatement(
                    at=now, query=template.sample(self.rng), template_name=template.name
                )
            )
            now += float(self.rng.exponential(60.0 / self._rate(now)))
        return WorkloadRecording(statements=recording)
