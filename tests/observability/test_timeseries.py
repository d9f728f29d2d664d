"""Telemetry history: ring-buffer TSDB, sampling, anomalies."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import TelemetryError
from repro.observability import MetricsRegistry
from repro.observability.audit import AuditLog
from repro.observability.slo import SLO_CATALOG
from repro.observability.timeseries import (
    HISTORY_SCOPE,
    RING_CAPACITY,
    SAMPLE_CATALOG,
    AnomalyDetector,
    FleetSampler,
    TelemetryHistory,
    TimeSeriesStore,
)


class TestStoreBasics:
    def test_uncataloged_series_rejected(self):
        store = TimeSeriesStore()
        with pytest.raises(TelemetryError, match="SAMPLE_CATALOG"):
            store.observe("made_up_series", 0, 1.0)
        with pytest.raises(TelemetryError, match="SAMPLE_CATALOG"):
            store.latest("made_up_series")
        # A series the catalog dropped fails a replayed dump the same way.
        dropped = (
            '{"schema_version": 2, "series": "plan_cache_hit_rate", '
            '"capacity": 512, "samples": [[0, 0.5]]}'
        )
        with pytest.raises(TelemetryError, match="SAMPLE_CATALOG"):
            TimeSeriesStore.replay([dropped])

    def test_bad_capacity_rejected(self):
        with pytest.raises(TelemetryError):
            TimeSeriesStore(ring_capacity=0)

    def test_latest_and_range_over_recent_window(self):
        store = TimeSeriesStore()
        for tick in range(100):
            store.observe("records_live", tick, float(tick))
        assert store.latest("records_live") == 99.0
        assert store.range("records_live", 97) == [
            (97, 97.0), (98, 98.0), (99, 99.0),
        ]

    def test_mean_is_exact_and_counts_samples(self):
        store = TimeSeriesStore()
        for tick in range(20):
            store.observe("revert_rate", tick, 0.25)
        mean, count = store.mean("revert_rate", 16)
        assert mean == pytest.approx(0.25)
        assert count == 16

    def test_empty_store_answers_neutrally(self):
        store = TimeSeriesStore()
        assert store.last_tick() is None
        assert store.latest("revert_rate") is None
        assert store.range("revert_rate", 0) == []
        assert store.mean("revert_rate", 16) == (0.0, 0)

    def test_slo_window_means_match_recorded_values(self):
        """Burn rates (and so alert audit events) must not move: these
        literals were recorded from the tiered store this ring replaced,
        on the same 300-tick series."""
        store = TimeSeriesStore()
        for spec in SLO_CATALOG.values():
            if spec.series in store.series_names():
                continue
            for tick in range(300):
                store.observe(
                    spec.series, tick, (tick * 7919 % 13) / 13.0 + tick / 1000.0
                )
        for spec in SLO_CATALOG.values():
            assert store.mean(spec.series, spec.short_window) == (
                0.7626538461538461, 16,
            )
            assert store.mean(spec.series, spec.long_window) == (
                0.634240384615385, 256,
            )
            assert max(spec.short_window, spec.long_window) <= RING_CAPACITY


class TestMemoryBound:
    """The acceptance bound: >=10,000 ticks under the cap, every SLO-sized
    window still exact, longer windows answered over what is retained."""

    TICKS = 12_000

    def test_retention_capped_and_windows_answer(self):
        store = TimeSeriesStore()
        for tick in range(self.TICKS):
            store.observe("records_live", tick, float(tick))
            store.observe("revert_rate", tick, 0.2)
        assert store.retained_samples() <= store.capacity()
        assert store.capacity() < self.TICKS
        assert store.last_tick() == self.TICKS - 1
        # A 256-tick mean (the longest SLO window) is exact.
        mean, count = store.mean("records_live", 256)
        assert (mean, count) == (self.TICKS - 1 - 127.5, 256)
        # A window past the ring answers over the 512 retained samples
        # and says so through the count.
        mean, count = store.mean("records_live", 4096)
        assert (mean, count) == (self.TICKS - 1 - 255.5, 512)


#: A schema-v1 dump written by the tiered store this ring replaced (20
#: ticks, two series): per series one ``raw`` record (one
#: ``start,end,min,max,sum,count,last`` row per sample) and derived
#: ``rollup_16`` / ``rollup_256`` records, which the ring reader skips.
V1_DUMP = pathlib.Path(__file__).parents[1] / "data" / "history_v1.jsonl"


class TestPersistence:
    def _filled_store(self) -> TimeSeriesStore:
        store = TimeSeriesStore(ring_capacity=32)
        for tick in range(200):
            store.observe("revert_rate", tick, (tick % 7) / 10.0)
            store.observe("records_live", tick, float(tick))
        return store

    def test_jsonl_roundtrip_is_byte_identical(self):
        store = self._filled_store()
        text = store.to_jsonl()
        replayed = TimeSeriesStore.replay(text)
        assert replayed.to_jsonl() == text
        assert replayed.retained_samples() == store.retained_samples()
        assert replayed.last_tick() == store.last_tick()

    def test_appending_after_replay_evicts_like_the_original(self):
        store = self._filled_store()
        replayed = TimeSeriesStore.replay(store.to_jsonl())
        for tick in range(200, 240):
            store.observe("records_live", tick, float(tick))
            replayed.observe("records_live", tick, float(tick))
        assert replayed.to_jsonl() == store.to_jsonl()

    def test_dump_and_replay_via_file(self, tmp_path):
        store = self._filled_store()
        path = tmp_path / "history.jsonl"
        count = store.dump(str(path))
        assert count == len(path.read_text().splitlines()) == 2
        replayed = TimeSeriesStore.replay(str(path))
        assert replayed.to_jsonl() == store.to_jsonl()

    def test_replay_reads_a_v1_dump_from_its_raw_records(self):
        tiers = [json.loads(line)["tier"] for line in V1_DUMP.open()]
        assert tiers == ["raw", "rollup_16", "rollup_256"] * 2
        store = TimeSeriesStore.replay(str(V1_DUMP))
        assert store.series_names() == ["records_live", "revert_rate"]
        assert store.ring_capacity == 512
        assert store.retained_samples() == 40
        assert store.range("records_live", 17) == [
            (17, 2.0), (18, 3.0), (19, 4.0),
        ]
        # The means the tiered store answered before writing the dump.
        assert store.mean("revert_rate", 16) == (0.9000000000000002, 16)
        assert store.mean("revert_rate", 256) == (0.7200000000000002, 20)
        assert store.mean("records_live", 16) == (2.125, 16)

    def test_replay_refuses_newer_schema(self):
        line = (
            '{"schema_version": 999, "series": "revert_rate", '
            '"capacity": 512, "samples": []}'
        )
        with pytest.raises(TelemetryError, match="newer"):
            TimeSeriesStore.replay([line])

    def test_export_is_json_shaped(self):
        store = self._filled_store()
        doc = store.export()
        assert doc["schema"] == "repro-history-v2"
        assert doc["last_tick"] == 199
        assert doc["retained_samples"] == 64
        names = [series["name"] for series in doc["series"]]
        assert names == sorted(names)
        for series in doc["series"]:
            assert [tick for tick, _value in series["samples"]] == list(
                range(168, 200)
            )
            assert series["latest"] == series["samples"][-1][1]


class TestFleetSampler:
    def test_samples_cover_every_non_wall_series(self):
        values = FleetSampler().sample(MetricsRegistry())
        expected = {
            name for name, spec in SAMPLE_CATALOG.items() if not spec.wall
        }
        assert set(values) == expected

    def test_rates_derived_from_transitions(self):
        registry = MetricsRegistry()
        registry.counter(
            "state_transitions_total", database="db", from_state="validating",
            to_state="reverting",
        ).inc()
        registry.counter(
            "state_transitions_total", database="db", from_state="reverting",
            to_state="reverted",
        ).inc()
        for _ in range(3):
            registry.counter(
                "state_transitions_total", database="db",
                from_state="validating", to_state="success",
            ).inc()
        registry.gauge("records_in_state", state="active").set(2)
        registry.gauge("records_in_state", state="implementing").set(1)
        registry.gauge("records_in_state", state="success").set(9)
        values = FleetSampler().sample(registry)
        assert values["revert_rate"] == pytest.approx(0.25)
        assert values["validation_failure_rate"] == pytest.approx(0.25)
        assert values["records_live"] == 3.0
        assert values["validation_reverts"] == 1.0


class TestAnomalyDetector:
    def test_warmup_swallows_early_wildness(self):
        detector = AnomalyDetector(warmup=12)
        assert all(
            detector.observe("revert_rate", tick, value) is None
            for tick, value in enumerate([0.0, 100.0] * 6)
        )

    def test_level_shift_fires_once_then_cools_down(self):
        detector = AnomalyDetector(warmup=12, cooldown=32)
        anomalies = []
        for tick in range(40):
            value = 0.1 if tick < 30 else 5.0
            anomaly = detector.observe("revert_rate", tick, value)
            if anomaly is not None:
                anomalies.append(anomaly)
        assert len(anomalies) == 1
        (anomaly,) = anomalies
        assert anomaly.tick == 30
        assert anomaly.series == "revert_rate"
        assert abs(anomaly.zscore) >= 4.0

    def test_determinism_across_instances(self):
        sequence = [(tick, (tick * 7919 % 13) / 13.0) for tick in range(200)]
        sequence[150] = (150, 40.0)

        def run():
            detector = AnomalyDetector()
            return [
                detector.observe("records_live", tick, value)
                for tick, value in sequence
            ]

        assert run() == [None] * 149 + run()[149:]

    def test_alpha_validated(self):
        with pytest.raises(TelemetryError, match="alpha"):
            AnomalyDetector(alpha=0.0)


class TestTelemetryHistory:
    def _stable_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.gauge("records_in_state", state="active").set(3)
        return registry

    def test_observe_tick_samples_every_series(self):
        history = TelemetryHistory()
        registry = self._stable_registry()
        assert history.observe_tick(registry, now=0.0) == 0
        assert history.observe_tick(registry, now=120.0) == 1
        non_wall = sorted(
            name for name, spec in SAMPLE_CATALOG.items() if not spec.wall
        )
        assert history.store.series_names() == non_wall
        assert registry.total("telemetry_history_samples") == (
            history.store.retained_samples()
        )

    def test_anomaly_emits_typed_audit_event(self):
        history = TelemetryHistory()
        audit = AuditLog()
        registry = self._stable_registry()
        for tick in range(30):
            history.observe_tick(registry, now=float(tick))
        registry.gauge("records_in_state", state="active").set(500)
        history.observe_tick(registry, now=30.0)
        assert [a.series for a in history.anomalies] == ["records_live"]
        # No audit log was attached above; re-run with one attached.
        history = TelemetryHistory()
        registry = self._stable_registry()
        for tick in range(30):
            history.observe_tick(registry, now=float(tick), audit=audit)
        registry.gauge("records_in_state", state="active").set(500)
        history.observe_tick(registry, now=30.0, audit=audit)
        events = [
            e for e in audit.events() if e.event_type == "telemetry_anomaly"
        ]
        assert len(events) == 1
        (event,) = events
        assert event.database == HISTORY_SCOPE
        assert event.rec_id is None
        assert event.payload["series"] == "records_live"
        assert event.payload["tick"] == 30
        assert abs(event.payload["zscore"]) >= 4.0
        assert registry.total(
            "telemetry_anomalies_total", series="records_live"
        ) == 1.0

    def test_wall_series_is_separate_and_never_audited(self):
        history = TelemetryHistory()
        audit = AuditLog()
        registry = self._stable_registry()
        for tick in range(40):
            index = history.observe_tick(
                registry, now=float(tick), audit=audit
            )
            # Wildly varying wall times must never look like anomalies.
            history.observe_wall(index, 1000.0 if tick % 2 else 0.001)
        assert "tick_wall_seconds" in history.store.series_names()
        assert audit.events() == []
        assert history.anomalies == []
