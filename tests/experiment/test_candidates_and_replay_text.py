"""Candidate selection for experiments + the text recorded statements leave."""

from __future__ import annotations

from repro.engine.sqlgen import render, template_text
from repro.experiment.compare import select_experiment_candidates
from repro.fleet import Fleet, FleetSpec
from repro.rng import derive
from repro.workload import make_profile


class TestCandidateSelection:
    def test_selects_requested_count(self):
        fleet = Fleet(FleetSpec(n_databases=5, tier="standard", seed=91))
        fleet.run_workloads(hours=2, max_statements_per_db=40)
        picks = select_experiment_candidates(fleet, derive(1, "c"), n=3)
        assert len(picks) == 3
        assert len({p.name for p in picks}) == 3

    def test_inactive_databases_excluded(self):
        fleet = Fleet(FleetSpec(n_databases=4, tier="standard", seed=92))
        # Run workload on only half of the fleet.
        active_names = fleet.names()[:2]
        for name in active_names:
            profile = fleet.get(name)
            profile.workload.run(profile.engine, hours=4, max_statements=80)
        for profile in fleet:
            if profile.engine.clock.now < 4 * 60.0:
                profile.engine.clock.advance_to(4 * 60.0)
        picks = select_experiment_candidates(
            fleet, derive(2, "c"), n=4, min_statements_per_hour=2.0
        )
        assert {p.name for p in picks} <= set(active_names)

    def test_deterministic_given_rng(self):
        fleet = Fleet(FleetSpec(n_databases=5, tier="standard", seed=93))
        fleet.run_workloads(hours=1, max_statements_per_db=30)
        a = [p.name for p in select_experiment_candidates(fleet, derive(3, "c"), n=2)]
        b = [p.name for p in select_experiment_candidates(fleet, derive(3, "c"), n=2)]
        assert a == b


class TestRecordedStatementText:
    """Replay forks ``Query`` objects, so text is only what Query Store
    keeps: the rendered statement and its literal-free template text."""

    def test_one_normalized_text_per_template(self):
        profile = make_profile(
            "text-templates", seed=94, tier="premium", archetype="analytics"
        )
        recording = profile.workload.generate_recording(
            start=0.0, hours=6, max_statements=300
        )
        texts = {}
        for statement in recording.statements:
            texts.setdefault(statement.query.template_key(), set()).add(
                template_text(statement.query)
            )
        assert len(texts) > 1
        assert all(len(group) == 1 for group in texts.values())
        # ... and distinct templates never share one.
        assert len({text for (text,) in texts.values()}) == len(texts)

    def test_query_store_records_the_rendered_text(self):
        profile = make_profile(
            "text-exec", seed=95, tier="standard", archetype="webshop"
        )
        recording = profile.workload.generate_recording(
            start=0.0, hours=2, max_statements=60
        )
        engine = profile.engine
        first = {}
        for statement in recording.statements:
            if statement.at > engine.clock.now:
                engine.clock.advance_to(statement.at)
            result = engine.execute(statement.query)
            first.setdefault(result.query_id, statement.query)
        infos = engine.query_store.queries()
        assert {info.query_id for info in infos} == set(first)
        for info in infos:
            query = first[info.query_id]
            assert info.template_text == template_text(query)
            if info.text_complete:
                assert info.text == render(query)
            else:
                assert render(query).startswith(info.text)
