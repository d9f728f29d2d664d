"""Optimizer tests: plan choice, what-if mode, MI emission."""

from __future__ import annotations

import pytest

from repro.engine import (
    Database,
    IndexDefinition,
    JoinSpec,
    Op,
    OrderItem,
    Predicate,
    SelectQuery,
    SqlEngine,
    UpdateQuery,
)
from repro.engine.cost_model import CostModelSettings
from repro.engine.engine import EngineSettings
from repro.engine.plans import (
    ClusteredScanNode,
    ClusteredSeekNode,
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    IndexSeekNode,
    KeyLookupNode,
    NestedLoopJoinNode,
    SortNode,
    StreamAggregateNode,
    TopNode,
    UpdatePlanNode,
)
from repro.engine.query import Aggregate, AggFunc, DeleteQuery, InsertQuery
from repro.errors import ExecutionError, OptimizeError
from tests.conftest import (
    make_customers_schema,
    make_orders_schema,
    populate_customers,
    populate_orders,
)


def perfect_engine(seed: int = 3) -> SqlEngine:
    """Engine with estimation error disabled (deterministic plan tests);
    a test executing on it uses the ``noiseless`` fixture."""
    db = Database("opt", seed=seed)
    populate_orders(db.create_table(make_orders_schema()))
    populate_customers(db.create_table(make_customers_schema()))
    settings = EngineSettings(cost_model=CostModelSettings(error_sigma=0.0, severe_error_rate=0.0))
    eng = SqlEngine(db, settings=settings)
    eng.build_all_statistics()
    return eng


@pytest.fixture
def eng(noiseless) -> SqlEngine:
    return perfect_engine()


class TestAccessPaths:
    def test_no_predicates_scans(self, eng):
        plan = eng.optimizer.optimize(SelectQuery("orders", ("o_id",)))
        assert isinstance(plan, ClusteredScanNode)

    def test_pk_equality_uses_clustered_seek(self, eng):
        plan = eng.optimizer.optimize(
            SelectQuery("orders", ("o_amount",), (Predicate("o_id", Op.EQ, 5),))
        )
        assert isinstance(plan, ClusteredSeekNode)

    def test_pk_range_uses_clustered_seek(self, eng):
        plan = eng.optimizer.optimize(
            SelectQuery("orders", ("o_id",), (Predicate("o_id", Op.BETWEEN, 10, 20),))
        )
        assert isinstance(plan, ClusteredSeekNode)
        assert plan.range_predicate is not None

    def test_selective_predicate_uses_index_seek(self, eng):
        eng.create_index(IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",)))
        plan = eng.optimizer.optimize(
            SelectQuery(
                "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
            )
        )
        assert isinstance(plan, IndexSeekNode)
        assert plan.covering

    def test_non_covering_seek_adds_lookup(self, eng):
        eng.create_index(IndexDefinition("ix_cust", "orders", ("o_cust",)))
        plan = eng.optimizer.optimize(
            SelectQuery(
                "orders", ("o_note",), (Predicate("o_cust", Op.EQ, 3),)
            )
        )
        assert isinstance(plan, KeyLookupNode)
        assert isinstance(plan.child, IndexSeekNode)
        assert not plan.child.covering

    def test_unselective_predicate_prefers_scan(self, eng):
        eng.create_index(IndexDefinition("ix_date", "orders", ("o_date",)))
        plan = eng.optimizer.optimize(
            SelectQuery(
                "orders",
                ("o_note",),
                (Predicate("o_date", Op.GE, 2),),  # matches ~99% of rows
            )
        )
        assert isinstance(plan, ClusteredScanNode)

    def test_covering_index_scan_beats_table_scan(self, eng):
        eng.create_index(IndexDefinition("ix_cov", "orders", ("o_cust",), ("o_amount",)))
        # No sargable predicate on index key, but the narrow index covers.
        plan = eng.optimizer.optimize(SelectQuery("orders", ("o_cust", "o_amount")))
        assert isinstance(plan, IndexScanNode)

    def test_eq_prefix_plus_range_seek(self, eng):
        eng.create_index(
            IndexDefinition("ix_cd", "orders", ("o_cust", "o_date"), ("o_amount",))
        )
        plan = eng.optimizer.optimize(
            SelectQuery(
                "orders",
                ("o_amount",),
                (
                    Predicate("o_cust", Op.EQ, 3),
                    Predicate("o_date", Op.BETWEEN, 10, 50),
                ),
            )
        )
        assert isinstance(plan, IndexSeekNode)
        assert len(plan.eq_predicates) == 1
        assert plan.range_predicate is not None

    def test_index_hint_forces_index(self, eng):
        eng.create_index(IndexDefinition("ix_cust", "orders", ("o_cust",)))
        plan = eng.optimizer.optimize(
            SelectQuery(
                "orders",
                ("o_id",),
                (Predicate("o_cust", Op.EQ, 3),),
                index_hint="ix_cust",
            )
        )
        assert "ix_cust" in plan.referenced_indexes()

    def test_missing_hinted_index_breaks_query(self, eng):
        query = SelectQuery(
            "orders", ("o_id",), (Predicate("o_cust", Op.EQ, 3),), index_hint="gone"
        )
        with pytest.raises(ExecutionError):
            eng.optimizer.optimize(query)


class TestOrderingAndAggregation:
    def test_order_by_without_index_sorts(self, eng):
        plan = eng.optimizer.optimize(
            SelectQuery(
                "orders",
                ("o_id",),
                (Predicate("o_cust", Op.EQ, 3),),
                order_by=(OrderItem("o_amount"),),
            )
        )
        assert isinstance(plan, SortNode)

    def test_index_provides_order_skips_sort(self, eng):
        eng.create_index(
            IndexDefinition("ix_ca", "orders", ("o_cust", "o_amount"), ("o_date",))
        )
        plan = eng.optimizer.optimize(
            SelectQuery(
                "orders",
                ("o_amount", "o_date"),
                (Predicate("o_cust", Op.EQ, 3),),
                order_by=(OrderItem("o_amount"),),
            )
        )
        assert not isinstance(plan, SortNode)
        assert "ix_ca" in plan.referenced_indexes()

    def test_group_by_unordered_hash_aggregates(self, eng):
        plan = eng.optimizer.optimize(
            SelectQuery(
                "orders",
                group_by=("o_status",),
                aggregates=(Aggregate(AggFunc.COUNT),),
            )
        )
        assert isinstance(plan, HashAggregateNode)

    def test_group_by_on_index_order_streams(self, eng):
        eng.create_index(IndexDefinition("ix_grp", "orders", ("o_status",), ("o_amount",)))
        plan = eng.optimizer.optimize(
            SelectQuery(
                "orders",
                group_by=("o_status",),
                aggregates=(Aggregate(AggFunc.SUM, "o_amount"),),
            )
        )
        assert isinstance(plan, StreamAggregateNode)

    def test_top_node_added(self, eng):
        plan = eng.optimizer.optimize(SelectQuery("orders", ("o_id",), limit=5))
        assert isinstance(plan, TopNode)


class TestJoins:
    def query(self):
        return SelectQuery(
            "orders",
            ("o_id",),
            (Predicate("o_status", Op.EQ, 2),),
            join=JoinSpec(
                table="customers",
                left_column="o_cust",
                right_column="c_id",
                select_columns=("c_name",),
            ),
        )

    def test_join_with_selective_outer_uses_nlj(self, eng):
        # Few outer rows + seekable inner (customers PK) favors NLJ.
        query = SelectQuery(
            "orders",
            ("o_id",),
            (Predicate("o_id", Op.BETWEEN, 0, 20),),
            join=JoinSpec(
                table="customers",
                left_column="o_cust",
                right_column="c_id",
                select_columns=("c_name",),
            ),
        )
        plan = eng.optimizer.optimize(query)
        assert isinstance(plan, NestedLoopJoinNode)

    def test_join_with_wide_outer_uses_hash(self, eng):
        # ~20% of orders qualify: per-probe seeks lose to one hash build.
        plan = eng.optimizer.optimize(self.query())
        assert isinstance(plan, HashJoinNode)

    def test_join_without_seekable_inner_uses_hash(self, eng):
        query = SelectQuery(
            "orders",
            ("o_id",),
            (),
            join=JoinSpec(
                table="customers",
                left_column="o_cust",
                right_column="c_region",  # not indexed on customers
                select_columns=("c_name",),
            ),
        )
        plan = eng.optimizer.optimize(query)
        assert isinstance(plan, HashJoinNode)

    def test_whatif_index_on_join_column_enables_nlj(self, eng):
        query = SelectQuery(
            "orders",
            ("o_id",),
            (),
            join=JoinSpec(
                table="customers",
                left_column="o_cust",
                right_column="c_region",
                select_columns=("c_name",),
            ),
        )
        hyp = IndexDefinition(
            "hyp_reg", "customers", ("c_region",), ("c_name",), hypothetical=True
        )
        plan = eng.whatif_optimize(query, extra_indexes=(hyp,))
        assert isinstance(plan, (NestedLoopJoinNode, HashJoinNode))


class TestWhatIf:
    def test_hypothetical_index_lowers_cost(self, eng):
        query = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
        )
        base = eng.optimizer.optimize(query).est_cost
        hyp = IndexDefinition(
            "hyp", "orders", ("o_cust",), ("o_amount",), hypothetical=True
        )
        whatif = eng.whatif_optimize(query, extra_indexes=(hyp,))
        assert whatif.est_cost < base
        assert "hyp" in whatif.referenced_indexes()

    def test_excluding_index_restores_scan(self, eng):
        """Twin engines, same seed: the one without ``ix_cust`` scans, and
        creating the index never raises the estimate."""
        without_eng = perfect_engine()
        eng.create_index(IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",)))
        query = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
        )
        with_index = eng.optimizer.optimize(query)
        assert "ix_cust" in with_index.referenced_indexes()
        without = without_eng.optimizer.optimize(query)
        assert "ix_cust" not in without.referenced_indexes()
        assert without.est_cost >= with_index.est_cost

    def test_whatif_counts_calls(self, eng):
        query = SelectQuery("orders", ("o_id",), (Predicate("o_cust", Op.EQ, 1),))
        hyp = IndexDefinition("h", "orders", ("o_cust",), hypothetical=True)
        eng.whatif_optimize(query, extra_indexes=(hyp,))
        assert eng.optimizer.batch_stats.configurations == 1
        assert eng.governor.tuning.usage.whatif_calls == 1
        # A one-off batch prices off a substrate it builds for itself.
        stats = eng.optimizer.batch_stats
        assert (stats.substrate_misses, stats.substrate_hits) == (1, 0)

    def test_bulk_insert_not_whatif_optimizable(self, eng):
        bulk = InsertQuery("orders", ((99999, 1, 1, 1.0, 1, "x"),), bulk=True)
        hyp = IndexDefinition("h", "orders", ("o_cust",), hypothetical=True)
        with pytest.raises(OptimizeError):
            eng.whatif_optimize(bulk, extra_indexes=(hyp,))

    def test_dml_whatif_includes_maintenance(self, eng):
        update = UpdateQuery(
            "orders",
            (("o_amount", 0.0),),
            (Predicate("o_id", Op.BETWEEN, 0, 100),),
        )
        base = eng.optimizer.optimize(update).est_cost
        hyp = IndexDefinition("h", "orders", ("o_amount",), hypothetical=True)
        with_hyp = eng.whatif_optimize(update, extra_indexes=(hyp,))
        assert with_hyp.est_cost > base
        assert "h" in with_hyp.maintained_indexes


class TestMiEmission:
    def collect(self, eng, query):
        hits = []

        def sink(table, eq, ineq, incl, cost, impact):
            hits.append((table, eq, ineq, incl, cost, impact))

        eng.optimizer.optimize(query, mi_sink=sink)
        return hits

    def test_selective_predicate_emits(self, eng):
        hits = self.collect(
            eng,
            SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)),
        )
        assert len(hits) == 1
        table, eq, ineq, incl, cost, impact = hits[0]
        assert table == "orders"
        assert eq == ("o_cust",)
        assert "o_amount" in incl
        assert impact > 50

    def test_no_predicates_no_emission(self, eng):
        assert self.collect(eng, SelectQuery("orders", ("o_id",))) == []

    def test_existing_good_index_suppresses_emission(self, eng):
        eng.create_index(
            IndexDefinition("ix_cust", "orders", ("o_cust",), ("o_amount",))
        )
        hits = self.collect(
            eng,
            SelectQuery("orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)),
        )
        assert hits == []

    def test_range_predicate_becomes_inequality_column(self, eng):
        hits = self.collect(
            eng,
            SelectQuery(
                "orders",
                ("o_amount",),
                (
                    Predicate("o_cust", Op.EQ, 3),
                    Predicate("o_date", Op.BETWEEN, 5, 10),
                ),
            ),
        )
        assert len(hits) == 1
        _t, eq, ineq, _incl, _c, _i = hits[0]
        assert eq == ("o_cust",) and ineq == ("o_date",)

    def test_repeat_execution_replans_to_the_same_plan_and_emissions(self, eng):
        """No executed plan is reused: a statement run twice at the
        same table versions is planned twice, to the same plan, and
        charges the MI DMV's ``user_seeks`` the same on each run."""
        query = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
        )

        def seeks():
            return sum(entry.user_seeks for entry in eng.missing_indexes.entries())

        start = seeks()
        first = eng.execute(query).plan
        after_first = seeks()
        second = eng.execute(query).plan
        assert second.plan_id() == first.plan_id()
        assert after_first - start > 0  # the o_cust predicate emits
        assert seeks() - after_first == after_first - start

    def test_whatif_call_does_not_emit(self, eng):
        hyp = IndexDefinition("h", "orders", ("o_note",), hypothetical=True)
        query = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
        )
        batch = eng.whatif_batch(query)
        batch.price()
        batch.price((hyp,))
        assert len(eng.missing_indexes) == 0
        # The statement itself does produce a candidate when executed.
        eng.execute(query)
        assert len(eng.missing_indexes) == 1

    def test_join_emits_for_both_tables(self, eng):
        query = SelectQuery(
            "orders",
            ("o_amount",),
            (Predicate("o_cust", Op.EQ, 3),),
            join=JoinSpec(
                table="customers",
                left_column="o_cust",
                right_column="c_id",
                predicates=(Predicate("c_region", Op.EQ, 2),),
                select_columns=("c_name",),
            ),
        )
        hits = self.collect(eng, query)
        tables = {h[0] for h in hits}
        assert "orders" in tables

    def test_update_with_predicates_emits(self, eng):
        hits = []

        def sink(*args):
            hits.append(args)

        eng.optimizer.optimize(
            UpdateQuery(
                "orders", (("o_amount", 0.0),), (Predicate("o_cust", Op.EQ, 3),)
            ),
            mi_sink=sink,
        )
        assert len(hits) == 1

    def test_delete_without_predicates_no_emission(self, eng):
        hits = []

        def sink(*args):
            hits.append(args)

        eng.optimizer.optimize(DeleteQuery("orders"), mi_sink=sink)
        assert hits == []


class TestEstimationError:
    def test_error_model_perturbs_plan_costs(self):
        noisy = Database("noisy", seed=99)
        populate_orders(noisy.create_table(make_orders_schema()))
        settings = EngineSettings(
            cost_model=CostModelSettings(error_sigma=1.5, severe_error_rate=0.5)
        )
        noisy_eng = SqlEngine(noisy, settings=settings)
        noisy_eng.build_all_statistics()
        clean_eng = perfect_engine()
        query = SelectQuery(
            "orders", ("o_amount",), (Predicate("o_cust", Op.EQ, 3),)
        )
        noisy_rows = noisy_eng.optimizer.optimize(query).est_rows
        clean_rows = clean_eng.optimizer.optimize(query).est_rows
        assert noisy_rows != pytest.approx(clean_rows, rel=1e-6)

    def test_error_multiplier_deterministic(self):
        from repro.engine.cost_model import CostModel

        m1 = CostModel(5).error_multiplier("t", "c", "eq")
        m2 = CostModel(5).error_multiplier("t", "c", "eq")
        assert m1 == m2

    def test_error_multiplier_varies_by_column(self):
        from repro.engine.cost_model import CostModel

        model = CostModel(5)
        values = {model.error_multiplier("t", f"c{i}", "eq") for i in range(20)}
        assert len(values) > 10

    @pytest.mark.parametrize("sigma", [0.0, 0.85, 1.5])
    @pytest.mark.parametrize("severe_rate", [0.0, 0.1, 0.5, 0.9999])
    def test_error_multiplier_memo_equals_uncached_body(self, sigma, severe_rate):
        """The memo is invisible: bit-equal to recomputing, on first and
        repeated asks, and never served to other settings."""
        from repro.engine.cost_model import CostModel

        settings = CostModelSettings(
            error_sigma=sigma, severe_error_rate=severe_rate
        )
        model = CostModel(5, settings)
        asks = [
            (table, f"c{i}", kind)
            for table in ("t", "u")
            for i in range(12)
            for kind in ("eq", "range", "neq")
        ]
        expected = [model._compute_error_multiplier(*ask) for ask in asks]
        assert [model.error_multiplier(*ask) for ask in asks] == expected
        assert [model.error_multiplier(*ask) for ask in asks] == expected
        # The same model object under other settings must not read the
        # answers it memoized under these.
        model.settings = CostModelSettings(
            error_sigma=sigma + 0.3, severe_error_rate=severe_rate
        )
        fresh = CostModel(5, model.settings)
        assert [model.error_multiplier(*ask) for ask in asks] == [
            fresh._compute_error_multiplier(*ask) for ask in asks
        ]
