"""Error-path tests: unknown objects, malformed queries, graceful failures."""

from __future__ import annotations

import pytest

from repro.engine import (
    DeleteQuery,
    InsertQuery,
    Op,
    Predicate,
    SelectQuery,
    UpdateQuery,
)
from repro.errors import (
    ExecutionError,
    QueryError,
    ReproError,
    UnknownColumnError,
    UnknownTableError,
)
from tests.engine.test_optimizer import perfect_engine

#: Perfect engines execute without run-to-run noise.
pytestmark = pytest.mark.usefixtures("noiseless")


@pytest.fixture
def eng():
    return perfect_engine(seed=601)


class TestUnknownObjects:
    def test_unknown_table(self, eng):
        with pytest.raises(UnknownTableError):
            eng.execute(SelectQuery("nope", ("a",)))

    def test_unknown_predicate_column(self, eng):
        query = SelectQuery("orders", ("o_id",), (Predicate("ghost", Op.EQ, 1),))
        with pytest.raises(UnknownColumnError):
            eng.execute(query)

    def test_unknown_projection_column(self, eng):
        query = SelectQuery("orders", ("ghost",))
        with pytest.raises(UnknownColumnError):
            eng.execute(query)

    def test_drop_unknown_index(self, eng):
        from repro.errors import UnknownIndexError

        with pytest.raises(UnknownIndexError):
            eng.drop_index("orders", "ix_ghost")


class TestMalformedDml:
    def test_insert_wrong_width(self, eng):
        with pytest.raises(ReproError):
            eng.execute(InsertQuery("orders", ((1, 2),)))

    def test_insert_duplicate_pk(self, eng):
        with pytest.raises(ExecutionError):
            eng.execute(InsertQuery("orders", ((0, 1, 1, 1.0, 1, "x"),)))

    def test_insert_bad_type(self, eng):
        with pytest.raises(QueryError):
            eng.execute(
                InsertQuery("orders", (("oops", 1, 1, 1.0, 1, "x"),))
            )

    def test_update_unknown_column(self, eng):
        with pytest.raises(UnknownColumnError):
            eng.execute(
                UpdateQuery("orders", (("ghost", 1),), (Predicate("o_id", Op.EQ, 1),))
            )

    def test_delete_everything_allowed(self, eng):
        before = eng.database.table("customers").row_count
        assert before > 0
        eng.execute(DeleteQuery("customers"))
        assert eng.database.table("customers").row_count == 0

    def test_all_library_errors_share_base(self):
        import repro.errors as errors

        exception_types = [
            getattr(errors, name)
            for name in dir(errors)
            if isinstance(getattr(errors, name), type)
            and issubclass(getattr(errors, name), Exception)
            and getattr(errors, name) is not Exception
        ]
        for exc_type in exception_types:
            assert issubclass(exc_type, errors.ReproError), exc_type
