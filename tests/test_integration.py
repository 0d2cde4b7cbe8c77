"""End-to-end integration tests across the whole stack (tiny scale)."""

import pytest

from repro.catalog.datagen import generate_database
from repro.core.cliffguard import CliffGuard
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.executor import ColumnarExecutor
from repro.engine.storage import ColumnarDatabase
from repro.harness.replay import replay
from repro.serve.sources import TraceSource
from repro.workload.distance import WorkloadDistance
from repro.workload.sampler import NeighborhoodSampler


class TestColumnarEndToEnd:
    def test_designed_database_answers_real_queries(self, tiny_star, tiny_windows, columnar_adapter):
        """Generate data, design with the nominal designer, deploy, and run
        actual workload queries — results must match the undesigned run."""
        schema, _ = tiny_star
        nominal = ColumnarNominalDesigner(columnar_adapter)
        design = nominal.design(tiny_windows[0])
        assert len(design) > 0

        data = generate_database(schema, seed=1, scale=0.01)
        database = ColumnarDatabase(schema, data)
        database.deploy(design)
        executor = ColumnarExecutor(database)

        checked = 0
        for query in tiny_windows[0].collapsed():
            if query.sql.startswith("SELECT *"):
                continue
            baseline = executor.execute(query.sql)
            designed = executor.execute(query.sql, design)
            assert len(baseline.rows) == len(designed.rows)
            checked += 1
            if checked >= 15:
                break
        assert checked > 0

    def test_cliffguard_end_to_end_columnar(
        self, tiny_star, tiny_trace, tiny_windows, columnar_adapter
    ):
        schema, _ = tiny_star
        window = tiny_windows[1]
        distance = WorkloadDistance(schema.total_columns)
        sampler = NeighborhoodSampler(
            distance,
            schema,
            pool=[q for q in tiny_trace if q.timestamp < window.span_days[0]],
            seed=1,
            min_query_set=4,
            max_query_set=8,
        )
        nominal = ColumnarNominalDesigner(columnar_adapter)
        robust = CliffGuard(
            nominal, columnar_adapter, sampler, gamma=0.004, n_samples=4, max_iterations=2
        )
        design = robust.design(window)
        test = tiny_windows[2]
        robust_cost = columnar_adapter.workload_cost(test, design).average_ms
        empty_cost = columnar_adapter.workload_cost(
            test, columnar_adapter.empty_design()
        ).average_ms
        assert robust_cost < empty_cost

    def test_cliffguard_end_to_end_rowstore(
        self, tiny_star, tiny_trace, tiny_windows, rowstore_adapter
    ):
        """CliffGuard is engine-agnostic: the identical wrapper must drive
        the row-store advisor (the paper's DBMS-X result)."""
        schema, _ = tiny_star
        window = tiny_windows[1]
        distance = WorkloadDistance(schema.total_columns)
        sampler = NeighborhoodSampler(
            distance,
            schema,
            pool=[q for q in tiny_trace if q.timestamp < window.span_days[0]],
            seed=1,
            min_query_set=4,
            max_query_set=8,
        )
        nominal = RowstoreNominalDesigner(rowstore_adapter)
        robust = CliffGuard(
            nominal, rowstore_adapter, sampler, gamma=0.004, n_samples=4, max_iterations=2
        )
        design = robust.design(window)
        test = tiny_windows[2]
        robust_cost = rowstore_adapter.workload_cost(test, design).average_ms
        empty_cost = rowstore_adapter.workload_cost(
            test, rowstore_adapter.empty_design()
        ).average_ms
        assert robust_cost < empty_cost


class TestRowstoreReplay:
    def test_replay_on_rowstore_engine(self, rowstore_adapter, tiny_windows):
        nominal = RowstoreNominalDesigner(rowstore_adapter)
        outcome = replay(
            TraceSource.from_windows(tiny_windows),
            {"ExistingDesigner": nominal},
            rowstore_adapter,
            candidate_source=nominal,
            max_transitions=2,
        )
        run = outcome.run("ExistingDesigner")
        assert run.windows
        assert run.mean_average_ms > 0


class TestExperimentsSmoke:
    """The experiment entry points must run end-to-end at micro scale."""

    @pytest.fixture(scope="class")
    def context(self):
        from repro.harness.experiments import ExperimentContext, ExperimentScale

        scale = ExperimentScale(
            days=84,
            window_days=28,
            queries_per_day=6,
            n_samples=3,
            iterations=1,
            legacy_tables=5,
            max_transitions=1,
            skip_transitions=1,
        )
        return ExperimentContext(scale)

    def test_table1(self, context):
        from repro.harness.experiments import run_table1

        rows = run_table1(context)
        assert [r.workload for r in rows] == ["R1", "S1", "S2"]
        for row in rows:
            assert row.minimum <= row.average <= row.maximum

    def test_fig5(self, context):
        from repro.harness.experiments import run_fig5

        curves = run_fig5(context, window_sizes=(14, 28))
        assert set(curves) == {14, 28}
        for points in curves.values():
            assert points
            assert all(0.0 <= frac <= 1.0 for _, frac in points)

    def test_designer_comparison_runs(self, context):
        from repro.harness.experiments import run_designer_comparison

        outcome = run_designer_comparison(
            context, "R1", which=["NoDesign", "ExistingDesigner", "CliffGuard"]
        )
        assert outcome.run("NoDesign").mean_average_ms > 0
        assert (
            outcome.run("ExistingDesigner").mean_average_ms
            < outcome.run("NoDesign").mean_average_ms
        )
