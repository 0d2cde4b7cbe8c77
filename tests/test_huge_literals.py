"""Integer literals beyond the float range.

A parseable text may compare a column with an integer too large for a
float.  The profiler reads such a range bound as ±inf, which the
selectivity estimate clamps, and never converts an equality literal at
all: the text profiles on every path and is priced like any other.  The
profiler's callers catch only ``ValueError``, so any other error from
one such query would end a replay or the serve daemon.
"""

from __future__ import annotations

import math

import pytest

from repro import QueueSource, RobustDesignSession, RunConfig, ServeConfig
from repro.harness.experiments import ExperimentContext, ExperimentScale, run_designer_comparison
from repro.sql.parser import parse
from repro.workload.query import WorkloadQuery

BIG = "9" * 400
SELECT = "SELECT fact_00.attr_00, COUNT(*) AS n FROM fact_00 WHERE "
HUGE = [
    f"{SELECT}fact_00.attr_01 = {BIG} GROUP BY fact_00.attr_00",
    f"{SELECT}fact_00.attr_01 < {BIG} GROUP BY fact_00.attr_00",
    f"{SELECT}fact_00.attr_01 BETWEEN -{BIG} AND {BIG} GROUP BY fact_00.attr_00",
]


@pytest.mark.parametrize("engine", ["columnar_adapter", "rowstore_adapter"])
@pytest.mark.parametrize("sql", HUGE, ids=["eq", "lt", "between"])
def test_profile_on_every_path(request, engine, sql):
    # A small literal first gives the statement-less path a plan to bind
    # the huge one to; a second model profiles it cold.
    warm = request.getfixturevalue(engine).cost_model
    warm.profiler.profile(sql.replace(BIG, "7"))
    bound = warm.profiler.profile(sql)
    cold = type(warm)(warm.schema).profiler
    statement = parse(sql)
    paths = [
        bound,
        cold.profile(sql),
        cold.annotate(sql + " ")[0],
        type(warm)(warm.schema).profiler.profile(sql, statement),
        warm.profiler.annotate(sql)[0],
    ]
    for profile in paths:
        assert 0.0 <= profile.anchor.total_selectivity <= 1.0
    assert paths[0] == paths[1] == paths[3] == paths[4]
    assert paths[2].anchor == paths[0].anchor


def test_range_bound_clamps_to_the_column():
    context = ExperimentContext(ExperimentScale(days=56, queries_per_day=4, legacy_tables=2))
    profiler = context.columnar_adapter().cost_model.profiler
    below, between = (profiler.profile(sql).anchor.total_selectivity for sql in HUGE[1:])
    assert below == between == 1.0
    above = profiler.profile(HUGE[1].replace("<", ">")).anchor.total_selectivity
    assert above == 0.0


SCALE = ExperimentScale(
    days=84,
    window_days=28,
    queries_per_day=6,
    n_samples=3,
    iterations=1,
    seed=2,
    legacy_tables=5,
    max_transitions=1,
    skip_transitions=1,
)


def _with_huge(trace: list[WorkloadQuery]) -> list[WorkloadQuery]:
    """``trace`` with the huge-literal texts repeated in every window."""
    extra = [
        WorkloadQuery(sql, timestamp=day + 0.5)
        for day in range(0, SCALE.days, 7)
        for sql in HUGE
    ]
    return sorted(trace + extra, key=lambda query: query.timestamp)


@pytest.mark.parametrize("engine", ["columnar", "rowstore"])
def test_replay_window_finishes(engine):
    context = ExperimentContext(SCALE)
    context.traces["R1"] = _with_huge(context.trace("R1"))
    result = run_designer_comparison(
        context, "R1", engine=engine, which=["NoDesign", "ExistingDesigner", "CliffGuard"]
    )
    for run in result.runs.values():
        assert len(run.windows) == 1
        assert math.isfinite(run.windows[0].average_ms)


def test_serve_stream_ingests_and_finishes():
    session = RobustDesignSession(
        RunConfig(
            workload="R1", days=70, window_days=14, queries_per_day=4, n_samples=2,
            iterations=1, legacy_tables=5, backend="serial",
        )
    )
    trace = list(session.context.trace("R1"))
    middle = len(trace) // 2
    stamp = trace[middle - 1].timestamp
    trace[middle:middle] = [WorkloadQuery(sql, timestamp=stamp) for sql in HUGE]
    source = QueueSource()
    for query in trace:
        source.put_nowait(query)
    source.close()
    outcome = session.serve(
        ServeConfig(swap_mode="boundary", min_window_queries=4, source=source)
    )
    assert outcome.position == len(trace)
    assert outcome.dropped == 0
    priced = {p.position: p.cost_ms for p in outcome.priced}
    for position in range(middle, middle + len(HUGE)):
        assert priced[position] is not None and math.isfinite(priced[position])
