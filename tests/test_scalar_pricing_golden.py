"""The scalar cost models, frozen: prices, canonical orders and pickles.

``query_cost`` on the columnar and row-store models is the
readable definition of ``f`` and the oracle the kernel is held to, so its
output must not move when its bookkeeping does.  This module pins three
things:

* the ``repr`` of every price of the seed-1 ECOMMERCE, R1 and HTAP trace
  queries (plus copies of them that carry two predicates on one column)
  under five designs per substrate — empty, nominal on three trace
  windows, and nominal on the duplicate-predicate queries — as one digest
  per substrate, recorded before the designs indexed their tables;
* that the per-table orders the models walk (``for_table``,
  ``indices_for``, ``views_for``) equal a sort of a fresh filter over the
  design's frozenset, on every call;
* that pricing leaves nothing in a pickle: a design, its structures and a
  profile dump to the same bytes before and after they were priced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designers.base import ColumnarAdapter, RowstoreAdapter
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.design import PhysicalDesign
from repro.engine.optimizer import ColumnarCostModel
from repro.engine.projection import Projection, SortColumn
from repro.harness.experiments import ExperimentContext, ExperimentScale
from repro.rowstore.design import RowstoreDesign
from repro.rowstore.index import Index
from repro.rowstore.matview import MaterializedView
from repro.rowstore.optimizer import RowstoreCostModel
from repro.sql.ast import BetweenPredicate, ComparisonPredicate, InPredicate, Literal
from repro.sql.formatter import format_statement
from repro.sql.parser import parse
from repro.workload.workload import Workload

FAMILIES = ("ECOMMERCE", "R1", "HTAP")

#: (cost model, adapter, nominal designer) per substrate.
SUBSTRATES = {
    "columnar": (ColumnarCostModel, ColumnarAdapter, ColumnarNominalDesigner),
    "rowstore": (RowstoreCostModel, RowstoreAdapter, RowstoreNominalDesigner),
}

#: Digests of the five designs' structure DDL, then of every price.
DESIGN_DIGESTS = {
    "columnar": "596cde1d82005557ba977e0904343a8c",
    "rowstore": "db423a3b26601ba70d12a92130d0028c",
}
PRICE_DIGESTS = {
    "columnar": "bbc54458b9b6b664108f548dc34b5d12",
    "rowstore": "925a4652216c6573ce15097790aca5e4",
}
QUERY_COUNT = 3_605


@lru_cache(maxsize=None)
def context() -> ExperimentContext:
    return ExperimentContext(
        ExperimentScale(days=56, queries_per_day=12, seed=1, legacy_tables=8)
    )


def _duplicated(sql: str) -> str | None:
    """``sql`` with a second predicate on every filtered column: ``=``
    gains an ``IN`` and ``BETWEEN`` gains an ``=`` on its low end and a
    ``<`` on its high end, so one column carries two equality or an
    equality and two range selectivities."""
    stmt = parse(sql)
    where = getattr(stmt, "where", ())
    extra = []
    for pred in where:
        if isinstance(pred, ComparisonPredicate) and pred.op == "=":
            extra.append(InPredicate(pred.column, (pred.value, Literal(pred.value.value + 3))))
        elif isinstance(pred, BetweenPredicate):
            extra.append(ComparisonPredicate(pred.column, "=", pred.low))
            extra.append(ComparisonPredicate(pred.column, "<", pred.high))
    if not extra:
        return None
    return format_statement(dataclasses.replace(stmt, where=where + tuple(extra)))


@lru_cache(maxsize=None)
def queries() -> tuple[str, ...]:
    """Every distinct trace statement, then its duplicate-predicate copy."""
    traced = []
    for family in FAMILIES:
        traced.extend(query.sql for query in context().trace(family))
    traced = list(dict.fromkeys(traced))
    duplicated = [dup for dup in map(_duplicated, traced) if dup is not None]
    return tuple(dict.fromkeys(traced + duplicated))


@lru_cache(maxsize=None)
def stack(substrate: str):
    """``(adapter, [five designs])`` for one substrate."""
    model_cls, adapter_cls, nominal_cls = SUBSTRATES[substrate]
    ctx = context()
    adapter = adapter_cls(model_cls(ctx.schema))
    nominal = nominal_cls(adapter)
    duplicated = [sql for sql in queries() if sql.count(" AND ") > 2 and "IN (" in sql]
    windows = [
        ctx.trace_windows("R1")[0],
        ctx.trace_windows("ECOMMERCE")[1],
        ctx.trace_windows("HTAP")[0],
        Workload.from_sql(duplicated[::3]),
    ]
    designs = [adapter.empty_design()] + [nominal.design(window) for window in windows]
    return adapter, designs


def _digest(parts) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def test_query_count():
    assert len(queries()) == QUERY_COUNT


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
def test_designs_unchanged(substrate):
    _, designs = stack(substrate)
    assert all(len(design) for design in designs[1:])
    parts = []
    for design in designs:
        parts.extend(sorted(structure.to_sql() for structure in design))
        parts.append("--")
    assert _digest(parts) == DESIGN_DIGESTS[substrate]


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
def test_scalar_prices_unchanged(substrate):
    adapter, designs = stack(substrate)
    model = adapter.cost_model
    profiles = [model.profile(sql) for sql in queries()]
    parts = [
        repr(model.query_cost(profile, design))
        for design in designs
        for profile in profiles
    ]
    assert _digest(parts) == PRICE_DIGESTS[substrate]


# -- canonical per-table order ------------------------------------------------------

TABLES = ("t", "u", "v")
COLUMNS = ("a", "b", "c", "d", "e")

column_tuples = st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=4, unique=True).map(
    tuple
)


@st.composite
def projections(draw):
    columns = draw(column_tuples)
    sort_names = draw(st.lists(st.sampled_from(columns), max_size=len(columns), unique=True))
    sort_columns = tuple(SortColumn(name, draw(st.booleans())) for name in sort_names)
    return Projection(draw(st.sampled_from(TABLES)), columns, sort_columns)


@st.composite
def views(draw):
    groups = draw(column_tuples)
    rest = [c for c in COLUMNS if c not in groups]
    measures = draw(st.lists(st.sampled_from(rest), max_size=len(rest), unique=True)) if rest else []
    return MaterializedView(draw(st.sampled_from(TABLES)), groups, tuple(measures))


indices = st.builds(Index, st.sampled_from(TABLES), column_tuples)


def _old_order(structures, table, key):
    return sorted((s for s in structures if s.table == table), key=key)


@settings(max_examples=150, deadline=None)
@given(st.frozensets(projections(), max_size=12))
def test_for_table_is_the_sorted_filter(members):
    design = PhysicalDesign(members)
    for table in TABLES + ("missing",):
        expected = _old_order(members, table, lambda p: (p.columns, p.sort_key))
        assert design.for_table(table) == expected
        assert design.for_table(table) == expected


@settings(max_examples=150, deadline=None)
@given(st.frozensets(indices, max_size=10), st.frozensets(views(), max_size=10))
def test_indices_and_views_for_are_the_sorted_filters(index_set, view_set):
    design = RowstoreDesign(index_set, view_set)
    for table in TABLES + ("missing",):
        expected_indices = _old_order(index_set, table, lambda i: i.columns)
        expected_views = _old_order(
            view_set, table, lambda v: (v.group_columns, v.measure_columns)
        )
        for _ in range(2):
            assert design.indices_for(table) == expected_indices
            assert design.views_for(table) == expected_views


# -- pricing leaves no trace in a pickle ------------------------------------------------


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
def test_pickles_are_unchanged_by_pricing(substrate):
    adapter, designs = stack(substrate)
    model = adapter.cost_model
    # Objects rebuilt from their fields alone, so nothing priced them yet
    # (the stack's own designs were priced by the digest test).
    design = adapter.make_design(dataclasses.replace(s) for s in designs[2])
    structures = list(design)
    assert design == designs[2]
    profile = model.profile(queries()[5])
    before = [pickle.dumps(obj) for obj in (design, *structures, profile)]
    for sql in queries():
        priced = model.profile(sql)
        model.query_cost(priced, design)
        for structure in structures:
            adapter.structure_cost(priced, structure)
            if priced.is_write:
                model.write_touches(priced, structure)
    after = [pickle.dumps(obj) for obj in (design, *structures, profile)]
    assert after == before
    restored = pickle.loads(after[0])
    assert restored == design
    assert [model.query_cost(model.profile(sql), restored) for sql in queries()[:200]] == [
        model.query_cost(model.profile(sql), design) for sql in queries()[:200]
    ]
