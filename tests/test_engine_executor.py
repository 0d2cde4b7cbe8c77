"""Executor tests, including comparison against a naive reference evaluator
and the invariant that results are independent of the deployed design."""


import numpy as np
import pytest

from repro.engine.design import PhysicalDesign
from repro.engine.executor import ColumnarExecutor, ExecutionError
from repro.engine.projection import Projection, SortColumn
from repro.engine.storage import ColumnarDatabase
from repro.sql.ast import Aggregate
from repro.sql.parser import parse

# -- a tiny brute-force reference evaluator --------------------------------------


def reference_execute(stmt, data: dict[str, dict[str, np.ndarray]]):
    """Naive row-at-a-time evaluation of the SQL subset (no joins beyond one)."""

    def decode(table, column, value):
        return value

    rows = []
    anchor = data[stmt.table]
    n = next(iter(anchor.values())).shape[0]
    for i in range(n):
        row = {f"{stmt.table}.{k}": v[i] for k, v in anchor.items()}
        row.update({k: v[i] for k, v in anchor.items()})
        rows.append(row)

    for join in stmt.joins:
        dim = data[join.table]
        dim_n = next(iter(dim.values())).shape[0]
        index = {}
        for i in range(dim_n):
            key = dim[join.right.name][i] if join.right.table == join.table else dim[join.left.name][i]
            if key not in index:
                index[key] = i
        joined = []
        anchor_key = join.left.name if join.left.table == stmt.table or join.left.table is None else join.right.name
        for row in rows:
            key = row[anchor_key]
            if key in index:
                i = index[key]
                merged = dict(row)
                for k, v in dim.items():
                    merged[f"{join.table}.{k}"] = v[i]
                joined.append(merged)
        rows = joined

    def col(row, ref):
        if ref.table is not None:
            return row.get(f"{ref.table}.{ref.name}", row.get(ref.name))
        return row.get(ref.name, row.get(f"{stmt.table}.{ref.name}"))

    def passes(row):
        from repro.sql.ast import (
            BetweenPredicate,
            ComparisonPredicate,
            InPredicate,
        )

        for pred in stmt.where:
            value = col(row, pred.column)
            if isinstance(pred, ComparisonPredicate):
                literal = pred.value.value
                ops = {
                    "=": lambda a, b: a == b,
                    "!=": lambda a, b: a != b,
                    "<": lambda a, b: a < b,
                    "<=": lambda a, b: a <= b,
                    ">": lambda a, b: a > b,
                    ">=": lambda a, b: a >= b,
                }
                if not ops[pred.op](value, literal):
                    return False
            elif isinstance(pred, BetweenPredicate):
                if not (pred.low.value <= value <= pred.high.value):
                    return False
            elif isinstance(pred, InPredicate):
                if value not in {v.value for v in pred.values}:
                    return False
            else:  # pragma: no cover - subset used in tests
                raise NotImplementedError
        return True

    rows = [r for r in rows if passes(r)]

    if stmt.has_aggregates or stmt.group_by:
        groups: dict[tuple, list] = {}
        for row in rows:
            key = tuple(col(row, g) for g in stmt.group_by)
            groups.setdefault(key, []).append(row)
        out = []
        for key, members in groups.items():
            result = []
            for item in stmt.select:
                if isinstance(item.expr, Aggregate):
                    agg = item.expr
                    if agg.column is None:
                        result.append(len(members))
                        continue
                    values = [col(r, agg.column) for r in members]
                    if agg.distinct:
                        values = list(set(values))
                    if agg.func == "COUNT":
                        result.append(len(values))
                    elif agg.func == "SUM":
                        result.append(sum(values))
                    elif agg.func == "AVG":
                        result.append(sum(values) / len(values))
                    elif agg.func == "MIN":
                        result.append(min(values))
                    elif agg.func == "MAX":
                        result.append(max(values))
                else:
                    result.append(col(members[0], item.expr))
            out.append(tuple(result))
        return out
    return [tuple(col(r, item.expr) for item in stmt.select) for r in rows]


@pytest.fixture
def database(sales_schema, sales_data):
    return ColumnarDatabase(sales_schema, sales_data)


@pytest.fixture
def executor(database):
    return ColumnarExecutor(database)


def as_multiset(rows):
    """Rows as a sorted list of rounded tuples (summation order varies by
    storage layout, so floats must be compared with tolerance)."""
    return sorted(
        tuple(
            round(float(x), 6) if isinstance(x, (int, float, np.number)) else x
            for x in row
        )
        for row in rows
    )


QUERIES = [
    "SELECT sales.store FROM sales WHERE sales.store = 3",
    "SELECT sales.store, sales.amount FROM sales WHERE sales.day BETWEEN 10 AND 40",
    "SELECT COUNT(*) FROM sales WHERE sales.product = 7",
    "SELECT SUM(sales.amount) FROM sales WHERE sales.store = 1",
    "SELECT sales.store, COUNT(*) FROM sales GROUP BY sales.store",
    "SELECT sales.store, SUM(sales.amount), MIN(sales.day) FROM sales WHERE sales.product < 100 GROUP BY sales.store",
    "SELECT sales.product, AVG(sales.amount) FROM sales WHERE sales.store IN (1, 2, 3) GROUP BY sales.product",
    "SELECT COUNT(DISTINCT sales.store) FROM sales WHERE sales.day < 100",
]


class TestAgainstReference:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_reference(self, executor, sales_data, sql):
        result = executor.execute(sql)
        expected = reference_execute(parse(sql), sales_data)
        got = as_multiset(result.rows)
        want = as_multiset(expected)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w)

    def test_join_matches_reference(self, executor, sales_data):
        sql = (
            "SELECT stores.region, COUNT(*) FROM sales "
            "JOIN stores ON sales.store = stores.store_id "
            "WHERE stores.region = 2 GROUP BY stores.region"
        )
        result = executor.execute(sql)
        expected = reference_execute(parse(sql), sales_data)
        assert as_multiset(result.rows) == pytest.approx(as_multiset(expected))


class TestDesignIndependence:
    """The deployed design must never change query *results*."""

    DESIGNS = [
        PhysicalDesign.empty(),
        PhysicalDesign.of(
            Projection("sales", ("store", "amount"), (SortColumn("store"),))
        ),
        PhysicalDesign.of(
            Projection(
                "sales",
                ("product", "store", "amount", "day"),
                (SortColumn("product"), SortColumn("day")),
            )
        ),
    ]

    @pytest.mark.parametrize("sql", QUERIES[:6])
    def test_results_identical_across_designs(self, executor, sql):
        baseline = as_multiset(executor.execute(sql).rows)
        for design in self.DESIGNS:
            got = as_multiset(executor.execute(sql, design).rows)
            assert got == pytest.approx(baseline), str(design)

    def test_sorted_projection_reduces_rows_scanned(self, executor):
        sql = "SELECT SUM(sales.amount) FROM sales WHERE sales.product = 7"
        design = PhysicalDesign.of(
            Projection("sales", ("product", "amount"), (SortColumn("product"),))
        )
        full = executor.execute(sql)
        fast = executor.execute(sql, design)
        assert fast.stats.rows_scanned < full.stats.rows_scanned
        assert not fast.stats.projection.is_super


class TestOrderingAndLimit:
    def test_order_by_descending(self, executor):
        result = executor.execute(
            "SELECT sales.store, SUM(sales.amount) AS total FROM sales "
            "GROUP BY sales.store ORDER BY total DESC LIMIT 5"
        )
        totals = [row[1] for row in result.rows]
        assert totals == sorted(totals, reverse=True)
        assert len(result.rows) == 5

    def test_order_by_plain_column(self, executor):
        result = executor.execute(
            "SELECT sales.day FROM sales WHERE sales.store = 1 ORDER BY sales.day LIMIT 20"
        )
        days = [row[0] for row in result.rows]
        assert days == sorted(days)

    def test_limit_without_order(self, executor):
        result = executor.execute("SELECT sales.store FROM sales LIMIT 7")
        assert result.row_count == 7


class TestErrors:
    def test_unknown_table(self, executor):
        with pytest.raises((ExecutionError, ValueError)):
            executor.execute("SELECT x FROM nope")

    def test_unknown_column_in_where(self, executor):
        with pytest.raises((ExecutionError, ValueError)):
            executor.execute("SELECT sales.store FROM sales WHERE sales.zzz = 1")

    def test_empty_result_group_by(self, executor):
        result = executor.execute(
            "SELECT sales.store, COUNT(*) FROM sales WHERE sales.day = 99999 GROUP BY sales.store"
        )
        assert result.rows == []
