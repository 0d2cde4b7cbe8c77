"""Bit-identity of the Γ-sampler's AST mutation chain.

The sampler used to mutate SQL *text* — ``parse`` → swap one column →
``format_statement``, once per step of its 1–3-step chain — and weigh
replacement columns with a pure-Python walk over a dict of dicts.  It now
walks the chain on the parsed statement and gathers the weights from a
dense matrix.  Same family as kernel==scalar and warm==cold: the old
implementations are kept *here*, verbatim, as the oracle, and the new
ones must reproduce them exactly — same SQL, same weights with ``==``,
same generator state afterwards.
"""

import dataclasses
import hashlib
import warnings
from functools import lru_cache

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.catalog.schema import Column, Schema, Table
from repro.catalog.types import ColumnType
from repro.sql.analyzer import extract_template
from repro.sql.ast import (
    Aggregate,
    ColumnRef,
    DeleteStatement,
    InsertStatement,
    OrderItem,
    SelectItem,
    SelectStatement,
    UpdateStatement,
)
from repro.sql.formatter import format_statement
from repro.sql.parser import parse
from repro.workload import sampler as sampler_module
from repro.workload.distance import WorkloadDistance
from repro.workload.generator import TraceGenerator, build_star_schema, r1_profile
from repro.workload.query import WorkloadQuery
from repro.workload.sampler import (
    ColumnAffinity,
    NeighborhoodSampler,
    _weighted_draw,
    mutate_query,
)
from repro.workload.windows import split_windows
from repro.workload.workload import Workload
from tests.corpus import small_star, star_trace

# -- the oracle: the text-level chain, as it was before the AST chain ----------------


def reference_weights(counts, table, context_columns, options):
    """The dict-of-dicts ``ColumnAffinity.replacement_weights`` loop."""
    weights = np.ones(len(options), dtype=np.float64)
    if not options:
        return weights
    table_counts = counts.get(table, {})
    for i, option in enumerate(options):
        for context in context_columns:
            weights[i] += table_counts.get(context, {}).get(option, 0.0)
    return weights / weights.sum()


def text_mutate_query(
    sql: str,
    schema: Schema,
    rng: np.random.Generator,
    affinity: ColumnAffinity | None = None,
) -> str | None:
    """The pre-AST ``mutate_query``: parse, swap one column, format."""
    try:
        stmt = parse(sql)
    except ValueError:
        return None
    table = schema.tables.get(stmt.table)
    if table is None:
        return None

    try:
        context_columns = [
            qualified.partition(".")[2] or qualified
            for qualified in extract_template(sql).union
        ]
    except ValueError:
        context_columns = []

    def sibling(name: str) -> str | None:
        options = [c for c in table.column_names if c != name]
        if not options:
            return None
        if affinity is not None:
            context = [c for c in context_columns if c != name]
            weights = reference_weights(affinity.counts, stmt.table, context, options)
            return options[int(rng.choice(len(options), p=weights))]
        return options[int(rng.integers(0, len(options)))]

    def swap_ref(ref: ColumnRef) -> ColumnRef | None:
        if ref.table is not None and ref.table != stmt.table:
            return None  # only mutate anchor-table references
        replacement = sibling(ref.name)
        if replacement is None:
            return None
        return ColumnRef(replacement, ref.table)

    if isinstance(stmt, (InsertStatement, UpdateStatement, DeleteStatement)):
        return text_mutate_write(stmt, rng, swap_ref)

    # Collect mutation sites: (kind, position) pairs.  Select-list and
    # grouping sites are weighted up (entered twice) because analytical
    # drift changes the measures and breakdowns far more often than the
    # sticky business-key filters.
    sites: list[tuple[str, int]] = []
    for i, item in enumerate(stmt.select):
        if isinstance(item.expr, ColumnRef) or (
            isinstance(item.expr, Aggregate) and item.expr.column is not None
        ):
            sites.append(("select", i))
            sites.append(("select", i))
    sites.extend(("where", i) for i in range(len(stmt.where)))
    for i in range(len(stmt.group_by)):
        sites.append(("group", i))
        sites.append(("group", i))
    sites.extend(("order", i) for i in range(len(stmt.order_by)))
    if not sites:
        return None

    kind, pos = sites[int(rng.integers(0, len(sites)))]
    if kind == "select":
        item = stmt.select[pos]
        if isinstance(item.expr, Aggregate):
            new_ref = swap_ref(item.expr.column)
            if new_ref is None:
                return None
            new_expr: ColumnRef | Aggregate = dataclasses.replace(
                item.expr, column=new_ref
            )
        else:
            new_ref = swap_ref(item.expr)
            if new_ref is None:
                return None
            new_expr = new_ref
        select = list(stmt.select)
        select[pos] = SelectItem(expr=new_expr, alias=item.alias)
        stmt = dataclasses.replace(stmt, select=tuple(select))
    elif kind == "where":
        pred = stmt.where[pos]
        new_ref = swap_ref(pred.column)
        if new_ref is None:
            return None
        where = list(stmt.where)
        where[pos] = dataclasses.replace(pred, column=new_ref)
        stmt = dataclasses.replace(stmt, where=tuple(where))
    elif kind == "group":
        new_ref = swap_ref(stmt.group_by[pos])
        if new_ref is None:
            return None
        group = list(stmt.group_by)
        group[pos] = new_ref
        stmt = dataclasses.replace(stmt, group_by=tuple(group))
    else:
        item = stmt.order_by[pos]
        new_ref = swap_ref(item.column)
        if new_ref is None:
            return None
        order = list(stmt.order_by)
        order[pos] = OrderItem(column=new_ref, ascending=item.ascending)
        stmt = dataclasses.replace(stmt, order_by=tuple(order))
    return format_statement(stmt)


def text_mutate_write(stmt, rng: np.random.Generator, swap_ref):
    """The pre-AST ``_mutate_write``."""
    if isinstance(stmt, InsertStatement):
        taken = {c.name for c in stmt.columns}
        pos = int(rng.integers(0, len(stmt.columns)))
        new_ref = swap_ref(stmt.columns[pos])
        if new_ref is None or new_ref.name in taken:
            return None
        columns = list(stmt.columns)
        columns[pos] = new_ref
        return format_statement(dataclasses.replace(stmt, columns=tuple(columns)))
    sites: list[tuple[str, int]] = []
    if isinstance(stmt, UpdateStatement):
        for i in range(len(stmt.assignments)):
            sites.append(("set", i))
            sites.append(("set", i))
    sites.extend(("where", i) for i in range(len(stmt.where)))
    if not sites:
        return None
    kind, pos = sites[int(rng.integers(0, len(sites)))]
    if kind == "set":
        taken = {a.column.name for a in stmt.assignments}
        assignment = stmt.assignments[pos]
        new_ref = swap_ref(assignment.column)
        if new_ref is None or new_ref.name in taken:
            return None
        assignments = list(stmt.assignments)
        assignments[pos] = dataclasses.replace(assignment, column=new_ref)
        stmt = dataclasses.replace(stmt, assignments=tuple(assignments))
    else:
        pred = stmt.where[pos]
        new_ref = swap_ref(pred.column)
        if new_ref is None:
            return None
        where = list(stmt.where)
        where[pos] = dataclasses.replace(pred, column=new_ref)
        stmt = dataclasses.replace(stmt, where=tuple(where))
    return format_statement(stmt)


# -- fixtures: the tiny R1 (read-only) and HTAP (70/30 read/write) traces ------------


@dataclasses.dataclass(frozen=True)
class Environment:
    schema: Schema
    distance: WorkloadDistance
    base: Workload
    pool: list[WorkloadQuery]
    #: Distinct SQL of the whole trace: what the chain property mutates.
    sources: list[str]
    affinity: ColumnAffinity


@lru_cache(maxsize=None)
def environment(family: str) -> Environment:
    if family == "r1":  # the conftest ``tiny_star`` / ``tiny_trace`` sizes
        schema, roles = build_star_schema(
            fact_tables=2, fact_rows=1_000_000, fact_attributes=12,
            legacy_tables=5, legacy_columns=4, seed=3,
        )
        profile = r1_profile(queries_per_day=8, topic_count=3, templates_per_topic=4)
        trace = TraceGenerator(schema, roles, profile, seed=5).generate(days=70)
    else:  # htap, and ecommerce (insert / update / delete at 25 / 10 / 5 %)
        schema = small_star()[0]
        trace = list(star_trace(family, queries_per_day=8, days=70))
    base = split_windows(trace, 28)[1]
    affinity = ColumnAffinity()
    affinity.observe(trace)
    return Environment(
        schema=schema,
        distance=WorkloadDistance(schema.total_columns),
        base=base,
        pool=[q for q in trace if q.timestamp < base.span_days[0]],
        sources=list(dict.fromkeys(q.sql for q in trace)),
        affinity=affinity,
    )


def test_sources_cover_every_statement_shape():
    """The chain property below is only as good as what it draws from."""
    shapes = set()
    for family in ("r1", "htap"):
        for sql in environment(family).sources:
            stmt = parse(sql)
            shapes.add(type(stmt))
            if isinstance(stmt, SelectStatement) and stmt.joins:
                shapes.add("join")
    assert shapes == {
        SelectStatement, InsertStatement, UpdateStatement, DeleteStatement, "join"
    }


# -- (a) AST chain == text chain -----------------------------------------------------


@given(
    family=st.sampled_from(["r1", "htap", "ecommerce"]),
    source=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 3),
    with_affinity=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_ast_chain_equals_text_chain(family, source, seed, depth, with_affinity):
    env = environment(family)
    sql = env.sources[source % len(env.sources)]
    affinity = env.affinity if with_affinity else None
    ast_rng, text_rng = np.random.default_rng(seed), np.random.default_rng(seed)

    stmt = parse(sql)
    for _ in range(depth):
        stmt = mutate_query(stmt, env.schema, ast_rng, affinity)
        if stmt is None:
            break
    text = sql
    for _ in range(depth):
        text = text_mutate_query(text, env.schema, text_rng, affinity)
        if text is None:
            break

    assert (None if stmt is None else format_statement(stmt)) == text
    assert ast_rng.bit_generator.state == text_rng.bit_generator.state


@given(
    family=st.sampled_from(["r1", "htap", "ecommerce"]),
    source=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_text_entry_equals_text_oracle(family, source, seed):
    """SQL text in → SQL text out is still the public contract."""
    env = environment(family)
    sql = env.sources[source % len(env.sources)]
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert mutate_query(sql, env.schema, new_rng, env.affinity) == text_mutate_query(
        sql, env.schema, old_rng, env.affinity
    )
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


# -- (b) golden neighborhoods ----------------------------------------------------------
#
# Recorded on the shared-pool stream: ``sample`` draws every α first and
# builds one candidate pool per call.  The chain oracles above and
# ``tests/test_sampler_chain_state.py`` pin the per-step draws, which that
# change left alone.


def neighborhood_digest(samples) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for workload in samples:
        for query in workload:
            digest.update(f"{query.sql}\x00{query.frequency!r}\n".encode())
        digest.update(b"\x01")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "family,gamma,expected",
    [
        ("r1", 0.004, "0db325655fd03f3d"),
        ("r1", 0.02, "09946ec772fcdac0"),
        ("htap", 0.004, "18d593b778aa03f2"),
        ("htap", 0.02, "7301c2e011d39c5b"),
    ],
)
def test_sample_reproduces_recorded_neighborhood(family, gamma, expected):
    env = environment(family)
    sampler = NeighborhoodSampler(env.distance, env.schema, pool=env.pool, seed=7)
    samples = sampler.sample(env.base, gamma, 8)
    assert any(len(sample) > len(env.base) for sample in samples)
    assert neighborhood_digest(samples) == expected


def stream_position(rng: np.random.Generator) -> tuple[int, int, int]:
    """Where the generator stands: the PCG64 state word plus the buffered
    32-bit half that ``rng.integers`` leaves behind (``inc`` is the seed's)."""
    state = rng.bit_generator.state
    return state["state"]["state"], state["has_uint32"], state["uinteger"]


@pytest.mark.parametrize(
    "family,gamma,expected,position",
    [  # recorded on the shared-pool stream: every α first, one pool per sample()
        ("r1", 0.004, "0db325655fd03f3d",
         (314058383447061125932130095914481240764, 0, 2738611214)),
        ("r1", 0.02, "09946ec772fcdac0",
         (73727049190630416560697137673262581177, 0, 2738611214)),
        ("htap", 0.004, "18d593b778aa03f2",
         (27117476466281060851184295248800685816, 0, 270691851)),
        ("htap", 0.02, "7301c2e011d39c5b",
         (262858591467580140566095224430164665419, 0, 270691851)),
        ("ecommerce", 0.004, "1395e71c86e7e451",
         (210162661732873142287366594960034722153, 1, 1837420993)),
        ("ecommerce", 0.02, "bb97041767e9a9f8",
         (136838801214013947528379908908710044616, 1, 1837420993)),
    ],
)
def test_sample_leaves_the_generator_where_it_was_recorded(
    family, gamma, expected, position
):
    """The digests above see texts and frequencies; a draw added or dropped
    *after* the last pick would pass them and shift every later design."""
    env = environment(family)
    sampler = NeighborhoodSampler(env.distance, env.schema, pool=env.pool, seed=7)
    samples = sampler.sample(env.base, gamma, 8)
    assert any(len(sample) > len(env.base) for sample in samples)
    assert neighborhood_digest(samples) == expected
    assert stream_position(sampler.rng) == position


# -- (c) dense replacement weights == the dict loop, with ``==`` ----------------------


def affinity_of(*column_sets: tuple[str, ...]) -> ColumnAffinity:
    affinity = ColumnAffinity()
    affinity.observe(
        WorkloadQuery(sql=f"SELECT {', '.join(columns)} FROM t") for columns in column_sets
    )
    return affinity


def assert_dense_equals_reference(affinity, table, context, options):
    dense = affinity.replacement_weights(table, context, options)
    reference = reference_weights(affinity.counts, table, context, options)
    assert dense.dtype == reference.dtype
    assert dense.tolist() == reference.tolist()


class TestDenseReplacementWeights:
    def test_observed_tables(self):
        for family in ("r1", "htap"):
            env = environment(family)
            for name, table in env.schema.tables.items():
                columns = table.column_names
                for width in (0, 1, 3, len(columns)):
                    assert_dense_equals_reference(
                        env.affinity, name, columns[:width], columns[1:]
                    )

    def test_context_column_absent_from_counts(self):
        affinity = affinity_of(("t.a", "t.b"), ("t.a", "t.c"))
        assert_dense_equals_reference(affinity, "t", ["a", "never_seen"], ["b", "c"])

    def test_joined_dimension_column_name(self):
        """A join puts another table's column names into the context."""
        affinity = ColumnAffinity()
        affinity.observe([
            WorkloadQuery(sql="SELECT t.a, d.region FROM t JOIN d ON t.k = d.k WHERE t.b = 1"),
            WorkloadQuery(sql="SELECT d.region, d.k FROM d"),
        ])
        assert_dense_equals_reference(affinity, "t", ["region", "k", "b"], ["a", "b", "c"])
        assert_dense_equals_reference(affinity, "d", ["a", "k"], ["region", "k"])

    def test_repeated_context_column_counts_twice(self):
        affinity = affinity_of(("t.a", "t.b"))
        assert_dense_equals_reference(affinity, "t", ["a", "a"], ["b", "c"])

    def test_option_never_observed(self):
        affinity = affinity_of(("t.a", "t.b"))
        assert_dense_equals_reference(affinity, "t", ["a"], ["b", "unobserved"])

    def test_table_never_observed(self):
        assert_dense_equals_reference(affinity_of(("t.a", "t.b")), "u", ["a"], ["b", "c"])

    def test_single_column_table_has_no_options(self):
        affinity = affinity_of(("t.a",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 0/0 would be a RuntimeWarning
            assert_dense_equals_reference(affinity, "t", ["a"], [])
            assert affinity.replacement_weights("t", ["a"], []).shape == (0,)

    def test_observe_after_a_dense_build_invalidates_it(self):
        affinity = affinity_of(("t.a", "t.b"))
        before = affinity.replacement_weights("t", ["a"], ["b", "c"])
        affinity.observe([WorkloadQuery(sql="SELECT t.a, t.c, t.d FROM t")])
        after = affinity.replacement_weights("t", ["a"], ["b", "c"])
        assert before.tolist() != after.tolist()
        assert_dense_equals_reference(affinity, "t", ["a"], ["b", "c"])
        assert_dense_equals_reference(affinity, "t", ["d"], ["a", "b", "c"])


# -- (e) the inline draw == ``Generator.choice``; a masked column == a deleted one -----


@given(
    counts=st.lists(st.integers(0, 40), min_size=1, max_size=70),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_weighted_draw_is_generator_choice(counts, seed):
    """``_weighted_draw`` spells out what ``Generator.choice(n, p=...)`` does
    with one uniform.  A numpy release that changes ``choice`` fails here, by
    name, before any golden does."""
    weights = np.array(counts, dtype=np.float64) + 1.0
    inline_rng, choice_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        expected = int(choice_rng.choice(len(weights), p=weights / weights.sum()))
        assert _weighted_draw(inline_rng, weights) == expected
        assert inline_rng.bit_generator.state == choice_rng.bit_generator.state


@given(
    width=st.integers(2, 9),
    swapped=st.integers(0, 8),
    observed=st.lists(st.lists(st.integers(0, 8), min_size=2, max_size=4), max_size=6),
    seed=st.integers(0, 2**32 - 1),
    with_affinity=st.booleans(),
)
@example(width=2, swapped=0, observed=[[0, 1]], seed=0, with_affinity=True)
@example(width=2, swapped=1, observed=[], seed=1, with_affinity=True)
@example(width=5, swapped=0, observed=[[0, 1, 2], [0, 4]], seed=2, with_affinity=True)
@example(width=5, swapped=4, observed=[[3, 4], [0, 4]], seed=3, with_affinity=True)
@example(width=2, swapped=1, observed=[], seed=4, with_affinity=False)
@settings(max_examples=200, deadline=None)
def test_masking_the_swapped_column_equals_deleting_it(
    width, swapped, observed, seed, with_affinity
):
    """The chain keeps the swapped-out column in its slot at weight 0 (or
    skips over it); the oracle deletes it from the options.  Same name, same
    generator state — first column, last column, two-column table included."""
    swapped %= width
    table = Table("t", [Column(f"c{i}", ColumnType.INT) for i in range(width)])
    schema = Schema({"t": table})
    affinity = ColumnAffinity()
    affinity.observe(
        WorkloadQuery(sql="SELECT " + ", ".join(f"t.c{i % width}" for i in columns) + " FROM t")
        for columns in observed
    )
    other = (swapped + 1) % width
    sql = f"SELECT t.c{other} FROM t WHERE t.c{swapped} = 1 ORDER BY t.c{swapped}"
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):  # four draws of the site: every clause gets swapped
        assert mutate_query(
            sql, schema, new_rng, affinity if with_affinity else None
        ) == text_mutate_query(sql, schema, old_rng, affinity if with_affinity else None)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.parametrize("sql", ["SELECT t.only FROM t", "SELECT t.ghost FROM t"])
def test_no_sibling_draws_only_the_site_and_an_unknown_column_masks_nothing(sql):
    """A single-column table offers ``t.only`` no replacement (``None``, no
    second draw); a column the table does not define leaves every column an
    option."""
    schema = Schema({"t": Table("t", [Column("only", ColumnType.INT)])})
    new_rng, old_rng = np.random.default_rng(5), np.random.default_rng(5)
    for affinity in (None, ColumnAffinity()):
        expected = text_mutate_query(sql, schema, old_rng, affinity)
        assert mutate_query(sql, schema, new_rng, affinity) == expected
        assert (expected is None) == ("only" in sql)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


# -- (d) sample_at alone == the same call through sample() ----------------------------


@pytest.mark.parametrize("family", ["r1", "htap"])
def test_sample_at_alone_equals_sample_of_one(family):
    env = environment(family)
    gamma = 0.01
    through_sample = NeighborhoodSampler(env.distance, env.schema, pool=env.pool, seed=11)
    alone = NeighborhoodSampler(env.distance, env.schema, pool=env.pool, seed=11)
    (expected,) = through_sample.sample(env.base, gamma, 1)
    # sample() draws α first, then hands the rest of the stream to the sample.
    alpha = float(alone.rng.uniform(0.0, gamma))
    actual = alone.sample_at(env.base, alpha)
    assert [(q.sql, q.frequency) for q in actual] == [
        (q.sql, q.frequency) for q in expected
    ]
    assert len(actual) > len(env.base)
    assert alone.rng.bit_generator.state == through_sample.rng.bit_generator.state


# -- (e) one candidate pool per sample() ----------------------------------------------


@pytest.mark.parametrize("family", ["r1", "htap"])
@pytest.mark.parametrize("count", [1, 8, 20])
def test_sample_runs_the_mutation_chains_once(monkeypatch, family, count):
    """Every sample of one call picks from one pool: at most
    ``MUTATION_CHAINS`` chains of at most 3 steps, whatever ``count``."""
    env = environment(family)
    steps = []
    original = sampler_module.mutate_query

    def counted(*args, **kwargs):
        steps.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(sampler_module, "mutate_query", counted)
    sampler = NeighborhoodSampler(env.distance, env.schema, pool=env.pool, seed=7)
    samples = sampler.sample(env.base, 0.02, count)
    assert len(samples) == count
    assert any(len(sample) > len(env.base) for sample in samples)
    assert 0 < len(steps) <= 3 * sampler_module.MUTATION_CHAINS


def test_sample_of_none_leaves_the_generator_untouched():
    env = environment("r1")
    sampler = NeighborhoodSampler(env.distance, env.schema, pool=env.pool, seed=7)
    before = sampler.rng.bit_generator.state
    assert sampler.sample(env.base, 0.02, 0) == []
    assert sampler.rng.bit_generator.state == before


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
def test_sample_at_rejects_a_non_finite_or_negative_alpha(alpha):
    """``math.floor`` raised on a NaN α deep in the probe loop, and an
    infinite α silently returned the base."""
    env = environment("r1")
    sampler = NeighborhoodSampler(env.distance, env.schema, pool=env.pool, seed=7)
    before = sampler.rng.bit_generator.state
    with pytest.raises(ValueError, match="alpha"):
        sampler.sample_at(env.base, alpha)
    assert sampler.rng.bit_generator.state == before


# -- (f) a caller's statements: lent for the base, filled with the picks --------------


@pytest.mark.parametrize("family", ["r1", "htap"])
def test_statements_hand_off_leaves_the_neighborhood_alone(family):
    """CliffGuard lends ``sample`` the base statements it parsed and takes
    back the statement of each mutation in a returned sample: every one
    equals the parse of its text, and the samples and the generator are
    those of a call without it."""
    env = environment(family)
    plain = NeighborhoodSampler(env.distance, env.schema, pool=env.pool, seed=7)
    lent = NeighborhoodSampler(env.distance, env.schema, pool=env.pool, seed=7)
    expected = plain.sample(env.base, 0.02, 8)
    statements = {query.sql: parse(query.sql) for query in env.base}
    base_texts = set(statements)
    actual = lent.sample(env.base, 0.02, 8, statements=statements)
    assert neighborhood_digest(actual) == neighborhood_digest(expected)
    assert lent.rng.bit_generator.state == plain.rng.bit_generator.state
    pool_texts = {query.sql for query in env.pool}
    mutations = {query.sql for sample in actual for query in sample} - base_texts - pool_texts
    picked = set(statements) - base_texts
    assert picked and picked == mutations
    for sql in picked:
        assert statements[sql] == parse(sql)
