"""Drifting OLAP trace generators (the paper's R1 / S1 / S2 workloads).

The paper's R1 is a proprietary 430K-query, 12-month trace from a Vertica
customer with 310 tables.  We rebuild its *published statistics* over a
wide synthetic star schema:

* **Template-sharing decay** (Figure 5): ≈51% of query mass shared between
  consecutive 7-day windows, ≈35% for 28-day windows, <10% beyond ~2.5
  months.  Drift is implemented as *template mutation*: a live template
  dies and is replaced by a copy with one or two columns swapped — which is
  how real analytical queries actually evolve.
* **Small δ between consecutive windows** (Table 1: ~1e-4…3e-3): mutation
  drift moves query mass between templates that are *similar* (Hamming
  distance 1–2 columns), and the schema is wide (hundreds of columns), so
  the similarity matrix entries — Hamming / 2n — are small.  Both effects
  are properties of the real trace the paper highlights.
* A topic mixture whose weights follow a random walk (with occasional
  bursts for R1) adds frequency drift between unrelated templates.

``S1`` dials churn and mixture drift to near zero (the paper's static
workload); ``S2`` uses constant, uniform drift spanning the same δ range
as R1 (the paper's uniformly drifting workload).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.types import ColumnType
from repro.workload.query import WorkloadQuery

# -- the star schema -----------------------------------------------------------


@dataclass
class StarRoles:
    """Column roles for one fact table's query templates."""

    fact: str
    measures: list[str]  # aggregation targets
    eq_columns: list[str]  # low-cardinality: equality filters, grouping
    range_columns: list[str]  # orderable, higher-cardinality: range filters
    dimensions: dict[str, tuple[str, str]]  # dim table -> (fact fk, dim key)
    dim_eq_columns: dict[str, list[str]]  # dim table -> filter/group columns


@dataclass
class WorkloadRoles:
    """Roles across the whole schema: one :class:`StarRoles` per fact table.

    The paper's customer ran analytics over hundreds of tables; spreading
    the workload over several fact tables also keeps each projection small
    relative to the storage budget, as it was on the real system.
    """

    facts: list[StarRoles]
    dimensions: dict[str, tuple[str, str]]
    dim_eq_columns: dict[str, list[str]]

    @property
    def primary(self) -> StarRoles:
        return self.facts[0]

    # Convenience delegation so single-fact call sites keep working.
    @property
    def fact(self) -> str:
        return self.primary.fact

    @property
    def measures(self) -> list[str]:
        return self.primary.measures

    @property
    def eq_columns(self) -> list[str]:
        return self.primary.eq_columns

    @property
    def range_columns(self) -> list[str]:
        return self.primary.range_columns


def build_star_schema(
    fact_tables: int = 8,
    fact_rows: int = 12_000_000,
    fact_attributes: int = 48,
    legacy_tables: int = 150,
    legacy_columns: int = 28,
    seed: int = 7,
) -> tuple[Schema, WorkloadRoles]:
    """A wide retail-style multi-fact star schema plus legacy tables.

    The width matters twice: the paper's R1 customer schema had **310
    tables**, and (a) the tiny δ values in its Table 1 (1e-4…3e-3) are a
    direct consequence of the ``/ 2n`` normalization over a very wide
    column universe most of which the live workload never touches — the
    ``legacy_tables`` play that role; (b) each projection/index covers a
    small slice of the total data, so a one-third-of-data budget buys many
    structures — the multiple ``fact_tables`` play that role.
    """
    rng = np.random.default_rng(seed)
    schema = Schema()

    dimensions: dict[str, tuple[str, str]] = {}
    dim_eq: dict[str, list[str]] = {}

    def add_dimension(name: str, key: str, rows: int, attributes: int, prefix: str) -> None:
        columns = [Column(key, ColumnType.INT, ndv=rows)]
        filters: list[str] = []
        for i in range(attributes):
            column_name = f"{prefix}_{i:02d}"
            ndv = int(rng.integers(3, 100))
            columns.append(Column(column_name, ColumnType.INT, ndv=ndv, skew=0.4))
            filters.append(column_name)
        schema.add_table(Table(name, columns, row_count=rows))
        dimensions[name] = (key, key)
        dim_eq[name] = filters

    add_dimension("dim_customer", "customer_id", 1_000_000, 30, "c")
    add_dimension("dim_product", "product_id", 50_000, 30, "p")
    add_dimension("dim_store", "store_id", 500, 15, "s")
    add_dimension("dim_date", "date_id", 3_650, 10, "d")

    facts: list[StarRoles] = []
    for f in range(fact_tables):
        fact_name = f"fact_{f:02d}"
        fact_columns: list[Column] = [
            Column("customer_id", ColumnType.INT, ndv=1_000_000),
            Column("product_id", ColumnType.INT, ndv=50_000),
            Column("store_id", ColumnType.INT, ndv=500),
            Column("date_id", ColumnType.DATE, ndv=3_650),
        ]
        measures: list[str] = []
        for i in range(10):
            name = f"m_{i:02d}"
            measures.append(name)
            fact_columns.append(Column(name, ColumnType.FLOAT, ndv=100_000))
        eq_columns: list[str] = ["store_id"]
        range_columns: list[str] = ["date_id"]
        for i in range(fact_attributes):
            name = f"attr_{i:02d}"
            if i % 3 == 0:
                ndv = int(rng.integers(4, 64))
                fact_columns.append(Column(name, ColumnType.INT, ndv=ndv, skew=0.5))
                eq_columns.append(name)
            elif i % 3 == 1:
                ndv = int(rng.integers(200, 5_000))
                fact_columns.append(Column(name, ColumnType.INT, ndv=ndv))
                range_columns.append(name)
            else:
                ndv = int(rng.integers(64, 512))
                fact_columns.append(Column(name, ColumnType.INT, ndv=ndv, skew=0.8))
                eq_columns.append(name)
        schema.add_table(
            Table(
                fact_name,
                fact_columns,
                row_count=fact_rows,
                foreign_keys=[
                    ForeignKey("customer_id", "dim_customer", "customer_id"),
                    ForeignKey("product_id", "dim_product", "product_id"),
                    ForeignKey("store_id", "dim_store", "store_id"),
                    ForeignKey("date_id", "dim_date", "date_id"),
                ],
            )
        )
        facts.append(
            StarRoles(
                fact=fact_name,
                measures=measures,
                eq_columns=eq_columns,
                range_columns=range_columns,
                dimensions=dimensions,
                dim_eq_columns=dim_eq,
            )
        )

    # The legacy long tail: tables that exist in the catalog (and widen the
    # column universe the distance metric normalizes over) but are not part
    # of the live analytical workload.
    for t in range(legacy_tables):
        columns = [
            Column(f"lg{t:03d}_c{i:02d}", ColumnType.INT, ndv=100)
            for i in range(legacy_columns)
        ]
        schema.add_table(Table(f"legacy_{t:03d}", columns, row_count=1_000))

    return schema, WorkloadRoles(
        facts=facts, dimensions=dimensions, dim_eq_columns=dim_eq
    )


# -- template specs ----------------------------------------------------------------


@dataclass(frozen=True)
class TemplateSpec:
    """A query shape: which columns play which roles.

    Literals are sampled at emission time; two emissions of the same spec
    share a template (the paper strips literals when templating).
    """

    measures: tuple[str, ...]
    eq_filters: tuple[str, ...]
    range_filters: tuple[str, ...]
    group_by: tuple[str, ...]
    order_by: str | None
    join_dim: str | None
    dim_filter: str | None
    dim_group: str | None

    def instantiate(
        self, roles: StarRoles, schema: Schema, rng: np.random.Generator
    ) -> str:
        """Render one concrete SQL query from this spec."""
        fact = roles.fact
        table = schema.table(fact)
        select_parts: list[str] = []
        group_cols: list[str] = [f"{fact}.{c}" for c in self.group_by]
        if self.join_dim and self.dim_group:
            group_cols.append(f"{self.join_dim}.{self.dim_group}")
        select_parts.extend(group_cols)
        for i, measure in enumerate(self.measures):
            func = ("SUM", "AVG", "MIN", "MAX")[i % 4]
            select_parts.append(f"{func}({fact}.{measure}) AS agg_{i}")
        if not select_parts:
            select_parts.append("COUNT(*)")

        where_parts: list[str] = []
        for name in self.eq_filters:
            ndv = table.column(name).ndv
            value = int(rng.integers(0, max(ndv, 1)))
            where_parts.append(f"{fact}.{name} = {value}")
        for name in self.range_filters:
            ndv = max(table.column(name).ndv, 2)
            span = max(1, int(ndv * float(rng.uniform(0.01, 0.15))))
            low = int(rng.integers(0, max(ndv - span, 1)))
            where_parts.append(f"{fact}.{name} BETWEEN {low} AND {low + span}")

        sql = f"SELECT {', '.join(select_parts)} FROM {fact}"
        if self.join_dim:
            fk, key = roles.dimensions[self.join_dim]
            sql += f" JOIN {self.join_dim} ON {fact}.{fk} = {self.join_dim}.{key}"
            if self.dim_filter:
                dim_table = schema.table(self.join_dim)
                ndv = dim_table.column(self.dim_filter).ndv
                value = int(rng.integers(0, max(ndv, 1)))
                where_parts.append(f"{self.join_dim}.{self.dim_filter} = {value}")
        if where_parts:
            sql += " WHERE " + " AND ".join(where_parts)
        if group_cols:
            sql += " GROUP BY " + ", ".join(group_cols)
        if self.order_by:
            sql += f" ORDER BY {fact}.{self.order_by} DESC"
        sql += " LIMIT 1000"
        return sql


def restrict_roles(
    roles: StarRoles,
    rng: np.random.Generator,
    eq_pool: int = 5,
    range_pool: int = 2,
) -> StarRoles:
    """A narrowed view of the roles: one topic's "business area" (at most
    3 measures, ``eq_pool`` equality and ``range_pool`` range columns).

    Real analytical topics revolve around a handful of columns; narrowing
    each topic's pool makes intra-topic templates similar (small Hamming
    distances), which is what keeps the paper's δ values tiny even when
    most query mass churns between windows.
    """
    return StarRoles(
        fact=roles.fact,
        measures=[
            str(m)
            for m in rng.choice(
                roles.measures, size=min(3, len(roles.measures)), replace=False
            )
        ],
        eq_columns=[
            str(c)
            for c in rng.choice(
                roles.eq_columns, size=min(eq_pool, len(roles.eq_columns)), replace=False
            )
        ],
        range_columns=[
            str(c)
            for c in rng.choice(
                roles.range_columns,
                size=min(range_pool, len(roles.range_columns)),
                replace=False,
            )
        ],
        dimensions=roles.dimensions,
        dim_eq_columns=roles.dim_eq_columns,
    )


def _random_spec(
    roles: StarRoles, rng: np.random.Generator, allow_join: bool = True
) -> TemplateSpec:
    """Draw a fresh template spec."""
    measures = tuple(
        rng.choice(roles.measures, size=int(rng.integers(1, 3)), replace=False)
    )
    eq_count = int(rng.integers(0, 3))
    eq_filters = tuple(
        rng.choice(roles.eq_columns, size=eq_count, replace=False)
    ) if eq_count else ()
    range_count = int(rng.integers(0, 2)) if eq_filters else 1
    range_filters = tuple(
        rng.choice(roles.range_columns, size=range_count, replace=False)
    ) if range_count else ()
    group_count = int(rng.integers(0, 3))
    group_pool = [c for c in roles.eq_columns if c not in eq_filters]
    group_by = tuple(
        rng.choice(group_pool, size=min(group_count, len(group_pool)), replace=False)
    ) if group_count else ()
    order_by = None
    if group_by and rng.random() < 0.4:
        order_by = str(rng.choice(list(group_by)))
    join_dim = None
    dim_filter = None
    dim_group = None
    if allow_join and rng.random() < 0.25:
        join_dim = str(rng.choice(sorted(roles.dimensions)))
        filters = roles.dim_eq_columns[join_dim]
        if filters and rng.random() < 0.7:
            dim_filter = str(rng.choice(filters))
        if filters and rng.random() < 0.3:
            dim_group = str(rng.choice(filters))
    return TemplateSpec(
        measures=tuple(str(m) for m in measures),
        eq_filters=tuple(str(c) for c in eq_filters),
        range_filters=tuple(str(c) for c in range_filters),
        group_by=tuple(str(c) for c in group_by),
        order_by=order_by,
        join_dim=join_dim,
        dim_filter=dim_filter,
        dim_group=dim_group,
    )


def _mutate_spec(
    spec: TemplateSpec, roles: StarRoles, rng: np.random.Generator
) -> TemplateSpec:
    """Swap 1–2 columns of a spec for same-role siblings (drift step).

    The mutation mix mirrors how analytical queries actually evolve: the
    *measures and groupings* change most often (a new KPI, a different
    breakdown), while the selective filters — the business keys analysts
    slice by — are stickier.
    """
    swaps = int(rng.integers(1, 3))
    mutated = spec
    for _ in range(swaps):
        choice = rng.random()
        if choice < 0.15 and mutated.eq_filters:
            pool = [c for c in roles.eq_columns if c not in mutated.eq_filters]
            if pool:
                filters = list(mutated.eq_filters)
                filters[int(rng.integers(0, len(filters)))] = str(rng.choice(pool))
                mutated = dataclasses.replace(mutated, eq_filters=tuple(filters))
        elif choice < 0.25 and mutated.range_filters:
            pool = [c for c in roles.range_columns if c not in mutated.range_filters]
            if pool:
                filters = list(mutated.range_filters)
                filters[int(rng.integers(0, len(filters)))] = str(rng.choice(pool))
                mutated = dataclasses.replace(mutated, range_filters=tuple(filters))
        elif choice < 0.60 and mutated.group_by:
            pool = [
                c
                for c in roles.eq_columns
                if c not in mutated.group_by and c not in mutated.eq_filters
            ]
            if pool:
                groups = list(mutated.group_by)
                index = int(rng.integers(0, len(groups)))
                replaced = groups[index]
                groups[index] = str(rng.choice(pool))
                order_by = mutated.order_by
                if order_by == replaced:
                    order_by = groups[index]
                mutated = dataclasses.replace(
                    mutated, group_by=tuple(groups), order_by=order_by
                )
        else:
            pool = [m for m in roles.measures if m not in mutated.measures]
            if pool and mutated.measures:
                measures = list(mutated.measures)
                measures[int(rng.integers(0, len(measures)))] = str(rng.choice(pool))
                mutated = dataclasses.replace(mutated, measures=tuple(measures))
    return mutated


# -- drift profiles -------------------------------------------------------------------

#: Mean-reversion factor of the churn walk (closer to 1 = slower regime
#: changes, i.e. month-scale quiet/turbulent periods).
CHURN_REVERSION = 0.98
#: Revivals prefer templates retired a while ago (monthly reports and
#: seasonal analyses come back after a dormancy, not the next day): only
#: templates dead at least this many days are eligible, weighted by
#: ``exp(-(age - REVIVAL_MIN_AGE_DAYS) / revival_halflife_days)`` beyond it.
REVIVAL_MIN_AGE_DAYS = 25.0
#: Number of templates in the stable reporting core.
CORE_TEMPLATES = 10


@dataclass
class DriftProfile:
    """Knobs controlling how a trace drifts over time."""

    name: str
    topic_count: int = 8
    templates_per_topic: int = 10
    queries_per_day: int = 60
    #: Std-dev of the daily random walk on topic weights (log-space).
    mixture_sigma: float = 0.1
    #: Per-day probability that some topic bursts to several times its weight.
    burst_probability: float = 0.0
    #: Per-template, per-day probability of dying and being reborn mutated.
    churn_rate: float = 0.02
    #: Std-dev of the slow log-space random walk modulating the churn rate
    #: (turbulent vs. quiet periods; widens the min–max δ spread of Table 1).
    churn_volatility: float = 0.0
    #: When set, the base churn rate ramps linearly from lo to hi across
    #: the generated period (S2's "uniform drift" construction).
    churn_range: tuple[float, float] | None = None
    #: When a template churns, probability that its replacement is a
    #: *revival* of a previously retired template rather than a fresh
    #: mutant.  Real analytical workloads recur — monthly reports and
    #: seasonal analyses come back — which is exactly why sampling the
    #: Γ-neighborhood from the historical query pool captures part of the
    #: future (and why a designer that only sees the last window cannot).
    revival_probability: float = 0.0
    #: Half-life of a retired template's revival weight beyond
    #: :data:`REVIVAL_MIN_AGE_DAYS`.
    revival_halflife_days: float = 60.0
    #: Fraction of query mass drawn from a stable "core" of reporting
    #: templates that barely churn (real workloads keep a repetitive core
    #: under a drifting exploratory tail).
    core_mass: float = 0.3
    #: Per-core-template, per-day churn probability.
    core_churn_rate: float = 0.002
    #: Fraction of emitted queries that are trivial full scans (filtered out
    #: by the harness, mirroring the paper's 515-of-15.5K benefit filter).
    trivial_fraction: float = 0.03
    #: Read/write statement mix, e.g. ``{"select": 0.7, "insert": 0.2,
    #: "update": 0.07, "delete": 0.03}``.  ``None`` (the default) emits a
    #: pure-select trace and draws no extra randomness, so pre-existing
    #: profiles produce byte-identical streams.
    query_distribution: dict[str, float] | None = None
    #: Per-day probability of a flash-sale burst starting: for its 1–3 day
    #: duration the write share of ``query_distribution`` is multiplied by
    #: ``flash_sale_write_boost`` (then renormalized).
    flash_sale_probability: float = 0.0
    flash_sale_write_boost: float = 3.0
    #: When > 0, a deterministic seasonal sinusoid of this period (days)
    #: modulates the write share by ``1 ± seasonal_amplitude`` — the
    #: slow demand cycle of the e-commerce family.
    seasonal_period_days: float = 0.0
    seasonal_amplitude: float = 0.0
    #: Hard cap on each topic's revival archive (oldest entries beyond the
    #: retention horizon are always pruned; the cap bounds pathological
    #: churn bursts).  ``None`` keeps only the horizon-based pruning.
    archive_cap: int | None = None


def r1_profile(**overrides) -> DriftProfile:
    """The real-workload analogue: moderate drift, bursts, heavy tail churn
    over a stable reporting core, with turbulent and quiet periods."""
    params = dict(
        name="R1",
        mixture_sigma=0.05,
        burst_probability=0.03,
        churn_rate=0.35,
        churn_volatility=0.60,
        core_mass=0.30,
        core_churn_rate=0.02,
        revival_probability=0.95,
        revival_halflife_days=60.0,
    )
    params.update(overrides)
    return DriftProfile(**params)


def s1_profile(**overrides) -> DriftProfile:
    """The static workload: negligible drift (paper: δ in [0.1m, m])."""
    params = dict(
        name="S1",
        mixture_sigma=0.01,
        burst_probability=0.0,
        churn_rate=0.002,
        core_mass=0.5,
        core_churn_rate=0.0,
    )
    params.update(overrides)
    return DriftProfile(**params)


def s2_profile(**overrides) -> DriftProfile:
    """The uniformly drifting workload: constant churn spanning [m, M] of
    R1's range, with no bursts or volatility (paper Table 1)."""
    params = dict(
        name="S2",
        mixture_sigma=0.05,
        burst_probability=0.0,
        churn_range=(0.03, 0.80),
        churn_volatility=0.0,
        core_mass=0.25,
        core_churn_rate=0.02,
        revival_probability=0.95,
        revival_halflife_days=60.0,
    )
    params.update(overrides)
    return DriftProfile(**params)


# -- the generator ------------------------------------------------------------------------


class TraceGenerator:
    """Generates a timestamped query stream from a drift profile."""

    def __init__(
        self,
        schema: Schema,
        roles: WorkloadRoles | StarRoles,
        profile: DriftProfile,
        seed: int = 0,
    ):
        self.schema = schema
        if isinstance(roles, StarRoles):
            roles = WorkloadRoles(
                facts=[roles],
                dimensions=roles.dimensions,
                dim_eq_columns=roles.dim_eq_columns,
            )
        self.roles = roles
        self.profile = profile
        self.rng = np.random.default_rng(seed)
        # Each topic is a narrowed "business area" anchored on one fact
        # table (round-robin); churn then moves templates within that area,
        # keeping Hamming drift small.
        self._topic_roles: list[StarRoles] = [
            restrict_roles(roles.facts[t % len(roles.facts)], self.rng)
            for t in range(profile.topic_count)
        ]
        self._topics: list[list[TemplateSpec]] = [
            [
                _random_spec(topic_roles, self.rng)
                for _ in range(profile.templates_per_topic)
            ]
            for topic_roles in self._topic_roles
        ]
        core_roles = restrict_roles(roles.facts[0], self.rng, eq_pool=6, range_pool=3)
        self._core_roles = core_roles
        self._core: list[TemplateSpec] = [
            _random_spec(core_roles, self.rng) for _ in range(CORE_TEMPLATES)
        ]
        self._log_weights = self.rng.normal(0.0, 0.3, size=profile.topic_count)
        self._burst_topic: int | None = None
        self._burst_days_left = 0
        #: Per-topic archive of retired templates: (spec, retirement day).
        self._archive: list[list[tuple[TemplateSpec, float]]] = [
            [] for _ in range(profile.topic_count)
        ]
        self._day = 0.0
        # Start the churn regime walk from its stationary distribution so
        # the first windows are as varied as later ones.
        if profile.churn_volatility > 0:
            stationary = profile.churn_volatility / math.sqrt(1.0 - CHURN_REVERSION**2)
            self._log_churn_multiplier = float(self.rng.normal(0.0, stationary))
        else:
            self._log_churn_multiplier = 0.0
        self._progress = 0.0  # fraction of the generation period elapsed
        self._flash_days_left = 0

    def _advance_day(self) -> None:
        profile = self.profile
        self._log_weights += self.rng.normal(0.0, profile.mixture_sigma, len(self._log_weights))
        if self._burst_days_left > 0:
            self._burst_days_left -= 1
            if self._burst_days_left == 0:
                self._burst_topic = None
        elif profile.burst_probability > 0 and self.rng.random() < profile.burst_probability:
            self._burst_topic = int(self.rng.integers(0, profile.topic_count))
            self._burst_days_left = int(self.rng.integers(2, 6))
        if profile.churn_volatility > 0:
            self._log_churn_multiplier += float(
                self.rng.normal(0.0, profile.churn_volatility)
            )
            self._log_churn_multiplier *= CHURN_REVERSION
        if profile.churn_range is not None:
            lo, hi = profile.churn_range
            base = lo + (hi - lo) * self._progress
        else:
            base = profile.churn_rate
        churn = min(1.0, base * math.exp(self._log_churn_multiplier))
        for t, (topic_roles, topic) in enumerate(zip(self._topic_roles, self._topics)):
            for i, spec in enumerate(topic):
                if self.rng.random() < churn:
                    self._archive[t].append((spec, self._day))
                    topic[i] = self._replacement(t, spec, topic_roles)
        self._prune_archives()
        for i, spec in enumerate(self._core):
            if self.rng.random() < profile.core_churn_rate:
                self._core[i] = _mutate_spec(spec, self._core_roles, self.rng)
        if profile.flash_sale_probability > 0:
            if self._flash_days_left > 0:
                self._flash_days_left -= 1
            elif self.rng.random() < profile.flash_sale_probability:
                self._flash_days_left = int(self.rng.integers(1, 4))

    def _prune_archives(self) -> None:
        """Bound the revival archives (draws no randomness).

        Entries older than the retention horizon have revival weight below
        ``e^-6`` — practically unreachable — yet before this fix every
        retired template was kept forever, growing each archive linearly
        with stream length.  Archives are appended in day order, so the
        prefix is the oldest.
        """
        profile = self.profile
        horizon = REVIVAL_MIN_AGE_DAYS + 6.0 * profile.revival_halflife_days
        cutoff = self._day - horizon
        for archive in self._archive:
            drop = 0
            while drop < len(archive) and archive[drop][1] < cutoff:
                drop += 1
            if drop:
                del archive[:drop]
            cap = profile.archive_cap
            if cap is not None and len(archive) > cap:
                del archive[: len(archive) - cap]

    def _replacement(
        self, topic_index: int, dying: TemplateSpec, topic_roles: StarRoles
    ) -> TemplateSpec:
        """The spec that replaces a churned one: a revival or a mutant.

        Revivals model the recurring nature of real analytical work —
        monthly reports and seasonal analyses come back — and prefer
        recently retired templates (age-weighted by the profile's
        half-life).  The rest of the churn is genuinely novel: a mutant of
        the dying spec.
        """
        profile = self.profile
        archive = self._archive[topic_index]
        if (
            profile.revival_probability > 0
            and archive
            and self.rng.random() < profile.revival_probability
        ):
            ages = np.array([self._day - died for _, died in archive], dtype=np.float64)
            mature = ages - REVIVAL_MIN_AGE_DAYS
            weights = np.where(
                mature >= 0,
                np.exp(-np.maximum(mature, 0.0) / max(profile.revival_halflife_days, 1e-9)),
                0.0,
            )
            total = weights.sum()
            if total > 0:
                pick = int(self.rng.choice(len(archive), p=weights / total))
                revived, _ = archive.pop(pick)
                return revived
        return _mutate_spec(dying, topic_roles, self.rng)

    def _topic_weights(self) -> np.ndarray:
        weights = np.exp(self._log_weights - self._log_weights.max())
        if self._burst_topic is not None:
            weights = weights.copy()
            weights[self._burst_topic] *= 5.0
        return weights / weights.sum()

    def _day_write_mix(self) -> list[tuple[str, float]] | None:
        """Today's statement mix as a cumulative distribution (or None).

        Flash-sale bursts and the seasonal sinusoid scale the write share
        before renormalizing; the sinusoid is a deterministic function of
        ``self._day``, so it costs no randomness.
        """
        profile = self.profile
        dist = profile.query_distribution
        if not dist:
            return None
        mix = {k: max(float(v), 0.0) for k, v in dist.items()}
        boost = 1.0
        if self._flash_days_left > 0:
            boost *= profile.flash_sale_write_boost
        if profile.seasonal_period_days > 0:
            boost *= 1.0 + profile.seasonal_amplitude * math.sin(
                2.0 * math.pi * self._day / profile.seasonal_period_days
            )
        if boost != 1.0:
            for kind in ("insert", "update", "delete"):
                if kind in mix:
                    mix[kind] *= max(boost, 0.0)
        total = sum(mix.values())
        if total <= 0:
            return None
        cumulative: list[tuple[str, float]] = []
        running = 0.0
        for kind, share in mix.items():
            running += share / total
            cumulative.append((kind, running))
        return cumulative

    def _draw_kind(self, cumulative: list[tuple[str, float]]) -> str:
        roll = float(self.rng.random())
        for kind, edge in cumulative:
            if roll < edge:
                return kind
        return cumulative[-1][0]

    def _write_sql(self, kind: str, spec: TemplateSpec, roles: StarRoles) -> str:
        """Render one DML statement shaped by ``spec``'s business area."""
        fact = roles.fact
        table = self.schema.table(fact)
        rng = self.rng
        if kind == "insert":
            columns = list(
                dict.fromkeys(
                    list(spec.eq_filters)
                    + list(spec.range_filters)
                    + list(spec.measures)
                )
            ) or list(roles.measures[:1])
            rows = []
            for _ in range(int(rng.integers(1, 4))):
                values = [
                    int(rng.integers(0, max(table.column(c).ndv, 1)))
                    for c in columns
                ]
                rows.append("(" + ", ".join(str(v) for v in values) + ")")
            return (
                f"INSERT INTO {fact} ({', '.join(columns)}) "
                f"VALUES {', '.join(rows)}"
            )
        where_parts: list[str] = []
        for name in spec.eq_filters:
            ndv = table.column(name).ndv
            where_parts.append(f"{name} = {int(rng.integers(0, max(ndv, 1)))}")
        for name in spec.range_filters:
            ndv = max(table.column(name).ndv, 2)
            span = max(1, int(ndv * float(rng.uniform(0.01, 0.15))))
            low = int(rng.integers(0, max(ndv - span, 1)))
            where_parts.append(f"{name} BETWEEN {low} AND {low + span}")
        where = f" WHERE {' AND '.join(where_parts)}" if where_parts else ""
        if kind == "update":
            targets = list(spec.measures) or list(roles.measures[:1])
            assignments = ", ".join(
                f"{m} = {int(rng.integers(0, max(table.column(m).ndv, 1)))}"
                for m in targets
            )
            return f"UPDATE {fact} SET {assignments}{where}"
        return f"DELETE FROM {fact}{where}"

    def generate(self, days: int) -> list[WorkloadQuery]:
        """Emit ``days`` days of queries starting at day 0.

        Progress-anchored drift shapes (S2's churn ramp) measure progress
        against the whole ``days``-day period.
        """
        queries: list[WorkloadQuery] = []
        profile = self.profile
        for day in range(days):
            self._day = float(day)
            self._progress = day / max(days - 1, 1)
            self._advance_day()
            weights = self._topic_weights()
            write_mix = self._day_write_mix()
            for _ in range(profile.queries_per_day):
                timestamp = self._day + float(self.rng.uniform(0.0, 1.0))
                kind = "select" if write_mix is None else self._draw_kind(write_mix)
                if kind != "select":
                    topic = int(self.rng.choice(profile.topic_count, p=weights))
                    specs = self._topics[topic]
                    spec = specs[int(self.rng.integers(0, len(specs)))]
                    spec_roles = self._topic_roles[topic]
                    queries.append(
                        WorkloadQuery(
                            sql=self._write_sql(kind, spec, spec_roles),
                            timestamp=timestamp,
                        )
                    )
                    continue
                if self.rng.random() < profile.trivial_fraction:
                    queries.append(
                        WorkloadQuery(
                            sql=f"SELECT * FROM {self.roles.fact} LIMIT 100",
                            timestamp=timestamp,
                        )
                    )
                    continue
                if self._core and self.rng.random() < profile.core_mass:
                    spec = self._core[int(self.rng.integers(0, len(self._core)))]
                    spec_roles = self._core_roles
                else:
                    topic = int(self.rng.choice(profile.topic_count, p=weights))
                    specs = self._topics[topic]
                    spec = specs[int(self.rng.integers(0, len(specs)))]
                    spec_roles = self._topic_roles[topic]
                sql = spec.instantiate(spec_roles, self.schema, self.rng)
                queries.append(WorkloadQuery(sql=sql, timestamp=timestamp))
        queries.sort(key=lambda q: q.timestamp)
        return queries
