"""Tests for the drifting trace generators."""

import numpy as np
import pytest

from repro.sql.parser import parse
from repro.workload.distance import WorkloadDistance
from repro.workload.generator import (
    TraceGenerator,
    build_star_schema,
    r1_profile,
    restrict_roles,
    s1_profile,
    s2_profile,
)
from repro.workload.windows import shared_template_fraction, split_windows


class TestStarSchema:
    def test_fact_and_dim_tables_exist(self, tiny_star):
        schema, roles = tiny_star
        for fact in roles.facts:
            assert fact.fact in schema.tables
        for dim in roles.dimensions:
            assert dim in schema.tables

    def test_legacy_tables_widen_n(self):
        narrow, _ = build_star_schema(
            fact_tables=1, fact_attributes=6, legacy_tables=0, legacy_columns=4
        )
        wide, _ = build_star_schema(
            fact_tables=1, fact_attributes=6, legacy_tables=20, legacy_columns=4
        )
        assert wide.total_columns == narrow.total_columns + 80

    def test_roles_reference_real_columns(self, tiny_star):
        schema, roles = tiny_star
        for fact_roles in roles.facts:
            table = schema.table(fact_roles.fact)
            for name in fact_roles.measures + fact_roles.eq_columns + fact_roles.range_columns:
                assert table.has_column(name)

    def test_restrict_roles_subsets(self, tiny_star):
        _, roles = tiny_star
        rng = np.random.default_rng(0)
        narrowed = restrict_roles(roles.facts[0], rng, eq_pool=3, range_pool=1)
        assert set(narrowed.eq_columns) <= set(roles.facts[0].eq_columns)
        assert len(narrowed.eq_columns) == 3
        assert narrowed.fact == roles.facts[0].fact


class TestTraceGenerator:
    def test_queries_parse(self, tiny_trace):
        for query in tiny_trace[:200]:
            parse(query.sql)  # must not raise

    def test_timestamps_sorted_and_in_range(self, tiny_trace):
        times = [q.timestamp for q in tiny_trace]
        assert times == sorted(times)
        assert times[0] >= 0
        assert times[-1] <= 70

    def test_deterministic_given_seed(self, tiny_star):
        schema, roles = tiny_star
        profile = r1_profile(queries_per_day=5, topic_count=2, templates_per_topic=3)
        first = TraceGenerator(schema, roles, profile, seed=9).generate(days=20)
        second = TraceGenerator(schema, roles, profile, seed=9).generate(days=20)
        assert [q.sql for q in first] == [q.sql for q in second]

    def test_queries_per_day_honoured(self, tiny_star):
        schema, roles = tiny_star
        profile = r1_profile(queries_per_day=5, topic_count=2, templates_per_topic=3)
        trace = TraceGenerator(schema, roles, profile, seed=1).generate(days=10)
        assert len(trace) == 50

    def test_trivial_queries_emitted(self, tiny_star):
        schema, roles = tiny_star
        profile = r1_profile(
            queries_per_day=40, topic_count=2, templates_per_topic=3, trivial_fraction=0.3
        )
        trace = TraceGenerator(schema, roles, profile, seed=1).generate(days=5)
        trivial = sum(1 for q in trace if q.sql.startswith("SELECT *"))
        assert 0.15 <= trivial / len(trace) <= 0.5


class TestDriftOrdering:
    """S1 must drift least; S2's drift must grow over time (the ramp)."""

    @pytest.fixture(scope="class")
    def traces(self, tiny_star):
        schema, roles = tiny_star
        out = {}
        for factory in (r1_profile, s1_profile, s2_profile):
            profile = factory(queries_per_day=10, topic_count=3, templates_per_topic=4)
            out[profile.name] = TraceGenerator(schema, roles, profile, seed=13).generate(
                days=140
            )
        return schema, out

    def test_s1_drifts_least(self, traces):
        schema, by_name = traces
        metric = WorkloadDistance(schema.total_columns)
        drift = {}
        for name, trace in by_name.items():
            windows = split_windows(trace, 28)
            drift[name] = np.mean(
                [metric(windows[i], windows[i + 1]) for i in range(len(windows) - 1)]
            )
        assert drift["S1"] < drift["R1"]
        assert drift["S1"] < drift["S2"]

    def test_s1_shares_most_templates(self, traces):
        _, by_name = traces
        share = {}
        for name, trace in by_name.items():
            windows = split_windows(trace, 28)
            share[name] = np.mean(
                [
                    shared_template_fraction(windows[i], windows[i + 1])
                    for i in range(len(windows) - 1)
                ]
            )
        assert share["S1"] > share["R1"]

    def test_s2_ramp_reduces_template_sharing_over_time(self, traces):
        # S2's churn ramps from ~0 to heavy across the trace, so later
        # window pairs share fewer templates than earlier ones.  (δ itself
        # is too noisy at this tiny scale for a pointwise comparison.)
        _, by_name = traces
        windows = split_windows(by_name["S2"], 28)
        shares = [
            shared_template_fraction(windows[i], windows[i + 1])
            for i in range(len(windows) - 1)
        ]
        assert shares[-1] < shares[0]

    def test_template_sharing_decays_with_lag(self, traces):
        _, by_name = traces
        windows = split_windows(by_name["R1"], 14)
        near = np.mean(
            [shared_template_fraction(windows[i], windows[i + 1]) for i in range(len(windows) - 1)]
        )
        far = np.mean(
            [shared_template_fraction(windows[i], windows[i + 5]) for i in range(len(windows) - 5)]
        )
        assert far < near


class TestRevivals:
    def test_revived_templates_return_from_history(self, tiny_star):
        schema, roles = tiny_star
        profile = r1_profile(
            queries_per_day=12,
            topic_count=3,
            templates_per_topic=4,
            churn_rate=0.3,
            revival_probability=0.95,
            revival_halflife_days=30.0,
        )
        trace = TraceGenerator(schema, roles, profile, seed=21).generate(days=120)
        windows = split_windows(trace, 28)

        def keys(window):
            out = set()
            for q in window:
                t = q.template
                if not t.is_empty:
                    out.add(tuple(t.clause(c) for c in ("select", "where", "group_by", "order_by")))
            return out

        last = keys(windows[-1])
        previous = keys(windows[-2])
        history = set()
        for w in windows[:-2]:
            history |= keys(w)
        fresh = last - previous
        revived = fresh & history
        # A meaningful share of fresh templates must be comebacks.
        assert len(fresh) > 0
        assert len(revived) / len(fresh) > 0.2
