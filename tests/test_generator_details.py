"""Detailed tests for template specs and workload roles."""

import numpy as np
import pytest

from repro.sql.analyzer import extract_template
from repro.sql.parser import parse
from repro.workload.generator import (
    StarRoles,
    _mutate_spec,
    _random_spec,
    restrict_roles,
)


@pytest.fixture
def roles(tiny_star) -> StarRoles:
    _, workload_roles = tiny_star
    return workload_roles.facts[0]


class TestWorkloadRoles:
    def test_primary_delegation(self, tiny_star):
        _, workload_roles = tiny_star
        assert workload_roles.fact == workload_roles.facts[0].fact
        assert workload_roles.measures == workload_roles.facts[0].measures

    def test_single_fact_wrapping(self, roles, tiny_star):
        schema, _ = tiny_star
        from repro.workload.generator import TraceGenerator, r1_profile

        generator = TraceGenerator(
            schema, roles, r1_profile(queries_per_day=3, topic_count=2, templates_per_topic=2),
            seed=1,
        )
        trace = generator.generate(days=5)
        assert trace  # StarRoles input is auto-wrapped into WorkloadRoles


class TestTemplateSpec:
    def test_instantiate_parses(self, roles, tiny_star):
        schema, _ = tiny_star
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = _random_spec(roles, rng)
            sql = spec.instantiate(roles, schema, rng)
            parse(sql)  # must not raise

    def test_same_spec_same_template(self, roles, tiny_star):
        schema, _ = tiny_star
        rng = np.random.default_rng(1)
        spec = _random_spec(roles, rng)
        first = spec.instantiate(roles, schema, rng)
        second = spec.instantiate(roles, schema, rng)
        # Literals differ between emissions, templates do not.
        assert extract_template(first) == extract_template(second)

    def test_mutation_changes_spec(self, roles):
        rng = np.random.default_rng(2)
        spec = _random_spec(roles, rng)
        changed = sum(
            1 for _ in range(20) if _mutate_spec(spec, roles, rng) != spec
        )
        assert changed >= 15

    def test_mutation_stays_within_roles(self, roles):
        rng = np.random.default_rng(3)
        spec = _random_spec(roles, rng)
        for _ in range(30):
            spec = _mutate_spec(spec, roles, rng)
        assert set(spec.eq_filters) <= set(roles.eq_columns)
        assert set(spec.range_filters) <= set(roles.range_columns)
        assert set(spec.measures) <= set(roles.measures)

    def test_mutation_keeps_order_by_consistent(self, roles):
        rng = np.random.default_rng(4)
        for _ in range(50):
            spec = _random_spec(roles, rng)
            mutated = _mutate_spec(spec, roles, rng)
            if mutated.order_by is not None:
                assert mutated.order_by in mutated.group_by


class TestRestrictRoles:
    def test_deterministic_given_rng_state(self, roles):
        first = restrict_roles(roles, np.random.default_rng(9))
        second = restrict_roles(roles, np.random.default_rng(9))
        assert first.eq_columns == second.eq_columns
        assert first.measures == second.measures

    def test_pools_never_exceed_source(self, roles):
        narrowed = restrict_roles(
            roles,
            np.random.default_rng(1),
            eq_pool=100,
            range_pool=100,
        )
        assert len(narrowed.eq_columns) == len(roles.eq_columns)
        assert len(narrowed.range_columns) == len(roles.range_columns)
