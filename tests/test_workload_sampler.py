"""Tests for Γ-neighborhood sampling (Algorithm 4) and query mutation."""

import warnings

import numpy as np
import pytest

from repro.sql.analyzer import extract_template
from repro.workload.distance import WorkloadDistance
from repro.workload.sampler import ColumnAffinity, NeighborhoodSampler, mutate_query
from repro.workload.windows import split_windows


@pytest.fixture
def setup(tiny_star, tiny_trace):
    schema, _roles = tiny_star
    distance = WorkloadDistance(schema.total_columns)
    windows = split_windows(tiny_trace, 28)
    base = windows[1]
    pool = [q for q in tiny_trace if q.timestamp < base.span_days[0]]
    sampler = NeighborhoodSampler(distance, schema, pool=pool, seed=7)
    return schema, distance, base, sampler


class TestMutation:
    def test_mutation_changes_template(self, tiny_star, tiny_trace):
        schema, _ = tiny_star
        rng = np.random.default_rng(0)
        changed = 0
        for query in tiny_trace[:30]:
            mutated = mutate_query(query.sql, schema, rng)
            if mutated is not None and mutated != query.sql:
                changed += 1
                # still parseable, same anchor table
                template = extract_template(mutated)
                assert not template.is_empty
        assert changed > 20

    def test_mutation_of_unknown_table_returns_none(self, tiny_star):
        schema, _ = tiny_star
        rng = np.random.default_rng(0)
        assert mutate_query("SELECT x FROM nowhere", schema, rng) is None

    def test_mutation_of_unparseable_returns_none(self, tiny_star):
        schema, _ = tiny_star
        rng = np.random.default_rng(0)
        assert mutate_query("NOT SQL AT ALL", schema, rng) is None

    def test_affinity_biases_replacements(self, tiny_star, tiny_trace):
        schema, _ = tiny_star
        affinity = ColumnAffinity()
        affinity.observe(tiny_trace)
        # Weights must be a probability distribution favouring co-occurring
        # columns.
        fact = schema.tables[sorted(t for t in schema.tables if t.startswith("fact"))[0]]
        options = fact.column_names[:6]
        weights = affinity.replacement_weights(fact.name, options[:2], options)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()


class TestSampler:
    def test_sample_count(self, setup):
        _, _, base, sampler = setup
        samples = sampler.sample(base, gamma=0.01, count=5)
        assert len(samples) == 5

    def test_samples_within_gamma(self, setup):
        _, distance, base, sampler = setup
        gamma = 0.01
        for sample in sampler.sample(base, gamma, 8):
            achieved = distance(base, sample)
            assert achieved <= gamma * 1.3  # floor rounding tolerance

    def test_sample_at_hits_target_distance(self, setup):
        _, distance, base, sampler = setup
        alpha = 0.005
        moved = sampler.sample_at(base, alpha)
        achieved = distance(base, moved)
        assert achieved == pytest.approx(alpha, rel=0.35)

    def test_zero_alpha_returns_copy(self, setup):
        _, _, base, sampler = setup
        moved = sampler.sample_at(base, 0.0)
        assert len(moved) == len(base)

    def test_negative_gamma_rejected(self, setup):
        _, _, base, sampler = setup
        with pytest.raises(ValueError):
            sampler.sample(base, -1.0, 3)

    def test_perturbation_preserves_base_queries(self, setup):
        _, _, base, sampler = setup
        moved = sampler.sample_at(base, 0.005)
        base_sqls = {q.sql for q in base}
        moved_sqls = {q.sql for q in moved}
        assert base_sqls <= moved_sqls

    def test_added_queries_are_template_disjoint_from_base(self, setup):
        _, distance, base, sampler = setup
        moved = sampler.sample_at(base, 0.005)
        base_keys = distance.template_keys(base)
        base_sqls = {q.sql for q in base}
        from repro.workload.workload import template_key

        for query in moved:
            if query.sql in base_sqls:
                continue
            key = template_key(query.template, distance.clauses)
            assert key not in base_keys

    def test_deterministic_given_seed(self, setup):
        schema, distance, base, sampler = setup
        other = NeighborhoodSampler(
            distance, schema, pool=list(sampler.pool), seed=7
        )
        first = sampler.sample(base, 0.004, 3)
        second = other.sample(base, 0.004, 3)
        assert [len(w) for w in first] == [len(w) for w in second]

    def test_set_pool_resets_affinity(self, setup):
        schema, distance, base, sampler = setup
        sampler.set_pool([])
        assert sampler.pool == []
        # sampling still works (falls back to mutations)
        moved = sampler.sample_at(base, 0.004)
        assert len(moved) >= len(base)

    def test_invalid_query_set_bounds(self, setup):
        schema, distance, base, _ = setup
        with pytest.raises(ValueError):
            NeighborhoodSampler(distance, schema, min_query_set=5, max_query_set=2)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gamma_rejected(self, setup, gamma):
        """``gamma < 0`` let NaN and +inf through to ``rng.uniform(0, Γ)``,
        which raised an ``OverflowError`` mid-design."""
        _, _, base, sampler = setup
        before = sampler.rng.bit_generator.state
        with pytest.raises(ValueError, match="gamma"):
            sampler.sample(base, gamma, 3)
        assert sampler.rng.bit_generator.state == before

    def test_zero_recent_pool_learns_affinity_from_the_base_alone(self, setup):
        """``pool[-0:]`` is the whole pool: a size of 0 used to learn the
        affinity from every past query instead of none.  With no recent
        pool, a sampler over the trace must draw what one over no pool
        draws."""
        schema, distance, base, sampler = setup
        assert sampler.pool
        samples = []
        for pool in (sampler.pool, []):
            zero = NeighborhoodSampler(distance, schema, pool=pool, seed=7)
            zero.recent_pool_size = 0
            samples.append(zero.sample(base, 0.01, 4))
        with_pool, without = ([[(q.sql, q.frequency) for q in w] for w in s] for s in samples)
        assert any(len(w) > len(base) for w in with_pool)
        assert with_pool == without

    def test_negative_count_rejected(self, setup):
        _, _, base, sampler = setup
        with pytest.raises(ValueError, match="count"):
            sampler.sample(base, 0.01, -1)
        assert sampler.sample(base, 0.01, 0) == []


class TestReplacementWeightsEdgeCases:
    def test_empty_options_return_empty_weights(self):
        """Regression: an empty ``options`` list normalized a zero-sum
        empty array (0/0 → NaN with a RuntimeWarning).  Single-column
        tables offer no replacement, so the empty case is routine."""
        affinity = ColumnAffinity()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning fails
            weights = affinity.replacement_weights("t", ["a"], [])
        assert weights.shape == (0,)
        assert weights.dtype == np.float64
        assert not np.isnan(weights).any()

    def test_observed_affinity_still_normalizes(self, tiny_star, tiny_trace):
        schema, _ = tiny_star
        affinity = ColumnAffinity()
        affinity.observe(tiny_trace)
        table = sorted(t for t in schema.tables if t.startswith("fact"))[0]
        options = schema.tables[table].column_names[:4]
        weights = affinity.replacement_weights(table, options[:1], options)
        assert weights.sum() == pytest.approx(1.0)
