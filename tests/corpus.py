"""The small star schema and statement pools the pricing suites share.

The costing kernel, service and arena suites, the design-stream and
HTAP-write suites, and the beneficial / bind / sampler bit-identity
suites all price against one two-fact star (seed 7) and draw their
statements from a seed-9 trace on it.  Each schema and trace is built
once per test session here; every suite still builds its own cost
models.
"""

from __future__ import annotations

from functools import lru_cache

from repro.workload.families import ecommerce_profile, htap_profile
from repro.workload.generator import TraceGenerator, build_star_schema, r1_profile

PROFILES = {"r1": r1_profile, "htap": htap_profile, "ecommerce": ecommerce_profile}


@lru_cache(maxsize=None)
def small_star():
    """``(schema, roles)`` of the shared star."""
    return build_star_schema(
        fact_tables=2,
        fact_rows=200_000,
        fact_attributes=10,
        legacy_tables=2,
        legacy_columns=3,
        seed=7,
    )


@lru_cache(maxsize=None)
def star_trace(family: str = "r1", queries_per_day: int = 6, days: int = 30) -> tuple:
    """A seed-9 trace of one workload family (two topics of three
    templates) on :func:`small_star`."""
    schema, roles = small_star()
    profile = PROFILES[family](
        queries_per_day=queries_per_day, topic_count=2, templates_per_topic=3
    )
    return tuple(TraceGenerator(schema, roles, profile, seed=9).generate(days=days))


def star_pool(family: str = "r1", queries_per_day: int = 6, limit: int | None = None):
    """``(schema, sqls)``: the distinct texts of a 30-day
    :func:`star_trace`, in first-seen order, at most ``limit`` of them."""
    sqls = list(dict.fromkeys(q.sql for q in star_trace(family, queries_per_day)))
    return small_star()[0], sqls[:limit]
