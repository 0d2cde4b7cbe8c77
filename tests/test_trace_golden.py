"""Golden trace digests: ``TraceGenerator.generate`` across versions.

Each case pins a blake2b digest of every generated ``(sql, timestamp)``
pair (the timestamp by its float64 bits), so a change to the generator
that moves one random draw, one revival pick or one character of SQL
fails here.  The digests were recorded before the revival archive kept
its retirement days as an array.

Traces run 420 days at four queries a day, past the retention horizon
(``REVIVAL_MIN_AGE_DAYS + 6 × 60`` = 385 days), while the per-day query
count keeps the whole module at a few seconds.  R1, S2 and HTAP fill
their archives to 200–400 entries a topic (revivals take the old ones
before the horizon does); S1, ECOMMERCE and OLTP prune by the horizon.
Two extra cases make the cap (``archive_cap=16``) and a short horizon
(``revival_halflife_days=5``) prune thousands of entries.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.workload.families import ecommerce_profile, htap_profile, oltp_profile
from repro.workload.generator import TraceGenerator, r1_profile, s1_profile, s2_profile

DAYS = 420
QUERIES_PER_DAY = 4

PROFILES = {
    "R1": r1_profile,
    "S1": s1_profile,
    "S2": s2_profile,
    "HTAP": htap_profile,
    "ECOMMERCE": ecommerce_profile,
    "OLTP": oltp_profile,
}

#: ``(family, seed, profile overrides) -> digest``.
GOLDEN = {
    ("R1", 1, ()): "4204a1d24b49ae9575268f6f38bd83bb",
    ("R1", 2, ()): "a2047c481ce0c036041cd673e2e9e853",
    ("S1", 1, ()): "18273a6741f859712bbd0900731f9ce4",
    ("S1", 2, ()): "c519a1407b9bb80d3f6f0bec38eb3718",
    ("S2", 1, ()): "5dcef509f4f5a818e89545ede1827916",
    ("S2", 2, ()): "47bcabde60786e89d053f32ad442876a",
    ("HTAP", 1, ()): "7435e572f034e1fdb3770b4a955bb6f5",
    ("HTAP", 2, ()): "ac9329ae8a50e06a23a7e09f5ddb544e",
    ("ECOMMERCE", 1, ()): "b17df739c960e90f3e7b6c9d53ba2ebe",
    ("ECOMMERCE", 2, ()): "d73212a2e236c69c73a47425742c8424",
    ("OLTP", 1, ()): "fe2a6c0b897e5680958bc7c7618635e6",
    ("OLTP", 2, ()): "7339f6bbc67d597c4592bf8c525eaa61",
    ("R1", 3, (("archive_cap", 16),)): "5ec0e88652fa8e51df86a503443c03aa",
    ("R1", 3, (("revival_halflife_days", 5.0),)): "1ed12d880de0f0e5445fad6da4587a8c",
}


def trace_digest(schema, roles, family: str, seed: int, overrides) -> str:
    profile = PROFILES[family](queries_per_day=QUERIES_PER_DAY, **dict(overrides))
    trace = TraceGenerator(schema, roles, profile, seed=seed).generate(days=DAYS)
    digest = hashlib.blake2b(digest_size=16)
    for query in trace:
        digest.update(query.sql.encode())
        digest.update(struct.pack("<d", query.timestamp))
    return digest.hexdigest()


@pytest.mark.parametrize(
    "family,seed,overrides",
    list(GOLDEN),
    ids=[f"{f}-{s}" + "".join(f"-{k}={v}" for k, v in o) for f, s, o in GOLDEN],
)
def test_trace_matches_recorded_digest(tiny_star, family, seed, overrides):
    schema, roles = tiny_star
    assert trace_digest(schema, roles, family, seed, overrides) == GOLDEN[family, seed, overrides]
