"""The claims ledger (``CLAIMS.json``), asserted.

``benchmarks/bench_claims.py`` records every claim's per-seed runs under a
``parent`` and a ``change`` table; the summaries, the gate between the two
tables, and a few of the change table's seeds are re-derived here.  The
claims and the gate are defined in that module's docstring.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_runner():
    spec = importlib.util.spec_from_file_location(
        "bench_claims", ROOT / "benchmarks" / "bench_claims.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _close(a, b) -> bool:
    """``a == b`` with floats compared to 1e-9 relative, through dicts and
    lists (the summaries and the gate nest both)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9)
    return a == b


claims = _load_runner()
LEDGER = json.loads((ROOT / "CLAIMS.json").read_text())
TABLES = ("parent", "change")


@pytest.mark.parametrize("label", TABLES)
def test_every_claim_ran_on_its_full_seed_range(label):
    table = LEDGER["tables"][label]
    for kind, seeds in claims.SEEDS.items():
        assert sorted(map(int, table["records"][kind])) == list(seeds), kind


@pytest.mark.parametrize("label", TABLES)
def test_summary_is_the_records_summary(label):
    """Pass counts, effects and intervals follow from the raw per-seed
    numbers: nothing in a summary row is hand-entered."""
    table = LEDGER["tables"][label]
    assert _close(claims.summarize(table["records"]), table["summary"])


@pytest.mark.parametrize("label", TABLES)
@pytest.mark.parametrize("claim", sorted(claims.DETERMINISTIC))
def test_deterministic_claim_holds_on_every_seed(label, claim):
    row = LEDGER["tables"][label]["summary"][claim]
    assert row["passed"] == row["seeds"]


def test_gate_is_recomputed_and_passes():
    parent, change = (LEDGER["tables"][label]["summary"] for label in TABLES)
    verdict = claims.gate(parent, change)
    assert _close(verdict, LEDGER["gate"])
    assert {claim: row["ok"] for claim, row in verdict.items()} == dict.fromkeys(verdict, True)


def test_fisher_lower_tail():
    # 9/10 against 10/10 is one flip: indistinguishable from noise.
    assert claims.fisher_lower_p(9, 10, 10, 10) == pytest.approx(0.5)
    assert claims.fisher_lower_p(10, 10, 10, 10) == 1.0
    assert claims.fisher_lower_p(0, 10, 10, 10) < 1e-5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_change_table_matches_this_tree(seed):
    """The change table is the code's: one cheap claim re-runs bit for bit,
    through the runner's own fan-out (``_run_cells`` and its backend)."""
    record = claims.run({"heldout": range(seed, seed + 1)})["heldout"][str(seed)]
    recorded = LEDGER["tables"]["change"]["records"]["heldout"][str(seed)]
    assert (record["robust"], record["nominal"]) == (recorded["robust"], recorded["nominal"])
