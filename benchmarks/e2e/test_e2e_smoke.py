"""Smoke tests for the end-to-end ledger at tiny sizes.

Run explicitly (tier-1 ``testpaths`` does not include this directory)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import pytest

import compare
import run
import spans
import workloads
from repro.serve import daemon as serve_daemon

TINY = {
    "design-r1-columnar": dict(
        queries_per_day=4, units_per_round=2, n_samples=2, iterations=1,
        legacy_tables=2, bitwise_pairs=4,
    ),
    "design-htap-rowstore": dict(
        queries_per_day=4, units_per_round=2, n_samples=2, iterations=1,
        legacy_tables=2, bitwise_pairs=4,
    ),
    "replay-r1-nominal": dict(
        queries_per_day=4, units_per_round=2, legacy_tables=2,
    ),
    "serve-ecommerce-columnar": dict(
        days=28, queries_per_day=12, every=2, n_samples=2, iterations=1,
        legacy_tables=2,
    ),
}


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


_traced_cache: dict = {}


def traced(name: str, seed: int, repeat: int = 0) -> dict:
    """One tiny traced pass, cached per (workload, seed, repeat)."""
    key = (name, seed, repeat)
    if key not in _traced_cache:
        # A real run is a fresh process; in one process the daemon's
        # warm re-design stack would survive into the next run.
        serve_daemon._STACK_MEMO.clear()
        result, _detail = run.run_traced(tiny(name), seed)
        _traced_cache[key] = result
    return _traced_cache[key]


def manifest() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic ---------------------------------------------------------------------


def test_nested_self_times_sum_to_the_root_duration():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    parse = tracer.wrap("sql.parse", leaf)

    def middle():
        parse()
        time.sleep(0.001)
        parse()

    profile = tracer.wrap("costing.profile.profile", middle)

    def root():
        profile()
        time.sleep(0.001)
        profile()

    design = tracer.wrap("core.cliffguard.design", root)
    parse()  # outside any root: passes through unrecorded
    design()
    layers, wall = tracer.aggregate()
    assert layers["sql.parse"]["calls"] == 4
    assert layers["costing.profile.profile"]["calls"] == 2
    assert layers["core.cliffguard.design"]["calls"] == 1
    total_self = sum(layer["self_s"] for layer in layers.values())
    assert total_self == pytest.approx(wall, rel=1e-9)
    name, start, end, parent = tracer.spans[0]
    assert (name, parent) == ("core.cliffguard.design", -1)
    assert wall == pytest.approx(end - start)
    assert layers["sql.parse"]["self_s"] >= 4 * 0.002
    assert layers["core.cliffguard.design"]["self_s"] < wall - layers["sql.parse"]["self_s"]


def test_a_raising_span_still_closes():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    design = tracer.wrap("core.cliffguard.design", boom)
    with pytest.raises(ValueError):
        design()
    layers, _wall = tracer.aggregate()
    assert layers["core.cliffguard.design"]["calls"] == 1


def test_every_wrapper_is_removed_and_identities_restored():
    targets = [
        spans._resolve(module, qualname)
        for group in spans.SPAN_TARGETS.values()
        for module, qualname in group
    ]
    importers = [
        (sys.modules["repro.workload.sampler"], "parse"),
        (sys.modules["repro.costing.profile"], "parse"),
        (sys.modules["repro.designers.columnar_nominal"], "greedy_select"),
        (sys.modules["repro"], "move_workload"),
    ]
    before = [getattr(module, name) for module, name in importers]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attribute, original in targets:
            assert vars(owner)[attribute] is not original
        for (module, name), original in zip(importers, before):
            assert getattr(module, name) is not original
    finally:
        tracer.uninstall()
    for owner, attribute, original in targets:
        assert vars(owner)[attribute] is original
    for (module, name), original in zip(importers, before):
        assert getattr(module, name) is original


# -- the result carries what BENCHMARK.json names, and nothing else ----------------------


def test_manifest_names_the_code_s_metrics_and_workloads():
    listed = manifest()
    assert {m["name"]: m["unit"] for m in listed["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in listed["per_layer"]} == run.per_layer_units()
    assert {w["name"]: w["why"] for w in listed["workloads"]} == {
        name: workload.why for name, workload in workloads.WORKLOADS.items()
    }
    assert listed["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_exactly_the_named_metrics(name):
    listed = manifest()
    untraced, detail = run.run_untraced(tiny(name), seed=5, seconds=0.0)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert list(untraced["metrics"]) == [m["name"] for m in listed["end_to_end"]]
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())
    assert detail["samples"]["setup_s"] == run.SETUP_REPEATS
    result = traced(name, 5)
    assert result["correct"], result
    assert list(result["metrics"]) == [m["name"] for m in listed["per_layer"]]
    # The traced pass is the same round as the untraced pass's first.
    assert result["metrics"]["quality_avg_ms"]["value"] == detail["outputs"]["quality_avg_ms"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_self_times_account_for_the_whole_traced_wall(name):
    metrics = traced(name, 5)["metrics"]
    in_units = sum(
        metrics[f"{span}.self_s"]["value"]
        for span in spans.SPAN_TARGETS
        if span != "workload.generator.generate"
    )
    assert in_units == pytest.approx(metrics["bench.traced_wall_s"]["value"], rel=1e-6)


# -- exact counts ------------------------------------------------------------------------


def exact(result: dict) -> dict:
    return {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if compare.is_exact(name, entry["unit"]) or name in compare.QUALITY
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_counts_repeat_for_one_seed_and_differ_across_seeds(name):
    first, again, other = traced(name, 5), traced(name, 5, repeat=1), traced(name, 6)
    assert exact(first) == exact(again)
    assert exact(first) != exact(other)


def test_layer_predictions_hold_at_tiny_size():
    replay = traced("replay-r1-nominal", 5)["metrics"]
    assert replay["workload.sampler.sample.calls"]["value"] == 0
    assert replay["harness.replay.beneficial_queries.calls"]["value"] == 2
    for name in ("design-r1-columnar", "design-htap-rowstore", "serve-ecommerce-columnar"):
        assert traced(name, 5)["metrics"]["harness.replay.beneficial_queries.calls"]["value"] == 0
    for name in ("design-r1-columnar", "design-htap-rowstore", "replay-r1-nominal"):
        assert traced(name, 5)["metrics"]["state.checkpoint.save.calls"]["value"] == 0
    serve = traced("serve-ecommerce-columnar", 5)["metrics"]
    assert serve["state.checkpoint.save.calls"]["value"] > 0
    assert serve["state.checkpoint.bytes_written"]["value"] > 0
    assert serve["workload.monitor.observe.calls"]["value"] >= serve["bench.traced_units"]["value"]
