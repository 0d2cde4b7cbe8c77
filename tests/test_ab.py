"""The A/B runner's summary (``benchmarks/ab.py``) on canned result
lines, as ``benchmarks/e2e/run.py --trace 0`` prints them; no run is
made."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BETTER = {"unit_ms_p50": "lower", "peak_rss_mb": "lower"}


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(p50: float, rss: float, correct: bool = True, failed: int = 0) -> dict:
    """A run's last line of standard output, parsed as the runner does."""
    return json.loads(
        f'{{"correct": {json.dumps(correct)}, "attempted": 100, "failed": {failed}, '
        f'"metrics": {{"unit_ms_p50": {{"value": {p50}, "unit": "ms"}}, '
        f'"peak_rss_mb": {{"value": {rss}, "unit": "MB"}}}}}}'
    )


def test_a_resolved_gain_and_an_unresolved_metric():
    base = [0.076, 0.078, 0.075, 0.077, 0.079, 0.076]
    change = [0.045, 0.046, 0.044, 0.047, 0.044, 0.080]
    rss = [(120.0 + k, 121.0 + (-1) ** k) for k in range(6)]
    pairs = {
        "serve": [
            (_line(b, r0), _line(c, r1)) for b, c, (r0, r1) in zip(base, change, rss)
        ]
    }
    lines, failed = _ab().summarize(pairs, BETTER)
    assert not failed
    p50, memory = lines
    assert p50.startswith("serve  unit_ms_p50  base 0.0765 [0.076–0.07775]")
    assert "ahead 5/6" in p50 and p50.endswith("-")  # 5 of 6 is under nine tenths
    assert memory.endswith("-")
    pairs["serve"] = pairs["serve"][:5]
    lines, _ = _ab().summarize(pairs, BETTER)
    assert "ahead 5/5" in lines[0] and lines[0].endswith("better")


def test_a_resolved_loss_and_head_against_itself():
    runs = [_line(1.0 + k / 100, 100.0) for k in range(10)]
    slower = [_line(2.0 + k / 100, 100.0) for k in range(10)]
    lines, failed = _ab().summarize({"w": list(zip(runs, slower))}, BETTER)
    assert not failed and lines[0].endswith("worse") and "change/base 1.9" in lines[0]
    lines, failed = _ab().summarize({"w": list(zip(runs, runs))}, BETTER)
    assert not failed
    assert all(line.endswith("-") and "ahead 0/10" in line for line in lines)


def test_a_failed_run_fails_the_comparison():
    good = _line(1.0, 100.0)
    for bad in (_line(1.0, 100.0, correct=False), _line(1.0, 100.0, failed=2)):
        lines, failed = _ab().summarize({"w": [(good, good), (good, bad)]}, BETTER)
        assert failed
        assert lines == ["w  FAILED runs: 1 (change)"]


def test_empty_or_garbled_output_is_a_failed_run(monkeypatch):
    ab = _ab()
    for stdout in ("", "no result here\n", '{"detail": {}}\n'):
        completed = subprocess.CompletedProcess([], 0, stdout=stdout, stderr="")
        monkeypatch.setattr(ab.subprocess, "run", lambda *a, _c=completed, **k: _c)
        assert ab.run(ROOT, "w", 1, 1.0) == ab.FAILED_RUN
    lines, failed = ab.summarize({"w": [(ab.FAILED_RUN, _line(1.0, 100.0))]}, BETTER)
    assert failed and lines == ["w  FAILED runs: 1 (base)"]


def test_a_zero_base_median_has_no_ratio():
    lines, failed = _ab().summarize({"w": [(_line(0.0, 100.0), _line(1.0, 100.0))]}, BETTER)
    assert not failed and "change/base n/a" in lines[0]


def test_a_row_past_its_bound_fails_the_comparison():
    base = [_line(1.0 + k / 100, 100.0) for k in range(4)]
    within = [_line(1.2 + k / 100, 114.0) for k in range(4)]  # +20 % p50, +14 % rss
    past = [_line(1.3 + k / 100, 116.0) for k in range(4)]  # +30 % p50, +16 % rss
    bounds = {"unit_ms_p50": 0.25, "peak_rss_mb": 0.15}
    lines, failed = _ab().summarize({"w": list(zip(base, within))}, BETTER, bounds)
    assert not failed and not any("past bound" in line for line in lines)
    lines, failed = _ab().summarize({"w": list(zip(base, past))}, BETTER, bounds)
    assert failed and all(line.endswith("worse  past bound") for line in lines)
    lines, failed = _ab().summarize({"w": list(zip(past, base))}, BETTER, bounds)
    assert not failed and all(line.endswith("better") for line in lines)
