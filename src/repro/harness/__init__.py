"""Evaluation harness: windowed replay, experiments, reporting.

* :mod:`repro.harness.replay` — the design→deploy→evaluate replay loop of
  Section 6.1 (design on window ``W_i``, evaluate on ``W_{i+1}``), every
  window or when a re-design policy fires,
* :mod:`repro.harness.experiments` — one entry point per paper table and
  figure,
* :mod:`repro.harness.reporting` — fixed-width tables and ASCII series.
"""

from repro.harness.replay import (
    DesignerRun,
    ReplayResult,
    WindowOutcome,
    beneficial_queries,
    replay,
)
from repro.harness.reporting import format_series, format_table

__all__ = [
    "DesignerRun",
    "ReplayResult",
    "WindowOutcome",
    "beneficial_queries",
    "format_series",
    "format_table",
    "replay",
]
