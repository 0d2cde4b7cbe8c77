"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures and prints
it.  The default scale is the fast, seeded "smoke" scale; set
``REPRO_BENCH_SCALE=paper`` for a run closer to the paper's 12-month trace
(expect a multi-hour wall clock).
"""

from __future__ import annotations

import os

import pytest

from repro.harness.experiments import (
    ExperimentContext,
    paper_scale,
    smoke_scale,
)
from repro.parallel import backend_from_env


def _scale():
    if os.environ.get("REPRO_BENCH_SCALE", "smoke") == "paper":
        return paper_scale()
    return smoke_scale()


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """One shared context: schema, traces, and windows are cached across
    the whole benchmark session."""
    return ExperimentContext(_scale())


@pytest.fixture(scope="session")
def backend():
    """Execution backend from ``REPRO_BACKEND``/``REPRO_JOBS`` (serial
    when none is given).  Results are bit-identical on every backend;
    only the wall clock changes."""
    executor = backend_from_env()
    yield executor
    executor.shutdown()


@pytest.fixture(scope="session")
def emit():
    """Printer fixture: renders a table/series under the benchmark output."""

    def _emit(text: str) -> None:
        print()
        print(text)

    return _emit
