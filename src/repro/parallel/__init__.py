"""Parallel execution backends for the embarrassingly parallel loops.

The harness repeats CliffGuard's design loop across Γ values,
designers, and window transitions, and every one of those replays is
independent of the others.  This package provides one
:class:`~repro.parallel.backends.ExecutionBackend` abstraction — serial,
thread-pool, and process-pool implementations selected by a single
``backend``/``jobs`` knob — whose ``map`` returns results in task order,
so every backend produces bit-identical results at any worker count.

Fan-out is **whole-task only**.  The sites routed through it:

* :func:`repro.harness.experiments.run_gamma_sweep` (per-Γ replays),
* :func:`repro.harness.experiments.run_designer_comparison` (per-designer
  replays, on more than one worker) and
  :func:`repro.harness.experiments.run_schedule_comparison`
  (per-(designer, period) replays),
* the online daemon (:mod:`repro.serve`), which uses
  :meth:`~repro.parallel.backends.ExecutionBackend.submit` to launch one
  background re-design at a time and polls the
  ``concurrent.futures.Future`` it returns from its loop thread while
  ingestion continues.

Nothing fans out *inside* one pricing call: the costing service
(:mod:`repro.costing.service`) prices in process on every backend — the
kernel reduction it could split is ~1% of a design run's wall, and the
thread-chunk and shared-memory fan-outs that once split it measured
slower than the serial path at every batch size.
"""

from repro.parallel.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backend_from_env,
    resolve_backend,
)

__all__ = [
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "backend_from_env",
    "resolve_backend",
]
