"""Parallel execution backends — speedup and bit-identity measurements.

Runs the same Γ sweep (whole per-Γ replays, the backends' unit of
fan-out) on the serial backend and on the process backend, asserts the
two produce bit-identical results, and emits a JSON record of the
per-backend wall times.

The speedup assertion only fires on multi-core machines: on a single
core a process pool is pure overhead, and the honest result is the
measurement, not a forced pass.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -s
"""

import json
import os
import time

from repro.harness.experiments import run_gamma_sweep
from repro.parallel import ProcessBackend, SerialBackend

JOBS = 4


def test_gamma_sweep_backend_speedup(context, emit):
    gammas = [0.0, context.default_gamma("R1")]
    started = time.perf_counter()
    serial_sweep = run_gamma_sweep(context, "R1", gammas=gammas, backend=SerialBackend())
    serial_wall = time.perf_counter() - started

    with ProcessBackend(jobs=JOBS) as pool:
        started = time.perf_counter()
        process_sweep = run_gamma_sweep(context, "R1", gammas=gammas, backend=pool)
        process_wall = time.perf_counter() - started

    assert process_sweep == serial_sweep

    cpu = os.cpu_count() or 1
    record = {
        "benchmark": "gamma_sweep",
        "cpu_count": cpu,
        "jobs": JOBS,
        "gammas": len(gammas),
        "serial_wall_seconds": round(serial_wall, 4),
        "process_wall_seconds": round(process_wall, 4),
        "speedup": round(serial_wall / max(process_wall, 1e-9), 3),
        "bit_identical": True,
    }
    emit(json.dumps(record, indent=2))
    if cpu >= 4:
        assert record["speedup"] > 1.0
