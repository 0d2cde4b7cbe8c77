"""Tests for the execution backends (repro.parallel).

The fault-injection workers are pid-gated: they fail only inside a pool
worker process, so the serial retry *in the parent* succeeds — exactly the
degradation path the backends promise.  Accounting is read as deltas of
the ``parallel.*`` instruments in the metrics registry.
"""

import os
from collections import Counter
from concurrent.futures import BrokenExecutor

import pytest

from repro.obs import get_metrics
from repro.parallel import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backend_from_env,
    resolve_backend,
)
from repro.parallel.backends import ENV_BACKEND, ENV_JOBS

_PARENT_PID = os.getpid()


def _double(task):
    return task * 2


def _fail_in_worker(task):
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker failure")
    return task * 2


def _exit_in_worker(task):
    if os.getpid() != _PARENT_PID:
        os._exit(13)
    return task * 2


_ATTEMPTS = Counter()

_COUNTERS = ("parallel.map_calls", "parallel.tasks", "parallel.retries")


def _counts() -> Counter:
    """The ``parallel.*`` counters, and the ``map_seconds`` sample count."""
    snapshot = get_metrics().snapshot()
    counts = Counter({name: snapshot.get(name, 0) for name in _COUNTERS})
    counts["parallel.map_seconds"] = snapshot.get("parallel.map_seconds", {}).get("count", 0)
    return counts


def _fail_first_attempt(task):
    _ATTEMPTS[task] += 1
    if _ATTEMPTS[task] == 1:
        raise RuntimeError("injected first-attempt failure")
    return task * 2


class TestMapContract:
    @pytest.mark.parametrize(
        "make",
        [SerialBackend, lambda: ThreadBackend(jobs=3), lambda: ProcessBackend(jobs=2)],
        ids=["serial", "thread", "process"],
    )
    def test_map_preserves_order(self, make):
        before = _counts()
        with make() as backend:
            assert backend.map(_double, list(range(20))) == [
                i * 2 for i in range(20)
            ]
            assert backend.map(_double, []) == []
        delta = _counts() - before
        assert delta["parallel.map_calls"] == 2
        assert delta["parallel.map_seconds"] == 2
        assert delta["parallel.tasks"] == 20
        assert delta["parallel.retries"] == 0

    def test_serial_forces_single_job(self):
        assert SerialBackend().jobs == 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ThreadBackend(jobs=-1)


class TestFaultTolerance:
    def test_process_task_failure_retried_serially(self):
        before = _counts()
        with ProcessBackend(jobs=2) as backend:
            assert backend.map(_fail_in_worker, [1, 2, 3]) == [2, 4, 6]
        assert (_counts() - before)["parallel.retries"] == 3

    def test_process_worker_crash_recovered(self):
        # os._exit kills the worker: the pool breaks, every in-flight task
        # fails with BrokenExecutor, and all of them are retried serially.
        before = _counts()
        with ProcessBackend(jobs=2) as backend:
            assert backend.map(_exit_in_worker, [1, 2, 3, 4]) == [2, 4, 6, 8]
        assert (_counts() - before)["parallel.retries"] == 4

    def test_thread_task_failure_retried_serially(self):
        _ATTEMPTS.clear()
        before = _counts()
        with ThreadBackend(jobs=2) as backend:
            assert backend.map(_fail_first_attempt, [10, 11]) == [20, 22]
        assert (_counts() - before)["parallel.retries"] == 2

    def test_submit_on_a_broken_pool_runs_inline(self):
        # The worker's exit breaks the pool; the next submit degrades to
        # an inline run and drops the broken pool without joining it.
        backend = ProcessBackend(jobs=1)
        with pytest.raises(BrokenExecutor):
            backend.submit(_exit_in_worker, 1).result(timeout=60)
        future = backend.submit(_double, 2)
        assert future.done() and future.result() == 4
        assert backend._pool is None
        assert backend.map(_double, [3]) == [6]  # a fresh pool
        backend.shutdown()

    def test_shutdown_joins_every_worker(self):
        backend = ProcessBackend(jobs=2)
        assert backend.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        workers = list(backend._pool._processes.values())
        assert workers
        backend.shutdown()
        assert [w.pid for w in workers if w.is_alive()] == []

    def test_pool_usable_after_shutdown(self):
        backend = ThreadBackend(jobs=2)
        assert backend.map(_double, [1]) == [2]
        backend.shutdown()
        assert backend.map(_double, [2]) == [4]
        backend.shutdown()


class TestResolution:
    def test_resolve_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread", jobs=3), ThreadBackend)
        assert isinstance(resolve_backend("process", jobs=2), ProcessBackend)
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")
        with pytest.raises(ValueError):
            resolve_backend(42)
        with pytest.raises(ValueError, match="serial, thread, process, auto"):
            resolve_backend(None)

    def test_env_selection(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert isinstance(backend_from_env(), SerialBackend)
        assert isinstance(resolve_backend("auto"), SerialBackend)

        monkeypatch.setenv(ENV_BACKEND, "process")
        monkeypatch.setenv(ENV_JOBS, "2")
        backend = backend_from_env()
        assert isinstance(backend, ProcessBackend)
        assert backend.jobs == 2

        via_auto = resolve_backend("auto")
        assert isinstance(via_auto, ProcessBackend)
        assert via_auto.jobs == 2
