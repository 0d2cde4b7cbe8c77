"""Execution backends: serial, thread pool, and process pool.

One abstraction — :class:`ExecutionBackend` — with three implementations
selected by a single ``backend``/``jobs`` knob (:func:`resolve_backend`).
All backends share the same contract:

* :meth:`ExecutionBackend.map` preserves task order: ``results[i]`` is
  ``fn(tasks[i])`` no matter which worker ran it or when it finished, so
  callers reassemble results deterministically.
* **Graceful degradation** — a worker crash or a poisoned task never
  loses the run: the failed task is logged and retried once *serially in
  the parent*; only a task that also fails in the parent propagates its
  exception.
* **Exact accounting** — workers never mutate shared state.  They return
  plain values; the caller merges them (cache deltas, counters) in the
  parent, which is what keeps instrumentation bit-identical to serial.

For :class:`ProcessBackend`, ``fn`` must be a module-level callable and
every task payload must be picklable.
"""

from __future__ import annotations

import abc
import logging
import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, ThreadPoolExecutor

from repro.obs import get_metrics, tracer

logger = logging.getLogger("repro.parallel")

#: Environment knobs honored by :func:`backend_from_env` — the hook the CI
#: matrix uses to run the whole tier-1 suite on the process backend.
ENV_BACKEND = "REPRO_BACKEND"
ENV_JOBS = "REPRO_JOBS"

_UNSET = object()


def settled(fn, *args) -> Future:
    """A ``Future`` that already holds ``fn(*args)``'s value or error."""
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


class ExecutionBackend(abc.ABC):
    """Ordered fan-out of ``fn`` over a task list."""

    #: Short name used in reports and the ``backend`` knob.
    name: str = "backend"

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs

    def map(self, fn, tasks) -> list:
        """``[fn(t) for t in tasks]``, scheduled by the backend."""
        tasks = list(tasks)
        metrics = get_metrics()
        metrics.counter("parallel.map_calls").inc()
        metrics.counter("parallel.tasks").inc(len(tasks))
        started = time.perf_counter()
        try:
            if not tasks:
                return []
            return self._run(fn, tasks)
        finally:
            metrics.histogram("parallel.map_seconds").observe(time.perf_counter() - started)

    @abc.abstractmethod
    def _run(self, fn, tasks: list) -> list:
        """Backend-specific scheduling of a non-empty task list."""

    def submit(self, fn, task) -> Future:
        """Launch one task in the background; returns its ``Future``.

        The serial backend runs the task inline *now* (the reference
        semantics — still deterministic, but the caller blocks), so the
        future it returns is already settled.  Errors never propagate
        from ``submit`` itself: they surface through the future, which
        is what lets a long-running caller degrade instead of dying.
        """
        get_metrics().counter("parallel.submits").inc()
        return settled(fn, task)

    def shutdown(self) -> None:
        """Release pooled workers (idempotent; the backend stays usable —
        pools are recreated lazily on the next ``map``)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} jobs={self.jobs}>"


class SerialBackend(ExecutionBackend):
    """Run every task inline in the parent (the reference semantics)."""

    name = "serial"

    def _run(self, fn, tasks: list) -> list:
        t = tracer()
        if not t.enabled:
            return [fn(task) for task in tasks]
        results: list = []
        for i, task in enumerate(tasks):
            t.emit("chunk_dispatch", backend=self.name, index=i, total=len(tasks))
            started = time.perf_counter()
            results.append(fn(task))
            t.emit(
                "chunk_complete",
                backend=self.name,
                index=i,
                total=len(tasks),
                seconds=time.perf_counter() - started,
            )
        return results


class _PoolBackend(ExecutionBackend):
    """Shared submit/collect/retry machinery for the executor backends."""

    def __init__(self, jobs: int | None = None):
        super().__init__(jobs=jobs or default_jobs())
        self._pool = None

    @abc.abstractmethod
    def _make_pool(self):
        """Create the concurrent.futures executor."""

    def _executor(self):
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def submit(self, fn, task) -> Future:
        """Launch one task on the pool without blocking the caller.

        If the pool cannot accept work (broken executor, interpreter
        shutdown) the task degrades to an inline run in the parent —
        same policy as :meth:`map`'s serial retry.
        """
        get_metrics().counter("parallel.submits").inc()
        try:
            return self._executor().submit(fn, task)
        except Exception as exc:
            logger.warning(
                "%s backend could not submit background task (%r); running inline",
                self.name,
                exc,
            )
            self.shutdown()
            return settled(fn, task)

    def _run(self, fn, tasks: list) -> list:
        t = tracer()
        started = time.perf_counter()
        results: list = [_UNSET] * len(tasks)
        failed: list[tuple[int, BaseException]] = []
        try:
            futures = []
            for i, task in enumerate(tasks):
                if t.enabled:
                    t.emit(
                        "chunk_dispatch", backend=self.name, index=i, total=len(tasks)
                    )
                futures.append(self._executor().submit(fn, task))
        except Exception as exc:  # pool is unusable — degrade fully serial
            logger.warning("%s backend could not submit (%r); running serially", self.name, exc)
            if t.enabled:
                t.emit(
                    "backend_degrade",
                    backend=self.name,
                    tasks=len(tasks),
                    error=repr(exc),
                )
            self.shutdown()
            failed = [(i, exc) for i in range(len(tasks))]
            futures = []
        broken = False
        for i, future in enumerate(futures):
            try:
                results[i] = future.result()
                if t.enabled:
                    # ``seconds`` is the wall time from this map() call's
                    # start until the chunk's result reached the parent.
                    t.emit(
                        "chunk_complete",
                        backend=self.name,
                        index=i,
                        total=len(tasks),
                        seconds=time.perf_counter() - started,
                    )
            except BrokenExecutor as exc:
                failed.append((i, exc))
                if not broken:
                    broken = True
                    self.shutdown()
            except Exception as exc:
                failed.append((i, exc))
        for i, exc in failed:
            logger.warning(
                "%s backend task %d/%d failed (%r); retrying serially in parent",
                self.name,
                i + 1,
                len(tasks),
                exc,
            )
            if t.enabled:
                t.emit(
                    "chunk_retry",
                    backend=self.name,
                    index=i,
                    total=len(tasks),
                    error=repr(exc),
                )
            retry_started = time.perf_counter()
            results[i] = fn(tasks[i])
            get_metrics().counter("parallel.retries").inc()
            if t.enabled:
                t.emit(
                    "chunk_complete",
                    backend=self.name,
                    index=i,
                    total=len(tasks),
                    seconds=time.perf_counter() - retry_started,
                    retried=True,
                )
        return results


class ThreadBackend(_PoolBackend):
    """Thread-pool backend.

    Shares memory with the parent, so tasks need not be picklable — but
    pure-Python cost models are GIL-bound here: its ``map`` was the
    slowest of the four backend values on every sweep measured
    (docs/api.md), so use the process backend for fan-out.  The class
    stays for ``submit``: the serve daemon's only in-process
    non-blocking re-design.
    """

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.jobs)


class ProcessBackend(_PoolBackend):
    """Process-pool backend (one Python per worker, no GIL contention).

    Tasks and ``fn`` cross a pickle boundary; workers return plain values
    that the caller merges in the parent.
    """

    name = "process"

    def _make_pool(self):
        return ProcessPoolExecutor(max_workers=self.jobs)


def default_jobs() -> int:
    """Worker count when ``jobs`` is not given: one per available core."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def backend_from_env() -> ExecutionBackend:
    """The backend selected by ``REPRO_BACKEND`` / ``REPRO_JOBS``, and a
    ``SerialBackend`` when the environment selects none.

    This is how the CI matrix runs the tier-1 suite on the process
    backend without touching any call site.
    """
    name = os.environ.get(ENV_BACKEND, "").strip().lower()
    if not name:
        return SerialBackend()
    jobs_text = os.environ.get(ENV_JOBS, "").strip()
    jobs = int(jobs_text) if jobs_text else None
    return resolve_backend(name, jobs=jobs)


def resolve_backend(
    backend: "ExecutionBackend | str",
    jobs: int | None = None,
) -> ExecutionBackend:
    """The single ``backend``/``jobs`` knob.

    ``backend`` is an :class:`ExecutionBackend` instance (returned
    as-is), one of ``"serial"``/``"thread"``/``"process"``, or
    ``"auto"`` (defer to :func:`backend_from_env`).  The designer
    comparison reads its worker count: one worker replays every designer
    over one cost service, more fan the designers out as cells.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if not isinstance(backend, str):
        raise ValueError(
            f"backend must be serial, thread, process, auto or an "
            f"ExecutionBackend, got {backend!r}"
        )
    name = backend.strip().lower()
    if name == "auto":
        return backend_from_env()
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(jobs=jobs)
    if name == "process":
        return ProcessBackend(jobs=jobs)
    raise ValueError(
        f"unknown backend {backend!r} (expected serial, thread, process, or auto)"
    )
