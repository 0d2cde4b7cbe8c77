"""Structured run tracing: JSONL events with monotonic timestamps.

One :class:`RunTracer` writes one JSON object per line to a sink::

    {"event": "iteration", "seq": 12, "t": 8123.551, "index": 1, ...}

* ``event`` — the event name (see ``docs/observability.md`` for the
  catalog),
* ``seq`` — a per-tracer monotonically increasing sequence number (the
  deterministic ordering key),
* ``t`` — ``time.monotonic()`` at emission (the only field whose value
  is not deterministic across runs; every other field must be, so
  backend-equivalence tests can assert on event sequences).

Tracing is **off by default and zero-cost when off**: the active tracer
is a :data:`NULL_TRACER` whose ``emit`` is a no-op and whose ``enabled``
flag is ``False``, and the hot call sites guard with
``if t.enabled: t.emit(...)`` so disabled runs never even build the
event's keyword arguments.  Activation follows the :mod:`logging`
pattern — a process-wide active tracer (:func:`tracer` /
:func:`set_tracer`) with a :func:`trace_to` context manager for the
common "write this run to a file" case.  Worker processes spawned by the
process backend inherit the default null tracer; all events of a
parallel run are emitted from the parent, which is what keeps serial and
process traces logically identical.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterator


class RunTracer:
    """Append structured events to a file-like sink as JSON lines.

    ``sink`` is any object with ``write(str)``; the tracer never closes
    sinks it did not open (see :meth:`open`).  ``clock`` is injectable
    for tests; it defaults to :func:`time.monotonic` so timestamps are
    immune to wall-clock adjustments and suitable for interval math.
    """

    #: Guard flag for hot call sites (``if t.enabled: t.emit(...)``).
    enabled = True

    def __init__(self, sink: IO[str], clock: Callable[[], float] = time.monotonic):
        self._sink = sink
        self._clock = clock
        self._seq = 0
        self._lock = threading.Lock()
        self._owns_sink = False

    @classmethod
    def open(cls, path: str | Path) -> "RunTracer":
        """A tracer appending to ``path`` (closed by :meth:`close`)."""
        tracer = cls(Path(path).open("a", encoding="utf-8"))
        tracer._owns_sink = True
        return tracer

    def emit(self, event: str, /, **fields) -> None:
        """Write one event.  Field values should be JSON-serializable;
        anything that is not falls back to ``repr`` (tracing must never
        crash the run it observes)."""
        with self._lock:
            record: dict[str, object] = {"event": event, "seq": self._seq, "t": self._clock()}
            record.update(fields)
            self._seq += 1
            self._sink.write(
                json.dumps(record, separators=(",", ":"), default=repr) + "\n"
            )

    def flush(self) -> None:
        flush = getattr(self._sink, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        """Flush, and close the sink if this tracer opened it."""
        self.flush()
        if self._owns_sink:
            self._sink.close()

    def __enter__(self) -> "RunTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False

    def emit(self, event: str, /, **fields) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc) -> None:
        pass


#: The process-default tracer; call sites fall back to it when no run
#: tracer is active, so tracing costs one truthiness check when off.
NULL_TRACER = NullTracer()

_active: RunTracer | NullTracer = NULL_TRACER


def tracer() -> RunTracer | NullTracer:
    """The currently active tracer (the null tracer when tracing is off)."""
    return _active


def set_tracer(new: RunTracer | NullTracer | None) -> RunTracer | NullTracer:
    """Install ``new`` as the active tracer (``None`` = disable).

    Returns the previously active tracer so callers can restore it —
    :func:`trace_to` does exactly that.
    """
    global _active
    previous = _active
    _active = NULL_TRACER if new is None else new
    return previous


@contextmanager
def trace_to(path: str | Path) -> Iterator[RunTracer]:
    """Activate a JSONL tracer appending to ``path`` for one block::

        with trace_to("run.jsonl"):
            session.design()

    The previous active tracer is restored (and the file closed) on
    exit, even on error.
    """
    run_tracer = RunTracer.open(path)
    previous = set_tracer(run_tracer)
    try:
        yield run_tracer
    finally:
        set_tracer(previous)
        run_tracer.close()
