"""`QuerySource` — the single source-of-queries abstraction.

Batch harnesses (``replay``/``scheduled_replay``) and the online daemon
(:mod:`repro.serve.daemon`) consume queries through the same protocol:

* :class:`TraceSource` wraps a fixed trace (the batch case, and the
  daemon's self-driving mode).  It is *replayable*: iterating it twice
  yields the same queries, which is what makes ``--resume``
  fast-forwarding possible.
* :class:`QueueSource` is the in-process live source — producers ``put``
  :class:`~repro.workload.query.WorkloadQuery` objects on an
  ``asyncio.Queue`` from the serving loop's thread.
* :class:`SocketSource` is the wire frontend — a newline-JSON
  (:mod:`repro.serve.protocol`) TCP or Unix-socket listener; any number
  of clients may connect and their streams merge in arrival order.

Live sources are **not** replayable: after a crash the daemon relies on
the producer re-sending the stream (the ``repro feed`` client always
sends from the top) and skips the first ``position`` queries itself.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
from abc import ABC, abstractmethod
from typing import AsyncIterator, Iterable

from repro.serve.protocol import SHUTDOWN_OP, ProtocolError, ServeControl, decode_line
from repro.workload.query import WorkloadQuery
from repro.workload.windows import split_windows
from repro.workload.workload import Workload


class QuerySource(ABC):
    """A stream of timestamp-ordered :class:`WorkloadQuery` objects."""

    #: Human-readable kind tag (used in events and run keys).
    name: str = "source"

    #: Replayable sources yield the identical stream on every call to
    #: :meth:`stream` — a resumed run can fast-forward through them.
    replayable: bool = False

    @abstractmethod
    def stream(self) -> AsyncIterator[WorkloadQuery]:
        """Asynchronously yield queries until the stream ends."""

    def windows(self) -> list[Workload]:
        """The full stream split into calendar windows (bounded sources only)."""
        raise TypeError(f"{type(self).__name__} is unbounded; it cannot be windowed")

    def backlog(self) -> int:
        """Queries received but not yet consumed (0 for pull sources)."""
        return 0

    def describe(self) -> str:
        """A stable one-line description (for events and run keys)."""
        return self.name


class TraceSource(QuerySource):
    """A fixed, finite, replayable trace of queries."""

    name = "trace"
    replayable = True

    def __init__(self, queries: Iterable[WorkloadQuery] | Workload, window_days: float | None = None):
        items = sorted(queries, key=lambda q: q.timestamp)
        self._queries: tuple[WorkloadQuery, ...] = tuple(items)
        self.window_days = window_days
        self._windows: tuple[Workload, ...] | None = None

    @classmethod
    def from_windows(cls, windows: Iterable[Workload], window_days: float | None = None) -> "TraceSource":
        """Wrap an already-split window list.

        The given windows are returned verbatim by :meth:`windows` (no
        re-split), so migrating a ``replay(windows, ...)`` call site to
        ``replay(TraceSource.from_windows(windows), ...)`` is exactly
        value-preserving — same window boundaries, same indices, even
        for window lists not produced by :func:`split_windows`.
        """
        windows = tuple(windows)
        source = cls(
            [query for window in windows for query in window],
            window_days=window_days,
        )
        source._windows = windows
        return source

    def queries(self) -> tuple[WorkloadQuery, ...]:
        return self._queries

    def __len__(self) -> int:
        return len(self._queries)

    def windows(self) -> list[Workload]:
        if self._windows is not None:
            return list(self._windows)
        if self.window_days is None:
            raise ValueError("window_days is required to window this trace")
        return split_windows(list(self._queries), self.window_days)

    async def stream(self) -> AsyncIterator[WorkloadQuery]:
        for query in self._queries:
            yield query

    def describe(self) -> str:
        span = self._queries[-1].timestamp - self._queries[0].timestamp if self._queries else 0.0
        return f"trace({len(self._queries)} queries, {span:.1f} days)"


class QueueSource(QuerySource):
    """An in-process live source fed through an ``asyncio.Queue``.

    Producers call :meth:`put` (from a coroutine) or
    :meth:`put_nowait` (from plain code on the loop thread), then
    :meth:`close` to end the stream.
    """

    name = "queue"
    replayable = False

    _CLOSE = object()

    def __init__(self, maxsize: int = 0):
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)

    async def put(self, query: WorkloadQuery) -> None:
        await self._queue.put(query)

    def put_nowait(self, query: WorkloadQuery) -> None:
        self._queue.put_nowait(query)

    def close(self) -> None:
        """End the stream once everything already queued is consumed."""
        self._queue.put_nowait(self._CLOSE)

    def backlog(self) -> int:
        return self._queue.qsize()

    async def stream(self) -> AsyncIterator[WorkloadQuery]:
        while True:
            item = await self._queue.get()
            if item is self._CLOSE:
                return
            yield item


class SocketSource(QuerySource):
    """A newline-JSON socket frontend (Unix-domain or TCP).

    The listener starts when :meth:`stream` is first iterated and stops
    when a client sends a ``shutdown`` control record.  Malformed lines
    are counted (``protocol_errors``) and skipped — a misbehaving client
    must not take the tuner down.  Multiple clients may connect; their
    queries merge in arrival order.
    """

    name = "socket"
    replayable = False

    def __init__(self, path: str | None = None, host: str | None = None, port: int | None = None):
        if (path is None) == (host is None):
            raise ValueError("give exactly one of path= (unix) or host=/port= (tcp)")
        if host is not None and port is None:
            raise ValueError("tcp sockets need a port (0 picks a free one)")
        self.path = path
        self.host = host
        self.port = port
        #: Resolved TCP port once listening (useful when ``port=0``).
        self.bound_port: int | None = None
        self.protocol_errors = 0
        self._queue: asyncio.Queue | None = None
        self._server: asyncio.AbstractServer | None = None
        self._client_tasks: set[asyncio.Task] = set()

    def backlog(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    def describe(self) -> str:
        if self.path is not None:
            return f"socket(unix:{self.path})"
        return f"socket(tcp:{self.host}:{self.bound_port or self.port})"

    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    record = decode_line(line)
                except ProtocolError:
                    self.protocol_errors += 1
                    continue
                await self._queue.put(record)
        except asyncio.CancelledError:
            # Exit cleanly when reaped: 3.11's streams machinery calls
            # task.exception() on the handler task unconditionally, which
            # logs a cancelled task as an unhandled error.
            pass
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            # No wait_closed() here: the server sends nothing, and an
            # await inside this finally would re-raise cancellation at
            # loop teardown as an unretrieved task exception.
            writer.close()

    async def stream(self) -> AsyncIterator[WorkloadQuery]:
        self._queue = asyncio.Queue()
        if self.path is not None:
            # A SIGKILLed daemon leaves the socket file behind; a
            # resumed daemon must be able to bind the same address.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.path)
            self._server = await asyncio.start_unix_server(self._handle_client, path=self.path)
        else:
            self._server = await asyncio.start_server(self._handle_client, host=self.host, port=self.port)
            self.bound_port = self._server.sockets[0].getsockname()[1]
        try:
            while True:
                item = await self._queue.get()
                if isinstance(item, ServeControl):
                    if item.op == SHUTDOWN_OP:
                        return
                    continue  # unknown control ops are ignored (forward compat)
                yield item
        finally:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            # Reap handler tasks for clients still connected, so the
            # event loop shuts down with no stray cancellations to log.
            for task in list(self._client_tasks):
                task.cancel()
            if self._client_tasks:
                await asyncio.gather(*self._client_tasks, return_exceptions=True)
            self._client_tasks.clear()
            self._server = None
            if self.path is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self.path)


def resolve_source(spec: "QuerySource | str") -> QuerySource:
    """Build a source from a spec string (``unix:PATH`` / ``tcp:HOST:PORT``).

    :class:`QuerySource` instances pass through unchanged, so facade and
    CLI call sites can accept either form.
    """
    if isinstance(spec, QuerySource):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"source must be a QuerySource or spec string, got {type(spec).__name__}")
    if spec.startswith("unix:"):
        return SocketSource(path=spec[len("unix:"):])
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(f"tcp source spec must be tcp:HOST:PORT, got {spec!r}")
        return SocketSource(host=host or "127.0.0.1", port=int(port))
    raise ValueError(f"unknown source spec {spec!r} (expected unix:PATH or tcp:HOST:PORT)")


def as_windows(windows) -> list[Workload]:
    """A bounded :class:`QuerySource`'s stream as ``list[Workload]``.

    Fixed workloads are wrapped with :meth:`TraceSource.from_windows`;
    anything that is not a :class:`QuerySource` is a ``TypeError``.
    """
    if not isinstance(windows, QuerySource):
        raise TypeError(
            "windows must be a bounded QuerySource (wrap fixed windows with "
            f"TraceSource.from_windows), got {type(windows).__name__}"
        )
    return windows.windows()
