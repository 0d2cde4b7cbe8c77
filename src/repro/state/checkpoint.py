"""Crash-safe run snapshots: atomic, versioned, digest-verified.

A production tuner is a long-lived, restartable process: a crash, OOM,
or preemption anywhere inside a multi-window replay, a Γ-sweep, or a
many-iteration CliffGuard run must not throw away every designer call
and cost-model evaluation already paid for.  :class:`RunCheckpointer`
is the one writer/reader of run snapshots; the long-running entry
points (:meth:`repro.core.cliffguard.CliffGuard.design`,
:func:`repro.harness.replay.replay`, the experiment grids, and the
serve daemon) call it at their natural boundaries — iteration, window,
Γ-point, designer — and restore from it on resume.

Snapshot file format (version 4; version 1 and 2 payloads carried
per-(design, query) cost-cache exports, a version-3 serve payload
carried its query lists and ledger as one object per query, and all
three are refused)::

    <one JSON header line>\\n<binary pickle payload>

The header carries ``magic``, ``version``, ``kind`` (which entry point
wrote the snapshot), ``key`` (a digest of the run's identifying
parameters — see :func:`run_key`), ``payload_bytes``, and ``digest``, a
blake2b content hash of the payload bytes that is re-verified on every
load.  The payload is a pickle of plain run state (designs, workloads,
numpy bit-generator states, cost-service counters) written by this
codebase for this codebase; treat checkpoint files like any other
trusted local state, not as an interchange format.

Atomicity contract: the payload is written to a same-directory
temporary file, flushed, ``fsync``\\ ed, and then :func:`os.replace`\\ d
over the target (with a best-effort directory fsync), so a crash at any
instant leaves either the previous complete snapshot or the new
complete snapshot on disk — never a torn file.  A snapshot that fails
digest, magic, or size verification raises
:class:`CheckpointCorruptError` instead of resuming from garbage;
a snapshot written by a different run configuration raises
:class:`CheckpointMismatchError` instead of silently mixing runs.

Fault injection: ``crash_after=N`` makes the checkpointer raise
:class:`SimulatedCrash` immediately *after* the N-th snapshot write
completes (the file is already durable — exactly the state a ``kill
-9`` right after a checkpoint leaves behind); the
``REPRO_STATE_CRASH_AFTER`` environment variable does the same with a
real ``SIGKILL``, which is what the CI kill/resume leg uses.  The
fault-injection suite in ``tests/test_state.py`` sweeps ``crash_after``
over every boundary and asserts resumed == uninterrupted.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
from hashlib import blake2b
from pathlib import Path

from repro.obs import MetricsRegistry, get_metrics, tracer

#: Bump when the payload layout changes incompatibly; loaders refuse
#: snapshots from other versions rather than guessing.
FORMAT_VERSION = 4
#: File-type marker in the header line.
MAGIC = "repro-state"
#: Environment variable: SIGKILL the process after N checkpoint writes.
CRASH_ENV = "REPRO_STATE_CRASH_AFTER"


class CheckpointError(RuntimeError):
    """Base class for checkpoint load/save failures."""


class CheckpointCorruptError(CheckpointError):
    """The snapshot file is torn, truncated, or fails digest verification."""


class CheckpointVersionError(CheckpointError):
    """The snapshot was written by an incompatible format version."""


class CheckpointMismatchError(CheckpointError):
    """The snapshot belongs to a different run (kind or key mismatch)."""


class SimulatedCrash(BaseException):
    """Raised by the fault-injection hook right after a durable write.

    Derives from :class:`BaseException` so ordinary ``except Exception``
    recovery code cannot accidentally swallow the simulated kill.
    """


def run_key(*parts) -> str:
    """Digest of a run's identifying parameters.

    Callers pass everything that must match between the checkpointed run
    and the resuming run (scale knobs, workload, engine, Γ, designer
    list, …); two runs share a key iff every part's ``repr`` matches.
    """
    h = blake2b(digest_size=12)
    for part in parts:
        h.update(repr(part).encode("utf-8", "surrogatepass"))
        h.update(b"\x00")
    return h.hexdigest()


def _payload_digest(payload: bytes) -> str:
    return blake2b(payload, digest_size=16).hexdigest()


class RunCheckpointer:
    """Writes and reads atomic run snapshots at one filesystem path.

    One checkpointer serves one run and one file; the *latest* snapshot
    wins (each write replaces the previous one — resume only ever needs
    the most recent boundary).  ``every`` thins the write frequency:
    only every ``every``-th :meth:`step` call actually writes, trading
    recovery granularity for lower overhead on very tight loops.

    ``resume=False`` (the default) ignores any existing file: the run
    starts fresh and the first write replaces the old snapshot.  With
    ``resume=True``, :meth:`load` returns the snapshot payload after
    verifying its digest, format version, and run identity.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        every: int = 1,
        resume: bool = False,
        metrics: MetricsRegistry | None = None,
        crash_after: int | None = None,
    ):
        if every < 1:
            raise ValueError("every must be at least 1")
        if crash_after is not None and crash_after < 1:
            raise ValueError("crash_after must be at least 1 when set")
        self.path = Path(path)
        self.every = every
        self.resume = resume
        self._metrics = metrics
        self.crash_after = crash_after
        env = os.environ.get(CRASH_ENV)
        #: SIGKILL (not an exception) after N writes — the CI leg's hook.
        self._kill_after = int(env) if env else None
        self.writes = 0
        self.steps = 0

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics if self._metrics is not None else get_metrics()

    # -- writing ---------------------------------------------------------------

    def step(self, kind: str, key: str, make_payload) -> bool:
        """One boundary passed; write a snapshot if it is due.

        ``make_payload`` is a zero-argument callable returning the state
        dict — called only when this step actually writes, so skipped
        boundaries never pay for cache exports or rng captures.  Returns
        whether a snapshot was written.
        """
        self.steps += 1
        if self.steps % self.every != 0:
            self.metrics.counter("state.checkpoint_skips").inc()
            return False
        self.save(kind, key, make_payload())
        return True

    def save(self, kind: str, key: str, payload) -> None:
        """Atomically replace the snapshot file with ``payload``."""
        started = time.perf_counter()
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps(
            {
                "magic": MAGIC,
                "version": FORMAT_VERSION,
                "kind": kind,
                "key": key,
                "payload_bytes": len(body),
                "digest": _payload_digest(body),
            },
            separators=(",", ":"),
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        try:
            with temp.open("wb") as sink:
                sink.write(header.encode("utf-8") + b"\n")
                sink.write(body)
                sink.flush()
                os.fsync(sink.fileno())
            os.replace(temp, self.path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        self._fsync_directory()
        self.writes += 1
        elapsed = time.perf_counter() - started
        registry = self.metrics
        registry.counter("state.checkpoint_writes").inc()
        registry.gauge("state.payload_bytes").set(len(body))
        registry.histogram("state.write_seconds").observe(elapsed)
        t = tracer()
        if t.enabled:
            t.emit(
                "checkpoint_write",
                kind=kind,
                path=str(self.path),
                bytes=len(body),
                write=self.writes,
            )
        self._maybe_crash()

    def _fsync_directory(self) -> None:
        """Best-effort fsync of the containing directory (so the rename
        itself is durable); not all platforms/filesystems allow it."""
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def _maybe_crash(self) -> None:
        if self.crash_after is not None and self.writes >= self.crash_after:
            raise SimulatedCrash(
                f"simulated crash after checkpoint write #{self.writes}"
            )
        if self._kill_after is not None and self.writes >= self._kill_after:
            # The real thing: die without unwinding, exactly like an OOM
            # kill or preemption.  The snapshot just written is durable.
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

    # -- reading ---------------------------------------------------------------

    def load(self, kind: str, key: str):
        """The latest snapshot's payload, or ``None`` when not resuming.

        Returns ``None`` when ``resume`` is off or no snapshot file
        exists (the run starts fresh).  Raises
        :class:`CheckpointCorruptError` /
        :class:`CheckpointVersionError` /
        :class:`CheckpointMismatchError` when a file exists but cannot
        be trusted for this run — resuming from a wrong or damaged
        snapshot would silently corrupt results, so it is never
        attempted.
        """
        if not self.resume or not self.path.exists():
            return None
        raw = self.path.read_bytes()
        newline = raw.find(b"\n")
        if newline < 0:
            raise CheckpointCorruptError(f"{self.path}: missing snapshot header")
        try:
            header = json.loads(raw[:newline])
        except ValueError as error:
            raise CheckpointCorruptError(
                f"{self.path}: unreadable snapshot header"
            ) from error
        if header.get("magic") != MAGIC:
            raise CheckpointCorruptError(
                f"{self.path}: not a repro checkpoint (magic {header.get('magic')!r})"
            )
        if header.get("version") != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{self.path}: snapshot format v{header.get('version')} "
                f"is not supported (this build reads v{FORMAT_VERSION})"
            )
        body = raw[newline + 1 :]
        if len(body) != header.get("payload_bytes"):
            raise CheckpointCorruptError(
                f"{self.path}: truncated snapshot "
                f"({len(body)} of {header.get('payload_bytes')} payload bytes)"
            )
        if _payload_digest(body) != header.get("digest"):
            raise CheckpointCorruptError(
                f"{self.path}: snapshot payload fails digest verification"
            )
        if header.get("kind") != kind or header.get("key") != key:
            raise CheckpointMismatchError(
                f"{self.path}: snapshot belongs to a different run "
                f"(kind={header.get('kind')!r}, expected {kind!r}; "
                "re-run with the original configuration or drop --resume)"
            )
        payload = pickle.loads(body)
        registry = self.metrics
        registry.counter("state.checkpoint_loads").inc()
        t = tracer()
        if t.enabled:
            t.emit(
                "checkpoint_load",
                kind=kind,
                path=str(self.path),
                bytes=len(body),
            )
        return payload
