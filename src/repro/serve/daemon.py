"""The crash-restartable online tuning daemon.

One asyncio loop ingests a live query stream (any
:class:`~repro.serve.sources.QuerySource`), prices every query against
the deployed design, maintains a sliding
:class:`~repro.workload.monitor.WorkloadMonitor` window, and evaluates a
:class:`~repro.serve.policy.RedesignPolicy` at every window
boundary.  When the policy fires, a CliffGuard re-design launches **in
the background** on the session's execution backend
(:meth:`~repro.parallel.backends.ExecutionBackend.submit`) — ingestion
never stalls — and the loop polls the ``Future`` it gets back and swaps
the finished design in between two queries.

Pricing, polling, swapping and checkpointing all run on the loop's one
thread; only the re-design task itself runs elsewhere, and it touches
none of the daemon's state.  So the deployed design is plain state —
``design`` plus ``swaps``, which is also its epoch — and needs no lock.

Guarantees (docs/serving.md):

* **Zero dropped queries** — every ingested query is priced and
  recorded exactly once.
* **Per-query epoch consistency** — each query is priced against one
  design and recorded with that design's epoch; epochs never go
  backwards and never run ahead of the swap count.
* **Graceful degradation** — a crashed or slow background re-design
  leaves the old design serving; the failure is logged
  (``serve.degraded``) and the policy retries at a later boundary.
* **Crash-restartability** — the daemon checkpoints through
  :mod:`repro.state` at every window boundary and swap; a SIGKILLed
  daemon resumed with ``--resume`` replays to the identical stream
  position, window contents, and active design (deterministic in
  ``swap_mode="boundary"``; async swaps are wall-clock-timed by
  design).

The per-query hot path is synchronous and deterministic; asyncio enters
only at the stream edge, which is what keeps the kill-resume contract
testable.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from collections import deque
from concurrent.futures import Future, wait
from dataclasses import astuple, dataclass, replace

from repro.designers import registry
from repro.obs import get_metrics, tracer
from repro.parallel.backends import ExecutionBackend, settled
from repro.serve.config import ServeConfig
from repro.serve.handle import design_digest
from repro.serve.policy import RedesignPolicy
from repro.serve.sources import QuerySource
from repro.sql.analyzer import QueryTemplate
from repro.state import (
    RunCheckpointer,
    costing_state,
    designer_state,
    restore_costing,
    restore_designer,
    run_key,
)
from repro.state.capture import columns_queries, query_columns
from repro.workload.monitor import WorkloadMonitor
from repro.workload.query import WorkloadQuery
from repro.workload.workload import Workload

#: Checkpoint kind for daemon snapshots (docs/state.md kinds table).
CHECKPOINT_KIND = "serve"

#: Recent queries retained as the perturbation pool of background
#: re-designs.
HISTORY_LIMIT = 4000

#: Retention bound on the drift monitor's in-memory reading/alarm logs
#: (and hence on their share of every checkpoint).  Lifetime totals are
#: tracked separately, so the outcome counts are exact whatever the bound.
MONITOR_LOG_LIMIT = 512

#: Per-re-design seed stride: each background re-design gets its own
#: deterministic sampler stream (seed + stride * redesign_index), so a
#: resumed daemon relaunching re-design *k* draws identical neighbors.
REDESIGN_SEED_STRIDE = 9973


@dataclass(frozen=True)
class PricedQuery:
    """One ingested query's pricing record."""

    position: int
    timestamp: float
    epoch: int
    cost_ms: float | None


class Ledger:
    """The priced-query log (``ServeConfig.record_queries``) as typed
    columns: ``timestamps`` and ``costs`` in ``array('d')``, ``epochs``
    in ``array('q')``.

    Entry *i* is stream position *i* — the log is contiguous from 0, so
    positions are implicit.  A rejected query (priced ``None``) holds
    0.0 in ``costs`` and its position in ``rejected``, so no cost value
    doubles as the marker.  :meth:`records` materialises the
    :class:`PricedQuery` list once, when the run is over; a snapshot
    pickles the four columns, not one object per query.
    """

    __slots__ = ("timestamps", "epochs", "costs", "rejected")

    def __init__(
        self,
        timestamps: array | None = None,
        epochs: array | None = None,
        costs: array | None = None,
        rejected: array | None = None,
    ):
        self.timestamps = array("d") if timestamps is None else timestamps
        self.epochs = array("q") if epochs is None else epochs
        self.costs = array("d") if costs is None else costs
        #: Positions priced ``None``, ascending.
        self.rejected = array("q") if rejected is None else rejected

    def __len__(self) -> int:
        return len(self.costs)

    def append(self, timestamp: float, epoch: int, cost_ms: float | None) -> None:
        if cost_ms is None:
            self.rejected.append(len(self.costs))
            cost_ms = 0.0
        self.timestamps.append(timestamp)
        self.epochs.append(epoch)
        self.costs.append(cost_ms)

    def columns(self) -> tuple[array, array, array, array]:
        """``(timestamps, epochs, costs, rejected)``; the inverse of
        ``Ledger(*columns)``."""
        return self.timestamps, self.epochs, self.costs, self.rejected

    def records(self) -> list[PricedQuery]:
        rejected = set(self.rejected)
        return [
            PricedQuery(position, timestamp, epoch, None if position in rejected else cost)
            for position, (timestamp, epoch, cost) in enumerate(
                zip(self.timestamps, self.epochs, self.costs)
            )
        ]


@dataclass
class PendingRedesign:
    """One background re-design in flight."""

    index: int
    window: Workload
    task: tuple
    launch_position: int
    #: ``perf_counter()`` at launch (or relaunch, on resume): the clock
    #: ``ServeConfig.redesign_timeout`` runs on.
    started: float
    job: Future | None = None
    #: Inline (learner) re-designs finish at launch; their
    #: ``(design, seconds)`` result rides in the checkpoint (with the
    #: seconds at 0) so a resumed daemon installs the stored design
    #: instead of re-running the learner (which would double-advance
    #: its model and RNG stream).
    result: tuple | None = None


@dataclass
class ServeOutcome:
    """Summary of one daemon run (returned by ``RobustDesignSession.serve``)."""

    workload: str
    engine: str
    position: int = 0
    windows: int = 0
    triggers: int = 0
    redesigns_launched: int = 0
    redesigns_failed: int = 0
    swaps: int = 0
    final_epoch: int = 0
    final_design: object = None
    final_design_digest: str = ""
    structure_count: int = 0
    design_price_bytes: int = 0
    drift_readings: int = 0
    drift_alarms: int = 0
    priced: list[PricedQuery] | None = None
    resumed: bool = False
    wall_seconds: float = 0.0

    @property
    def dropped(self) -> int:
        """Ingested-but-unpriced queries (the invariant says zero)."""
        if self.priced is None:
            return 0
        return self.position - len(self.priced)


#: Warm (context, adapter, nominal) stack reused across the background
#: re-designs of one daemon (single entry — a daemon prices one
#: (scale, engine) pair; with the process backend each worker keeps its
#: own).  Reuse keeps the costing service's arenas and structure stores
#: hot between window re-designs; the warm path is bit-identical to a
#: cold stack (docs/cost_model.md, "One store of structure columns per
#: arena"), so resume determinism is unaffected.
_STACK_MEMO: dict = {}


def _redesign_stack(scale, engine):
    # Local import: the harness imports this package (``replay`` reads
    # its sources), so the daemon loads while the harness initialises.
    from repro.harness.experiments import ExperimentContext, _engine_stack

    key = (astuple(scale), engine)
    hit = _STACK_MEMO.get(key)
    if hit is None:
        context = ExperimentContext(scale)
        adapter, nominal = _engine_stack(context, engine)
        _STACK_MEMO.clear()
        _STACK_MEMO[key] = hit = (context, adapter, nominal)
    return hit


def _redesign_task(task):
    """One background CliffGuard re-design (module-level: process task).

    Rebuilds (or reuses) the experiment context from the scale —
    deterministic given the scale's seed and the re-design index, so
    relaunching the same task after a crash lands on the bit-identical
    design.
    """
    from repro.workload.sampler import NeighborhoodSampler

    scale, engine, designer_name, gamma, redesign_index, window_queries, pool = task
    started = time.perf_counter()
    context, adapter, nominal = _redesign_stack(scale, engine)

    def make_sampler():
        return NeighborhoodSampler(
            context.distance,
            context.schema,
            seed=scale.seed + REDESIGN_SEED_STRIDE * (redesign_index + 1),
        )

    designer, sampler = registry.get(
        designer_name,
        adapter,
        nominal,
        gamma,
        make_sampler=make_sampler,
        n_samples=scale.n_samples,
        max_iterations=scale.iterations,
    )
    if sampler is not None and pool:
        sampler.set_pool(list(pool))
    design = designer.design(Workload(list(window_queries)))
    return design, time.perf_counter() - started


def _window_columns(window: Workload | None):
    return None if window is None else query_columns(window)


def _columns_window(columns) -> Workload | None:
    return None if columns is None else Workload(columns_queries(columns))


def _task_columns(task: tuple) -> tuple:
    """A re-design task with its window and history as columns."""
    *head, window_queries, pool = task
    return (*head, query_columns(window_queries), query_columns(pool))


def _columns_task(task: tuple) -> tuple:
    *head, window_queries, pool = task
    return (*head, tuple(columns_queries(window_queries)), tuple(columns_queries(pool)))


class ServeDaemon:
    """The online tuning loop.  Built by the api facade; see
    :meth:`repro.api.RobustDesignSession.serve`."""

    def __init__(
        self,
        *,
        scale,
        workload: str,
        engine: str,
        gamma: float,
        designer: str,
        adapter,
        source: QuerySource,
        policy: RedesignPolicy,
        window_days: float,
        serve: ServeConfig,
        backend: ExecutionBackend,
        distance,
        threshold: float,
        checkpointer: RunCheckpointer | None = None,
        learner=None,
    ):
        self.scale = scale
        self.workload = workload
        self.engine = engine
        self.gamma = gamma
        self.designer_name = designer
        self.adapter = adapter
        self.source = source
        self.policy = policy
        self.window_days = window_days
        self.serve = serve
        self.backend = backend
        self.checkpointer = checkpointer
        #: An online-learning designer instance (``learns_online``), or
        #: ``None`` for classic background re-designs by name.  The
        #: learner lives in the daemon process: it observes every window
        #: boundary and designs inline there, so feedback accumulated
        #: between launch and swap is never lost to a worker copy.
        self.learner = learner
        self.monitor = WorkloadMonitor(
            distance,
            threshold,
            window_days=window_days,
            measure_every_days=max(window_days / 4.0, 1e-9),
            refractory_days=window_days,
            max_log_entries=MONITOR_LOG_LIMIT,
        )
        # -- mutable run state (everything below is checkpointed) --------------
        #: The deployed design; its epoch is ``swaps``.
        self.design = adapter.empty_design()
        self.position = 0
        self.window_anchor: float | None = None
        self.window_index = 0
        self.windows_seen = 0
        self.triggers = 0
        self.redesigns_launched = 0
        self.redesigns_failed = 0
        self.design_window: Workload | None = None
        self.pending: PendingRedesign | None = None
        self.history: deque[WorkloadQuery] = deque(maxlen=HISTORY_LIMIT)
        self.ledger: Ledger | None = Ledger() if serve.record_queries else None
        self.swaps = 0
        self.resumed = False
        self._swap_dirty = False
        self._state_key = run_key(
            CHECKPOINT_KIND,
            astuple(scale),
            workload,
            engine,
            gamma,
            designer,
            serve.policy,
            threshold,
            serve.every,
            window_days,
            serve.min_window_queries,
            serve.swap_mode,
            serve.max_queries,
            HISTORY_LIMIT,
            MONITOR_LOG_LIMIT,
            serve.record_queries,
        )

    # -- checkpointing -----------------------------------------------------------

    # Every query list in a snapshot — the history, both monitor windows,
    # the design window and the pending task's — is pickled as columns
    # (repro.state.capture.query_columns), and the ledger as its own.

    def _payload(self) -> dict:
        monitor = self.monitor.state()
        monitor["current"] = query_columns(monitor["current"])
        monitor["reference"] = _window_columns(monitor["reference"])
        return {
            "position": self.position,
            "window_anchor": self.window_anchor,
            "window_index": self.window_index,
            "windows_seen": self.windows_seen,
            "triggers": self.triggers,
            "redesigns_launched": self.redesigns_launched,
            "redesigns_failed": self.redesigns_failed,
            "swaps": self.swaps,
            "epoch": self.swaps,
            "design": self.design,
            "design_window": _window_columns(self.design_window),
            "policy": self.policy.state(),
            "monitor": monitor,
            "history": query_columns(self.history),
            "priced": None if self.ledger is None else self.ledger.columns(),
            "pending": None
            if self.pending is None
            else {
                "index": self.pending.index,
                "window": query_columns(self.pending.window),
                "task": _task_columns(self.pending.task),
                "launch_position": self.pending.launch_position,
                # The design without its wall-clock seconds: a snapshot
                # holds no timing (docs/state.md).
                "result": None
                if self.pending.result is None
                else (self.pending.result[0], 0.0),
            },
            "learner": designer_state(self.learner)
            if self.learner is not None
            else None,
            "costing": costing_state(self.adapter),
        }

    def _checkpoint(self, boundary: str, force: bool = False) -> None:
        if self.checkpointer is None:
            return
        if force:
            self.checkpointer.save(CHECKPOINT_KIND, self._state_key, self._payload())
        else:
            self.checkpointer.step(CHECKPOINT_KIND, self._state_key, self._payload)

    def _restore(self) -> bool:
        if self.checkpointer is None:
            return False
        state = self.checkpointer.load(CHECKPOINT_KIND, self._state_key)
        if state is None:
            return False
        self.position = state["position"]
        self.window_anchor = state["window_anchor"]
        self.window_index = state["window_index"]
        self.windows_seen = state["windows_seen"]
        self.triggers = state["triggers"]
        self.redesigns_launched = state["redesigns_launched"]
        self.redesigns_failed = state["redesigns_failed"]
        self.swaps = state["swaps"]
        self.design = state["design"]
        self.design_window = _columns_window(state["design_window"])
        self.policy.restore(state["policy"])
        monitor = dict(state["monitor"])
        monitor["current"] = columns_queries(monitor["current"])
        monitor["reference"] = _columns_window(monitor["reference"])
        self.monitor.restore(monitor)
        self.history = deque(
            columns_queries(state["history"]), maxlen=HISTORY_LIMIT
        )
        if self.ledger is not None:
            self.ledger = Ledger(*state["priced"])
        restore_costing(self.adapter, state["costing"])
        if self.learner is not None:
            restore_designer(self.learner, state.get("learner"))
        pending = state["pending"]
        if pending is not None:
            self.pending = PendingRedesign(
                index=pending["index"],
                window=Workload(columns_queries(pending["window"])),
                task=_columns_task(pending["task"]),
                launch_position=pending["launch_position"],
                started=time.perf_counter(),
                result=pending.get("result"),
            )
            if self.pending.result is not None:
                # An inline learner re-design: the design was computed
                # before the snapshot and the learner state already
                # reflects it — install the stored result rather than
                # re-running the learner.
                self.pending.job = settled(lambda: pending["result"])
            else:
                # The in-flight job died with the process; relaunch it.
                # The task tuple fully determines the design, so the
                # resumed run swaps in the identical result.
                self.pending.job = self.backend.submit(
                    _redesign_task, self.pending.task
                )
        self.resumed = True
        return True

    # -- hot path ----------------------------------------------------------------

    def _price(self, query: WorkloadQuery) -> tuple[float | None, QueryTemplate | None]:
        """``(cost_ms, template)`` under the deployed design: the query's
        cost and its template (both ``None`` when it is unpriceable),
        shared by the pricing and the drift monitor.  The text is bound to
        its shape's plan; only a new shape is parsed.  The profile is used
        once and dropped (``annotate``): a stream's texts rarely recur, so
        the profiler's memo does not keep them."""
        try:
            profile, template = self.adapter.annotate(query.sql)
        except ValueError:
            return None, None
        if profile.is_write:
            get_metrics().counter("writes.ingested").inc()
        return self.adapter.query_cost(profile, self.design), template

    def _ingest(self, query: WorkloadQuery) -> None:
        # A query stamped before the newest one the drift window holds
        # (clients merged in arrival order) is late: it is priced and
        # recorded with its own timestamp, while the window index, the
        # monitor and the history see it at that newest timestamp.
        newest = self.monitor.newest
        late = newest is not None and query.timestamp < newest
        placed = replace(query, timestamp=newest) if late else query
        if self.window_anchor is None:
            self.window_anchor = placed.timestamp
        index = int((placed.timestamp - self.window_anchor) // self.window_days)
        while index > self.window_index:
            # Increment first: every checkpoint written inside the
            # boundary (window step, forced swap save) must snapshot the
            # post-boundary index, or a resumed run re-fires the boundary.
            completed = self.window_index
            self.window_index += 1
            self._boundary(completed)
        cost, template = self._price(query)
        self.position += 1
        metrics = get_metrics()
        if late:
            metrics.counter("serve.late").inc()
        if cost is None:
            # Unpriceable (malformed SQL, an unknown table): the ledger
            # records it, but it stays out of the drift window and the
            # re-design history, which re-parse what they hold (a
            # restored window, a re-design's workload).
            metrics.counter("serve.rejected").inc()
        else:
            self.monitor.observe(placed, template)
            self.history.append(placed)
        if self.ledger is not None:
            self.ledger.append(query.timestamp, self.swaps, cost)
        metrics.counter("serve.ingested").inc()
        metrics.gauge("serve.epoch").set(self.swaps)

    # -- boundary machinery --------------------------------------------------------

    def _boundary(self, index: int) -> None:
        """A window boundary was crossed; ``index`` is the completed window."""
        self.windows_seen += 1
        window = self.monitor.current_window
        t = tracer()
        metrics = get_metrics()
        metrics.counter("serve.windows").inc()
        metrics.gauge("serve.window_fill").set(len(window))
        metrics.gauge("serve.backlog").set(self.source.backlog())
        last_reading = self.monitor.readings[-1].distance if self.monitor.readings else None
        if t.enabled:
            t.emit(
                "serve.window",
                index=index,
                position=self.position,
                fill=len(window),
                epoch=self.swaps,
                distance=last_reading,
                backlog=self.source.backlog(),
            )
        if self.learner is not None and len(window):
            # Feedback before any swap: the completed window was served
            # by the *current* active design, so its observed costs must
            # credit that design's structures (docs/designers.md).
            self._observe_window(window)
        if self.pending is not None and self.serve.swap_mode == "boundary":
            # Deterministic barrier: the swap decision depends only on
            # the boundary index, never on wall-clock timing (unless the
            # re-design outlives ``redesign_timeout``).
            self._await_pending()
        self._poll_pending()
        if self.pending is None and len(window) >= self.serve.min_window_queries:
            if self.policy.should_redesign(index, self.design_window, window):
                self.triggers += 1
                metrics.counter("serve.triggers").inc()
                if t.enabled:
                    t.emit(
                        "serve.trigger",
                        index=index,
                        position=self.position,
                        policy=self.serve.policy,
                        distance=last_reading,
                    )
                self._launch(index, window)
        force = self._swap_dirty
        self._swap_dirty = False
        self._checkpoint("window", force=force)

    def _observe_window(self, window: Workload) -> None:
        """Feed one completed window's observed costs to the learner.

        Every query in the window was priced at ingest (rejected ones
        never enter it), so the whole window prices again here, each
        text bound to the plan ingest kept for its shape: no text is
        parsed again."""
        queries = list(window.collapsed())
        report = self.adapter.workload_cost(queries, self.design)
        observed = {query.sql: cost for query, cost in zip(queries, report.per_query_ms)}
        self.learner.observe(window, self.design, observed)
        get_metrics().counter("serve.learner_observations").inc()

    def _launch(self, index: int, window: Workload) -> None:
        task = (
            self.scale,
            self.engine,
            self.designer_name,
            self.gamma,
            self.redesigns_launched,
            tuple(window),
            tuple(self.history),
        )
        self.pending = PendingRedesign(
            index=self.redesigns_launched,
            window=window,
            task=task,
            launch_position=self.position,
            started=time.perf_counter(),
        )
        self.redesigns_launched += 1
        get_metrics().counter("serve.redesigns").inc()
        t = tracer()
        if t.enabled:
            t.emit(
                "serve.redesign",
                index=self.pending.index,
                window=index,
                position=self.position,
                window_queries=len(window),
                backend="inline" if self.learner is not None else self.backend.name,
            )
        if self.learner is not None:
            # Online learners design in-process: shipping the model to a
            # worker and importing it back would lose every observation
            # made between launch and swap.  The design is cheap (one
            # candidate evaluation — that is the point of the bandit),
            # and the finished result still flows through the pending/
            # swap machinery so both swap modes behave identically.
            design = self.learner.design(window)
            seconds = time.perf_counter() - self.pending.started
            result = self.pending.result = (design, seconds)
            self.pending.job = settled(lambda: result)
        else:
            self.pending.job = self.backend.submit(_redesign_task, task)

    def _time_left(self) -> float | None:
        """Seconds the in-flight re-design has left under
        ``redesign_timeout`` (``None``: no timeout)."""
        timeout = self.serve.redesign_timeout
        if timeout is None:
            return None
        return max(0.0, self.pending.started + timeout - time.perf_counter())

    def _expire(self) -> None:
        """Abandon an in-flight re-design that outlived its timeout.  A
        task already running in a worker cannot be stopped; its result
        is dropped when it lands."""
        self.pending.job.cancel()
        self._degrade(TimeoutError(f"re-design exceeded {self.serve.redesign_timeout}s"))

    def _poll_pending(self) -> None:
        """Non-blocking progress check on the in-flight re-design."""
        if self.pending is None:
            return
        if not self.pending.job.done():
            if self._time_left() == 0.0:
                self._expire()
        elif self.serve.swap_mode == "async":
            self._finish_pending()

    def _await_pending(self) -> None:
        """Block on the in-flight re-design — for at most the time left
        on its timeout — then swap it in or degrade."""
        if wait([self.pending.job], timeout=self._time_left()).done:
            self._finish_pending()
        else:
            self._expire()

    def _finish_pending(self) -> None:
        pending = self.pending
        try:
            design, design_seconds = pending.job.result()
        except Exception as error:  # the task's own error, a cancel, a broken pool
            self._degrade(error)
            return
        self.design = design
        self.swaps += 1
        self.design_window = pending.window
        self.monitor.rebase(pending.window)
        stale = self.position - pending.launch_position
        self.pending = None
        metrics = get_metrics()
        metrics.counter("serve.swaps").inc()
        metrics.histogram("serve.redesign_seconds").observe(design_seconds)
        metrics.histogram("serve.swap_stale_queries").observe(stale)
        metrics.gauge("serve.epoch").set(self.swaps)
        t = tracer()
        if t.enabled:
            t.emit(
                "serve.swap",
                redesign=pending.index,
                epoch=self.swaps,
                retired_epoch=self.swaps - 1,
                position=self.position,
                stale_queries=stale,
                design_seconds=design_seconds,
                structures=len(self.adapter.structures(design)),
                price_bytes=self.adapter.design_price(design),
            )
        # A swap moves the design the whole stream is priced against, so
        # it must be durable — but the snapshot may only be written at a
        # resumable point (end of boundary, or between two queries), not
        # here: a _boundary caller still owes its trigger check, and a
        # snapshot taken now would skip it on resume.  Flag instead; the
        # control points below force a save.
        self._swap_dirty = True

    def _degrade(self, error: BaseException) -> None:
        pending = self.pending
        self.pending = None
        self.redesigns_failed += 1
        get_metrics().counter("serve.redesign_failures").inc()
        t = tracer()
        if t.enabled:
            t.emit(
                "serve.degraded",
                redesign=pending.index,
                position=self.position,
                epoch=self.swaps,
                error=repr(error),
            )

    # -- the loop ------------------------------------------------------------------

    async def run_async(self) -> ServeOutcome:
        started = time.perf_counter()
        resumed = self._restore()
        t = tracer()
        if t.enabled:
            t.emit(
                "serve.start",
                workload=self.workload,
                engine=self.engine,
                source=self.source.describe(),
                policy=self.serve.policy,
                swap_mode=self.serve.swap_mode,
                window_days=self.window_days,
                position=self.position,
                resumed=resumed,
            )
        # Fast-forward a resumed run: replayable sources re-yield the
        # stream from the top; live producers re-send it (repro feed
        # always does).  Either way the daemon skips what it already
        # processed — monitor, policy, and costing state came from the
        # snapshot.
        skip = self.position
        stream = self.source.stream()
        try:
            async for query in stream:
                if skip > 0:
                    skip -= 1
                    continue
                self._poll_pending()
                if self._swap_dirty:
                    # Async-mode swap between two queries: durable here,
                    # before the next query is priced against it.
                    self._swap_dirty = False
                    self._checkpoint("swap", force=True)
                self._ingest(query)
                if (
                    self.serve.max_queries is not None
                    and self.position >= self.serve.max_queries
                ):
                    break
        finally:
            await stream.aclose()
        if self.pending is not None:
            if self.serve.drain:
                self._await_pending()
            else:
                self.pending.job.cancel()
                self._degrade(
                    asyncio.CancelledError("daemon stopped with re-design in flight")
                )
        self._checkpoint("stop", force=True)
        outcome = self._outcome(resumed, time.perf_counter() - started)
        if t.enabled:
            t.emit(
                "serve.stop",
                position=outcome.position,
                windows=outcome.windows,
                triggers=outcome.triggers,
                swaps=outcome.swaps,
                failures=outcome.redesigns_failed,
                epoch=outcome.final_epoch,
                digest=outcome.final_design_digest,
            )
        return outcome

    def run(self) -> ServeOutcome:
        """Drive :meth:`run_async` to completion on a fresh event loop."""
        return asyncio.run(self.run_async())

    def _outcome(self, resumed: bool, wall: float) -> ServeOutcome:
        return ServeOutcome(
            workload=self.workload,
            engine=self.engine,
            position=self.position,
            windows=self.windows_seen,
            triggers=self.triggers,
            redesigns_launched=self.redesigns_launched,
            redesigns_failed=self.redesigns_failed,
            swaps=self.swaps,
            final_epoch=self.swaps,
            final_design=self.design,
            final_design_digest=design_digest(self.adapter, self.design),
            structure_count=len(self.adapter.structures(self.design)),
            design_price_bytes=self.adapter.design_price(self.design),
            drift_readings=self.monitor.readings_total,
            drift_alarms=self.monitor.alarms_total,
            priced=None if self.ledger is None else self.ledger.records(),
            resumed=resumed,
            wall_seconds=wall,
        )
