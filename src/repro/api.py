"""The stable public entry point: ``RunConfig`` + ``RobustDesignSession``.

Before this module, launching a run meant hand-wiring
``ExperimentScale`` → ``ExperimentContext`` → adapter → nominal designer
→ sampler → ``CliffGuard`` with ~13 constructor kwargs.  The facade
collapses that to::

    from repro import RobustDesignSession, RunConfig

    session = RobustDesignSession(RunConfig(workload="R1", jobs=4, backend="process"))
    outcome = session.design()        # robust design for the latest window
    sweep = session.sweep()           # Figures 8-9: the Γ knob
    comparison = session.replay()     # Figure 7: the designer zoo

``RunConfig`` is a frozen dataclass that validates every knob at
construction; ``RobustDesignSession`` owns the lazily built context,
engine stack, and execution backend (see :mod:`repro.parallel`).  The
``backend``/``jobs`` pair is the single parallelism knob: ``sweep()``,
``replay()`` and ``schedule()`` fan out whole per-Γ / per-designer
replays across workers and ``serve()`` runs its re-designs in the
background on it; a single ``design()`` call prices in process on every
backend (its costing kernel is ~1% of the run — nothing worth splitting).

The configuration is split in two: ``RunConfig`` is the **batch core**
(workload, engine, scale, search effort, backend, observability), and
:class:`repro.serve.ServeConfig` is the **streaming half** (stream
source, window length, re-design policy, swap/checkpoint cadence).  A
serving session is the pair::

    session = repro.serve_session(RunConfig(workload="R1"),
                                  ServeConfig(policy="drift"))
    outcome = session.serve()         # the online tuning daemon

Everything — CLI, tests, examples — drives the daemon through this same
facade; there is no second configuration path (docs/serving.md).
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace

from repro.core.cliffguard import CliffGuardReport
from repro.designers import registry
from repro.obs import MetricsRegistry, RunTracer, get_metrics, set_tracer
from repro.harness.experiments import (
    ExperimentContext,
    ExperimentScale,
    _engine_stack,
    run_designer_comparison,
    run_gamma_sweep,
    run_schedule_comparison,
)
from repro.harness.replay import ReplayResult
from repro.harness.scheduler import (
    DriftTriggeredPolicy,
    PeriodicPolicy,
    ScheduleOutcome,
)
from repro.parallel.backends import ExecutionBackend, SerialBackend, resolve_backend
from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeDaemon, ServeOutcome
from repro.serve.sources import QuerySource, TraceSource, resolve_source
from repro.state import RunCheckpointer
from repro.workload.workload import Workload

WORKLOADS = ("R1", "S1", "S2", "OLTP", "ECOMMERCE", "HTAP")
ENGINES = ("columnar", "rowstore")
BACKENDS = ("auto", "serial", "thread", "process")


@dataclass(frozen=True)
class RunConfig:
    """Every *batch* knob of a run, validated once, immutable thereafter.

    ``backend="auto"`` defers to the ``REPRO_BACKEND``/``REPRO_JOBS``
    environment (falling back to serial) — that is how the CI matrix runs
    the whole suite on the process backend without touching call sites.

    Streaming knobs (stream source, sliding-window length, re-design
    policy, swap cadence) live in :class:`repro.serve.ServeConfig`; a
    serving session is the ``(RunConfig, ServeConfig)`` pair — see
    :meth:`RobustDesignSession.serve` and docs/serving.md.
    """

    #: Trace profile: drifting retail (R1), static (S1), drifting (S2).
    workload: str = "R1"
    #: Engine substrate: Vertica-like columnar or DBMS-X-like row store.
    engine: str = "columnar"
    #: Trace length in days.
    days: int = 196
    #: Replay window size in days.
    window_days: int = 28
    #: Workload intensity.
    queries_per_day: int = 15
    #: Γ-neighborhood sample count n (paper default 20).
    n_samples: int = 10
    #: CliffGuard iteration budget (paper default 5).
    iterations: int = 5
    #: Seed for trace generation and neighborhood sampling.
    seed: int = 42
    #: Robustness knob Γ; ``None`` derives it from average past drift.
    gamma: float | None = None
    #: Legacy (never-queried) tables padding the schema.
    legacy_tables: int = 200
    #: Train→test transitions evaluated per replay (``None`` = all).
    max_transitions: int | None = 1
    #: Warm-up transitions skipped at the start of every replay.
    skip_transitions: int = 3
    #: Storage budget as a fraction of raw data bytes.
    budget_fraction: float = 0.5
    #: Execution backend: "auto", "serial", "thread", "process", an
    #: :class:`~repro.parallel.backends.ExecutionBackend` instance, or
    #: ``None`` for no backend: sweeps and schedule grids then run their
    #: cells on a ``SerialBackend``, and ``replay()`` compares the
    #: designers over one shared cost service (docs/api.md).
    backend: ExecutionBackend | str | None = "auto"
    #: Worker count for the thread/process backends (``None`` = one per core).
    jobs: int | None = None
    #: Per-task timeout (seconds) before a task is retried serially.
    task_timeout: float | None = None
    #: JSONL trace file (appended).  When set, the session activates a
    #: :class:`repro.obs.RunTracer` around every entry point (``design``,
    #: ``replay``, ``sweep``, ``schedule``) — see docs/observability.md
    #: for the event schema.  ``None`` disables tracing (zero overhead).
    trace_path: str | os.PathLike | None = None
    #: Metrics registry the session publishes into (``None`` = the
    #: process-wide default, :func:`repro.obs.get_metrics`).
    metrics: MetricsRegistry | None = None
    #: Checkpoint file for crash-safe resume (docs/state.md).  When set,
    #: every entry point snapshots its progress at natural boundaries
    #: (iteration, window transition, Γ-point, grid cell) through a
    #: :class:`repro.state.RunCheckpointer`; ``None`` disables
    #: checkpointing entirely (zero overhead).
    checkpoint_path: str | os.PathLike | None = None
    #: Write a snapshot every N boundaries (1 = every boundary).
    checkpoint_every: int = 1
    #: Resume from the snapshot at ``checkpoint_path`` when one exists.
    #: A resumed run is bit-identical to an uninterrupted one.
    resume: bool = False

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(f"workload must be one of {WORKLOADS}, got {self.workload!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        for name in ("days", "window_days", "queries_per_day", "n_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.days < self.window_days:
            raise ValueError("days must cover at least one window")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.gamma is not None and not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and non-negative when set, got {self.gamma!r}")
        if self.legacy_tables < 0:
            raise ValueError("legacy_tables must be non-negative")
        if self.max_transitions is not None and self.max_transitions < 1:
            raise ValueError("max_transitions must be at least 1 when set")
        if self.skip_transitions < 0:
            raise ValueError("skip_transitions must be non-negative")
        if not 0 < self.budget_fraction <= 1:
            raise ValueError("budget_fraction must be in (0, 1]")
        if self.backend is not None and not isinstance(self.backend, ExecutionBackend):
            if not isinstance(self.backend, str) or self.backend not in BACKENDS:
                raise ValueError(
                    f"backend must be one of {BACKENDS} or an ExecutionBackend, "
                    f"got {self.backend!r}"
                )
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be at least 1 when set")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive when set")
        if self.trace_path is not None and not isinstance(
            self.trace_path, (str, os.PathLike)
        ):
            raise ValueError(
                f"trace_path must be a path, got {self.trace_path!r}"
            )
        if self.metrics is not None and not isinstance(self.metrics, MetricsRegistry):
            raise ValueError(
                f"metrics must be a repro.obs.MetricsRegistry, got {self.metrics!r}"
            )
        if self.checkpoint_path is not None and not isinstance(
            self.checkpoint_path, (str, os.PathLike)
        ):
            raise ValueError(
                f"checkpoint_path must be a path, got {self.checkpoint_path!r}"
            )
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if self.resume and self.checkpoint_path is None:
            raise ValueError("resume requires checkpoint_path")

    def with_overrides(self, **overrides) -> "RunConfig":
        """A copy with some knobs replaced (re-validated)."""
        return replace(self, **overrides)

    def scale(self) -> ExperimentScale:
        """The harness-level size knobs this config implies."""
        return ExperimentScale(
            days=self.days,
            window_days=self.window_days,
            queries_per_day=self.queries_per_day,
            n_samples=self.n_samples,
            iterations=self.iterations,
            seed=self.seed,
            legacy_tables=self.legacy_tables,
            max_transitions=self.max_transitions,
            skip_transitions=self.skip_transitions,
            budget_fraction=self.budget_fraction,
        )


@contextmanager
def _activated(tracer: RunTracer):
    """Install ``tracer`` as the process-active tracer for one block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.flush()


@dataclass
class DesignOutcome:
    """Result of one :meth:`RobustDesignSession.design` call."""

    #: The robust design (engine-specific design object).
    design: object
    #: Individual structures inside the design.
    structures: list = field(default_factory=list)
    #: Total bytes of the design (the paper's ``price(D)``).
    price_bytes: int = 0
    #: CliffGuard's run trace, including cost-call effort and the
    #: costing wall-time.
    report: CliffGuardReport | None = None
    #: Wall-clock seconds of the whole design call.
    wall_seconds: float = 0.0


class RobustDesignSession:
    """One configured run: context, engine stack, backend — lazily built.

    The session is the supported way to launch runs; the CLI, the
    benchmark suite, and the examples all construct through it.  Use as a
    context manager (or call :meth:`close`) to release pooled workers.
    """

    def __init__(
        self,
        config: RunConfig | None = None,
        serve: ServeConfig | None = None,
        **overrides,
    ):
        if config is None:
            config = RunConfig(**overrides)
        elif overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self.serve_config = serve
        self._context: ExperimentContext | None = None
        self._backend: ExecutionBackend | None = None
        self._backend_resolved = False
        self._adapter = None
        self._nominal = None
        self._tracer: RunTracer | None = None
        self._checkpointer: RunCheckpointer | None = None

    # -- lazily built pieces -----------------------------------------------------

    @property
    def context(self) -> ExperimentContext:
        """Schema, traces, and windows at the configured scale."""
        if self._context is None:
            self._context = ExperimentContext(self.config.scale())
        return self._context

    @property
    def backend(self) -> ExecutionBackend | None:
        """The resolved execution backend (``None`` = none given)."""
        if not self._backend_resolved:
            self._backend = resolve_backend(
                self.config.backend,
                jobs=self.config.jobs,
                task_timeout=self.config.task_timeout,
            )
            self._backend_resolved = True
        return self._backend

    @property
    def adapter(self):
        """The engine adapter (one shared in-process costing service)."""
        if self._adapter is None:
            self._adapter, self._nominal = _engine_stack(
                self.context, self.config.engine
            )
        return self._adapter

    @property
    def nominal(self):
        """The engine's nominal ("existing") designer."""
        self.adapter
        return self._nominal

    @property
    def gamma(self) -> float:
        """The robustness knob: configured, or derived from past drift."""
        if self.config.gamma is not None:
            return self.config.gamma
        return self.context.default_gamma(self.config.workload)

    # -- observability ---------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this session publishes into."""
        return self.config.metrics if self.config.metrics is not None else get_metrics()

    @property
    def checkpointer(self) -> RunCheckpointer | None:
        """The crash-safe snapshot writer (``None`` when unconfigured)."""
        if self.config.checkpoint_path is None:
            return None
        if self._checkpointer is None:
            self._checkpointer = RunCheckpointer(
                self.config.checkpoint_path,
                every=self.config.checkpoint_every,
                resume=self.config.resume,
                metrics=self.config.metrics,
            )
        return self._checkpointer

    def _tracing(self):
        """Context that activates the session tracer (no-op when
        ``trace_path`` is unset — disabled tracing costs nothing)."""
        if self.config.trace_path is None:
            return nullcontext()
        if self._tracer is None:
            self._tracer = RunTracer.open(self.config.trace_path)
        return _activated(self._tracer)

    def _publish_metrics(self) -> None:
        """Push the costing service's counters into the registry."""
        if self._adapter is not None:
            self._adapter.costing.publish_metrics(self.metrics)

    def designer(self, name: str = "CliffGuard", **cfg):
        """Build one registered designer wired to this session's stack."""
        merged = {
            "n_samples": self.config.n_samples,
            "max_iterations": self.config.iterations,
            **cfg,
        }
        designer, sampler = registry.get(
            name, self.adapter, self.nominal, self.gamma,
            make_sampler=self.context.sampler, **merged,
        )
        return designer, sampler

    # -- the three entry points ----------------------------------------------------

    def design(self, window: Workload | int | None = None) -> DesignOutcome:
        """Run CliffGuard on one window and return the robust design.

        ``window`` is a :class:`Workload`, a window index, or ``None`` for
        the latest complete window.  The sampler's perturbation pool is
        restricted to queries strictly before the window (no peeking at
        the future).  Costing runs in process whatever the session
        backend, so results are trivially identical across backends.
        """
        windows = self.context.trace_windows(self.config.workload)
        if window is None:
            window = windows[-2] if len(windows) > 1 else windows[-1]
        elif isinstance(window, int):
            window = windows[window]
        designer, sampler = self.designer("CliffGuard")
        if self.checkpointer is not None:
            designer.checkpointer = self.checkpointer
        start, _ = window.span_days
        sampler.set_pool(
            [q for q in self.context.trace(self.config.workload) if q.timestamp < start]
        )
        started = time.perf_counter()
        with self._tracing():
            design = designer.design(window)
        wall = time.perf_counter() - started
        self._publish_metrics()
        return DesignOutcome(
            design=design,
            structures=self.adapter.structures(design),
            price_bytes=self.adapter.design_price(design),
            report=designer.last_report,
            wall_seconds=wall,
        )

    def replay(self, which: list[str] | None = None) -> ReplayResult:
        """The Figure 7 / 10 / 15 designer comparison: one shared replay
        without a backend, one isolated cell per designer with one."""
        with self._tracing():
            result = run_designer_comparison(
                self.context,
                self.config.workload,
                engine=self.config.engine,
                which=which,
                gamma=self.config.gamma,
                backend=self.backend,
                checkpointer=self.checkpointer,
            )
        self._publish_metrics()
        return result

    def sweep(self, gammas: list[float] | None = None) -> dict[float, tuple[float, float]]:
        """The Figures 8–9 robustness-knob sweep (per-Γ fan-out)."""
        with self._tracing():
            result = run_gamma_sweep(
                self.context,
                self.config.workload,
                gammas=gammas,
                backend=self.backend,
                checkpointer=self.checkpointer,
            )
        self._publish_metrics()
        return result

    def schedule(
        self,
        everies: tuple[int, ...] = (1, 2),
        designers: tuple[str, ...] = ("ExistingDesigner", "CliffGuard"),
    ) -> dict[tuple[str, int], ScheduleOutcome]:
        """Re-design-frequency comparison (per-(designer, period) fan-out)."""
        with self._tracing():
            result = run_schedule_comparison(
                self.context,
                self.config.workload,
                engine=self.config.engine,
                everies=everies,
                designers=designers,
                gamma=self.config.gamma,
                backend=self.backend,
                checkpointer=self.checkpointer,
            )
        self._publish_metrics()
        return result

    # -- the streaming entry point ---------------------------------------------------

    def daemon(self, serve: ServeConfig | None = None, **overrides) -> ServeDaemon:
        """Build the online tuning daemon for this session (docs/serving.md).

        ``serve`` overrides the session's attached :class:`ServeConfig`
        (both default to ``ServeConfig()``); keyword ``overrides`` patch
        individual serve knobs.  Run-config knobs (scale, engine,
        backend, …) come from the session as everywhere else — one
        facade, one configuration path.
        """
        cfg = serve if serve is not None else self.serve_config
        if cfg is None:
            cfg = ServeConfig()
        if overrides:
            cfg = cfg.with_overrides(**overrides)
        workload = self.config.workload
        window_days = (
            cfg.window_days if cfg.window_days is not None else float(self.config.window_days)
        )
        threshold = (
            cfg.threshold
            if cfg.threshold is not None
            else self.context.default_gamma(workload)
        )
        if cfg.policy == "periodic":
            policy = PeriodicPolicy(every=cfg.every)
        else:
            policy = DriftTriggeredPolicy(self.context.distance, threshold)
        if cfg.source is None or cfg.source == "trace":
            source: QuerySource = TraceSource(
                self.context.trace(workload), window_days=window_days
            )
        else:
            source = resolve_source(cfg.source)
        checkpoint_path = (
            cfg.checkpoint_path
            if cfg.checkpoint_path is not None
            else self.config.checkpoint_path
        )
        resume = cfg.resume if cfg.resume is not None else self.config.resume
        if resume and checkpoint_path is None:
            raise ValueError("serve resume requires a checkpoint path")
        checkpointer = None
        if checkpoint_path is not None:
            checkpointer = RunCheckpointer(
                checkpoint_path,
                every=(
                    cfg.checkpoint_every
                    if cfg.checkpoint_every is not None
                    else self.config.checkpoint_every
                ),
                resume=resume,
                metrics=self.config.metrics,
            )
        # ``submit`` needs a real backend; no backend maps to an explicit
        # SerialBackend (reference semantics, blocking swaps).
        backend = self.backend if self.backend is not None else SerialBackend()
        # Online learners (learns_online) must live in the daemon process
        # — background workers would lose the per-boundary feedback — so
        # the designer is instantiated here and handed over; classic
        # designers keep re-designing by name in background tasks.
        built, _ = self.designer(cfg.designer)
        learner = built if getattr(built, "learns_online", False) else None
        return ServeDaemon(
            scale=self.config.scale(),
            workload=workload,
            engine=self.config.engine,
            gamma=self.gamma,
            designer=cfg.designer,
            adapter=self.adapter,
            source=source,
            policy=policy,
            window_days=window_days,
            serve=cfg,
            backend=backend,
            distance=self.context.distance,
            threshold=threshold,
            checkpointer=checkpointer,
            learner=learner,
        )

    def serve(self, serve: ServeConfig | None = None, **overrides) -> ServeOutcome:
        """Run the online tuning daemon to stream end (or ``max_queries``).

        Ingests the configured query stream, prices every query against
        the epoch-fenced active design, launches background CliffGuard
        re-designs when the policy fires, and hot-swaps them in — see
        docs/serving.md for the architecture and guarantees.  Emits the
        ``serve.*`` event/metric family when tracing is on.
        """
        daemon = self.daemon(serve, **overrides)
        with self._tracing():
            outcome = daemon.run()
        self._publish_metrics()
        return outcome

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Release pooled backend workers and close the trace file (the
        session stays usable — both are recreated lazily on next use)."""
        if self._backend is not None:
            self._backend.shutdown()
        if self._tracer is not None:
            self._tracer.close()
            self._tracer = None

    def __enter__(self) -> "RobustDesignSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        knobs = ", ".join(
            f"{f.name}={getattr(self.config, f.name)!r}"
            for f in fields(self.config)
            if getattr(self.config, f.name) != f.default
        )
        return f"RobustDesignSession({knobs})"


def serve_session(
    config: RunConfig | None = None,
    serve: ServeConfig | None = None,
    **overrides,
) -> RobustDesignSession:
    """A session pre-wired for online serving (re-exported as
    ``repro.serve_session``).

    ``config`` carries the batch core, ``serve`` the streaming knobs;
    keyword ``overrides`` patch the run config.  The returned session's
    :meth:`RobustDesignSession.serve` runs the daemon::

        outcome = repro.serve_session(workload="R1").serve(max_queries=500)
    """
    if serve is None:
        serve = ServeConfig()
    return RobustDesignSession(config, serve=serve, **overrides)
