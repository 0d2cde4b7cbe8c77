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
construction (``dataclasses.replace`` returns a re-validated copy);
``RobustDesignSession(config)`` owns the lazily built context and engine
stack, and the execution backend (see :mod:`repro.parallel`).  The
``backend``/``jobs`` pair is the single parallelism knob: ``sweep()``,
``replay()`` and ``schedule()`` fan out whole per-Γ / per-designer
replays across workers and ``serve()`` runs its re-designs in the
background on it; a single ``design()`` call prices in process on every
backend (its costing kernel is ~1% of the run — nothing worth splitting).

The configuration is split in two: ``RunConfig`` is the **batch core**
(workload, engine, scale, search effort, backend, checkpointing), and
:class:`repro.serve.ServeConfig` is the **streaming half** (stream
source, window length, re-design policy, swap cadence).  A serving
session is the pair::

    session = RobustDesignSession(RunConfig(workload="R1"))
    outcome = session.serve(ServeConfig(policy="drift"))   # the online daemon

Tracing is switched on around any call with :func:`repro.obs.trace_to`;
metrics go to the process-wide :func:`repro.obs.get_metrics` registry.
Everything — CLI, tests, examples — drives the daemon through this same
facade; there is no second configuration path (docs/serving.md).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields

from repro.core.cliffguard import CliffGuardReport
from repro.designers import registry
from repro.harness.experiments import (
    ExperimentContext,
    ExperimentScale,
    _engine_stack,
    run_designer_comparison,
    run_gamma_sweep,
    run_schedule_comparison,
)
from repro.harness.replay import DesignerRun, ReplayResult
from repro.parallel.backends import ExecutionBackend, resolve_backend
from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeDaemon, ServeOutcome
from repro.serve.policy import DriftTriggeredPolicy, PeriodicPolicy
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
    #: Execution backend: "auto", "serial", "thread", "process" or an
    #: :class:`~repro.parallel.backends.ExecutionBackend` instance.  On
    #: one worker ``replay()`` compares the designers over one shared cost
    #: service; on more it fans them out as cells (docs/api.md).
    backend: ExecutionBackend | str = "auto"
    #: Worker count for the thread/process backends (``None`` = one per core).
    jobs: int | None = None
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
        if not isinstance(self.backend, ExecutionBackend) and (
            not isinstance(self.backend, str) or self.backend not in BACKENDS
        ):
            raise ValueError(
                f"backend must be one of {BACKENDS} or an ExecutionBackend, "
                f"got {self.backend!r}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be at least 1 when set")
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
        )


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
    """One configured run: its backend, and its context and engine stack
    built on first use.

    ``RobustDesignSession(config)`` is the supported way to launch runs;
    the CLI, the benchmark suite, and the examples all construct through
    it.  Use as a context manager (or call :meth:`close`) to release
    pooled workers.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self._context: ExperimentContext | None = None
        #: The resolved execution backend (its pool starts on first use).
        self.backend: ExecutionBackend = resolve_backend(config.backend, jobs=config.jobs)
        self._adapter = None
        self._nominal = None
        self._checkpointer: RunCheckpointer | None = None

    # -- lazily built pieces -----------------------------------------------------

    @property
    def context(self) -> ExperimentContext:
        """Schema, traces, and windows at the configured scale."""
        if self._context is None:
            self._context = ExperimentContext(self.config.scale())
        return self._context

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
            )
        return self._checkpointer

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

    # -- the batch entry points ----------------------------------------------------
    #
    # ``design()`` and ``serve()`` price on the session's own service and
    # publish its counters to the process-wide registry afterwards;
    # ``replay()``, ``sweep()`` and ``schedule()`` run cells that own
    # their services, so they publish nothing.

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
        design = designer.design(window)
        wall = time.perf_counter() - started
        self.adapter.costing.publish_metrics()
        return DesignOutcome(
            design=design,
            structures=self.adapter.structures(design),
            price_bytes=self.adapter.design_price(design),
            report=designer.last_report,
            wall_seconds=wall,
        )

    def replay(self, which: list[str] | None = None) -> ReplayResult:
        """The Figure 7 / 10 / 15 designer comparison: one shared replay
        on one worker, one isolated cell per designer on more."""
        return run_designer_comparison(
            self.context,
            self.config.workload,
            engine=self.config.engine,
            which=which,
            gamma=self.config.gamma,
            backend=self.backend,
            checkpointer=self.checkpointer,
        )

    def sweep(self, gammas: list[float] | None = None) -> dict[float, tuple[float, float]]:
        """The Figures 8–9 robustness-knob sweep (per-Γ fan-out)."""
        return run_gamma_sweep(
            self.context,
            self.config.workload,
            gammas=gammas,
            backend=self.backend,
            checkpointer=self.checkpointer,
        )

    def schedule(self) -> dict[tuple[str, int], DesignerRun]:
        """Re-design-frequency comparison (per-(designer, period) fan-out):
        ExistingDesigner and CliffGuard, re-designing every window and
        every other window."""
        return run_schedule_comparison(
            self.context,
            self.config.workload,
            engine=self.config.engine,
            gamma=self.config.gamma,
            backend=self.backend,
            checkpointer=self.checkpointer,
        )

    # -- the streaming entry point ---------------------------------------------------

    def daemon(self, serve: ServeConfig) -> ServeDaemon:
        """Build the online tuning daemon for this session (docs/serving.md).

        ``serve`` carries the streaming knobs; run-config knobs (scale,
        engine, backend, checkpoint cadence and resume, …) come from the
        session as everywhere else — one facade, one configuration path.
        """
        workload = self.config.workload
        window_days = (
            serve.window_days
            if serve.window_days is not None
            else float(self.config.window_days)
        )
        threshold = (
            serve.threshold
            if serve.threshold is not None
            else self.context.default_gamma(workload)
        )
        if serve.policy == "periodic":
            policy = PeriodicPolicy(every=serve.every)
        else:
            policy = DriftTriggeredPolicy(self.context.distance, threshold)
        if serve.source is None or serve.source == "trace":
            source: QuerySource = TraceSource(
                self.context.trace(workload), window_days=window_days
            )
        else:
            source = resolve_source(serve.source)
        checkpoint_path = (
            serve.checkpoint_path
            if serve.checkpoint_path is not None
            else self.config.checkpoint_path
        )
        checkpointer = None
        if checkpoint_path is not None:
            checkpointer = RunCheckpointer(
                checkpoint_path,
                every=self.config.checkpoint_every,
                resume=self.config.resume,
            )
        # Online learners (learns_online) must live in the daemon process
        # — background workers would lose the per-boundary feedback — so
        # the designer is instantiated here and handed over; classic
        # designers keep re-designing by name in background tasks.
        built, _ = self.designer(serve.designer)
        learner = built if getattr(built, "learns_online", False) else None
        return ServeDaemon(
            scale=self.config.scale(),
            workload=workload,
            engine=self.config.engine,
            gamma=self.gamma,
            designer=serve.designer,
            adapter=self.adapter,
            source=source,
            policy=policy,
            window_days=window_days,
            serve=serve,
            backend=self.backend,
            distance=self.context.distance,
            threshold=threshold,
            checkpointer=checkpointer,
            learner=learner,
        )

    def serve(self, serve: ServeConfig) -> ServeOutcome:
        """Run the online tuning daemon to stream end (or ``max_queries``).

        Ingests the configured query stream, prices every query against
        the epoch-fenced active design, launches background CliffGuard
        re-designs when the policy fires, and hot-swaps them in — see
        docs/serving.md for the architecture and guarantees.  Emits the
        ``serve.*`` event/metric family when tracing is on.
        """
        outcome = self.daemon(serve).run()
        self.adapter.costing.publish_metrics()
        return outcome

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Release pooled backend workers (the session stays usable — the
        pool is recreated lazily on next use)."""
        self.backend.shutdown()

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
