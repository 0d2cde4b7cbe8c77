"""`ServeConfig` — the streaming half of the configuration split.

:class:`repro.api.RunConfig` stays the *batch core*: workload, engine,
scale, designer search effort, backend, checkpointing.  Everything that
only exists once queries arrive continuously lives here — where the
stream comes from, how long the sliding window is, which policy decides
to re-design, and how often the daemon swaps and checkpoints.  A serving
session is always the pair ``(RunConfig, ServeConfig)``; there is no
second configuration path (`docs/serving.md`).

Fields defaulting to ``None`` inherit the session's ``RunConfig`` value
(``window_days``, ``checkpoint_path``) or a derived default
(``threshold`` → the context's default Γ for the workload).  The
checkpoint cadence and ``resume`` are always the run config's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.serve.sources import QuerySource

POLICIES = ("drift", "periodic")
SWAP_MODES = ("async", "boundary")


@dataclass(frozen=True)
class ServeConfig:
    """Declarative configuration for one online-tuning (serve) run.

    Parameters
    ----------
    source:
        Where queries come from: a :class:`QuerySource`, a spec string
        (``unix:PATH`` / ``tcp:HOST:PORT``), or ``None`` to stream the
        session's own generated trace (self-driving mode — the CI smoke
        and the examples use this).
    window_days:
        Sliding-window length for the online `WorkloadMonitor`
        (``None`` → the run config's ``window_days``).
    designer:
        Registered designer driving re-designs (``CliffGuard`` by
        default).  Designers that learn online
        (:class:`~repro.designers.bandit.BanditDesigner`) run their
        re-designs in-process at the window boundary and receive
        observed-cost feedback at every boundary; their learner state
        rides in the daemon's checkpoints.
    policy:
        ``"drift"`` re-designs when the window's δ from the design-time
        window exceeds ``threshold``; ``"periodic"`` re-designs every
        ``every`` windows.
    threshold:
        Drift threshold for the ``"drift"`` policy (``None`` → the
        context's default Γ for the workload).
    every:
        Cadence for the ``"periodic"`` policy, in windows.
    min_window_queries:
        A re-design is only considered once the sliding window holds at
        least this many queries (cold-start guard).
    swap_mode:
        ``"async"`` swaps as soon as the background re-design lands
        (lowest staleness, timing-dependent epochs); ``"boundary"``
        defers the swap to the next window boundary (deterministic —
        the mode the kill-resume guarantees are stated for).
    redesign_timeout:
        Wall-clock seconds after which a still-running background
        re-design is cancelled and logged as degraded (``None`` = wait
        forever).
    max_queries:
        Stop after ingesting this many queries (``None`` = until the
        source ends).
    drain:
        At end-of-stream, wait for an in-flight re-design and perform
        the final swap before stopping (otherwise cancel it).
    record_queries:
        Keep the per-query `(position, epoch, cost)` log in the outcome
        and the checkpoint (as typed columns, 24 bytes a query).  The
        atomicity tests and the resume bit-identity diffs need it;
        long-lived daemons can turn it off.  Part of the run key: a
        snapshot resumes only with the setting that wrote it.
    checkpoint_path:
        Snapshot file (``None`` inherits the run config's).  The run
        config's ``checkpoint_every`` counts *window boundaries* between
        durable snapshots here (swaps always checkpoint).
    """

    source: QuerySource | str | None = None
    window_days: float | None = None
    designer: str = "CliffGuard"
    policy: str = "drift"
    threshold: float | None = None
    every: int = 1
    min_window_queries: int = 8
    swap_mode: str = "async"
    redesign_timeout: float | None = None
    max_queries: int | None = None
    drain: bool = True
    record_queries: bool = True
    checkpoint_path: str | Path | None = None

    def __post_init__(self):
        if not isinstance(self.designer, str) or not self.designer:
            raise ValueError(
                f"designer must be a registered designer name, got {self.designer!r}"
            )
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.swap_mode not in SWAP_MODES:
            raise ValueError(f"swap_mode must be one of {SWAP_MODES}, got {self.swap_mode!r}")
        if self.window_days is not None and self.window_days <= 0:
            raise ValueError("window_days must be positive")
        if self.threshold is not None and self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.every < 1:
            raise ValueError("every must be >= 1")
        if self.min_window_queries < 1:
            raise ValueError("min_window_queries must be >= 1")
        if self.redesign_timeout is not None and self.redesign_timeout <= 0:
            raise ValueError("redesign_timeout must be positive")
        if self.max_queries is not None and self.max_queries < 1:
            raise ValueError("max_queries must be >= 1")
        if self.source is not None and not isinstance(self.source, (QuerySource, str)):
            raise TypeError(
                "source must be a QuerySource, a spec string, or None, "
                f"got {type(self.source).__name__}"
            )

    def source_label(self) -> str:
        """A stable label for events and run keys."""
        if self.source is None:
            return "trace"
        if isinstance(self.source, str):
            return self.source
        return self.source.describe()
