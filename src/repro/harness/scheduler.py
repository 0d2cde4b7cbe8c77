"""Re-design scheduling: how often must the database be re-designed?

The paper's introduction argues (claim (d)) that "a robust design can
significantly reduce operational costs by requiring less frequent database
re-designs", and its Section 6.4 notes the nominal designer's slight edge
over NoDesign "would quickly fade away if the database were to be
re-designed less frequently".  This module makes that claim executable:

* :class:`PeriodicPolicy` — re-design every N windows (the paper's monthly
  tuning practice is ``every=1``),
* :class:`DriftTriggeredPolicy` — re-design only when the workload has
  drifted more than a δ threshold since the design was built (what a
  drift-aware DBA would do),
* :func:`scheduled_replay` — replay a trace under a policy, accounting for
  both query latency and the (dominant, Figure 14) deployment cost of each
  re-design.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.designers.base import DesignAdapter, Designer
from repro.obs import tracer
from repro.serve.sources import QuerySource, as_windows
from repro.workload.workload import Workload


class RedesignPolicy(abc.ABC):
    """Decides, at each window boundary, whether to re-design."""

    @abc.abstractmethod
    def should_redesign(
        self, window_index: int, design_window: Workload | None, current: Workload
    ) -> bool:
        """``design_window`` is the workload the active design was built
        for (``None`` before the first design)."""

    def reset(self) -> None:
        """Forget any per-replay state (anchors, trigger logs).

        :func:`scheduled_replay` calls this before every replay so one
        policy object can be reused across runs without leaking state
        from the previous trace.
        """

    def state(self) -> dict:
        """Snapshot the per-replay state :meth:`reset` would clear.

        The serve daemon's checkpoint (docs/state.md) persists this so a
        resumed daemon makes the same re-design decisions the
        uninterrupted run would have.  Stateless policies return an
        empty dict.
        """
        return {}

    def restore(self, state: dict) -> None:
        """Restore what :meth:`state` captured."""


class PeriodicPolicy(RedesignPolicy):
    """Re-design every ``every`` windows (the classic monthly re-tune).

    The period is anchored at the **last re-design**, not at window 0:
    when the leading windows of a trace are empty (``scheduled_replay``
    skips them without consulting the policy), anchoring at zero would
    silently shorten the first period — e.g. with ``every=4`` and the
    first design at window 3, a ``window_index % every`` rule would
    re-design again at window 4.
    """

    def __init__(self, every: int = 1):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self._last_redesign: int | None = None

    def reset(self) -> None:
        self._last_redesign = None

    def state(self) -> dict:
        return {"last_redesign": self._last_redesign}

    def restore(self, state: dict) -> None:
        self._last_redesign = state["last_redesign"]

    def should_redesign(self, window_index, design_window, current):
        if design_window is None or self._last_redesign is None:
            self._last_redesign = window_index
            return True
        if window_index - self._last_redesign >= self.every:
            self._last_redesign = window_index
            return True
        return False


class DriftTriggeredPolicy(RedesignPolicy):
    """Re-design when δ(design workload, current workload) exceeds a
    threshold — drift-aware operations.

    ``triggers`` records the window indices that fired since the last
    :meth:`reset`; :func:`scheduled_replay` resets per replay (and
    copies the triggers onto its :class:`ScheduleOutcome`), so a policy
    object reused across replays never mixes trigger indices from
    different runs.
    """

    def __init__(self, distance, threshold: float):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.distance = distance
        self.threshold = threshold
        self.triggers: list[int] = []

    def reset(self) -> None:
        self.triggers = []

    def state(self) -> dict:
        return {"triggers": list(self.triggers)}

    def restore(self, state: dict) -> None:
        self.triggers = list(state["triggers"])

    def should_redesign(self, window_index, design_window, current):
        if design_window is None:
            return True
        if self.distance(design_window, current) > self.threshold:
            self.triggers.append(window_index)
            return True
        return False


@dataclass
class ScheduleOutcome:
    """Result of one scheduled replay."""

    designer: str
    per_window_avg_ms: list[float] = field(default_factory=list)
    redesign_windows: list[int] = field(default_factory=list)
    total_deployment_seconds: float = 0.0
    #: Window indices where a drift-triggered policy fired during *this*
    #: replay (empty for policies without triggers, e.g. periodic).
    drift_triggers: list[int] = field(default_factory=list)

    @property
    def redesign_count(self) -> int:
        return len(self.redesign_windows)

    @property
    def mean_average_ms(self) -> float:
        if not self.per_window_avg_ms:
            return 0.0
        return sum(self.per_window_avg_ms) / len(self.per_window_avg_ms)


def scheduled_replay(
    windows: QuerySource,
    designer: Designer,
    adapter: DesignAdapter,
    policy: RedesignPolicy,
    before_design=None,
) -> ScheduleOutcome:
    """Replay ``windows`` re-designing only when ``policy`` says so.

    ``windows`` is a bounded :class:`~repro.serve.sources.QuerySource`
    (wrap fixed windows with ``TraceSource.from_windows``).

    The design built from window ``i`` serves window ``i+1`` (and later
    windows until the next re-design).

    ``before_design(i)`` is called before each re-design (e.g. to refresh
    sampler pools).

    The policy's per-replay state (period anchor, drift-trigger log) is
    reset on entry, so one policy object can drive several replays; the
    triggers a :class:`DriftTriggeredPolicy` fired during *this* replay
    are returned on the outcome's ``drift_triggers``.
    """
    windows = as_windows(windows)
    policy.reset()
    outcome = ScheduleOutcome(designer=designer.name)
    design = None
    design_window = None
    t = tracer()
    for i in range(len(windows) - 1):
        train, test = windows[i], windows[i + 1]
        if not train or not test:
            continue
        if policy.should_redesign(i, design_window, train):
            if before_design is not None:
                before_design(i)
            design = designer.design(train)
            design_window = train
            outcome.redesign_windows.append(i)
            deployment = adapter.deployment_seconds(adapter.design_price(design))
            outcome.total_deployment_seconds += deployment
            if t.enabled:
                t.emit(
                    "redesign",
                    designer=designer.name,
                    window=i,
                    policy=type(policy).__name__,
                    deployment_seconds=deployment,
                )
        average_ms = adapter.workload_cost(test, design).average_ms
        outcome.per_window_avg_ms.append(average_ms)
        if t.enabled:
            t.emit(
                "window",
                designer=designer.name,
                index=i,
                avg_ms=average_ms,
                redesigned=bool(outcome.redesign_windows)
                and outcome.redesign_windows[-1] == i,
            )
    outcome.drift_triggers = list(getattr(policy, "triggers", ()))
    return outcome
