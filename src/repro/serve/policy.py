"""Re-design policies: when must the database be re-designed?

The paper's introduction argues (claim (d)) that "a robust design can
significantly reduce operational costs by requiring less frequent database
re-designs".  A policy decides, at each window boundary, whether to build
a new design or keep the deployed one:

* :class:`PeriodicPolicy` — re-design every N windows (the paper's monthly
  tuning practice is ``every=1``),
* :class:`DriftTriggeredPolicy` — re-design only when the workload has
  drifted more than a δ threshold since the design was built (what a
  drift-aware DBA would do).

The serve daemon consults one at every window boundary; the offline
:func:`~repro.harness.replay.replay` takes one as its ``policy``.
"""

from __future__ import annotations

import abc

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
        """Forget any per-run state (the period's anchor).

        :func:`~repro.harness.replay.replay` calls this before every
        fresh replay so one policy object can be reused across runs
        without leaking state from the previous trace.
        """

    def state(self) -> dict:
        """Snapshot the per-run state :meth:`reset` would clear.

        Replay and serve checkpoints (docs/state.md) persist this so a
        resumed run makes the same re-design decisions the uninterrupted
        run would have.  Stateless policies return an empty dict.
        """
        return {}

    def restore(self, state: dict) -> None:
        """Restore what :meth:`state` captured."""


class PeriodicPolicy(RedesignPolicy):
    """Re-design every ``every`` windows (the classic monthly re-tune).

    The period is anchored at the **last re-design**, not at window 0:
    when the leading windows of a trace are empty (a replay skips them
    without consulting the policy), anchoring at zero would silently
    shorten the first period — e.g. with ``every=4`` and the first design
    at window 3, a ``window_index % every`` rule would re-design again at
    window 4.
    """

    def __init__(self, every: int = 1):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self._last_redesign: int | None = None

    def __repr__(self) -> str:
        return f"PeriodicPolicy(every={self.every})"

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

    The decision reads only its two workloads, so the policy holds no
    state: its snapshot is empty however often it fires.
    """

    def __init__(self, distance, threshold: float):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.distance = distance
        self.threshold = threshold

    def __repr__(self) -> str:
        return f"DriftTriggeredPolicy(threshold={self.threshold!r})"

    def should_redesign(self, window_index, design_window, current):
        if design_window is None:
            return True
        return self.distance(design_window, current) > self.threshold
