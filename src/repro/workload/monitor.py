"""Online workload-drift monitoring.

Section 5 of the paper notes that quantifying SQL-workload change "will
likely find many other applications beyond robust physical designs, e.g.,
in workload monitoring".  This module is that application: a streaming
monitor that maintains a reference window and a sliding current window,
computes δ between them as queries arrive, and raises drift alarms that
can drive re-design scheduling
(:class:`repro.serve.policy.DriftTriggeredPolicy`) or alerting.

A reading prices δ from template keys the monitor keeps, one per window
entry, instead of re-deriving every template from SQL text.  A query
observed with its parsed statement keeps that statement until the next
reading (or window boundary) turns it into its key, so no AST outlives
the window; an entry without one (observed bare, or restored from a
checkpoint) gets its key through :func:`extract_template`.  Keys and
statements are derived state: :meth:`WorkloadMonitor.state` never
carries them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.sql.analyzer import analyze
from repro.sql.ast import Statement
from repro.workload.distance import WorkloadDistance
from repro.workload.query import WorkloadQuery
from repro.workload.workload import VectorKey, Workload, template_key


@dataclass
class DriftAlarm:
    """One threshold crossing."""

    at_day: float
    distance: float
    threshold: float


@dataclass
class DriftReading:
    """One δ measurement of the sliding window against the reference."""

    at_day: float
    distance: float


class WorkloadMonitor:
    """Streaming drift monitor over a sliding query window.

    Queries are observed in timestamp order.  The monitor keeps the last
    ``window_days`` of queries as the *current* window; the *reference*
    window is set explicitly (typically the workload the live design was
    built for) and re-anchored via :meth:`rebase`.  Every
    ``measure_every_days`` of trace time a δ reading is taken; readings
    above ``threshold`` raise a :class:`DriftAlarm` (with a refractory
    period so a sustained drift produces one alarm, not a storm).
    """

    def __init__(
        self,
        distance: WorkloadDistance,
        threshold: float,
        window_days: float = 28.0,
        measure_every_days: float = 1.0,
        refractory_days: float = 7.0,
        max_log_entries: int | None = None,
    ):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if window_days <= 0 or measure_every_days <= 0:
            raise ValueError("window and measurement periods must be positive")
        if max_log_entries is not None and max_log_entries < 1:
            raise ValueError("max_log_entries must be positive (or None)")
        self.distance = distance
        self.threshold = threshold
        self.window_days = window_days
        self.measure_every_days = measure_every_days
        self.refractory_days = refractory_days
        #: Retention bound on the in-memory ``readings``/``alarms`` logs.
        #: Alarm/measure decisions depend only on the cadence anchors, so
        #: trimming old entries never changes future behavior — it only
        #: keeps long-stream checkpoints (which embed both logs) bounded.
        self.max_log_entries = max_log_entries
        self._current: deque[WorkloadQuery] = deque()
        #: Parallel to ``_current``: each entry's template key under the
        #: distance's clause spec, its parsed statement until a reading
        #: keys it, or ``None`` when only the SQL text is known.
        self._keys: deque[VectorKey | Statement | None] = deque()
        self._reference: Workload | None = None
        self._last_measure: float | None = None
        self._last_alarm: float | None = None
        self.readings: list[DriftReading] = []
        self.alarms: list[DriftAlarm] = []
        #: Lifetime totals — unlike the bounded logs, these never shrink.
        self.readings_total = 0
        self.alarms_total = 0

    # -- reference management ----------------------------------------------------

    def rebase(self, reference: Workload | None = None) -> None:
        """Anchor the reference window (default: the current window).

        Starts a fresh monitoring epoch against the new reference: both
        the alarm refractory anchor and the measurement cadence anchor
        are cleared, so the first post-rebase observation measures (and
        may alarm) immediately instead of inheriting the previous
        epoch's timers.  The accumulated ``readings`` and ``alarms``
        logs are *not* cleared — they span epochs by design (slice them
        by ``at_day`` to isolate one epoch).
        """
        if reference is None:
            reference = self.current_window
        self._reference = reference
        self._last_alarm = None
        self._last_measure = None

    @property
    def current_window(self) -> Workload:
        """The sliding window's contents, its template vector built from
        the kept keys (keying every entry that is not keyed yet)."""
        clauses = self.distance.clauses

        def keyed(query: WorkloadQuery, entry) -> VectorKey:
            if isinstance(entry, (frozenset, tuple)):
                return entry
            template = query.template if entry is None else analyze(entry)
            return template_key(template, clauses)

        self._keys = deque(map(keyed, self._current, self._keys))
        return Workload.keyed(self._current, clauses, self._keys)

    @property
    def newest(self) -> float | None:
        """Timestamp of the newest observed query (``None`` before the
        first).  The sliding window never drops its newest entry."""
        return self._current[-1].timestamp if self._current else None

    # -- streaming ------------------------------------------------------------------

    def observe(
        self, query: WorkloadQuery, statement: Statement | None = None
    ) -> DriftAlarm | None:
        """Feed one query; returns an alarm if this observation raised one.

        Queries must arrive in non-decreasing timestamp order.
        ``statement``, when given, is ``query.sql`` already parsed; the
        monitor then never parses that text itself.
        """
        if self._current and query.timestamp < self._current[-1].timestamp:
            raise ValueError("queries must be observed in timestamp order")
        self._current.append(query)
        self._keys.append(statement)
        horizon = query.timestamp - self.window_days
        while self._current and self._current[0].timestamp < horizon:
            self._current.popleft()
            self._keys.popleft()

        if self._reference is None:
            return None
        if (
            self._last_measure is not None
            and query.timestamp - self._last_measure < self.measure_every_days
        ):
            return None
        self._last_measure = query.timestamp
        measured = self.distance(self._reference, self.current_window)
        self.readings.append(DriftReading(at_day=query.timestamp, distance=measured))
        self.readings_total += 1
        self._trim_logs()
        if measured > self.threshold:
            in_refractory = (
                self._last_alarm is not None
                and query.timestamp - self._last_alarm < self.refractory_days
            )
            if not in_refractory:
                self._last_alarm = query.timestamp
                alarm = DriftAlarm(
                    at_day=query.timestamp,
                    distance=measured,
                    threshold=self.threshold,
                )
                self.alarms.append(alarm)
                self.alarms_total += 1
                self._trim_logs()
                return alarm
        return None

    def _trim_logs(self) -> None:
        """Drop the oldest log entries beyond the retention bound."""
        cap = self.max_log_entries
        if cap is None:
            return
        if len(self.readings) > cap:
            del self.readings[: len(self.readings) - cap]
        if len(self.alarms) > cap:
            del self.alarms[: len(self.alarms) - cap]

    def observe_many(self, queries) -> list[DriftAlarm]:
        """Feed a sequence of queries; returns all alarms raised."""
        alarms = []
        for query in queries:
            alarm = self.observe(query)
            if alarm is not None:
                alarms.append(alarm)
        return alarms

    # -- checkpointing --------------------------------------------------------------

    def state(self) -> dict:
        """Snapshot everything :meth:`observe` depends on or appends to.

        Captures the sliding window, the reference anchor, both cadence
        anchors, and the accumulated reading/alarm logs — a monitor
        restored from this snapshot observes the rest of a stream
        exactly as the uninterrupted monitor would have
        (:mod:`repro.state`'s resume-equivalence contract).  The
        configuration knobs are *not* captured; they come from the run
        config on rebuild.  Nor are the window's template keys and
        statements: a restored entry is keyed from its SQL text.
        """
        return {
            "current": list(self._current),
            "reference": self._reference,
            "last_measure": self._last_measure,
            "last_alarm": self._last_alarm,
            "readings": list(self.readings),
            "alarms": list(self.alarms),
            "readings_total": self.readings_total,
            "alarms_total": self.alarms_total,
        }

    def restore(self, state: dict) -> None:
        """Restore what :meth:`state` captured.

        The totals keys default to the log lengths so checkpoints written
        before the retention bound existed restore unchanged.
        """
        self._current = deque(state["current"])
        self._keys = deque([None] * len(self._current))
        self._reference = state["reference"]
        self._last_measure = state["last_measure"]
        self._last_alarm = state["last_alarm"]
        self.readings = list(state["readings"])
        self.alarms = list(state["alarms"])
        self.readings_total = state.get("readings_total", len(self.readings))
        self.alarms_total = state.get("alarms_total", len(self.alarms))
