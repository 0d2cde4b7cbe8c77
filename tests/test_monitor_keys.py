"""The keyed drift monitor against the reading it replaced.

:class:`WorkloadMonitor` keeps one template key per window entry (from
the template the caller handed over, else from the SQL text) and builds
a reading's template vector from those keys.  The oracle below is the
monitor as it was before: every reading re-derives the window's vector
from SQL text, ``distance(reference, Workload(window))``.  Over random
streams — repeated texts, empty templates, writes, bare and templated
observations, rebases and ``restore(state())`` mid-window — readings and
alarms must be equal bit for bit, and ``pickle.dumps(state())`` byte for
byte: keys and templates are never part of a checkpoint.
"""

from __future__ import annotations

import pickle
from collections import defaultdict, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.workload.distance import SWGO, WorkloadDistance
from repro.workload.monitor import DriftAlarm, DriftReading, WorkloadMonitor
from repro.workload.query import WorkloadQuery
from repro.workload.workload import SEPARATE, Workload, template_key

N_COLUMNS = 40

#: Texts the streams draw from: shared templates with different SQL,
#: a query with no columns, and writes with bare column names.
TEXTS = (
    "SELECT t.c0, t.c1 FROM t WHERE t.c2 = 1",
    "SELECT t.c0, t.c1 FROM t WHERE t.c2 = 7",
    "SELECT t.c3 FROM t WHERE t.c4 < 5 ORDER BY t.c3",
    "SELECT t.c5, COUNT(*) FROM t GROUP BY t.c5",
    "SELECT u.d0, t.c6 FROM t JOIN u ON t.c7 = u.d1 WHERE u.d2 IN (1, 2)",
    "SELECT COUNT(*) FROM t",
    "UPDATE t SET c8 = 3 WHERE c9 = 4",
    "INSERT INTO t (c0, c9) VALUES (1, 2)",
    "DELETE FROM u WHERE d3 BETWEEN 1 AND 9",
    "SELECT v.e0, v.e1, v.e2, v.e3 FROM v WHERE v.e4 > 0",
)

CONFIG = dict(window_days=4.0, measure_every_days=0.75, refractory_days=1.5)


def text_vector(queries, clauses) -> dict:
    """``Workload.template_vector`` before the keyed path, inlined."""
    raw = defaultdict(float)
    total = 0.0
    for query in queries:
        template = query.template
        if template.is_empty:
            continue
        key = template_key(template, clauses)
        if not (any(part for part in key) if isinstance(key, tuple) else bool(key)):
            continue
        raw[key] += query.frequency
        total += query.frequency
    return {key: weight / total for key, weight in raw.items()} if total else {}


class OracleMonitor:
    """The drift monitor before it kept template keys, inlined."""

    def __init__(self, distance, threshold, max_log_entries):
        self.distance = distance
        self.threshold = threshold
        self.window_days = CONFIG["window_days"]
        self.measure_every_days = CONFIG["measure_every_days"]
        self.refractory_days = CONFIG["refractory_days"]
        self.max_log_entries = max_log_entries
        self._current = deque()
        self._reference = None
        self._last_measure = None
        self._last_alarm = None
        self.readings = []
        self.alarms = []
        self.readings_total = 0
        self.alarms_total = 0

    def rebase(self, reference=None):
        if reference is None:
            reference = Workload(list(self._current))
        self._reference = reference
        self._last_alarm = None
        self._last_measure = None

    def observe(self, query):
        self._current.append(query)
        horizon = query.timestamp - self.window_days
        while self._current and self._current[0].timestamp < horizon:
            self._current.popleft()
        if self._reference is None:
            return None
        if (
            self._last_measure is not None
            and query.timestamp - self._last_measure < self.measure_every_days
        ):
            return None
        self._last_measure = query.timestamp
        measured = self.distance(self._reference, Workload(list(self._current)))
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
                    at_day=query.timestamp, distance=measured, threshold=self.threshold
                )
                self.alarms.append(alarm)
                self.alarms_total += 1
                self._trim_logs()
                return alarm
        return None

    def _trim_logs(self):
        cap = self.max_log_entries
        if cap is None:
            return
        if len(self.readings) > cap:
            del self.readings[: len(self.readings) - cap]
        if len(self.alarms) > cap:
            del self.alarms[: len(self.alarms) - cap]

    def state(self):
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

    def restore(self, state):
        self._current = deque(state["current"])
        self._reference = state["reference"]
        self._last_measure = state["last_measure"]
        self._last_alarm = state["last_alarm"]
        self.readings = list(state["readings"])
        self.alarms = list(state["alarms"])
        self.readings_total = state["readings_total"]
        self.alarms_total = state["alarms_total"]


observe_op = st.tuples(
    st.just("observe"),
    st.integers(0, len(TEXTS) - 1),
    st.sampled_from([0.0, 0.0, 0.1, 0.4, 0.9, 2.5]),
    st.sampled_from([1.0, 1.0, 2.0, 0.5, 3.25]),
    st.booleans(),  # observed with its template
)
control_op = st.tuples(st.sampled_from(["rebase", "rebase_window", "restore"]))
streams = st.lists(st.one_of(observe_op, observe_op, observe_op, control_op), max_size=70)


def pickled(monitor) -> bytes:
    return pickle.dumps(monitor.state())


@settings(max_examples=80, deadline=None)
@given(
    ops=streams,
    clauses=st.sampled_from([SWGO, SEPARATE, ("where",), ("select", "order_by")]),
    threshold=st.sampled_from([0.0, 0.002, 0.02]),
    max_log_entries=st.sampled_from([None, 3]),
)
def test_keyed_monitor_equals_the_text_reading(ops, clauses, threshold, max_log_entries):
    def fresh():
        return WorkloadMonitor(
            WorkloadDistance(N_COLUMNS, clauses),
            threshold,
            max_log_entries=max_log_entries,
            **CONFIG,
        )

    monitor = fresh()
    oracle = OracleMonitor(WorkloadDistance(N_COLUMNS, clauses), threshold, max_log_entries)
    day = 0.0
    for op in ops:
        kind = op[0]
        if kind == "observe":
            _, text, step, frequency, templated = op
            day += step
            sql = TEXTS[text]
            query = WorkloadQuery(sql=sql, timestamp=day, frequency=frequency)
            alarm = monitor.observe(query, analyze(parse(sql)) if templated else None)
            assert alarm == oracle.observe(query)
        elif kind == "rebase":
            monitor.rebase()
            oracle.rebase()
        elif kind == "rebase_window":
            # The daemon's swap: the reference is the window at a boundary.
            monitor.rebase(monitor.current_window)
            oracle.rebase(Workload(list(oracle._current)))
        else:
            # A resumed daemon: both sides continue from their own
            # unpickled snapshot, which must be the same bytes.
            blob = pickled(monitor)
            assert blob == pickled(oracle)
            monitor = fresh()
            monitor.restore(pickle.loads(blob))
            oracle = OracleMonitor(
                WorkloadDistance(N_COLUMNS, clauses), threshold, max_log_entries
            )
            oracle.restore(pickle.loads(blob))
        assert monitor.readings == oracle.readings
        assert monitor.alarms == oracle.alarms
    window = monitor.current_window
    assert list(window) == list(oracle._current)
    assert window.template_vector(clauses) == text_vector(oracle._current, clauses)
    assert pickled(monitor) == pickled(oracle)


def test_statements_live_only_until_the_next_reading():
    """Nothing the caller hands over with a query outlives the next
    reading (or window boundary): every window entry is a key, before a
    rebase, after it and after a reading, and no checkpoint carries one."""
    monitor = WorkloadMonitor(WorkloadDistance(N_COLUMNS), 0.01, **CONFIG)
    for day, sql in enumerate(TEXTS[:4]):
        monitor.observe(WorkloadQuery(sql=sql, timestamp=day * 0.1), analyze(parse(sql)))
    assert all(isinstance(entry, frozenset) for entry in monitor._keys)
    monitor.rebase()  # the reference is the current window, keyed
    assert all(isinstance(entry, frozenset) for entry in monitor._keys)
    monitor.observe(WorkloadQuery(sql=TEXTS[4], timestamp=0.5), analyze(parse(TEXTS[4])))
    assert all(isinstance(entry, frozenset) for entry in monitor._keys)
    assert b"QueryTemplate" not in pickle.dumps(monitor.state())
    assert b"Statement" not in pickle.dumps(monitor.state())


def test_entries_are_keyed_when_observed():
    """A template handed over with its query is the entry's key at once,
    and the monitor never reads the text for it: here each query carries
    another text's template, and the window is keyed by those."""
    monitor = WorkloadMonitor(WorkloadDistance(N_COLUMNS), 0.01, **CONFIG)
    handed = [analyze(parse(sql)) for sql in reversed(TEXTS[:4])]
    for day, (sql, template) in enumerate(zip(TEXTS[:4], handed)):
        monitor.observe(WorkloadQuery(sql=sql, timestamp=day * 0.1), template)
    assert list(monitor._keys) == [template_key(t, SWGO) for t in handed]
    monitor.rebase()
    monitor.observe(WorkloadQuery(sql=TEXTS[4], timestamp=0.5), handed[0])  # a reading
    assert len(monitor.readings) == 1
    assert b"QueryTemplate" not in pickle.dumps(monitor.state())
