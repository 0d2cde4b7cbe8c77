"""Tests for the observability layer (:mod:`repro.obs`).

Three layers of coverage:

* unit — :class:`RunTracer` JSONL mechanics (seq ordering, round-trip,
  repr fallback, null tracer, active-tracer swapping) and the
  :class:`MetricsRegistry` instruments;
* integration — CliffGuard, the cost-evaluation service, and the
  execution backends emit the documented events when a tracer is active;
* equivalence — serial and pooled runs emit the same *logical* event
  sequence (timestamps and wall-time payloads excluded), the tracing
  analogue of the bit-identity guarantee in test_backend_equivalence.
"""

from __future__ import annotations

import io
import json
import types

import pytest

from repro.core.cliffguard import CliffGuard
from repro.costing.service import CostEvaluationService
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.harness.reporting import format_metrics
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    RunTracer,
    get_metrics,
    set_tracer,
    trace_to,
    tracer,
)
from repro.parallel.backends import ProcessBackend, SerialBackend, ThreadBackend
from repro.workload.distance import WorkloadDistance
from repro.workload.sampler import NeighborhoodSampler

#: Payload fields whose values are legitimately nondeterministic — every
#: other field must be identical across runs and backends.
TIMING_FIELDS = ("t", "seconds")


def parse(buffer: io.StringIO) -> list[dict]:
    """Parse a tracer sink back into event dicts (asserts valid JSONL)."""
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


def logical(events: list[dict]) -> list[dict]:
    """Events with the timing fields stripped (the deterministic part)."""
    return [
        {k: v for k, v in e.items() if k not in TIMING_FIELDS} for e in events
    ]


@pytest.fixture
def capture():
    """Install a capturing tracer; yields a ``read()`` returning events."""
    buffer = io.StringIO()
    active = RunTracer(buffer, clock=lambda: 0.0)
    previous = set_tracer(active)
    try:
        yield lambda: parse(buffer)
    finally:
        set_tracer(previous)


class TestRunTracer:
    def test_round_trip_and_seq_ordering(self):
        buffer = io.StringIO()
        t = RunTracer(buffer, clock=lambda: 42.5)
        t.emit("first", index=0, tags=["a", "b"])
        t.emit("second", value=1.25)
        events = parse(buffer)
        assert [e["event"] for e in events] == ["first", "second"]
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["t"] == 42.5 for e in events)
        assert events[0]["tags"] == ["a", "b"]
        assert events[1]["value"] == 1.25

    def test_unserializable_payload_falls_back_to_repr(self):
        buffer = io.StringIO()
        RunTracer(buffer, clock=lambda: 0.0).emit("odd", payload=object())
        event = parse(buffer)[0]
        assert event["payload"].startswith("<object object")

    def test_open_appends_and_close_releases(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with RunTracer.open(path) as t:
            t.emit("one")
        with RunTracer.open(path) as t:
            t.emit("two")
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in events] == ["one", "two"]
        # Each tracer numbers its own events; appending restarts seq.
        assert [e["seq"] for e in events] == [0, 0]

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("ignored", anything=1)
        NULL_TRACER.flush()
        NULL_TRACER.close()


class TestActiveTracer:
    def test_default_active_tracer_is_null(self):
        assert tracer() is NULL_TRACER or tracer().enabled in (True, False)

    def test_set_tracer_swaps_and_restores(self):
        replacement = RunTracer(io.StringIO(), clock=lambda: 0.0)
        previous = set_tracer(replacement)
        try:
            assert tracer() is replacement
        finally:
            assert set_tracer(previous) is replacement
        assert tracer() is previous

    def test_set_tracer_none_resets_to_null(self):
        previous = set_tracer(None)
        try:
            assert tracer() is NULL_TRACER
        finally:
            set_tracer(previous)

    def test_trace_to_writes_and_restores(self, tmp_path):
        path = tmp_path / "run.jsonl"
        before = tracer()
        with trace_to(path) as active:
            assert tracer() is active
            tracer().emit("inside", step=1)
        assert tracer() is before
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events == [
            {"event": "inside", "seq": 0, "t": events[0]["t"], "step": 1}
        ]


class TestMetricsRegistry:
    def test_instruments_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == 2.5
        assert snap["h"] == {"count": 2, "total": 4.0, "mean": 2.0, "min": 1.0, "max": 3.0}
        assert "c" in registry and len(registry) == 3

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="not a Gauge"):
            registry.gauge("x")

    def test_reset_preserves_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc(7)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.counter("x") is counter
        assert registry.snapshot()["x"] == 1

    def test_samples_are_name_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("b").set(1.0)
        registry.counter("a").inc()
        registry.histogram("c").observe(2.0)
        samples = registry.samples()
        assert [s.name for s in samples] == ["a", "b", "c"]
        assert [s.kind for s in samples] == ["counter", "gauge", "histogram"]
        assert samples[2].value == "n=1 mean=2"

    def test_format_metrics_renders_table(self):
        registry = MetricsRegistry()
        assert "(no metrics recorded)" in format_metrics(registry)
        registry.counter("hits").inc(3)
        rendered = format_metrics(registry, title="Registry")
        assert "Registry" in rendered and "hits" in rendered and "3" in rendered

    def test_global_registry_is_a_singleton(self):
        assert get_metrics() is get_metrics()


# -- integration: the design loop ----------------------------------------------------


@pytest.fixture
def parts(tiny_star, tiny_trace, tiny_windows, columnar_adapter):
    schema, _ = tiny_star
    window = tiny_windows[1]
    distance = WorkloadDistance(schema.total_columns)
    pool = [q for q in tiny_trace if q.timestamp < window.span_days[0]]
    sampler = NeighborhoodSampler(
        distance, schema, pool=pool, seed=3, min_query_set=4, max_query_set=8
    )
    nominal = ColumnarNominalDesigner(columnar_adapter)
    return columnar_adapter, nominal, sampler, window


class TestCliffGuardEvents:
    def test_design_emits_event_stream(self, parts, capture):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.01, n_samples=3, max_iterations=2
        )
        robust.design(window)
        events = capture()
        names = [e["event"] for e in events]
        assert names[0] == "design_start"
        assert "design_finish" in names
        assert names.count("iteration") >= 1
        start = events[0]
        assert start["designer"] == "CliffGuard"
        assert start["gamma"] == 0.01
        # seq is the strictly increasing deterministic ordering key.
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        for alpha_event in (e for e in events if e["event"] == "alpha"):
            assert alpha_event["reason"] in ("success", "failure")
            assert alpha_event["value"] > 0

    def test_no_events_without_tracer(self, parts):
        adapter, nominal, sampler, window = parts
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.01, n_samples=2, max_iterations=1
        )
        assert tracer().enabled is False
        robust.design(window)  # must not raise, must not require a sink


# -- integration: the cost-evaluation service ----------------------------------------


class _StubModel:
    """Deterministic toy cost model (cost = len(sql))."""

    def query_cost(self, sql_or_profile, design) -> float:
        sql = sql_or_profile if isinstance(sql_or_profile, str) else sql_or_profile.sql
        return float(len(sql)) + float(len(list(design)))

    def workload_cost(self, queries, design):  # pragma: no cover - unused
        raise NotImplementedError


class TestServiceEvents:
    def test_publish_metrics_snapshots_stats(self, monkeypatch):
        registry = MetricsRegistry()
        monkeypatch.setattr("repro.costing.service.get_metrics", lambda: registry)
        service = CostEvaluationService(_StubModel())
        service.query_cost("SELECT 1", ("s",))
        service.query_cost("SELECT 1", ("s",))
        service.publish_metrics()
        snap = registry.snapshot()
        assert snap["costing.query_requests"] == 2
        assert snap["costing.raw_model_calls"] == 2
        # Re-publishing mirrors the latest snapshot, never accumulates.
        service.publish_metrics()
        assert registry.snapshot()["costing.query_requests"] == 2


# -- integration: the execution backends ---------------------------------------------


def _triple(task: int) -> int:
    """Module-level (picklable) worker for the process backend."""
    return task * 3


class TestBackendEvents:
    def test_serial_emits_interleaved_chunk_events(self, capture):
        with SerialBackend() as backend:
            assert backend.map(_triple, [1, 2]) == [3, 6]
        names = [(e["event"], e["index"]) for e in capture()]
        assert names == [
            ("chunk_dispatch", 0),
            ("chunk_complete", 0),
            ("chunk_dispatch", 1),
            ("chunk_complete", 1),
        ]

    def test_failed_task_emits_retry_then_complete(self, capture):
        attempts: list[int] = []

        def flaky(task: int) -> int:
            attempts.append(task)
            if task == 1 and attempts.count(1) == 1:
                raise RuntimeError("transient")
            return task * 3

        with ThreadBackend(jobs=2) as backend:
            assert backend.map(flaky, [0, 1, 2]) == [0, 3, 6]
        events = capture()
        retry = next(e for e in events if e["event"] == "chunk_retry")
        assert retry["index"] == 1 and "transient" in retry["error"]
        recovered = [
            e for e in events if e["event"] == "chunk_complete" and e.get("retried")
        ]
        assert [e["index"] for e in recovered] == [1]

    def test_disabled_tracing_emits_nothing(self):
        assert tracer().enabled is False
        with SerialBackend() as backend:
            assert backend.map(_triple, [1, 2, 3]) == [3, 6, 9]


class TestEventSequenceEquivalence:
    def _map_events(self, backend) -> list[dict]:
        buffer = io.StringIO()
        previous = set_tracer(RunTracer(buffer, clock=lambda: 0.0))
        try:
            with backend:
                assert backend.map(_triple, list(range(5))) == [0, 3, 6, 9, 12]
        finally:
            set_tracer(previous)
        return [
            {k: v for k, v in e.items() if k not in (*TIMING_FIELDS, "backend")}
            for e in parse(buffer)
        ]

    def test_thread_and_process_emit_identical_sequences(self):
        thread = self._map_events(ThreadBackend(jobs=2))
        process = self._map_events(ProcessBackend(jobs=2))
        assert thread == process

    def test_serial_and_pool_emit_same_logical_events(self):
        serial = self._map_events(SerialBackend())
        pooled = self._map_events(ThreadBackend(jobs=2))
        # Scheduling order differs (serial interleaves dispatch/complete),
        # but the multiset of logical events must match exactly.
        key = lambda e: (e["event"], e["index"], e["seq"])  # noqa: E731
        strip_seq = lambda e: {k: v for k, v in e.items() if k != "seq"}  # noqa: E731
        assert sorted(map(repr, map(strip_seq, serial))) == sorted(
            map(repr, map(strip_seq, pooled))
        )


class TestBackendMetrics:
    def test_map_publishes_counters(self):
        registry = get_metrics()
        calls_before = registry.counter("parallel.map_calls").value
        tasks_before = registry.counter("parallel.tasks").value
        with SerialBackend() as backend:
            backend.map(_triple, [1, 2, 3])
        assert registry.counter("parallel.map_calls").value == calls_before + 1
        assert registry.counter("parallel.tasks").value == tasks_before + 3
        assert registry.histogram("parallel.map_seconds").count >= 1


class TestNumpyGuard:
    def test_missing_bitwise_count_raises_actionable_error(self):
        from repro.workload.distance import _require_bitwise_count

        fake = types.SimpleNamespace(__version__="1.26.4")
        with pytest.raises(ImportError, match="numpy >= 2.0"):
            _require_bitwise_count(fake)

    def test_real_numpy_passes(self):
        import numpy as np

        from repro.workload.distance import _require_bitwise_count

        _require_bitwise_count(np)
