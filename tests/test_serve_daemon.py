"""Tests for the online tuning daemon: hot-swap atomicity and liveness.

Four layers:

* unit — the ``Future`` that ``submit`` returns on every backend;
* end-to-end — a drifting stream across several windows fires online
  re-designs on serial, thread, and process backends; no query is
  dropped and every query is priced against exactly one design epoch;
* one thread — every pricing and every swap runs on the loop thread,
  whichever backend runs the re-design (what lets the deployed design
  be plain daemon state);
* degradation — a crashing or slow background re-design leaves the old
  design serving (``serve.degraded``), and the ``serve.*`` event family
  lands in the JSONL trace.
"""

import io
import json
import threading
import time

import pytest

import repro.serve.daemon as daemon_module
from repro import QueueSource, RobustDesignSession, RunConfig, ServeConfig
from repro.obs import RunTracer, set_tracer
from repro.parallel import SerialBackend, ThreadBackend
from repro.parallel.backends import settled

# Tiny but non-trivial: 70 days / 14-day windows = 5 windows (4 interior
# boundaries), drifting enough for the drift policy to fire repeatedly.
TINY = dict(
    workload="R1",
    days=70,
    window_days=14,
    queries_per_day=4,
    n_samples=2,
    iterations=1,
    legacy_tables=5,
    backend="serial",
)


def tiny_session(**overrides):
    return RobustDesignSession(RunConfig(**{**TINY, **overrides}))


def tiny_config(**serve):
    return ServeConfig(**{"swap_mode": "boundary", "min_window_queries": 4, **serve})


def tiny_serve(serve=None, **overrides):
    return tiny_session(**overrides).serve(tiny_config(**(serve or {})))


# -- the background re-design handle ---------------------------------------------


def _double(task):
    return task * 2


def _boom(task):
    raise RuntimeError(f"boom on {task}")


class TestBackgroundJob:
    """``ExecutionBackend.submit`` returns a ``concurrent.futures.Future``;
    the serial backend's (and a pool's inline fallback's) is already
    settled."""

    def test_completed_and_failed_factories(self):
        done = settled(_double, 21)
        assert done.done() and done.result() == 42 and done.exception() is None
        failed = settled(_boom, "x")
        assert failed.done()
        with pytest.raises(RuntimeError):
            failed.result()

    def test_serial_backend_submit_runs_inline(self):
        job = SerialBackend().submit(_double, 21)
        assert job.done()
        assert job.result() == 42

    def test_serial_backend_submit_captures_errors(self):
        job = SerialBackend().submit(_boom, "t")
        assert job.done()
        assert isinstance(job.exception(), RuntimeError)

    def test_thread_backend_submit_runs_in_background(self):
        with ThreadBackend(jobs=1) as backend:
            job = backend.submit(_double, 10)
            assert job.result(timeout=5.0) == 20
            assert job.exception() is None

    def test_thread_backend_submit_captures_errors(self):
        with ThreadBackend(jobs=1) as backend:
            job = backend.submit(_boom, "t")
            with pytest.raises(RuntimeError, match="boom"):
                job.result(timeout=5.0)

    def test_cancel_of_a_done_job_is_a_noop(self):
        job = settled(_double, 1)
        assert not job.cancel()
        assert job.result() == 2


# -- end-to-end ---------------------------------------------------------------------


def check_invariants(outcome):
    """The serve guarantees every e2e test asserts."""
    # Zero dropped queries: every ingested query was priced exactly once.
    assert outcome.dropped == 0
    assert [p.position for p in outcome.priced] == list(range(outcome.position))
    # Per-query epoch consistency: epochs never run ahead of the swap
    # count and never go backwards.
    epochs = [p.epoch for p in outcome.priced]
    assert all(a <= b for a, b in zip(epochs, epochs[1:]))
    assert max(epochs) <= outcome.swaps
    assert outcome.final_epoch == outcome.swaps


class TestServeEndToEnd:
    def test_online_redesigns_and_swaps(self):
        outcome = tiny_serve()
        assert outcome.position == 280
        assert outcome.windows >= 3
        assert outcome.triggers >= 1
        assert outcome.redesigns_launched >= 1
        assert outcome.redesigns_failed == 0
        assert outcome.swaps >= 1
        assert outcome.final_epoch >= 1
        assert outcome.structure_count > 0
        assert len(outcome.final_design_digest) == 16
        check_invariants(outcome)
        # Queries arriving before the first swap are priced on epoch 0,
        # later ones on the swapped-in designs.
        epochs = {p.epoch for p in outcome.priced}
        assert 0 in epochs and len(epochs) >= 2

    def test_queue_source_matches_trace_source(self):
        traced = tiny_serve()
        source = QueueSource()
        session = tiny_session()
        for query in session.context.trace("R1"):
            source.put_nowait(query)
        source.close()
        queued = session.serve(tiny_config(source=source))
        check_invariants(queued)
        assert queued.position == traced.position
        assert queued.swaps == traced.swaps
        assert queued.final_design_digest == traced.final_design_digest
        assert [(p.position, p.epoch, p.cost_ms) for p in queued.priced] == [
            (p.position, p.epoch, p.cost_ms) for p in traced.priced
        ]

    def test_thread_backend_boundary_mode_is_deterministic(self):
        serial = tiny_serve()
        threaded = tiny_serve(backend="thread", jobs=2)
        check_invariants(threaded)
        assert threaded.final_design_digest == serial.final_design_digest
        assert threaded.swaps == serial.swaps

    def test_process_backend_end_to_end(self):
        outcome = tiny_serve(backend="process", jobs=2)
        check_invariants(outcome)
        assert outcome.swaps >= 1
        # Boundary mode: the background process lands on the same design
        # as the serial run (the task tuple fully determines the result).
        assert outcome.final_design_digest == tiny_serve().final_design_digest

    def test_periodic_policy_fires_every_window(self):
        outcome = tiny_serve(serve=dict(policy="periodic", every=1))
        check_invariants(outcome)
        assert outcome.triggers == outcome.windows
        assert outcome.swaps >= 1

    def test_max_queries_stops_early(self):
        outcome = tiny_serve(serve=dict(max_queries=100))
        assert outcome.position == 100
        check_invariants(outcome)

    def test_record_queries_off_drops_the_log(self):
        outcome = tiny_serve(serve=dict(record_queries=False))
        assert outcome.priced is None
        assert outcome.dropped == 0

    def test_malformed_queries_are_recorded_and_kept_out_of_the_window(self):
        """An unparseable line mid-stream is priced ``None`` and counted as
        rejected; the drift window never sees it, so the next boundary's
        policy check does not re-parse it (it used to raise ``ParseError``
        out of the daemon there)."""
        from repro.obs import get_metrics
        from repro.workload.query import WorkloadQuery

        clean = tiny_serve()
        source = QueueSource()
        session = tiny_session()
        trace = list(session.context.trace("R1"))
        middle = len(trace) // 2
        stamp = trace[middle - 1].timestamp
        bad = [
            WorkloadQuery("SELEC nonsense(((", timestamp=stamp),
            WorkloadQuery("SELECT fact_00.attr_00 FROM fact_00 LIMIT 1e400", timestamp=stamp),
        ]
        trace[middle:middle] = bad
        for query in trace:
            source.put_nowait(query)
        source.close()
        get_metrics().reset()
        outcome = session.serve(tiny_config(source=source))
        assert outcome.position == len(trace)
        assert outcome.dropped == 0
        assert [p.position for p in outcome.priced if p.cost_ms is None] == [middle, middle + 1]
        assert get_metrics().snapshot()["serve.rejected"] == 2
        assert outcome.final_design_digest == clean.final_design_digest

    def test_non_finite_wire_number_is_counted_and_skipped(self, tmp_path):
        """A ``"timestamp": NaN`` line mid-stream is a protocol error the
        socket counts and skips; it used to raise ``ValueError`` out of
        the daemon's window index and end the run."""
        import socket

        from repro.serve.protocol import encode_control, encode_query
        from repro.serve.sources import SocketSource

        path = str(tmp_path / "serve.sock")
        source = SocketSource(path=path)
        session = tiny_session()
        good = [encode_query(query) for query in session.context.trace("R1")[:40]]
        poisoned = json.dumps({"sql": "SELECT fact_00.attr_00 FROM fact_00", "timestamp": float("nan")})
        lines = [*good[:20], poisoned, *good[20:], encode_control()]

        def feed():
            deadline = time.monotonic() + 10.0
            while True:  # the daemon binds the listener concurrently
                client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    client.connect(path)
                    break
                except OSError:
                    client.close()
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.02)
            with client:
                client.sendall(("\n".join(lines) + "\n").encode("utf-8"))

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            outcome = session.serve(tiny_config(source=source))
        finally:
            feeder.join()
        assert source.protocol_errors == 1
        assert outcome.position == len(good)
        check_invariants(outcome)

    def test_out_of_order_query_is_priced_and_clamped(self):
        """A query stamped before one already ingested (two clients merged
        in arrival order) is priced and recorded with its own timestamp;
        the window, the monitor and the history see it at the newest
        timestamp so far, and ``serve.late`` counts it.  The monitor used
        to raise out of the daemon here, after the query was priced."""
        from dataclasses import replace

        from repro.obs import get_metrics

        source = QueueSource()
        session = tiny_session()
        trace = list(session.context.trace("R1"))
        late = len(trace) // 2
        trace[late] = replace(trace[late], timestamp=trace[late - 1].timestamp - 0.5)
        for query in trace:
            source.put_nowait(query)
        source.close()
        get_metrics().reset()
        outcome = session.serve(tiny_config(source=source))
        assert outcome.position == len(trace)
        assert outcome.dropped == 0
        assert get_metrics().snapshot()["serve.late"] == 1
        assert outcome.priced[late].timestamp == trace[late].timestamp
        assert outcome.priced[late].cost_ms is not None
        check_invariants(outcome)


# -- one thread ---------------------------------------------------------------------


class TestOneThread:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_pricing_and_swaps_run_on_the_loop_thread(self, backend, monkeypatch):
        daemon_class = daemon_module.ServeDaemon
        price, finish = daemon_class._price, daemon_class._finish_pending
        pricings: list[int] = []
        swaps: list[int] = []

        def traced_price(daemon, query):
            pricings.append(threading.get_ident())
            return price(daemon, query)

        def traced_finish(daemon):
            before = daemon.swaps
            finish(daemon)
            if daemon.swaps > before:
                swaps.append(threading.get_ident())

        monkeypatch.setattr(daemon_class, "_price", traced_price)
        monkeypatch.setattr(daemon_class, "_finish_pending", traced_finish)
        outcome = tiny_serve(backend=backend, jobs=2)
        check_invariants(outcome)
        assert len(pricings) == outcome.position
        assert len(swaps) == outcome.swaps >= 1
        assert set(pricings) | set(swaps) == {threading.get_ident()}


# -- the front end ------------------------------------------------------------------


def _parses_inside(monkeypatch, method: str) -> list[int]:
    """Count every parse (whatever module calls it) made inside the
    daemon's ``method``; the count is the returned list's one element."""
    from repro.sql import parser

    count, inside = [0], [False]
    parse_statement = parser._Parser.parse_statement
    wrapped = getattr(daemon_module.ServeDaemon, method)

    def counting(self):
        count[0] += inside[0]
        return parse_statement(self)

    def marked(daemon, *args):
        inside[0] = True
        try:
            return wrapped(daemon, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(parser._Parser, "parse_statement", counting)
    monkeypatch.setattr(daemon_module.ServeDaemon, method, marked)
    return count


class TestFrontEnd:
    """A served text is bound to its shape's plan: ingest parses once
    per new shape, and nothing downstream parses a served text again."""

    def test_ingest_parses_once_per_shape(self, monkeypatch):
        from repro.sql.lexer import LITERALS

        parses = _parses_inside(monkeypatch, "_price")
        session = tiny_session()
        outcome = session.serve(tiny_config())
        check_invariants(outcome)
        assert outcome.swaps >= 1
        texts = {query.sql for query in session.context.trace("R1")}
        shapes = set()
        for sql in texts:
            parts = LITERALS.split(sql)
            shapes.add((tuple(parts[0::3]), tuple(map(bool, parts[1::3]))))
        assert parses[0] == len(shapes) < len(texts)

    def test_learner_observation_parses_nothing(self, monkeypatch):
        parses = _parses_inside(monkeypatch, "_observe_window")
        session = tiny_session(workload="ECOMMERCE", days=56, queries_per_day=5, seed=42)
        daemon = session.daemon(
            tiny_config(designer="BanditDesigner", policy="periodic", every=1, min_window_queries=1)
        )
        outcome = daemon.run()
        assert daemon.learner.observations >= outcome.windows - 1 >= 2
        assert parses[0] == 0


# -- degradation --------------------------------------------------------------------


def _failing_redesign(task):
    raise RuntimeError("designer crashed")


def _slow_redesign(task):
    time.sleep(1.0)
    return None, 1.0


def _wedged_redesign(task):
    time.sleep(3.0)
    raise RuntimeError("wedged re-design finished")


class TestDegradation:
    def test_crashed_redesign_keeps_the_old_design_serving(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "_redesign_task", _failing_redesign)
        outcome = tiny_serve()
        # Every trigger launched, every launch failed, nothing swapped —
        # and ingestion never stalled.
        assert outcome.redesigns_launched >= 1
        assert outcome.redesigns_failed == outcome.redesigns_launched
        assert outcome.swaps == 0
        assert outcome.final_epoch == 0
        assert outcome.dropped == 0
        assert all(p.epoch == 0 for p in outcome.priced)
        # The policy kept retrying at later boundaries.
        assert outcome.redesigns_launched >= 2

    def test_slow_redesign_times_out_and_degrades(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "_redesign_task", _slow_redesign)
        # drain=False: whatever is still in flight at stream end is
        # cancelled, not awaited — a too-slow re-design must never block
        # shutdown (nor ever swap in).
        outcome = tiny_serve(
            backend="thread",
            jobs=1,
            serve=dict(swap_mode="async", redesign_timeout=0.05, drain=False),
        )
        assert outcome.redesigns_failed >= 1
        assert outcome.swaps == 0
        assert outcome.dropped == 0
        assert all(p.epoch == 0 for p in outcome.priced)

    def test_boundary_barrier_honours_the_timeout(self, monkeypatch):
        """The boundary-mode barrier and the stop-time drain wait at most
        the time left on ``redesign_timeout``: a wedged re-design is
        cancelled and degraded instead of stalling ingestion."""
        monkeypatch.setattr(daemon_module, "_redesign_task", _wedged_redesign)
        buffer = io.StringIO()
        previous = set_tracer(RunTracer(buffer, clock=lambda: 0.0))
        started = time.perf_counter()
        try:
            outcome = tiny_serve(
                backend="thread", jobs=1, serve=dict(redesign_timeout=0.2)
            )
        finally:
            set_tracer(previous)
        wall = time.perf_counter() - started
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        degraded = [e for e in events if e["event"] == "serve.degraded"]
        assert outcome.redesigns_failed == len(degraded) >= 1
        assert all("TimeoutError" in e["error"] for e in degraded)
        assert outcome.swaps == 0
        assert outcome.dropped == 0
        # Never waited out the 3 s task: four launches at most 0.2 s each.
        assert wall < 2.5


# -- observability ------------------------------------------------------------------


class TestServeEvents:
    @pytest.fixture
    def events(self):
        buffer = io.StringIO()
        previous = set_tracer(RunTracer(buffer, clock=lambda: 0.0))
        try:
            tiny_serve()
        finally:
            set_tracer(previous)
        return [json.loads(line) for line in buffer.getvalue().splitlines()]

    def test_serve_event_family_is_emitted(self, events):
        kinds = {event["event"] for event in events}
        assert {
            "serve.start",
            "serve.window",
            "serve.trigger",
            "serve.redesign",
            "serve.swap",
            "serve.stop",
        } <= kinds

    def test_start_and_stop_carry_run_identity(self, events):
        start = next(e for e in events if e["event"] == "serve.start")
        assert start["workload"] == "R1"
        assert start["swap_mode"] == "boundary"
        assert start["resumed"] is False
        stop = next(e for e in events if e["event"] == "serve.stop")
        assert stop["position"] == 280
        assert stop["swaps"] >= 1
        assert len(stop["digest"]) == 16

    def test_swap_events_fence_epochs(self, events):
        swaps = [e for e in events if e["event"] == "serve.swap"]
        assert swaps
        for swap in swaps:
            assert swap["epoch"] == swap["retired_epoch"] + 1
            assert swap["stale_queries"] >= 0
            assert swap["structures"] > 0

    def test_degraded_event_on_failure(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "_redesign_task", _failing_redesign)
        buffer = io.StringIO()
        previous = set_tracer(RunTracer(buffer, clock=lambda: 0.0))
        try:
            tiny_serve()
        finally:
            set_tracer(previous)
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        degraded = [e for e in events if e["event"] == "serve.degraded"]
        assert degraded
        assert "designer crashed" in degraded[0]["error"]
        assert not any(e["event"] == "serve.swap" for e in events)

    def test_serve_metrics_are_registered(self):
        from repro.obs import get_metrics

        get_metrics().reset()
        outcome = tiny_serve()
        snapshot = get_metrics().snapshot()
        assert snapshot["serve.ingested"] == outcome.position
        assert snapshot["serve.windows"] == outcome.windows
        assert snapshot["serve.swaps"] == outcome.swaps
        assert snapshot["serve.epoch"] == outcome.final_epoch
