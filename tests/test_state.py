"""Tests for ``repro.state``: snapshot format, fault injection, resume.

Three layers:

* unit — :class:`RunCheckpointer` file-format mechanics (atomic write,
  digest/version/identity verification, ``every`` gating, the
  :class:`SimulatedCrash` hook);
* resume equivalence — kill-at-every-boundary sweeps over the CliffGuard
  loop (on both engine substrates), the windowed replay, and the
  scheduled replay, asserting resumed == uninterrupted bit-for-bit
  (modulo wall-clock fields);
* experiment runners — Γ-sweep / designer-comparison /
  schedule-comparison resume at their unit granularity.
"""

import io
import json
import pickle
from dataclasses import fields, replace

import pytest

from repro.core.cliffguard import CliffGuard
from repro.designers.base import (
    ColumnarAdapter,
    RowstoreAdapter,
    default_budget_bytes,
)
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.rowstore_nominal import RowstoreNominalDesigner
from repro.engine.optimizer import ColumnarCostModel
from repro.harness.replay import replay
from repro.harness.scheduler import DriftTriggeredPolicy, PeriodicPolicy
from repro.obs import MetricsRegistry, RunTracer, set_tracer
from repro.rowstore.optimizer import RowstoreCostModel
from repro.serve.sources import TraceSource
from repro.state import (
    FORMAT_VERSION,
    CheckpointCorruptError,
    CheckpointMismatchError,
    CheckpointVersionError,
    RunCheckpointer,
    SimulatedCrash,
    run_key,
)
from repro.workload.distance import WorkloadDistance
from repro.workload.sampler import NeighborhoodSampler


# -- helpers ---------------------------------------------------------------------


def _stack(substrate: str, schema):
    """(adapter, nominal) for one engine substrate, built fresh."""
    if substrate == "columnar":
        adapter = ColumnarAdapter(
            ColumnarCostModel(schema), default_budget_bytes(schema, 0.5)
        )
        return adapter, ColumnarNominalDesigner(adapter)
    adapter = RowstoreAdapter(RowstoreCostModel(schema), default_budget_bytes(schema, 0.5))
    return adapter, RowstoreNominalDesigner(adapter)


def _sampler(schema, trace, window, seed=3):
    pool = [q for q in trace if q.timestamp < window.span_days[0]]
    return NeighborhoodSampler(
        WorkloadDistance(schema.total_columns),
        schema,
        pool=pool,
        seed=seed,
        min_query_set=4,
        max_query_set=8,
    )


def _report_facts(report):
    """Every report field the resume-equivalence contract covers.

    ``RESUME_EXEMPT_FIELDS`` names the excluded ones: wall-clock timings
    and the cache-warmth tallies (matrix hits / delta savings), which by
    design depend on how much derived cache state survived the kill."""
    exempt = type(report).RESUME_EXEMPT_FIELDS
    return {
        f.name: getattr(report, f.name)
        for f in fields(report)
        if f.name not in exempt
    }


def _window_facts(run):
    """Deterministic fields of every WindowOutcome (drop design_seconds)."""
    return [
        (
            w.window_index,
            w.average_ms,
            w.max_ms,
            w.design_price_bytes,
            w.structure_count,
            w.query_cost_calls,
            w.raw_cost_model_calls,
        )
        for w in run.windows
    ]


# -- run_key ---------------------------------------------------------------------


class TestRunKey:
    def test_deterministic_and_sensitive(self):
        assert run_key("a", 1, 2.5) == run_key("a", 1, 2.5)
        assert run_key("a", 1) != run_key("a", 2)
        assert run_key("a", 1) != run_key("a", 1, None)

    def test_boundary_between_parts(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert run_key("ab", "c") != run_key("a", "bc")


# -- the checkpointer ------------------------------------------------------------


class TestCheckpointerUnit:
    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RunCheckpointer(tmp_path / "c", every=0)
        with pytest.raises(ValueError):
            RunCheckpointer(tmp_path / "c", crash_after=0)

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        key = run_key("unit", 1)
        RunCheckpointer(path).save("unit", key, {"step": 3, "alpha": 2.5})
        loaded = RunCheckpointer(path, resume=True).load("unit", key)
        assert loaded == {"step": 3, "alpha": 2.5}

    def test_load_without_resume_returns_none(self, tmp_path):
        path = tmp_path / "run.ckpt"
        key = run_key("unit")
        RunCheckpointer(path).save("unit", key, {"x": 1})
        assert RunCheckpointer(path, resume=False).load("unit", key) is None

    def test_load_missing_file_returns_none(self, tmp_path):
        ckpt = RunCheckpointer(tmp_path / "absent.ckpt", resume=True)
        assert ckpt.load("unit", run_key("unit")) is None

    def test_latest_snapshot_wins(self, tmp_path):
        path = tmp_path / "run.ckpt"
        key = run_key("unit")
        writer = RunCheckpointer(path)
        writer.save("unit", key, {"step": 1})
        writer.save("unit", key, {"step": 2})
        assert RunCheckpointer(path, resume=True).load("unit", key) == {"step": 2}

    def test_flipped_payload_byte_is_corrupt(self, tmp_path):
        path = tmp_path / "run.ckpt"
        key = run_key("unit")
        RunCheckpointer(path).save("unit", key, {"x": 1})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            RunCheckpointer(path, resume=True).load("unit", key)

    def test_truncated_payload_is_corrupt(self, tmp_path):
        path = tmp_path / "run.ckpt"
        key = run_key("unit")
        RunCheckpointer(path).save("unit", key, {"x": list(range(100))})
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointCorruptError):
            RunCheckpointer(path, resume=True).load("unit", key)

    def test_missing_header_is_corrupt(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b"no newline here")
        with pytest.raises(CheckpointCorruptError):
            RunCheckpointer(path, resume=True).load("unit", run_key("unit"))

    def test_foreign_magic_is_corrupt(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b'{"magic":"something-else"}\n')
        with pytest.raises(CheckpointCorruptError):
            RunCheckpointer(path, resume=True).load("unit", run_key("unit"))

    @staticmethod
    def _saved_as_version(path, version: int) -> str:
        """Save a valid snapshot, then restamp its header's version."""
        key = run_key("unit")
        RunCheckpointer(path).save("unit", key, {"x": 1})
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        header["version"] = version
        path.write_bytes(json.dumps(header).encode() + raw[newline:])
        return key

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "run.ckpt"
        key = self._saved_as_version(path, 999)
        with pytest.raises(CheckpointVersionError):
            RunCheckpointer(path, resume=True).load("unit", key)

    def test_version_1_snapshot_refused(self, tmp_path):
        """A version-1 costing export carries a ``workload`` cache and two
        stats fields this build no longer has: refused, not half-loaded."""
        assert FORMAT_VERSION > 1
        path = tmp_path / "run.ckpt"
        key = self._saved_as_version(path, 1)
        with pytest.raises(CheckpointVersionError):
            RunCheckpointer(path, resume=True).load("unit", key)

    def test_version_2_snapshot_refused(self, tmp_path):
        """A version-2 costing export carries the per-(design, query)
        cost cache this build no longer has: refused, not half-loaded."""
        assert FORMAT_VERSION > 2
        path = tmp_path / "run.ckpt"
        key = self._saved_as_version(path, 2)
        with pytest.raises(CheckpointVersionError):
            RunCheckpointer(path, resume=True).load("unit", key)

    def test_version_3_snapshot_refused(self, tmp_path):
        """A version-3 serve payload pickles its ledger and query lists
        one object per query; this build reads them as columns: refused,
        not half-loaded."""
        assert FORMAT_VERSION == 4
        path = tmp_path / "run.ckpt"
        key = self._saved_as_version(path, 3)
        with pytest.raises(CheckpointVersionError):
            RunCheckpointer(path, resume=True).load("unit", key)

    def test_kind_and_key_mismatch_refused(self, tmp_path):
        path = tmp_path / "run.ckpt"
        RunCheckpointer(path).save("replay", run_key("a"), {"x": 1})
        reader = RunCheckpointer(path, resume=True)
        with pytest.raises(CheckpointMismatchError):
            reader.load("gamma_sweep", run_key("a"))
        with pytest.raises(CheckpointMismatchError):
            reader.load("replay", run_key("b"))

    def test_every_gates_writes_and_payload_calls(self, tmp_path):
        path = tmp_path / "run.ckpt"
        key = run_key("unit")
        calls = []
        ckpt = RunCheckpointer(path, every=3)
        for step in range(7):
            wrote = ckpt.step("unit", key, lambda: calls.append(1) or {"s": 1})
            assert wrote == ((step + 1) % 3 == 0)
        # Skipped boundaries must never pay for payload construction.
        assert len(calls) == 2
        assert ckpt.writes == 2
        assert ckpt.steps == 7

    def test_simulated_crash_leaves_a_durable_snapshot(self, tmp_path):
        path = tmp_path / "run.ckpt"
        key = run_key("unit")
        ckpt = RunCheckpointer(path, crash_after=2)
        ckpt.save("unit", key, {"step": 1})
        with pytest.raises(SimulatedCrash):
            ckpt.save("unit", key, {"step": 2})
        # The write that "crashed" completed first — exactly like SIGKILL
        # immediately after a durable checkpoint.
        assert RunCheckpointer(path, resume=True).load("unit", key) == {"step": 2}

    def test_simulated_crash_not_caught_by_except_exception(self, tmp_path):
        ckpt = RunCheckpointer(tmp_path / "c", crash_after=1)
        with pytest.raises(SimulatedCrash):
            try:
                ckpt.save("unit", run_key("u"), {})
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash must escape except Exception")

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "run.ckpt"
        RunCheckpointer(path).save("unit", run_key("u"), {"x": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]

    def test_save_failure_removes_temp_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        ckpt = RunCheckpointer(path)

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            ckpt.save("unit", run_key("u"), Unpicklable())
        assert list(tmp_path.iterdir()) == []

    def test_metrics_and_events(self, tmp_path):
        path = tmp_path / "run.ckpt"
        key = run_key("unit")
        registry = MetricsRegistry()
        buffer = io.StringIO()
        tracer = RunTracer(buffer, clock=lambda: 0.0)
        previous = set_tracer(tracer)
        try:
            ckpt = RunCheckpointer(path, every=2, metrics=registry)
            ckpt.step("unit", key, dict)
            ckpt.step("unit", key, dict)
            RunCheckpointer(path, resume=True, metrics=registry).load("unit", key)
        finally:
            set_tracer(previous)
        snap = registry.snapshot()
        assert snap["state.checkpoint_writes"] == 1
        assert snap["state.checkpoint_skips"] == 1
        assert snap["state.checkpoint_loads"] == 1
        assert snap["state.payload_bytes"] > 0
        assert snap["state.write_seconds"]["count"] == 1
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        names = [e["event"] for e in events]
        assert names == ["checkpoint_write", "checkpoint_load"]
        assert events[0]["kind"] == "unit"
        assert events[0]["bytes"] > 0


# -- CliffGuard resume equivalence ----------------------------------------------


class TestCliffGuardResume:
    def _design(self, tiny_star, tiny_trace, tiny_windows, substrate, ckpt=None):
        """One fresh CliffGuard run (new adapter/sampler every call)."""
        schema, _ = tiny_star
        window = tiny_windows[1]
        adapter, nominal = _stack(substrate, schema)
        sampler = _sampler(schema, tiny_trace, window)
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=3, max_iterations=2
        )
        robust.checkpointer = ckpt
        design = robust.design(window)
        return design, robust.last_report

    @pytest.mark.parametrize("substrate", ["columnar", "rowstore"])
    def test_kill_at_every_boundary_resumes_bit_identical(
        self, tmp_path, tiny_star, tiny_trace, tiny_windows, substrate
    ):
        baseline_design, baseline_report = self._design(
            tiny_star, tiny_trace, tiny_windows, substrate
        )
        # Count the run's checkpoint boundaries with an uncrashed pass.
        probe = RunCheckpointer(tmp_path / f"{substrate}.probe.ckpt")
        probe_design, probe_report = self._design(
            tiny_star, tiny_trace, tiny_windows, substrate, probe
        )
        assert probe_design == baseline_design
        assert _report_facts(probe_report) == _report_facts(baseline_report)
        assert probe.writes >= 2

        for boundary in range(1, probe.writes + 1):
            path = tmp_path / f"{substrate}.{boundary}.ckpt"
            with pytest.raises(SimulatedCrash):
                self._design(
                    tiny_star,
                    tiny_trace,
                    tiny_windows,
                    substrate,
                    RunCheckpointer(path, crash_after=boundary),
                )
            design, report = self._design(
                tiny_star,
                tiny_trace,
                tiny_windows,
                substrate,
                RunCheckpointer(path, resume=True),
            )
            assert design == baseline_design, f"boundary {boundary}"
            assert _report_facts(report) == _report_facts(baseline_report), (
                f"boundary {boundary}"
            )

    def test_same_seed_runs_write_identical_checkpoints(
        self, tmp_path, tiny_star, tiny_trace, tiny_windows
    ):
        """The snapshot pickles the report and the counter baseline with
        their wall-clock fields at 0 (copies: the live report keeps its
        timing), so two same-seed runs write the same bytes."""
        paths = [tmp_path / "first.ckpt", tmp_path / "second.ckpt"]
        for path in paths:
            _, report = self._design(
                tiny_star, tiny_trace, tiny_windows, "columnar", RunCheckpointer(path)
            )
            assert report.nominal_wall_seconds > 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_resumed_eval_wall_seconds_is_never_negative(
        self, tmp_path, tiny_star, tiny_trace, tiny_windows
    ):
        """The service's ``eval_seconds`` is its process's wall-clock and
        is not restored, so a run resumed on a fresh service times its
        evaluation from the resume, however far the killed service's
        clock had run."""
        schema, _ = tiny_star
        window = tiny_windows[1]

        def run(ckpt, clock):
            adapter, nominal = _stack("columnar", schema)
            adapter.costing.stats.eval_seconds = clock
            robust = CliffGuard(
                nominal,
                adapter,
                _sampler(schema, tiny_trace, window),
                gamma=0.005,
                n_samples=3,
                max_iterations=2,
            )
            robust.checkpointer = ckpt
            robust.design(window)
            return robust.last_report

        path = tmp_path / "clock.ckpt"
        with pytest.raises(SimulatedCrash):
            run(RunCheckpointer(path, crash_after=1), clock=1e6)
        report = run(RunCheckpointer(path, resume=True), clock=0.0)
        assert 0.0 <= report.eval_wall_seconds < 1e6

    def test_mismatched_configuration_refuses_to_resume(
        self, tmp_path, tiny_star, tiny_trace, tiny_windows
    ):
        path = tmp_path / "run.ckpt"
        schema, _ = tiny_star
        window = tiny_windows[1]
        adapter, nominal = _stack("columnar", schema)
        robust = CliffGuard(
            nominal,
            adapter,
            _sampler(schema, tiny_trace, window),
            gamma=0.005,
            n_samples=3,
            max_iterations=2,
        )
        robust.checkpointer = RunCheckpointer(path)
        robust.design(window)
        other = CliffGuard(
            nominal,
            adapter,
            _sampler(schema, tiny_trace, window),
            gamma=0.01,  # different run identity
            n_samples=3,
            max_iterations=2,
        )
        other.checkpointer = RunCheckpointer(path, resume=True)
        with pytest.raises(CheckpointMismatchError):
            other.design(window)

    def test_patience_stop_resumes_identically(
        self, tmp_path, tiny_star, tiny_trace, tiny_windows
    ):
        """A run that stops early must not restart its loop on resume."""

        def run(ckpt=None):
            schema, _ = tiny_star
            window = tiny_windows[1]
            adapter, nominal = _stack("columnar", schema)
            robust = CliffGuard(
                nominal,
                adapter,
                _sampler(schema, tiny_trace, window),
                gamma=0.005,
                n_samples=3,
                max_iterations=4,
                patience=1,
            )
            robust.checkpointer = ckpt
            return robust.design(window), robust.last_report

        baseline_design, baseline_report = run()
        probe = RunCheckpointer(tmp_path / "probe.ckpt")
        run(probe)
        for boundary in range(1, probe.writes + 1):
            path = tmp_path / f"patience.{boundary}.ckpt"
            with pytest.raises(SimulatedCrash):
                run(RunCheckpointer(path, crash_after=boundary))
            design, report = run(RunCheckpointer(path, resume=True))
            assert design == baseline_design
            assert _report_facts(report) == _report_facts(baseline_report)


# -- replay / scheduled replay resume -------------------------------------------


class TestReplayResume:
    def _replay(self, tiny_star, tiny_trace, tiny_windows, ckpt=None):
        schema, _ = tiny_star
        adapter, nominal = _stack("columnar", schema)
        sampler = _sampler(schema, tiny_trace, tiny_windows[1])
        robust = CliffGuard(
            nominal, adapter, sampler, gamma=0.005, n_samples=3, max_iterations=1
        )
        return replay(
            TraceSource.from_windows(tiny_windows),
            {"ExistingDesigner": nominal, "CliffGuard": robust},
            adapter,
            candidate_source=nominal,
            workload_name="tiny",
            checkpointer=ckpt,
        )

    def test_kill_at_every_window_resumes_bit_identical(
        self, tmp_path, tiny_star, tiny_trace, tiny_windows
    ):
        baseline = self._replay(tiny_star, tiny_trace, tiny_windows)
        probe = RunCheckpointer(tmp_path / "probe.ckpt")
        probed = self._replay(tiny_star, tiny_trace, tiny_windows, probe)
        assert probed.evaluated_query_counts == baseline.evaluated_query_counts
        assert probe.writes >= 2

        for boundary in range(1, probe.writes + 1):
            path = tmp_path / f"replay.{boundary}.ckpt"
            with pytest.raises(SimulatedCrash):
                self._replay(
                    tiny_star,
                    tiny_trace,
                    tiny_windows,
                    RunCheckpointer(path, crash_after=boundary),
                )
            resumed = self._replay(
                tiny_star,
                tiny_trace,
                tiny_windows,
                RunCheckpointer(path, resume=True),
            )
            assert resumed.evaluated_query_counts == baseline.evaluated_query_counts
            for name in baseline.runs:
                assert _window_facts(resumed.run(name)) == _window_facts(
                    baseline.run(name)
                ), f"{name} @ boundary {boundary}"


class TestPolicyState:
    def test_periodic_roundtrip(self):
        policy = PeriodicPolicy(every=3)
        policy.should_redesign(2, None, None)
        snapshot = policy.state()
        assert pickle.loads(pickle.dumps(snapshot)) == {"last_redesign": 2}
        policy.reset()
        policy.restore(snapshot)
        # Anchored at window 2: window 4 is within the period, 5 is not.
        assert not policy.should_redesign(4, object(), None)
        assert policy.should_redesign(5, object(), None)

    def test_drift_triggered_roundtrip(self):
        policy = DriftTriggeredPolicy(lambda a, b: 1.0, threshold=0.5)
        policy.should_redesign(3, object(), object())
        snapshot = policy.state()
        policy.reset()
        assert policy.triggers == []
        policy.restore(snapshot)
        assert policy.triggers == [3]
        # The restored list must be a copy, not an alias of the snapshot.
        policy.triggers.append(9)
        assert snapshot == {"triggers": [3]}


# -- the cost service's export carries no wall-clock reading ------------------------


def test_costing_export_carries_counters_but_no_wall_clock(tiny_star, tiny_windows):
    """``eval_seconds`` is exported as 0; an import keeps the importing
    service's own reading — also from a snapshot written while the
    export still carried it — and every other counter is restored."""
    schema, _ = tiny_star
    adapter, nominal = _stack("columnar", schema)
    nominal.design(tiny_windows[1])
    stats = adapter.costing.stats
    assert stats.eval_seconds > 0
    state = adapter.costing.export_state()
    assert state["stats"] == replace(stats, eval_seconds=0.0)

    older = {"stats": replace(stats, eval_seconds=123.0)}
    for exported in (state, older):
        resumed, _ = _stack("columnar", schema)
        resumed.costing.stats.eval_seconds = 0.5
        resumed.costing.import_state(exported)
        assert resumed.costing.stats == replace(stats, eval_seconds=0.5)


# -- no snapshot holds a wall-clock value ------------------------------------------

_SAME_SEED = dict(
    workload="R1", days=56, window_days=14, queries_per_day=4, n_samples=2,
    iterations=1, legacy_tables=5, max_transitions=2, skip_transitions=1, seed=2,
)


_SAVE = RunCheckpointer.save


def _snapshots(monkeypatch, kind: str, path) -> list[bytes]:
    """The bytes of every snapshot one same-seed run writes to ``path``."""
    from repro import RobustDesignSession, RunConfig, ServeConfig

    written: list[bytes] = []

    def recording(self, *args):
        _SAVE(self, *args)
        written.append(self.path.read_bytes())

    monkeypatch.setattr(RunCheckpointer, "save", recording)
    backend = "thread" if kind == "replay-cells" else "serial"
    config = RunConfig(**_SAME_SEED, backend=backend, jobs=2, checkpoint_path=path)
    with RobustDesignSession(config) as session:
        if kind == "design":
            session.design()
        elif kind.startswith("replay"):
            session.replay(which=["ExistingDesigner", "CliffGuard"])
        else:
            # An online learner designs inline at launch; its result
            # waits in the snapshots until the next boundary swaps it in.
            session.serve(
                ServeConfig(
                    designer="BanditDesigner", policy="periodic",
                    swap_mode="boundary", min_window_queries=1,
                )
            )
    return written


@pytest.mark.parametrize("kind", ["design", "replay", "replay-cells", "serve"])
def test_no_snapshot_holds_a_wall_clock_value(tmp_path, monkeypatch, kind):
    """Two same-seed runs write the same bytes at every boundary: each
    timing (``eval_seconds``, ``nominal_wall_seconds``, a replay's
    ``design_seconds``, a learner's re-design seconds) is pickled as 0
    and kept in the live result only (docs/state.md)."""
    first = _snapshots(monkeypatch, kind, tmp_path / "first.ckpt")
    second = _snapshots(monkeypatch, kind, tmp_path / "second.ckpt")
    # Two workers take both cells in one batch and checkpoint once.
    assert len(first) >= (1 if kind == "replay-cells" else 2)
    assert first == second


# -- snapshot bytes do not depend on the string-hash seed ---------------------------

#: Run in a child process under a given ``PYTHONHASHSEED``; prints the
#: sha256 of a 200-projection design's pickle, of a row-store design's,
#: and of a seed-1 serve snapshot's payload (which carries no wall-clock
#: reading: ``eval_seconds`` is exported as 0).  Re-pickled in the child,
#: so a set or dict whose order follows the hash seed shows up as
#: different bytes.
_HASH_SEED_PROBE = r"""
import hashlib, pickle, sys, tempfile
from pathlib import Path

import repro
from repro import RunConfig, ServeConfig
from repro.engine.design import PhysicalDesign
from repro.engine.projection import Projection, SortColumn
from repro.rowstore.design import RowstoreDesign
from repro.rowstore.index import Index
from repro.rowstore.matview import MaterializedView
from repro.state import RunCheckpointer

def digest(data):
    return hashlib.sha256(data).hexdigest()

projections = []
for t in range(10):
    for k in range(20):
        columns = tuple(f"c{(k + j) % 13}" for j in range(1 + k % 5))
        projections.append(
            Projection(f"t{t}", columns, (SortColumn(columns[0]),))
        )
design = PhysicalDesign(frozenset(projections))
assert pickle.loads(pickle.dumps(design)) == design
rowstore = RowstoreDesign.of(
    *(Index(f"t{t}", (f"a{k}", f"b{t}")) for t in range(6) for k in range(6)),
    *(MaterializedView(f"t{t}", (f"g{t}",), (f"m{t}",)) for t in range(6)),
)
assert pickle.loads(pickle.dumps(rowstore)) == rowstore
print(digest(pickle.dumps(design)), digest(pickle.dumps(rowstore)))

config = RunConfig(
    workload="R1", days=56, window_days=14, queries_per_day=4, n_samples=2,
    iterations=1, legacy_tables=5, backend="serial", seed=1,
)
serve = ServeConfig(swap_mode="boundary", min_window_queries=4)
daemon = repro.RobustDesignSession(config).daemon(serve)
path = Path(tempfile.mkdtemp()) / "serve.ckpt"
daemon.checkpointer = RunCheckpointer(path)
daemon.run()
raw = path.read_bytes()
payload = pickle.loads(raw[raw.index(b"\n") + 1 :])
print(digest(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)))
"""


def test_snapshot_bytes_independent_of_hash_seed():
    """A design pickles its structures in canonical order, not in its
    frozenset's hash order: two processes under different
    ``PYTHONHASHSEED`` values dump identical bytes for a design and for a
    seed-1 serve snapshot, and the design unpickles to an equal value."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


def test_format_4_design_state_still_loads(monkeypatch):
    """A snapshot written before the canonical order carries each design
    field as a frozenset (the fields-only pickle); it loads to the same
    design."""
    from repro.engine.design import PhysicalDesign
    from repro.engine.projection import Projection, SortColumn
    from repro.rowstore.design import RowstoreDesign
    from repro.rowstore.index import Index
    from repro.rowstore.matview import MaterializedView
    from repro.state.capture import PickleFieldsOnly

    design = PhysicalDesign.of(
        Projection("t", ("a", "b"), (SortColumn("a"),)),
        Projection("u", ("c",), (SortColumn("c"),)),
    )
    rowstore = RowstoreDesign.of(Index("t", ("a",)), MaterializedView("t", ("b",), ("a",)))
    for cls in (PhysicalDesign, RowstoreDesign):
        monkeypatch.setattr(cls, "__getstate__", PickleFieldsOnly.__getstate__)
    legacy = [pickle.dumps(design), pickle.dumps(rowstore)]
    monkeypatch.undo()
    assert legacy[0] != pickle.dumps(design)
    assert pickle.loads(legacy[0]) == design
    assert pickle.loads(legacy[0]).for_table("t") == design.for_table("t")
    assert pickle.loads(legacy[1]) == rowstore
