"""Kill-resume tests for the serve daemon.

Boundary swap mode states a hard contract: a daemon killed at *any*
checkpoint write and restarted with ``--resume`` replays to the same
stream position, window contents, and active design — the full run
outcome is bit-identical to an uninterrupted one.  Verified two ways:

* in-process — :class:`SimulatedCrash` fault injection at every write
  boundary (and a double-crash: the resumed run crashes again);
* subprocess — ``repro serve`` SIGKILLed for real via
  ``REPRO_STATE_CRASH_AFTER``, then rerun with ``--resume``; stdout
  diffs clean against the uninterrupted baseline.
"""

import filecmp
import os
import pickle
import signal
import subprocess
import sys

import pytest

from repro import RobustDesignSession, RunConfig, ServeConfig
from repro.state import RunCheckpointer, SimulatedCrash

# 56 days / 14-day windows: 3 interior boundaries, at least one online
# re-design and swap, 4 checkpoint writes — small enough to sweep.
TINY = dict(
    workload="R1",
    days=56,
    window_days=14,
    queries_per_day=4,
    n_samples=2,
    iterations=1,
    legacy_tables=5,
    backend="serial",
)

CLI_SCALE = [
    "--days", "56", "--window-days", "14", "--queries-per-day", "4",
    "--samples", "2", "--seed", "42",
]


def tiny_daemon():
    return RobustDesignSession(RunConfig(**TINY)).daemon(
        ServeConfig(swap_mode="boundary", min_window_queries=4)
    )


def normalize(outcome):
    """Every deterministic field of a serve outcome (no wall-clock)."""
    return (
        outcome.position,
        outcome.windows,
        outcome.triggers,
        outcome.redesigns_launched,
        outcome.redesigns_failed,
        outcome.swaps,
        outcome.final_epoch,
        outcome.final_design_digest,
        outcome.structure_count,
        outcome.design_price_bytes,
        outcome.drift_readings,
        outcome.drift_alarms,
        tuple((p.position, p.timestamp, p.epoch, p.cost_ms) for p in outcome.priced),
    )


@pytest.fixture(scope="module")
def baseline():
    return normalize(tiny_daemon().run())


class TestInProcessCrashSweep:
    def count_writes(self, tmp_path):
        daemon = tiny_daemon()
        daemon.checkpointer = RunCheckpointer(tmp_path / "count")
        daemon.run()
        return daemon.checkpointer.writes

    def test_kill_at_every_write_boundary(self, tmp_path, baseline):
        writes = self.count_writes(tmp_path)
        assert writes >= 4  # >= 3 window boundaries + the stop snapshot
        for boundary in range(1, writes + 1):
            path = tmp_path / f"crash-{boundary}"
            crashed = tiny_daemon()
            crashed.checkpointer = RunCheckpointer(path, crash_after=boundary)
            with pytest.raises(SimulatedCrash):
                crashed.run()
            resumed = tiny_daemon()
            resumed.checkpointer = RunCheckpointer(path, resume=True)
            outcome = resumed.run()
            assert outcome.resumed
            assert normalize(outcome) == baseline, f"diverged at write {boundary}"

    def test_double_crash_then_resume(self, tmp_path, baseline):
        path = tmp_path / "double"
        first = tiny_daemon()
        first.checkpointer = RunCheckpointer(path, crash_after=1)
        with pytest.raises(SimulatedCrash):
            first.run()
        second = tiny_daemon()
        second.checkpointer = RunCheckpointer(path, resume=True, crash_after=2)
        with pytest.raises(SimulatedCrash):
            second.run()
        third = tiny_daemon()
        third.checkpointer = RunCheckpointer(path, resume=True)
        assert normalize(third.run()) == baseline

    def test_resume_without_snapshot_starts_fresh(self, tmp_path, baseline):
        daemon = tiny_daemon()
        daemon.checkpointer = RunCheckpointer(tmp_path / "fresh", resume=True)
        outcome = daemon.run()
        assert not outcome.resumed
        assert normalize(outcome) == baseline

    def test_relaunched_pending_redesign_lands_identically(self, tmp_path, baseline):
        """Crash with a re-design in flight: the resumed daemon relaunches
        the task from its checkpointed tuple and swaps in the identical
        design."""
        path = tmp_path / "pending"
        crashed = tiny_daemon()
        crashed.checkpointer = RunCheckpointer(path, crash_after=1)
        with pytest.raises(SimulatedCrash):
            crashed.run()
        # The first write is the first window boundary — by then the
        # drift policy has launched re-design #0.
        resumed = tiny_daemon()
        resumed.checkpointer = RunCheckpointer(path, resume=True)
        state = resumed.checkpointer.load("serve", resumed._state_key)
        assert state["pending"] is not None
        assert normalize(resumed.run()) == baseline


class TestCheckpointSize:
    def test_costing_entry_does_not_grow_with_the_stream(self, tmp_path):
        """A serve checkpoint's ``costing`` entry is the service's counters
        and nothing else, so it pickles to the same size after 200 and
        after 2 000 ingested queries — up to pickle writing an int below
        256 in one byte and one below 65 536 in two."""
        sizes = []
        for count in (200, 2_000):
            daemon = RobustDesignSession(RunConfig(**{**TINY, "queries_per_day": 40})).daemon(
                ServeConfig(swap_mode="boundary", min_window_queries=4, max_queries=count)
            )
            daemon.checkpointer = RunCheckpointer(tmp_path / f"q{count}")
            assert daemon.run().position == count
            state = RunCheckpointer(tmp_path / f"q{count}", resume=True).load(
                "serve", daemon._state_key
            )
            assert set(state["costing"]) == {"stats"}
            sizes.append(len(pickle.dumps(state["costing"])))
        assert 0 <= sizes[1] - sizes[0] <= 8, sizes


class TestSubprocessSigkill:
    def run_cli(self, tmp_path, name, *extra, env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repro_src()), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        if env_extra:
            env.update(env_extra)
        args = [
            sys.executable, "-m", "repro", "serve", *CLI_SCALE,
            "--checkpoint", str(tmp_path / name), *extra,
        ]
        # Output goes to files and the CLI leads its own session: a
        # SIGKILLed daemon's orphaned pool workers (process backend)
        # inherit its stdout, so waiting on a pipe would wait on them.
        # The daemon's own exit is what is awaited; then the session is
        # killed, so no worker outlives the test.
        out, err = tmp_path / f"{name}.out", tmp_path / f"{name}.err"
        with open(out, "w") as stdout, open(err, "w") as stderr:
            process = subprocess.Popen(
                args, stdout=stdout, stderr=stderr, text=True, env=env,
                start_new_session=True,
            )
            try:
                returncode = process.wait(timeout=300)
            finally:
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        return subprocess.CompletedProcess(
            args, returncode, out.read_text(), err.read_text()
        )

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        baseline = self.run_cli(tmp_path, "base")
        assert baseline.returncode == 0, baseline.stderr
        assert "dropped 0" in baseline.stdout

        crashed = self.run_cli(
            tmp_path, "kill", env_extra={"REPRO_STATE_CRASH_AFTER": "2"}
        )
        # A real SIGKILL, not an exception path.
        assert crashed.returncode == -signal.SIGKILL

        resumed = self.run_cli(tmp_path, "kill", "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == baseline.stdout

    def test_same_seed_runs_write_identical_checkpoints(self, tmp_path):
        """A checkpoint carries no wall-clock reading (the cost service
        exports its counters without ``eval_seconds``), so two same-seed
        runs write the same bytes."""
        for name in ("first", "second"):
            done = self.run_cli(tmp_path, name)
            assert done.returncode == 0, done.stderr
        assert filecmp.cmp(tmp_path / "first", tmp_path / "second", shallow=False)


def repro_src():
    import repro as package

    return os.path.dirname(os.path.dirname(os.path.abspath(package.__file__)))
