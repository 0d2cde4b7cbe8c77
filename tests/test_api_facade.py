"""Tests for the ``repro.api`` facade, the designer registry, and the
deprecation shims on the old entry points."""

import dataclasses

import pytest

from repro import DesignOutcome, RobustDesignSession, RunConfig
from repro.designers import registry
from repro.designers.no_design import NoDesign
from repro.parallel import ProcessBackend, SerialBackend
from repro.parallel.backends import ENV_BACKEND, ENV_JOBS

TINY = dict(
    days=56,
    window_days=28,
    queries_per_day=4,
    n_samples=2,
    iterations=1,
    legacy_tables=5,
    max_transitions=1,
    skip_transitions=0,
    seed=7,
)


class TestRunConfig:
    def test_defaults_valid(self):
        config = RunConfig()
        assert config.workload == "R1"
        assert config.backend == "auto"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workload": "XX"},
            {"engine": "gpu"},
            {"days": 0},
            {"days": 20, "window_days": 28},
            {"n_samples": 0},
            {"iterations": -1},
            {"gamma": -0.5},
            {"legacy_tables": -1},
            {"max_transitions": 0},
            {"skip_transitions": -1},
            {"window_days": 0},
            {"queries_per_day": 0},
            {"backend": "gpu"},
            {"backend": 42},
            {"jobs": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, overrides):
        with pytest.raises(ValueError):
            RunConfig(**overrides)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        """A NaN or infinite Γ used to pass here and crash the first design
        inside ``rng.uniform(0, Γ)`` with an ``OverflowError``."""
        with pytest.raises(ValueError, match="gamma"):
            RunConfig(gamma=gamma)

    def test_frozen(self):
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.days = 10

    def test_replace_revalidates(self):
        config = RunConfig(days=196)
        assert dataclasses.replace(config, days=84).days == 84
        with pytest.raises(ValueError):
            dataclasses.replace(config, days=-1)

    def test_scale_mapping(self):
        config = RunConfig(**TINY)
        scale = config.scale()
        assert scale.days == TINY["days"]
        assert scale.n_samples == TINY["n_samples"]
        assert scale.seed == TINY["seed"]
        assert scale.max_transitions == TINY["max_transitions"]

    def test_backend_instance_accepted(self):
        config = RunConfig(backend=SerialBackend())
        assert isinstance(config.backend, SerialBackend)

    def test_none_backend_rejected(self):
        # No backend value means "none": one worker is spelled "serial".
        with pytest.raises(ValueError, match="serial"):
            RunConfig(backend=None)


class TestSession:
    def test_design_deterministic_across_sessions(self):
        def fingerprint():
            with RobustDesignSession(RunConfig(**TINY, backend="serial")) as session:
                outcome = session.design()
                assert isinstance(outcome, DesignOutcome)
                assert outcome.price_bytes > 0
                assert outcome.report is not None
                return sorted(str(s) for s in outcome.structures)

        assert fingerprint() == fingerprint()

    def test_config_is_the_only_form(self):
        session = RobustDesignSession(RunConfig(**TINY))
        assert session.config.days == TINY["days"]
        with pytest.raises(TypeError):
            RobustDesignSession(**TINY)
        with pytest.raises(TypeError):
            RobustDesignSession(RunConfig(**TINY), seed=9)

    def test_designer_builds_from_registry(self):
        with RobustDesignSession(RunConfig(**TINY, backend="serial")) as session:
            designer, sampler = session.designer("NoDesign")
            assert isinstance(designer, NoDesign)
            assert sampler is None
            cliffguard, cg_sampler = session.designer("CliffGuard")
            assert cliffguard.n_samples == TINY["n_samples"]
            assert cg_sampler is not None
        with pytest.raises(ValueError):
            session.designer("NotADesigner")

    def test_override_the_factory_does_not_read_is_rejected(self):
        # Every call carries the session's n_samples / max_iterations;
        # any other key a factory would drop is named instead.
        with RobustDesignSession(RunConfig(**TINY, backend="serial")) as session:
            with pytest.raises(TypeError, match="'BanditDesigner' takes no 'seed'"):
                session.designer("BanditDesigner", seed=5)
            with pytest.raises(TypeError, match="takes no 'max_iteration'"):
                session.designer("MajorityVoteDesigner", max_iteration=3)
            with pytest.raises(TypeError, match="max_iteration"):
                session.designer("CliffGuard", max_iteration=3)
            majority, _ = session.designer("MajorityVoteDesigner", n_samples=3)
            assert majority.n_samples == 3

    def test_auto_backend_resolves_from_env(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "process")
        monkeypatch.setenv(ENV_JOBS, "2")
        with RobustDesignSession(RunConfig(**TINY)) as session:
            assert isinstance(session.backend, ProcessBackend)
            assert session.backend.jobs == 2

        monkeypatch.delenv(ENV_BACKEND)
        monkeypatch.delenv(ENV_JOBS)
        with RobustDesignSession(RunConfig(**TINY)) as session:
            assert isinstance(session.backend, SerialBackend)

    def test_gamma_defaults_to_observed_drift(self):
        with RobustDesignSession(RunConfig(**TINY)) as session:
            assert session.gamma > 0
        with RobustDesignSession(RunConfig(**TINY, gamma=0.123)) as session:
            assert session.gamma == 0.123


class TestRegistry:
    def test_canonical_order(self):
        assert registry.names() == [
            "NoDesign",
            "FutureKnowingDesigner",
            "ExistingDesigner",
            "MajorityVoteDesigner",
            "OptimalLocalSearchDesigner",
            "CliffGuard",
            "BanditDesigner",
        ]

    def test_duplicate_registration_rejected(self):
        factory = registry._FACTORIES["NoDesign"]
        with pytest.raises(ValueError):
            registry.register("NoDesign", factory)
        assert registry._FACTORIES["NoDesign"] is factory

    def test_unknown_designer_rejected(self):
        with pytest.raises(ValueError, match="unknown designer"):
            registry.get("NotADesigner", None, None, 0.0)

    def test_sampler_required_for_neighborhood_designers(self):
        with pytest.raises(ValueError, match="make_sampler"):
            registry.get("CliffGuard", None, None, 0.0, make_sampler=None)


class TestObservabilityKnobs:
    def test_trace_to_writes_parseable_events(self, tmp_path):
        import json

        from repro.obs import trace_to

        trace_path = tmp_path / "session.jsonl"
        with RobustDesignSession(RunConfig(**TINY, backend="serial")) as session:
            with trace_to(trace_path):
                session.design()
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        names = [e["event"] for e in events]
        assert "design_start" in names and "design_finish" in names
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)

    def test_metrics_registry_receives_costing_gauges(self):
        from repro.obs import get_metrics

        get_metrics().reset()
        with RobustDesignSession(RunConfig(**TINY, backend="serial")) as session:
            session.design()
        snap = get_metrics().snapshot()
        assert snap["costing.query_requests"] > 0
        assert snap["costing.raw_model_calls"] == snap["costing.query_requests"]

    def test_replay_publishes_no_costing_gauges(self):
        """A replay prices on services its cells own, so the session has
        nothing of its own to publish — not even a design's stale
        counters from an earlier call."""
        from repro.obs import get_metrics

        with RobustDesignSession(RunConfig(**TINY, backend="serial")) as session:
            session.design()
            get_metrics().reset()
            session.replay(which=["NoDesign"])
        assert get_metrics().snapshot().get("costing.query_requests", 0) == 0

    def test_serve_publishes_into_one_registry(self):
        """The daemon's ``serve.*`` metrics and the costing gauges of the
        service it priced on land in the same registry."""
        from repro.obs import get_metrics
        from repro.serve import ServeConfig

        get_metrics().reset()
        with RobustDesignSession(RunConfig(**TINY, backend="serial")) as session:
            outcome = session.serve(ServeConfig(swap_mode="boundary", max_queries=60))
        snap = get_metrics().snapshot()
        assert snap["serve.ingested"] == outcome.position == 60
        assert snap["costing.query_requests"] > 0

    def test_no_tracer_leaks_without_trace_path(self):
        from repro.obs import NULL_TRACER, tracer

        with RobustDesignSession(RunConfig(**TINY, backend="serial")) as session:
            session.design()
            assert tracer() is NULL_TRACER
        assert tracer() is NULL_TRACER


class TestCheckpointKnobs:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"checkpoint_path": 123},
            {"checkpoint_every": 0},
            {"checkpoint_every": -3},
            {"resume": True},  # resume without a checkpoint path
        ],
    )
    def test_invalid_checkpoint_knobs_rejected(self, overrides):
        with pytest.raises(ValueError):
            RunConfig(**overrides)

    def test_no_checkpointer_without_path(self):
        session = RobustDesignSession(RunConfig(**TINY))
        assert session.checkpointer is None

    def test_checkpointer_built_lazily_from_config(self, tmp_path):
        path = tmp_path / "run.ckpt"
        config = RunConfig(**TINY, checkpoint_path=path, checkpoint_every=2)
        session = RobustDesignSession(config)
        checkpointer = session.checkpointer
        assert checkpointer is session.checkpointer  # cached
        assert checkpointer.every == 2
        assert not checkpointer.resume

    def test_session_design_writes_and_resumes(self, tmp_path):
        path = tmp_path / "design.ckpt"
        with RobustDesignSession(
            RunConfig(**TINY, backend="serial", checkpoint_path=path)
        ) as session:
            first = session.design()
        assert path.exists()
        with RobustDesignSession(
            RunConfig(**TINY, backend="serial", checkpoint_path=path, resume=True)
        ) as session:
            resumed = session.design()
        assert sorted(str(s) for s in resumed.structures) == sorted(
            str(s) for s in first.structures
        )
        assert resumed.price_bytes == first.price_bytes
