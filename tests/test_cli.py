"""CLI tests (micro scale so they stay fast)."""

import pytest

from repro.cli import build_parser, main

FAST = [
    "--days", "84", "--queries-per-day", "6", "--samples", "3",
    "--transitions", "1", "--seed", "2",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.workload == "R1"
        assert args.days == 196

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--workload", "XX"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", *FAST]) == 0
        out = capsys.readouterr().out
        assert "schema:" in out
        assert "Γ" in out

    def test_drift(self, capsys):
        assert main(["drift", *FAST]) == 0
        out = capsys.readouterr().out
        assert "R1" in out and "S1" in out and "S2" in out

    def test_design_nominal(self, capsys):
        assert main(["design", "--designer", "ExistingDesigner", "--limit", "3", *FAST]) == 0
        out = capsys.readouterr().out
        assert "CREATE PROJECTION" in out

    def test_design_rowstore(self, capsys):
        assert (
            main(
                [
                    "design",
                    "--engine",
                    "rowstore",
                    "--designer",
                    "ExistingDesigner",
                    *FAST,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "CREATE" in out

    def test_compare_small(self, capsys):
        assert (
            main(["compare", *FAST]) == 0
        )
        out = capsys.readouterr().out
        assert "CliffGuard" in out and "NoDesign" in out

    def test_stats_renders_metrics_registry(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["stats", "--backend", "serial", "--trace", str(trace_path), *FAST]) == 0
        out = capsys.readouterr().out
        assert "Metrics registry" in out
        assert "costing.query_requests" in out
        assert "arena.builds" in out

        import json

        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        names = {e["event"] for e in events}
        # The acceptance set: design-loop, kernel, and redesign events (a
        # single replay fans nothing out, so no chunk events).
        assert {"iteration", "kernel_batch", "redesign"} <= names
        assert "chunk_dispatch" not in names
        assert all("seq" in e and "t" in e for e in events)

    def test_trace_flag_appends_across_runs(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["info", "--trace", str(trace_path), *FAST]) == 0
        assert main(["info", "--trace", str(trace_path), *FAST]) == 0
        # info emits no events, but both runs must leave the file parseable.
        import json

        for line in trace_path.read_text().splitlines():
            json.loads(line)


class TestServe:
    SERVE = [
        "serve", "--days", "56", "--window-days", "14", "--queries-per-day", "4",
        "--samples", "2", "--seed", "42", "--policy", "periodic", "--min-window-queries", "1",
    ]

    def test_designer_defaults_to_cliffguard(self):
        assert build_parser().parse_args(["serve"]).designer == "CliffGuard"

    def test_bandit_designer_serves_deterministically(self, capsys):
        outputs = []
        for _ in range(2):
            assert main([*self.SERVE, "--designer", "BanditDesigner"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "swaps 0" not in outputs[0]
        assert main(self.SERVE) == 0
        assert capsys.readouterr().out != outputs[0]


class TestCheckpointFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["gamma"])
        assert args.checkpoint is None
        assert args.checkpoint_every == 1
        assert args.resume is False

    def test_parser_accepts_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["gamma", "--checkpoint", "run.ckpt", "--checkpoint-every", "3", "--resume"]
        )
        assert args.checkpoint == "run.ckpt"
        assert args.checkpoint_every == 3
        assert args.resume is True

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            main(["info", "--resume", *FAST])

    def test_gamma_checkpoint_then_resume_matches(self, capsys, tmp_path):
        path = tmp_path / "gamma.ckpt"
        assert main(["gamma", *FAST]) == 0
        baseline = capsys.readouterr().out
        assert main(["gamma", "--checkpoint", str(path), *FAST]) == 0
        capsys.readouterr()
        assert path.exists()
        assert (
            main(["gamma", "--checkpoint", str(path), "--resume", *FAST]) == 0
        )
        resumed = capsys.readouterr().out
        # The resumed run replays entirely from the snapshot and must
        # print the exact same deterministic table.
        assert resumed == baseline


class TestFeedConnect:
    """``feed --connect`` takes the spec grammar ``serve --listen`` does
    (the malformed cases of ``test_serve_sources.py::test_bad_specs_raise``
    plus a non-numeric port) and fails with a message, not a traceback."""

    @pytest.mark.parametrize(
        "spec", ["serve.sock", "tcp:nohost", "tcp:nohost:abc", "tcp:nohost:", "udp:1:2", ""]
    )
    def test_malformed_spec_exits_cleanly(self, spec, monkeypatch):
        from repro.workload.generator import TraceGenerator

        generated = []
        real_generate = TraceGenerator.generate

        def counted_generate(self, *args, **kwargs):
            generated.append(1)
            return real_generate(self, *args, **kwargs)

        monkeypatch.setattr(TraceGenerator, "generate", counted_generate)
        with pytest.raises(SystemExit) as excinfo:
            main(["feed", "--connect", spec, "--connect-timeout", "0", *FAST])
        message = str(excinfo.value)
        assert message.startswith("feed: bad --connect") and repr(spec) in message
        # The spec is checked before the trace is generated.
        assert generated == []

    def test_empty_tcp_host_dials_the_serve_default(self):
        import socket

        from repro.cli import _feed_connect

        with socket.create_server(("127.0.0.1", 0)) as server:
            port = server.getsockname()[1]
            client = _feed_connect(f"tcp::{port}", timeout=5.0)
            try:
                assert client.getpeername() == ("127.0.0.1", port)
            finally:
                client.close()
