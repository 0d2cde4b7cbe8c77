"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — print the schema/workload configuration at a given scale,
* ``drift`` — Table-1-style drift statistics for R1/S1/S2,
* ``design`` — run one designer on one window and print the design,
* ``compare`` — the Figure-7-style designer comparison,
* ``gamma`` — the Figure-8/9 robustness-knob sweep,
* ``stats`` — cost-evaluation-service counters for a CliffGuard replay
  (what-if calls, dedup ratio, costing wall-time), plus the
  process-wide metrics registry (:mod:`repro.obs`),
* ``serve`` — the online tuning daemon: ingest a query stream (replayed
  trace, or a newline-JSON socket via ``--listen``), re-design in the
  background when the policy fires, hot-swap atomically, checkpoint at
  every boundary (docs/serving.md),
* ``feed`` — the matching producer: generate the drifting trace at the
  given scale and stream it into a ``repro serve`` socket.

Every command builds a :class:`repro.api.RobustDesignSession` from the
flags; ``--backend``/``--jobs`` select the execution backend that runs
whole replays as cells — ``gamma``'s per-Γ ones and, on more than one
worker, ``compare``'s per-designer ones — and ``serve``'s background
re-designs (see :mod:`repro.parallel`; costing inside one design run is
always in-process).  On one worker ``compare`` replays all designers
over one shared cost service (docs/api.md gives the measured reason);
``--trace PATH`` appends a structured JSONL event trace of the run
(schema in ``docs/observability.md``).  All commands are deterministic
given ``--seed`` at any worker count.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import BACKENDS, ENGINES, WORKLOADS, RobustDesignSession, RunConfig
from repro.designers import registry
from repro.harness.experiments import run_costing_stats, run_table1
from repro.harness.reporting import (
    format_costing_stats,
    format_designer_effort,
    format_metrics,
    format_table,
)
from repro.obs import get_metrics, trace_to
from repro.serve.config import POLICIES, SWAP_MODES, ServeConfig


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--days", type=int, default=196, help="trace length in days")
    parser.add_argument(
        "--queries-per-day", type=int, default=15, help="workload intensity"
    )
    parser.add_argument("--window-days", type=int, default=28, help="window size")
    parser.add_argument("--samples", type=int, default=10, help="CliffGuard n")
    parser.add_argument("--seed", type=int, default=42, help="generator seed")
    parser.add_argument(
        "--transitions", type=int, default=1, help="evaluated window transitions"
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="auto",
        help="execution backend (auto = REPRO_BACKEND env, else serial); "
        "compare fans its designers out only on more than one worker",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="thread/process worker count (default: one per core)"
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="append a structured JSONL event trace to PATH "
        "(see docs/observability.md for the schema)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write crash-safe progress snapshots to PATH at every "
        "iteration/window/Γ-point boundary (see docs/state.md)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="snapshot every N boundaries (default 1)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the snapshot at --checkpoint; the resumed run "
        "is bit-identical to an uninterrupted one",
    )


def _session(args: argparse.Namespace) -> RobustDesignSession:
    config = RunConfig(
        workload=args.workload,
        engine=getattr(args, "engine", "columnar"),
        days=args.days,
        window_days=args.window_days,
        queries_per_day=args.queries_per_day,
        n_samples=args.samples,
        seed=args.seed,
        max_transitions=args.transitions,
        skip_transitions=max(0, args.days // args.window_days - 1 - args.transitions),
        backend=args.backend,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    return RobustDesignSession(config)


def cmd_info(args: argparse.Namespace) -> int:
    session = _session(args)
    context = session.context
    schema = context.schema
    windows = context.trace_windows(args.workload)
    print(f"schema: {len(schema.tables)} tables, {schema.total_columns} columns")
    print(
        f"workload {args.workload}: {len(context.trace(args.workload))} queries, "
        f"{len(windows)} windows of {args.window_days} days"
    )
    print(f"default Γ (avg past drift): {session.gamma:.6f}")
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    rows = run_table1(_session(args).context)
    print(
        format_table(
            ["Workload", "Min δ", "Max δ", "Avg δ", "Std δ"],
            [[r.workload, r.minimum, r.maximum, r.average, r.std] for r in rows],
            title="Drift between consecutive windows (Table 1)",
        )
    )
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    with _session(args) as session:
        designer, sampler = session.designer(args.designer)
        if session.checkpointer is not None and hasattr(designer, "checkpointer"):
            designer.checkpointer = session.checkpointer
        windows = session.context.trace_windows(args.workload)
        index = min(len(windows) - 2, max(0, len(windows) - 1 - args.transitions))
        window = windows[index]
        if sampler is not None:
            sampler.set_pool(
                [
                    q
                    for q in session.context.trace(args.workload)
                    if q.timestamp < window.span_days[0]
                ]
            )
        design = designer.design(window)
        structures = session.adapter.structures(design)
        print(
            f"{args.designer} produced {len(structures)} structures "
            f"({session.adapter.design_price(design) / 1e9:.2f} GB):"
        )
        for structure in structures[: args.limit]:
            print("  " + structure.to_sql())
        if len(structures) > args.limit:
            print(f"  … and {len(structures) - args.limit} more (raise --limit)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    with _session(args) as session:
        outcome = session.replay()
        title = f"Designer comparison: {args.workload} on the {args.engine} engine"
        print(
            format_table(
                ["Designer", "Avg latency (ms)", "Max latency (ms)"],
                [
                    [
                        name,
                        outcome.run(name).mean_average_ms,
                        outcome.run(name).mean_max_ms,
                    ]
                    for name in registry.names()
                    if name in outcome.runs
                ],
                title=title,
            )
        )
    return 0


def cmd_gamma(args: argparse.Namespace) -> int:
    with _session(args) as session:
        base = session.gamma
        gammas = [m * base for m in (0.0, 0.5, 1.0, 2.0, 6.0)]
        sweep = session.sweep(gammas=gammas)
        print(
            format_table(
                ["Γ", "Avg latency (ms)", "Max latency (ms)"],
                [[f"{g:.5f}", avg, mx] for g, (avg, mx) in sorted(sweep.items())],
                title=f"Robustness-knob sweep on {args.workload} (Figures 8–9)",
            )
        )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    with _session(args) as session:
        outcome = run_costing_stats(
            session.context,
            args.workload,
            engine=args.engine,
            checkpointer=session.checkpointer,
        )
    print(
        format_costing_stats(
            outcome.service_stats,
            title=(
                f"Cost-evaluation service: CliffGuard on {args.workload} "
                f"({args.engine} engine)"
            ),
        )
    )
    print()
    print(format_designer_effort(outcome.replay, title="Designer effort"))
    report = outcome.cliffguard_report
    if report is not None:
        print()
        print(
            f"last CliffGuard run: {report.iterations} iterations, "
            f"{report.accepted_moves} accepted moves, "
            f"{report.query_cost_calls} query-cost calls "
            f"({report.raw_cost_model_calls} raw), "
            f"final α = {report.final_alpha:g} "
            f"({report.eval_wall_seconds:.2f}s costing, "
            f"{report.nominal_wall_seconds:.2f}s nominal)"
        )
        print(
            f"structure store: {report.matrix_hits} cells reused, "
            f"{report.matrix_pairs_priced} cells priced"
        )
    print()
    print(format_metrics(get_metrics(), title="Metrics registry"))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    serve_config = ServeConfig(
        source=args.listen or "trace",
        designer=args.designer,
        policy=args.policy,
        threshold=args.threshold,
        every=args.every,
        min_window_queries=args.min_window_queries,
        swap_mode=args.swap_mode,
        redesign_timeout=args.redesign_timeout,
        max_queries=args.max_queries,
        drain=not args.no_drain,
    )
    with _session(args) as session:
        outcome = session.serve(serve_config)
    # Deterministic summary: no wall-clock, no resumed flag — a resumed
    # run's stdout must diff clean against the uninterrupted baseline.
    print(f"serve {args.workload} on {args.engine}: source={serve_config.source_label()}")
    print(
        f"position {outcome.position}  windows {outcome.windows}  "
        f"triggers {outcome.triggers}"
    )
    print(
        f"redesigns launched {outcome.redesigns_launched}  "
        f"failed {outcome.redesigns_failed}  swaps {outcome.swaps}"
    )
    print(f"final epoch {outcome.final_epoch}  digest {outcome.final_design_digest}")
    print(
        f"structures {outcome.structure_count}  "
        f"price_bytes {outcome.design_price_bytes}"
    )
    print(f"drift readings {outcome.drift_readings}  alarms {outcome.drift_alarms}")
    priced = 0 if outcome.priced is None else len(outcome.priced)
    print(f"priced {priced}  dropped {outcome.dropped}")
    return 0 if outcome.dropped == 0 else 1


def _feed_endpoint(spec: str):
    from repro.serve.sources import resolve_source

    # One spec grammar for both ends: the address ``serve --listen SPEC``
    # would bind is the one dialled here (same checks, same host default).
    try:
        return resolve_source(spec)
    except ValueError as exc:
        raise SystemExit(f"feed: bad --connect: {exc}") from None


def _feed_connect(spec: str, timeout: float):
    import socket
    import time

    endpoint = _feed_endpoint(spec)
    if endpoint.path is not None:
        family, address = socket.AF_UNIX, endpoint.path
    else:
        family, address = socket.AF_INET, (endpoint.host, endpoint.port)
    deadline = time.monotonic() + timeout
    while True:
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.connect(address)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() >= deadline:
                raise SystemExit(f"feed: could not connect to {spec} within {timeout:g}s")
            time.sleep(0.05)


def cmd_feed(args: argparse.Namespace) -> int:
    from repro.serve.protocol import encode_control, encode_query

    # A malformed spec fails before the trace is generated, not after.
    _feed_endpoint(args.connect)
    queries = _session(args).context.trace(args.workload)
    if args.limit is not None:
        queries = queries[: args.limit]
    lines = [encode_query(q) for q in queries]
    if args.shutdown:
        lines.append(encode_control())
    data = ("\n".join(lines) + "\n").encode("utf-8")
    sock = _feed_connect(args.connect, args.connect_timeout)
    sock.settimeout(args.connect_timeout)
    try:
        sock.sendall(data)
    except (BrokenPipeError, ConnectionResetError, TimeoutError):
        # The daemon went away mid-stream (e.g. SIGKILLed in the CI
        # kill-resume leg) — a rerun against the resumed daemon re-sends
        # from the top, which is exactly what resume fast-forward expects.
        print("feed: connection closed by server mid-stream", file=sys.stderr)
        return 0
    finally:
        sock.close()
    print(
        f"feed: sent {len(queries)} queries to {args.connect}"
        + (" + shutdown" if args.shutdown else "")
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CliffGuard reproduction: robust database designs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, handler, extras in (
        ("info", cmd_info, ()),
        ("drift", cmd_drift, ()),
        ("design", cmd_design, ("engine", "designer", "limit")),
        ("compare", cmd_compare, ("engine",)),
        ("gamma", cmd_gamma, ()),
        ("stats", cmd_stats, ("engine",)),
    ):
        sub = subparsers.add_parser(name)
        _add_scale_arguments(sub)
        sub.add_argument(
            "--workload", choices=WORKLOADS, default="R1", help="trace profile"
        )
        if "engine" in extras:
            sub.add_argument("--engine", choices=ENGINES, default="columnar")
        if "designer" in extras:
            sub.add_argument(
                "--designer", choices=registry.names(), default="CliffGuard"
            )
        if "limit" in extras:
            sub.add_argument("--limit", type=int, default=10)
        sub.set_defaults(handler=handler)

    serve = subparsers.add_parser(
        "serve", help="run the online tuning daemon (docs/serving.md)"
    )
    _add_scale_arguments(serve)
    serve.add_argument("--workload", choices=WORKLOADS, default="R1")
    serve.add_argument("--engine", choices=ENGINES, default="columnar")
    serve.add_argument(
        "--listen",
        metavar="SPEC",
        default=None,
        help="accept queries on a socket (unix:PATH or tcp:HOST:PORT); "
        "default replays the generated trace in-process",
    )
    serve.add_argument(
        "--designer",
        choices=registry.names(),
        default="CliffGuard",
        help="designer driving the re-designs (an online learner such as "
        "BanditDesigner designs in-process at each boundary)",
    )
    serve.add_argument("--policy", choices=POLICIES, default="drift")
    serve.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="drift-policy trigger threshold (default: the session Γ)",
    )
    serve.add_argument(
        "--every", type=int, default=1, help="periodic-policy cadence in windows"
    )
    serve.add_argument(
        "--min-window-queries",
        type=int,
        default=8,
        help="skip the trigger check on windows thinner than this",
    )
    serve.add_argument(
        "--swap-mode",
        choices=SWAP_MODES,
        default="boundary",
        help="swap as soon as the re-design lands (async) or at the next "
        "window boundary (boundary; deterministic, kill-resume safe)",
    )
    serve.add_argument(
        "--redesign-timeout",
        type=float,
        default=None,
        help="cancel a background re-design slower than this many seconds",
    )
    serve.add_argument(
        "--max-queries", type=int, default=None, help="stop after N queries"
    )
    serve.add_argument(
        "--no-drain",
        action="store_true",
        help="cancel (instead of await) an in-flight re-design at stream end",
    )
    serve.set_defaults(handler=cmd_serve)

    feed = subparsers.add_parser(
        "feed", help="stream the generated trace into a repro serve socket"
    )
    _add_scale_arguments(feed)
    feed.add_argument("--workload", choices=WORKLOADS, default="R1")
    feed.add_argument(
        "--connect",
        metavar="SPEC",
        required=True,
        help="daemon address (unix:PATH or tcp:HOST:PORT)",
    )
    feed.add_argument(
        "--limit", type=int, default=None, help="send only the first N queries"
    )
    feed.add_argument(
        "--shutdown",
        action="store_true",
        help="send the shutdown control after the last query",
    )
    feed.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to retry the initial connect (and per-send timeout)",
    )
    feed.set_defaults(handler=cmd_feed)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trace", None):
        with trace_to(args.trace):
            return args.handler(args)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
