"""The four end-to-end workloads: sizes, set-up, timed units, output checks.

Every workload is a closed loop with one caller on the serial backend.
A *round* is one freshly built stack (the set-up, timed as ``setup_s``)
followed by the workload's ``units_per_round`` timed units in order.
Sizes are constants here — the command line carries only the workload
name and the seed, and the seed reaches nothing but ``TraceGenerator``
and ``NeighborhoodSampler``.

The first round of a run always completes, whatever the time limit; if
time is left a run starts further rounds on fresh inputs and stops them
when the time is up.  Everything that must repeat exactly for one seed —
the quality pair, the output digest, the per-layer counts of the traced
pass — and everything that depends on which units are in the sample —
the mean, the peak memory — is taken over the first round only, so it
does not depend on how many units the machine got through.

Output checks run outside the timed regions and price through a second,
unmeasured adapter, so they never warm or count against the stack being
timed.

Timed regions are recorded as ``(start, end)`` intervals of
``time.perf_counter``; ``run.py`` turns them into seconds, calibrated
against the machine's speed while they lasted (see ``calibration.py``).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.api import RobustDesignSession, RunConfig
from repro.designers import registry
from repro.serve import ServeConfig, TraceSource
from repro.serve.handle import design_digest
from repro.sql.analyzer import extract_template

# ``repro.harness.replay`` the attribute is the re-exported function; the
# traced pass rebinds the function on the module, so call it through the
# module every time.
replay_module = importlib.import_module("repro.harness.replay")

#: Scratch space for the serve workload's checkpoint file (git-ignored,
#: inside the checkout; each round removes what it wrote).
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: Later rounds of one run draw fresh inputs from ``seed + stride·round``.
ROUND_SEED_STRIDE = 7919


class Stopwatch:
    """The ``(start, end)`` interval of one timed region."""

    def __enter__(self) -> "Stopwatch":
        gc.collect()
        self.start = self.end = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()

    @property
    def interval(self) -> tuple[float, float]:
        return self.start, self.end


class Budget:
    """A round runs at least ``min_units`` units, then until ``deadline``."""

    def __init__(self, deadline: float, min_units: int):
        self.deadline = deadline
        self.min_units = min_units

    def more(self, done: int) -> bool:
        return done < self.min_units or time.perf_counter() < self.deadline


@dataclass
class Round:
    """What one round measured and checked."""

    #: The interval of every timed unit, in order.
    units: list[tuple[float, float]] = field(default_factory=list)
    #: Named sub-populations of the timed intervals.
    splits: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Exact outputs of the round: the quality pair, the design
    #: footprint, and a digest of everything produced.
    outputs: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def _digest(parts) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _run_config(workload, seed: int, **extra) -> RunConfig:
    return RunConfig(
        workload=workload.family,
        engine=workload.engine,
        days=workload.days,
        window_days=workload.window_days,
        queries_per_day=workload.queries_per_day,
        n_samples=workload.n_samples,
        iterations=workload.iterations,
        seed=seed,
        legacy_tables=workload.legacy_tables,
        backend="serial",
        **extra,
    )


def sizes(workload) -> dict:
    """The workload's size constants, as stamped into every result."""
    fields = {k: v for k, v in asdict(workload).items() if k not in ("name", "why", "unit")}
    return {**fields, "days": workload.days, "units_per_round": workload.units_per_round}


def _round_outputs(rows: list[tuple]) -> dict:
    """Exact outputs of a round from per-unit rows that start with
    ``(average_ms, max_ms, price_bytes, structures)``."""
    if not rows:
        return {}
    return {
        "quality_avg_ms": statistics.fmean(row[0] for row in rows),
        "quality_max_ms": statistics.fmean(row[1] for row in rows),
        "design_price_bytes": statistics.fmean(row[2] for row in rows),
        "structure_count": statistics.fmean(row[3] for row in rows),
        "digest": _digest(rows),
    }


def _check_adapter(session: RobustDesignSession):
    """A second adapter over the same schema, with its own cost model and
    service: output checks price through it, not the measured stack."""
    context = session.context
    if session.config.engine == "columnar":
        return context.columnar_adapter("serial")
    return context.rowstore_adapter("serial")


# -- design-* ----------------------------------------------------------------------


@dataclass(frozen=True)
class DesignStream:
    """``CliffGuard.design`` over successive windows, one warm service."""

    name: str
    why: str
    family: str
    engine: str
    queries_per_day: int = 10
    window_days: int = 28
    skip_windows: int = 3
    units_per_round: int = 6
    n_samples: int = 8
    iterations: int = 4
    legacy_tables: int = 8
    #: (query, design) pairs re-priced on the scalar model at round end.
    bitwise_pairs: int = 32
    unit: str = "one CliffGuard.design call"

    @property
    def days(self) -> int:
        # One extra window: each design is judged on the window after it.
        return self.window_days * (self.skip_windows + self.units_per_round + 1)

    def setup(self, seed: int) -> dict:
        session = RobustDesignSession(_run_config(self, seed))
        trace = session.context.trace(self.family)
        windows = session.context.trace_windows(self.family)
        designer, sampler = session.designer("CliffGuard")
        return {
            "seed": seed, "session": session, "trace": trace, "windows": windows,
            "designer": designer, "sampler": sampler, "adapter": session.adapter,
            "check": _check_adapter(session), "designs": [],
        }

    def run(self, stack: dict, budget: Budget) -> Round:
        result = Round()
        adapter, check, designer = stack["adapter"], stack["check"], stack["designer"]
        windows, trace = stack["windows"], stack["trace"]
        outputs = []
        for index in range(self.skip_windows, self.skip_windows + self.units_per_round):
            if not budget.more(result.attempted):
                break
            window, following = windows[index], windows[index + 1]
            start, _ = window.span_days
            # Only-past queries: neighborhood sampling never sees the future.
            stack["sampler"].set_pool([q for q in trace if q.timestamp < start])
            result.attempted += 1
            try:
                with Stopwatch() as watch:
                    design = designer.design(window)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result.fail(f"window {index}: design raised")
                continue
            finally:
                result.units.append(watch.interval)
            history = designer.last_report.worst_case_history
            price = adapter.design_price(design)
            if price > adapter.budget_bytes:
                result.fail(f"window {index}: price {price} over budget {adapter.budget_bytes}")
            elif any(later > earlier for earlier, later in zip(history, history[1:])):
                result.fail(f"window {index}: worst-case history rose: {history}")
            report = check.workload_cost(following, design)
            stack["designs"].append((window, design))
            outputs.append(
                (report.average_ms, report.max_ms, price, len(adapter.structures(design)),
                 design_digest(adapter, design))
            )
        result.outputs = _round_outputs(outputs)
        return result

    def verify(self, stack: dict, result: Round) -> None:
        """Scalar model == service cost, bitwise, on sampled pairs.

        Reads the measured service, so it runs after the traced pass has
        frozen its counters."""
        designs = stack["designs"]
        if not designs:
            return
        rng = np.random.default_rng(stack["seed"])
        model = stack["check"].cost_model
        for _ in range(self.bitwise_pairs):
            window, design = designs[int(rng.integers(len(designs)))]
            sql = window.queries[int(rng.integers(len(window)))].sql
            scalar = model.query_cost(model.profile(sql), design)
            served = stack["adapter"].query_cost(sql, design)
            if scalar != served:
                result.fail(f"scalar {scalar!r} != service {served!r} for {sql!r}")
                return


# -- replay-r1-nominal ---------------------------------------------------------------


@dataclass(frozen=True)
class NominalReplay:
    """``harness.replay.replay`` one transition at a time, three cheap
    designers, one warm service."""

    name: str
    why: str
    family: str = "R1"
    engine: str = "columnar"
    queries_per_day: int = 10
    window_days: int = 28
    skip_windows: int = 3
    units_per_round: int = 16
    n_samples: int = 8
    iterations: int = 4
    legacy_tables: int = 8
    designers: tuple[str, ...] = ("NoDesign", "FutureKnowingDesigner", "ExistingDesigner")
    unit: str = "one replay transition (three designers)"

    @property
    def days(self) -> int:
        return self.window_days * (self.skip_windows + self.units_per_round + 1)

    def setup(self, seed: int) -> dict:
        session = RobustDesignSession(_run_config(self, seed))
        source = session.context.window_source(self.family)
        # None of the three designers explores a Γ-neighborhood, so the
        # drift history that derives Γ is not part of this stack.
        designers, _ = registry.build_all(
            session.adapter, session.nominal, 0.0, which=list(self.designers)
        )
        return {"session": session, "source": source, "designers": designers}

    def run(self, stack: dict, budget: Budget) -> Round:
        result = Round()
        session = stack["session"]
        outputs = []
        for index in range(self.skip_windows, self.skip_windows + self.units_per_round):
            if not budget.more(result.attempted):
                break
            result.attempted += 1
            try:
                with Stopwatch() as watch:
                    replayed = replay_module.replay(
                        stack["source"],
                        stack["designers"],
                        session.adapter,
                        candidate_source=session.nominal,
                        workload_name=self.family,
                        max_transitions=1,
                        skip_transitions=index,
                    )
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result.fail(f"transition {index}: replay raised")
                continue
            finally:
                result.units.append(watch.interval)
            if not replayed.evaluated_query_counts or not replayed.evaluated_query_counts[0]:
                result.fail(f"transition {index}: empty evaluation set")
                continue
            none, oracle, existing = (
                replayed.run(name).windows[0] for name in self.designers
            )
            if not oracle.average_ms <= existing.average_ms <= none.average_ms:
                result.fail(
                    f"transition {index}: average_ms not ordered: oracle "
                    f"{oracle.average_ms} existing {existing.average_ms} none {none.average_ms}"
                )
            outputs.append(
                (existing.average_ms, existing.max_ms, existing.design_price_bytes,
                 existing.structure_count, none.average_ms, oracle.average_ms,
                 replayed.evaluated_query_counts[0])
            )
        result.outputs = _round_outputs(outputs)
        return result

    def verify(self, stack: dict, result: Round) -> None:
        """Every replay check is made per transition, from the result."""


# -- serve-ecommerce-columnar --------------------------------------------------------


class TimedTraceSource(TraceSource):
    """A trace source that stamps every pull.

    The daemon pulls the next query only when it has finished with the
    previous one, so the gap between two stamps is the service time of
    one query measured from outside the daemon — including any window
    boundary that query crossed and any re-design that boundary ran
    inline.  The stream ends when the round's budget does.
    """

    def __init__(self, queries, window_days: float, budget: Budget):
        super().__init__(queries, window_days=window_days)
        self.budget = budget
        #: Set once the daemon exists; its launch counter, read at every
        #: pull, tells which gaps contained a re-design.
        self.daemon = None
        self.stamps: list[float] = []
        self.launched: list[int] = []

    async def stream(self):
        clock, more = time.perf_counter, self.budget.more
        stamps, launched, daemon = self.stamps, self.launched, self.daemon
        for pulled, query in enumerate(self.queries()):
            if not more(pulled):
                break
            launched.append(daemon.redesigns_launched)
            stamps.append(clock())
            yield query
        stamps.append(clock())
        launched.append(daemon.redesigns_launched)


_KINDS = {"SELECT": "read", "INSERT": "insert", "UPDATE": "update", "DELETE": "delete"}


@dataclass(frozen=True)
class ServeStream:
    """``RobustDesignSession`` serving a trace through the online daemon."""

    name: str
    why: str
    family: str = "ECOMMERCE"
    engine: str = "columnar"
    #: Sixteen windows: a re-design at the first boundary and at the
    #: ninth, each swapped in one boundary later; thirteen plain ones.
    days: int = 112
    queries_per_day: int = 120
    window_days: int = 7
    every: int = 8
    n_samples: int = 8
    iterations: int = 4
    legacy_tables: int = 8
    #: Fixed Γ (and drift threshold): deriving it from the drift history
    #: would extract every template during set-up, which is work the
    #: daemon otherwise does per query at ingest.
    gamma: float = 0.003
    unit: str = "one query through the daemon (pulls that ran a re-design excluded)"

    @property
    def units_per_round(self) -> int:
        return self.days * self.queries_per_day

    def setup(self, seed: int) -> dict:
        session = RobustDesignSession(_run_config(self, seed, gamma=self.gamma))
        trace = session.context.trace(self.family)
        return {"session": session, "trace": trace, "adapter": session.adapter}

    def run(self, stack: dict, budget: Budget) -> Round:
        result = Round()
        session = stack["session"]
        source = TimedTraceSource(stack["trace"], float(self.window_days), budget)
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
            daemon = session.daemon(
                ServeConfig(
                    source=source,
                    window_days=float(self.window_days),
                    policy="periodic",
                    every=self.every,
                    threshold=self.gamma,
                    swap_mode="boundary",
                    record_queries=True,
                    checkpoint_path=str(Path(scratch) / "serve.ckpt"),
                )
            )
            source.daemon = daemon
            gc.collect()
            outcome = daemon.run()
        self._classify(source, result)
        self._check(source, outcome, stack["adapter"], result)
        costs = [p.cost_ms for p in outcome.priced if p.cost_ms is not None]
        if costs:
            result.outputs = {
                "quality_avg_ms": statistics.fmean(costs),
                "quality_max_ms": max(costs),
                "design_price_bytes": float(outcome.design_price_bytes),
                "structure_count": float(outcome.structure_count),
                "digest": _digest((p.epoch, p.cost_ms) for p in outcome.priced),
            }
        return result

    def _classify(self, source: TimedTraceSource, result: Round) -> None:
        launched = source.launched
        queries = source.queries()
        anchor = queries[0].timestamp
        splits = {name: [] for name in ("ingest", "boundary", "redesign", *_KINDS.values())}
        window = 0
        for i, gap in enumerate(zip(source.stamps, source.stamps[1:])):
            query = queries[i]
            index = int((query.timestamp - anchor) // self.window_days)
            crossed, window = index > window, index
            if launched[i + 1] > launched[i]:
                splits["redesign"].append(gap)
                continue
            result.units.append(gap)
            if crossed:
                splits["boundary"].append(gap)
            else:
                splits["ingest"].append(gap)
                splits[_KINDS[query.sql.lstrip()[:6].upper()]].append(gap)
        result.splits = splits

    def _check(self, source: TimedTraceSource, outcome, adapter, result: Round) -> None:
        pulled = len(source.stamps) - 1
        result.attempted = pulled
        ledger = outcome.priced
        result.failed = sum(1 for p in ledger if p.cost_ms is None) + outcome.dropped
        if result.failed:
            result.failures.append(f"{result.failed} queries dropped or priced None")
        if outcome.position != pulled:
            result.fail(f"position {outcome.position} != {pulled} queries pulled")
        if any(b.epoch < a.epoch for a, b in zip(ledger, ledger[1:])):
            result.fail("ledger epochs decrease")
        launches = len(result.splits["redesign"])
        boundaries = len(result.splits["boundary"]) + launches
        expected = -(-boundaries // self.every)
        if not (launches == expected == outcome.swaps) or outcome.redesigns_failed:
            result.fail(
                f"{boundaries} boundaries: expected {expected} re-designs and swaps, saw "
                f"{launches} launched, {outcome.swaps} swapped, "
                f"{outcome.redesigns_failed} failed"
            )
        if outcome.design_price_bytes > adapter.budget_bytes:
            result.fail(f"final design over budget: {outcome.design_price_bytes}")

    def verify(self, stack: dict, result: Round) -> None:
        """Every serve check is made from the outcome and the ledger."""


WORKLOADS = {
    w.name: w
    for w in (
        DesignStream(
            name="design-r1-columnar",
            why="The paper's headline unit, read-only: the sampler and SQL layers do most "
            "of the work, so a sampler/parse/profile gain must show here.",
            family="R1",
            engine="columnar",
        ),
        DesignStream(
            name="design-htap-rowstore",
            why="Same loop, 70/30 read/write on the row store: write mutation, write-side "
            "bind and workload compression; a read-path gain that costs writes shows here.",
            family="HTAP",
            engine="rowstore",
        ),
        NominalReplay(
            name="replay-r1-nominal",
            why="No sampler at all: beneficial_queries, per-query candidate_costs and an "
            "overflowing arena cache do the work; a sampler/SQL change must not move it.",
        ),
        ServeStream(
            name="serve-ecommerce-columnar",
            why="The only per-query scalar path: profile + query_cost, monitor.observe and "
            "checkpoint writes under flash-sale bursts with an insert/update/delete mix.",
        ),
    )
}


def fresh_setup(workload, seed: int) -> tuple[dict, tuple[float, float]]:
    """One timed set-up from a cold process-wide template cache."""
    # The SQL template cache is the one process-global cache on this
    # path; without clearing it a repeated set-up would measure a warm
    # one and a later round would inherit the previous round's parses.
    extract_template.cache_clear()
    with Stopwatch() as watch:
        stack = workload.setup(seed)
    return stack, watch.interval
