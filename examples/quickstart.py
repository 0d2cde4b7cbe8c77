"""Quickstart: robust vs nominal physical design via the ``repro.api`` facade.

One ``RunConfig`` describes the whole run — schema scale, workload, seed,
and the parallelism knob — and one ``RobustDesignSession`` owns the stack.
The session designs with CliffGuard on last month's queries, then the
script compares that design against the nominal (DBD-style) one on the
*next* month — the scenario from the paper's introduction.

Run:  python examples/quickstart.py
      REPRO_BACKEND=process REPRO_JOBS=4 python examples/quickstart.py
"""

from repro import RobustDesignSession, RunConfig


def main() -> None:
    # 1. Describe the run.  backend="auto" honors REPRO_BACKEND/REPRO_JOBS;
    #    pass backend="process", jobs=4 to pin the parallel backend in code.
    config = RunConfig(
        workload="R1",
        days=196,
        queries_per_day=15,
        n_samples=12,
        seed=42,
    )

    with RobustDesignSession(config) as session:
        schema = session.context.schema
        print(f"schema: {len(schema.tables)} tables, {schema.total_columns} columns")
        queries = session.context.trace("R1")
        windows = session.context.trace_windows("R1")
        print(f"trace: {len(queries)} queries in {len(windows)} windows")
        print(f"robustness knob Γ = {session.gamma:.5f} (average past drift)")

        # 2. Design on last month (the session restricts the sampler's
        #    perturbation pool to the past), evaluate on this month.
        train, test = windows[-2], windows[-1]
        outcome = session.design(train)
        nominal_design = session.nominal.design(train)

        report = outcome.report
        print(
            f"CliffGuard ran {report.iterations} iterations "
            f"({report.eval_wall_seconds:.1f}s costing)"
        )

        print("\n                     next-month avg    next-month max   structures")
        for label, design in (
            ("nominal", nominal_design),
            ("CliffGuard", outcome.design),
        ):
            cost = session.adapter.workload_cost(test, design)
            print(
                f"{label:>12s} design:   {cost.average_ms:9.1f} ms    "
                f"{cost.max_ms:10.1f} ms   {len(session.adapter.structures(design)):6d}"
            )

        no_design = session.adapter.workload_cost(
            test, session.adapter.empty_design()
        )
        print(
            f"{'no':>12s} design:   {no_design.average_ms:9.1f} ms    "
            f"{no_design.max_ms:10.1f} ms        0"
        )


if __name__ == "__main__":
    main()
