"""Extension — re-design frequency (the paper's operational-cost claim).

Claim (d) of the introduction: a robust design reduces operational cost by
requiring less frequent re-designs.  We replay R1 re-designing every
window vs every other window, for the nominal designer and CliffGuard, and
compare how much latency each designer loses when its designs must serve
longer.  The (designer, period) grid fans out over the execution backend
selected by ``REPRO_BACKEND``/``REPRO_JOBS``.
"""

from repro.harness.experiments import run_schedule_comparison
from repro.harness.reporting import format_table


def test_extension_redesign_frequency(benchmark, context, emit, backend):
    results = benchmark.pedantic(
        run_schedule_comparison,
        args=(context, "R1"),
        kwargs={
            "everies": (1, 2),
            "designers": ("ExistingDesigner", "CliffGuard"),
            "iterations": 3,
            "backend": backend,
        },
        rounds=1,
        iterations=1,
    )
    # The build rate the runs' designs deploy at (the columnar engine's).
    adapter = context.columnar_adapter()
    emit(
        format_table(
            ["Designer", "Re-design every", "Avg latency (ms)", "Re-designs", "Deploy (s)"],
            [
                [
                    label,
                    f"{every} window(s)",
                    run.mean_average_ms,
                    run.redesign_count,
                    run.deployment_seconds(adapter),
                ]
                for (label, every), run in results.items()
            ],
            title="Extension: latency vs re-design frequency (R1)",
        )
    )

    # Halving the re-design frequency must cut deployment cost…
    assert results[("ExistingDesigner", 2)].deployment_seconds(adapter) < results[
        ("ExistingDesigner", 1)
    ].deployment_seconds(adapter)
    # …and the robust designer must tolerate the staleness at least as
    # well as the nominal one (relative degradation no worse).
    nominal_penalty = results[("ExistingDesigner", 2)].mean_average_ms / max(
        results[("ExistingDesigner", 1)].mean_average_ms, 1e-9
    )
    robust_penalty = results[("CliffGuard", 2)].mean_average_ms / max(
        results[("CliffGuard", 1)].mean_average_ms, 1e-9
    )
    emit(
        f"staleness penalty: nominal {nominal_penalty:.2f}x, "
        f"CliffGuard {robust_penalty:.2f}x (lower is better)"
    )
    assert robust_penalty <= nominal_penalty * 1.15
