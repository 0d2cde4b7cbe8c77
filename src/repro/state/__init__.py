"""Crash-safe checkpoint/resume for long-running entry points.

* :mod:`repro.state.checkpoint` — :class:`RunCheckpointer`: atomic,
  versioned, digest-verified snapshots (write-temp + fsync + rename;
  blake2b payload digest re-verified on load), ``every``-gated write
  thinning, and the :class:`SimulatedCrash` /
  ``REPRO_STATE_CRASH_AFTER`` fault-injection hooks.
* :mod:`repro.state.capture` — capture/restore helpers for the state
  that makes resume bit-identical: sampler rng streams, designer state,
  and warm cost-evaluation caches; :class:`PickleFieldsOnly` keeps
  derived values out of snapshots.

Contract (docs/state.md): a run checkpointed and killed after any
iteration/window/Γ-point boundary resumes to a bit-identical final
result — same designs, same costs, same report counters — as the
uninterrupted run.
"""

from repro.state.capture import (
    costing_state,
    designer_state,
    restore_costing,
    restore_designer,
    restore_sampler,
    sampler_state,
)
from repro.state.checkpoint import (
    CRASH_ENV,
    FORMAT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    RunCheckpointer,
    SimulatedCrash,
    run_key,
)

__all__ = [
    "CRASH_ENV",
    "FORMAT_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointVersionError",
    "RunCheckpointer",
    "SimulatedCrash",
    "costing_state",
    "designer_state",
    "restore_costing",
    "restore_designer",
    "restore_sampler",
    "run_key",
    "sampler_state",
]
