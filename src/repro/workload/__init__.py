"""Workload substrate: queries, workloads, drift, distances, and sampling.

* :mod:`repro.workload.query` — timestamped, weighted workload queries,
* :mod:`repro.workload.workload` — workload containers and template vectors,
* :mod:`repro.workload.windows` — time-windowing of query streams,
* :mod:`repro.workload.distance` — the paper's δ metrics (Section 5 and
  Appendix C),
* :mod:`repro.workload.sampler` — Γ-neighborhood sampling (Appendix B),
* :mod:`repro.workload.generator` — R1/S1/S2-style drifting trace
  generators (Section 6.1's workloads, rebuilt synthetically).
"""

from repro.workload.distance import (
    LatencyAwareDistance,
    WorkloadDistance,
)
from repro.workload.families import (
    ecommerce_profile,
    htap_profile,
    oltp_profile,
)
from repro.workload.generator import (
    DriftProfile,
    TraceGenerator,
    build_star_schema,
    r1_profile,
    s1_profile,
    s2_profile,
)
from repro.workload.monitor import DriftAlarm, WorkloadMonitor
from repro.workload.query import WorkloadQuery
from repro.workload.sampler import NeighborhoodSampler
from repro.workload.windows import split_windows
from repro.workload.workload import Workload

__all__ = [
    "DriftAlarm",
    "DriftProfile",
    "LatencyAwareDistance",
    "NeighborhoodSampler",
    "TraceGenerator",
    "Workload",
    "WorkloadMonitor",
    "WorkloadDistance",
    "WorkloadQuery",
    "build_star_schema",
    "ecommerce_profile",
    "htap_profile",
    "oltp_profile",
    "r1_profile",
    "s1_profile",
    "s2_profile",
    "split_windows",
]
