"""The designer zoo: the baselines of the paper's Section 6.1.

* :class:`NoDesign` — empty design (latency upper bound),
* :class:`ColumnarNominalDesigner` — the Vertica-DBD-style greedy
  projection designer ("ExistingDesigner" for the columnar engine),
* :class:`RowstoreNominalDesigner` — the DBMS-X-style index/view advisor
  with workload compression ("ExistingDesigner" for the row store),
* :class:`FutureKnowingDesigner` — the oracle that designs for the window
  it will be evaluated on,
* :class:`MajorityVoteDesigner` — sensitivity-analysis voting heuristic,
* :class:`OptimalLocalSearchDesigner` — union-of-neighbors + ILP heuristic.

CliffGuard itself lives in :mod:`repro.core.cliffguard`; it wraps any of
the nominal designers through the same :class:`DesignAdapter` interface.
"""

from repro.designers import registry
from repro.designers.base import (
    ColumnarAdapter,
    DesignAdapter,
    Designer,
    RowstoreAdapter,
    default_budget_bytes,
)
from repro.designers.columnar_nominal import ColumnarNominalDesigner
from repro.designers.future_knowing import FutureKnowingDesigner
from repro.designers.local_search import OptimalLocalSearchDesigner
from repro.designers.majority_vote import MajorityVoteDesigner
from repro.designers.no_design import NoDesign
from repro.designers.rowstore_nominal import RowstoreNominalDesigner

__all__ = [
    "ColumnarAdapter",
    "ColumnarNominalDesigner",
    "DesignAdapter",
    "Designer",
    "FutureKnowingDesigner",
    "MajorityVoteDesigner",
    "NoDesign",
    "OptimalLocalSearchDesigner",
    "RowstoreAdapter",
    "RowstoreNominalDesigner",
    "default_budget_bytes",
    "registry",
]
