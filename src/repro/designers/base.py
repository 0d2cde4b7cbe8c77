"""Designer interface and engine adapters.

The paper's key design principle (Section 2) is that CliffGuard treats the
existing designer — and the database — as a **black box**: it only needs to
(1) invoke the designer on a workload, (2) evaluate a workload's cost under
a design, and (3) respect the storage budget.  :class:`DesignAdapter`
captures exactly that surface for each engine, which is what lets the same
CliffGuard implementation drive both the columnar engine and the row store
(as the paper drove both Vertica and DBMS-X unmodified).
"""

from __future__ import annotations

import abc
import weakref
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager

from repro.catalog.schema import Schema
from repro.costing.profile import QueryProfile
from repro.costing.report import WorkloadCostReport
from repro.costing.service import CostEvaluationService, CostModel
from repro.designers.greedy import evaluate_candidates, greedy_select
from repro.designers.scope import DesignScope
from repro.engine.design import DEPLOY_SECONDS_PER_GB, PhysicalDesign
from repro.engine.optimizer import ColumnarCostModel
from repro.engine.projection import Projection
from repro.rowstore import design as rowstore_design
from repro.rowstore.design import RowstoreDesign
from repro.rowstore.index import Index
from repro.rowstore.matview import MaterializedView
from repro.rowstore.optimizer import RowstoreCostModel
from repro.sql.analyzer import QueryTemplate
from repro.sql.ast import Statement
from repro.workload.workload import Workload

#: Vertica auto-picked a 50 GB budget for the paper's 151 GB dataset; we
#: default to the same roughly one-third-of-data ratio.
DEFAULT_BUDGET_FRACTION = 0.5


def default_budget_bytes(schema: Schema, fraction: float = DEFAULT_BUDGET_FRACTION) -> int:
    """A storage budget proportional to the raw data size."""
    total = sum(t.row_count * t.row_bytes for t in schema.tables.values())
    return int(total * fraction)


class Designer(abc.ABC):
    """A physical designer: workload in, design out."""

    #: Display name used in reports (set per instance or subclass).
    name: str = "designer"

    #: Whether the designer learns from :meth:`observe` feedback.  The
    #: harnesses use this to decide when per-window observed costs are
    #: worth recording, and the serve daemon to decide whether re-designs
    #: must run in-process (a background worker would lose the learning).
    learns_online: bool = False

    #: The robust design whose calls this designer is serving, or
    #: ``None`` (see :meth:`scoped`).
    scope: DesignScope | None = None

    @abc.abstractmethod
    def design(self, workload: Workload):
        """Produce a design for ``workload`` within the budget."""

    @contextmanager
    def scoped(self, scope: DesignScope) -> Iterator[None]:
        """Mark the calls inside the block as parts of one robust design.

        A designer that keeps per-text work (the nominal designers) reads
        it from ``scope`` instead of redoing it every call; any other
        designer ignores it.  The scope is detached on exit, so nothing
        of it outlives the block.
        """
        outer = vars(self).get("scope")
        self.scope = scope
        try:
            yield
        finally:
            # Back to the class default when there was no outer scope, so
            # a pickled designer carries no trace of the block.
            if outer is None:
                del self.scope
            else:
                self.scope = outer

    def observe(self, window: Workload, design, observed_costs) -> None:
        """Feedback hook: the costs actually observed for one window.

        Called by the replay harness after each window evaluation and by
        the serve daemon at each window boundary, with the ``design``
        that served the window and ``observed_costs`` mapping SQL text
        to the recorded per-query cost.  The default is a no-op; online
        learners (``learns_online = True``) override it to update their
        model.  Implementations must be deterministic given the call
        sequence — the kill-resume bit-identity contract covers them.
        """

    def __getstate__(self) -> dict:
        # The design memo is derived state (remembered_design): a pickled
        # or copied designer starts without it.
        state = vars(self)
        if _MEMO in state:
            state = {key: value for key, value in state.items() if key != _MEMO}
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


#: The attribute :func:`remembered_design` keeps a designer's memo in.
_MEMO = "_designs"


def remembered_design(designer: Designer, workload: Workload, compute: Callable):
    """``compute(workload)``, the nominal ``designer``'s design of
    ``workload``, computed once per live workload object.

    The replay protocol asks one nominal designer for the same window
    twice — the oracle designs ``W_{i+1}`` at transition ``i`` and
    ExistingDesigner designs it again at ``i + 1`` — and CliffGuard's
    initial design in a shared zoo repeats ExistingDesigner's.  A design
    depends on the workload, the designer's settings and budget (fixed
    when they are built) and the cost model (fixed up to
    :meth:`~repro.costing.service.CostEvaluationService.clear`), so the
    second call returns the first one's design.

    The key is the :class:`Workload` object itself, held weakly: a
    workload is never mutated after construction and compares by
    identity, and an entry lives exactly as long as its workload, so no
    digest is computed and no bound is needed.  Each entry keeps the
    :class:`~repro.costing.service.CostServiceStats` delta its computing
    call charged (wall-clock ``eval_seconds`` aside) and a hit charges it
    again, as-if-cold: every exported counter and every report reads as
    if the design had been computed.  The memo is never exported,
    checkpointed or pickled.
    """
    memo = vars(designer).get(_MEMO)
    if memo is None:
        memo = vars(designer)[_MEMO] = weakref.WeakKeyDictionary()
    service = designer.adapter.costing
    entry = memo.get(workload)
    if entry is not None and entry[0] == service.clears:
        service.stats.add(entry[2])
        return entry[1]
    before = service.stats.snapshot()
    design = compute(workload)
    charged = service.stats.since(before)
    charged.eval_seconds = 0.0
    memo[workload] = (service.clears, design, charged)
    return design


class _NominalDesigner(Designer):
    """What the two nominal designers share: greedy selection of their
    generated candidates under the budget.

    ``benchmarks/e2e/spans.py`` wraps each subclass's ``design`` by
    ``vars(cls)["design"]``, which an inherited method would not satisfy:
    each subclass re-exports this one (same function object).
    """

    adapter: DesignAdapter

    @abc.abstractmethod
    def generate_candidates(self, workload: Workload) -> list:
        """The candidate structures for ``workload``."""

    @abc.abstractmethod
    def own_candidates(self, queries) -> list[list]:
        """Per query, the candidates it gets alone —
        ``generate_candidates(Workload([query]))`` — for a whole window
        in one call, from the same per-text proposals."""

    def design(self, workload: Workload):
        """Greedy selection of candidate structures under the budget,
        once per live workload (:func:`remembered_design`)."""
        return remembered_design(self, workload, self._design)

    def _design(self, workload: Workload):
        candidates = self.generate_candidates(workload)
        if not candidates:
            return self.adapter.empty_design()
        evaluation = evaluate_candidates(self.adapter, workload, candidates, self.scope)
        chosen = greedy_select(evaluation, self.adapter.budget_bytes)
        return self.adapter.make_design(chosen)


class DesignAdapter(abc.ABC):
    """The black-box engine surface CliffGuard and the baselines need.

    Every adapter speaks to its engine through the shared
    :class:`~repro.costing.service.CostModel` protocol and routes all
    what-if evaluation through one
    :class:`~repro.costing.service.CostEvaluationService`, so batched
    neighborhood evaluation, the compiled-arena kernel path, and
    instrumentation are common across the columnar and row-store
    substrates rather than re-implemented per engine.
    """

    def __init__(
        self,
        cost_model: CostModel,
        budget_bytes: int,
        costing: CostEvaluationService | None = None,
    ):
        self.cost_model = cost_model
        self.budget_bytes = budget_bytes
        self.costing = (
            costing if costing is not None else CostEvaluationService(cost_model)
        )

    @property
    def schema(self) -> Schema:
        return self.cost_model.schema

    @abc.abstractmethod
    def empty_design(self):
        """The design with no auxiliary structures."""

    @abc.abstractmethod
    def make_design(self, structures: Iterable):
        """Bundle individual structures into a design object."""

    @abc.abstractmethod
    def structures(self, design) -> list:
        """The individual structures inside a design."""

    @abc.abstractmethod
    def structure_size(self, structure) -> int:
        """Estimated bytes of one structure."""

    @abc.abstractmethod
    def structure_cost(self, profile: QueryProfile, structure) -> float | None:
        """Query cost when the anchor is served by ``structure`` alone
        (``None`` when the structure cannot serve the query)."""

    @abc.abstractmethod
    def design_price(self, design) -> int:
        """Total bytes of a design (the paper's ``price(D)``)."""

    def deployment_seconds(self, price_bytes: int) -> float:
        """Modeled wall-clock time to build ``price_bytes`` of structures
        on this engine (Figure 14).  The base rate is the columnar
        engine's (its ``design.deployment_seconds``); the row store
        overrides it with its own."""
        return price_bytes / 1e9 * DEPLOY_SECONDS_PER_GB

    def profile(self, sql: str, statement: Statement | None = None) -> QueryProfile:
        """Schema-resolved profile for one query (``statement``: ``sql``
        already parsed, so a profile miss does not parse it again)."""
        return self.cost_model.profile(sql, statement)

    def annotate(self, sql: str) -> tuple[QueryProfile, QueryTemplate]:
        """:meth:`profile` for a text priced once, with its template: the
        profiler does not memoise the profile."""
        return self.cost_model.annotate(sql)

    def query_cost(self, sql_or_profile, design) -> float:
        """Estimated latency of one query under ``design``."""
        return self.costing.query_cost(sql_or_profile, design)

    def workload_cost(self, workload: Workload, design) -> WorkloadCostReport:
        """Latency report of a workload under ``design``."""
        return self.costing.workload_cost(workload, design)

    def evaluate_neighborhood(self, designs, workloads) -> list[list[WorkloadCostReport]]:
        """Batched ``designs × workloads`` reports with shared-query dedup."""
        return self.costing.evaluate_neighborhood(designs, workloads)

    def workload_costs_batch(self, designs, workload) -> list[WorkloadCostReport]:
        """One workload under many designs, vectorized when possible."""
        return self.costing.workload_costs_batch(designs, workload)


class ColumnarAdapter(DesignAdapter):
    """Adapter for the Vertica-like columnar engine."""

    def __init__(
        self,
        cost_model: ColumnarCostModel,
        budget_bytes: int | None = None,
        costing: CostEvaluationService | None = None,
    ):
        super().__init__(
            cost_model,
            budget_bytes if budget_bytes is not None else default_budget_bytes(cost_model.schema),
            costing,
        )

    def empty_design(self) -> PhysicalDesign:
        return PhysicalDesign.empty()

    def make_design(self, structures: Iterable[Projection]) -> PhysicalDesign:
        return PhysicalDesign(frozenset(structures))

    def structures(self, design: PhysicalDesign) -> list[Projection]:
        return list(design)

    def structure_size(self, structure: Projection) -> int:
        return structure.size_bytes(self.schema.table(structure.table))

    def structure_cost(self, profile: QueryProfile, structure: Projection) -> float | None:
        return self.cost_model.projection_cost(profile, structure)

    def design_price(self, design: PhysicalDesign) -> int:
        return design.price(self.schema)


class RowstoreAdapter(DesignAdapter):
    """Adapter for the DBMS-X-like row store."""

    def __init__(
        self,
        cost_model: RowstoreCostModel,
        budget_bytes: int | None = None,
        costing: CostEvaluationService | None = None,
    ):
        super().__init__(
            cost_model,
            budget_bytes if budget_bytes is not None else default_budget_bytes(cost_model.schema),
            costing,
        )

    def empty_design(self) -> RowstoreDesign:
        return RowstoreDesign.empty()

    def make_design(
        self, structures: Iterable[Index | MaterializedView]
    ) -> RowstoreDesign:
        return RowstoreDesign.of(*structures)

    def structures(self, design: RowstoreDesign) -> list:
        return list(design)

    def structure_size(self, structure: Index | MaterializedView) -> int:
        table = self.schema.table(structure.table)
        if isinstance(structure, MaterializedView):
            return structure.size_bytes(table, self.cost_model.statistics[structure.table])
        return structure.size_bytes(table)

    def structure_cost(
        self, profile: QueryProfile, structure: Index | MaterializedView
    ) -> float | None:
        return self.cost_model.structure_cost(profile, structure)

    def design_price(self, design: RowstoreDesign) -> int:
        return design.price(self.schema, self.cost_model.statistics)

    def deployment_seconds(self, price_bytes: int) -> float:
        return price_bytes / 1e9 * rowstore_design.DEPLOY_SECONDS_PER_GB
