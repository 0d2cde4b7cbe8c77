"""Physical design container for the columnar engine.

A :class:`PhysicalDesign` is a set of projections.  Super-projections are
always implicitly present (they are the fallback path and are not charged
against the budget, matching Vertica where the super-projection is part of
the base data).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.catalog.schema import Schema, group_by_table
from repro.engine.projection import Projection
from repro.state.capture import PickleFieldsOnly

#: Deployment throughput used by the Figure 14 model: building a projection
#: is a sort + rewrite of its data, charged per byte.
DEPLOY_SECONDS_PER_GB = 360.0


@dataclass(frozen=True)
class PhysicalDesign(PickleFieldsOnly):
    """An immutable set of (non-super) projections.

    The canonical order :meth:`__iter__` and :meth:`for_table` return is
    built once per design, on the first call, and never pickled: a pinned
    design is priced thousands of times, a candidate design often never.
    """

    projections: frozenset[Projection] = frozenset()

    def __post_init__(self) -> None:
        for projection in self.projections:
            if projection.is_super:
                raise ValueError(
                    "super-projections are implicit and cannot be part of a design"
                )

    @classmethod
    def of(cls, *projections: Projection) -> "PhysicalDesign":
        """Convenience constructor from positional projections."""
        return cls(frozenset(projections))

    @classmethod
    def empty(cls) -> "PhysicalDesign":
        """The NoDesign design: every query scans super-projections."""
        return cls(frozenset())

    @cached_property
    def _by_table(self) -> dict[str, list[Projection]]:
        return group_by_table(self.projections, lambda p: (p.columns, p.sort_key))

    def for_table(self, table: str) -> list[Projection]:
        """All projections anchored on ``table`` (deterministic order).

        The list is shared by every call on this design: read it, do not
        mutate it.
        """
        return self._by_table.get(table, [])

    def price(self, schema: Schema) -> int:
        """Total bytes of all projections — the paper's ``price(D)``."""
        return sum(
            projection.size_bytes(schema.table(projection.table))
            for projection in self.projections
        )

    def deployment_seconds(self, schema: Schema) -> float:
        """Modeled wall-clock time to build this design (Figure 14)."""
        return self.price(schema) / 1e9 * DEPLOY_SECONDS_PER_GB

    def __len__(self) -> int:
        return len(self.projections)

    def __getstate__(self) -> dict:
        # The projections in canonical order: a frozenset pickles in hash
        # order, which ``PYTHONHASHSEED`` reorders from run to run.
        return {"projections": tuple(self)}

    def __setstate__(self, state: dict) -> None:
        # A tuple, or the frozenset a format-4 snapshot written before
        # the canonical order carries.
        object.__setattr__(self, "projections", frozenset(state["projections"]))

    @cached_property
    def _ordered(self) -> tuple[Projection, ...]:
        return tuple(
            sorted(self.projections, key=lambda p: (p.table, p.columns, p.sort_key))
        )

    def __iter__(self):
        return iter(self._ordered)
