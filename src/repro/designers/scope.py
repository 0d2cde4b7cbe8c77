"""The per-design scope: what one robust design computes once.

Algorithm 2 calls the nominal designer once per iteration, on a moved
workload.  Every moved workload of one design is built from the same
texts — ``W0`` and the fixed neighborhood — and only their weights
change with α and the incumbent's costs.  Whatever depends on a text
alone is therefore the same in every iteration: its parse, the
designer's per-text proposals, each proposed structure and its column
key and size.  A :class:`DesignScope` holds that work for one
:meth:`CliffGuard.design <repro.core.cliffguard.CliffGuard.design>` call:

* ``statements`` — the parsed texts (``W0``'s and each picked
  mutation's), shared by the sampler's chain compiler and the profiler;
* ``proposals`` / ``structures`` — the nominal designer's per-text
  proposals and its structure objects, keyed as the designer chooses;
* ``positions`` — each table's ``{column: index}``, which the columnar
  designer orders a projection's columns by;
* :meth:`identity` — each structure's column key and size.

The scope is derived state.  ``CliffGuard.design`` creates one, marks the
nominal designer's calls with it (:meth:`Designer.scoped
<repro.designers.base.Designer.scoped>`) and drops it when it returns.
The replay harness does the same for each window transition, whose
filter and designers read the same window's texts
(:mod:`repro.harness.replay`).
It is never checkpointed: a resumed run starts with an empty one and
refills it on demand.  A designer called outside a scope runs with a
throwaway memo — the same work, redone every call.
"""

from __future__ import annotations

from repro.sql.ast import Statement
from repro.sql.parser import parse


class DesignScope:
    """Weight-independent state of one robust design (module docstring)."""

    def __init__(self) -> None:
        #: SQL text -> its parsed statement.
        self.statements: dict[str, Statement] = {}
        #: SQL text -> the nominal designer's proposal for it.
        self.proposals: dict[str, object] = {}
        #: The nominal designer's structure key -> the structure object.
        self.structures: dict[object, object] = {}
        #: Table name -> ``{column name: its index in the table}``.
        self.positions: dict[str, dict[str, int]] = {}
        #: ``id(structure)`` -> ``(structure, column key, size)``; the
        #: structure is kept so its ``id`` cannot be recycled.
        self._identities: dict[int, tuple[object, str, int]] = {}
        #: How many ``statements`` entries the profiler has been handed.
        self._handed = 0

    def parse_texts(self, queries) -> None:
        """Parse every distinct text of ``queries`` not parsed yet.  A
        text that does not parse is left out: whoever needs it parses it
        again and meets the error there."""
        statements = self.statements
        for query in queries:
            sql = query.sql
            if sql not in statements:
                try:
                    statements[sql] = parse(sql)
                except ValueError:
                    continue

    def hand_off(self, adapter) -> None:
        """Profile every statement parsed since the last hand-off, so the
        profiler annotates it instead of parsing its text again."""
        fresh = list(self.statements.items())[self._handed :]
        self._handed = len(self.statements)
        for sql, statement in fresh:
            try:
                adapter.profile(sql, statement)
            except ValueError:
                continue

    def identity(self, structure, adapter) -> tuple[str, int]:
        """``(str(structure), adapter.structure_size(structure))``, once
        per structure object."""
        entry = self._identities.get(id(structure))
        if entry is None or entry[0] is not structure:
            entry = (structure, str(structure), adapter.structure_size(structure))
            self._identities[id(structure)] = entry
        return entry[1], entry[2]
