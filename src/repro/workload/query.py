"""Workload queries: SQL text with a timestamp and a frequency weight."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sql.analyzer import QueryTemplate, extract_template


@dataclass(frozen=True)
class WorkloadQuery:
    """One query occurrence (or a weighted group of identical occurrences).

    ``timestamp`` is measured in fractional days since the trace start —
    windowing only ever needs differences, so an epoch-less float keeps the
    generators and tests simple.  ``frequency`` is the occurrence weight
    (identical SQL may be collapsed into one entry with frequency > 1).
    """

    sql: str
    timestamp: float = 0.0
    frequency: float = 1.0

    def __post_init__(self) -> None:
        # Negated, so that NaN fails too.
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")

    @property
    def template(self) -> QueryTemplate:
        """Clause-wise column sets (cached globally by SQL text)."""
        return extract_template(self.sql)

    def with_frequency(self, frequency: float) -> "WorkloadQuery":
        """Copy with a different weight."""
        return WorkloadQuery(sql=self.sql, timestamp=self.timestamp, frequency=frequency)
