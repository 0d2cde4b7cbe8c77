"""Column types for the catalog.

Types are deliberately coarse: the cost models only need a per-cell byte
width, and the data generator only needs to know what kind of values to
draw.
"""

from __future__ import annotations

import enum

#: Approximate storage width of one cell, in bytes, by type value.
#: Strings are dictionary-encoded in the columnar engine, so their
#: effective width is a code word plus amortized dictionary cost.
_BYTE_WIDTHS = {"int": 8, "float": 8, "string": 16, "date": 8, "bool": 1}


class ColumnType(enum.Enum):
    """Logical column type."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"  # stored as days since an epoch (int64)
    BOOL = "bool"

    def __init__(self, value: str) -> None:
        # A plain member attribute: the cost models and profile builds read
        # it per column, and a lookup keyed by the member would hash the
        # enum through its Python-level ``__hash__`` every time.
        self.byte_width: int = _BYTE_WIDTHS[value]
