"""The daemon's wire protocol: newline-delimited JSON query records.

One record per line, UTF-8, ``\n``-terminated.  Two record shapes:

* **Query** — ``{"sql": "...", "timestamp": 12.5, "frequency": 1.0}``.
  ``timestamp`` (fractional days, the trace clock) and ``frequency``
  (occurrence weight) are optional and default to ``0.0`` / ``1.0``,
  matching :class:`repro.workload.query.WorkloadQuery`.
* **Control** — ``{"op": "shutdown"}``.  ``shutdown`` asks the daemon to
  stop accepting queries, drain any in-flight re-design, checkpoint, and
  exit cleanly.  Unknown ops are surfaced as :class:`ServeControl` and
  ignored by the daemon (forward compatibility).

A malformed line raises :class:`ProtocolError`; the socket frontend
counts and skips such lines rather than killing the stream — one
misbehaving client must not take the tuner down (docs/serving.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.workload.query import WorkloadQuery

#: The control op that ends the stream (and, with it, the daemon run).
SHUTDOWN_OP = "shutdown"


class ProtocolError(ValueError):
    """A wire line that is not a valid query or control record."""


@dataclass(frozen=True)
class ServeControl:
    """One control record (``{"op": ...}``)."""

    op: str


def encode_query(query: WorkloadQuery) -> str:
    """One wire line (without the trailing newline) for ``query``."""
    return json.dumps(
        {
            "sql": query.sql,
            "timestamp": query.timestamp,
            "frequency": query.frequency,
        },
        separators=(",", ":"),
    )


def encode_control() -> str:
    """The shutdown control line (without the trailing newline)."""
    return json.dumps({"op": SHUTDOWN_OP}, separators=(",", ":"))


def decode_line(line: str | bytes) -> WorkloadQuery | ServeControl:
    """Parse one wire line into a query or a control record."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"undecodable wire line: {line[:80]!r}") from error
    text = line.strip()
    if not text:
        raise ProtocolError("empty wire line")
    try:
        record = json.loads(text)
    except ValueError as error:
        raise ProtocolError(f"unparseable wire line: {text[:80]!r}") from error
    if not isinstance(record, dict):
        raise ProtocolError(f"wire record must be a JSON object, got {text[:80]!r}")
    if "op" in record:
        op = record["op"]
        if not isinstance(op, str):
            raise ProtocolError(f"control op must be a string, got {op!r}")
        return ServeControl(op=op)
    sql = record.get("sql")
    if not isinstance(sql, str) or not sql:
        raise ProtocolError(f"query record needs a non-empty 'sql': {text[:80]!r}")
    numbers = {}
    for name, default in (("timestamp", 0.0), ("frequency", 1.0)):
        value = record.get(name, default)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(f"{name} must be a number, got {value!r}")
        # json.loads accepts NaN and ±Infinity, and integers past the
        # float range; none is a point on the trace clock or a weight.
        try:
            numbers[name] = float(value)
        except OverflowError:
            numbers[name] = math.inf
        if not math.isfinite(numbers[name]):
            raise ProtocolError(f"{name} must be finite, got {value!r}")
    try:
        return WorkloadQuery(sql=sql, **numbers)
    except ValueError as error:  # e.g. non-positive frequency
        raise ProtocolError(str(error)) from error
