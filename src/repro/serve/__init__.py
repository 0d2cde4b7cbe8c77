"""Design-as-a-service: the online tuning daemon (docs/serving.md).

* :mod:`repro.serve.sources` — the `QuerySource` abstraction shared by
  batch replays and the daemon (`TraceSource`, `QueueSource`,
  `SocketSource`).
* :mod:`repro.serve.protocol` — the newline-JSON wire protocol.
* :mod:`repro.serve.handle` — `design_digest`, the short digest of a
  deployed design the serve summary prints.
* :mod:`repro.serve.config` — `ServeConfig`, the streaming half of the
  configuration split (`RunConfig` stays the batch core).
* :mod:`repro.serve.policy` — `RedesignPolicy` and its periodic and
  drift-triggered forms, consulted by the daemon and by ``replay``.
* :mod:`repro.serve.daemon` — the crash-restartable `ServeDaemon` loop.
"""

from repro.serve.config import ServeConfig
from repro.serve.daemon import PricedQuery, ServeDaemon, ServeOutcome
from repro.serve.handle import design_digest
from repro.serve.policy import DriftTriggeredPolicy, PeriodicPolicy, RedesignPolicy
from repro.serve.protocol import (
    SHUTDOWN_OP,
    ProtocolError,
    ServeControl,
    decode_line,
    encode_control,
    encode_query,
)
from repro.serve.sources import (
    QuerySource,
    QueueSource,
    SocketSource,
    TraceSource,
    as_windows,
    resolve_source,
)

__all__ = [
    "DriftTriggeredPolicy",
    "PeriodicPolicy",
    "ProtocolError",
    "PricedQuery",
    "QueueSource",
    "QuerySource",
    "RedesignPolicy",
    "SHUTDOWN_OP",
    "ServeConfig",
    "ServeControl",
    "ServeDaemon",
    "ServeOutcome",
    "SocketSource",
    "TraceSource",
    "as_windows",
    "decode_line",
    "design_digest",
    "encode_control",
    "encode_query",
    "resolve_source",
]
