"""Design-as-a-service: the online tuning daemon (docs/serving.md).

* :mod:`repro.serve.sources` — the `QuerySource` abstraction shared by
  batch replays and the daemon (`TraceSource`, `QueueSource`,
  `SocketSource`).
* :mod:`repro.serve.protocol` — the newline-JSON wire protocol.
* :mod:`repro.serve.handle` — `design_digest`, the short digest of a
  deployed design the serve summary prints.
* :mod:`repro.serve.config` — `ServeConfig`, the streaming half of the
  configuration split (`RunConfig` stays the batch core).
* :mod:`repro.serve.daemon` — the crash-restartable `ServeDaemon` loop.

Daemon symbols are exposed lazily: the harness imports this package's
sources at interpreter start (``replay`` accepts a `QuerySource`), while
the daemon itself imports the harness — deferring the daemon import
breaks that cycle.
"""

from repro.serve.config import ServeConfig
from repro.serve.handle import design_digest
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

_DAEMON_SYMBOLS = ("ServeDaemon", "ServeOutcome", "PricedQuery", "CHECKPOINT_KIND")


def __getattr__(name: str):
    if name in _DAEMON_SYMBOLS:
        from repro.serve import daemon

        return getattr(daemon, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ProtocolError",
    "PricedQuery",
    "QueueSource",
    "QuerySource",
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
