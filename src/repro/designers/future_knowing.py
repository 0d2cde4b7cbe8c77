"""FutureKnowingDesigner: the oracle baseline.

The same nominal designer, except the replay harness feeds it the *next*
window — the queries it will actually be evaluated on.  It marks the best
performance achievable when the future is known exactly (paper Section
6.1, baseline 3).  The class itself just tags an inner designer; the
harness (:mod:`repro.harness.replay`) checks :attr:`is_oracle` and swaps
the input window.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.designers.base import Designer
from repro.designers.scope import DesignScope
from repro.workload.workload import Workload


class FutureKnowingDesigner(Designer):
    """Wraps a nominal designer and asks the harness for oracle input."""

    name = "FutureKnowingDesigner"
    is_oracle = True

    def __init__(self, inner: Designer):
        self.inner = inner

    def design(self, workload: Workload):
        """Design for ``workload`` — the harness passes the future window."""
        return self.inner.design(workload)

    @contextmanager
    def scoped(self, scope: DesignScope) -> Iterator[None]:
        """Scope the inner designer too: it is the one that reads it."""
        with super().scoped(scope), self.inner.scoped(scope):
            yield
