"""Designer registry: one named factory per designer of Section 6.1.

Factories are registered under their paper display name in canonical
display order; :func:`get` builds one designer, :func:`build_all` the
whole zoo.

A factory receives the shared wiring — adapter, nominal designer, Γ, the
neighborhood sampler factory — plus per-designer overrides, and returns
``(designer, sampler_or_None)``.  The sampler is surfaced so the replay
hooks can keep perturbation pools restricted to past queries.  An
override the factory does not read is a ``TypeError`` naming it, except
the session-wide :data:`SESSION_KEYS` that every call carries.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

from repro.designers.base import DesignAdapter, Designer
from repro.designers.future_knowing import FutureKnowingDesigner
from repro.designers.local_search import OptimalLocalSearchDesigner
from repro.designers.majority_vote import MajorityVoteDesigner
from repro.designers.no_design import NoDesign
from repro.workload.sampler import NeighborhoodSampler

#: name -> factory(adapter, nominal, gamma, make_sampler, **cfg)
_FACTORIES: "OrderedDict[str, Callable]" = OrderedDict()

#: Overrides a session merges into every designer it builds; a factory
#: that has no use for them ignores them.
SESSION_KEYS = frozenset({"n_samples", "max_iterations"})


def register(name: str, factory: Callable) -> None:
    """Register ``factory`` under ``name`` (appended to display order)."""
    if name in _FACTORIES:
        raise ValueError(f"designer {name!r} is already registered")
    _FACTORIES[name] = factory


def names() -> list[str]:
    """Registered designer names in canonical display order."""
    return list(_FACTORIES)


def validate_names(which: list[str]) -> list[str]:
    """Check a designer-name selection for duplicates and unknown names.

    Harness resume state and fan-out task sets are keyed by designer
    name, so a duplicated name would silently double-run a designer and
    corrupt the ``done``-keyed resume dict; both problems are rejected
    loudly here.  Returns ``which`` unchanged (as a list) for chaining.
    """
    seen: set[str] = set()
    for name in which:
        if name not in _FACTORIES:
            raise ValueError(
                f"unknown designer {name!r} (registered: {', '.join(_FACTORIES)})"
            )
        if name in seen:
            raise ValueError(
                f"duplicate designer {name!r} in selection {list(which)!r}: "
                "results and resume state are keyed by name"
            )
        seen.add(name)
    return list(which)


def get(
    name: str,
    adapter: DesignAdapter,
    nominal: Designer,
    gamma: float,
    make_sampler: Callable[[], NeighborhoodSampler] | None = None,
    **cfg,
) -> tuple[Designer, NeighborhoodSampler | None]:
    """Build one designer by registered name.

    ``make_sampler`` is called (at most once) by factories that explore a
    Γ-neighborhood; the sampler is returned alongside the designer so the
    caller can manage its perturbation pool.  ``cfg`` carries per-designer
    overrides (``n_samples``, ``max_iterations``, …).
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown designer {name!r} (registered: {', '.join(_FACTORIES)})"
        ) from None
    return factory(adapter, nominal, gamma, make_sampler, **cfg)


def build_all(
    adapter: DesignAdapter,
    nominal: Designer,
    gamma: float,
    make_sampler: Callable[[], NeighborhoodSampler] | None = None,
    which: list[str] | None = None,
    **cfg,
) -> tuple[dict[str, Designer], list[NeighborhoodSampler]]:
    """Build the designer zoo (or the ``which`` subset) in display order."""
    designers: dict[str, Designer] = {}
    samplers: list[NeighborhoodSampler] = []
    for name in validate_names(which) if which is not None else names():
        designer, sampler = get(name, adapter, nominal, gamma, make_sampler, **cfg)
        designers[name] = designer
        if sampler is not None:
            samplers.append(sampler)
    return designers, samplers


# -- the Section 6.1 zoo -----------------------------------------------------------


def _reject_unread(name: str, cfg: dict) -> None:
    """Raise ``TypeError`` naming the keys of ``cfg`` beyond
    SESSION_KEYS, for a factory of ``name`` that reads no other."""
    unread = sorted(set(cfg) - SESSION_KEYS)
    if unread:
        raise TypeError(f"designer {name!r} takes no {', '.join(map(repr, unread))}")


def _require_sampler(name: str, make_sampler) -> NeighborhoodSampler:
    if make_sampler is None:
        raise ValueError(f"designer {name!r} needs a sampler factory (make_sampler)")
    return make_sampler()


def _no_design(adapter, nominal, gamma, make_sampler, **cfg):
    _reject_unread("NoDesign", cfg)
    return NoDesign(adapter), None


def _future_knowing(adapter, nominal, gamma, make_sampler, **cfg):
    _reject_unread("FutureKnowingDesigner", cfg)
    return FutureKnowingDesigner(nominal), None


def _existing(adapter, nominal, gamma, make_sampler, **cfg):
    _reject_unread("ExistingDesigner", cfg)
    return nominal, None


def _majority_vote(adapter, nominal, gamma, make_sampler, **cfg):
    _reject_unread("MajorityVoteDesigner", cfg)
    sampler = _require_sampler("MajorityVoteDesigner", make_sampler)
    n_samples = cfg.get("n_samples", 20)
    return (
        MajorityVoteDesigner(nominal, adapter, sampler, gamma, n_samples=n_samples),
        sampler,
    )


def _local_search(adapter, nominal, gamma, make_sampler, **cfg):
    _reject_unread("OptimalLocalSearchDesigner", cfg)
    sampler = _require_sampler("OptimalLocalSearchDesigner", make_sampler)
    n_samples = cfg.get("n_samples", 20)
    return (
        OptimalLocalSearchDesigner(nominal, adapter, sampler, gamma, n_samples=n_samples),
        sampler,
    )


def _cliffguard(adapter, nominal, gamma, make_sampler, **cfg):
    # Imported lazily: repro.core.cliffguard imports repro.designers.base,
    # so a top-level import here would be circular when repro.core loads
    # first.
    from repro.core.cliffguard import CliffGuard

    sampler = _require_sampler("CliffGuard", make_sampler)
    # Every other key goes to the constructor, which rejects a typo.
    kwargs = {key: value for key, value in cfg.items() if key not in SESSION_KEYS}
    return (
        CliffGuard(
            nominal,
            adapter,
            sampler,
            gamma,
            n_samples=cfg.get("n_samples", 20),
            max_iterations=cfg.get("max_iterations", 5),
            **kwargs,
        ),
        sampler,
    )


def _bandit(adapter, nominal, gamma, make_sampler, **cfg):
    # Imported lazily for symmetry with CliffGuard (and to keep the
    # registry import light); the bandit needs no neighborhood sampler —
    # exploration lives in the UCB width, not in workload perturbation.
    from repro.designers.bandit import BanditDesigner

    _reject_unread("BanditDesigner", cfg)
    return BanditDesigner(nominal, adapter), None


register("NoDesign", _no_design)
register("FutureKnowingDesigner", _future_knowing)
register("ExistingDesigner", _existing)
register("MajorityVoteDesigner", _majority_vote)
register("OptimalLocalSearchDesigner", _local_search)
register("CliffGuard", _cliffguard)
register("BanditDesigner", _bandit)
