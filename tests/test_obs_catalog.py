"""The catalogs in ``docs/observability.md`` equal what ``src/`` can emit.

An ``ast`` walk over ``src/`` collects every string literal passed first
to ``.emit(`` (events) and to ``.gauge(`` / ``.counter(`` /
``.histogram(`` (metrics), plus the literals handed to a
``counter_name`` parameter (``BoundedMemo`` increments that counter on
eviction), and compares both sets with the first column of the Event
and Metrics catalog tables.  An event or instrument deleted from the
code but left in the doc — or added to the code and never documented —
fails here instead of waiting for someone to go looking.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "observability.md"
METRIC_METHODS = ("gauge", "counter", "histogram")


def _first_parameter(function: ast.FunctionDef) -> str | None:
    names = [a.arg for a in function.args.posonlyargs + function.args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names[0] if names else None


def _counter_name_callables(trees) -> set[str]:
    """Names whose first parameter is ``counter_name`` (a class counts
    under its own name through ``__init__``)."""
    found = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                takes = any(
                    isinstance(member, ast.FunctionDef)
                    and member.name == "__init__"
                    and _first_parameter(member) == "counter_name"
                    for member in node.body
                )
            elif isinstance(node, ast.FunctionDef) and node.name != "__init__":
                takes = _first_parameter(node) == "counter_name"
            else:
                continue
            if takes:
                found.add(node.name)
    return found


def _is_counter_name_passthrough(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "counter_name") or (
        isinstance(node, ast.Attribute) and node.attr == "counter_name"
    )


@lru_cache(maxsize=None)
def _emitted_names() -> tuple[set[str], set[str]]:
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    memo_callables = _counter_name_callables(trees)
    assert memo_callables, "no callable takes counter_name first: the walk is stale"
    events: set[str] = set()
    metrics: set[str] = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            first = node.args[0] if node.args else None
            if called in memo_callables:
                target = metrics
                for keyword in node.keywords:
                    if keyword.arg == "counter_name":
                        first = keyword.value
            elif isinstance(func, ast.Attribute) and called == "emit":
                target = events
            elif isinstance(func, ast.Attribute) and called in METRIC_METHODS:
                if isinstance(func.value, ast.Name) and func.value.id == "np":
                    continue  # numpy's histogram, not a registry's
                target = metrics
            else:
                continue
            if first is None or _is_counter_name_passthrough(first):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            assert isinstance(first, ast.Constant) and isinstance(first.value, str), (
                f"{where}: {called}(...) names its event/metric dynamically; "
                "the catalog guard needs a string literal"
            )
            target.add(first.value)
    return events, metrics


def _documented_names(heading: str) -> set[str]:
    """Backticked names in the first column of every table row between
    ``## <heading>`` and the next ``## `` heading."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    names: set[str] = set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        names.update(re.findall(r"`([^`]+)`", first_cell))
    return names


def test_event_catalog_matches_the_code():
    events, _metrics = _emitted_names()
    documented = _documented_names("Event catalog")
    assert documented - events == set(), "documented events nothing emits"
    assert events - documented == set(), "emitted events missing from docs/observability.md"


def test_metrics_catalog_matches_the_code():
    _events, metrics = _emitted_names()
    documented = _documented_names("Metrics catalog")
    assert documented - metrics == set(), "documented metrics nothing publishes"
    assert metrics - documented == set(), "published metrics missing from docs/observability.md"
