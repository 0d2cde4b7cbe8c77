"""Census of ``src/repro/``: every public definition has a caller.

A public ``def`` or ``class`` (top level or inside a class) survives when
its name appears, as a word,

* in ``src/`` outside its own definition, not counting the package
  ``__init__`` files (their re-exports are not callers);
* anywhere in ``benchmarks/`` (the frozen ledger's span pins included),
  ``examples/`` or ``docs/``.

Everything else is only reached by its own tests and should go, together
with those tests — unless it is listed in :data:`ALLOWED` with the reason
it stays.  The scan is by name, so it is lenient: a name shared with
another definition (``describe``, ``design``) counts as used.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions only tests reach, kept on purpose: qualified name -> why.
ALLOWED = {
    "catalog.datagen.generate_database": (
        "execution substrate; ROADMAP item 2-d decides whether it gets a job"
    ),
    "workload.sampler.ColumnAffinity.replacement_weights": (
        "test reference for the sampler's summed affinity rows"
    ),
}


def _definitions() -> list[tuple[str, str, Path, int, int]]:
    """``(qualified name, name, file, first line, last line)`` per public
    def / class, decorators included in the line range."""
    found = []

    def walk(body, path: Path, prefix: str) -> None:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found.append((prefix + node.name, node.name, path, first, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                walk(node.body, path, f"{prefix}{node.name}.")

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        walk(ast.parse(path.read_text()).body, path, f"{module}.")
    return found


def _unreached() -> set[str]:
    src_lines: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for word in set(WORD.findall(line)):
                src_lines[word].append((path, number))
    outside: set[str] = set()
    for folder in ("benchmarks", "examples", "docs"):
        for path in (ROOT / folder).rglob("*"):
            if path.suffix in (".py", ".md"):
                outside.update(WORD.findall(path.read_text()))
    unreached = set()
    for qualname, name, path, first, last in _definitions():
        if name in outside:
            continue
        if any(
            where != path or not first <= number <= last
            for where, number in src_lines[name]
        ):
            continue
        unreached.add(qualname)
    return unreached


def test_every_public_definition_has_a_caller():
    unreached = _unreached()
    stray = sorted(unreached - set(ALLOWED))
    assert not stray, (
        "only tests reach these definitions; delete them (and the tests "
        "that check only them) or list them in ALLOWED with a reason:\n  "
        + "\n  ".join(stray)
    )


def test_allowlist_is_current():
    """An allowed name that gained a caller, or was deleted, leaves."""
    stale = sorted(set(ALLOWED) - _unreached())
    assert not stale, f"no longer unreached, drop from ALLOWED: {stale}"
