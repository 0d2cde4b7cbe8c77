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

The same rule holds for configuration knobs: a ``RunConfig`` or
``ServeConfig`` field stays only if code in ``src/``, ``benchmarks/`` or
``examples/`` sets it — as a keyword of a call to the config, or of a
call to a helper that forwards its ``**kwargs`` into one — unless it is
listed in :data:`KNOBS_ALLOWED` with the reason it stays.
"""

from __future__ import annotations

import ast
import dataclasses
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


# -- configuration knobs -------------------------------------------------------------

#: Config fields only tests set, kept on purpose: ``Config.field`` -> why.
KNOBS_ALLOWED = {
    "ServeConfig.designer": (
        "selects the online-learner serve path (BanditDesigner; "
        "docs/designers.md, ROADMAP 2-b)"
    ),
}


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _config_fields() -> dict[str, list[str]]:
    from repro.api import RunConfig
    from repro.serve.config import ServeConfig

    return {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (RunConfig, ServeConfig)
    }


def _set_knobs() -> set[str]:
    """``Config.field`` for every field code outside ``tests/`` sets."""
    fields = _config_fields()
    trees = [
        ast.parse(path.read_text())
        for folder in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    #: callee name -> the config its keywords set: the configs, and every
    #: function that passes its own ``**kwargs`` on to one of them.
    targets = {name: name for name in fields}
    grown = True
    while grown:
        grown = False
        for tree in trees:
            for function in ast.walk(tree):
                if (
                    not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or function.args.kwarg is None
                    or function.name in targets
                ):
                    continue
                forwarded = function.args.kwarg.arg
                for call in ast.walk(function):
                    if isinstance(call, ast.Call) and _callee(call) in targets and any(
                        keyword.arg is None
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id == forwarded
                        for keyword in call.keywords
                    ):
                        targets[function.name] = targets[_callee(call)]
                        grown = True
                        break
    knobs = set()
    for call in calls:
        config = targets.get(_callee(call))
        if config is None:
            continue
        knobs.update(f"{config}.{k.arg}" for k in call.keywords if k.arg is not None)
        if _callee(call) == config:
            knobs.update(f"{config}.{name}" for name in fields[config][: len(call.args)])
    return knobs


def _unset_knobs() -> set[str]:
    knobs = _set_knobs()
    return {
        f"{config}.{name}"
        for config, names in _config_fields().items()
        for name in names
        if f"{config}.{name}" not in knobs
    }


def test_every_config_field_has_a_setter():
    stray = sorted(_unset_knobs() - set(KNOBS_ALLOWED))
    assert not stray, (
        "only tests set these config fields; delete them or list them in "
        "KNOBS_ALLOWED with a reason:\n  " + "\n  ".join(stray)
    )


def test_knob_allowlist_is_current():
    """An allowed field that gained a setter, or was deleted, leaves."""
    stale = sorted(set(KNOBS_ALLOWED) - _unset_knobs())
    assert not stale, f"set outside tests or gone, drop from KNOBS_ALLOWED: {stale}"
