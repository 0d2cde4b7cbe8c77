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

The same rule holds for configuration knobs: a ``RunConfig``,
``ServeConfig``, ``DriftProfile`` or ``ExperimentScale`` field stays only
if code in ``src/``, ``benchmarks/`` or ``examples/`` sets it — as a
keyword of a call to the config, of a ``dict`` unpacked into one, or of a
call to a helper that forwards its ``**kwargs`` into one — unless it is
listed in :data:`KNOBS_ALLOWED` with the reason it stays.

And for parameters: a parameter with a default, on a public function, a
public method or an ``__init__`` in ``src/repro/``, stays only if code in
``src/``, ``benchmarks/`` or ``examples/`` (outside the definition's own
body) passes it — unless it is listed in :data:`PARAMS_ALLOWED` with the
reason it stays.  See :func:`_calls` for what counts as passing.
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
    "ExperimentScale.budget_fraction": "ROADMAP item 4-ii sweeps the budget",
}


def _name_of(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _callee(call: ast.Call) -> str | None:
    return _name_of(call.func)


def _config_fields() -> dict[str, list[str]]:
    from repro.api import RunConfig
    from repro.harness.experiments import ExperimentScale
    from repro.serve.config import ServeConfig
    from repro.workload.generator import DriftProfile

    return {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (RunConfig, ServeConfig, DriftProfile, ExperimentScale)
    }


def _carriers(function: ast.FunctionDef) -> set[str]:
    """The names in ``function`` that hold its ``**kwargs``: the parameter
    itself, a name assigned from an expression that reads one, and a
    dict one is ``update``-d into."""
    carriers = {function.args.kwarg.arg}
    grown = True
    while grown:
        grown = False
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and any(
                isinstance(n, ast.Name) and n.id in carriers for n in ast.walk(node.value)
            ):
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"
                and isinstance(node.func.value, ast.Name)
                and any(isinstance(a, ast.Name) and a.id in carriers for a in node.args)
            ):
                names = {node.func.value.id}
            else:
                continue
            if not names <= carriers:
                carriers |= names
                grown = True
    return carriers


def _dict_keys(tree: ast.Module) -> dict[str, set[str]]:
    """Name -> the keys of every ``dict(k=...)`` or ``{"k": ...}`` assigned
    to it in ``tree``: a call that unpacks the name sets those keys."""
    keys: dict[str, set[str]] = defaultdict(set)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if isinstance(value, ast.Call) and _callee(value) == "dict":
            found = {k.arg for k in value.keywords if k.arg is not None}
        elif isinstance(value, ast.Dict):
            found = {k.value for k in value.keys if isinstance(k, ast.Constant)}
        else:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                keys[target.id] |= found
    return keys


def _set_knobs() -> set[str]:
    """``Config.field`` for every field code outside ``tests/`` sets."""
    fields = _config_fields()
    trees = [
        ast.parse(path.read_text())
        for folder in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
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
                carriers = _carriers(function)
                for call in ast.walk(function):
                    if isinstance(call, ast.Call) and _callee(call) in targets and any(
                        keyword.arg is None
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id in carriers
                        for keyword in call.keywords
                    ):
                        targets[function.name] = targets[_callee(call)]
                        grown = True
                        break
    knobs = set()
    for tree in trees:
        unpacked = _dict_keys(tree)
        for call in ast.walk(tree):
            config = targets.get(_callee(call)) if isinstance(call, ast.Call) else None
            if config is None:
                continue
            for k in call.keywords:
                if k.arg is not None:
                    knobs.add(f"{config}.{k.arg}")
                elif isinstance(k.value, ast.Name):
                    knobs.update(f"{config}.{key}" for key in unpacked.get(k.value.id, ()))
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


# -- parameters ----------------------------------------------------------------------

#: Parameters with a default that only tests pass, kept on purpose:
#: ``module.Qualname.parameter`` (an ``__init__``'s under its class) -> why.
PARAMS_ALLOWED = {
    "obs.trace.RunTracer.clock": "tests substitute a fake clock through it",
    "state.checkpoint.RunCheckpointer.crash_after": (
        "tests inject a simulated crash through it"
    ),
    "harness.replay.beneficial_queries.factor": (
        "test_beneficial_bit_identity sweeps it against the reference filter"
    ),
    "workload.sampler.mutate_query.affinity": (
        "the sampler bit-identity tests check the mutation with and without it"
    ),
    "serve.sources.QueueSource.maxsize": "ROADMAP item 8-b bounds the queue",
    "designers.rowstore_nominal.RowstoreNominalDesigner.compression_radius": (
        "ROADMAP item 4-iv switches workload compression off"
    ),
    "core.cliffguard.CliffGuard.patience": (
        "the paper's stop-when-no-improvement rule (PAPER.md step 4); a "
        "default change changes designs (ROADMAP housekeeping iv)"
    ),
    **{
        name: "execution substrate; ROADMAP item 5 decides whether it gets a job"
        for name in (
            "catalog.datagen.generate_database.scale",
            "catalog.datagen.generate_database.seed",
            "engine.executor.ColumnarExecutor.cost_model",
            "engine.executor.ColumnarExecutor.execute.design",
            "rowstore.storage.RowstoreExecutor.cost_model",
            "rowstore.storage.RowstoreExecutor.execute.design",
            "rowstore.optimizer.RowstoreCostModel.statistics",
        )
    },
    **{
        name: "a leaf ROADMAP item 11 leaves to items 1 and 9"
        for name in (
            "core.bnt.find_worst_neighbors.margin",
            "core.bnt.bnt_minimize.max_iterations",
            "core.bnt.bnt_minimize.initial_step",
            "core.bnt.bnt_minimize.n_candidates",
            "core.knob.gamma_from_history.k",
        )
    },
}


@dataclasses.dataclass
class _Signature:
    qualname: str
    #: The name a call uses: the function's, or the class's for ``__init__``.
    callee: str
    path: Path
    first: int
    last: int
    #: Parameters a positional argument binds to, in order (no ``self``).
    positional: list[str]
    #: Parameters with a default.
    defaulted: list[str]


def _signatures() -> list[_Signature]:
    """Every public function, public method and ``__init__`` in
    ``src/repro/`` that has a parameter with a default."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members = [(node.name, node.name, node, False)]
            elif isinstance(node, ast.ClassDef):
                members = [
                    (
                        node.name if member.name == "__init__" else f"{node.name}.{member.name}",
                        node.name if member.name == "__init__" else member.name,
                        member,
                        not any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in member.decorator_list
                        ),
                    )
                    for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            else:
                continue
            for qualname, callee, function, bound in members:
                if function.name.startswith("_") and function.name != "__init__":
                    continue
                args = function.args
                positional = [a.arg for a in args.posonlyargs + args.args][int(bound):]
                defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
                defaulted += [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                if defaulted:
                    found.append(
                        _Signature(
                            f"{module}.{qualname}", callee, path, function.lineno,
                            function.end_lineno, positional, defaulted,
                        )
                    )
    return found


@dataclasses.dataclass
class _Call:
    #: The callee names this call reaches (a class's name for its ``__init__``).
    callees: set[str]
    keywords: set[str]
    positional: int
    starred: bool
    path: Path
    line: int


def _calls() -> list[_Call]:
    """Every call in ``src/``, ``benchmarks/`` and ``examples/``, resolved
    to the names it reaches.

    * A call of a class reaches its ``__init__``, or its bases' when it
      defines none; ``super().__init__(...)`` reaches the bases', and
      ``cls(...)`` the enclosing class's.
    * A helper that passes its own ``**kwargs`` (or a dict built from
      them) on to a call forwards the keywords given to it; the
      designer registry calls each registered factory through the local
      name ``factory``.
    * ``benchmark.pedantic(fn, args=(...), kwargs={...})`` calls ``fn``.
    """
    trees = [
        (path, ast.parse(path.read_text()))
        for folder in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    bases: dict[str, list[str]] = defaultdict(list)
    has_init: set[str] = set()
    owner: dict[int, str] = {}
    registered: set[str] = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] += [
                    name for name in map(_name_of, node.bases) if name is not None
                ]
                for member in node.body:
                    owner[id(member)] = node.name
                    if isinstance(member, ast.FunctionDef) and member.name == "__init__":
                        has_init.add(node.name)
            elif (
                isinstance(node, ast.Call)
                and _callee(node) == "register"
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Name)
            ):
                registered.add(node.args[1].id)

    def reached(name: str) -> set[str]:
        names = {name}
        if name not in has_init:
            for base in bases.get(name, ()):
                names |= reached(base)
        return names

    #: helper name -> the callee names it forwards its ``**kwargs`` to.
    forwards: dict[str, set[str]] = defaultdict(set)
    for _, tree in trees:
        for function in ast.walk(tree):
            if (
                not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                or function.args.kwarg is None
            ):
                continue
            carriers = {function.args.kwarg.arg}
            for node in ast.walk(function):
                if isinstance(node, ast.Assign) and any(
                    isinstance(n, ast.Name) and n.id in carriers for n in ast.walk(node.value)
                ):
                    carriers.update(t.id for t in node.targets if isinstance(t, ast.Name))
            for call in ast.walk(function):
                if isinstance(call, ast.Call) and any(
                    k.arg is None and isinstance(k.value, ast.Name) and k.value.id in carriers
                    for k in call.keywords
                ):
                    name = _callee(call)
                    if name == "factory":
                        forwards[function.name] |= registered
                    elif name == "cls":
                        forwards[function.name].add(owner[id(function)])
                    elif name is not None:
                        forwards[function.name].add(name)

    def forwarded(name: str, seen: frozenset = frozenset()) -> set[str]:
        names: set[str] = set()
        for target in forwards.get(name, ()):
            if target not in seen:
                names |= reached(target) | forwarded(target, seen | {name})
        return names

    calls: list[_Call] = []

    def visit(node, path: Path, klass: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = _callee(child)
                func = child.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__init__"
                    and isinstance(func.value, ast.Call)
                    and _callee(func.value) == "super"
                ):
                    callees = set().union(*(reached(b) for b in bases.get(klass, ())))
                elif name == "cls" and klass is not None:
                    callees = reached(klass)
                else:
                    callees = reached(name) if name is not None else set()
                keywords = {k.arg for k in child.keywords if k.arg is not None}
                starred = any(isinstance(a, ast.Starred) for a in child.args)
                calls.append(_Call(callees, keywords, len(child.args), starred, path, child.lineno))
                if name in forwards:
                    calls.append(_Call(forwarded(name), keywords, 0, False, path, child.lineno))
                target = _name_of(child.args[0]) if name == "pedantic" and child.args else None
                if target is not None:
                    given = {k.arg: k.value for k in child.keywords}
                    args, kwargs = given.get("args"), given.get("kwargs")
                    keys = kwargs.keys if isinstance(kwargs, ast.Dict) else []
                    calls.append(
                        _Call(
                            reached(target),
                            {key.value for key in keys if isinstance(key, ast.Constant)},
                            len(args.elts) if isinstance(args, ast.Tuple) else 0,
                            False,
                            path,
                            child.lineno,
                        )
                    )
            visit(child, path, child.name if isinstance(child, ast.ClassDef) else klass)

    for path, tree in trees:
        visit(tree, path, None)
    return calls


def _unpassed_parameters() -> set[str]:
    """``qualname.parameter`` for every defaulted parameter that no call
    outside ``tests/`` and outside the definition's own body passes, by
    keyword or by position."""
    calls = _calls()
    unpassed = set()
    for signature in _signatures():
        passed: set[str] = set()
        for call in calls:
            if signature.callee not in call.callees or (
                call.path == signature.path and signature.first <= call.line <= signature.last
            ):
                continue
            bound = signature.positional if call.starred else signature.positional[: call.positional]
            passed.update(call.keywords, bound)
        unpassed.update(
            f"{signature.qualname}.{name}" for name in signature.defaulted if name not in passed
        )
    return unpassed


def test_every_defaulted_parameter_is_passed():
    stray = sorted(_unpassed_parameters() - set(PARAMS_ALLOWED))
    assert not stray, (
        "only tests pass these parameters; make each the constant it always "
        "is (and drop the branch it selects) or list it in PARAMS_ALLOWED "
        "with a reason:\n  " + "\n  ".join(stray)
    )


def test_parameter_allowlist_is_current():
    """An allowed parameter that gained a caller, or was deleted, leaves."""
    stale = sorted(set(PARAMS_ALLOWED) - _unpassed_parameters())
    assert not stale, f"passed outside tests or gone, drop from PARAMS_ALLOWED: {stale}"
