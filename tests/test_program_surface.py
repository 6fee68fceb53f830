"""Every definition in ``src/repro`` has a caller, every field a reader,
and every parameter a use.

A function, class or method that only tests reach is surface that must
be kept working for no user.  This guard parses every module under
``src/repro`` outside ``repro/testing`` and fails for each top-level
function and class, and each non-dunder method, whose name never appears
as an ``ast.Name`` or ``ast.Attribute`` in program code: ``src/repro``
itself (an import or an ``__all__`` string is not a use), ``benchmarks/``,
``examples/`` and ``perfbench/``.

A field that every run writes and nothing reads is the same waste in
data.  The second guard fails for each dataclass field, and each
``self.<name>`` an ``__init__`` assigns, of a class in the same modules
whose name is never loaded as an ``ast.Attribute`` and never spelled as
a string literal (``getattr``, CSV column lists) in program code or in
``tests/``.

A parameter its function never reads is an argument every caller must
still pass.  The third guard fails for each parameter of a function or
method in the same modules that no ``ast.Name`` in the function's body
loads.  It skips ``self`` and ``cls``; bodies that hold only a
docstring, ``pass`` or ``raise``; asyncio protocol callbacks; and
methods whose name more than one class in ``src/repro`` defines, which
implement an interface (``fork``, ``execute_action``, ``payment_for``)
whose every implementation takes the same arguments.

A package ``__init__`` that re-exports a name gives it a second import
path.  The fourth guard fails for each name an ``__init__`` binds that
no script (``benchmarks/``, ``examples/``, ``perfbench/``) imports
through that package, for an ``__all__`` that differs from the bound
names, and for each import in a ``src/repro`` module that takes a name
through a package rather than from the module that defines it.

Names are matched without their class, so a definition or field that
shares its name with a used one (``entry``, ``last``, ``mode``) passes
unseen.
"""

from __future__ import annotations

import ast
import asyncio
import collections
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SCRIPT_DIRS = (ROOT / "benchmarks", ROOT / "examples", ROOT / "perfbench")
PROGRAM_DIRS = (PACKAGE, *SCRIPT_DIRS)

# (module under src/repro, qualified name) -> why it stays without a caller.
ALLOWLIST = {
    ("serve/http.py", "_Connection.<asyncio.Protocol callback>"): (
        "asyncio's transport calls the protocol callbacks by name"
    ),
    ("chain/execution.py", "NullProtocols"): (
        "the fake DeFi registry tests substitute for pure-ETH workloads"
    ),
    ("datasets/columnar.py", "BlockTable.from_observations"): (
        "the lossless-encoding reference tests build datasets with"
    ),
}

# (module under src/repro, Class.field) -> why it stays though unread.
FIELD_ALLOWLIST = {
    ("chain/transaction.py", "Transaction.nonce"): (
        "the factory folds it into tx_hash, and the engine never checks it"
    ),
}

# (module under src/repro, Class.method(parameter)) -> why it stays unread.
PARAMETER_ALLOWLIST = {
    ("serve/service.py", f"QueryService.{handler}(params)"): (
        "the route table calls every handler with the request's query"
    )
    for handler in (
        "_analysis_hhi",
        "_analysis_value_split",
        "_analysis_censorship",
        "_healthz",
        "_relays",
        "_inventory",
    )
}

_PROTOCOL_CALLBACKS = frozenset(
    name for name in dir(asyncio.Protocol) if not name.startswith("_")
)


@functools.cache
def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _nodes(directories):
    for directory in directories:
        for path in directory.rglob("*.py"):
            yield from ast.walk(_tree(path))


def _program_names() -> set[str]:
    names: set[str] = set()
    for node in _nodes(PROGRAM_DIRS):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _checked_modules():
    """(module under src/repro, parsed tree) outside ``repro/testing``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if not module.startswith("testing/"):
            yield module, _tree(path)


def _definitions():
    """(module, qualified name, allowlist key) for every checked definition."""
    for module, tree in _checked_modules():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield module, node.name, (module, node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name.startswith("__") and member.name.endswith("__"):
                    continue
                qualified = f"{node.name}.{member.name}"
                key = (module, qualified)
                if member.name in _PROTOCOL_CALLBACKS:
                    key = (module, f"{node.name}.<asyncio.Protocol callback>")
                yield module, qualified, key


def _unreferenced():
    names = _program_names()
    return [
        (module, qualified, key)
        for module, qualified, key in _definitions()
        if qualified.rsplit(".", 1)[-1] not in names
    ]


def test_every_definition_has_a_program_caller():
    missing = [
        f"src/repro/{module}: {qualified}"
        for module, qualified, key in _unreferenced()
        if key not in ALLOWLIST
    ]
    assert missing == [], (
        "defined in src/repro but named by no program code "
        "(delete it, or allowlist it with a reason):\n" + "\n".join(missing)
    )


def _read_names() -> set[str]:
    """Attribute loads and string literals in program code and tests."""
    names: set[str] = set()
    for node in _nodes((*PROGRAM_DIRS, ROOT / "tests")):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass":
            return True
    return False


def _self_targets(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _self_targets(element)
    elif (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        yield target.attr


def _fields(node: ast.ClassDef):
    """Names of a class's dataclass fields and ``__init__`` assignments."""
    if _is_dataclass(node):
        for member in node.body:
            if isinstance(member, ast.AnnAssign) and isinstance(
                member.target, ast.Name
            ):
                yield member.target.id
    for member in node.body:
        if isinstance(member, ast.FunctionDef) and member.name == "__init__":
            for statement in ast.walk(member):
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        yield from _self_targets(target)
                elif isinstance(statement, ast.AnnAssign):
                    yield from _self_targets(statement.target)


def _unread_fields():
    names = _read_names()
    unread = set()
    for module, tree in _checked_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for field in _fields(node):
                    if field not in names:
                        unread.add((module, f"{node.name}.{field}"))
    return unread


def test_every_field_has_a_reader():
    unread = sorted(key for key in _unread_fields() if key not in FIELD_ALLOWLIST)
    assert unread == [], (
        "written in src/repro but read by no program code or test "
        "(delete it, or allowlist it with a reason):\n"
        + "\n".join(f"src/repro/{module}: {field}" for module, field in unread)
    )


def _methods(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, member


def _is_stub(function) -> bool:
    """A body of only a docstring, ``pass`` or ``raise``."""
    return all(
        isinstance(statement, (ast.Pass, ast.Raise))
        or (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
        )
        for statement in function.body
    )


def _unused_parameters():
    implementations = collections.Counter(
        member.name
        for path in PACKAGE.rglob("*.py")
        for _, member in _methods(_tree(path))
    )
    unused = set()
    for module, tree in _checked_modules():
        functions = [
            (node.name, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        functions += [
            (f"{cls}.{member.name}", member)
            for cls, member in _methods(tree)
            if member.name not in _PROTOCOL_CALLBACKS
            and implementations[member.name] == 1
        ]
        for qualified, function in functions:
            if _is_stub(function):
                continue
            loaded = {
                node.id
                for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            arguments = function.args
            for parameter in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            ):
                if parameter is None or parameter.arg in ("self", "cls"):
                    continue
                if parameter.arg not in loaded:
                    unused.add((module, f"{qualified}({parameter.arg})"))
    return unused


def test_every_parameter_is_read():
    unused = sorted(
        key for key in _unused_parameters() if key not in PARAMETER_ALLOWLIST
    )
    assert unused == [], (
        "a parameter its function never reads (delete it from the "
        "signature and every call, or allowlist it with a reason):\n"
        + "\n".join(f"src/repro/{module}: {name}" for module, name in unused)
    )


def _init_bindings(tree: ast.Module):
    """(names an ``__init__`` binds, its ``__all__`` or ``[]``)."""
    bound, exported = [], []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [
                (alias.asname or alias.name).split(".")[0] for alias in node.names
            ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if getattr(target, "id", None) == "__all__":
                    exported = ast.literal_eval(node.value)
                elif isinstance(target, ast.Name):
                    bound.append(target.id)
    return bound, exported


def _script_imports() -> set[tuple[str, str]]:
    """(package, name) for each ``from repro.<package> import <name>``."""
    return {
        (node.module, alias.name)
        for node in _nodes(SCRIPT_DIRS)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
        for alias in node.names
    }


def _imported_package(path: pathlib.Path, node: ast.ImportFrom):
    """The package directory an import in ``src/repro`` names, or None."""
    if node.level:
        target = path.parents[node.level - 1]
        if node.module:
            target = target.joinpath(*node.module.split("."))
    elif node.module and node.module.split(".")[0] == "repro":
        target = PACKAGE.parent.joinpath(*node.module.split("."))
    else:
        return None
    return target if (target / "__init__.py").is_file() else None


def _reexport_problems():
    imported = _script_imports()
    for path in sorted(PACKAGE.rglob("__init__.py")):
        init = path.relative_to(ROOT).as_posix()
        package = ".".join(path.parent.relative_to(PACKAGE.parent).parts)
        bound, exported = _init_bindings(_tree(path))
        for name in bound:
            if (package, name) not in imported:
                yield f"{init}: {name} (no script imports it from {package})"
        if sorted(exported) != sorted(bound):
            yield f"{init}: __all__ differs from the bound names"
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue  # an init's imports are its bindings, checked above
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ImportFrom):
                continue
            package = _imported_package(path, node)
            if package is None:
                continue
            names = [
                alias.name
                for alias in node.names
                if not (package / f"{alias.name}.py").is_file()
                and not (package / alias.name / "__init__.py").is_file()
            ]
            if names:
                yield (
                    f"{path.relative_to(ROOT).as_posix()}:{node.lineno}: "
                    f"imports {', '.join(names)} through a package"
                )


def test_every_reexport_has_a_script_importer():
    problems = list(_reexport_problems())
    assert problems == [], (
        "a package __init__ re-exports only what scripts import through it, "
        "and src/repro imports each name from its defining module:\n"
        + "\n".join(problems)
    )


def test_every_allowlist_entry_is_still_needed():
    used = {key for _, _, key in _unreferenced()}
    stale = sorted(key for key in ALLOWLIST if key not in used)
    stale += sorted(key for key in FIELD_ALLOWLIST if key not in _unread_fields())
    stale += sorted(
        key for key in PARAMETER_ALLOWLIST if key not in _unused_parameters()
    )
    assert stale == [], f"allowlist entries with a reader or gone: {stale}"
