"""Every definition in ``src/repro`` has a caller in program code.

A function, class or method that only tests reach is surface that must
be kept working for no user.  This guard parses every module under
``src/repro`` outside ``repro/testing`` and fails for each top-level
function and class, and each non-dunder method, whose name never appears
as an ``ast.Name`` or ``ast.Attribute`` in program code: ``src/repro``
itself (a package ``__init__`` re-export is an import or an ``__all__``
string, so it does not count), ``benchmarks/``, ``examples/`` and
``perfbench/``.

Names are matched without their class, so a definition that shares its
name with a used one (``entry``, ``last``) passes unseen.
"""

from __future__ import annotations

import ast
import asyncio
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = (PACKAGE, ROOT / "benchmarks", ROOT / "examples", ROOT / "perfbench")

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

_PROTOCOL_CALLBACKS = frozenset(
    name for name in dir(asyncio.Protocol) if not name.startswith("_")
)


def _program_names() -> set[str]:
    names: set[str] = set()
    for directory in PROGRAM_DIRS:
        for path in directory.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def _definitions():
    """(module, qualified name, allowlist key) for every checked definition."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module.startswith("testing/"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
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


def test_every_allowlist_entry_is_still_needed():
    used = {key for _, _, key in _unreferenced()}
    stale = sorted(key for key in ALLOWLIST if key not in used)
    assert stale == [], f"allowlist entries with a program caller or gone: {stale}"
