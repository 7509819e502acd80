#!/usr/bin/env python
"""List the functions and classes in ``src/repro`` no other module uses.

A static scan for least-code work: for every public function, class or
method defined in ``src/repro`` (dunders and ``_private`` names are
skipped), it checks whether any *other* ``src/repro`` module names it,
as an identifier, an attribute, an import or an identifier inside a
string constant that is not a docstring. Package ``__init__.py``
re-exports do not count as uses. Each name that nothing else in the
library reaches is printed with its definition site, whether its own
module still uses it, and which of ``tests/``, ``benchmarks/``,
``examples/`` and ``docs/`` mention it. The scan is by name, so a name
shared by two definitions counts as used when either one is.

It prints and never fails. Run from anywhere (no third-party
dependencies):

    python tools/unreferenced.py
"""

from __future__ import annotations

import ast
import pathlib
import re
from collections import defaultdict

#: Trees whose mentions are reported next to each unreferenced name.
MENTION_DIRS = ("tests", "benchmarks", "examples", "docs")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """``(qualified name, line)`` of the module's public functions and
    classes, and of the public methods of its classes (nested defs
    inside functions are skipped)."""
    found = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _public(node.name):
                    found.append((prefix + node.name, node.lineno))
            elif isinstance(node, ast.ClassDef):
                if _public(node.name):
                    found.append((prefix + node.name, node.lineno))
                visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return found


def _docstring_nodes(tree: ast.Module) -> set[int]:
    """``id`` of every docstring constant in ``tree``."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                ids.add(id(body[0].value))
    return ids


def references(tree: ast.Module, *, reexport: bool) -> set[str]:
    """Every name ``tree`` uses. A re-export module's imports are not
    uses (its ``__all__`` strings are skipped with them)."""
    docstrings = _docstring_nodes(tree)
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexport:
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and not reexport
        ):
            names.update(_IDENT.findall(node.value))
    return names


def mentions(root: pathlib.Path) -> dict[str, set[str]]:
    """Identifier -> which of :data:`MENTION_DIRS` mention it."""
    seen: dict[str, set[str]] = defaultdict(set)
    for rel in MENTION_DIRS:
        base = root / rel
        if not base.is_dir():
            continue
        for path in base.rglob("*"):
            if path.suffix not in (".py", ".md") or not path.is_file():
                continue
            for word in set(_IDENT.findall(path.read_text(errors="replace"))):
                seen[word].add(rel)
    return seen


def scan(root: pathlib.Path) -> list[tuple[str, str, int, bool, list[str]]]:
    """``(module, name, line, used in its own module, mentioned in)`` for
    each public definition that no other library module references."""
    src = root / "src" / "repro"
    modules = {}
    for path in sorted(src.rglob("*.py")):
        modules[path] = ast.parse(path.read_text(), filename=str(path))
    refs = {
        path: references(tree, reexport=path.name == "__init__.py")
        for path, tree in modules.items()
    }
    # name -> modules that use it
    users: dict[str, set[pathlib.Path]] = defaultdict(set)
    for path, names in refs.items():
        for name in names:
            users[name].add(path)
    mentioned = mentions(root)
    rows = []
    for path, tree in modules.items():
        for qualified, line in definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            if users[name] - {path}:
                continue
            own = path in users[name]
            where = sorted(mentioned.get(name, ()))
            rows.append((str(path.relative_to(root)), qualified, line, own, where))
    return rows


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    rows = scan(root)
    for module, qualified, line, own, where in rows:
        flag = "own module" if own else "unused"
        print(
            f"{module}:{line}  {qualified}  [{flag}]  "
            f"mentioned in: {', '.join(where) or '-'}"
        )
    unused = [row for row in rows if not row[3]]
    nowhere = sum(1 for row in unused if not row[4])
    print(
        f"{len(rows)} public names no other src/repro module references: "
        f"{len(rows) - len(unused)} used only in their own module, "
        f"{len(unused)} unused in src/repro ({nowhere} mentioned nowhere)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
