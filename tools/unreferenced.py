#!/usr/bin/env python
"""List the library's unused names and unset options.

A static scan for least-code work, in two reports. It prints and never
fails. Run from anywhere (no third-party dependencies):

    python tools/unreferenced.py

**Unreferenced names.** For every public function, class or method
defined in ``src/repro`` (dunders and ``_private`` names are skipped), it
checks whether any *other* ``src/repro`` module names it, as an
identifier, an attribute, an import or an identifier inside a string
constant that is not a docstring. Package ``__init__.py`` re-exports do
not count as uses. Each name that nothing else in the library reaches is
printed with its definition site, whether its own module still uses it,
and which of ``tests/``, ``benchmarks/``, ``examples/`` and ``docs/``
mention it. The scan is by name, so a name shared by two definitions
counts as used when either one is.

**Unset options.** For every parameter with a default on a public
function or method in ``src/repro`` (a public class's ``__init__`` counts,
called by the class name), it checks whether any call in ``src/``,
``benchmarks/`` or ``examples/`` sets it, by keyword or by position. Such
a parameter always takes its default outside the tests: a candidate for
a constant. Each is printed with how many calls in ``tests/`` set it.
Callees are matched by name (``f(...)`` and ``obj.f(...)`` both match
every definition named ``f``), so a call sets a parameter of every
same-named definition. Dataclass fields are not parameters here. The
report cannot see values that arrive without a direct call, so it lists
these even though a user path sets them:

* builder options passed through ``build_schedule(**options)`` or a CLI
  flag (a ``**mapping`` argument sets nothing the scan can name);
* pass arguments in pipeline spec strings (``insert_sync:eager``,
  ``offload:N``), parsed into constructor calls at run time;
* ``cls(...)`` calls and ``functools.partial`` bindings;
* helpers that forward ``**kwargs`` (or ``*args``) to the callee.
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


#: Trees whose calls decide whether an option has a caller.
CALLER_DIRS = ("src", "benchmarks", "examples")


def options(tree: ast.Module) -> list[tuple[str, str, int, str, int | None]]:
    """``(qualified name, callee name, line, parameter, position)`` of each
    parameter with a default on the module's public functions and methods.
    ``position`` is the index a positional call fills (``None`` for
    keyword-only); a method's ``self``/``cls`` is not counted. A class's
    ``__init__`` is called by the class name."""
    found = []

    def visit(body: list[ast.stmt], prefix: str, in_class: bool) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef) and _public(node.name):
                visit(node.body, f"{prefix}{node.name}.", True)
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "__init__" and in_class:
                callee = prefix.rstrip(".").rsplit(".", 1)[-1]
            elif _public(node.name):
                callee = node.name
            else:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            skip = 1 if in_class and not static else 0
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional):
                if index >= first and index >= skip:
                    found.append(
                        (prefix + node.name, callee, node.lineno, arg.arg, index - skip)
                    )
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append(
                        (prefix + node.name, callee, node.lineno, arg.arg, None)
                    )

    visit(tree.body, "", False)
    return found


def calls(paths: list[pathlib.Path]) -> dict[str, list[tuple[int, set[str]]]]:
    """Callee name -> ``(positional count, keyword names)`` of each call in
    ``paths``. Starred and ``**`` arguments set nothing nameable."""
    found: dict[str, list[tuple[int, set[str]]]] = defaultdict(list)
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            count = 0
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                count += 1
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            found[name].append((count, keywords))
    return found


def _sets(call: tuple[int, set[str]], parameter: str, position: int | None) -> bool:
    count, keywords = call
    return parameter in keywords or (position is not None and position < count)


def unset_options(root: pathlib.Path) -> list[tuple[str, str, int, str, int]]:
    """``(module, qualified name, line, parameter, test calls setting it)``
    for each option no call in :data:`CALLER_DIRS` sets."""
    callers = calls(
        [path for rel in CALLER_DIRS for path in sorted((root / rel).rglob("*.py"))]
    )
    tested = calls(sorted((root / "tests").rglob("*.py")))
    rows = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualified, callee, line, parameter, position in options(tree):
            if any(_sets(c, parameter, position) for c in callers.get(callee, ())):
                continue
            tests = sum(
                _sets(c, parameter, position) for c in tested.get(callee, ())
            )
            rows.append(
                (str(path.relative_to(root)), qualified, line, parameter, tests)
            )
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
    print()
    unset = unset_options(root)
    for module, qualified, line, parameter, tests in unset:
        print(
            f"{module}:{line}  {qualified}({parameter}=)  "
            f"test calls setting it: {tests}"
        )
    untested = sum(1 for row in unset if not row[4])
    print(
        f"{len(unset)} parameters with a default that no call in "
        f"{', '.join(CALLER_DIRS)} sets ({untested} set by no test either)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
