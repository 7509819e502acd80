"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists its public names by defining module instead of importing
them, so ``import repro.sim.cost`` runs ``repro/sim/__init__.py`` without
loading the kernel, the engine or the Gantt renderer::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.sim.cost": ("CostModel",),
        "repro.sim.kernel": ("kernel_of", "simulate_fast as simulate"),
    })

The first read of a listed name imports its module and binds the value
in the package namespace, so later reads are plain attribute lookups.
Any other name that is a submodule of the package imports it, as an
eager ``__init__`` that imported the submodule would have exposed it.
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str,
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a defining module to the names it exports; an entry
    ``"attr as name"`` exports the module's ``attr`` as ``name``.
    ``submodules`` are public submodules, listed in ``__all__`` too.
    """
    table: dict[str, tuple[str, str]] = {}
    for module, entries in exports.items():
        for entry in entries:
            attr, _, alias = entry.partition(" as ")
            table[alias or attr] = (module, attr)

    def __getattr__(name: str) -> object:
        found = table.get(name)
        if found is not None:
            module, attr = found
            value = getattr(_import(module), attr)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            submodule = f"{package}.{name}"
            try:
                value = _import(submodule)
            except ModuleNotFoundError as err:
                if err.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *table, *submodules})

    return [*table, *submodules], __getattr__, __dir__


def _import(module: str):
    """Import ``module`` the way an import statement does, so that
    ``python -X importtime`` reports it (``importlib.import_module`` is
    not reported)."""
    __import__(module)
    return sys.modules[module]
