"""Package ``__init__`` re-exports are lazy, and entry points stay lean.

Every package lists its public names by defining module
(:func:`repro.common.exports.lazy_exports`) and imports one only when it
is read. These tests pin the re-export contract an eager ``__init__``
gave, and, each in a fresh interpreter, which modules an entry point's
imports may not load.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

PACKAGES = (
    "repro",
    "repro.schedules",
    "repro.sim",
    "repro.bench",
    "repro.bench.experiments",
    "repro.perf",
    "repro.serve",
    "repro.runtime",
    "repro.models",
    "repro.common",
)

#: Exported values with no ``__module__`` of their own, by defining module.
CONSTANTS = {
    "DEFAULT_PASS_MANAGER": "repro.schedules.passes.base",
    "PIZ_DAINT": "repro.bench.machines",
    "V100_CLUSTER": "repro.bench.machines",
    "BERT48": "repro.bench.workloads",
    "GPT2_64": "repro.bench.workloads",
    "GPT2_32": "repro.bench.workloads",
    "GIB": "repro.common.units",
    "__version__": "repro",
}


def exported(package: str):
    module = importlib.import_module(package)
    return [(module, name) for name in module.__all__]


def all_exports():
    return [pair for package in PACKAGES for pair in exported(package)]


@pytest.mark.parametrize(
    "module, name", all_exports(), ids=lambda v: getattr(v, "__name__", v)
)
def test_export_is_its_defining_module_attribute(module, name):
    value = getattr(module, name)
    qualname = getattr(value, "__qualname__", None)
    if isinstance(value, types.ModuleType):
        assert value.__name__ == f"{module.__name__}.{name}"
        assert sys.modules[value.__name__] is value
    elif qualname is not None:  # a class or a (wrapped) function
        assert value.__module__.startswith("repro.")
        assert getattr(importlib.import_module(value.__module__), qualname) is value
    else:
        assert getattr(importlib.import_module(CONSTANTS[name]), name) is value


def test_aliases_and_shared_names_are_one_object():
    from repro.sim import kernel

    assert repro.simulate is repro.sim.simulate is kernel.simulate_fast
    for name in repro.__all__:
        for package in PACKAGES[1:]:
            owner = importlib.import_module(package)
            if name in owner.__all__:
                assert getattr(owner, name) is getattr(repro, name), (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_export(package):
    scope: dict = {}
    exec(f"from {package} import *", scope)
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if name not in scope]
    assert not missing
    assert all(scope[name] is getattr(module, name) for name in module.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_module(package):
    module = importlib.import_module(package)
    message = f"module '{package}' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        module.no_such_name
    with pytest.raises(AttributeError, match="__no_such_dunder__"):
        module.__no_such_dunder__
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_submodule_is_an_attribute_of_its_package():
    code = (
        "import repro.sim, sys\n"
        "assert 'repro.sim.trace' not in sys.modules\n"
        "assert repro.sim.trace is sys.modules['repro.sim.trace']\n"
        "print('ok')"
    )
    assert run(code).strip() == "ok"


def test_version_is_a_literal_the_project_reads():
    tomllib = pytest.importorskip("tomllib")
    init = SRC / "repro" / "__init__.py"
    literals = [
        node.value.value
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
        and isinstance(node.value, ast.Constant)
    ]
    assert literals == [repro.__version__]
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    dynamic = pyproject["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}


# ------------------------------------------------------- import boundaries
def run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


#: (entry point, imports, modules it must not load, as name prefixes).
BOUNDARIES = (
    (
        "plan set-up",
        "import repro.perf.planner, repro.schedules.cache, repro.serve.service",
        (
            "repro.models",
            "repro.runtime",
            "repro.bench.perfsuite",
            "repro.bench.experiments",
            "repro.sim.gantt",
            "repro.sim.trace",
            "repro.perf.workers",
        ),
    ),
    (
        "trainer",
        "import repro.models.transformer, repro.runtime.optimizers, "
        "repro.runtime.trainer",
        ("repro.perf", "repro.serve", "repro.bench", "repro.sim"),
    ),
    (
        "cli parser",
        "import repro.cli; repro.cli.build_parser()",
        (
            "repro.bench.experiments.",
            "repro.bench.perfsuite",
            "repro.bench.harness",
            "repro.models",
        ),
    ),
)


@pytest.mark.parametrize(
    "imports, forbidden", [b[1:] for b in BOUNDARIES], ids=[b[0] for b in BOUNDARIES]
)
def test_entry_point_loads_only_its_modules(imports, forbidden):
    code = f"{imports}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(run(code))
    assert "repro" in loaded
    leaked = [name for name in loaded if any(within(name, p) for p in forbidden)]
    assert not leaked


def within(name: str, prefix: str) -> bool:
    """``prefix`` or one of its submodules; a trailing dot: submodules only."""
    if prefix.endswith("."):
        return name.startswith(prefix)
    return name == prefix or name.startswith(prefix + ".")
