#!/usr/bin/env python
"""Report what each ``repro`` entry point imports at start-up.

Runs every entry point in a fresh ``python -X importtime`` child and
prints, per entry point, how many modules the child imported and their
summed self time, split into ``repro`` and everything else (the
standard library, NumPy):

    entry point    modules  repro  repro_ms  other_ms

The entry points are the ``benchmarks/e2e`` plan set-up imports, a
``repro serve`` process up to its "listening" line, the ``train``
workload's trainer imports, ``repro bench --fast --repeats 1`` and
``repro figure table2``. Module counts are exact; the times are the
median over ``--repeats`` children and move with the host. Each child
gets a private, empty ``REPRO_CACHE_DIR``. When
``PYTHONDONTWRITEBYTECODE`` is set, every child compiles each module
from source, and its self times include that compile. Standard library
only; it fails only when an entry point does, and gates no number. From
the repository root:

    python tools/profile_imports.py [--repeats 3]
"""

from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent

#: (name, command after ``python -X importtime``, wait for this stdout line).
ENTRY_POINTS: tuple[tuple[str, tuple[str, ...], str | None], ...] = (
    (
        "plan set-up",
        (
            "-c",
            "import repro.perf.planner, repro.schedules.cache, "
            "repro.serve.service",
        ),
        None,
    ),
    ("repro serve", ("-m", "repro", "serve", "--port", "0"), "listening on"),
    (
        "trainer",
        (
            "-c",
            "import repro.models.transformer, repro.runtime.optimizers, "
            "repro.runtime.trainer",
        ),
        None,
    ),
    ("repro bench", ("-m", "repro", "bench", "--fast", "--repeats", "1"), None),
    ("repro figure", ("-m", "repro", "figure", "table2"), None),
)


def parse_importtime(text: str) -> dict[str, int]:
    """``module -> self microseconds`` from ``-X importtime`` stderr."""
    found: dict[str, int] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:  # the header line
            continue
        found[fields[2].strip()] = self_us
    return found


def run_child(args: tuple[str, ...], ready: str | None, work: pathlib.Path) -> str:
    """Run one ``-X importtime`` child in ``work``; return its stderr."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(work / "cache"))
    env.pop("REPRO_CACHE_DISABLE", None)
    src = str(REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if args[:2] == ("-m", "repro") and args[2] == "bench":
        args = (*args, "--output", str(work / "bench.json"))
    err_path = work / "stderr.txt"
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-X", "importtime", *args],
            cwd=work,
            env=env,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        if ready is None:
            proc.stdout.read()
            failed = proc.wait(timeout=300) != 0
        else:
            failed = not any(ready in line for line in proc.stdout)
            proc.terminate()
            proc.wait(timeout=300)
    if failed:
        raise SystemExit(f"{' '.join(args)} failed:\n{err_path.read_text()[-2000:]}")
    return err_path.read_text()


def measure(args: tuple[str, ...], ready: str | None, repeats: int) -> tuple:
    """(modules, repro modules, repro ms, other ms), times as medians."""
    runs = []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="profile-imports-") as tmp:
            runs.append(parse_importtime(run_child(args, ready, pathlib.Path(tmp))))
    ours = [name for name in runs[0] if name == "repro" or name.startswith("repro.")]
    repro_ms = statistics.median(
        sum(us for name, us in run.items() if name in ours) / 1e3 for run in runs
    )
    other_ms = statistics.median(
        sum(us for name, us in run.items() if name not in ours) / 1e3 for run in runs
    )
    return len(runs[0]), len(ours), repro_ms, other_ms


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--repeats", type=int, default=3, help="children per entry point"
    )
    args = parser.parse_args()
    compiled = "from source" if os.environ.get("PYTHONDONTWRITEBYTECODE") else (
        "from cached bytecode where present"
    )
    print(f"python {sys.version.split()[0]}, modules load {compiled}")
    print(f"{'entry point':<14} {'modules':>7} {'repro':>5} {'repro_ms':>9} {'other_ms':>9}")
    for name, command, ready in ENTRY_POINTS:
        modules, ours, repro_ms, other_ms = measure(command, ready, max(1, args.repeats))
        print(f"{name:<14} {modules:>7} {ours:>5} {repro_ms:>9.1f} {other_ms:>9.1f}")


if __name__ == "__main__":
    main()
