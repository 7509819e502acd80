"""Warm-up, timed rounds and a cProfile pass for the in-process profilers.

``tools/profile_plan.py`` (hot ``/plan`` requests) and
``tools/profile_train.py`` (pipeline train steps) hand :func:`drive` their
unit of work as ``run(count) -> seconds`` and :func:`report` a filter
over the profiled functions. Standard library only; not a script.
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats
from typing import Callable


def drive(
    run: Callable[[int], float],
    *,
    unit: str,
    warmup: int,
    count: int,
    rounds: int = 1,
    profile: bool = True,
) -> cProfile.Profile | None:
    """Run ``warmup`` untimed units, then ``rounds`` timed rounds of
    ``count`` units, one line per round:

        round  <unit>s  ms/<unit>

    Then, if ``profile``, run ``count`` more under cProfile, print their
    wall per unit and return the profile (``None`` otherwise).
    """
    run(warmup)
    print(f"round  {unit}s  ms/{unit}")
    for k in range(rounds):
        wall = run(count)
        print(
            f"{k:>5}  {count:>{len(unit) + 1}}"
            f"  {1e3 * wall / count:>{len(unit) + 3}.3f}"
        )
    if not profile:
        return None
    profiler = cProfile.Profile()
    profiler.enable()
    wall = run(count)
    profiler.disable()
    print(
        f"\nprofiled {count} {unit}s: {1e3 * wall / count:.3f} ms/{unit}"
        " under cProfile"
    )
    return profiler


def report(
    profiler: cProfile.Profile, keep: Callable[[str, str], bool]
) -> set[str]:
    """Print every profiled function ``keep(path, name)`` selects, largest
    self time first, and the rows' total self time:

        calls  self_s  cumulative_s  function  file:line

    Return the names printed.
    """
    rows = [
        (calls, own, cumulative, name, f"{pathlib.Path(path).name}:{line}")
        for (path, line, name), (_, calls, own, cumulative, _) in pstats.Stats(
            profiler
        ).stats.items()
        if keep(path, name)
    ]
    print(f"{'calls':>8}  {'self_s':>8}  {'cumulative_s':>12}  function  file:line")
    for calls, own, cumulative, name, where in sorted(rows, key=lambda r: -r[1]):
        print(f"{calls:>8}  {own:>8.4f}  {cumulative:>12.4f}  {name}  {where}")
    print(f"{'':>8}  {sum(row[1] for row in rows):>8.4f}  total self time")
    return {row[3] for row in rows}
