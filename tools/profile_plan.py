#!/usr/bin/env python
"""Time and profile hot ``/plan`` requests in process.

Plans the ``serve_hot`` payloads through an in-process
:class:`repro.serve.PlannerService` (no sockets, no worker processes),
cycling through the hot set in order: ``--warmup`` requests first, so
the schedule cache and the planner's memos are warm, then ``--rounds``
timed rounds of ``--requests`` requests each, one line per round:

    round  requests  ms/request

Then, unless ``--no-profile`` is given, one more ``--requests``
requests run under cProfile, and each profiled function whose name is
given with ``--function`` (default: :data:`FUNCTIONS`) prints its call
count and cumulative seconds, one line per definition:

    calls  cumulative_s  function  file:line

cProfile does not see a hit of a ``functools.lru_cache`` function (the
calibrations, the planner's floor memo): only a miss runs Python code.

``REPRO_CACHE_DISABLE=1`` is set before ``repro`` is imported, so the
schedule cache has no disk tier. The payloads come from
``benchmarks/e2e/streams.py`` (imported, never modified). Standard
library only; not run by CI. From the repository root:

    python tools/profile_plan.py
    python tools/profile_plan.py --requests 600 --rounds 4 --no-profile
    python tools/profile_plan.py --function device_floor --function label
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import os
import pathlib
import pstats
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
os.environ["REPRO_CACHE_DISABLE"] = "1"

import streams  # noqa: E402
from repro.serve import PlannerService  # noqa: E402

#: Functions reported by default: the planner's layers on a hot request.
FUNCTIONS = (
    "plan_many",
    "_prune_request",
    "_device_floor",
    "device_floor",
    "_weight_bytes",
    "first_fit",
    "_rank_all",
    "rank_by_throughput",
    "label",
    "split_pipeline",
    "entry_to_json",
)


def run(service: PlannerService, payloads, count: int) -> float:
    """Plan the next ``count`` payloads; return the wall in seconds."""
    start = time.perf_counter()
    for payload in itertools.islice(payloads, count):
        response = service.plan(payload)
        if not response["ok"]:
            raise SystemExit(f"plan failed: {response['error']}")
    return time.perf_counter() - start


def report(profile: cProfile.Profile, names: set[str]) -> None:
    """Print calls and cumulative seconds of every function named ``names``."""
    rows = [
        (calls, cumulative, name, f"{pathlib.Path(path).name}:{line}")
        for (path, line, name), (_, calls, _, cumulative, _) in pstats.Stats(
            profile
        ).stats.items()
        if name in names
    ]
    print(f"{'calls':>8}  {'cumulative_s':>12}  function  file:line")
    for calls, cumulative, name, where in sorted(rows, key=lambda r: -r[1]):
        print(f"{calls:>8}  {cumulative:>12.4f}  {name}  {where}")
    missing = names - {row[2] for row in rows}
    if missing:
        print(f"not called: {', '.join(sorted(missing))}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--warmup", type=int, default=12, help="untimed requests")
    parser.add_argument("--requests", type=int, default=40, help="requests per round")
    parser.add_argument("--rounds", type=int, default=1, help="timed rounds")
    parser.add_argument(
        "--function",
        action="append",
        help="function name to report (repeatable; default: the planner layers)",
    )
    parser.add_argument(
        "--no-profile", action="store_true", help="skip the cProfile pass"
    )
    args = parser.parse_args()

    service = PlannerService()
    payloads = itertools.cycle(streams.hot_payloads())
    run(service, payloads, args.warmup)
    print("round  requests  ms/request")
    for k in range(args.rounds):
        wall = run(service, payloads, args.requests)
        print(f"{k:>5}  {args.requests:>8}  {1e3 * wall / args.requests:>10.3f}")
    if args.no_profile:
        return
    profile = cProfile.Profile()
    profile.enable()
    wall = run(service, payloads, args.requests)
    profile.disable()
    print(
        f"\nprofiled {args.requests} requests: "
        f"{1e3 * wall / args.requests:.3f} ms/request under cProfile"
    )
    report(profile, set(args.function or FUNCTIONS))


if __name__ == "__main__":
    main()
