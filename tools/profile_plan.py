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
count, self seconds and cumulative seconds, one line per definition,
largest self time first:

    calls  self_s  cumulative_s  function  file:line

cProfile does not see a hit of a ``functools.lru_cache`` function (the
calibrations, the planner's floor memo): only a miss runs Python code.

``REPRO_CACHE_DISABLE=1`` is set before ``repro`` is imported, so the
schedule cache has no disk tier. The payloads come from
``benchmarks/e2e/streams.py`` (imported, never modified). The driver is
``tools/profile_driver.py``. Standard library only; not run by CI. From
the repository root:

    python tools/profile_plan.py
    python tools/profile_plan.py --requests 600 --rounds 4 --no-profile
    python tools/profile_plan.py --function device_floor --function label
"""

from __future__ import annotations

import argparse
import itertools
import os
import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
os.environ["REPRO_CACHE_DISABLE"] = "1"

import profile_driver  # noqa: E402
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
    "_rank",
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
    profiler = profile_driver.drive(
        lambda count: run(service, payloads, count),
        unit="request",
        warmup=args.warmup,
        count=args.requests,
        rounds=args.rounds,
        profile=not args.no_profile,
    )
    if profiler is None:
        return
    names = set(args.function or FUNCTIONS)
    missing = names - profile_driver.report(profiler, lambda _, name: name in names)
    if missing:
        print(f"not called: {', '.join(sorted(missing))}")

if __name__ == "__main__":
    main()
