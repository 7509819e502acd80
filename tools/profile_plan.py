#!/usr/bin/env python
"""Time and profile ``/plan`` requests in process: hot, or a cold stream.

By default plans the ``serve_hot`` payloads through an in-process
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

With ``--cold``, each round instead plans the first ``--requests``
requests of the ``plan_cold`` stream (default: all of it) through
``repro.perf.planner.plan_many``, as ``plan_cold`` does, from empty
tiers: the schedule cache's memory tier and a private disk tier are
emptied, and so are the planner's row and memory-report memos. The
profile then reports the build layers (:func:`build_layer`): every
function of ``repro.schedules`` (the builders, the passes, lowering,
dependency graphs, the cache and its disk tier), kernel construction
and the memory-profile compile, and then the ``Operation`` objects the
profiled pass made: validated ones (``Operation.__post_init__`` calls)
and rows made from op tables
(:meth:`~repro.schedules.ir.OpTable.operations`, which skips
``__post_init__``), in total and then per :class:`OpKind`:

    operations  <total>  (<n> __post_init__, <m> from tables)
      kind  validated  from tables
      <KIND>  <n>  <m>

and last the pass's disk-tier writes: ``DiskScheduleCache.store``
calls, the bytes of the files they wrote, and the seconds spent
persisting (``ScheduleArtifacts.snapshot`` plus the store, under
cProfile):

    disk  <n> stores  <bytes> bytes  <s> s persist (snapshot + store)

With ``--warm``, the stream is first planned once, untimed, as
``--cold`` plans it, into a temporary disk tier; each round then empties
the memory tier and the planner's memos (not the disk tier) and plans
the first ``--requests`` requests again, which is ``plan_warm`` in
process: disk loads of kernels and memory profiles, no schedule builds.
The profile
then reports the simulation and ranking layers (:func:`warm_layer`):
every function of ``repro.sim``, ``repro.perf`` and
``repro.bench.harness``, and the schedule cache's two tiers.

cProfile does not see a hit of a ``functools.lru_cache`` function (the
calibrations, the planner's floor memo): only a miss runs Python code.

``REPRO_CACHE_DISABLE=1`` is set before ``repro`` is imported, so the
hot mode's schedule cache has no disk tier; ``--cold`` enables one in a
temporary directory. The payloads come from ``benchmarks/e2e/streams.py``
(imported, never modified). The driver is ``tools/profile_driver.py``.
Standard library only. CI's lint job runs ``--warmup 2 --requests 4``,
``--cold --requests 1`` and ``--warm --requests 1`` as smokes. From the
repository root:

    python tools/profile_plan.py
    python tools/profile_plan.py --requests 600 --rounds 4 --no-profile
    python tools/profile_plan.py --function split_pipeline --function label
    python tools/profile_plan.py --cold
    python tools/profile_plan.py --warm --rounds 3
"""

from __future__ import annotations

import argparse
import itertools
import os
import pathlib
import sys
import tempfile
import time
from collections import Counter

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
os.environ["REPRO_CACHE_DISABLE"] = "1"

import profile_driver  # noqa: E402
import streams  # noqa: E402
from repro.perf import planner  # noqa: E402
from repro.schedules.cache import (  # noqa: E402
    ScheduleArtifacts,
    clear_schedule_cache,
)
from repro.schedules.diskcache import DiskScheduleCache  # noqa: E402
from repro.schedules.ir import Operation, OpKind, OpTable  # noqa: E402
from repro.serve import PlannerService  # noqa: E402
from repro.serve.service import parse_plan_request  # noqa: E402
from repro.sim import memory  # noqa: E402

#: Functions reported by default: the planner's layers on a hot request,
#: and the lookups each candidate makes (spec memo, memory report,
#: schedule-cache key, kernel).
FUNCTIONS = (
    "plan_many",
    "_prune_request",
    "_device_floor",
    "first_fit",
    "memory_report",
    "config_artifacts",
    "key",
    "kernel_for",
    "_rank",
    "rank_by_throughput",
    "label",
    "split_pipeline",
    "normalize_pipeline",
    "entry_to_json",
)


SCHEDULES = REPO / "src" / "repro" / "schedules"

#: Build-layer functions outside ``repro.schedules`` (file name, function).
BUILD_FUNCTIONS = {
    ("kernel.py", "kernel_of"),
    ("kernel.py", "__init__"),  # ScheduleKernel and its blocking tables
    ("memory.py", "compile_memory_profile"),
}


def build_layer(path: str, name: str) -> bool:
    """True for the functions ``--cold`` reports (see the module doc)."""
    where = pathlib.Path(path)
    return SCHEDULES in where.parents or (where.name, name) in BUILD_FUNCTIONS


SRC = REPO / "src" / "repro"

#: Files outside ``repro.sim`` and ``repro.perf`` that ``--warm`` reports.
WARM_FILES = {
    SRC / "bench" / "harness.py",
    SCHEDULES / "cache.py",
    SCHEDULES / "diskcache.py",
}


def warm_layer(path: str, name: str) -> bool:
    """True for the functions ``--warm`` reports (see the module doc)."""
    where = pathlib.Path(path)
    return where in WARM_FILES or any(
        SRC / package in where.parents for package in ("sim", "perf")
    )


#: ``Operation``\ s made during the latest :func:`run_stream`, per kind:
#: validated ones (``__post_init__`` calls) and rows made by
#: :meth:`OpTable.operations` (see :func:`count_operations`).
VALIDATED: Counter = Counter()
TABLE_ROWS: Counter = Counter()


def count_operations() -> None:
    """Make ``Operation.__post_init__`` and :meth:`OpTable.operations`
    count the ops they make, by kind, into :data:`VALIDATED` and
    :data:`TABLE_ROWS`."""
    post_init, operations = Operation.__post_init__, OpTable.operations

    def counted_post_init(op: Operation) -> None:
        VALIDATED[op.kind] += 1
        post_init(op)

    def counted_operations(table: OpTable) -> list[Operation]:
        ops = operations(table)
        TABLE_ROWS.update(op.kind for op in ops)
        return ops

    Operation.__post_init__ = counted_post_init
    OpTable.operations = counted_operations


def print_operations() -> None:
    """The ``operations`` lines: the total, then one line per kind."""
    validated, rows = sum(VALIDATED.values()), sum(TABLE_ROWS.values())
    print(
        f"operations  {validated + rows}  ({validated} __post_init__, "
        f"{rows} from tables)"
    )
    print(f"  {'kind':<16}{'validated':>11}{'from tables':>13}")
    for kind in OpKind:
        print(f"  {kind.name:<16}{VALIDATED[kind]:>11}{TABLE_ROWS[kind]:>13}")


#: The disk-tier writes of the latest :func:`run_stream` (see
#: :func:`count_disk`): ``stores``, ``bytes`` and ``persist_s``.
DISK: Counter = Counter()


def count_disk() -> None:
    """Make ``DiskScheduleCache.store`` count its calls and the bytes of
    the files it wrote, and it and ``ScheduleArtifacts.snapshot`` add
    their seconds, into :data:`DISK`."""
    store, snapshot = DiskScheduleCache.store, ScheduleArtifacts.snapshot

    def counted_store(disk: DiskScheduleCache, key: tuple, artifacts: dict) -> bool:
        start = time.perf_counter()
        stored = store(disk, key, artifacts)
        DISK["persist_s"] += time.perf_counter() - start
        DISK["stores"] += 1
        if stored:
            DISK["bytes"] += disk.entry_path(key).stat().st_size
        return stored

    def timed_snapshot(arts: ScheduleArtifacts) -> dict:
        start = time.perf_counter()
        payload = snapshot(arts)
        DISK["persist_s"] += time.perf_counter() - start
        return payload

    DiskScheduleCache.store = counted_store
    ScheduleArtifacts.snapshot = timed_snapshot


def print_disk() -> None:
    """The ``disk`` line."""
    print(
        f"disk  {DISK['stores']} stores  {DISK['bytes']} bytes  "
        f"{DISK['persist_s']:.3f} s persist (snapshot + store)"
    )


def run_stream(payloads: list[dict], count: int, *, disk: bool) -> float:
    """Plan the first ``count`` payloads from an empty memory tier and
    empty memos, and an empty disk tier too if ``disk``; return the wall
    in seconds (emptying the tiers is not timed)."""
    clear_schedule_cache(disk=disk)
    VALIDATED.clear()
    TABLE_ROWS.clear()
    DISK.clear()
    planner._ROW_MEMO.clear()
    memory._REPORTS.clear()
    requests = [parse_plan_request(payload) for payload in payloads[:count]]
    start = time.perf_counter()
    for request in requests:
        planner.plan_many([request], max_workers=1)  # an error is an answer
    return time.perf_counter() - start


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
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--cold",
        action="store_true",
        help="plan the plan_cold stream from empty tiers; report build layers",
    )
    mode.add_argument(
        "--warm",
        action="store_true",
        help="plan the plan_cold stream over the disk tier a first pass "
        "filled; report simulation and ranking layers",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        help="untimed requests (default: 12; 0 with --cold or --warm)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        help="requests per round (default: 40; the whole stream with "
        "--cold or --warm)",
    )
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

    if args.cold or args.warm:
        stream = streams.plan_payloads()
        count = len(stream) if args.requests is None else args.requests
        if not 1 <= count <= len(stream):
            parser.error(f"--cold/--warm plan 1 to {len(stream)} requests")
        os.environ.pop("REPRO_CACHE_DISABLE")
        tier = tempfile.TemporaryDirectory(prefix="profile_plan-")
        os.environ["REPRO_CACHE_DIR"] = tier.name
        if args.warm:
            run_stream(stream, len(stream), disk=True)  # fills the disk tier
        else:
            count_operations()
            count_disk()
        work = lambda count: run_stream(stream, count, disk=args.cold)  # noqa: E731
        warmup = args.warmup or 0
    else:
        service = PlannerService()
        payloads = itertools.cycle(streams.hot_payloads())
        count = 40 if args.requests is None else args.requests
        work = lambda count: run(service, payloads, count)  # noqa: E731
        warmup = 12 if args.warmup is None else args.warmup
    profiler = profile_driver.drive(
        work,
        unit="request",
        warmup=warmup,
        count=count,
        rounds=args.rounds,
        profile=not args.no_profile,
    )
    if profiler is None:
        return
    if (args.cold or args.warm) and not args.function:
        profile_driver.report(profiler, build_layer if args.cold else warm_layer)
        if args.cold:
            print_operations()
            print_disk()
        return
    names = set(args.function or FUNCTIONS)
    missing = names - profile_driver.report(profiler, lambda _, name: name in names)
    if missing:
        print(f"not called: {', '.join(sorted(missing))}")


if __name__ == "__main__":
    main()
