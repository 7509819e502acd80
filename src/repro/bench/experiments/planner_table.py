"""Planner table: best configurations vs. peak-memory budget, per machine.

Not a figure from the Chimera paper — this table exercises the
scheme-agnostic planner (:mod:`repro.perf.planner`) the way the
controllable-memory paper [Qi et al. 2024] motivates it: sweep the
per-device activation budget downwards and watch the winning configuration
migrate from the fastest schedule to the memory-lean zero-bubble variants
(``zb_v`` -> ``zb_vhalf`` -> ``zb_vmin``/recompute) before the search
space empties. Run for at least two machine specs so the NVLink-vs-flat
contrast shows in the rankings.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.common.units import GIB
from repro.bench.harness import format_table
from repro.bench.machines import MachineSpec, PIZ_DAINT, V100_CLUSTER
from repro.bench.workloads import BERT48, TransformerSpec
from repro.perf.planner import PlanEntry, plan_configurations

#: Synchronous subset used in fast mode (the async PipeDream family costs
#: extra steady-state simulations and its rankings do not change with the
#: budget narrative shown here).
FAST_SCHEMES = ("dapple", "chimera", "zb_h1", "zb_v", "zb_vhalf", "zb_vmin")


def best_per_budget(
    machine: MachineSpec,
    workload: TransformerSpec,
    *,
    num_workers: int,
    mini_batch: int,
    budgets_gib: tuple[float | None, ...],
    schemes: tuple[str, ...] | None = None,
    pipeline: str | tuple[str, ...] | None = None,
) -> list[tuple[float | None, PlanEntry | None, int]]:
    """Top plan entry and survivor count for each budget (None = infeasible)."""
    out: list[tuple[float | None, PlanEntry | None, int]] = []
    for gib in budgets_gib:
        budget = gib * GIB if gib is not None else None
        try:
            entries = plan_configurations(
                machine,
                workload,
                num_workers=num_workers,
                mini_batch=mini_batch,
                memory_budget_bytes=budget,
                schemes=schemes,
                pipeline=pipeline,
            )
        except ConfigurationError:
            out.append((gib, None, 0))
            continue
        out.append((gib, entries[0], len(entries)))
    return out


def run(fast: bool = True) -> str:
    if fast:
        scenarios = [(PIZ_DAINT, BERT48, 16, 128), (V100_CLUSTER, BERT48, 16, 128)]
        budgets: tuple[float | None, ...] = (None, 6.0, 3.0, 2.0)
        schemes: tuple[str, ...] | None = FAST_SCHEMES
    else:
        scenarios = [(PIZ_DAINT, BERT48, 32, 512), (V100_CLUSTER, BERT48, 32, 512)]
        budgets = (None, 10.0, 6.0, 4.0, 3.0, 2.0, 1.5)
        schemes = None
    blocks = []
    for machine, workload, num_workers, mini_batch in scenarios:
        body = []
        for gib, best, count in best_per_budget(
            machine,
            workload,
            num_workers=num_workers,
            mini_batch=mini_batch,
            budgets_gib=budgets,
            schemes=schemes,
        ):
            label = "device" if gib is None else f"{gib:g} GiB"
            if best is None:
                body.append([label, 0, "(no feasible configuration)", "-", "-"])
            else:
                body.append(
                    [
                        label,
                        count,
                        best.label(),
                        f"{best.throughput:.1f}",
                        f"{best.peak_memory_bytes / GIB:.2f}",
                    ]
                )
        blocks.append(
            f"{workload.name} on {machine.name} (P={num_workers}, B̂={mini_batch})\n"
            + format_table(
                body,
                headers=["budget", "fits", "best configuration", "seq/s", "peak GiB"],
            )
        )
    return (
        "Planner table (scheme-agnostic search under a peak-memory budget)\n\n"
        + "\n\n".join(blocks)
    )
