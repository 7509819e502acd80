"""Table 3: Chimera generalized to 2f pipelines.

For each divisor ``f`` of ``Q = D/2``: model replicas ``2f``, bubble ratio
``(D - 2f) / (2fN + D - 2f)``, weights ``2f * M0``, activations in
``[(D - D/2f + 1) Ma, D Ma]``. All four columns are checked against the
built schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import format_table
from repro.schedules.chimera import build_chimera_schedule
from repro.sim.cost import CostModel
from repro.sim.kernel import simulate_fast
from repro.sim.memory import MemoryModel, analyze_memory
from repro.sim.metrics import bubble_ratio


@dataclass(frozen=True)
class Table3Row:
    f: int
    replicas: int
    analytic_bubble: float
    measured_bubble: float
    act_min_analytic: float
    act_min_measured: float
    act_max_measured: float


def divisors(q: int) -> list[int]:
    return [f for f in range(1, q + 1) if q % f == 0]


def rows(depth: int = 8) -> list[Table3Row]:
    n = depth
    out = []
    # Equal F/B widths: Table 3's bubble formula counts equal slots.
    cost = CostModel.unit()
    memory = MemoryModel(activation_bytes=1.0, weight_bytes=1.0)
    for f in divisors(depth // 2):
        schedule = build_chimera_schedule(
            depth, n, num_down_pipelines=f, slot_model="unit"
        )
        result = simulate_fast(schedule, cost)
        report = analyze_memory(schedule, memory)
        units = [w.activation_peak_units for w in report.workers]
        out.append(
            Table3Row(
                f=f,
                replicas=schedule.num_replicas,
                analytic_bubble=(depth - 2 * f) / (2 * f * n + depth - 2 * f),
                measured_bubble=bubble_ratio(result),
                act_min_analytic=depth - depth / (2 * f) + 1,
                act_min_measured=min(units),
                act_max_measured=max(units),
            )
        )
    return out


def run(fast: bool = True) -> str:
    depth = 8 if fast else 16
    body = [
        [
            r.f,
            f"{r.replicas}",
            f"{r.analytic_bubble:.3f}",
            f"{r.measured_bubble:.3f}",
            f"{r.act_min_analytic:g}",
            f"[{r.act_min_measured:g}, {r.act_max_measured:g}]",
        ]
        for r in rows(depth)
    ]
    return (
        f"Table 3 reproduction (D={depth}, N=D, equal F/B slots)\n"
        + format_table(
            body,
            headers=[
                "f",
                "replicas 2f",
                "bubble (paper)",
                "bubble (sim)",
                "act min (paper)",
                "act [min,max] (sim)",
            ],
        )
    )
