"""Table 2: bubble ratio / weights / activations memory per scheme.

The analytic columns come straight from the paper's formulas; the measured
columns from the discrete-event simulation and the memory model. Matching
them is the core structural validation of the schedule builders.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import format_table
from repro.schedules.analysis import bubble_ratio_formula
from repro.schedules.registry import available_schemes, build_schedule, scheme_traits
from repro.sim.cost import CostModel
from repro.sim.kernel import simulate_fast
from repro.sim.memory import MemoryModel, analyze_memory
from repro.sim.metrics import bubble_ratio


@dataclass(frozen=True)
class Table2Row:
    scheme: str
    analytic_bubble: float
    measured_bubble: float
    act_units_min: float
    act_units_max: float
    weight_copies: int
    synchronous: bool


def rows(depth: int = 8, n: int = 8) -> list[Table2Row]:
    out: list[Table2Row] = []
    cost = CostModel.practical()
    memory = MemoryModel(activation_bytes=1.0, weight_bytes=1.0)
    for scheme in available_schemes():
        if scheme_traits(scheme).cost_parameterized:
            continue  # no single Table-2 row: output depends on the cost model
        schedule = build_schedule(scheme, depth, n)
        result = simulate_fast(schedule, cost)
        report = analyze_memory(schedule, memory)
        units = [w.activation_peak_units for w in report.workers]
        out.append(
            Table2Row(
                scheme=scheme,
                analytic_bubble=bubble_ratio_formula(scheme, depth, n),
                measured_bubble=bubble_ratio(result),
                act_units_min=min(units),
                act_units_max=max(units),
                weight_copies=schedule.num_replicas,
                synchronous=schedule.synchronous,
            )
        )
    return out


def run(fast: bool = True) -> str:
    depth, n = (8, 8) if fast else (16, 16)
    table = rows(depth, n)
    body = [
        [
            r.scheme,
            f"{r.analytic_bubble:.3f}",
            f"{r.measured_bubble:.3f}",
            f"[{r.act_units_min:g}, {r.act_units_max:g}] Ma",
            f"{r.weight_copies} M0",
            "sync" if r.synchronous else "ASYNC (stale)",
        ]
        for r in table
    ]
    return (
        f"Table 2 reproduction (D={depth}, N={n}, backward = 2x forward)\n"
        + format_table(
            body,
            headers=[
                "scheme",
                "bubble (paper)",
                "bubble (sim)",
                "activations",
                "weights",
                "convergence",
            ],
        )
    )
