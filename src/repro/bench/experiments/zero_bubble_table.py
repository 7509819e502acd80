"""Zero-bubble comparison: ZB-H1 / ZB-V vs the paper's synchronous schemes.

Not a figure from the Chimera paper — this table positions Chimera against
the strongest modern synchronous baseline [Qi et al., "Zero Bubble Pipeline
Parallelism"]. For a sweep of (D, N) shapes it reports each scheme's
simulated bubble ratio and activation peak under the practical cost model
(``B = 2F``, split ``b = w = F``), the head-to-head makespan gain of the
zero-bubble schedules over DAPPLE, and Chimera's position between them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import format_table
from repro.schedules.registry import build_schedule
from repro.sim.cost import CostModel
from repro.sim.kernel import simulate_fast
from repro.sim.memory import MemoryModel, analyze_memory
from repro.sim.metrics import bubble_ratio

#: Synchronous schemes compared, in presentation order. The
#: memory-controllable variants close the table: same V placement as
#: ZB-V, progressively smaller activation peaks, longer ramps.
SCHEMES = ("dapple", "chimera", "zb_h1", "zb_v", "zb_vhalf", "zb_vmin")


@dataclass(frozen=True)
class ZeroBubbleRow:
    depth: int
    n: int
    scheme: str
    bubble: float
    makespan: float
    speedup_vs_dapple: float
    act_units_max: float


def rows(shapes: list[tuple[int, int]]) -> list[ZeroBubbleRow]:
    out: list[ZeroBubbleRow] = []
    for depth, n in shapes:
        baseline = simulate_fast(
            build_schedule("dapple", depth, n), CostModel.practical()
        )
        for scheme in SCHEMES:
            schedule = build_schedule(scheme, depth, n)
            # ZB-V splits the same model into 2D chunks over D workers, so
            # one chunk carries depth/num_stages of a stage's compute and
            # activations; scaling keeps total model work and memory
            # identical across rows (fair head-to-head makespans).
            scale = depth / schedule.num_stages
            result = simulate_fast(
                schedule, CostModel.practical().with_(forward_time=scale)
            )
            report = analyze_memory(
                schedule, MemoryModel(activation_bytes=scale)
            )
            out.append(
                ZeroBubbleRow(
                    depth=depth,
                    n=n,
                    scheme=scheme,
                    bubble=bubble_ratio(result),
                    makespan=result.compute_makespan,
                    speedup_vs_dapple=(
                        baseline.compute_makespan / result.compute_makespan
                    ),
                    act_units_max=max(
                        w.activation_peak_bytes for w in report.workers
                    ),
                )
            )
    return out


def run(fast: bool = True) -> str:
    shapes = [(4, 8), (8, 8), (8, 16)] if fast else [(8, 16), (8, 32), (16, 32), (16, 64)]
    body = [
        [
            f"D={r.depth}, N={r.n}",
            r.scheme,
            f"{r.bubble:.3f}",
            f"{r.makespan:g}",
            f"{r.speedup_vs_dapple:.3f}x",
            f"{r.act_units_max:g} Ma",
        ]
        for r in rows(shapes)
    ]
    return (
        "Zero-bubble family vs synchronous baselines "
        "(practical model, b = w = F)\n"
        + format_table(
            body,
            headers=[
                "shape",
                "scheme",
                "bubble",
                "makespan",
                "vs dapple",
                "peak act",
            ],
        )
    )
