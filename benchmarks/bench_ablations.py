"""Ablations of the design choices DESIGN.md calls out.

1. Allreduce algorithm choice in the cost model (Rabenseifner vs ring vs
   recursive doubling) — §3.4 argues Rabenseifner for large models.
2. Greedy max-B selection vs an exhaustive B sweep — §3.4 argues the
   greedy choice is safe for Chimera because bubbles are already low.
3. Backward/forward cost ratio (2x vs 3x-with-recompute) effect on the
   bubble ratio — the §2 accounting.
4. Sync strategy (lazy / eager / eager-opt) across depths.
"""

from benchmarks.conftest import run_and_print
from repro.bench.harness import ExperimentConfig, format_table, run_configuration
from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48
from repro.perf.calibration import calibrate_cost_model
from repro.perf.planner import greedy_micro_batch
from repro.schedules.chimera import build_chimera_schedule
from repro.sim.cost import CostModel
from repro.sim.kernel import simulate_fast
from repro.sim.metrics import bubble_ratio


def _allreduce_ablation(fast: bool) -> str:
    rows = []
    for algo in ("rabenseifner", "ring", "recursive_doubling"):
        cost = calibrate_cost_model(
            PIZ_DAINT,
            BERT48,
            depth=4,
            micro_batch=8,
            data_parallel_width=8,
            allreduce_algorithm=algo,
        )
        result = simulate_fast(build_chimera_schedule(4, 8), cost)
        rows.append([algo, f"{result.iteration_time:.3f}s", f"{result.sync_tail():.3f}s"])
    return "Allreduce algorithm ablation (Bert-48, W=8, D=4, B=8)\n" + format_table(
        rows, headers=["algorithm", "iteration", "sync tail"]
    )


def test_ablation_allreduce_algorithm(benchmark, fast_mode, report):
    run_and_print(benchmark, lambda fast: _allreduce_ablation(fast), fast_mode, report)


def _greedy_vs_sweep(fast: bool) -> str:
    """Is the paper's greedy max-B policy ever beaten by a smaller B?"""
    width, depth, mini_batch = 8, 4, 512
    picked = greedy_micro_batch(
        PIZ_DAINT, BERT48, width=width, depth=depth, mini_batch=mini_batch
    )
    assert picked is not None
    rows = []
    best_b, best_thr = None, 0.0
    b = 1
    while width * b <= mini_batch:
        if mini_batch % (width * b) == 0:
            r = run_configuration(
                ExperimentConfig(
                    scheme="chimera",
                    machine=PIZ_DAINT,
                    workload=BERT48,
                    width=width,
                    depth=depth,
                    micro_batch=b,
                    mini_batch=mini_batch,
                )
            )
            thr = 0.0 if r.oom else r.throughput
            rows.append([b, "OOM" if r.oom else f"{thr:.1f}", "<- greedy" if b == picked[0] else ""])
            if thr > best_thr:
                best_b, best_thr = b, thr
        b *= 2
    rows.append(["best", best_b, f"greedy picked {picked[0]}"])
    return "Greedy max-B vs exhaustive sweep (Chimera, W=8, D=4)\n" + format_table(
        rows, headers=["B", "seq/s", ""]
    )


def test_ablation_greedy_micro_batch(benchmark, fast_mode, report):
    run_and_print(benchmark, lambda fast: _greedy_vs_sweep(fast), fast_mode, report)


def _backward_ratio_ablation(fast: bool) -> str:
    rows = []
    for ratio, label in ((1.0, "B = F (ideal)"), (2.0, "B = 2F"), (3.0, "B = 3F (recompute)")):
        cost = CostModel(forward_time=1.0, backward_ratio=ratio)
        result = simulate_fast(build_chimera_schedule(8, 8), cost)
        rows.append([label, f"{bubble_ratio(result):.3f}"])
    return "Backward/forward ratio vs Chimera bubble ratio (D=N=8)\n" + format_table(
        rows, headers=["workload model", "bubble ratio"]
    )


def test_ablation_backward_ratio(benchmark, fast_mode, report):
    run_and_print(benchmark, lambda fast: _backward_ratio_ablation(fast), fast_mode, report)


def _sync_mode_ablation(fast: bool) -> str:
    rows = []
    for depth in (4, 8, 16):
        cost = calibrate_cost_model(
            PIZ_DAINT, BERT48, depth=depth, micro_batch=2,
            data_parallel_width=32 // depth if depth <= 16 else 1,
        )
        times = {}
        for mode in ("lazy", "eager", "eager_opt"):
            result = simulate_fast(
                build_chimera_schedule(depth, depth, sync_mode=mode), cost
            )
            times[mode] = result.iteration_time
        rows.append(
            [f"D={depth}"]
            + [f"{times[m]:.3f}s" for m in ("lazy", "eager", "eager_opt")]
        )
    return "Sync strategy ablation (Bert-48)\n" + format_table(
        rows, headers=["depth", "lazy", "eager", "eager_opt"]
    )


def test_ablation_sync_modes(benchmark, fast_mode, report):
    run_and_print(benchmark, lambda fast: _sync_mode_ablation(fast), fast_mode, report)
