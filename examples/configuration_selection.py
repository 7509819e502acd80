#!/usr/bin/env python
"""Configuration selection, from the §3.4 model to the memory-budget planner.

Part 1 reproduces the Figure 13 workflow through the *planner* API:
Chimera's greedy candidates — the largest micro-batch that fits memory for
each (W, D) split — are re-simulated by the scheme-agnostic planner, and
the script asserts the §3.4 narrative still holds: the Equation (1) model
predicts each candidate's simulated throughput within 10% and ranks the
candidates in the same order, so the model's pick *is* the simulated best.

Part 2 shows what the planner adds beyond Figure 13: the full registry
searched under shrinking peak-memory budgets, where the winner migrates to
the memory-controllable zero-bubble schedules as the budget tightens.

Run:  python examples/configuration_selection.py
"""

from repro import plan_configurations, select_configuration
from repro.bench import BERT48, PIZ_DAINT
from repro.common.units import GIB


def figure13_narrative() -> None:
    """Model-guided selection agrees with simulated practice (Figure 13)."""
    num_workers, mini_batch = 32, 256
    ranked = select_configuration(
        PIZ_DAINT, BERT48, num_workers=num_workers, mini_batch=mini_batch
    )
    planned = plan_configurations(
        PIZ_DAINT,
        BERT48,
        num_workers=num_workers,
        mini_batch=mini_batch,
        schemes=("chimera",),
        pipeline=(),  # the §3.4 model assumes implicit p2p communication
    )
    simulated = {
        (e.width, e.depth, e.micro_batch, e.recompute): e for e in planned
    }
    print(f"{BERT48.describe()}")
    print(f"P = {num_workers} workers, B̂ = {mini_batch} (Figure 13 scenario)")
    print(f"{'configuration':<26}{'model seq/s':>12}{'sim seq/s':>12}{'error':>8}")
    sim_rates = []
    for cand in ranked:
        entry = simulated[(cand.width, cand.depth, cand.micro_batch, cand.recompute)]
        error = abs(cand.predicted_throughput - entry.throughput) / entry.throughput
        assert error < 0.10, f"model error {error:.1%} exceeds the paper's 10%"
        sim_rates.append(entry.throughput)
        print(
            f"{cand.label():<26}{cand.predicted_throughput:>12.1f}"
            f"{entry.throughput:>12.1f}{error:>7.1%}"
        )
    # The model ranks the greedy candidates exactly as the simulation does,
    # so its top pick is the simulated best — the Figure 13 conclusion.
    assert sim_rates == sorted(sim_rates, reverse=True), (
        "model ranking diverged from simulated practice"
    )
    print("model ranking == simulated ranking  <- Figure 13 reproduced\n")


def budget_search() -> None:
    """The planner's new axis: every scheme, shrinking memory budgets."""
    schemes = ("dapple", "chimera", "zb_h1", "zb_v", "zb_vhalf", "zb_vmin")
    print("Scheme-agnostic search, Bert-48, P=16, B̂=128 on Piz Daint")
    print(f"{'budget':<12}{'best configuration':<34}{'seq/s':>8}{'peak GiB':>10}")
    for budget_gib in (None, 6.0, 3.0, 2.0):
        entries = plan_configurations(
            PIZ_DAINT,
            BERT48,
            num_workers=16,
            mini_batch=128,
            memory_budget_bytes=budget_gib * GIB if budget_gib else None,
            schemes=schemes,
        )
        best = entries[0]
        label = "device" if budget_gib is None else f"{budget_gib:g} GiB"
        print(
            f"{label:<12}{best.label():<34}{best.throughput:>8.1f}"
            f"{best.peak_memory_bytes / GIB:>10.2f}"
        )
    print()


def main() -> None:
    figure13_narrative()
    budget_search()


if __name__ == "__main__":
    main()
