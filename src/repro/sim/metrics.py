"""Iteration-level metrics derived from simulation results.

Definitions follow the paper: the *bubble ratio* is "the bubble overhead
divided by the overall runtime of the pipeline" (§2). For asynchronous
schemes (no flush) we report the steady-state ratio measured inside each
worker's own active window, since fill/drain amortize over the infinite
schedule.
"""

from __future__ import annotations

from statistics import mean

from repro.sim.engine import SimulationResult


def worker_busy_times(result: SimulationResult) -> list[float]:
    """Compute-busy seconds per worker."""
    return [result.busy_time(w) for w in range(result.schedule.num_workers)]


def bubble_ratio(result: SimulationResult, *, steady_state: bool | None = None) -> float:
    """Mean fraction of compute time the workers sit idle.

    ``steady_state`` defaults to True for asynchronous schedules (PipeDream
    family): the idle fraction is measured within each worker's
    [first-start, last-end] window. Synchronous schedules measure against
    the full compute makespan (pipeline flush at the end of the iteration).
    Reads the result's per-op times (:meth:`SimulationResult.busy_time`,
    :meth:`SimulationResult.compute_window`), never its records.
    """
    schedule = result.schedule
    if steady_state is None:
        steady_state = not schedule.synchronous
    ratios: list[float] = []
    for worker in range(schedule.num_workers):
        busy = result.busy_time(worker)
        if steady_state:
            window = result.compute_window(worker)
            if window is None:
                continue
            span = window[1] - window[0]
        else:
            span = result.compute_makespan
        if span <= 0:
            continue
        ratios.append(max(0.0, 1.0 - busy / span))
    return mean(ratios) if ratios else 0.0


def throughput_samples_per_sec(
    result: SimulationResult, *, micro_batch_size: int, data_parallel_width: int = 1
) -> float:
    """End-to-end training throughput in samples (sequences) per second.

    One simulated iteration covers ``N`` micro-batches of ``B`` samples per
    pipeline group, replicated over ``W`` groups: ``B̂ = B * N * W`` samples
    per ``iteration_time`` seconds.
    """
    samples = (
        result.schedule.num_micro_batches
        * micro_batch_size
        * data_parallel_width
    )
    if result.iteration_time <= 0:
        return float("inf")
    return samples / result.iteration_time


def parallel_efficiency(
    base_throughput: float, base_workers: int, throughput: float, workers: int
) -> float:
    """Weak-scaling efficiency relative to a baseline configuration."""
    if base_throughput <= 0 or workers <= 0:
        return 0.0
    ideal = base_throughput * (workers / base_workers)
    return throughput / ideal
