"""Performance modelling, configuration selection, and planning (§3.4).

* :mod:`repro.perf.model` — Equation (1): closed-form critical-path counts
  plus a homogeneous-cost simulation for the communication-overlap term.
* :mod:`repro.perf.planner` — both selection procedures: the paper's
  Chimera-specific §3.4 strategy (greedily pick the largest micro-batch
  size that fits device memory, then use the model to choose the best
  (W, D) split) and the scheme-agnostic generalization (enumerate
  ``(scheme, W, D, B)`` over every registered scheme, prune by the memory
  model against a peak-memory budget, and rank the survivors with the
  contention-aware batched simulation, with schedule passes —
  recomputation, communication fusion — as planning axes), plus the
  batched :func:`~repro.perf.planner.plan_many` entry point behind
  ``repro serve``.
* :mod:`repro.perf.calibration` — build cost/memory models from a machine
  spec and a workload spec (the stand-in for the paper's micro-benchmarks).
"""

from repro.common.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.perf.model": (
            "PerfPrediction",
            "chimera_critical_path",
            "predict_closed_form",
            "predict_iteration_time",
        ),
        "repro.perf.planner": (
            "PlanEntry",
            "PlanOutcome",
            "PlanRequest",
            "format_plan",
            "plan_configurations",
            "plan_many",
            "ConfigCandidate",
            "greedy_micro_batch",
            "select_configuration",
        ),
        "repro.perf.calibration": ("calibrate_cost_model", "calibrate_memory_model"),
    },
)
