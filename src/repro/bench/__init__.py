"""Benchmark harness: machine models, workload specs, experiment drivers.

One module per evaluated table/figure of the paper lives in
:mod:`repro.bench.experiments`; the pytest-benchmark entry points in the
top-level ``benchmarks/`` directory call into these drivers and print the
reproduced rows.
"""

from repro.common.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bench.machines": ("MachineSpec", "PIZ_DAINT", "V100_CLUSTER"),
        "repro.bench.workloads": ("TransformerSpec", "BERT48", "GPT2_64", "GPT2_32"),
        "repro.bench.harness": (
            "ExperimentConfig",
            "ExperimentResult",
            "run_configuration",
            "sweep",
            "format_table",
        ),
        "repro.bench.perfsuite": ("check_against", "run_suite", "suite_cases"),
    },
)
