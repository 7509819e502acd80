"""One driver per table/figure of the paper's evaluation (§4).

Every module exposes ``run(fast=True) -> str`` returning the reproduced
rows/series as a formatted table (printed by the corresponding
``benchmarks/bench_*.py`` target) plus, where applicable, structured data
for the assertions in the test suite. ``fast=True`` trims sweep sizes so
the full suite stays interactive; the shapes are identical.
"""

from repro.common.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {},
    submodules=(
        "figure1",
        "figure9",
        "figure10",
        "figure11",
        "figure12",
        "figure13",
        "figure14",
        "figure15",
        "figure16",
        "figure17",
        "figure18",
        "figure19",
        "planner_table",
        "table2",
        "table3",
        "table4",
        "zero_bubble_table",
    ),
)
