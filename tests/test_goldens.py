"""Golden ASCII-Gantt snapshots: schedule-shape regressions fail loudly.

One checked-in rendering per registered scheme at a fixed small
configuration (D=4 workers, N=4 micro-batches, practical cost model,
implicit communication), plus pass-pipeline variants — a recomputed
schedule (explicit RECOMPUTE ops in the rows), a fused-communication
schedule (batched transfers on a finite link, comm lanes visible), and a
contended lowered schedule (nonzero-beta link, transfers queueing on
per-channel FIFOs — the kernel's serialization path is what times these
lanes). Any
change to a builder's op order, to the greedy or stable-pattern
placement, to a pass's insertion rules, or to the simulator's timing of
these shapes shows up as a golden diff instead of a silent throughput
shift.

To regenerate after an *intended* schedule change::

    REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_goldens.py

then review the diff like any other code change.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.schedules.registry import available_schemes, build_schedule
from repro.sim.cost import CostModel
from repro.sim.gantt import render_gantt
from repro.sim.network import FlatTopology, HostChannel, LinkSpec

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
DEPTH, MICRO_BATCHES = 4, 4


def rendered(scheme: str) -> str:
    schedule = build_schedule(scheme, DEPTH, MICRO_BATCHES)
    return render_gantt(schedule, cost_model=CostModel.practical()) + "\n"


def _rendered_recompute() -> str:
    schedule = build_schedule("dapple", DEPTH, MICRO_BATCHES, passes="recompute")
    return render_gantt(schedule, cost_model=CostModel.practical()) + "\n"


def _rendered_fused() -> str:
    schedule = build_schedule(
        "dapple", DEPTH, MICRO_BATCHES, passes="lower_p2p,fuse_comm"
    )
    cost = CostModel.practical().with_(
        topology=FlatTopology(LinkSpec(alpha=0.25, beta=0.25)),
        activation_message_bytes=1.0,
    )
    return render_gantt(schedule, cost_model=cost) + "\n"


def _rendered_contended() -> str:
    schedule = build_schedule("dapple", DEPTH, MICRO_BATCHES, passes="lower_p2p")
    cost = CostModel.practical().with_(
        topology=FlatTopology(LinkSpec(alpha=0.25, beta=0.5)),
        activation_message_bytes=2.0,
    )
    return render_gantt(schedule, cost_model=cost) + "\n"


def _rendered_offload() -> str:
    """Offloaded + lowered: host-channel lanes (``P0~``) next to the wire
    lanes, stash copies queueing on the per-worker PCIe channel."""
    schedule = build_schedule(
        "dapple", DEPTH, MICRO_BATCHES, passes="offload,lower_p2p"
    )
    cost = CostModel.practical().with_(
        topology=FlatTopology(LinkSpec(alpha=0.25, beta=0.25)),
        activation_message_bytes=1.0,
        host_channel=HostChannel(LinkSpec(alpha=0.25, beta=0.5)),
        offload_message_bytes=1.0,
    )
    return render_gantt(schedule, cost_model=cost) + "\n"


#: Pass-pipeline golden variants: name -> renderer.
VARIANTS = {
    "dapple_recompute": _rendered_recompute,
    "dapple_fused": _rendered_fused,
    "dapple_contended": _rendered_contended,
    "dapple_offload": _rendered_offload,
}


@pytest.mark.parametrize("scheme", available_schemes())
def test_gantt_matches_golden(scheme):
    path = GOLDEN_DIR / f"gantt_{scheme}.txt"
    actual = rendered(scheme)
    if os.environ.get("REGEN_GOLDENS"):
        path.write_text(actual)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden {path}; generate it with REGEN_GOLDENS=1 "
        f"PYTHONPATH=src python -m pytest tests/test_goldens.py"
    )
    expected = path.read_text()
    assert actual == expected, (
        f"{scheme} Gantt drifted from {path.name} (D={DEPTH}, "
        f"N={MICRO_BATCHES}, practical cost model). If the schedule change "
        f"is intended, regenerate with REGEN_GOLDENS=1 and review the diff."
    )


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_gantt_matches_golden(name):
    path = GOLDEN_DIR / f"gantt_{name}.txt"
    actual = VARIANTS[name]()
    if os.environ.get("REGEN_GOLDENS"):
        path.write_text(actual)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden {path}; generate it with REGEN_GOLDENS=1 "
        f"PYTHONPATH=src python -m pytest tests/test_goldens.py"
    )
    assert actual == path.read_text(), (
        f"{name} Gantt drifted from {path.name}. If the pass-pipeline "
        f"change is intended, regenerate with REGEN_GOLDENS=1 and review "
        f"the diff."
    )


def test_no_stale_goldens():
    """Every checked-in golden corresponds to a scheme or a pass variant."""
    expected = {f"gantt_{s}.txt" for s in available_schemes()}
    expected |= {f"gantt_{v}.txt" for v in VARIANTS}
    actual = {p.name for p in GOLDEN_DIR.glob("gantt_*.txt")}
    assert actual == expected
