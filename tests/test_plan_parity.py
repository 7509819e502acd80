"""Planner parity grid: each request's outcome pinned to recorded digests.

Every request below exercises one branch of the attempt rule — a budget
that needs ``recompute``, offload under a host budget, ``recompute=False``
against a budget nothing fits (the closest-candidate error), a fused
pipeline, a cost-parameterized scheme under a budget, and an
asynchronous scheme. An outcome's digest covers each ranked entry's
label, pipeline, throughput and iteration time (as ``float.hex``), and
peak bytes, plus the error message; any refactor of the prune or rank
steps must leave every digest as recorded.
"""

import hashlib

import pytest

from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48
from repro.common.units import GIB
from repro.perf.planner import PlanOutcome, PlanRequest, plan_many

SYNC = ("gpipe", "dapple", "chimera", "zb_h1")

#: name -> PlanRequest keyword fields (machine is Piz Daint throughout).
REQUESTS = {
    "tight-needs-recompute": dict(
        workload=BERT48, num_workers=8, mini_batch=64, schemes=SYNC,
        memory_budget_bytes=1.5 * GIB, offload=False,
    ),
    "offload-host-budget": dict(
        workload=BERT48, num_workers=8, mini_batch=64, schemes=SYNC,
        memory_budget_bytes=2 * GIB, host_memory_budget_bytes=4 * GIB,
        recompute=False,
    ),
    "nothing-fits-no-recompute": dict(
        workload=BERT48, num_workers=8, mini_batch=64, schemes=SYNC,
        memory_budget_bytes=1.5 * GIB, recompute=False, offload=False,
    ),
    "fused": dict(
        workload=BERT48, num_workers=8, mini_batch=64, schemes=SYNC,
        pipeline="lower_p2p,fuse_comm",
    ),
    "synthesize-budget": dict(
        workload=BERT48, num_workers=4, mini_batch=16,
        schemes=("synthesize",), memory_budget_bytes=3 * GIB,
    ),
    "async-2bw": dict(
        workload=BERT48, num_workers=4, mini_batch=32,
        schemes=("pipedream_2bw",), memory_budget_bytes=4 * GIB,
    ),
}

#: Digests recorded before the attempt rule was resolved once per request.
EXPECTED = {
    "async-2bw": "e5a1b7436830a4e8",
    "fused": "1a13c5eac1fd833c",
    "nothing-fits-no-recompute": "7f263c85487dc2b4",
    "offload-host-budget": "c419b4cb80face15",
    "synthesize-budget": "b4abae6e11cfc04e",
    "tight-needs-recompute": "7fb9a3929ad1c7b2",
}


def outcome_digest(outcome: PlanOutcome) -> str:
    """Digest of everything a caller reads from one outcome."""
    rows = [
        (
            e.label(),
            e.pipeline,
            float.hex(e.throughput),
            float.hex(e.iteration_time),
            float.hex(e.peak_memory_bytes),
            float.hex(e.host_peak_memory_bytes),
        )
        for e in outcome.entries
    ]
    error = str(outcome.error) if outcome.error is not None else None
    return hashlib.sha256(repr((rows, error)).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def outcomes() -> dict[str, PlanOutcome]:
    names = sorted(REQUESTS)
    requests = [PlanRequest(machine=PIZ_DAINT, **REQUESTS[n]) for n in names]
    return dict(zip(names, plan_many(requests, max_workers=1)))


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_outcome_matches_recorded_digest(outcomes, name):
    assert outcome_digest(outcomes[name]) == EXPECTED[name]


def test_grid_covers_each_attempt_branch(outcomes):
    """The grid exercises what its names say, so a digest guards a
    branch rather than an accident of the budget."""
    assert all(e.recompute for e in outcomes["tight-needs-recompute"].entries)
    assert outcomes["tight-needs-recompute"].entries
    assert any(e.offload for e in outcomes["offload-host-budget"].entries)
    assert "closest candidate" in str(outcomes["nothing-fits-no-recompute"].error)
    fused = outcomes["fused"].entries
    assert fused and all(e.pipeline[-2:] == ("lower_p2p", "fuse_comm") for e in fused)
    assert outcomes["synthesize-budget"].entries
    assert outcomes["async-2bw"].entries
