"""Records on demand: ``simulate_fast`` scalars come from the solve's arrays.

A :func:`repro.sim.kernel.simulate_fast` result takes ``compute_makespan``
and ``iteration_time`` from the kernel's epilogue and builds its per-op
records (``timed``, ``collectives``, ``transfers``) only when one is read.
These tests pin both halves: nothing is built before a read (and nothing
at all on a ``run_configuration`` call), and every scalar the arrays give
equals, with ``==``, the one the records give through the engine's own
finalizer and the record-reading rules the metrics used before.
"""

from statistics import mean

import pytest

from repro.bench import harness
from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48
from repro.schedules.cache import schedule_artifacts
from repro.schedules.ir import OpKind
from repro.schedules.registry import available_schemes
from repro.sim import engine as engine_mod
from repro.sim.cost import CostModel
from repro.sim.kernel import simulate_fast
from repro.sim.metrics import bubble_ratio
from repro.sim.network import HierarchicalTopology, LinkSpec
from tests import reference_collectives

RECORDS = ("timed", "collectives", "transfers")
PIPELINES = {"implicit": (), "lowered": ("lower_p2p",)}


def contended_model(*, duplex: str = "half", slowdown: float = 0.0) -> CostModel:
    """Hierarchical links with nonzero occupancy and costly collectives."""
    return CostModel(
        forward_time=0.7,
        backward_input_ratio=1.3,
        backward_weight_ratio=0.9,
        topology=HierarchicalTopology(
            LinkSpec(0.02, 0.05), LinkSpec(0.05, 0.11), 2, duplex=duplex
        ),
        activation_message_bytes=4.0,
        stage_grad_bytes=7.0,
        data_parallel_width=2,
        sync_launch_overhead=0.01,
        sync_overlap_slowdown=slowdown,
    )


MODELS = {
    "practical": CostModel.practical,
    "contended": contended_model,
}


@pytest.fixture
def built(monkeypatch):
    """Counts of the record objects constructed, by class name."""
    counts = dict.fromkeys(("TimedOp", "TransferRecord", "CollectiveRecord"), 0)
    for name in counts:
        cls = getattr(engine_mod, name)
        init = cls.__init__

        def counting(self, *args, _init=init, _name=name, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def simulate_case(scheme, pipeline, cost_model, *, blocking_sync=False):
    arts = schedule_artifacts(scheme, 4, 4)
    spec = PIPELINES[pipeline]
    return simulate_fast(
        arts.schedule_for(spec),
        cost_model,
        kernel=arts.kernel_for(spec),
        blocking_sync=blocking_sync,
    )


# ------------------------------------------------------- records on demand
@pytest.mark.parametrize("read", RECORDS)
def test_records_are_built_on_first_read(built, read):
    result = simulate_case("chimera", "lowered", contended_model())
    assert result.iteration_time > result.compute_makespan > 0
    assert bubble_ratio(result) > 0
    assert result.sync_spans()
    assert built == dict.fromkeys(built, 0)
    first = getattr(result, read)
    assert built["TimedOp"] == len(result.timed) > 0
    assert built["TransferRecord"] == len(result.transfers) > 0
    assert built["CollectiveRecord"] == len(result.collectives) > 0
    again = dict(built)
    for name in RECORDS:
        assert getattr(result, name) is getattr(result, name)
    assert getattr(result, read) is first
    assert built == again


@pytest.mark.parametrize("scheme", ["chimera", "pipedream", "pipedream_2bw"])
def test_run_configuration_builds_no_record(built, scheme):
    cfg = harness.ExperimentConfig(
        scheme=scheme,
        machine=PIZ_DAINT,
        workload=BERT48,
        width=2,
        depth=4,
        micro_batch=8,
        mini_batch=128,
    )
    result = harness.run_configuration(cfg)
    assert result.throughput > 0
    assert built == dict.fromkeys(built, 0)


# ---------------------------------------------- arrays equal the records
def record_scalars(result, *, blocking_sync: bool) -> tuple[float, float]:
    """``(compute_makespan, iteration_time)`` through the engine's
    finalizer over the result's own records."""
    members: dict[tuple, list] = {}
    launches: dict[tuple, dict] = {}
    for worker, row in enumerate(result.schedule.worker_ops):
        for op in row:
            if op.kind is OpKind.ALLREDUCE:
                key = (op.stage, op.micro_batches)
                members.setdefault(key, []).append((worker, op))
                launches.setdefault(key, {})[worker] = result.timed[op.key()].start
    makespan = max(
        (t.end for t in result.timed.values() if t.op.is_compute), default=0.0
    )
    resolved = (
        {(c.stage, c.micro_batches): (c.start, c.end) for c in result.collectives}
        if blocking_sync
        else None
    )
    _, makespan, iteration = reference_collectives.finalize(
        result.schedule,
        result.cost_model,
        result.timed,
        members,
        launches,
        list(result.transfers),
        blocking_sync=blocking_sync,
        compute_makespan=makespan,
        resolved=resolved,
    )
    return makespan, iteration


def record_bubble_ratio(result, *, steady_state: bool) -> float:
    """The bubble ratio as read from ``TimedOp`` records."""
    ratios = []
    for worker in range(result.schedule.num_workers):
        timed = result.timed_ops_on(worker)
        busy = sum(t.duration for t in timed)
        if steady_state:
            if not timed:
                continue
            span = timed[-1].end - timed[0].start
        else:
            span = result.compute_makespan
        if span <= 0:
            continue
        ratios.append(max(0.0, 1.0 - busy / span))
    return mean(ratios) if ratios else 0.0


def record_sync_per_worker(result, depth: int) -> list[float]:
    """Per-worker collective seconds as read from the collective records."""
    sync = [0.0] * depth
    for record in result.collectives:
        for w in record.workers:
            sync[w] += record.cost
    return sync


def assert_arrays_equal_records(result, *, blocking_sync=False):
    makespan, iteration = result.compute_makespan, result.iteration_time
    spans = result.sync_spans()
    sync = harness._sync_per_worker(result, result.schedule.num_workers)
    ratios = [bubble_ratio(result, steady_state=s) for s in (False, True)]
    assert (makespan, iteration) == record_scalars(result, blocking_sync=blocking_sync)
    assert ratios == [
        record_bubble_ratio(result, steady_state=s) for s in (False, True)
    ]
    assert spans == [
        (c.stage, c.micro_batches, c.workers, c.start, c.end)
        for c in result.collectives
    ]
    assert sync == record_sync_per_worker(result, result.schedule.num_workers)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("scheme", available_schemes())
def test_array_scalars_equal_record_scalars(scheme, pipeline, model):
    assert_arrays_equal_records(simulate_case(scheme, pipeline, MODELS[model]()))


@pytest.mark.parametrize("duplex", ["full", "half"])
@pytest.mark.parametrize("pipeline", PIPELINES)
def test_blocking_pipedream_scalars_equal_record_scalars(pipeline, duplex):
    result = simulate_case(
        "pipedream", pipeline, contended_model(duplex=duplex), blocking_sync=True
    )
    assert result.collectives
    assert_arrays_equal_records(result, blocking_sync=True)


@pytest.mark.parametrize("duplex", ["full", "half"])
@pytest.mark.parametrize("scheme", ["chimera", "pipedream"])
def test_overlap_slowdown_scalars_equal_record_scalars(scheme, duplex):
    """Non-blocking collectives that overlap compute and slow it down."""
    model = contended_model(duplex=duplex, slowdown=0.4)
    result = simulate_case(scheme, "lowered", model)
    slow_free = simulate_case(
        scheme, "lowered", model.with_(sync_overlap_slowdown=0.0)
    )
    assert result.compute_makespan > slow_free.compute_makespan
    assert_arrays_equal_records(result)
