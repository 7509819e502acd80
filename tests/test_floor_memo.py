"""The planner's process-wide device-floor memo.

A grid point's :func:`~repro.sim.memory.device_floor` is a pure function
of its scheme, placement, depth, calibrated memory model and micro-batch
count, so the planner keeps it in a bounded LRU beside the calibrations
it reads. A memoized floor must equal the floor computed afresh, a
scheme re-registered with another placement must get its own floor, an
unhashable model must still be priced, and a repeated request must not
derive a single floor again.
"""

import pathlib
import sys
from dataclasses import replace

import pytest

from repro.bench.harness import ExperimentConfig
from repro.perf import planner
from repro.perf.calibration import CALIBRATION_CACHE_SIZE, calibrate_memory_model
from repro.perf.planner import PlanRequest, candidate_grid, plan_many
from repro.schedules.gpipe import build_gpipe_schedule
from repro.schedules.placement import StagePlacement
from repro.schedules.registry import (
    SchemeTraits,
    register_scheme,
    scheme_traits,
    unregister_scheme,
)
from repro.serve.service import parse_plan_request
from repro.sim.memory import MemoryModel, device_floor

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "benchmarks" / "e2e"))
import streams  # noqa: E402

#: The first ``serve_hot`` payload: piz-daint, bert-48, P=8, dapple and chimera.
HOT = parse_plan_request(streams.hot_payloads()[0])


@pytest.fixture(autouse=True)
def empty_memo():
    planner._placed_floor.cache_clear()
    yield
    planner._placed_floor.cache_clear()


def grid_configs(request: PlanRequest):
    """Every grid point of ``request`` as the planner's prune step sees it."""
    for scheme, width, depth, micro_batch in candidate_grid(
        request.num_workers,
        request.workload,
        request.mini_batch,
        schemes=request.schemes,
        min_depth=request.min_depth,
        max_micro_batch=request.max_micro_batch,
    ):
        yield ExperimentConfig(
            scheme=scheme,
            machine=request.machine,
            workload=request.workload,
            width=width,
            depth=depth,
            micro_batch=micro_batch,
            mini_batch=request.mini_batch,
            memory_budget_bytes=request.memory_budget_bytes,
        )


def fresh_floor(cfg: ExperimentConfig) -> float:
    """The floor derived from scratch, placement first."""
    layout = scheme_traits(cfg.scheme).placement(cfg.depth)
    model = calibrate_memory_model(
        cfg.machine, cfg.workload, depth=layout.num_stages, micro_batch=cfg.micro_batch
    )
    return device_floor(cfg.scheme, layout, model, cfg.num_micro_batches())


@pytest.mark.parametrize(
    "payload",
    streams.hot_payloads() + streams.plan_payloads(),
    ids=[f"hot{k}" for k in range(len(streams.HOT_SET))]
    + [f"plan{k}" for k in range(len(streams.PLAN_STREAM))],
)
def test_memoized_floor_equals_a_fresh_one(payload):
    configs = list(grid_configs(parse_plan_request(payload)))
    assert configs
    for cfg in configs:
        want = fresh_floor(cfg)
        assert planner._device_floor(cfg) == want  # miss
        assert planner._device_floor(cfg) == want  # hit
    assert planner._placed_floor.cache_info().hits >= len(configs)


def test_replaced_placement_gets_its_own_floor():
    cfg = replace(next(grid_configs(HOT)), scheme="floor_twin")
    register_scheme("floor_twin", build_gpipe_schedule, scheme_traits("gpipe"))
    try:
        linear = planner._device_floor(cfg)
        assert linear == fresh_floor(cfg)
        register_scheme(
            "floor_twin",
            build_gpipe_schedule,
            SchemeTraits(placement=StagePlacement.bidirectional),
            replace=True,
        )
        bidirectional = planner._device_floor(cfg)
        assert bidirectional == fresh_floor(cfg)
        assert bidirectional != linear
    finally:
        unregister_scheme("floor_twin")


def test_unhashable_model_is_priced_and_not_stored(monkeypatch):
    cfg = next(grid_configs(HOT))
    model = calibrate_memory_model(
        cfg.machine, cfg.workload, depth=cfg.depth, micro_batch=cfg.micro_batch
    )
    listed = MemoryModel(
        activation_bytes=list(model.activation_bytes),
        stash_input_bytes=model.stash_input_bytes,
        weight_bytes=model.weight_bytes,
        weight_stash_bytes=model.weight_stash_bytes,
    )
    with pytest.raises(TypeError):
        hash(listed)
    monkeypatch.setattr(planner, "calibrate_memory_model", lambda *a, **k: listed)
    assert planner._device_floor(cfg) == fresh_floor(cfg)
    assert planner._placed_floor.cache_info().currsize == 0


def test_memo_is_bounded_by_the_calibration_size():
    info = planner._placed_floor.cache_info()
    assert info.maxsize == CALIBRATION_CACHE_SIZE
    model = MemoryModel()
    for n in range(1, CALIBRATION_CACHE_SIZE + 11):
        planner._placed_floor("gpipe", StagePlacement.linear, 4, model, n)
    assert planner._placed_floor.cache_info().currsize == CALIBRATION_CACHE_SIZE


def test_repeated_request_derives_no_floor(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return device_floor(*args)

    monkeypatch.setattr(planner, "device_floor", counted)
    (first,) = plan_many([HOT], max_workers=1)
    assert calls
    calls.clear()
    (again,) = plan_many([HOT], max_workers=1)
    assert calls == []
    assert again.entries == first.entries
