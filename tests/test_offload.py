"""Activation offload: differential battery, two-tier memory, training.

The offload pass parks each forward's activation stash in host memory and
prefetches it back before the backward. These tests pin the three claims
the pass rests on:

* **Timing is free when the channel is free.** With no host channel (or a
  zero-cost one) the OFFLOAD/RELOAD ops add no time: every scheme's
  offloaded schedule reproduces the un-offloaded makespan to 1e-9.
* **The kernel is engine-exact on offloaded schedules.** Random host
  channels (both duplex modes) on top of random contended networks run
  through ``simulate_fast`` with no event-engine fallback and match
  :func:`repro.sim.engine.simulate` transfer-for-transfer.
* **Memory really moves tiers.** The device peak drops, the host peak
  appears, and ``MemoryReport.fits`` budgets each tier independently —
  and none of it perturbs bit-identical training.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.schedules.cache import schedule_artifacts
from repro.schedules.registry import available_schemes, build_schedule
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.kernel import kernel_of, simulate_batch_many, simulate_fast
from repro.sim.memory import MemoryModel, analyze_memory
from repro.sim.network import HostChannel, LinkSpec
from tests.test_kernel_contended import (
    ATOL,
    BATTERY,
    alphas,
    assert_results_match,
    betas,
    contended_model,
    cost_units,
    make_topology,
)
from tests.test_training_equivalence import run_both, weights_equal

DEPTH = 4


def offload_artifacts(scheme, depth, n, *, recompute=False, pipeline=()):
    """(schedule, graph) of the offloaded schedule in ``pipeline``'s form."""
    head = ("recompute",) if recompute else ()
    arts = schedule_artifacts(scheme, depth, n, passes=head + ("offload",))
    return arts.schedule_for(pipeline), arts.graph_for(pipeline)


# ------------------------------------------------- zero-cost host channel
@BATTERY
@given(
    scheme=st.sampled_from(available_schemes()),
    n=st.integers(min_value=2, max_value=6),
    f=cost_units,
    b=cost_units,
    w=cost_units,
    recompute=st.booleans(),
    channel=st.sampled_from(["absent", "zero-cost"]),
)
def test_free_host_channel_is_makespan_neutral(
    scheme, n, f, b, w, recompute, channel
):
    """A host channel that costs nothing must cost nothing: the offloaded
    schedule of every scheme lands on the un-offloaded timings to 1e-9."""
    cm = CostModel(
        forward_time=f, backward_input_ratio=b, backward_weight_ratio=w
    )
    if channel == "zero-cost":
        cm = cm.with_(
            host_channel=HostChannel(LinkSpec(alpha=0.0, beta=0.0)),
            offload_message_bytes=4.0,
        )
    base = schedule_artifacts(
        scheme, DEPTH, n, passes=("recompute",) if recompute else ()
    )
    ref = simulate(base.schedule, cm, graph=base.graph_for())
    schedule, graph = offload_artifacts(scheme, DEPTH, n, recompute=recompute)
    got = simulate(schedule, cm, graph=graph)
    assert got.compute_makespan == pytest.approx(
        ref.compute_makespan, abs=ATOL
    )
    assert got.iteration_time == pytest.approx(ref.iteration_time, abs=ATOL)


def test_costed_host_channel_emits_stash_transfers():
    """Sanity anchor for the battery: a *costed* channel does produce
    paired host copies (one d2h + one h2d per offloaded stash)."""
    schedule, graph = offload_artifacts("gpipe", DEPTH, 4)
    cm = CostModel(
        host_channel=HostChannel(LinkSpec(alpha=0.1, beta=0.2)),
        offload_message_bytes=2.0,
    )
    result = simulate(schedule, cm, graph=graph)
    stash = [t for t in result.transfers if t.payload == "stash"]
    assert stash and len(stash) % 2 == 0
    directions = {t.channel[2] for t in stash}
    assert directions == {"d2h", "h2d"}
    assert all(t.duration > 0 for t in stash)


# ------------------------------------------------- kernel vs event engine
@BATTERY
@given(
    scheme=st.sampled_from(available_schemes()),
    n=st.integers(min_value=2, max_value=6),
    f=cost_units,
    b=cost_units,
    w=cost_units,
    h_alpha=alphas,
    h_beta=betas,
    host_duplex=st.sampled_from(["full", "half"]),
    recompute=st.booleans(),
)
# A 1-ulp drift between the simulators once permuted record lists that
# were ordered by float start time; records now sort structurally.
@example(
    scheme="zb_vhalf",
    n=4,
    f=1.0,
    b=2.0,
    w=2.0,
    h_alpha=0.0,
    h_beta=0.4149552015034735,
    host_duplex="half",
    recompute=False,
)
def test_offloaded_implicit_matches_event_engine(
    scheme, n, f, b, w, h_alpha, h_beta, host_duplex, recompute
):
    """Offload on implicit-comm schedules: the host channel is the only
    contended resource, in both duplex modes."""
    schedule, graph = offload_artifacts(scheme, DEPTH, n, recompute=recompute)
    cm = CostModel(
        forward_time=f,
        backward_input_ratio=b,
        backward_weight_ratio=w,
        host_channel=HostChannel(
            LinkSpec(alpha=h_alpha, beta=h_beta), duplex=host_duplex
        ),
        offload_message_bytes=2.0,
    )
    # Nonzero stash occupancy: the kernel's contended path, not a
    # fallback — the batch row must say so and the result must be exact.
    # (Tiny N can leave every stash adjacent to its backward, in which
    # case the pass inserts nothing and the single sweep still applies.)
    offloaded = any(op.is_offload for _, op in schedule.all_ops())
    assert simulate_batch_many(
        [(kernel_of(graph), cm)]
    ).used_fast_path[0] == (not offloaded)
    assert_results_match(
        simulate(schedule, cm, graph=graph),
        simulate_fast(schedule, cm, kernel=kernel_of(graph)),
    )


@BATTERY
@given(
    scheme=st.sampled_from(available_schemes()),
    n=st.integers(min_value=2, max_value=5),
    f=cost_units,
    b=cost_units,
    w=cost_units,
    alpha=alphas,
    beta=betas,
    h_beta=betas,
    topo_kind=st.sampled_from(["flat", "hier"]),
    duplex=st.sampled_from(["full", "half"]),
    host_duplex=st.sampled_from(["full", "half"]),
)
def test_offloaded_lowered_matches_event_engine(
    scheme, n, f, b, w, alpha, beta, h_beta, topo_kind, duplex, host_duplex
):
    """The full mix: explicit SEND/RECV queueing on network channels plus
    stash copies queueing on per-worker host channels."""
    schedule, graph = offload_artifacts(
        scheme, DEPTH, n, pipeline=("lower_p2p",)
    )
    cm = contended_model(
        f, b, w, make_topology(topo_kind, duplex, alpha, beta)
    ).with_(
        host_channel=HostChannel(
            LinkSpec(alpha=0.05, beta=h_beta), duplex=host_duplex
        ),
        offload_message_bytes=2.0,
    )
    assert not simulate_batch_many(
        [(kernel_of(graph), cm)]
    ).used_fast_path[0]
    assert_results_match(
        simulate(schedule, cm, graph=graph),
        simulate_fast(schedule, cm, kernel=kernel_of(graph)),
    )


def test_latency_only_host_channel_keeps_the_single_sweep():
    """A pure-latency channel (beta=0) has zero occupancy: nothing
    queues, so the kernel's closed-form sweep applies and still matches
    the engine — host copies pipeline like alpha-term wire transfers."""
    schedule, graph = offload_artifacts("dapple", DEPTH, 4)
    cm = CostModel(
        host_channel=HostChannel(LinkSpec(alpha=0.3, beta=0.0)),
        offload_message_bytes=2.0,
    )
    assert simulate_batch_many(
        [(kernel_of(graph), cm)]
    ).used_fast_path[0]
    assert_results_match(
        simulate(schedule, cm, graph=graph),
        simulate_fast(schedule, cm, kernel=kernel_of(graph)),
    )


def test_offloaded_batch_rows_are_engine_exact():
    """simulate_batch_many mixes free, latency-only, and contended host
    channels over one offloaded schedule; every row is engine-exact and
    the fast-path telemetry distinguishes them."""
    schedule, graph = offload_artifacts("chimera", DEPTH, 4)
    models = [
        CostModel(),
        CostModel(
            host_channel=HostChannel(LinkSpec(alpha=0.2, beta=0.0)),
            offload_message_bytes=2.0,
        ),
        CostModel(
            host_channel=HostChannel(LinkSpec(alpha=0.1, beta=0.3)),
            offload_message_bytes=2.0,
        ),
        CostModel(
            host_channel=HostChannel(
                LinkSpec(alpha=0.1, beta=0.3), duplex="half"
            ),
            offload_message_bytes=2.0,
        ),
    ]
    batch = simulate_batch_many(
        [(kernel_of(graph), cm) for cm in models]
    )
    assert batch.used_fast_path == (True, True, False, False)
    for k, cm in enumerate(models):
        ref = simulate(schedule, cm, graph=graph)
        assert batch.compute_makespan[k] == pytest.approx(
            ref.compute_makespan, abs=ATOL
        )
        assert batch.iteration_time[k] == pytest.approx(
            ref.iteration_time, abs=ATOL
        )


# ------------------------------------------------------ two-tier memory
class TestTwoTierMemory:
    MODEL = MemoryModel(activation_bytes=1.0, weight_bytes=0.5)

    def reports(self, scheme="gpipe", n=8, passes=()):
        base = analyze_memory(
            build_schedule(scheme, DEPTH, n, passes=passes), self.MODEL
        )
        off = analyze_memory(
            build_schedule(scheme, DEPTH, n, passes=passes + ("offload",)),
            self.MODEL,
        )
        return base, off

    def test_offload_moves_peak_to_the_host_tier(self):
        base, off = self.reports()
        assert base.host_peak_bytes == 0.0
        assert off.host_peak_bytes > 0.0
        assert off.peak_bytes < base.peak_bytes
        # Conservation: bytes moved to the host never exceed what the
        # device held at its un-offloaded peak.
        assert off.host_peak_bytes <= base.peak_bytes

    def test_gpipe_offload_collapses_the_linear_stash(self):
        """GPipe's worker 0 holds all N stashes at once; offloading every
        non-adjacent stash leaves O(1) resident per worker."""
        base, off = self.reports("gpipe", n=8)
        w0_base = base.workers[0]
        w0_off = off.workers[0]
        assert w0_base.activation_peak_units == pytest.approx(8)
        assert w0_off.activation_peak_units <= 2
        assert w0_off.host_peak_bytes >= self.MODEL.activation_bytes * 6

    def test_composes_with_recompute(self):
        """recompute+offload stashes only the stage *input* on the host."""
        _, off = self.reports("dapple", n=8)
        _, both = self.reports("dapple", n=8, passes=("recompute",))
        assert 0.0 < both.host_peak_bytes < off.host_peak_bytes
        assert both.peak_bytes <= off.peak_bytes

    def test_fits_budgets_each_tier_independently(self):
        _, off = self.reports()
        assert off.fits(off.peak_bytes)
        assert off.fits(off.peak_bytes, host_capacity_bytes=off.host_peak_bytes)
        assert not off.fits(
            off.peak_bytes, host_capacity_bytes=off.host_peak_bytes * 0.5
        )
        assert not off.fits(off.peak_bytes * 0.5)
        # None = unlimited host tier (the common case).
        assert off.fits(off.peak_bytes, host_capacity_bytes=None)


# ------------------------------------------------------ training parity
@pytest.mark.parametrize(
    "pipeline",
    [("offload",), ("recompute", "offload"), ("offload", "lower_p2p")],
)
def test_offloaded_training_matches_sgd(tiny_config, pipeline):
    """The executor's host stash round-trips activations bit-identically:
    offloaded pipeline training lands on the sequential SGD weights."""
    trainer, ref, lp, ls = run_both(
        tiny_config, "chimera", depth=2, pipeline=pipeline
    )
    assert "offload" in trainer.pipeline
    assert lp == pytest.approx(ls, abs=1e-9)
    assert weights_equal(trainer, ref)
