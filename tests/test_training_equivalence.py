"""Integration: pipeline training vs sequential mini-batch SGD.

The paper's convergence-friendliness argument (§2): synchronous pipeline
schemes are algorithmically equivalent to standard mini-batch SGD.
Here that is checked *numerically* — the NumPy transformer trained through
each schedule must land on the same weights as the sequential reference.
The asynchronous schemes must *not* (weight staleness) while still
converging.
"""

import numpy as np
import pytest

from repro.models.reference import SequentialTrainer
from repro.models.transformer import build_transformer_layers
from repro.runtime.optimizers import SGD, Adam, Momentum
from repro.runtime.trainer import PipelineTrainer
from tests.conftest import make_micro_batches

ATOL = 1e-10


def weights_equal(trainer: PipelineTrainer, ref: SequentialTrainer, atol=ATOL):
    for a, b in zip(trainer.full_model_layers(), ref.layers):
        for k in a.params:
            if not np.allclose(a.params[k], b.params[k], atol=atol, rtol=0.0):
                return False
    return True


def max_weight_diff(trainer: PipelineTrainer, ref: SequentialTrainer) -> float:
    return max(
        float(np.abs(a.params[k] - b.params[k]).max())
        for a, b in zip(trainer.full_model_layers(), ref.layers)
        for k in a.params
    )


def run_both(tiny_config, scheme, *, depth=4, n=4, width=1, iters=3,
             opt=lambda: SGD(0.05), **kw):
    trainer = PipelineTrainer(
        tiny_config,
        scheme=scheme,
        depth=depth,
        num_micro_batches=n,
        width=width,
        optimizer_factory=opt,
        **kw,
    )
    ref = SequentialTrainer(build_transformer_layers(tiny_config), opt())
    pipeline_losses, ref_losses = [], []
    for it in range(iters):
        mbs = make_micro_batches(tiny_config, n * width, 2, seed=100 + it)
        pipeline_losses.append(trainer.train_step(mbs))
        ref_losses.append(ref.train_step(mbs))
    return trainer, ref, pipeline_losses, ref_losses


@pytest.mark.parametrize("scheme", ["chimera", "dapple", "gpipe", "gems"])
def test_synchronous_schemes_match_sgd(tiny_config, scheme):
    trainer, ref, lp, ls = run_both(tiny_config, scheme)
    assert lp == pytest.approx(ls, abs=1e-9)
    assert weights_equal(trainer, ref)


@pytest.mark.parametrize("scheme", ["chimera", "dapple"])
def test_synchronous_with_momentum(tiny_config, scheme):
    trainer, ref, _, _ = run_both(
        tiny_config, scheme, opt=lambda: Momentum(0.05, 0.9)
    )
    assert weights_equal(trainer, ref)


def test_chimera_with_adam(tiny_config):
    trainer, ref, _, _ = run_both(tiny_config, "chimera", opt=lambda: Adam(1e-3))
    assert weights_equal(trainer, ref, atol=1e-8)


def test_chimera_data_parallel_width(tiny_config):
    trainer, ref, lp, ls = run_both(tiny_config, "chimera", width=2)
    assert lp == pytest.approx(ls, abs=1e-9)
    assert weights_equal(trainer, ref)
    assert trainer.replicas_in_sync(atol=1e-12)


def test_chimera_recompute_matches_sgd(tiny_config):
    trainer, ref, _, _ = run_both(tiny_config, "chimera", pipeline="recompute")
    assert weights_equal(trainer, ref)


@pytest.mark.parametrize("concat", ["direct", "halving", "doubling"])
def test_chimera_concat_strategies_match_sgd(tiny_config, concat):
    trainer, ref, _, _ = run_both(
        tiny_config, "chimera", n=8, schedule_options={"concat": concat}
    )
    assert weights_equal(trainer, ref)


def test_chimera_two_down_pipelines_match_sgd(tiny_config):
    trainer, ref, _, _ = run_both(
        tiny_config, "chimera", schedule_options={"num_down_pipelines": 2}
    )
    assert weights_equal(trainer, ref)


def test_chimera_underfilled_matches_sgd(tiny_config):
    trainer, ref, _, _ = run_both(tiny_config, "chimera", n=3)
    assert weights_equal(trainer, ref)


def test_replicas_stay_in_sync(tiny_config):
    trainer, _, _, _ = run_both(tiny_config, "chimera", iters=2)
    assert trainer.replicas_in_sync(atol=1e-12)


@pytest.mark.parametrize("scheme", ["pipedream", "pipedream_2bw"])
def test_async_schemes_are_stale_but_converge(tiny_config, scheme):
    trainer = PipelineTrainer(
        tiny_config,
        scheme=scheme,
        depth=4,
        num_micro_batches=4,
        optimizer_factory=lambda: SGD(0.05),
    )
    ref = SequentialTrainer(build_transformer_layers(tiny_config), SGD(0.05))
    losses = []
    for it in range(6):
        mbs = make_micro_batches(tiny_config, 4, 2, seed=it % 3)
        losses.append(trainer.train_step(mbs))
        ref.train_step(mbs)
    assert max_weight_diff(trainer, ref) > 1e-8  # staleness
    assert losses[-1] < losses[0]  # ...but it still learns

    sync = PipelineTrainer(
        tiny_config,
        scheme="chimera",
        depth=4,
        num_micro_batches=4,
        optimizer_factory=lambda: SGD(0.05),
    )
    for it in range(6):
        mbs = make_micro_batches(tiny_config, 4, 2, seed=it % 3)
        sync.train_step(mbs)
    # The synchronous run matches the reference where the async one cannot.
    assert max_weight_diff(sync, ref) < 1e-9


def test_pipedream_weight_version_consistency(tiny_config):
    """PipeDream must run without in-flight weight mutation artifacts: the
    executor stashes forward-time weights for the backward."""
    trainer = PipelineTrainer(
        tiny_config,
        scheme="pipedream",
        depth=4,
        num_micro_batches=8,
        optimizer_factory=lambda: SGD(0.05),
    )
    losses = [
        trainer.train_step(make_micro_batches(tiny_config, 8, 2, seed=s))
        for s in range(3)
    ]
    assert all(np.isfinite(loss) for loss in losses)


def test_pipedream_rejects_width_over_one(tiny_config):
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        PipelineTrainer(
            tiny_config, scheme="pipedream", depth=4, num_micro_batches=4, width=2
        )


def test_trainer_rejects_wrong_micro_batch_count(tiny_config):
    from repro.common.errors import ReproError

    trainer = PipelineTrainer(
        tiny_config, scheme="chimera", depth=4, num_micro_batches=4
    )
    with pytest.raises(ReproError):
        trainer.train_step(make_micro_batches(tiny_config, 3, 2))


# ---------------------------------------------------------------- pass layer
@pytest.mark.parametrize(
    "scheme", ["gpipe", "dapple", "chimera", "zb_v", "zb_vmin"]
)
def test_recompute_pass_bit_identical(tiny_config, scheme):
    """Acceptance (D=2 smoke model): explicit RECOMPUTE ops train to a
    loss bit-identical to the non-recompute path for every scheme kind
    (fused, split, bidirectional backwards)."""
    _, _, plain_losses, _ = run_both(tiny_config, scheme, depth=2, n=4)
    _, _, recompute_losses, _ = run_both(
        tiny_config, scheme, depth=2, n=4, pipeline="recompute"
    )
    assert recompute_losses == plain_losses


@pytest.mark.parametrize("scheme", ["dapple", "zb_v", "pipedream_2bw"])
def test_fused_comm_bit_identical(tiny_config, scheme):
    """Batched transfers (fuse_comm) execute bit-identically to the
    explicit SEND/RECV path and the implicit path."""
    _, _, plain_losses, _ = run_both(tiny_config, scheme, depth=2, n=4)
    _, _, fused_losses, _ = run_both(
        tiny_config, scheme, depth=2, n=4, pipeline="lower_p2p,fuse_comm"
    )
    assert fused_losses == plain_losses


def test_pipedream_recompute_and_fusion_preserve_staleness_semantics(tiny_config):
    """PipeDream reruns rematerialization under the *stashed* weight
    version; recompute + fused paths must reproduce the plain PipeDream
    loss sequence exactly."""
    _, _, plain_losses, _ = run_both(tiny_config, "pipedream", depth=2, n=4)
    _, _, passed_losses, _ = run_both(
        tiny_config,
        "pipedream",
        depth=2,
        n=4,
        pipeline="recompute,lower_p2p,fuse_comm",
    )
    assert passed_losses == plain_losses
