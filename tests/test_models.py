"""NumPy model layers: gradient checks against finite differences."""

import numpy as np
import pytest

from repro.models import functional as Fn
from repro.models.attention import CausalSelfAttention
from repro.models.layers import GELU, Embedding, LayerNorm, Linear, Sequential
from repro.models.loss import softmax_cross_entropy
from repro.models.transformer import (
    LMHead,
    TransformerBlock,
    TransformerLMConfig,
    build_transformer_layers,
    partition_layers,
)
from repro.runtime.optimizers import SGD
from tests.conftest import numeric_grad

RNG = np.random.default_rng(42)


def check_input_grad(layer, x, atol=1e-6):
    """Backward dx must match the finite-difference gradient of sum(y)."""
    y, cache = layer.forward(x)
    dy = np.ones_like(y)
    layer.zero_grads()
    dx = layer.backward(dy, cache)

    def loss():
        out, _ = layer.forward(x)
        return float(out.sum())

    expected = numeric_grad(loss, x)
    np.testing.assert_allclose(dx, expected, atol=atol)


def check_param_grads(layer, x, atol=1e-5):
    y, cache = layer.forward(x)
    layer.zero_grads()
    layer.backward(np.ones_like(y), cache)
    for name, param in layer.params.items():
        def loss():
            out, _ = layer.forward(x)
            return float(out.sum())

        expected = numeric_grad(loss, param)
        np.testing.assert_allclose(
            layer.grads[name], expected, atol=atol, err_msg=name
        )


def _composite(kind):
    rng = np.random.default_rng(5)
    if kind == "attention":
        return CausalSelfAttention(4, 2, rng=rng)
    if kind == "block":
        return TransformerBlock(4, 2, mlp_ratio=2, rng=rng)
    if kind == "head":
        return LMHead(4, 7, rng=rng)
    return Sequential([Linear(4, 3, rng=rng), GELU(), LayerNorm(3)])


def _child(layer, name):
    if isinstance(layer, Sequential):
        return layer.layers[int(name)]
    return getattr(layer, name)


ATTN_KEYS = ["qkv.W", "qkv.b", "proj.W", "proj.b"]
COMPOSITE_KEYS = {
    "attention": ATTN_KEYS,
    "block": ["ln1.gamma", "ln1.beta"]
    + [f"attn.{k}" for k in ATTN_KEYS]
    + ["ln2.gamma", "ln2.beta", "fc1.W", "fc1.b", "fc2.W", "fc2.b"],
    "head": ["ln.gamma", "ln.beta", "out.W", "out.b"],
    "sequential": ["0.W", "0.b", "2.gamma", "2.beta"],
}


@pytest.mark.parametrize("kind", sorted(COMPOSITE_KEYS))
def test_composite_parameter_views(kind):
    """A composite's params/grads are its children's arrays, in child order."""
    layer = _composite(kind)
    assert list(layer.params) == COMPOSITE_KEYS[kind]
    assert list(layer.grads) == COMPOSITE_KEYS[kind]
    for key in COMPOSITE_KEYS[kind]:
        name, rest = key.split(".", 1)
        child = _child(layer, name)
        assert layer.params[key] is child.params[rest]
        assert layer.grads[key] is child.grads[rest]

    for key in COMPOSITE_KEYS[kind]:
        name, rest = key.split(".", 1)
        _child(layer, name).grads[rest][...] = 1.0
    layer.zero_grads()
    assert all(not g.any() for g in layer.grads.values())

    rng = np.random.default_rng(6)
    grads = {}
    for key, g in layer.grads.items():
        g[...] = rng.standard_normal(g.shape)
        grads[key] = g.copy()
    before = {key: p.copy() for key, p in layer.params.items()}
    SGD(0.1).step([layer])
    for key in COMPOSITE_KEYS[kind]:
        name, rest = key.split(".", 1)
        np.testing.assert_array_equal(
            _child(layer, name).params[rest], before[key] - 0.1 * grads[key]
        )


class TestFunctional:
    def test_gelu_matches_reference_points(self):
        y, _ = Fn.gelu(np.array([0.0]))
        assert y[0] == pytest.approx(0.0)
        y, _ = Fn.gelu(np.array([10.0]))
        assert y[0] == pytest.approx(10.0, rel=1e-4)

    def test_gelu_gradient(self):
        x = RNG.standard_normal(7)
        _, cache = Fn.gelu(x)
        dx = Fn.gelu_backward(np.ones(7), cache)

        def loss():
            return float(Fn.gelu(x)[0].sum())

        np.testing.assert_allclose(dx, numeric_grad(loss, x), atol=1e-6)

    def test_softmax_rows_sum_to_one(self):
        y = Fn.softmax(RNG.standard_normal((3, 9)))
        np.testing.assert_allclose(y.sum(axis=-1), 1.0)

    def test_softmax_shift_invariance(self):
        x = RNG.standard_normal((2, 5))
        np.testing.assert_allclose(Fn.softmax(x), Fn.softmax(x + 1000.0))

    def test_layernorm_normalizes(self):
        x = RNG.standard_normal((4, 8)) * 5 + 3
        y, _ = Fn.layernorm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(y.mean(-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(-1), 1.0, atol=1e-4)


class TestLayers:
    def test_linear_input_grad(self):
        check_input_grad(Linear(5, 3, rng=RNG), RNG.standard_normal((2, 4, 5)))

    def test_linear_param_grads(self):
        check_param_grads(Linear(4, 3, rng=RNG), RNG.standard_normal((2, 3, 4)))

    def test_layernorm_grads(self):
        layer = LayerNorm(6)
        x = RNG.standard_normal((2, 3, 6))
        check_input_grad(layer, x, atol=1e-5)
        check_param_grads(layer, x)

    def test_gelu_layer_grad(self):
        check_input_grad(GELU(), RNG.standard_normal((2, 3, 4)))

    def test_embedding_param_grads(self):
        layer = Embedding(11, 6, 4, rng=RNG)
        tokens = RNG.integers(0, 11, (2, 5))
        y, cache = layer.forward(tokens)
        layer.zero_grads()
        layer.backward(np.ones_like(y), cache)

        def loss():
            out, _ = layer.forward(tokens)
            return float(out.sum())

        for name in ("tok", "pos"):
            expected = numeric_grad(loss, layer.params[name])
            np.testing.assert_allclose(layer.grads[name], expected, atol=1e-5)

    def test_sequential_composition(self):
        seq = Sequential([Linear(4, 4, rng=RNG), GELU(), Linear(4, 2, rng=RNG)])
        check_input_grad(seq, RNG.standard_normal((3, 4)))
        assert len(seq.params) == 4  # two Linears x (W, b)

    def test_attention_input_grad(self):
        layer = CausalSelfAttention(8, 2, rng=RNG)
        check_input_grad(layer, RNG.standard_normal((2, 4, 8)), atol=1e-5)

    def test_attention_param_grads(self):
        layer = CausalSelfAttention(4, 2, rng=RNG)
        check_param_grads(layer, RNG.standard_normal((1, 3, 4)), atol=1e-5)

    def test_attention_is_causal(self):
        """Changing a later token must not affect earlier outputs."""
        layer = CausalSelfAttention(8, 2, rng=RNG)
        x = RNG.standard_normal((1, 5, 8))
        y1, _ = layer.forward(x)
        x2 = x.copy()
        x2[0, 4] += 10.0
        y2, _ = layer.forward(x2)
        np.testing.assert_allclose(y1[0, :4], y2[0, :4])

    def test_attention_dim_heads_mismatch(self):
        with pytest.raises(ValueError):
            CausalSelfAttention(7, 2, rng=RNG)

    def test_block_grads(self):
        block = TransformerBlock(8, 2, rng=RNG)
        check_input_grad(block, RNG.standard_normal((1, 3, 8)), atol=1e-5)

    def test_lmhead_grads(self):
        head = LMHead(6, 9, rng=RNG)
        check_input_grad(head, RNG.standard_normal((1, 3, 6)), atol=1e-5)

    def test_row_sliced_backward_composes(self):
        """Backward over two row halves must equal one full backward."""
        layer = Linear(5, 4, rng=RNG)
        x = RNG.standard_normal((4, 5))
        y, cache = layer.forward(x)
        dy = RNG.standard_normal(y.shape)

        layer.zero_grads()
        full_dx = layer.backward(dy, cache)
        full_grads = {k: v.copy() for k, v in layer.grads.items()}

        layer.zero_grads()
        dx0 = layer.backward(dy[:2], cache, row_slice=slice(0, 2))
        dx1 = layer.backward(dy[2:], cache, row_slice=slice(2, 4))
        np.testing.assert_allclose(np.concatenate([dx0, dx1]), full_dx)
        for k in full_grads:
            np.testing.assert_allclose(layer.grads[k], full_grads[k], atol=1e-12)


class TestLoss:
    def test_matches_numeric_gradient(self):
        logits = RNG.standard_normal((2, 3, 7))
        targets = RNG.integers(0, 7, (2, 3))
        _, dlogits = softmax_cross_entropy(logits, targets)

        def loss():
            value, _ = softmax_cross_entropy(logits, targets)
            return value

        np.testing.assert_allclose(
            dlogits, numeric_grad(loss, logits), atol=1e-6
        )

    def test_perfect_prediction_low_loss(self):
        targets = np.array([[1, 2]])
        logits = np.full((1, 2, 4), -100.0)
        logits[0, 0, 1] = 100.0
        logits[0, 1, 2] = 100.0
        loss, _ = softmax_cross_entropy(logits, targets)
        assert loss < 1e-6

    def test_uniform_logits_log_vocab(self):
        loss, _ = softmax_cross_entropy(
            np.zeros((2, 3, 8)), RNG.integers(0, 8, (2, 3))
        )
        assert loss == pytest.approx(np.log(8))


class TestAssembly:
    def test_build_layers_deterministic(self):
        cfg = TransformerLMConfig(num_layers=2, dim=8, heads=2, vocab=11, seq=4)
        a = build_transformer_layers(cfg)
        b = build_transformer_layers(cfg)
        for la, lb in zip(a, b):
            for k in la.params:
                np.testing.assert_array_equal(la.params[k], lb.params[k])

    def test_partition_embedding_first_head_last(self):
        cfg = TransformerLMConfig(num_layers=4, dim=8, heads=2, vocab=11, seq=4)
        stages = partition_layers(build_transformer_layers(cfg), 4)
        assert isinstance(stages[0][0], Embedding)
        assert isinstance(stages[-1][-1], LMHead)
        assert [len(s) for s in stages] == [2, 1, 1, 2]

    def test_partition_uneven_rejected(self):
        cfg = TransformerLMConfig(num_layers=3, dim=8, heads=2, vocab=11, seq=4)
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            partition_layers(build_transformer_layers(cfg), 2)

    def test_partition_depth_one(self):
        cfg = TransformerLMConfig(num_layers=2, dim=8, heads=2, vocab=11, seq=4)
        layers = build_transformer_layers(cfg)
        assert partition_layers(layers, 1) == [layers]
