"""NumPy model layers: gradient checks against finite differences."""

import math

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.models import functional as Fn
from repro.models.attention import CausalSelfAttention, _causal_mask
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

    @pytest.mark.parametrize(
        "token, bad",
        [(-1, "token id -1 "), (11, "token id 11 ")],
        ids=["negative", "vocab"],
    )
    def test_embedding_rejects_token_outside_vocab(self, token, bad):
        layer = Embedding(11, 6, 4, rng=RNG)
        tokens = RNG.integers(0, 11, (2, 5))
        tokens[1, 3] = token
        with pytest.raises(ConfigurationError, match=bad + r"is outside .*\[0, 11\)"):
            layer.forward(tokens)

    def test_embedding_rejects_sequence_past_max_seq(self):
        layer = Embedding(11, 6, 4, rng=RNG)
        with pytest.raises(ConfigurationError, match="length 7 exceeds .*max_seq 6"):
            layer.forward(RNG.integers(0, 11, (2, 7)))

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


def _gelu_pow(x):
    """GELU with the cube spelled ``x**3`` (libm ``pow``)."""
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def _layernorm_mean_var(x, gamma, beta, eps=1e-5):
    """LayerNorm spelled with ``x.mean``/``x.var``."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    return xhat * gamma + beta, (xhat, inv, gamma)


def _layernorm_backward_mean(dy, cache):
    xhat, inv, gamma = cache
    axes = tuple(range(dy.ndim - 1))
    dxhat = dy * gamma
    dx = (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    ) * inv
    return dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


def _attention_split_triu(layer, x):
    """``CausalSelfAttention.forward`` with ``np.split`` and a fresh mask."""
    s = x.shape[1]
    qkv, qkv_cache = layer.qkv.forward(x)
    q, k, v = (layer._split_heads(part) for part in np.split(qkv, 3, axis=-1))
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(layer.head_dim))
    scores = np.where(np.triu(np.ones((s, s), dtype=bool), k=1), -1e30, scores)
    attn = Fn.softmax(scores, axis=-1)
    out, proj_cache = layer.proj.forward(layer._merge_heads(attn @ v))
    return out, (qkv_cache, q, k, v, attn, proj_cache, s)


class TestKernelSpellings:
    """The products, single-centring and cached-mask spellings of the
    kernels against the spellings they replaced: bitwise where the
    arithmetic is the same, within a stated ulp bound for GELU's cube."""

    def test_gelu_cube_within_two_ulp_of_pow(self):
        mag = np.logspace(-8, 3, 4001)
        x = np.concatenate([-mag, [0.0, -0.0], mag])
        y, _ = Fn.gelu(x)
        ref = _gelu_pow(x)
        # On the negative side 1 + tanh(u) cancels, so one ulp of tanh is
        # many ulps of the output; the input's ulp is the bound's scale.
        assert np.all(np.abs(y - ref) <= 2 * np.spacing(np.abs(x)))
        pos = x > 0
        assert np.all(np.abs(y - ref)[pos] <= 2 * np.spacing(ref[pos]))
        assert np.array_equal(np.signbit(y[x == 0]), np.signbit(x[x == 0]))

    def test_gelu_overflowing_cube_unchanged(self):
        with np.errstate(over="ignore"):
            y, _ = Fn.gelu(np.array([1e120, -1e120]))
        assert y[0] == 1e120
        assert y[1] == 0.0 and np.signbit(y[1])

    def test_gelu_backward_unchanged(self):
        x = RNG.standard_normal((2, 3, 16)) * 3
        dy = RNG.standard_normal(x.shape)
        _, cache = Fn.gelu(x)
        t = cache[1]
        du = math.sqrt(2.0 / math.pi) * (1.0 + 3 * 0.044715 * x**2)
        want = dy * (0.5 * (1.0 + t) + 0.5 * x * ((1.0 - t**2) * du))
        assert np.array_equal(Fn.gelu_backward(dy, cache), want)

    def test_layernorm_bitwise(self):
        x = RNG.standard_normal((3, 5, 24)) * 4 + 2
        gamma, beta = RNG.standard_normal(24), RNG.standard_normal(24)
        y, cache = Fn.layernorm(x, gamma, beta)
        want_y, want_cache = _layernorm_mean_var(x, gamma, beta)
        assert np.array_equal(y, want_y)
        for got, want in zip(cache, want_cache):
            assert np.array_equal(got, want)
        dy = RNG.standard_normal(x.shape)
        for got, want in zip(
            Fn.layernorm_backward(dy, cache), _layernorm_backward_mean(dy, cache)
        ):
            assert np.array_equal(got, want)

    def test_layernorm_row_slice_backward_bitwise(self):
        layer = LayerNorm(24)
        layer.params["gamma"][...] = RNG.standard_normal(24)
        x = RNG.standard_normal((4, 5, 24))
        _, cache = layer.forward(x)
        dy = RNG.standard_normal((2, 5, 24))
        layer.zero_grads()
        dx = layer.backward(dy, cache, row_slice=slice(1, 3))
        xhat, inv, gamma = cache
        want_dx, want_dgamma, want_dbeta = _layernorm_backward_mean(
            dy, (xhat[1:3], inv[1:3], gamma)
        )
        assert np.array_equal(dx, want_dx)
        assert np.array_equal(layer.grads["gamma"], want_dgamma)
        assert np.array_equal(layer.grads["beta"], want_dbeta)

    @pytest.mark.parametrize("seq", [5, 12])
    def test_attention_bitwise(self, seq):
        layer = CausalSelfAttention(16, 4, rng=RNG)
        x = RNG.standard_normal((2, seq, 16))
        out, cache = layer.forward(x)
        want_out, want_cache = _attention_split_triu(layer, x)
        assert np.array_equal(out, want_out)
        dy = RNG.standard_normal(out.shape)
        results = []
        for c in (cache, want_cache):
            layer.zero_grads()
            dx = layer.backward(dy, c)
            results.append((dx, {k: g.copy() for k, g in layer.grads.items()}))
        (dx, grads), (want_dx, want_grads) = results
        assert np.array_equal(dx, want_dx)
        for key in want_grads:
            assert np.array_equal(grads[key], want_grads[key])

    def test_causal_mask_cached_and_read_only(self):
        mask = _causal_mask(7)
        assert _causal_mask(7) is mask
        assert np.array_equal(mask, np.triu(np.ones((7, 7), dtype=bool), k=1))
        with pytest.raises(ValueError):
            mask[0, 0] = True


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

    @pytest.mark.parametrize(
        "target, bad",
        [(-1, "target id -1 "), (7, "target id 7 ")],
        ids=["negative", "vocab"],
    )
    def test_rejects_target_outside_vocab(self, target, bad):
        targets = RNG.integers(0, 7, (2, 3))
        targets[1, 2] = target
        with pytest.raises(ConfigurationError, match=bad + r"is outside .*\[0, 7\)"):
            softmax_cross_entropy(RNG.standard_normal((2, 3, 7)), targets)

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
