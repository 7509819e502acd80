"""Transformer blocks, LM assembly, and pipeline-stage partitioning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.models.attention import CausalSelfAttention
from repro.models.layers import (
    GELU,
    Embedding,
    Layer,
    LayerNorm,
    Linear,
    check_ids,
    check_tokens,
)


class TransformerBlock(Layer):
    """Pre-norm transformer block: x + Attn(LN(x)); x + MLP(LN(x))."""

    def __init__(
        self,
        dim: int,
        heads: int,
        *,
        mlp_ratio: int = 4,
        rng: np.random.Generator,
        dtype=np.float64,
    ) -> None:
        super().__init__()
        self.ln1 = LayerNorm(dim, dtype=dtype)
        self.attn = CausalSelfAttention(dim, heads, rng=rng, dtype=dtype)
        self.ln2 = LayerNorm(dim, dtype=dtype)
        self.fc1 = Linear(dim, mlp_ratio * dim, rng=rng, dtype=dtype)
        self.act = GELU()
        self.fc2 = Linear(mlp_ratio * dim, dim, rng=rng, dtype=dtype)
        self.adopt(
            {
                "ln1": self.ln1,
                "attn": self.attn,
                "ln2": self.ln2,
                "fc1": self.fc1,
                "act": self.act,
                "fc2": self.fc2,
            }
        )

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        h1, c_ln1 = self.ln1.forward(x)
        a, c_attn = self.attn.forward(h1)
        x1 = x + a
        h2, c_ln2 = self.ln2.forward(x1)
        m1, c_fc1 = self.fc1.forward(h2)
        m2, c_act = self.act.forward(m1)
        m3, c_fc2 = self.fc2.forward(m2)
        y = x1 + m3
        return y, (c_ln1, c_attn, c_ln2, c_fc1, c_act, c_fc2)

    def backward(self, dy: np.ndarray, cache: object, row_slice=None) -> np.ndarray:
        c_ln1, c_attn, c_ln2, c_fc1, c_act, c_fc2 = cache
        dm2 = self.fc2.backward(dy, c_fc2, row_slice=row_slice)
        dm1 = self.act.backward(dm2, c_act, row_slice=row_slice)
        dh2 = self.fc1.backward(dm1, c_fc1, row_slice=row_slice)
        dx1 = dy + self.ln2.backward(dh2, c_ln2, row_slice=row_slice)
        dh1 = self.attn.backward(dx1, c_attn, row_slice=row_slice)
        dx = dx1 + self.ln1.backward(dh1, c_ln1, row_slice=row_slice)
        return dx


class LMHead(Layer):
    """Final LayerNorm + vocabulary projection."""

    def __init__(
        self, dim: int, vocab: int, *, rng: np.random.Generator, dtype=np.float64
    ) -> None:
        super().__init__()
        self.ln = LayerNorm(dim, dtype=dtype)
        self.out = Linear(dim, vocab, rng=rng, dtype=dtype)
        self.adopt({"ln": self.ln, "out": self.out})

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        h, c_ln = self.ln.forward(x)
        logits, c_out = self.out.forward(h)
        return logits, (c_ln, c_out)

    def backward(self, dy: np.ndarray, cache: object, row_slice=None) -> np.ndarray:
        c_ln, c_out = cache
        dh = self.out.backward(dy, c_out, row_slice=row_slice)
        return self.ln.backward(dh, c_ln, row_slice=row_slice)


@dataclass(frozen=True)
class TransformerLMConfig:
    """A small, runnable language model (the test-scale analog of Table 4)."""

    num_layers: int = 4
    dim: int = 32
    heads: int = 4
    vocab: int = 61
    seq: int = 12
    dtype: type = np.float64
    seed: int = 1234


def build_transformer_layers(config: TransformerLMConfig) -> list[Layer]:
    """Embedding, ``num_layers`` blocks, LM head — one flat layer list.

    The flat list is what :func:`partition_layers` splits into pipeline
    stages; building from a seeded generator makes every replica (and the
    sequential reference) bit-identical at initialization.
    """
    rng = np.random.default_rng(config.seed)
    layers: list[Layer] = [
        Embedding(config.vocab, config.seq, config.dim, rng=rng, dtype=config.dtype)
    ]
    layers.extend(
        TransformerBlock(config.dim, config.heads, rng=rng, dtype=config.dtype)
        for _ in range(config.num_layers)
    )
    layers.append(LMHead(config.dim, config.vocab, rng=rng, dtype=config.dtype))
    return layers


def check_micro_batch(
    config: TransformerLMConfig, tokens: np.ndarray, targets: np.ndarray
) -> None:
    """Raise :class:`ConfigurationError` unless the model ``config`` builds
    can train on ``(tokens, targets)``: what ``Embedding.forward`` and
    ``softmax_cross_entropy`` would reject, checked before any layer runs."""
    check_tokens(tokens, config.vocab, config.seq)
    if targets.shape != tokens.shape:
        raise ConfigurationError(
            f"targets of shape {targets.shape} do not match tokens of shape "
            f"{tokens.shape}"
        )
    check_ids(targets, config.vocab, "target")


def partition_layers(layers: list[Layer], depth: int) -> list[list[Layer]]:
    """Split a layer list into ``depth`` contiguous stages.

    The transformer blocks are spread evenly; the embedding joins the first
    stage and the head the last one — the same partitioning rule as the
    analytic workload specs (and the paper's "evenly partition the basic
    layers" default).
    """
    if depth < 1:
        raise ConfigurationError("depth must be >= 1")
    if depth == 1:
        return [list(layers)]
    body = layers[1:-1]
    if len(body) % depth:
        raise ConfigurationError(
            f"{len(body)} transformer blocks do not split evenly into "
            f"{depth} stages"
        )
    per = len(body) // depth
    stages: list[list[Layer]] = []
    for s in range(depth):
        stage = list(body[s * per : (s + 1) * per])
        if s == 0:
            stage.insert(0, layers[0])
        if s == depth - 1:
            stage.append(layers[-1])
        stages.append(stage)
    return stages
