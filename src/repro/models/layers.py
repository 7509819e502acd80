"""Layer primitives with explicit parameter/gradient stores.

Conventions
-----------
* ``forward(x) -> (y, cache)``: the caller owns the cache — this is what
  lets a pipeline stage keep several micro-batches in flight (one cache per
  micro-batch) and what makes activation recomputation trivial (drop the
  cache, re-run forward later).
* ``backward(dy, cache, row_slice=None) -> dx``: accumulates parameter
  gradients into ``self.grads``. ``row_slice`` restricts the backward to a
  contiguous slice of the micro-batch (batch axis 0) — the backward-halving
  execution path.
* Parameters and gradients are plain dicts of arrays; optimizers and the
  communication backend operate on those dicts directly (mpi4py-style
  buffer passing, no framework indirection).
* A composite layer owns no arrays of its own: it calls :meth:`Layer.adopt`
  once at the end of ``__init__``, which lists each child's arrays in the
  composite's dicts under ``"<child>.<key>"``, in child order. Every update,
  accumulation and zeroing is in place, so the composite's dicts and its
  children's stay the same arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.models import functional as F


def _sliced(cache_entry, row_slice):
    if row_slice is None:
        return cache_entry
    return cache_entry[row_slice]


def check_ids(ids: np.ndarray, vocab: int, what: str) -> None:
    """Raise :class:`ConfigurationError` naming the first of ``ids`` outside
    ``[0, vocab)``; indexing would read row ``vocab - k`` for id ``-k``."""
    bad = ids[(ids < 0) | (ids >= vocab)]
    if bad.size:
        raise ConfigurationError(
            f"{what} id {bad[0]} is outside the vocabulary [0, {vocab})"
        )


def check_tokens(tokens: np.ndarray, vocab: int, max_seq: int) -> None:
    """Raise :class:`ConfigurationError` unless ``tokens`` (batch, seq) has
    at most ``max_seq`` positions and every id in ``[0, vocab)``."""
    seq = tokens.shape[1]
    if seq > max_seq:
        raise ConfigurationError(
            f"sequence length {seq} exceeds the embedding's max_seq {max_seq}"
        )
    check_ids(tokens, vocab, "token")


class Layer:
    """Base class: parameter registry plus the forward/backward contract."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def register(self, name: str, value: np.ndarray) -> None:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def adopt(self, children: dict[str, Layer]) -> None:
        """Expose the children's arrays as this layer's, under ``name.key``."""
        for name, child in children.items():
            for key, value in child.params.items():
                self.params[f"{name}.{key}"] = value
                self.grads[f"{name}.{key}"] = child.grads[key]

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def num_params(self) -> int:
        return sum(p.size for p in self.params.values())

    # Subclasses implement:
    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, cache: object, row_slice=None) -> np.ndarray:
        raise NotImplementedError


class Linear(Layer):
    """Affine map over the last axis: ``y = x @ W + b``."""

    def __init__(
        self, in_dim: int, out_dim: int, *, rng: np.random.Generator, dtype=np.float64
    ) -> None:
        super().__init__()
        scale = 1.0 / np.sqrt(in_dim)
        self.register(
            "W", (rng.standard_normal((in_dim, out_dim)) * scale).astype(dtype)
        )
        self.register("b", np.zeros(out_dim, dtype=dtype))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        return x @ self.params["W"] + self.params["b"], x

    def backward(self, dy: np.ndarray, cache: object, row_slice=None) -> np.ndarray:
        x = _sliced(cache, row_slice)
        flat_x = x.reshape(-1, x.shape[-1])
        flat_dy = dy.reshape(-1, dy.shape[-1])
        self.grads["W"] += flat_x.T @ flat_dy
        self.grads["b"] += flat_dy.sum(axis=0)
        return dy @ self.params["W"].T


class LayerNorm(Layer):
    """LayerNorm over the last axis with learned gain/bias."""

    def __init__(self, dim: int, *, dtype=np.float64) -> None:
        super().__init__()
        self.register("gamma", np.ones(dim, dtype=dtype))
        self.register("beta", np.zeros(dim, dtype=dtype))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        y, cache = F.layernorm(x, self.params["gamma"], self.params["beta"])
        return y, cache

    def backward(self, dy: np.ndarray, cache: object, row_slice=None) -> np.ndarray:
        xhat, inv, gamma = cache
        cache = (_sliced(xhat, row_slice), _sliced(inv, row_slice), gamma)
        dx, dgamma, dbeta = F.layernorm_backward(dy, cache)
        self.grads["gamma"] += dgamma
        self.grads["beta"] += dbeta
        return dx


class GELU(Layer):
    """Parameter-free GELU activation."""

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        return F.gelu(x)

    def backward(self, dy: np.ndarray, cache: object, row_slice=None) -> np.ndarray:
        x, t = cache
        return F.gelu_backward(dy, (_sliced(x, row_slice), _sliced(t, row_slice)))


class Embedding(Layer):
    """Token + positional embedding; the usual first stage of an LM."""

    def __init__(
        self,
        vocab: int,
        max_seq: int,
        dim: int,
        *,
        rng: np.random.Generator,
        dtype=np.float64,
    ) -> None:
        super().__init__()
        self.register("tok", (rng.standard_normal((vocab, dim)) * 0.02).astype(dtype))
        self.register("pos", (rng.standard_normal((max_seq, dim)) * 0.02).astype(dtype))

    def forward(self, tokens: np.ndarray) -> tuple[np.ndarray, object]:
        check_tokens(tokens, len(self.params["tok"]), len(self.params["pos"]))
        seq = tokens.shape[1]
        y = self.params["tok"][tokens] + self.params["pos"][:seq]
        return y, (tokens, seq)

    def backward(self, dy: np.ndarray, cache: object, row_slice=None) -> np.ndarray:
        tokens, seq = cache
        tokens = _sliced(tokens, row_slice)
        np.add.at(self.grads["tok"], tokens, dy)
        self.grads["pos"][:seq] += dy.sum(axis=0)
        # Token inputs carry no gradient; return a zero placeholder so the
        # pipeline's gradient message has a well-defined shape.
        return np.zeros_like(dy)


class Sequential(Layer):
    """A fused chain of layers behaving as a single layer.

    Tests use it to compose small models; the transformer stages fuse
    their chains by hand (:class:`~repro.models.transformer.TransformerBlock`).
    """

    def __init__(self, layers: Sequence[Layer]) -> None:
        super().__init__()
        self.layers = list(layers)
        self.adopt({str(i): layer for i, layer in enumerate(self.layers)})

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, dy: np.ndarray, cache: object, row_slice=None) -> np.ndarray:
        for layer, layer_cache in zip(reversed(self.layers), reversed(cache)):
            dy = layer.backward(dy, layer_cache, row_slice=row_slice)
        return dy
