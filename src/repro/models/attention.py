"""Causal multi-head self-attention with a hand-written backward pass."""

from __future__ import annotations

import functools

import numpy as np

from repro.models import functional as F
from repro.models.layers import Layer, Linear


@functools.lru_cache(maxsize=1)
def _causal_mask(seq: int) -> np.ndarray:
    """``True`` above the diagonal: the keys each query may not see.

    One read-only array, shared by every call. A model trains at one
    sequence length, so the cache holds one mask; a call at another
    length builds a fresh one, which replaces it.
    """
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


class CausalSelfAttention(Layer):
    """GPT-style masked multi-head attention.

    ``qkv`` projects to 3h, heads attend independently under a causal mask,
    ``proj`` mixes the heads back. The backward pass retraces each step
    explicitly (no autograd anywhere in this repository).
    """

    def __init__(
        self, dim: int, heads: int, *, rng: np.random.Generator, dtype=np.float64
    ) -> None:
        super().__init__()
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.qkv = Linear(dim, 3 * dim, rng=rng, dtype=dtype)
        self.proj = Linear(dim, dim, rng=rng, dtype=dtype)
        self.adopt({"qkv": self.qkv, "proj": self.proj})

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        b, s, _ = x.shape
        return x.reshape(b, s, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        b, h, s, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, s, h * d)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        b, s, _ = x.shape
        qkv, qkv_cache = self.qkv.forward(x)
        d = self.dim
        q = self._split_heads(qkv[..., :d])
        k = self._split_heads(qkv[..., d : 2 * d])
        v = self._split_heads(qkv[..., 2 * d :])
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        scores = np.where(_causal_mask(s), -1e30, scores)
        attn = F.softmax(scores, axis=-1)
        context = attn @ v
        merged = self._merge_heads(context)
        out, proj_cache = self.proj.forward(merged)
        return out, (qkv_cache, q, k, v, attn, proj_cache, s)

    def backward(self, dy: np.ndarray, cache: object, row_slice=None) -> np.ndarray:
        qkv_cache, q, k, v, attn, proj_cache, s = cache
        if row_slice is not None:
            q = q[row_slice]
            k = k[row_slice]
            v = v[row_slice]
            attn = attn[row_slice]
        dmerged = self.proj.backward(dy, proj_cache, row_slice=row_slice)
        dcontext = self._split_heads(dmerged)
        dattn = dcontext @ v.transpose(0, 1, 3, 2)
        dv = attn.transpose(0, 1, 3, 2) @ dcontext
        dscores = F.softmax_backward(dattn, attn, axis=-1)
        scale = 1.0 / np.sqrt(self.head_dim)
        dscores *= scale
        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q
        dqkv = np.concatenate(
            [self._merge_heads(dq), self._merge_heads(dk), self._merge_heads(dv)],
            axis=-1,
        )
        return self.qkv.backward(dqkv, qkv_cache, row_slice=row_slice)
