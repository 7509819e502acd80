"""Vectorized NumPy kernels: forward/backward pairs.

Every function returns ``(output, cache)`` and has a matching ``*_backward``
taking ``(grad_output, cache)``. Kernels avoid Python-level loops and
unnecessary copies (views where possible), per the scientific-Python
optimization guidance this project follows.

Two arithmetic rules keep a train step at the speed of its matmuls:

* No array ``**`` with an integer exponent other than 2: NumPy squares
  ``x**2`` itself but sends every other power to libm ``pow``, which on
  float64 costs tens of times as much as products (write ``x * x * x``).
* A mean over the last axis is spelled ``x.sum(-1, keepdims=True) / n``,
  which is NumPy's own ``mean`` bit for bit (``add.reduce``, then a true
  divide by the count), so a centred array is formed once and reused.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def gelu(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Tanh-approximation GELU (the transformer standard)."""
    u = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))
    t = np.tanh(u)
    y = 0.5 * x * (1.0 + t)
    return y, (x, t)


def gelu_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    x, t = cache
    du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x**2)
    dt = (1.0 - t**2) * du
    return dy * (0.5 * (1.0 + t) + 0.5 * x * dt)


def layernorm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, tuple]:
    """LayerNorm over the last axis."""
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gamma + beta
    return y, (xhat, inv, gamma)


def layernorm_backward(
    dy: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(dx, dgamma, dbeta)``."""
    xhat, inv, gamma = cache
    axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dxhat = dy * gamma
    n = xhat.shape[-1]
    dx = (
        dxhat
        - dxhat.sum(axis=-1, keepdims=True) / n
        - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / n)
    ) * inv
    return dx, dgamma, dbeta


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dy: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backward through softmax given its output ``y``."""
    return y * (dy - (dy * y).sum(axis=axis, keepdims=True))
