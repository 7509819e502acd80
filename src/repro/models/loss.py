"""Token-level cross-entropy loss with analytic gradient."""

from __future__ import annotations

import numpy as np

from repro.models.functional import softmax
from repro.models.layers import check_ids


def softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over all tokens, plus ``d loss / d logits``.

    ``logits``: (batch, seq, vocab); ``targets``: (batch, seq) int ids.
    The mean is over ``batch * seq`` tokens, so gradients from differently
    sized micro-batch *parts* (backward halving) compose by weighting with
    their token counts — the runtime handles that scaling. A target id
    outside ``[0, vocab)`` raises :class:`ConfigurationError`.
    """
    b, s, vocab = logits.shape
    check_ids(targets, vocab, "target")
    probs = softmax(logits, axis=-1)
    flat = probs.reshape(b * s, -1)
    idx = targets.reshape(-1)
    picked = np.clip(flat[np.arange(b * s), idx], 1e-300, None)
    loss = float(-np.log(picked).mean())
    dlogits = probs.copy()
    dflat = dlogits.reshape(b * s, -1)
    dflat[np.arange(b * s), idx] -= 1.0
    dlogits /= b * s
    return loss, dlogits
