"""Sequential mini-batch SGD reference implementation.

This is the ground truth the paper's convergence argument appeals to:
synchronous pipeline schemes are *algorithmically equivalent* to standard
mini-batch SGD. The integration tests train the same model through the
pipeline runtime and through this reference and require (numerically) equal
weights.
"""

from __future__ import annotations

import numpy as np

from repro.models.layers import Layer
from repro.models.loss import softmax_cross_entropy
from repro.runtime.optimizers import Optimizer


class SequentialTrainer:
    """Plain single-process training over micro-batches.

    Gradients are averaged over micro-batches exactly like the pipeline
    runtime does (per-micro-batch token mean, then mean over micro-batches),
    so the two paths are comparable term by term.
    """

    def __init__(self, layers: list[Layer], optimizer: Optimizer) -> None:
        self.layers = layers
        self.optimizer = optimizer

    def forward(self, tokens: np.ndarray) -> tuple[np.ndarray, list]:
        caches = []
        x = tokens
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, dlogits: np.ndarray, caches: list) -> None:
        dy = dlogits
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dy = layer.backward(dy, cache)

    def train_step(
        self, micro_batches: list[tuple[np.ndarray, np.ndarray]]
    ) -> float:
        """One optimizer step over a mini-batch split into micro-batches.

        Returns the mini-batch loss (mean of per-micro-batch losses).
        """
        for layer in self.layers:
            layer.zero_grads()
        total_loss = 0.0
        for tokens, targets in micro_batches:
            logits, caches = self.forward(tokens)
            loss, dlogits = softmax_cross_entropy(logits, targets)
            total_loss += loss
            self.backward(dlogits, caches)
        n = len(micro_batches)
        for layer in self.layers:
            for g in layer.grads.values():
                g /= n
        self.optimizer.step(self.layers)
        return total_loss / n
