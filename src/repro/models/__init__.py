"""NumPy transformer models with hand-written backward passes.

This is the executable counterpart of the analytic workload specs: small
transformer language models whose forward *and* backward passes are
implemented directly on NumPy arrays, so the pipeline runtime
(:mod:`repro.runtime`) can actually train through any schedule and be
checked for **exact** gradient equivalence with sequential mini-batch SGD —
the paper's convergence-friendliness claim for synchronous schedules.

All layer caches are batch-first, which lets backward-halving run a
backward over a row slice of a cached forward.
"""

from repro.common.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.models.layers": (
            "Layer",
            "Linear",
            "LayerNorm",
            "GELU",
            "Embedding",
            "Sequential",
        ),
        "repro.models.attention": ("CausalSelfAttention",),
        "repro.models.transformer": (
            "TransformerBlock",
            "TransformerLMConfig",
            "build_transformer_layers",
            "partition_layers",
        ),
        "repro.models.loss": ("softmax_cross_entropy",),
        "repro.models.reference": ("SequentialTrainer",),
    },
)
