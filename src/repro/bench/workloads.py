"""Transformer workload specifications (paper Table 4).

The paper evaluates Bert-48 (48 layers, ~670 M parameters, sequence 128) and
a 64-layer GPT-2 (~1.39 B parameters, sequence 632), plus a 32-layer GPT-2
variant for the multi-pipeline study (Figure 19). We reconstruct the hidden
dimensions from the published parameter counts using the standard
transformer arithmetic (``12 h^2 + 13 h`` parameters per layer, ``(V + s) h``
for the embeddings) and derive per-stage compute, activation, and gradient
sizes analytically — the stand-in for the paper's micro-benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.memo import hash_once


@dataclass(frozen=True)
class StageProfile:
    """Analytic profile of one pipeline stage for a given micro-batch size."""

    stage: int
    num_layers: int
    params: int
    #: Forward FLOPs for one micro-batch.
    forward_flops: float
    #: Full activation stash bytes for one micro-batch.
    activation_bytes: float
    #: Stage-input bytes (stored when recomputation is on).
    stash_input_bytes: float
    #: Gradient bytes synchronized by this stage's allreduce.
    grad_bytes: float
    #: Weights + gradients + optimizer state bytes for one copy.
    weight_state_bytes: float


@hash_once
@dataclass(frozen=True)
class TransformerSpec:
    """A repetitive-structure transformer language model (paper §3.1).

    Attributes mirror Table 4 plus the architecture constants needed to
    derive compute/memory analytically. ``tied_embeddings`` controls
    whether the LM head shares the embedding matrix (GPT-2 style) or owns
    its own decoder (BERT pre-training heads).
    """

    name: str
    num_layers: int
    hidden: int
    heads: int
    vocab: int
    seq: int
    tied_embeddings: bool = True
    #: Bytes per parameter for weights + grads + optimizer state (fp32
    #: weights, fp32 grads, fp32 momentum = 12, the paper-era PyTorch+GLOO
    #: SGD setup).
    state_bytes_per_param: int = 12
    #: Bytes per activation element (fp32).
    act_bytes: int = 4
    #: Activation elements stored per token per layer = act_h_factor * h
    #: plus act_s_factor * heads * seq (attention score matrices).
    act_h_factor: float = 24.0
    act_s_factor: float = 5.0

    def __post_init__(self) -> None:
        if self.hidden % self.heads:
            raise ConfigurationError(
                f"hidden={self.hidden} not divisible by heads={self.heads}"
            )

    # --------------------------------------------------------------- counts
    @property
    def params_per_layer(self) -> int:
        """Standard transformer block: attention 4h^2+4h, MLP 8h^2+5h, LN 4h."""
        h = self.hidden
        return 12 * h * h + 13 * h

    @property
    def embedding_params(self) -> int:
        return (self.vocab + self.seq) * self.hidden

    @property
    def head_params(self) -> int:
        return 0 if self.tied_embeddings else self.vocab * self.hidden

    @property
    def total_params(self) -> int:
        return (
            self.num_layers * self.params_per_layer
            + self.embedding_params
            + self.head_params
        )

    # ---------------------------------------------------------------- per-mb
    def layer_forward_flops(self, micro_batch: int) -> float:
        """One transformer layer forward, one micro-batch.

        ``24 b s h^2`` for the matmuls plus ``4 b s^2 h`` for attention.
        """
        b, s, h = micro_batch, self.seq, self.hidden
        return 24.0 * b * s * h * h + 4.0 * b * s * s * h

    def head_forward_flops(self, micro_batch: int) -> float:
        """LM head logits matmul (runs whether or not weights are tied)."""
        return 2.0 * micro_batch * self.seq * self.vocab * self.hidden

    def embedding_forward_flops(self, micro_batch: int) -> float:
        """Lookup + add — negligible but non-zero."""
        return 2.0 * micro_batch * self.seq * self.hidden

    def layer_activation_bytes(self, micro_batch: int) -> float:
        b, s, h = micro_batch, self.seq, self.hidden
        elements = self.act_h_factor * b * s * h + self.act_s_factor * self.heads * b * s * s
        return elements * self.act_bytes

    def boundary_bytes(self, micro_batch: int) -> float:
        """The p2p payload between stages: one ``b x s x h`` tensor."""
        return micro_batch * self.seq * self.hidden * self.act_bytes

    # --------------------------------------------------------------- staging
    def layers_per_stage(self, depth: int) -> int:
        if depth < 1 or self.num_layers % depth:
            raise ConfigurationError(
                f"{self.name}: {self.num_layers} layers do not split evenly "
                f"into {depth} stages"
            )
        return self.num_layers // depth

    def stage_profiles(self, depth: int, micro_batch: int) -> list[StageProfile]:
        """Balanced layer split; embedding joins stage 0, head joins the last
        stage (the imbalance the paper highlights in §4.1)."""
        per = self.layers_per_stage(depth)
        profiles: list[StageProfile] = []
        for stage in range(depth):
            params = per * self.params_per_layer
            flops = per * self.layer_forward_flops(micro_batch)
            act = per * self.layer_activation_bytes(micro_batch)
            if stage == 0:
                params += self.embedding_params
                flops += self.embedding_forward_flops(micro_batch)
                act += self.boundary_bytes(micro_batch)  # embedding output
            if stage == depth - 1:
                params += self.head_params
                flops += self.head_forward_flops(micro_batch)
                # Logits are consumed by the loss immediately; the dominant
                # stash is the vocab-width tensor.
                act += micro_batch * self.seq * self.vocab * self.act_bytes // 8
            profiles.append(
                StageProfile(
                    stage=stage,
                    num_layers=per,
                    params=params,
                    forward_flops=flops,
                    activation_bytes=act,
                    stash_input_bytes=self.boundary_bytes(micro_batch),
                    grad_bytes=params * 4.0,  # fp32 gradients on the wire
                    weight_state_bytes=params * self.state_bytes_per_param,
                )
            )
        return profiles

    def describe(self) -> str:
        return (
            f"{self.name}: {self.num_layers} layers, hidden {self.hidden}, "
            f"{self.total_params:,} params, seq {self.seq}"
        )


#: Bert-48 (Table 4: 48 layers, 669,790,012 params, B̂ >= 256, seq 128).
#: h = 1024 with an untied BERT LM head lands within ~0.5% of the published
#: parameter count.
BERT48 = TransformerSpec(
    name="bert-48",
    num_layers=48,
    hidden=1024,
    heads=16,
    vocab=30522,
    seq=128,
    tied_embeddings=False,
)

#: GPT-2 with 64 layers (Table 4: 1,389,327,360 params, B̂ >= 512, seq 632).
#: h = 1312 reproduces the published count to within 0.1%.
GPT2_64 = TransformerSpec(
    name="gpt2-64",
    num_layers=64,
    hidden=1312,
    heads=16,
    vocab=50257,
    seq=632,
    tied_embeddings=True,
)

#: The 32-layer GPT-2 used for Figure 9 and Figure 19.
GPT2_32 = TransformerSpec(
    name="gpt2-32",
    num_layers=32,
    hidden=1312,
    heads=16,
    vocab=50257,
    seq=632,
    tied_embeddings=True,
)

#: Short names accepted by the CLI and the planner service.
WORKLOADS: dict[str, TransformerSpec] = {
    "bert-48": BERT48,
    "gpt2-64": GPT2_64,
    "gpt2-32": GPT2_32,
}
