"""Inputs of the end-to-end benchmark, all in one place.

The program under test only ever sees the payloads and batches made
here. Plan requests are JSON payloads in the ``repro serve`` schema, so
the plan and serve workloads share one input format and the plan
workloads validate their inputs through the same public parser.

Plan requests come from a 108-point space: machines x workloads x
mini-batches x budgets x request shapes. The plan stream is a fixed,
balanced fraction of it: one point per (shape, mini-batch) cell, each
machine three times, each workload and each budget twice, each shape on
both machines. Planning cost is set mostly by the cell (0.5 s to 10 s
per request from empty caches), but inside a cell the 18 points still
spread 13-28%, and memory use depends on the point too. Streams drawn
from the seed, one random point per cell, made seven seeds spread 16-37%
on the plan workloads' median latency and 22-41% on their peak RSS
(quartile distance over median), beyond every bound the benchmark may
set; hot sets drawn from the seed moved the server's median peak RSS by
35% between two sets of seeds. So the seed chooses no requests. Nor does
it order the plan stream: requests of one shape share schedule
artifacts, so the order moves build work from one request to another;
the cells run cheapest first.

The seed draws what does not change the amount of work: the order in
which each ``serve_hot`` client sends the hot set, and the training
tokens.
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as np

GIB = 2**30

MACHINES = ("piz-daint", "v100")
MODELS = ("bert-48", "gpt2-32", "gpt2-64")
MINI_BATCHES = (32, 64)
BUDGETS_GIB = (None, 6, 3)

#: Request shapes: worker count and the schemes ranked.
SHAPES: dict[str, tuple[int, tuple[str, ...]]] = {
    # The paper's comparison set (includes the asynchronous schemes,
    # whose ranking runs the harness's steady-state measurement).
    "paper_p4": (
        4,
        ("gpipe", "gems", "dapple", "chimera", "pipedream", "pipedream_2bw"),
    ),
    "sync_p16": (16, ("gpipe", "dapple", "chimera", "zb_h1")),
    "zb_p8": (8, ("zb_h1", "zb_v", "zb_vhalf", "zb_vmin")),
}

#: The plan stream: (shape, machine, workload, mini-batch, budget GiB),
#: in planning order. ``paper_p4`` GPT-2 64 has no configuration that
#: fits 6 GiB, so a ``ConfigurationError`` answer is part of every run.
PLAN_STREAM: tuple[tuple[str, str, str, int, int | None], ...] = (
    ("paper_p4", "v100", "bert-48", 32, None),
    ("paper_p4", "piz-daint", "gpt2-64", 64, 6),
    ("zb_p8", "piz-daint", "gpt2-32", 32, 3),
    ("sync_p16", "v100", "gpt2-64", 32, 6),
    ("zb_p8", "v100", "bert-48", 64, None),
    ("sync_p16", "piz-daint", "gpt2-32", 64, 3),
)

#: ``serve_hot``: P=8 over dapple and chimera, no budget, each machine
#: at both mini-batches. Its artifacts fit the schedule cache's memory
#: tier, so after warm-up every ``/plan`` is a memory hit.
HOT_SET: tuple[tuple[str, str, int], ...] = (
    ("piz-daint", "bert-48", 32),
    ("v100", "gpt2-32", 32),
    ("piz-daint", "gpt2-64", 64),
    ("v100", "bert-48", 64),
)
HOT_SCHEMES = ("dapple", "chimera")
HOT_WORKERS = 8

#: ``train``: the model, pipeline and batch shape.
TRAIN_MODEL = dict(num_layers=8, dim=32, heads=4, vocab=61, seq=12)
TRAIN_DEPTH = 4
TRAIN_MICRO_BATCHES = 8
TRAIN_MICRO_BATCH_SIZE = 2
TRAIN_SCHEMES = ("chimera", "dapple")
TRAIN_LR = 0.05


def plan_payload(
    shape: str, machine: str, workload: str, mini_batch: int, budget_gib: int | None
) -> dict:
    """One ``/plan`` request object."""
    workers, schemes = SHAPES[shape]
    return {
        "machine": machine,
        "workload": workload,
        "num_workers": workers,
        "mini_batch": mini_batch,
        "memory_budget_bytes": None if budget_gib is None else budget_gib * GIB,
        "schemes": list(schemes),
    }


def plan_payloads() -> list[dict]:
    """The plan stream as ``/plan`` payloads, in planning order."""
    return [plan_payload(*point) for point in PLAN_STREAM]


def hot_payloads() -> list[dict]:
    """The ``serve_hot`` payloads, in hot-set order."""
    return [
        {
            "machine": machine,
            "workload": workload,
            "num_workers": HOT_WORKERS,
            "mini_batch": mini_batch,
            "schemes": list(HOT_SCHEMES),
        }
        for machine, workload, mini_batch in HOT_SET
    ]


def client_stream(seed: int, client: int) -> Iterator[int]:
    """Hot-set indices one ``serve_hot`` client sends: endless shuffles.

    Every whole block holds each payload once, so any run of whole
    blocks has exactly the designed mix whatever the seed.
    """
    rng = random.Random(f"serve/{seed}/{client}")
    while True:
        order = list(range(len(HOT_SET)))
        rng.shuffle(order)
        yield from order


def train_batches(
    seed: int,
) -> Iterator[list[tuple[np.ndarray, np.ndarray]]]:
    """Endless train steps, each ``N`` (tokens, next-token targets) pairs."""
    rng = np.random.default_rng([seed, 0x7A11])
    shape = (TRAIN_MICRO_BATCH_SIZE, TRAIN_MODEL["seq"])
    vocab = TRAIN_MODEL["vocab"]
    while True:
        yield [
            (rng.integers(0, vocab, shape), rng.integers(0, vocab, shape))
            for _ in range(TRAIN_MICRO_BATCHES)
        ]
