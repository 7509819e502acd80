"""Stage-to-worker placements.

The placement fixes which worker holds the weights (and executes the
forward/backward passes) of every ``(replica, stage)`` pair inside one
pipeline group of ``D`` workers.

Paper mapping rules (§3.1 and §3.6):

* *linear* — stage ``s`` of the single replica lives on worker ``s``
  (GPipe, DAPPLE, PipeDream, PipeDream-2BW).
* *bidirectional* with ``f`` down + ``f`` up pipelines — down pipeline ``i``
  (replica ``2i``) maps stage ``s`` to worker ``(i * D/f + s) mod D``; up
  pipeline ``i`` (replica ``2i + 1``) uses exactly the reverse worker order
  of its down twin. ``f = 1`` is the Chimera default and also the GEMS
  placement (two model replicas in opposite directions).
* *v-shaped* (zero-bubble ZB-V [Qi et al. 2024]) — one replica whose
  ``2p`` model chunks fold back over ``p`` workers: worker ``i`` hosts
  chunk ``i`` and chunk ``2p - 1 - i``, so the first and last chunks share
  worker 0 and the pipeline turns around on worker ``p - 1``. This is the
  one placement with more stages than workers (``num_workers`` is stored
  explicitly).

Data parallelism (width ``W``) replicates whole pipeline groups and is
handled outside the placement — the allreduce *group size* used by the cost
models is ``num_replicas * W`` (every replica holds a copy of each stage).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.common.errors import ScheduleError


@dataclass(frozen=True)
class StagePlacement:
    """Immutable map from ``(replica, stage)`` to worker rank.

    ``table[r][s]`` is the worker hosting stage ``s`` of replica ``r``.
    ``workers`` is ``None`` for the classic one-stage-per-worker placements
    (worker count equals stage count, every replica's row is a permutation);
    multi-chunk placements like :meth:`vshaped` set it explicitly and may
    host several stages of one replica on the same worker.
    """

    num_stages: int
    table: tuple[tuple[int, ...], ...]
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.num_stages < 1:
            raise ScheduleError("a placement needs at least one stage")
        if not self.table:
            raise ScheduleError("a placement needs at least one replica")
        if self.workers is not None and self.workers < 1:
            raise ScheduleError("a placement needs at least one worker")
        for replica, row in enumerate(self.table):
            if len(row) != self.num_stages:
                raise ScheduleError(
                    f"replica {replica} maps {len(row)} stages, expected {self.num_stages}"
                )
            if self.workers is None:
                if sorted(row) != list(range(self.num_stages)):
                    raise ScheduleError(
                        f"replica {replica} must place its stages on distinct "
                        f"workers 0..{self.num_stages - 1}, got {row}"
                    )
            elif sorted(set(row)) != list(range(self.workers)):
                raise ScheduleError(
                    f"replica {replica} must cover every worker "
                    f"0..{self.workers - 1}, got {row}"
                )

    # ------------------------------------------------------------ constructors
    @staticmethod
    def linear(num_stages: int) -> "StagePlacement":
        """Single replica, stage ``s`` on worker ``s``."""
        return StagePlacement(num_stages, (tuple(range(num_stages)),))

    @staticmethod
    def reversed_linear(num_stages: int) -> "StagePlacement":
        """Single replica, stage ``s`` on worker ``D - 1 - s`` (an up pipeline)."""
        return StagePlacement(num_stages, (tuple(reversed(range(num_stages))),))

    @staticmethod
    def bidirectional(num_stages: int, num_down_pipelines: int = 1) -> "StagePlacement":
        """Paper §3.6 placement with ``f`` down and ``f`` up pipelines.

        Requires an even ``D`` and ``f`` dividing ``D/2`` (``f`` must be a
        divisor of ``Q = D/2`` per the paper).
        """
        depth = num_stages
        f = num_down_pipelines
        if depth % 2 != 0:
            raise ScheduleError(
                f"bidirectional placement needs an even number of stages, got D={depth}"
            )
        if f < 1 or (depth // 2) % f != 0:
            raise ScheduleError(
                f"the number of down pipelines f={f} must divide Q=D/2={depth // 2}"
            )
        rows: list[tuple[int, ...]] = []
        stride = depth // f
        for i in range(f):
            down = tuple((i * stride + s) % depth for s in range(depth))
            up = tuple(reversed(down))
            rows.append(down)
            rows.append(up)
        return StagePlacement(depth, tuple(rows))

    @staticmethod
    def vshaped(num_workers: int) -> "StagePlacement":
        """ZB-V placement: ``2p`` chunks folded over ``p`` workers.

        Chunk ``s < p`` lives on worker ``s`` (the descending arm of the V);
        chunk ``s >= p`` lives on worker ``2p - 1 - s`` (the ascending arm),
        so worker 0 hosts both the first and the last chunk — the property
        that lets ZB-V start the optimizer step without a cross-worker
        round trip.
        """
        p = num_workers
        if p < 1:
            raise ScheduleError("v-shaped placement needs at least one worker")
        row = tuple(s if s < p else 2 * p - 1 - s for s in range(2 * p))
        return StagePlacement(2 * p, (row,), workers=p)

    # ----------------------------------------------------------------- queries
    @property
    def num_replicas(self) -> int:
        return len(self.table)

    @property
    def num_workers(self) -> int:
        return self.num_stages if self.workers is None else self.workers

    def worker_of(self, replica: int, stage: int) -> int:
        """Worker hosting ``stage`` of ``replica``."""
        try:
            return self.table[replica][stage]
        except IndexError:
            raise ScheduleError(
                f"(replica={replica}, stage={stage}) outside placement with "
                f"{self.num_replicas} replicas x {self.num_stages} stages"
            ) from None

    def direction(self, replica: int) -> int:
        """+1 if the replica's stages advance with worker rank, -1 otherwise.

        Only meaningful for D >= 2; a single-stage pipeline reports +1.
        """
        if self.num_stages == 1:
            return 1
        row = self.table[replica]
        step = row[1] - row[0]
        return 1 if step % self.num_stages == 1 else -1

    @lru_cache(maxsize=None)
    def stages_on_worker(self, worker: int) -> tuple[tuple[int, int], ...]:
        """All ``(replica, stage)`` pairs hosted by ``worker``, sorted."""
        pairs = [
            (replica, stage)
            for replica, row in enumerate(self.table)
            for stage, host in enumerate(row)
            if host == worker
        ]
        return tuple(sorted(pairs))
