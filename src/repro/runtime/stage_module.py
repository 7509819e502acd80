"""A pipeline stage over a list of layers, with per-micro-batch stashes.

The runtime counterpart of what each worker hosts per (replica, stage):
weights, per-micro-batch activation caches (or just the stage input under
recomputation), and accumulated gradients. Also provides the weight
snapshot/restore hooks PipeDream's version stashing needs, and the split
backward the zero-bubble schedules use: :meth:`backward_input` computes and
returns the input gradient while *deferring* the micro-batch's parameter-
gradient contribution into a side buffer, and the matching
:meth:`backward_weight` later folds that buffer into the accumulated
gradients and releases the stash. Deferral keeps the numerics equivalent
to the fused backward regardless of how far the schedule separates the two
halves (no optimizer step can intervene within a synchronous iteration) —
exact up to float-addition rounding: re-associating the accumulation when
other micro-batches interleave between a ``Bi`` and its ``W`` can differ
from fused in-place accumulation by ~1 ulp. The simulator's cost model,
not this module, accounts for the true compute split between the halves.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ReproError
from repro.models.layers import Layer


class StageModule:
    """One stage replica: layers + in-flight micro-batch state."""

    def __init__(self, layers: list[Layer], *, recompute: bool = False) -> None:
        self.layers = layers
        self.recompute = recompute
        #: mb id -> list of per-layer caches (or the stage input under
        #: recomputation).
        self._caches: dict[int, list] = {}
        self._inputs: dict[int, np.ndarray] = {}
        #: mb id -> backward fraction still outstanding (parts support).
        self._pending: dict[int, float] = {}
        #: mb id -> (stage input, caches) parked in the host tier by an
        #: OFFLOAD op; device-side dicts drop the entries while parked.
        self._host: dict[int, tuple[np.ndarray, list | None]] = {}
        #: (mb, part) -> deferred parameter-gradient contribution of a
        #: split backward_input, awaiting its backward_weight.
        self._deferred_grads: dict[tuple[int, tuple[int, int]], list[np.ndarray]] = {}

    # ----------------------------------------------------------------- state
    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def grad_arrays(self) -> list[np.ndarray]:
        """Flat list of gradient buffers (allreduce payload), stable order."""
        return [g for layer in self.layers for _, g in sorted(layer.grads.items())]

    def param_arrays(self) -> list[np.ndarray]:
        return [p for layer in self.layers for _, p in sorted(layer.params.items())]

    def scale_grads(self, factor: float) -> None:
        for g in self.grad_arrays():
            g *= factor

    def num_params(self) -> int:
        return sum(layer.num_params() for layer in self.layers)

    def in_flight(self) -> int:
        """Number of micro-batches with live stashes (memory-model checks)."""
        return len(self._pending)

    def is_in_flight(self, mb: int) -> bool:
        return mb in self._pending

    # ------------------------------------------------------------- snapshots
    def snapshot_params(self) -> list[np.ndarray]:
        """Copy of all parameters (PipeDream weight-version stash)."""
        return [p.copy() for p in self.param_arrays()]

    def load_params(self, snapshot: list[np.ndarray]) -> None:
        params = self.param_arrays()
        if len(params) != len(snapshot):
            raise ReproError("parameter snapshot shape mismatch")
        for p, s in zip(params, snapshot):
            p[...] = s

    # ----------------------------------------------------------- computation
    def forward(self, mb: int, x: np.ndarray) -> np.ndarray:
        """Run the stage forward for micro-batch ``mb``, stashing state."""
        if mb in self._pending:
            raise ReproError(f"micro-batch {mb} already in flight on this stage")
        self._inputs[mb] = x
        if self.recompute:
            caches = None
        else:
            caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            if caches is not None:
                caches.append(cache)
        if caches is not None:
            self._caches[mb] = caches
        self._pending[mb] = 1.0
        return x

    def backward(
        self, mb: int, dy: np.ndarray, *, row_slice: slice | None = None, fraction: float = 1.0
    ) -> np.ndarray:
        """Fused backward for (a part of) micro-batch ``mb``; returns ``d input``.

        Parameter gradients accumulate into the layers. ``row_slice``
        restricts to a batch-row slice (backward halving); ``fraction`` is
        the share of the micro-batch this call covers, used to release the
        stash once all parts ran.
        """
        dy = self._backprop(mb, dy, row_slice)
        self._release(mb, fraction)
        return dy

    def backward_input(
        self,
        mb: int,
        dy: np.ndarray,
        *,
        row_slice: slice | None = None,
        part: tuple[int, int] = (0, 1),
    ) -> np.ndarray:
        """Split backward, input-gradient half (zero-bubble ``Bi``).

        Runs the backward walk for ``mb`` but diverts this call's
        parameter-gradient contribution into a deferred buffer keyed by
        ``(mb, part)`` instead of the accumulated gradients; the stash stays
        live for the matching :meth:`backward_weight`. Returns ``d input``.
        """
        key = (mb, part)
        if key in self._deferred_grads:
            raise ReproError(
                f"micro-batch {mb} part {part} already has a deferred "
                f"weight gradient on this stage"
            )
        before = [g.copy() for g in self.grad_arrays()]
        dy = self._backprop(mb, dy, row_slice)
        deferred = []
        for g, prev in zip(self.grad_arrays(), before):
            deferred.append(g - prev)
            g[...] = prev
        self._deferred_grads[key] = deferred
        return dy

    def backward_weight(
        self, mb: int, *, part: tuple[int, int] = (0, 1), fraction: float = 1.0
    ) -> None:
        """Split backward, weight-gradient half (zero-bubble ``W``).

        Folds the gradients the matching :meth:`backward_input` deferred
        into the accumulated per-layer gradients and releases this part's
        share of the activation stash.
        """
        key = (mb, part)
        deferred = self._deferred_grads.pop(key, None)
        if deferred is None:
            raise ReproError(
                f"weight gradient for micro-batch {mb} part {part} without "
                f"a matching input gradient"
            )
        for g, extra in zip(self.grad_arrays(), deferred):
            g += extra
        self._release(mb, fraction)

    def deferred_weight_grads(self) -> int:
        """Number of (mb, part) buffers awaiting their backward_weight."""
        return len(self._deferred_grads)

    # --------------------------------------------------------------- offload
    def offload_stash(self, mb: int) -> None:
        """Park micro-batch ``mb``'s stash in the host tier (``OFFLOAD``).

        The stage input (and the activation caches, when the forward kept
        them) move out of the device-side dicts into a host-side one. In
        this in-process NumPy runtime host memory is where the arrays
        already live, so the move is pure bookkeeping — which is exactly
        why training stays bit-identical with offload enabled; the
        simulator's cost model, not this module, accounts for the copy
        time and the two-tier peaks.
        """
        if mb not in self._pending:
            raise ReproError(f"offload for micro-batch {mb} without a forward")
        if mb in self._host:
            raise ReproError(f"micro-batch {mb} stash is already offloaded")
        self._host[mb] = (self._inputs.pop(mb), self._caches.pop(mb, None))

    def reload_stash(self, mb: int) -> None:
        """Bring micro-batch ``mb``'s stash back on device (``RELOAD``)."""
        entry = self._host.pop(mb, None)
        if entry is None:
            raise ReproError(
                f"reload for micro-batch {mb} without an offloaded stash"
            )
        x, caches = entry
        self._inputs[mb] = x
        if caches is not None:
            self._caches[mb] = caches

    def rematerialize(self, mb: int) -> None:
        """Replay the forward for ``mb`` from the stashed stage input.

        The runtime counterpart of an explicit ``RECOMPUTE`` op (the
        recompute pass): rebuilds the per-layer caches the forward
        discarded so the following backward finds them. Idempotent — a
        micro-batch whose caches are already live is left alone, which is
        also what makes the lazy flag-based path and the explicit-op path
        compose.
        """
        if mb not in self._pending:
            raise ReproError(
                f"rematerialization for micro-batch {mb} without a forward"
            )
        if mb in self._host:
            raise ReproError(
                f"micro-batch {mb} stash is offloaded; RELOAD must run first"
            )
        if mb in self._caches:
            return
        x = self._inputs[mb]
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        self._caches[mb] = caches

    def _backprop(
        self, mb: int, dy: np.ndarray, row_slice: slice | None
    ) -> np.ndarray:
        """Reverse layer walk for ``mb`` (rematerializing if needed)."""
        if mb not in self._pending:
            raise ReproError(f"backward for micro-batch {mb} without a forward")
        if mb in self._host:
            raise ReproError(
                f"micro-batch {mb} stash is offloaded; RELOAD must run first"
            )
        if self.recompute and mb not in self._caches:
            # Rematerialize the full forward from the stashed stage input
            # (flag-based recomputation; explicit RECOMPUTE ops call
            # rematerialize() ahead of time instead).
            self.rematerialize(mb)
        caches = self._caches[mb]
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dy = layer.backward(dy, cache, row_slice=row_slice)
        return dy

    def _release(self, mb: int, fraction: float) -> None:
        """Release ``fraction`` of ``mb``'s stash; free it when all ran."""
        self._pending[mb] -= fraction
        if self._pending[mb] <= 1e-9:
            del self._pending[mb]
            del self._caches[mb]
            del self._inputs[mb]
