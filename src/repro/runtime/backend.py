"""In-process communication backend (the GLOO stand-in).

The paper runs PyTorch with the GLOO distributed backend for both p2p
transfers between pipeline stages and allreduce across stage replicas. Here
the "network" is an in-process mailbox keyed like MPI messages
(source/destination implicit in the key, tag-style disambiguation by
micro-batch/kind/part), plus collectives with explicit membership.

The collective *algorithms* (Rabenseifner reduce-scatter + allgather, ring)
are also implemented executably on per-rank NumPy buffers, with round and
byte accounting that the tests check against the closed-form cost models in
:mod:`repro.sim.collectives` — the simulation and the runtime agree on what
an allreduce does.
"""

from __future__ import annotations


import numpy as np

from repro.common.errors import CommunicationError


class InProcessBackend:
    """Mailbox p2p plus membership-counted collectives."""

    def __init__(self) -> None:
        self._mail: dict = {}
        self._collectives: dict = {}
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------ p2p
    def send(self, key: tuple, payload: np.ndarray) -> None:
        """Deposit a message; exactly one recv may consume it."""
        if key in self._mail:
            raise CommunicationError(f"message {key} sent twice without a recv")
        self._mail[key] = payload
        self.messages_sent += 1
        self.bytes_sent += payload.nbytes

    def recv(self, key: tuple) -> np.ndarray:
        """Consume a message; raises if absent (callers poll first)."""
        try:
            return self._mail.pop(key)
        except KeyError:
            raise CommunicationError(f"recv on missing message {key}") from None

    def can_recv(self, key: tuple) -> bool:
        return key in self._mail

    # ----------------------------------------------------------- collectives
    def allreduce_contribute(
        self,
        coll_key: tuple,
        member: tuple,
        arrays: list[np.ndarray],
        group_size: int,
    ) -> None:
        """Non-blocking contribution to a sum-allreduce.

        ``arrays`` are contributed *by reference*: when the last member
        arrives, the element-wise sum is written back into every member's
        arrays (in place), mirroring an in-place framework allreduce.
        """
        entry = self._collectives.setdefault(
            coll_key, {"members": {}, "size": group_size, "done": False}
        )
        if entry["size"] != group_size:
            raise CommunicationError(
                f"collective {coll_key}: inconsistent group size "
                f"({entry['size']} vs {group_size})"
            )
        if member in entry["members"]:
            raise CommunicationError(
                f"collective {coll_key}: member {member} contributed twice"
            )
        entry["members"][member] = arrays
        if len(entry["members"]) == entry["size"]:
            self._complete(coll_key, entry)

    def _complete(self, coll_key: tuple, entry: dict) -> None:
        member_arrays = list(entry["members"].values())
        first = member_arrays[0]
        for other in member_arrays[1:]:
            if len(other) != len(first):
                raise CommunicationError(
                    f"collective {coll_key}: members contributed different "
                    f"buffer counts"
                )
        sums = [np.sum([m[i] for m in member_arrays], axis=0) for i in range(len(first))]
        for arrays in member_arrays:
            for a, s in zip(arrays, sums):
                a[...] = s
                self.bytes_sent += a.nbytes
        entry["done"] = True

    def allreduce_done(self, coll_key: tuple) -> bool:
        entry = self._collectives.get(coll_key)
        return bool(entry and entry["done"])

    def unresolved_collectives(self) -> list[tuple]:
        return [k for k, e in self._collectives.items() if not e["done"]]

    def reset_collectives(self) -> None:
        self._collectives.clear()


