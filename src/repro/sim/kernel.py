"""Array-backed simulation kernel: the fast path for every schedule.

The event-queue engine (:mod:`repro.sim.engine`) defines the timing
model: explicit transfers queue FIFO on link channels, blocking
collectives synchronize workers mid-schedule, and background collectives
contend with p2p traffic. This module evaluates the *same* model over
flat numpy-backed arrays instead of a heap of Python events — for every
registered scheme, every pass pipeline, and every cost model, contended
or not. There is no event-engine fallback.

Contention-free schedules (implicit communication under any cost model,
or lowered schedules with ``beta = 0``) are a pure longest-path
computation over the dependency DAG plus each worker's program order:

    ``start(op) = max over incoming edges of (end(src) + delay(edge))``

evaluated in one pass over a precomputed topological order.

Contended schedules (nonzero channel occupancy) add FIFO queueing: a
transfer's wire start is ``max(send_end, channel_free)`` in the order
SEND completions pop from the engine's event heap. The kernel reproduces
that with a **fixed-point relaxation**: each sweep is a longest-path pass
whose transfer edges carry a per-SEND queueing delay; after the sweep,
transfers are re-serialized through per-channel FIFO arrays (occupancy =
``beta * L``, latency ``alpha`` pipelines, full/half duplex) in the
engine's pop order — sorted by ``(send_end, worker, row position)`` —
and the queueing delays are recomputed. Iteration stops when the delays
are *exactly* stable (max/+ arithmetic over floats reaches a bitwise
fixed point once the channel order stabilizes, so the converged times
are self-consistent and equal the engine's); a cap of
:data:`MAX_RELAXATION_SWEEPS` raises
:class:`~repro.common.errors.KernelConvergenceError` instead of ever
returning non-converged times. Blocking collectives resolve inside the
sweep over an augmented topological order (member launches barrier their
program-order successors), with the transfer-contention push folded into
the same fixed point: each sweep puts a busy transfer on the wire as its
SEND completes and pushes a resolving group past the transfers already
visible to it, so a chain of collectives, each pushed by the one before,
settles in one sweep instead of one sweep per collective. The exact
floors after a sweep come from one pass in pop order
(:func:`_blocking_floors`), and the sweep stops only when they agree.

Collectives never start while a transfer occupies a member's interface
(NIC). Every clearance in this module reads one structure: per-worker
merged busy runs, binary-searched by :func:`_clear_sorted`. The
blocking floors grow them one transfer at a time as transfers become
visible (:func:`_add_busy`); non-blocking batch rows build them in one
vectorized pass (:func:`_busy_runs`) from the transfers still busy at
the row's earliest collective ready time.

Public surface:

* :class:`ScheduleKernel` — the cost-model-independent array form of a
  dependency graph: a numpy structured op table, flattened edge arrays,
  a wave levelization, precomputed per-SEND tables (worker endpoints,
  payload units, row positions), and `reduceat` segment offsets. Built
  once per graph (:func:`kernel_of`) straight from the graph's op table
  and CSR edge tables, never from the engine's dense form; it keeps
  nothing of the graph beyond the per-op lists it reads, so
  schedule-cache entries keep kernels resident, let graphs go, and store
  kernels (not graphs) in the disk tier.
* :func:`simulate_fast` — the simulator users reach (exported as
  :func:`repro.simulate`): a full :class:`~repro.sim.engine.SimulationResult`
  for one cost model. One scalar pass when contention-free; inline FIFO
  serialization or the fixed-point relaxation when contended or
  blocking.
* :func:`simulate_batch_many` — the batch API: ``(kernel, cost_model)``
  rows that may differ in schedule shape ``(D, N)`` and pass pipeline as
  well as in cost model and topology, returning iteration-level
  quantities only (:class:`BatchResult`), so the planner ranks *all*
  its survivors in a single call. Rows sharing a kernel vectorize in
  two wave sweeps, one over the contention-free rows and one over the
  inline-FIFO contended rows; every other row (fixed-point rows
  included) runs alone through :func:`_solve_row`, the per-row solver
  :func:`simulate_fast` uses. ``used_fast_path`` records, per row,
  whether the row's own channel occupancy is all zero (not which sweep
  ran: a contended full-duplex row also takes one sweep).

Both paths end in the engine's own ``_finalize`` semantics for
collective resolution and overlap accounting, so results match the event
engine to floating-point equality (the differential suites assert 1e-9)
— the kernel is a faster evaluator of the same model, never a second
model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import KernelConvergenceError, ScheduleError
from repro.common.gcpause import collector_paused
from repro.schedules.dependencies import (
    ACTIVATION,
    GRADIENT,
    TRANSFER,
    DependencyGraph,
    build_dependency_graph,
    levelize,
)
from repro.schedules.ir import Operation, Schedule
from repro.sim.cost import CostModel
from repro.sim.engine import (
    _ALLREDUCE,
    _PLAIN,
    _RECV,
    _SEND,
    SimulationResult,
    TimedOp,
    TransferRecord,
    _classify_ops,
    _finalize,
)

#: Cap on fixed-point sweeps before the kernel raises
#: :class:`~repro.common.errors.KernelConvergenceError`. Queueing delays
#: settle in a few sweeps once the channel order stabilizes. A chain of
#: blocking collectives, each pushed by a transfer and pushing the next,
#: settles in a few sweeps only because each sweep resolves a group
#: against the transfers it already put on the wire; with floors taken
#: from the previous sweep alone it takes one sweep per collective
#: (pipedream at W=2, D=2, N=256, a default-flags ``repro plan -P 4``
#: candidate, chains 512). The cap is a safety net, not a tuning knob.
MAX_RELAXATION_SWEEPS = 120

#: Structured layout of the per-operation table. ``shape`` indexes the
#: kernel's duration-class table (ops sharing a shape share a duration
#: under every cost model); ``wave`` is the op's level in the combined
#: dependency-plus-program-order DAG.
OP_DTYPE = np.dtype(
    [
        ("kind", np.int8),
        ("worker", np.int32),
        ("shape", np.int32),
        ("wave", np.int32),
    ]
)


def _first_seen(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of the key columns by first appearance.

    Returns each row's id and, per id, the index of its first row.
    """
    order = np.lexsort(keys[::-1])  # stable: equal rows keep row order
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    first = order[new]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, np.sort(first)


class ScheduleKernel:
    """Cost-model-independent array form of one dependency graph.

    Parallel arrays, all indexed by the graph's row-major op ids:

    ``ops``
        The :data:`OP_DTYPE` structured table.
    ``edge_src`` / ``edge_dst`` / ``edge_cls``
        The combined edge list — worker-order chains, local dependency
        edges, implicit cross-worker p2p edges, and lowered ``SEND → RECV``
        wire edges — sorted by the destination's topological position.
        ``edge_cls`` indexes the delay-class table (class 0 = no delay).
    ``order``
        Op ids in topological order (wave-major, id-minor).
    ``send_oid`` / ``send_worker`` / ``send_dst_w`` / ``send_units`` /
    ``send_row_pos``
        The per-SEND table, built once: everything the FIFO serialization
        and the occupancy hint need, with no per-call scan of the graph.

    The wave/segment offset arrays (``wave_op_ptr``, ``wave_edge_ptr``,
    ``red_off``, ``red_dst``, ``wave_red_ptr``, ``inc_ptr``) drive the two
    relaxation strategies; see :meth:`relax_scalar` and :meth:`relax`.

    The kernel reads the graph's op table and CSR edge tables directly
    and keeps nothing of the graph or the engine's dense form: only the
    per-op ``op_worker`` and ``row_pos`` lists, the ids of each sync
    group's members (``sync_groups``), one representative op per
    duration shape (``shape_reps``), and the schedule's stage and
    micro-batch counts, so it outlives the dependency graph it was built
    from and ranking reads nothing of the schedule.
    """

    def __init__(self, graph: DependencyGraph):
        ops_flat = graph.ops_flat
        total = len(ops_flat)
        self.total = total
        self.num_stages = graph.schedule.num_stages
        self.num_micro_batches = graph.schedule.num_micro_batches
        self.op_worker = graph.op_worker
        #: Position of each op in its worker's row (ids are row-major, so
        #: an op's row successor is id + 1).
        self.row_pos = graph.row_pos
        kind_code, host_dir, shapes = _classify_ops(ops_flat)
        code = np.array(kind_code, dtype=np.int8)
        #: Sync group key -> ids of its ALLREDUCE members, in the engine's
        #: member order (id order).
        groups: dict[tuple, list[int]] = {}
        for oid in np.flatnonzero(code == _ALLREDUCE).tolist():
            op = ops_flat[oid]
            groups.setdefault((op.stage, op.micro_batches), []).append(oid)
        self.sync_groups: dict[tuple, tuple[int, ...]] = {
            key: tuple(ids) for key, ids in groups.items()
        }

        # ---- shape classes (duration memoization across cost models) ----
        shape_id: dict[tuple, int] = {}
        op_shape = [shape_id.setdefault(shape, len(shape_id)) for shape in shapes]
        reps = np.unique(op_shape, return_index=True)[1].tolist()
        self.shape_reps: list[tuple[int, Operation]] = [
            (kind_code[oid], ops_flat[oid]) for oid in reps
        ]

        # ---- combined edge list -----------------------------------------
        # Worker-order chains first, then the graph's edges ordered by
        # (source, group, CSR slot). Group 0 is a local edge (no delay),
        # group 1 an implicit cross-worker p2p edge, group 2 a SEND's wire
        # (TRANSFER) edge; the graph builder gives each SEND one.
        worker = np.asarray(graph.op_worker, dtype=np.int64)
        ptr = np.asarray(graph.dep_ptr, dtype=np.int64)
        src = np.asarray(graph.dep_src, dtype=np.int64)
        kind = np.asarray(graph.dep_kind, dtype=np.int64)
        dst = np.repeat(np.arange(total), np.diff(ptr))
        remote = ((kind == ACTIVATION) | (kind == GRADIENT)) & (
            worker[src] != worker[dst]
        )
        group = np.where(kind == TRANSFER, 2, remote.astype(np.int64))
        keep = np.lexsort((group, src))  # stable: ties keep CSR slot order
        d_src, d_dst, d_group = src[keep], dst[keep], group[keep]
        d_units = np.asarray(graph.dep_units, dtype=np.float64)[keep]
        chain = np.flatnonzero(worker[1:] == worker[:-1])
        esrc = np.concatenate((chain, d_src))
        edst = np.concatenate((chain + 1, d_dst))
        num_edges = len(esrc)

        # Delay classes: distinct (src_worker, dst_worker, payload_units,
        # host_dir) tuples on delay-carrying edges, numbered in edge order.
        # host_dir is -1 for network edges and the transfer direction for
        # host-channel (OFFLOAD/RELOAD) wire edges, which are priced on
        # the cost model's host link instead of the topology. Class 0 is
        # the zero-delay class shared by program-order and local edges.
        op_host_dir = np.asarray(host_dir, dtype=np.int64)
        delayed = np.flatnonzero(d_group > 0)
        keys = (
            worker[d_src[delayed]],
            worker[d_dst[delayed]],
            d_units[delayed],
            np.where(d_group[delayed] == 2, op_host_dir[d_src[delayed]], -1),
        )
        cls, first = _first_seen(*keys)
        self.delay_classes: list[tuple[int, int, float, int]] = list(
            zip(*(key[first].tolist() for key in keys))
        )
        ecls = np.zeros(num_edges, dtype=np.int64)
        ecls[len(chain) + delayed] = cls + 1

        # ---- the per-kernel SEND table ----------------------------------
        # Everything per-cost-model send evaluation needs, in array form:
        # send_tables and the FIFO serialization never rescan the graph.
        wired = np.flatnonzero(d_group == 2)
        self.send_oid = d_src[wired]
        self.send_worker = worker[self.send_oid]
        self.send_dst_w = worker[d_dst[wired]]
        self.send_units = d_units[wired]
        self.send_row_pos = np.asarray(graph.row_pos, dtype=np.int64)[self.send_oid]
        #: Host-transfer direction per send (-1 network, 0 d2h, 1 h2d).
        self.send_host_dir = op_host_dir[self.send_oid]
        self.has_host_sends = bool((self.send_host_dir >= 0).any())
        #: Per-edge send-table index (-1 for non-TRANSFER edges); the
        #: contended sweeps add each SEND's queueing delay to its wire
        #: edge through this mapping.
        etr = np.full(num_edges, -1, dtype=np.int64)
        etr[len(chain) + wired] = np.arange(len(wired))
        #: Op id -> send-table index (-1 for non-SEND ops).
        send_of_op = np.full(total, -1, dtype=np.int64)
        send_of_op[self.send_oid] = np.arange(len(wired))
        self._send_of_op = send_of_op.tolist()
        # Full-duplex channels are single-source (channel (a, b) only ever
        # carries worker a's sends, whose end times are monotone in row
        # order), so the FIFO order per channel is static and contended
        # full-duplex schedules serialize inline in ONE sweep. Compact the
        # channel ids for dense per-channel cursor arrays. Host transfers
        # get their own compact channels above the worker-pair namespace —
        # one per (worker, direction), the full-host-duplex granularity
        # (half-duplex host channels route to the fixed point instead; see
        # :func:`_inline_fifo_ok`) — which keeps a worker's OFFLOADs off
        # the worker-pair diagonal id a network send would use.
        num_workers = graph.schedule.num_workers
        chan_full = self.send_worker * num_workers + self.send_dst_w
        if self.has_host_sends:
            host = self.send_host_dir >= 0
            chan_full = np.where(
                host,
                num_workers * num_workers
                + self.send_worker * 2
                + np.maximum(self.send_host_dir, 0),
                chan_full,
            )
        uniq, inverse = (
            np.unique(chan_full, return_inverse=True)
            if len(wired)
            else (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        )
        self.send_chan_idx = inverse
        self.num_channels = len(uniq)
        self._send_chan_list = inverse.tolist()

        # ---- wave levelization (Kahn over the combined DAG) -------------
        wave, _, stuck = levelize(esrc, edst, total)
        if stuck:
            # The validator guarantees acyclicity for every registered
            # scheme; reaching this means a hand-built schedule has a
            # dependency cycle.
            raise ScheduleError(
                f"kernel levelization stuck: {len(stuck)} ops sit on a "
                f"dependency cycle"
            )
        self.num_waves = max(wave, default=-1) + 1
        #: Whether the wave-vectorized sweeps amortize their per-wave numpy
        #: dispatch. Nearly-serial schedules (GEMS runs ~2 micro-batches in
        #: flight, so its critical chain covers most ops) levelize into
        #: thousands of 1-2 op waves, where a per-row scalar pass beats the
        #: batched sweep by 2x+; the batch paths route on this flag.
        self.wave_sweep_profitable = total >= 6 * max(1, self.num_waves)

        # ---- structured op table ----------------------------------------
        ops = np.zeros(total, dtype=OP_DTYPE)
        ops["kind"] = code
        ops["worker"] = worker
        ops["shape"] = op_shape
        ops["wave"] = wave
        self.ops = ops

        # Topological order: wave-major, id-minor.
        order = np.argsort(ops["wave"], kind="stable")
        pos_of = np.empty(total, dtype=np.int64)
        pos_of[order] = np.arange(total)

        # Edges sorted by the destination's topological position (ties in
        # edge-list order), so one sorted array serves both the scalar
        # pass (per-op CSR slices) and the wave pass (per-wave slices +
        # reduceat segments).
        edge_pos = pos_of[edst]
        eorder = np.argsort(edge_pos, kind="stable")
        self.edge_src = esrc[eorder]
        self.edge_dst = edst[eorder]
        self.edge_cls = ecls[eorder]
        edge_send = etr[eorder]
        #: Positions (in the sorted edge arrays) of the TRANSFER edges and
        #: the send-table index each one belongs to.
        self.tr_edge_pos = np.flatnonzero(edge_send >= 0)
        self.tr_edge_send = edge_send[self.tr_edge_pos]
        # edge_src with TRANSFER edges remapped to virtual wire slots
        # (total + send index): the scalar FIFO sweep extends its end
        # list with one slot per SEND holding that SEND's wire start, so
        # its inner loop is the branch-free one-add-per-edge body of
        # relax_scalar_delays.
        esrc_fifo = self.edge_src.copy()
        esrc_fifo[self.tr_edge_pos] = total + self.tr_edge_send
        self._esrc_fifo_list = esrc_fifo.tolist()
        # Scalar-path views (python lists index ~3x faster than ndarrays
        # in a tight interpreter loop).
        self._edge_src_list = self.edge_src.tolist()
        self._order_list = order.tolist()
        self._pos_of = pos_of.tolist()
        indeg_by_pos = np.bincount(edge_pos, minlength=total)
        self._inc_ptr = [0] + np.cumsum(indeg_by_pos).tolist()
        #: Per-op in-degree, aligned with ``order``. The scalar sweeps
        #: dispatch on it (straight-line bodies for the dominant degree-
        #: 1/2/3 ops instead of a ``range`` loop per op).
        self._indeg_list = indeg_by_pos.tolist()

        self.order = order
        wave_of_op = ops["wave"].astype(np.int64)
        waves = np.arange(self.num_waves + 1)
        self.wave_op_ptr = np.searchsorted(wave_of_op[self.order], waves)
        edge_wave = wave_of_op[self.edge_dst]
        self.wave_edge_ptr = np.searchsorted(edge_wave, waves)
        if num_edges:
            boundary = np.empty(num_edges, dtype=bool)
            boundary[0] = True
            boundary[1:] = self.edge_dst[1:] != self.edge_dst[:-1]
            self.red_off = np.flatnonzero(boundary)
            self.red_dst = self.edge_dst[self.red_off]
            self.wave_red_ptr = np.searchsorted(edge_wave[self.red_off], waves)
        else:  # pragma: no cover - every schedule has worker-order edges
            self.red_off = np.zeros(0, dtype=np.int64)
            self.red_dst = np.zeros(0, dtype=np.int64)
            self.wave_red_ptr = np.zeros(self.num_waves + 1, dtype=np.int64)
        # Per-wave slices for the inline FIFO sweep: the transfer edges
        # landing in each wave (their per-edge positions are wave-sorted
        # already) and the SEND ops completing in each wave. Full duplex
        # guarantees at most one send per channel per wave (program order
        # chains same-channel sends into strictly increasing waves), so
        # the per-wave channel-cursor update is a well-defined scatter.
        self.wave_tr_ptr = np.searchsorted(edge_wave[self.tr_edge_pos], waves)
        send_wave = wave_of_op[self.send_oid]
        by_wave = np.argsort(send_wave, kind="stable")
        self.send_by_wave = by_wave
        self.wave_send_ptr = np.searchsorted(send_wave[by_wave], waves)

        # ---- derived index sets ------------------------------------------
        kind = ops["kind"]
        self.compute_ids = np.flatnonzero(kind == _PLAIN)
        comp_worker = ops["worker"][self.compute_ids]
        by_worker = np.argsort(comp_worker, kind="stable")
        self.compute_by_worker = self.compute_ids[by_worker]
        self.num_workers = graph.schedule.num_workers
        self.worker_ptr = np.searchsorted(
            comp_worker[by_worker], np.arange(self.num_workers + 1)
        )
        self._blocking: _BlockingAux | None = None

    def __getstate__(self) -> dict:
        """Pickled state without the lazily built blocking aux, so a
        stored kernel's bytes do not depend on whether a blocking
        simulation ran before the write (it rebuilds on first use)."""
        return {**vars(self), "_blocking": None}

    # ------------------------------------------------------------ per-model
    def durations(self, cost_model: CostModel) -> np.ndarray:
        """Per-op durations under ``cost_model`` (via the shape classes)."""
        shape_durs = np.empty(len(self.shape_reps))
        for sid, (code, rep) in enumerate(self.shape_reps):
            if code == _ALLREDUCE:
                shape_durs[sid] = cost_model.sync_launch_overhead
            elif code == _SEND or code == _RECV:
                shape_durs[sid] = cost_model.comm_launch_overhead
            else:
                shape_durs[sid] = cost_model.compute_time(rep)
        return shape_durs[self.ops["shape"]]

    def class_delays(self, cost_model: CostModel) -> np.ndarray:
        """Edge-delay table under ``cost_model`` (class 0 stays zero)."""
        delays = np.zeros(len(self.delay_classes) + 1)
        for cid, (src_w, dst_w, units, hd) in enumerate(self.delay_classes, 1):
            if hd >= 0:
                delays[cid] = cost_model.host_time(units)
            else:
                delays[cid] = cost_model.p2p_time(src_w, dst_w, units)
        return delays

    def send_tables(
        self, cost_model: CostModel
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-SEND ``(wire_time, occupancy, channel_id)`` arrays.

        Built from the topology's array API (:meth:`link_table` /
        :meth:`channel_id_array`) over the kernel's static SEND table —
        O(sends) of vectorized work, no per-send Python loop. Host
        transfers (OFFLOAD/RELOAD) are priced on the cost model's host
        channel; their channel ids live at ``W**2 + worker*2 + dir``,
        above the worker-pair namespace. Channel id ``-1`` means no
        contention channel (free links, free host channel, or same-worker
        network endpoints); decode network ids as ``(id // W, id % W)``.
        """
        n = len(self.send_oid)
        wire = np.zeros(n)
        occupancy = np.zeros(n)
        chan = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return wire, occupancy, chan
        host = self.send_host_dir >= 0
        net = ~host
        topo = cost_model.topology
        if topo is not None and net.any():
            src_w = self.send_worker[net]
            dst_w = self.send_dst_w[net]
            alpha, beta = topo.link_table(src_w, dst_w)
            size = cost_model.activation_message_bytes * self.send_units[net]
            net_wire = alpha + beta * size
            net_occ = beta * size
            net_chan = topo.channel_id_array(src_w, dst_w, self.num_workers)
            same = src_w == dst_w
            if same.any():  # pragma: no cover - lowering never emits these
                net_wire = np.where(same, 0.0, net_wire)
                net_occ = np.where(same, 0.0, net_occ)
                net_chan = np.where(same, -1, net_chan)
            wire[net] = net_wire
            occupancy[net] = net_occ
            chan[net] = net_chan
        hc = cost_model.host_channel
        if hc is not None and self.has_host_sends:
            size = cost_model.host_bytes(self.send_units[host])
            wire[host] = hc.link.alpha + hc.link.beta * size
            occupancy[host] = hc.link.beta * size
            dirs = self.send_host_dir[host]
            code = np.zeros_like(dirs) if hc.duplex == "half" else dirs
            chan[host] = (
                self.num_workers * self.num_workers
                + self.send_worker[host] * 2
                + code
            )
        return wire, occupancy, chan

    # ------------------------------------------------------- blocking aux
    def blocking_aux(self) -> "_BlockingAux":
        """The blocking-collective structures, built lazily and cached."""
        if self._blocking is None:
            self._blocking = _BlockingAux(self)
        return self._blocking

    # ----------------------------------------------------------- relaxation
    def relax_scalar(
        self, durations: np.ndarray, delays: np.ndarray
    ) -> tuple[list[float], list[float]]:
        """Single-model longest-path pass; returns (start, end) lists.

        Materializes the per-edge delay list up front (one vectorized
        gather) so the interpreter loop never touches the class table.
        """
        edl = delays[self.edge_cls]
        return self.relax_scalar_delays(durations.tolist(), edl.tolist())

    def relax_scalar_delays(
        self, dur: list[float], edge_delay: list[float]
    ) -> tuple[list[float], list[float]]:
        """Scalar pass with a fully materialized per-edge delay list.

        The contended sweep: transfer edges carry their class delay plus
        the current per-SEND queueing delay, everything else is as
        :meth:`relax_scalar`. The edge cursor ``e`` advances linearly
        (edges are sorted by destination position), and the in-degree
        dispatch runs straight-line bodies for the dominant degree-1/2/3
        ops — roughly a quarter off the interpreter cost per op versus a
        ``range`` inner loop.
        """
        edl = edge_delay
        esrc = self._edge_src_list
        start = [0.0] * self.total
        end = [0.0] * self.total
        e = 0
        for oid, n in zip(self._order_list, self._indeg_list):
            if n == 2:
                ready = end[esrc[e]] + edl[e]
                e += 1
                t = end[esrc[e]] + edl[e]
                e += 1
                if t > ready:
                    ready = t
            elif n == 3:
                ready = end[esrc[e]] + edl[e]
                e += 1
                t = end[esrc[e]] + edl[e]
                e += 1
                if t > ready:
                    ready = t
                t = end[esrc[e]] + edl[e]
                e += 1
                if t > ready:
                    ready = t
            elif n == 1:
                ready = end[esrc[e]] + edl[e]
                e += 1
            elif n == 0:
                ready = 0.0
            else:
                ready = 0.0
                for _ in range(n):
                    t = end[esrc[e]] + edl[e]
                    if t > ready:
                        ready = t
                    e += 1
            start[oid] = ready
            end[oid] = ready + dur[oid]
        return start, end

    def relax_scalar_fifo(
        self,
        durations: np.ndarray,
        delays: np.ndarray,
        wire: np.ndarray,
        occupancy: np.ndarray,
    ) -> tuple[list[float], list[float], np.ndarray]:
        """Single-model contended sweep with inline FIFO serialization.

        Valid for full-duplex topologies only: each channel's FIFO order
        is its source worker's row order, which every topological order
        respects, so channel cursors can be updated the moment each SEND
        completes — one sweep, no fixed point. Transfer edges read their
        SEND's wire start through the virtual slots appended to ``end``
        (``_esrc_fifo_list``), keeping the inner loop branch-free: one
        indexed add per edge. Returns ``(start, end, wire_start)``.
        """
        dur = durations.tolist()
        edge_delay = delays[self.edge_cls]
        if len(self.tr_edge_pos):
            edge_delay[self.tr_edge_pos] = wire[self.tr_edge_send]
        edl = edge_delay.tolist()
        occ_l = occupancy.tolist()
        esrc = self._esrc_fifo_list
        send_of_op = self._send_of_op
        chan_idx = self._send_chan_list
        total = self.total
        start = [0.0] * total
        end = [0.0] * (total + len(occ_l))
        chan_free = [0.0] * self.num_channels
        e = 0
        for oid, n in zip(self._order_list, self._indeg_list):
            if n == 2:
                ready = end[esrc[e]] + edl[e]
                e += 1
                t = end[esrc[e]] + edl[e]
                e += 1
                if t > ready:
                    ready = t
            elif n == 3:
                ready = end[esrc[e]] + edl[e]
                e += 1
                t = end[esrc[e]] + edl[e]
                e += 1
                if t > ready:
                    ready = t
                t = end[esrc[e]] + edl[e]
                e += 1
                if t > ready:
                    ready = t
            elif n == 1:
                ready = end[esrc[e]] + edl[e]
                e += 1
            elif n == 0:
                ready = 0.0
            else:
                ready = 0.0
                for _ in range(n):
                    t = end[esrc[e]] + edl[e]
                    if t > ready:
                        ready = t
                    e += 1
            start[oid] = ready
            end_t = ready + dur[oid]
            end[oid] = end_t
            sidx = send_of_op[oid]
            if sidx >= 0:
                c = chan_idx[sidx]
                free = chan_free[c]
                wire_t = end_t if end_t >= free else free
                chan_free[c] = wire_t + occ_l[sidx]
                end[total + sidx] = wire_t
        return start, end[:total], np.asarray(end[total:])

    def relax(
        self, durations: np.ndarray, delays: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched longest-path pass over ``K`` contention-free models.

        ``durations`` is ``(K, total)`` and ``delays`` the per-class
        tables, ``(K, classes+1)``. Returns ``(start, end)`` as
        ``(K, total)`` arrays. Each wave is a handful of vectorized
        operations regardless of ``K``, which is where the batch API's
        throughput comes from.
        """
        k = durations.shape[0]
        start = np.zeros((k, self.total))
        end = np.zeros((k, self.total))
        edge_delays = delays[:, self.edge_cls]
        esrc = self.edge_src
        order = self.order
        wop = self.wave_op_ptr
        wep = self.wave_edge_ptr
        wrp = self.wave_red_ptr
        red_off = self.red_off
        red_dst = self.red_dst
        for w in range(self.num_waves):
            lo, hi = wep[w], wep[w + 1]
            if lo < hi:
                contrib = end[:, esrc[lo:hi]] + edge_delays[:, lo:hi]
                segments = red_off[wrp[w] : wrp[w + 1]] - lo
                start[:, red_dst[wrp[w] : wrp[w + 1]]] = np.maximum.reduceat(
                    contrib, segments, axis=1
                )
            ops = order[wop[w] : wop[w + 1]]
            end[:, ops] = start[:, ops] + durations[:, ops]
        return start, end

    def relax_fifo(
        self,
        durations: np.ndarray,
        delays: np.ndarray,
        wire: np.ndarray,
        occupancy: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched contended sweep with inline FIFO serialization.

        The ``K``-model analogue of :meth:`relax_scalar_fifo` (full-duplex
        rows only): per-wave, transfer-edge contributions read the wire
        arrival ``wire_start + wire_time`` instead of the class delay, and
        the sends completing in the wave advance their channel cursors in
        one vectorized scatter (full duplex guarantees one send per
        channel per wave). ``wire`` / ``occupancy`` are ``(K, sends)``
        tables. Returns ``(start, end, wire_start)``.
        """
        k = durations.shape[0]
        start = np.zeros((k, self.total))
        end = np.zeros((k, self.total))
        edge_delays = delays[:, self.edge_cls]
        n_send = len(self.send_oid)
        wire_start = np.zeros((k, n_send))
        chan_free = np.zeros((k, self.num_channels))
        esrc = self.edge_src
        order = self.order
        soid = self.send_oid
        scidx = self.send_chan_idx
        wop = self.wave_op_ptr
        wep = self.wave_edge_ptr
        wrp = self.wave_red_ptr
        wtp = self.wave_tr_ptr
        wsp = self.wave_send_ptr
        red_off = self.red_off
        red_dst = self.red_dst
        tpos = self.tr_edge_pos
        tsend = self.tr_edge_send
        sbw = self.send_by_wave
        for w in range(self.num_waves):
            lo, hi = wep[w], wep[w + 1]
            if lo < hi:
                contrib = end[:, esrc[lo:hi]] + edge_delays[:, lo:hi]
                t0, t1 = wtp[w], wtp[w + 1]
                if t0 < t1:
                    sends = tsend[t0:t1]
                    contrib[:, tpos[t0:t1] - lo] = (
                        wire_start[:, sends] + wire[:, sends]
                    )
                segments = red_off[wrp[w] : wrp[w + 1]] - lo
                start[:, red_dst[wrp[w] : wrp[w + 1]]] = np.maximum.reduceat(
                    contrib, segments, axis=1
                )
            ops = order[wop[w] : wop[w + 1]]
            end[:, ops] = start[:, ops] + durations[:, ops]
            s0, s1 = wsp[w], wsp[w + 1]
            if s0 < s1:
                sends = sbw[s0:s1]
                cursors = scidx[sends]
                ws = np.maximum(end[:, soid[sends]], chan_free[:, cursors])
                chan_free[:, cursors] = ws + occupancy[:, sends]
                wire_start[:, sends] = ws
        return start, end, wire_start


class _BlockingAux:
    """Precomputed structures for blocking-collective resolution.

    Blocking semantics in the event engine: a worker that launches an
    ``ALLREDUCE`` blocks until every group member has launched and the
    collective completes; resolution releases each member's program-order
    successor at ``max(own end, collective end)``. In DAG terms that is a
    barrier — every member's launch precedes every member's successor —
    so the kernel levelizes an *augmented* DAG (base edges plus
    member -> successor edges) once, and a single sweep over that order
    can resolve each group the moment its last member is processed. A
    cycle in the augmented DAG is exactly a blocking deadlock; it raises
    :class:`~repro.common.errors.ScheduleError` like the engine does.
    """

    def __init__(self, kernel: ScheduleKernel):
        total = kernel.total
        op_worker = kernel.op_worker
        #: Group index of each op's ALLREDUCE membership (-1 otherwise).
        self.member_group = [-1] * total
        #: Groups whose resolution floors this op's start (the op is the
        #: program-order successor of a member); None for most ops.
        self.release_groups: list[tuple[int, ...] | None] = [None] * total
        self.group_keys: list[tuple] = []
        self.group_stage: list[int] = []
        self.group_workers: list[tuple[int, ...]] = []
        self.member_counts: list[int] = []
        member_lists: list[list[int]] = []

        aug_edges: list[tuple[int, int]] = []
        for group_key, mids in kernel.sync_groups.items():
            g = len(self.group_keys)
            self.group_keys.append(group_key)
            self.group_stage.append(group_key[0])
            self.group_workers.append(tuple(op_worker[m] for m in mids))
            member_lists.append(mids)
            self.member_counts.append(len(mids))
            successors = []
            for m in mids:
                self.member_group[m] = g
                # Dense ids are row-major: the row successor is m + 1.
                if m + 1 < total and op_worker[m + 1] == op_worker[m]:
                    successors.append(m + 1)
            for s in successors:
                held = self.release_groups[s]
                self.release_groups[s] = (
                    (g,) if held is None else held + (g,)
                )
                for m in mids:
                    aug_edges.append((m, s))
        self.member_ids = member_lists

        # Levelize the base edges plus the group barriers: per source,
        # base edges keep the kernel's edge order and barriers follow.
        aug = np.asarray(aug_edges, dtype=np.int64).reshape(-1, 2)
        _, order, stuck = levelize(
            np.concatenate((kernel.edge_src, aug[:, 0])),
            np.concatenate((kernel.edge_dst, aug[:, 1])),
            total,
        )
        if stuck:
            raise ScheduleError(
                f"blocking collectives deadlock: {len(stuck)} ops "
                f"depend on a collective that can never resolve"
            )
        self.order = order


def kernel_of(graph: DependencyGraph | ScheduleKernel) -> ScheduleKernel:
    """The graph's array kernel, built once and cached on the graph.

    The build runs with the cyclic collector paused.
    :meth:`~repro.schedules.cache.ScheduleArtifacts.kernel_for` keeps the
    kernel, lets the graph go and writes the kernel to the disk tier, so
    a restarted process restores it instead of building it. Given a
    kernel (a kept or restored one), this returns it, so every kernel
    lookup passes through one function.
    """
    if not isinstance(graph, DependencyGraph):
        return graph  # already a kernel
    kernel = getattr(graph, "_kernel", None)
    if kernel is None:
        with collector_paused():
            kernel = ScheduleKernel(graph)
        graph._kernel = kernel  # type: ignore[attr-defined]
    return kernel


def simulate_fast(
    schedule: Schedule,
    cost_model: CostModel,
    *,
    kernel: ScheduleKernel | None = None,
    blocking_sync: bool = False,
) -> SimulationResult:
    """Simulate one iteration on the array kernel (:func:`repro.simulate`).

    Produces a full :class:`~repro.sim.engine.SimulationResult` (timed
    ops, transfers, collectives) identical to the event engine's for
    every registered scheme × pass pipeline × cost model — contended
    lowered schedules and blocking collectives stay on the kernel
    (:func:`_solve_row` picks the row's sweep) instead of falling back
    to the event engine. ``kernel``
    is ``schedule``'s kernel (e.g. from
    :meth:`~repro.schedules.cache.ScheduleArtifacts.kernel_for`); it is
    built from a fresh dependency graph when absent.
    """
    if kernel is None:
        kernel = kernel_of(build_dependency_graph(schedule))
    tables = kernel.send_tables(cost_model)
    start, end, wire_start, resolved = _solve_row(
        kernel, cost_model, kernel.durations(cost_model), tables, blocking_sync
    )
    wire, occupancy, chan = tables
    return _assemble_result(
        kernel,
        schedule,
        cost_model,
        start,
        end,
        wire_start=wire_start,
        wire_time=wire,
        occupancy=occupancy,
        chan=chan,
        resolved=resolved,
        blocking_sync=blocking_sync,
    )


def _solve_row(
    kernel: ScheduleKernel,
    cost_model: CostModel,
    durations: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    blocking_sync: bool = False,
) -> tuple[list[float], list[float], np.ndarray, dict | None]:
    """One row's ``(start, end, wire_start, resolved)`` under its regime.

    The one place a row's regime is chosen: one scalar sweep when no
    transfer queues, the inline-FIFO sweep when transfers queue on
    channels whose order is static (:func:`_inline_fifo_ok`), and the
    fixed point (:func:`_solve_scalar`) for half-duplex channels or
    blocking collectives. ``tables`` is :meth:`ScheduleKernel.send_tables`
    under ``cost_model``.
    """
    wire, occupancy, chan = tables
    contended = bool((occupancy > 0.0).any())
    if not contended and not blocking_sync:
        start, end = kernel.relax_scalar(durations, kernel.class_delays(cost_model))
        return start, end, np.asarray(end)[kernel.send_oid], None
    if not blocking_sync and _inline_fifo_ok(kernel, cost_model):
        start, end, wire_start = kernel.relax_scalar_fifo(
            durations, kernel.class_delays(cost_model), wire, occupancy
        )
        return start, end, wire_start, None
    return _solve_scalar(kernel, cost_model, durations, occupancy, chan, blocking_sync)


def _inline_fifo_ok(kernel: ScheduleKernel, cost_model: CostModel) -> bool:
    """Whether the one-sweep inline-FIFO paths apply to this row.

    Requires a full-duplex topology, and — when the schedule carries host
    transfers — a full-duplex host channel: the kernel's static channel
    compaction splits each worker's host traffic by direction, which is
    only the true contention granularity under full host duplex. A
    half-duplex host channel interleaves the worker's offloads and
    reloads on one engine, so those rows take the fixed point (which
    serializes against the cost model's own channel ids and handles any
    duplex exactly).
    """
    if getattr(cost_model.topology, "duplex", "full") != "full":
        return False
    if (
        kernel.has_host_sends
        and cost_model.host_channel is not None
        and cost_model.host_channel.duplex == "half"
    ):
        return False
    return True


def _serialize_channels(
    kernel: ScheduleKernel,
    send_end: np.ndarray,
    occupancy: np.ndarray,
    chan: np.ndarray,
) -> np.ndarray:
    """Wire-start times from one FIFO pass over the per-channel arrays.

    Transfers enter their channel in the engine's event-pop order —
    sorted by ``(send_end, worker, row position)`` — and each waits for
    the channel to drain: ``wire_start = max(send_end, channel_free)``,
    ``channel_free = wire_start + occupancy``.
    """
    n = len(send_end)
    wire_start = np.empty(n)
    order = np.lexsort((kernel.send_row_pos, kernel.send_worker, send_end))
    ends = send_end.tolist()
    occ = occupancy.tolist()
    chans = chan.tolist()
    out = wire_start  # local alias for the loop
    chan_free: dict[int, float] = {}
    for i in order.tolist():
        e = ends[i]
        c = chans[i]
        if c < 0:
            out[i] = e
            continue
        free = chan_free.get(c, 0.0)
        ws = e if e >= free else free
        chan_free[c] = ws + occ[i]
        out[i] = ws
    return wire_start


def _blocking_floors(
    kernel: ScheduleKernel,
    aux: _BlockingAux,
    start: list[float],
    end: list[float],
    send_end: np.ndarray,
    wire_start: np.ndarray,
    occupancy: np.ndarray,
) -> np.ndarray:
    """Per-group collective start floors under p2p contention.

    Replicates the event loop's ``resolve_group``: the collective starts
    at ``max(member launch starts)`` pushed past the occupancy intervals
    of every transfer already on the wire when the group resolved. "On
    the wire" is a visibility cutoff in event-pop order: only SENDs whose
    ``(end, worker, row position)`` sorts strictly before the resolving
    member's own pop key had entered the channel.

    One pass: the NIC-busy sends are sorted once by pop key and the
    groups visited in cutoff order, so each send joins the per-worker
    busy runs (:func:`_add_busy`) once, when it first becomes visible.
    """
    op_worker = kernel.op_worker
    row_pos = kernel.row_pos
    cutoffs = [
        max((end[m], op_worker[m], row_pos[m]) for m in mids)
        for mids in aux.member_ids
    ]
    busy = _busy_sends(kernel, occupancy)
    s_w = kernel.send_worker
    s_pos = kernel.send_row_pos
    order = busy[np.lexsort((s_pos[busy], s_w[busy], send_end[busy]))]
    senders = s_w[order].tolist()
    keys = list(zip(send_end[order].tolist(), senders, s_pos[order].tolist()))
    ws = wire_start[order]
    intervals = list(
        zip(
            ws.tolist(),
            (ws + occupancy[order]).tolist(),
            senders,
            kernel.send_dst_w[order].tolist(),
        )
    )
    n = len(keys)
    runs: dict[int, tuple[list[float], list[float]]] = {}
    floors = np.zeros(len(cutoffs))
    i = 0
    for g in sorted(range(len(cutoffs)), key=cutoffs.__getitem__):
        cutoff = cutoffs[g]
        while i < n and keys[i] < cutoff:
            s, e, src, dst = intervals[i]
            _add_busy(runs, src, s, e)
            _add_busy(runs, dst, s, e)
            i += 1
        raw = max(start[m] for m in aux.member_ids[g])
        floors[g] = _clear_sorted(raw, aux.group_workers[g], runs)
    return floors


class _SweepSends:
    """What a blocking sweep knows of the NIC-busy transfers.

    The static send table, plus the previous sweep's send ends, wire
    starts and queueing delays (:meth:`observe`), so a sweep can put each
    busy transfer on the wire the moment its SEND completes
    (:func:`_sweep_blocking`). Only workers with a collective collect
    transfers.
    """

    def __init__(
        self, kernel: ScheduleKernel, aux: _BlockingAux, occupancy: np.ndarray
    ):
        busy = _busy_sends(kernel, occupancy)
        #: Send-table index of each op that is a busy SEND (-1 otherwise).
        self.send_of = [-1] * kernel.total
        for k, oid in zip(busy.tolist(), kernel.send_oid[busy].tolist()):
            self.send_of[oid] = k
        self.worker = kernel.send_worker.tolist()
        self.dst = kernel.send_dst_w.tolist()
        self.row_pos = kernel.send_row_pos.tolist()
        self.occupancy = occupancy.tolist()
        self.members = {w for workers in aux.group_workers for w in workers}
        n = len(self.worker)
        # No sweep yet: no end matches, so every transfer starts unqueued.
        self.send_end = [float("nan")] * n
        self.wire_start = [0.0] * n
        self.extras = [0.0] * n

    def observe(
        self, send_end: np.ndarray, wire_start: np.ndarray, extras: np.ndarray
    ) -> None:
        """Record one sweep's send ends, wire starts and queueing delays."""
        self.send_end = send_end.tolist()
        self.wire_start = wire_start.tolist()
        self.extras = extras.tolist()

    def on_wire(self) -> dict[int, list]:
        """Empty per-worker transfer lists for a new sweep."""
        return {w: [] for w in self.members}

    def put_on_wire(self, k: int, end: float, on_wire: dict[int, list]) -> None:
        """Put busy send ``k``, completed at ``end``, on its endpoints' lists.

        Its wire start is the previous sweep's if ``end`` did not move,
        so at the fixed point it is the serialized one bitwise; else the
        previous queueing delay carries over.
        """
        if end == self.send_end[k]:
            ws = self.wire_start[k]
        else:
            ws = end + self.extras[k]
        item = ((end, self.worker[k], self.row_pos[k]), ws, ws + self.occupancy[k])
        for w in (self.worker[k], self.dst[k]):
            if w in on_wire:
                on_wire[w].append(item)


def _sweep_blocking(
    kernel: ScheduleKernel,
    aux: _BlockingAux,
    dur: list[float],
    edge_delay: list[float],
    floors: list[float],
    ar_cost: list[float],
    sends: _SweepSends | None = None,
) -> tuple[
    list[float], list[float], list[float], list[float], list[float]
]:
    """One longest-path sweep that resolves blocking collectives inline.

    Runs over the augmented topological order, so when a group's last
    member is processed every launch time is known: the collective starts
    at ``max(max launch start, floor)`` (the floor carries the
    transfer-contention push from the outer fixed point) and its end
    releases the members' successors.

    With ``sends`` (contended rows), each busy SEND the sweep completes
    goes on the wire at once (:meth:`_SweepSends.put_on_wire`), and a
    resolving group is also pushed past the transfers already visible to
    it in pop order (:func:`_clear_on_wire`). A push from one collective
    then reaches the next in the same sweep instead of one sweep later.
    At the fixed point those wire starts are the serialized ones and the
    visible set is a subset of :func:`_blocking_floors`' set, so the push
    never exceeds the exact floor and the fixed point is unchanged.
    """
    esrc = kernel._edge_src_list
    inc_ptr = kernel._inc_ptr
    pos_of = kernel._pos_of
    member_group = aux.member_group
    release_groups = aux.release_groups
    remaining = list(aux.member_counts)
    g_count = len(remaining)
    launch_max = [0.0] * g_count
    g_start = [0.0] * g_count
    g_end = [0.0] * g_count
    start = [0.0] * kernel.total
    end = [0.0] * kernel.total
    send_of = None if sends is None else sends.send_of
    #: Per member worker: (pop key, wire start, wire end) of the busy
    #: transfers on its interface that may still push a collective.
    on_wire: dict[int, list] = {} if sends is None else sends.on_wire()
    for oid in aux.order:
        pos = pos_of[oid]
        ready = 0.0
        for e in range(inc_ptr[pos], inc_ptr[pos + 1]):
            t = end[esrc[e]] + edge_delay[e]
            if t > ready:
                ready = t
        held = release_groups[oid]
        if held is not None:
            for g in held:
                if g_end[g] > ready:
                    ready = g_end[g]
        start[oid] = ready
        finish = ready + dur[oid]
        end[oid] = finish
        if send_of is not None and send_of[oid] >= 0:
            sends.put_on_wire(send_of[oid], finish, on_wire)
        g = member_group[oid]
        if g >= 0:
            if ready > launch_max[g]:
                launch_max[g] = ready
            remaining[g] -= 1
            if remaining[g] == 0:
                s = launch_max[g] if launch_max[g] > floors[g] else floors[g]
                if send_of is not None:
                    s = _clear_on_wire(kernel, aux, g, start, end, on_wire, s)
                g_start[g] = s
                g_end[g] = s + ar_cost[g]
    return start, end, g_start, g_end, launch_max


def _clear_on_wire(
    kernel: ScheduleKernel,
    aux: _BlockingAux,
    g: int,
    start: list[float],
    end: list[float],
    on_wire: dict[int, list],
    begin: float,
) -> float:
    """Push group ``g``'s ``begin`` past the transfers a sweep put on the wire.

    Only transfers whose pop key sorts before the group's cutoff count.
    A transfer that ends by a member's start can push no collective on
    that worker from then on, so it leaves the worker's list.
    """
    op_worker = kernel.op_worker
    row_pos = kernel.row_pos
    mids = aux.member_ids[g]
    cutoff = max((end[m], op_worker[m], row_pos[m]) for m in mids)
    runs: dict[int, tuple[list[float], list[float]]] = {}
    for m in mids:
        w = op_worker[m]
        live = [item for item in on_wire[w] if item[2] > start[m]]
        on_wire[w] = live
        for key, s, e in live:
            if key < cutoff and e > begin:
                _add_busy(runs, w, s, e)
    return _clear_sorted(begin, aux.group_workers[g], runs)


def _solve_scalar(
    kernel: ScheduleKernel,
    cost_model: CostModel,
    durations: np.ndarray,
    occupancy: np.ndarray,
    chan: np.ndarray,
    blocking_sync: bool,
) -> tuple[list[float], list[float], np.ndarray, dict | None]:
    """Fixed-point relaxation for one cost model (contended/blocking).

    Iterates [sweep with current queueing delays and collective floors]
    -> [re-serialize channels, re-resolve collectives] until both are
    exactly stable, then returns ``(start, end, wire_start, resolved)``.
    Raises :class:`KernelConvergenceError` at the sweep cap.
    """
    dur = durations.tolist()
    base_edge = kernel.class_delays(cost_model)[kernel.edge_cls]
    tr_pos = kernel.tr_edge_pos
    tr_send = kernel.tr_edge_send
    n_send = len(kernel.send_oid)
    extras = np.zeros(n_send)
    aux = kernel.blocking_aux() if blocking_sync else None
    sends = None
    if aux is not None:
        ar_cost = [
            cost_model.allreduce_time(aux.group_stage[g], aux.group_workers[g])
            for g in range(len(aux.group_keys))
        ]
        floors = np.zeros(len(aux.group_keys))
        if _busy_sends(kernel, occupancy).size:
            sends = _SweepSends(kernel, aux, occupancy)
    moved_starts = 0
    for _ in range(MAX_RELAXATION_SWEEPS):
        edge_delay = base_edge.copy()
        if n_send:
            edge_delay[tr_pos] += extras[tr_send]
        edl = edge_delay.tolist()
        if aux is not None:
            start, end, g_start, g_end, launch_max = _sweep_blocking(
                kernel, aux, dur, edl, floors.tolist(), ar_cost, sends
            )
        else:
            start, end = kernel.relax_scalar_delays(dur, edl)
            g_start = g_end = launch_max = None
        if n_send:
            send_end = np.asarray(end)[kernel.send_oid]
            wire_start = _serialize_channels(kernel, send_end, occupancy, chan)
            new_extras = wire_start - send_end
        else:
            send_end = np.zeros(0)
            wire_start = np.zeros(0)
            new_extras = extras
        moved_delays = int(np.count_nonzero(new_extras != extras))
        if aux is not None and len(aux.group_keys):
            new_floors = _blocking_floors(
                kernel, aux, start, end, send_end, wire_start, occupancy
            )
            # Stability of the *effective* collective starts, not the raw
            # floor values: the sweep started each group at g_start, and
            # it is consistent iff that equals max(launch_max, new floor) —
            # an uncontended floor below max(launches) converges on the
            # first sweep, and a floor that *dropped* is caught too.
            moved_starts = sum(
                max(new_floors[g], launch_max[g]) != g_start[g]
                for g in range(len(aux.group_keys))
            )
            if not moved_delays and not moved_starts:
                resolved = {
                    aux.group_keys[g]: (g_start[g], g_end[g])
                    for g in range(len(aux.group_keys))
                }
                return start, end, wire_start, resolved
            floors = np.maximum(new_floors, 0.0)
        elif not moved_delays:
            resolved = {} if blocking_sync else None
            return start, end, wire_start, resolved
        extras = new_extras
        if sends is not None:
            sends.observe(send_end, wire_start, extras)
    raise KernelConvergenceError(
        f"fixed-point relaxation did not converge within "
        f"{MAX_RELAXATION_SWEEPS} sweeps ({kernel.total} ops, "
        f"{n_send} transfers): the last sweep still changed "
        f"{moved_delays} queueing delays and {moved_starts} collective starts"
    )


def _assemble_result(
    kernel: ScheduleKernel,
    schedule: Schedule,
    cost_model: CostModel,
    start: Sequence[float],
    end: Sequence[float],
    *,
    wire_start: np.ndarray,
    wire_time: np.ndarray,
    occupancy: np.ndarray,
    chan: np.ndarray,
    resolved: dict | None,
    blocking_sync: bool,
) -> SimulationResult:
    """Build the full result from kernel times via the engine's finalizer."""
    # Op ids are row-major: id order is the schedule's worker rows in turn.
    ops_flat = [op for row in schedule.worker_ops for op in row]
    op_worker = kernel.op_worker
    timed = {}
    for oid, op in enumerate(ops_flat):
        timed[op.key()] = TimedOp(op, op_worker[oid], start[oid], end[oid])

    sync_members: dict[tuple, list[tuple[int, Operation]]] = {}
    sync_launches: dict[tuple, dict[int, float]] = {}
    for group_key, mids in kernel.sync_groups.items():
        sync_members[group_key] = [(op_worker[m], ops_flat[m]) for m in mids]
        sync_launches[group_key] = {op_worker[m]: start[m] for m in mids}

    num_workers = kernel.num_workers
    transfers: list[TransferRecord] = []
    for idx, oid in enumerate(kernel.send_oid.tolist()):
        op = ops_flat[oid]
        ws = float(wire_start[idx])
        cid = int(chan[idx])
        if cid < 0:
            channel = None
        elif cid >= num_workers * num_workers:
            # Host-channel id: decode through the cost model's channel so
            # the tuple matches the engine's host_channel_key verbatim.
            channel = cost_model.host_channel.decode_channel_id(
                cid, num_workers
            )
        else:
            channel = (cid // num_workers, cid % num_workers)
        transfers.append(
            TransferRecord(
                src_worker=int(kernel.send_worker[idx]),
                dst_worker=int(kernel.send_dst_w[idx]),
                payload=op.payload,
                micro_batches=op.micro_batches,
                part=op.part,
                start=ws,
                end=ws + float(wire_time[idx]),
                occupancy=float(occupancy[idx]),
                channel=channel,
                op_index=kernel.row_pos[oid],
            )
        )

    compute_makespan = 0.0
    for oid in kernel.compute_ids.tolist():
        if end[oid] > compute_makespan:
            compute_makespan = end[oid]
    return _finalize(
        schedule,
        cost_model,
        timed,
        sync_members,
        sync_launches,
        transfers,
        blocking_sync=blocking_sync,
        compute_makespan=compute_makespan,
        resolved=resolved,
    )


@dataclass(frozen=True)
class BatchResult:
    """Row-indexed results from one :func:`simulate_batch_many` call.

    Rows may come from *different schedules* (heterogeneous ``(D, N)``
    shapes and pass pipelines), so the per-worker busy arrays are a tuple
    of per-row vectors. ``num_micro_batches[k]`` is row ``k``'s
    micro-batch count, read from its kernel. ``used_fast_path[k]`` is
    True when row ``k``'s cost model puts zero occupancy on every
    channel (contention-free) and False otherwise. It does not say which
    sweep ran: a contended full-duplex row also solves in one sweep.
    Every row is engine-exact either way.
    """

    num_micro_batches: tuple[int, ...]
    cost_models: tuple[CostModel, ...]
    compute_makespan: np.ndarray
    iteration_time: np.ndarray
    worker_busy: tuple[np.ndarray, ...]
    used_fast_path: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.cost_models)

    def bubble_ratio(self, k: int) -> float:
        """Mean idle fraction against the compute makespan (sync schemes)."""
        makespan = float(self.compute_makespan[k])
        if makespan <= 0:
            return 0.0
        ratios = [
            max(0.0, 1.0 - busy / makespan)
            for busy in self.worker_busy[k].tolist()
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0

    def throughput(self, k: int, *, micro_batch: int, width: int = 1) -> float:
        """Samples/second under row ``k``'s schedule and cost model."""
        iteration = float(self.iteration_time[k])
        if iteration <= 0:
            return float("inf")
        samples = self.num_micro_batches[k] * micro_batch * width
        return samples / iteration


def simulate_batch_many(
    rows: Sequence[tuple[ScheduleKernel, CostModel]],
) -> BatchResult:
    """Evaluate heterogeneous ``(kernel, cost_model)`` rows in one call.

    A row names its schedule by its kernel (e.g. from
    :meth:`~repro.schedules.cache.ScheduleArtifacts.kernel_for`, or
    ``kernel_of(build_dependency_graph(schedule))`` for an uncached
    schedule). Rows may differ in schedule shape — depth ``D``,
    micro-batch count ``N``, pass pipeline — as well as in cost model and
    topology. The batch path never materializes per-op ``TimedOp``
    dictionaries; it returns the iteration-level quantities ranking needs
    (makespan, iteration time, per-worker busy seconds and micro-batch
    counts), so a row reads nothing of its schedule. Rows sharing
    a kernel vectorize together where the kernel's levelization pays for
    it: contention-free rows share one wave-vectorized sweep, and
    contended rows on full-duplex channels share one inline-FIFO wave
    sweep. Fixed-point rows (half-duplex channels) run one at a time,
    exactly as :func:`simulate_fast` runs them. Distinct shapes evaluate
    against their own cached kernels within the same call. This is the
    planner's ranking primitive: all memory-feasible survivors, one call.
    """
    if not rows:
        raise ValueError("simulate_batch_many needs at least one row")
    kernels = [kernel for kernel, _ in rows]

    # Group rows by kernel identity, preserving each row's position.
    group_rows: dict[int, list[int]] = {}
    for k, kernel in enumerate(kernels):
        group_rows.setdefault(id(kernel), []).append(k)

    n = len(rows)
    makespan = np.zeros(n)
    iteration = np.zeros(n)
    busy: list[np.ndarray | None] = [None] * n
    hints = [True] * n
    for group in group_rows.values():
        kernel = kernels[group[0]]
        models = tuple(rows[k][1] for k in group)
        g_mk, g_it, g_busy, g_hints = _batch_rows(kernel, models)
        for j, k in enumerate(group):
            makespan[k] = g_mk[j]
            iteration[k] = g_it[j]
            busy[k] = g_busy[j]
            hints[k] = g_hints[j]
    return BatchResult(
        num_micro_batches=tuple(kernel.num_micro_batches for kernel in kernels),
        cost_models=tuple(model for _, model in rows),
        compute_makespan=makespan,
        iteration_time=iteration,
        worker_busy=tuple(busy),  # type: ignore[arg-type]
        used_fast_path=tuple(hints),
    )


def _batch_rows(
    kernel: ScheduleKernel, models: tuple[CostModel, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[bool, ...]]:
    """Shared batch core: (makespan, iteration, busy, contention-free flags).

    Two wave sweeps vectorize across rows: :meth:`ScheduleKernel.relax`
    over the contention-free rows and :meth:`ScheduleKernel.relax_fifo`
    over the inline-FIFO contended ones, each when it has at least two
    rows and the levelization is wide enough to amortize per-wave numpy
    dispatch (``wave_sweep_profitable``). Every other row — a lone row,
    a nearly-serial levelization, any fixed-point row — is solved on its
    own by :func:`_solve_row`, the path :func:`simulate_fast` takes.
    """
    k_total = len(models)
    tables = [kernel.send_tables(cm) for cm in models]
    contended = [bool((occ > 0.0).any()) for _, occ, _ in tables]
    durations = np.stack([kernel.durations(cm) for cm in models])

    makespan = np.zeros(k_total)
    iteration = np.zeros(k_total)
    busy = np.zeros((k_total, kernel.num_workers))
    #: Per-row wire starts, for the NIC busy runs the finalizer's
    #: collective-contention rule reads (contended rows only).
    wire_starts: list[np.ndarray | None] = [None] * k_total

    def _fill(rows: list[int], start: "np.ndarray | list", end: np.ndarray) -> None:
        # ``start`` is only ever indexed per row, so the per-row solves
        # pass their Python lists straight through (row lists also index
        # faster than ndarrays in _iteration_time's genexprs).
        comp = kernel.compute_ids
        makespan_rows = (
            end[:, comp].max(axis=1) if comp.size else np.zeros(len(rows))
        )
        # Per-worker busy seconds: segment-sum compute durations by worker.
        cbw = kernel.compute_by_worker
        wptr = kernel.worker_ptr
        csum = np.zeros((len(rows), cbw.size + 1))
        np.cumsum(durations[rows][:, cbw], axis=1, out=csum[:, 1:])
        busy_rows = csum[:, wptr[1:]] - csum[:, wptr[:-1]]
        for row, k in enumerate(rows):
            busy[k] = busy_rows[row]
            iteration[k], makespan[k] = _iteration_time(
                kernel,
                models[k],
                start[row],
                end[row],
                float(makespan_rows[row]),
                wire=(wire_starts[k], tables[k][1]) if contended[k] else None,
            )

    def _delays(rows: list[int]) -> np.ndarray:
        return np.stack([kernel.class_delays(models[k]) for k in rows])

    swept: set[int] = set()
    if kernel.wave_sweep_profitable:
        free_rows = [k for k in range(k_total) if not contended[k]]
        if len(free_rows) >= 2:
            start, end = kernel.relax(durations[free_rows], _delays(free_rows))
            _fill(free_rows, start, end)
            swept.update(free_rows)
        fifo_rows = [
            k
            for k in range(k_total)
            if contended[k] and _inline_fifo_ok(kernel, models[k])
        ]
        if len(fifo_rows) >= 2:
            start, end, ws = kernel.relax_fifo(
                durations[fifo_rows],
                _delays(fifo_rows),
                np.stack([tables[k][0] for k in fifo_rows]),
                np.stack([tables[k][1] for k in fifo_rows]),
            )
            for j, k in enumerate(fifo_rows):
                wire_starts[k] = ws[j]
            _fill(fifo_rows, start, end)
            swept.update(fifo_rows)

    solo_rows = [k for k in range(k_total) if k not in swept]
    if solo_rows:
        starts, ends = [], []
        for k in solo_rows:
            s_row, e_row, wire_starts[k], _ = _solve_row(
                kernel, models[k], durations[k], tables[k]
            )
            starts.append(s_row)
            ends.append(e_row)
        _fill(solo_rows, starts, np.asarray(ends))

    return makespan, iteration, busy, tuple(not c for c in contended)


def _busy_sends(kernel: ScheduleKernel, occupancy: np.ndarray) -> np.ndarray:
    """Indices of the sends that occupy a NIC: nonzero occupancy, no host.

    Host transfers ride PCIe, not the NIC, so they never block a
    collective (the engine's ``nic_busy`` applies the same rule).
    """
    return np.flatnonzero((occupancy > 0.0) & (kernel.send_host_dir < 0))


def _add_busy(
    runs: dict[int, tuple[list[float], list[float]]], w: int, s: float, e: float
) -> None:
    """Add interval ``[s, e)`` to worker ``w``'s merged busy runs.

    A worker's runs are two sorted lists (starts, ends) of disjoint runs
    that do not touch, so :func:`_clear_sorted` can binary-search them;
    the new interval absorbs every run it overlaps or touches.
    """
    run = runs.get(w)
    if run is None:
        runs[w] = ([s], [e])
        return
    starts, ends = run
    lo = bisect_left(ends, s)
    hi = bisect_right(starts, e, lo)
    if lo == hi:
        starts.insert(lo, s)
        ends.insert(lo, e)
        return
    if starts[lo] < s:
        s = starts[lo]
    if ends[hi - 1] > e:
        e = ends[hi - 1]
    starts[lo:hi] = [s]
    ends[lo:hi] = [e]


def _busy_runs(
    kernel: ScheduleKernel,
    wire_start: np.ndarray,
    occupancy: np.ndarray,
    after: float,
) -> dict[int, tuple[list[float], list[float]]]:
    """Per-worker merged busy runs of one row's transfers ending after ``after``.

    The runs :func:`_add_busy` builds one interval at a time, built here
    in one vectorized pass: a row's transfers are all known up front,
    and a per-interval Python loop costs about 5x more on per-micro-batch
    sync schedules, whose transfers mostly stay busy past the first
    collective. Each transfer occupies both endpoints' interfaces. A
    transfer that ends at or before ``after`` (the row's earliest
    collective ready time) can never push a collective, so it is left
    out.
    """
    busy = _busy_sends(kernel, occupancy)
    s_one = wire_start[busy]
    e_one = s_one + occupancy[busy]
    live = e_one > after
    busy, s_one, e_one = busy[live], s_one[live], e_one[live]
    runs: dict[int, tuple[list[float], list[float]]] = {}
    if not busy.size:
        return runs
    workers = np.concatenate([kernel.send_worker[busy], kernel.send_dst_w[busy]])
    starts = np.concatenate([s_one, s_one])
    ends = np.concatenate([e_one, e_one])
    order = np.lexsort((starts, workers))
    workers = workers[order]
    starts = starts[order]
    ends = ends[order]
    bounds = np.concatenate(
        [[0], np.flatnonzero(np.diff(workers)) + 1, [len(workers)]]
    )
    for i in range(len(bounds) - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        s = starts[lo:hi]
        e = ends[lo:hi]
        # Coalesce: an interval starting at or before the running max end
        # joins the current merged run (closed intervals, touching merges).
        run_end = np.maximum.accumulate(e)
        head = np.empty(hi - lo, dtype=bool)
        head[0] = True
        head[1:] = s[1:] > run_end[:-1]
        first = np.flatnonzero(head)
        runs[int(workers[lo])] = (
            s[first].tolist(),
            np.maximum.reduceat(e, first).tolist(),
        )
    return runs


def _clear_sorted(
    start: float,
    workers,
    nic: dict[int, tuple[list[float], list[float]]],
) -> float:
    """The least time >= ``start`` clear of every member's busy runs.

    The engine's ``_clear_of_transfers`` rescans each transfer interval
    until none covers ``start``; its answer is the least time not covered
    by the union of the members' intervals, so binary-searching each
    worker's merged runs (:func:`_add_busy`) reaches the same value.
    """
    moved = True
    while moved:
        moved = False
        for w in workers:
            iv = nic.get(w)
            if iv is None:
                continue
            starts, ends = iv
            i = bisect_right(starts, start) - 1
            if i >= 0 and start < ends[i]:
                start = ends[i]
                moved = True
    return start


def _iteration_time(
    kernel: ScheduleKernel,
    cost_model: CostModel,
    start: np.ndarray,
    end: np.ndarray,
    compute_makespan: float,
    *,
    wire: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, float]:
    """(iteration time, compute makespan): the finalizer's collective rules.

    Replicates ``_finalize``'s non-blocking path on arrays — collectives
    sharing a worker are serviced serially in ready-time order, each one
    pushed past in-flight transfer occupancy on its members' interfaces
    (``wire``: the row's wire starts and occupancies, present for
    contended rows; only transfers still busy at the earliest ready time
    enter the busy runs), and the overlap-slowdown
    penalty extends worker finish times (and with them the compute
    makespan) in the same collective order.
    """
    op_worker = kernel.op_worker
    pending = []
    ar_cache: dict[tuple, float] = {}
    for group_key, mids in kernel.sync_groups.items():
        stage, micro_batches = group_key
        workers = tuple(op_worker[m] for m in mids)
        ready = max(start[m] for m in mids)
        ckey = (stage, workers)
        cost = ar_cache.get(ckey)
        if cost is None:
            cost = cost_model.allreduce_time(stage, workers)
            ar_cache[ckey] = cost
        pending.append((ready, stage, micro_batches, workers, cost))
    pending.sort(key=lambda t: (t[0], t[1], t[2]))

    iteration = compute_makespan
    link_free: dict[int, float] = {}
    spans: list[tuple[float, float, tuple[int, ...]]] = []
    nic_busy = None
    if wire is not None and pending:
        nic_busy = _busy_runs(kernel, *wire, after=pending[0][0])
    for ready, _stage, _mbs, workers, cost in pending:
        begin = ready
        for w in workers:
            free = link_free.get(w, 0.0)
            if free > begin:
                begin = free
        if nic_busy:
            begin = _clear_sorted(begin, workers, nic_busy)
        finish = begin + cost
        for w in workers:
            link_free[w] = finish
        spans.append((begin, finish, workers))
        if finish > iteration:
            iteration = finish

    if cost_model.sync_overlap_slowdown > 0 and spans:
        worker_end = _worker_compute_end(kernel, end)
        for begin, finish, workers in spans:
            for w in workers:
                overlap = max(0.0, min(finish, worker_end[w]) - begin)
                worker_end[w] += cost_model.sync_overlap_slowdown * overlap
        slowed = max(worker_end) if worker_end else 0.0
        compute_makespan = max(compute_makespan, slowed)
        iteration = max(iteration, compute_makespan)
    return iteration, compute_makespan


def _worker_compute_end(kernel: ScheduleKernel, end: np.ndarray) -> list[float]:
    """Last compute completion per worker from one kernel row."""
    worker_end = [0.0] * kernel.num_workers
    cbw = kernel.compute_by_worker
    wptr = kernel.worker_ptr
    for w in range(kernel.num_workers):
        seg = cbw[wptr[w] : wptr[w + 1]]
        if seg.size:
            worker_end[w] = float(end[seg].max())
    return worker_end
