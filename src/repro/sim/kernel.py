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
the same fixed point.

Public surface:

* :class:`ScheduleKernel` — the cost-model-independent array form of a
  dependency graph: a numpy structured op table, flattened edge arrays,
  a wave levelization, precomputed per-SEND tables (worker endpoints,
  payload units, row positions), and `reduceat` segment offsets. Built
  once per graph (:func:`kernel_of`); it keeps nothing of the graph or
  the engine's dense form it came from beyond the per-op lists it reads,
  so schedule-cache entries keep kernels resident and let graphs go.
* :func:`simulate_fast` — drop-in :func:`~repro.sim.engine.simulate` for
  a single cost model. One scalar pass when contention-free; the
  fixed-point relaxation when contended or blocking.
* :func:`simulate_batch` — evaluates *many* cost models against one
  cached kernel; contention-free rows share one wave-vectorized sweep,
  contended rows share wave-vectorized fixed-point sweeps.
* :func:`simulate_batch_many` — the heterogeneous batch API: rows may
  differ in schedule shape ``(D, N)`` and pass pipeline, not just in
  cost model/topology. Rows sharing a kernel vectorize together, so the
  planner ranks *all* its survivors in a single call.
* :func:`fast_path_supported` — a fast/slow **telemetry hint** (will the
  single-sweep path run, or the iterative contended one?). It gates
  nothing: every input runs on the kernel.

Both paths end in the engine's own ``_finalize`` semantics for
collective resolution and overlap accounting, so results match the event
engine to floating-point equality (the differential suites assert 1e-9)
— the kernel is a faster evaluator of the same model, never a second
model.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import KernelConvergenceError, ScheduleError
from repro.common.gcpause import collector_paused
from repro.schedules.dependencies import DependencyGraph, build_dependency_graph
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
    _clear_of_transfers,
    _dense_of,
    _finalize,
)

#: Cap on fixed-point sweeps before the kernel raises
#: :class:`~repro.common.errors.KernelConvergenceError`. Real schedules
#: converge in 2-4 sweeps (the channel order stabilizes after contention
#: first feeds back into the timeline); the cap is a safety net against
#: oscillation, far above anything observed.
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


class ScheduleKernel:
    """Cost-model-independent array form of one dependency graph.

    Parallel arrays, all indexed by the engine's dense op ids:

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
        and the occupancy hint need, with no per-call scan of the dense
        form.

    The wave/segment offset arrays (``wave_op_ptr``, ``wave_edge_ptr``,
    ``red_off``, ``red_dst``, ``wave_red_ptr``, ``inc_ptr``) drive the two
    relaxation strategies; see :meth:`relax_scalar` and :meth:`relax`.

    The kernel is self-contained: of the engine's dense form it keeps
    only the per-op ``ops_flat``, ``op_worker`` and ``row_pos`` lists and
    the dense ids of each sync group's members (``sync_groups``), so it
    outlives the dependency graph it was built from.
    """

    def __init__(self, graph: DependencyGraph):
        dense = _dense_of(graph)
        total = dense.total
        self.total = total
        self.ops_flat = dense.ops_flat
        self.op_worker = dense.op_worker
        #: Position of each op in its worker's row (dense ids are
        #: row-major, so an op's row successor is id + 1).
        self.row_pos = dense.row_pos
        #: Sync group key -> dense ids of its ALLREDUCE members, in the
        #: engine's member order.
        self.sync_groups: dict[tuple, tuple[int, ...]] = {
            key: tuple(dense.id_of[op.key()] for _, op in members)
            for key, members in dense.sync_group_members.items()
        }

        # ---- shape classes (duration memoization across cost models) ----
        shape_id: dict[tuple, int] = {}
        self.shape_reps: list[tuple[int, Operation]] = []
        op_shape = np.zeros(total, dtype=np.int32)
        for oid, op in enumerate(dense.ops_flat):
            shape = dense.shape[oid]
            sid = shape_id.get(shape)
            if sid is None:
                sid = len(self.shape_reps)
                shape_id[shape] = sid
                self.shape_reps.append((dense.kind_code[oid], op))
            op_shape[oid] = sid

        # ---- combined edge list -----------------------------------------
        # Delay classes: distinct (src_worker, dst_worker, payload_units,
        # host_dir) tuples actually present on delay-carrying edges.
        # host_dir is -1 for network edges and the transfer direction for
        # host-channel (OFFLOAD/RELOAD) wire edges, which are priced on
        # the cost model's host link instead of the topology. Class 0 is
        # the zero-delay class shared by program-order and local edges.
        cls_id: dict[tuple[int, int, float, int], int] = {}
        self.delay_classes: list[tuple[int, int, float, int]] = []

        def _cls(src_w: int, dst_w: int, units: float, host_dir: int = -1) -> int:
            key = (src_w, dst_w, units, host_dir)
            cid = cls_id.get(key)
            if cid is None:
                cid = len(self.delay_classes) + 1
                cls_id[key] = cid
                self.delay_classes.append(key)
            return cid

        esrc: list[int] = []
        edst: list[int] = []
        ecls: list[int] = []
        #: Per-edge send-table index (-1 for non-TRANSFER edges); the
        #: contended sweeps add each SEND's queueing delay to its wire
        #: edge through this mapping.
        etr: list[int] = []
        op_worker = dense.op_worker
        for ids in dense.row_ids:
            for a, b in zip(ids, ids[1:]):
                esrc.append(a)
                edst.append(b)
                ecls.append(0)
                etr.append(-1)
        #: SEND op id -> delay class of its wire edge.
        self.send_cls: dict[int, int] = {}
        send_oid: list[int] = []
        send_dst_w: list[int] = []
        send_units: list[float] = []
        for src in range(total):
            for dst in dense.out_local[src]:
                esrc.append(src)
                edst.append(dst)
                ecls.append(0)
                etr.append(-1)
            for dst, src_w, dst_w, units in dense.out_remote[src]:
                esrc.append(src)
                edst.append(dst)
                ecls.append(_cls(src_w, dst_w, units))
                etr.append(-1)
            recv = dense.transfer_out[src]
            if recv >= 0:
                dst_w, units = dense.send_info[src]
                cid = _cls(op_worker[src], dst_w, units, dense.host_dir[src])
                self.send_cls[src] = cid
                esrc.append(src)
                edst.append(recv)
                ecls.append(cid)
                etr.append(len(send_oid))
                send_oid.append(src)
                send_dst_w.append(dst_w)
                send_units.append(units)
        num_edges = len(esrc)

        # ---- the per-kernel SEND table ----------------------------------
        # Everything per-cost-model send evaluation needs, in array form:
        # max_send_occupancy and the FIFO serialization never loop over
        # dense.send_info again.
        self.send_oid = np.array(send_oid, dtype=np.int64)
        self.send_worker = np.array(
            [op_worker[o] for o in send_oid], dtype=np.int64
        )
        self.send_dst_w = np.array(send_dst_w, dtype=np.int64)
        self.send_units = np.array(send_units, dtype=np.float64)
        self.send_row_pos = np.array(
            [dense.row_pos[o] for o in send_oid], dtype=np.int64
        )
        #: Host-transfer direction per send (-1 network, 0 d2h, 1 h2d).
        self.send_host_dir = np.array(
            [dense.host_dir[o] for o in send_oid], dtype=np.int64
        )
        self.has_host_sends = bool((self.send_host_dir >= 0).any())
        self.send_ids = send_oid
        #: Op id -> send-table index (-1 for non-SEND ops).
        send_of_op = [-1] * total
        for i, oid in enumerate(send_oid):
            send_of_op[oid] = i
        self._send_of_op = send_of_op
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
            if len(send_oid)
            else (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        )
        self.send_chan_idx = inverse
        self.num_channels = len(uniq)
        self._send_chan_list = inverse.tolist()

        # ---- wave levelization (Kahn over the combined DAG) -------------
        indeg = [0] * total
        out: list[list[int]] = [[] for _ in range(total)]
        for e in range(num_edges):
            indeg[edst[e]] += 1
            out[esrc[e]].append(edst[e])
        wave = [0] * total
        frontier = [o for o in range(total) if indeg[o] == 0]
        level = 0
        seen = 0
        while frontier:
            nxt: list[int] = []
            for o in frontier:
                wave[o] = level
                seen += 1
                for d in out[o]:
                    indeg[d] -= 1
                    if indeg[d] == 0:
                        nxt.append(d)
            frontier = nxt
            level += 1
        if seen != total:
            # The validator guarantees acyclicity for every registered
            # scheme; reaching this means a hand-built schedule has a
            # dependency cycle.
            raise ScheduleError(
                f"kernel levelization stuck: {total - seen} ops sit on a "
                f"dependency cycle"
            )
        self.num_waves = level
        #: Whether the wave-vectorized sweeps amortize their per-wave numpy
        #: dispatch. Nearly-serial schedules (GEMS runs ~2 micro-batches in
        #: flight, so its critical chain covers most ops) levelize into
        #: thousands of 1-2 op waves, where a per-row scalar pass beats the
        #: batched sweep by 2x+; the batch paths route on this flag.
        self.wave_sweep_profitable = total >= 6 * max(1, level)

        order = sorted(range(total), key=lambda o: (wave[o], o))
        pos_of = [0] * total
        for pos, oid in enumerate(order):
            pos_of[oid] = pos

        # ---- structured op table ----------------------------------------
        ops = np.zeros(total, dtype=OP_DTYPE)
        ops["kind"] = dense.kind_code
        ops["worker"] = op_worker
        ops["shape"] = op_shape
        ops["wave"] = wave
        self.ops = ops

        # Edges sorted by the destination's topological position, so one
        # sorted array serves both the scalar pass (per-op CSR slices) and
        # the wave pass (per-wave slices + reduceat segments).
        eorder = sorted(range(num_edges), key=lambda e: pos_of[edst[e]])
        self.edge_src = np.array([esrc[e] for e in eorder], dtype=np.int64)
        self.edge_dst = np.array([edst[e] for e in eorder], dtype=np.int64)
        self.edge_cls = np.array([ecls[e] for e in eorder], dtype=np.int64)
        edge_send = np.array([etr[e] for e in eorder], dtype=np.int64)
        #: Positions (in the sorted edge arrays) of the TRANSFER edges and
        #: the send-table index each one belongs to.
        self.tr_edge_pos = np.flatnonzero(edge_send >= 0)
        self.tr_edge_send = edge_send[self.tr_edge_pos]
        self._edge_send_list = edge_send.tolist()
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
        self._edge_cls_list = self.edge_cls.tolist()
        self._order_list = order
        self._pos_of = pos_of
        inc_ptr = [0] * (total + 1)
        for e in range(num_edges):
            inc_ptr[pos_of[edst[e]] + 1] += 1
        for i in range(total):
            inc_ptr[i + 1] += inc_ptr[i]
        self._inc_ptr = inc_ptr
        #: Per-op in-degree, aligned with ``order``. The scalar sweeps
        #: dispatch on it (straight-line bodies for the dominant degree-
        #: 1/2/3 ops instead of a ``range`` loop per op).
        self._indeg_list = [
            inc_ptr[i + 1] - inc_ptr[i] for i in range(total)
        ]

        self.order = np.array(order, dtype=np.int64)
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

    def max_send_occupancy(self, cost_model: CostModel) -> float:
        """Largest link occupancy any SEND would claim under this model."""
        if not len(self.send_oid):
            return 0.0
        _, occupancy, _ = self.send_tables(cost_model)
        return float(occupancy.max())

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
        self,
        durations: np.ndarray,
        delays: np.ndarray | None = None,
        *,
        edge_delays: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched longest-path pass over ``K`` models at once.

        ``durations`` is ``(K, total)``; delays come either as a per-class
        table ``delays`` of shape ``(K, classes+1)`` or as a precomputed
        per-edge matrix ``edge_delays`` of shape ``(K, edges)`` (the
        contended fixed point, where transfer edges carry per-row
        queueing delays). Returns ``(start, end)`` as ``(K, total)``
        arrays. Each wave is a handful of vectorized operations
        regardless of ``K``, which is where the batch API's throughput
        comes from.
        """
        k = durations.shape[0]
        start = np.zeros((k, self.total))
        end = np.zeros((k, self.total))
        if edge_delays is None:
            if delays is None:
                raise ValueError("relax needs either delays or edge_delays")
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

        # Augmented Kahn levelization: base edges + the group barriers.
        indeg = [0] * total
        out: list[list[int]] = [[] for _ in range(total)]
        esrc = kernel._edge_src_list
        edst = kernel.edge_dst.tolist()
        for a, b in zip(esrc, edst):
            indeg[b] += 1
            out[a].append(b)
        for a, b in aug_edges:
            indeg[b] += 1
            out[a].append(b)
        frontier = [o for o in range(total) if indeg[o] == 0]
        order: list[int] = []
        while frontier:
            nxt: list[int] = []
            for o in frontier:
                order.append(o)
                for d in out[o]:
                    indeg[d] -= 1
                    if indeg[d] == 0:
                        nxt.append(d)
            frontier = nxt
        if len(order) != total:
            raise ScheduleError(
                f"blocking collectives deadlock: {total - len(order)} ops "
                f"depend on a collective that can never resolve"
            )
        self.order = order


def kernel_of(graph: DependencyGraph | ScheduleKernel) -> ScheduleKernel:
    """The graph's array kernel, built once and cached on the graph.

    Kernels are never persisted with their graph, so a process rebuilds
    each one once; the build runs with the cyclic collector paused.
    :meth:`~repro.schedules.cache.ScheduleArtifacts.kernel_for` keeps the
    kernel and lets the graph go, and looks its kernel up here again on
    every later use: given a kernel, this returns it, so every kernel
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


def fast_path_supported(
    schedule: Schedule,
    cost_model: CostModel,
    *,
    blocking_sync: bool = False,
    kernel: ScheduleKernel | None = None,
) -> bool:
    """Telemetry hint: will the single-sweep path run (True), or the
    iterative contended/blocking relaxation (False)?

    This gates **nothing** — every schedule × cost model runs on the
    array kernel and matches the event engine to 1e-9 either way. False
    means the kernel will iterate (lowered schedule with nonzero channel
    occupancy, or blocking collectives), which costs a small integer
    multiple of one sweep; callers can use the hint for perf accounting,
    as the bench suite does to label its contended cases.
    """
    if blocking_sync:
        return False
    if not schedule.lowered and not schedule.metadata.get("offload"):
        return True
    if kernel is None:
        kernel = kernel_of(build_dependency_graph(schedule))
    return kernel.max_send_occupancy(cost_model) == 0.0


def simulate_fast(
    schedule: Schedule,
    cost_model: CostModel,
    *,
    kernel: ScheduleKernel | None = None,
    blocking_sync: bool = False,
) -> SimulationResult:
    """Array-kernel :func:`~repro.sim.engine.simulate`, no fallback.

    Produces a full :class:`~repro.sim.engine.SimulationResult` (timed
    ops, transfers, collectives) identical to the event engine's for
    every registered scheme × pass pipeline × cost model — contended
    lowered schedules and blocking collectives run the fixed-point
    relaxation instead of falling back to the event engine. ``kernel``
    is ``schedule``'s kernel (e.g. from
    :meth:`~repro.schedules.cache.ScheduleArtifacts.kernel_for`); it is
    built from a fresh dependency graph when absent.
    """
    if kernel is None:
        kernel = kernel_of(build_dependency_graph(schedule))
    wire, occupancy, chan = kernel.send_tables(cost_model)
    contended = bool(occupancy.size) and bool((occupancy > 0.0).any())
    if not contended and not blocking_sync:
        start, end = kernel.relax_scalar(
            kernel.durations(cost_model), kernel.class_delays(cost_model)
        )
        wire_start = (
            np.asarray(end)[kernel.send_oid]
            if len(kernel.send_oid)
            else np.zeros(0)
        )
        resolved = None
    elif not blocking_sync and _inline_fifo_ok(kernel, cost_model):
        start, end, wire_start = kernel.relax_scalar_fifo(
            kernel.durations(cost_model),
            kernel.class_delays(cost_model),
            wire,
            occupancy,
        )
        resolved = None
    else:
        start, end, wire_start, resolved = _solve_scalar(
            kernel, cost_model, occupancy, chan, blocking_sync
        )
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


def _full_duplex(cost_model: CostModel) -> bool:
    """Whether the model's channels are single-source (static FIFO order).

    Full-duplex channels carry exactly one worker's sends, whose end
    times are monotone in program order — the inline one-sweep FIFO paths
    apply. Half-duplex channels interleave two senders by completion
    time, which is timing-dependent: those rows take the fixed point.
    """
    return getattr(cost_model.topology, "duplex", "full") == "full"


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
    """
    floors = np.zeros(len(aux.group_keys))
    if not len(send_end):
        for g, mids in enumerate(aux.member_ids):
            floors[g] = max(start[m] for m in mids)
        return floors
    s_end = send_end
    s_w = kernel.send_worker
    s_pos = kernel.send_row_pos
    op_worker = kernel.op_worker
    row_pos = kernel.row_pos
    for g, mids in enumerate(aux.member_ids):
        cutoff = max((end[m], op_worker[m], row_pos[m]) for m in mids)
        ce, cw, cp = cutoff
        # Host transfers never block a collective's interface (PCIe, not
        # the NIC) — same exclusion as the engine's nic_busy bookkeeping.
        visible = (occupancy > 0.0) & (kernel.send_host_dir < 0) & (
            (s_end < ce)
            | ((s_end == ce) & (s_w < cw))
            | ((s_end == ce) & (s_w == cw) & (s_pos < cp))
        )
        raw = max(start[m] for m in mids)
        workers = aux.group_workers[g]
        if visible.any():
            members = set(workers)
            nic: dict[int, list[tuple[float, float]]] = {}
            for i in np.flatnonzero(visible).tolist():
                interval = (wire_start[i], wire_start[i] + occupancy[i])
                for w in (int(s_w[i]), int(kernel.send_dst_w[i])):
                    if w in members:
                        nic.setdefault(w, []).append(interval)
            raw = _clear_of_transfers(raw, workers, nic)
        floors[g] = raw
    return floors


def _sweep_blocking(
    kernel: ScheduleKernel,
    aux: _BlockingAux,
    dur: list[float],
    edge_delay: list[float],
    floors: list[float],
    ar_cost: list[float],
) -> tuple[
    list[float], list[float], list[float], list[float], list[float]
]:
    """One longest-path sweep that resolves blocking collectives inline.

    Runs over the augmented topological order, so when a group's last
    member is processed every launch time is known: the collective starts
    at ``max(max launch start, floor)`` (the floor carries the
    transfer-contention push from the outer fixed point) and its end
    releases the members' successors.
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
        end[oid] = ready + dur[oid]
        g = member_group[oid]
        if g >= 0:
            if ready > launch_max[g]:
                launch_max[g] = ready
            remaining[g] -= 1
            if remaining[g] == 0:
                s = launch_max[g] if launch_max[g] > floors[g] else floors[g]
                g_start[g] = s
                g_end[g] = s + ar_cost[g]
    return start, end, g_start, g_end, launch_max


def _solve_scalar(
    kernel: ScheduleKernel,
    cost_model: CostModel,
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
    dur = kernel.durations(cost_model).tolist()
    base_edge = kernel.class_delays(cost_model)[kernel.edge_cls]
    tr_pos = kernel.tr_edge_pos
    tr_send = kernel.tr_edge_send
    n_send = len(kernel.send_oid)
    extras = np.zeros(n_send)
    aux = kernel.blocking_aux() if blocking_sync else None
    if aux is not None:
        ar_cost = [
            cost_model.allreduce_time(aux.group_stage[g], aux.group_workers[g])
            for g in range(len(aux.group_keys))
        ]
        floors = np.zeros(len(aux.group_keys))
    for _ in range(MAX_RELAXATION_SWEEPS):
        edge_delay = base_edge.copy()
        if n_send:
            edge_delay[tr_pos] += extras[tr_send]
        edl = edge_delay.tolist()
        if aux is not None:
            start, end, g_start, g_end, launch_max = _sweep_blocking(
                kernel, aux, dur, edl, floors.tolist(), ar_cost
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
        stable = np.array_equal(new_extras, extras)
        if aux is not None and len(aux.group_keys):
            new_floors = _blocking_floors(
                kernel, aux, start, end, send_end, wire_start, occupancy
            )
            # Stability of the *effective* collective starts, not the raw
            # floor values: the sweep used max(launch_max, old floor), and
            # it is consistent iff that equals max(launch_max, new floor) —
            # an uncontended floor below max(launches) converges on the
            # first sweep, and a floor that *dropped* is caught too.
            stable = stable and all(
                max(new_floors[g], launch_max[g]) == g_start[g]
                for g in range(len(aux.group_keys))
            )
            if stable:
                resolved = {
                    aux.group_keys[g]: (g_start[g], g_end[g])
                    for g in range(len(aux.group_keys))
                }
                return start, end, wire_start, resolved
            floors = np.maximum(new_floors, 0.0)
        elif stable:
            resolved = {} if blocking_sync else None
            return start, end, wire_start, resolved
        extras = new_extras
    raise KernelConvergenceError(
        f"fixed-point relaxation did not converge within "
        f"{MAX_RELAXATION_SWEEPS} sweeps ({kernel.total} ops, "
        f"{n_send} transfers) — the channel order is oscillating"
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
    ops_flat = kernel.ops_flat
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
    for idx, oid in enumerate(kernel.send_ids):
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
    """Per-model iteration quantities from one :func:`simulate_batch`.

    All arrays are indexed by the position of the cost model in the input
    sequence. ``used_fast_path[k]`` is the same telemetry hint
    :func:`fast_path_supported` reports: True for rows evaluated by the
    single-sweep vectorized pass, False for rows that ran the iterative
    contended relaxation. Every row is kernel-computed and engine-exact
    either way.
    """

    schedule: Schedule
    cost_models: tuple[CostModel, ...]
    compute_makespan: np.ndarray
    iteration_time: np.ndarray
    worker_busy: np.ndarray
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
        """Samples/second under model ``k`` (mirrors the metrics module)."""
        iteration = float(self.iteration_time[k])
        if iteration <= 0:
            return float("inf")
        samples = self.schedule.num_micro_batches * micro_batch * width
        return samples / iteration


@dataclass(frozen=True)
class HeteroBatchResult:
    """Row-indexed results from one :func:`simulate_batch_many` call.

    Unlike :class:`BatchResult`, rows may come from *different schedules*
    (heterogeneous ``(D, N)`` shapes and pass pipelines), so the
    per-worker busy arrays are a tuple of per-row vectors instead of one
    rectangular matrix.
    """

    schedules: tuple[Schedule, ...]
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
        samples = self.schedules[k].num_micro_batches * micro_batch * width
        return samples / iteration


def simulate_batch(
    schedule: Schedule,
    cost_models: Sequence[CostModel],
    *,
    kernel: ScheduleKernel | None = None,
) -> BatchResult:
    """Evaluate many cost models against one cached dense schedule.

    The batch path never materializes per-op ``TimedOp`` dictionaries —
    it returns exactly the iteration-level quantities ranking needs
    (makespan, iteration time, per-worker busy seconds). Contention-free
    rows share one wave-vectorized relaxation; contended rows share
    wave-vectorized fixed-point sweeps (per-row FIFO serialization
    between sweeps). Every row is engine-exact.
    """
    if not cost_models:
        raise ValueError("simulate_batch needs at least one cost model")
    if kernel is None:
        kernel = kernel_of(build_dependency_graph(schedule))
    models = tuple(cost_models)
    makespan, iteration, busy, hints = _batch_rows(kernel, models)
    return BatchResult(
        schedule=schedule,
        cost_models=models,
        compute_makespan=makespan,
        iteration_time=iteration,
        worker_busy=busy,
        used_fast_path=hints,
    )


def simulate_batch_many(
    items: Sequence[tuple[Schedule, CostModel]],
    *,
    kernels: Sequence[ScheduleKernel | None] | None = None,
) -> HeteroBatchResult:
    """Evaluate heterogeneous ``(schedule, cost_model)`` rows in one call.

    Rows may differ in schedule shape — depth ``D``, micro-batch count
    ``N``, pass pipeline — as well as in cost model and topology. Rows
    sharing a kernel vectorize together
    (the wave sweep amortizes over them exactly as in
    :func:`simulate_batch`); distinct shapes evaluate against their own
    cached kernels within the same call. This is the planner's ranking
    primitive: all memory-feasible survivors, one call. ``kernels``
    aligns with ``items``; a row without one gets its own, built from its
    schedule.
    """
    if not items:
        raise ValueError("simulate_batch_many needs at least one row")
    if kernels is None:
        kernels = [None] * len(items)
    if len(kernels) != len(items):
        raise ValueError("kernels must align with items")
    resolved = [
        kernel if kernel is not None else kernel_of(build_dependency_graph(s))
        for (s, _), kernel in zip(items, kernels)
    ]

    # Group rows by kernel identity, preserving each row's position.
    group_rows: dict[int, list[int]] = {}
    for k, kernel in enumerate(resolved):
        group_rows.setdefault(id(kernel), []).append(k)

    n = len(items)
    makespan = np.zeros(n)
    iteration = np.zeros(n)
    busy: list[np.ndarray | None] = [None] * n
    hints = [True] * n
    for rows in group_rows.values():
        kernel = resolved[rows[0]]
        models = tuple(items[k][1] for k in rows)
        g_mk, g_it, g_busy, g_hints = _batch_rows(kernel, models)
        for j, k in enumerate(rows):
            makespan[k] = g_mk[j]
            iteration[k] = g_it[j]
            busy[k] = g_busy[j]
            hints[k] = g_hints[j]
    return HeteroBatchResult(
        schedules=tuple(schedule for schedule, _ in items),
        cost_models=tuple(model for _, model in items),
        compute_makespan=makespan,
        iteration_time=iteration,
        worker_busy=tuple(busy),  # type: ignore[arg-type]
        used_fast_path=tuple(hints),
    )


def _batch_rows(
    kernel: ScheduleKernel, models: tuple[CostModel, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[bool, ...]]:
    """Shared batch core: (makespan, iteration, busy, fast-path hints)."""
    k_total = len(models)
    tables = [kernel.send_tables(cm) for cm in models]
    contended = [
        bool(occ.size) and bool((occ > 0.0).any()) for _, occ, _ in tables
    ]

    makespan = np.zeros(k_total)
    iteration = np.zeros(k_total)
    busy = np.zeros((k_total, kernel.num_workers))
    #: Per-row wire starts (contended rows only), for the NIC intervals
    #: the finalizer's collective-contention rule reads.
    wire_starts: dict[int, np.ndarray] = {}

    def _fill(
        rows: list[int],
        start: "np.ndarray | list",
        end: np.ndarray,
        durations: np.ndarray | None = None,
    ) -> None:
        # ``start`` is only ever indexed per row, so the scalar branches
        # pass their Python lists straight through (row lists also index
        # faster than ndarrays in _iteration_time's genexprs).
        if durations is None:
            durations = np.stack([kernel.durations(models[k]) for k in rows])
        comp = kernel.compute_ids
        makespan_rows = (
            end[:, comp].max(axis=1) if comp.size else np.zeros(len(rows))
        )
        # Per-worker busy seconds: segment-sum compute durations by worker.
        cbw = kernel.compute_by_worker
        wptr = kernel.worker_ptr
        csum = np.zeros((len(rows), cbw.size + 1))
        np.cumsum(durations[:, cbw], axis=1, out=csum[:, 1:])
        busy_rows = csum[:, wptr[1:]] - csum[:, wptr[:-1]]
        for row, k in enumerate(rows):
            busy[k] = busy_rows[row]
            nic = None
            if contended[k]:
                nic = _nic_intervals(kernel, wire_starts[k], tables[k][1])
            iteration[k], makespan[k] = _iteration_time(
                kernel,
                models[k],
                start[row],
                end[row],
                float(makespan_rows[row]),
                nic_busy=nic,
            )

    # Per-row scalar passes when the wave sweep can't amortize: a single
    # model, or a degenerate (nearly-serial) levelization where per-wave
    # numpy dispatch dominates.
    fast_rows = [k for k in range(k_total) if not contended[k]]
    if fast_rows:
        durations = np.stack([kernel.durations(models[k]) for k in fast_rows])
        if len(fast_rows) == 1 or not kernel.wave_sweep_profitable:
            rows = [
                kernel.relax_scalar(
                    durations[j], kernel.class_delays(models[k])
                )
                for j, k in enumerate(fast_rows)
            ]
            start = [s for s, _ in rows]
            end = np.asarray([e for _, e in rows])
        else:
            delays = np.stack(
                [kernel.class_delays(models[k]) for k in fast_rows]
            )
            start, end = kernel.relax(durations, delays)
        _fill(fast_rows, start, end, durations)

    fifo_rows = [
        k
        for k in range(k_total)
        if contended[k] and _inline_fifo_ok(kernel, models[k])
    ]
    if fifo_rows:
        durations = np.stack([kernel.durations(models[k]) for k in fifo_rows])
        if len(fifo_rows) == 1 or not kernel.wave_sweep_profitable:
            starts, ends = [], []
            for j, k in enumerate(fifo_rows):
                wire_tbl, occ, _ = tables[k]
                s_row, e_row, ws = kernel.relax_scalar_fifo(
                    durations[j],
                    kernel.class_delays(models[k]),
                    wire_tbl,
                    occ,
                )
                starts.append(s_row)
                ends.append(e_row)
                wire_starts[k] = ws
            start = starts
            end = np.asarray(ends)
        else:
            delays = np.stack(
                [kernel.class_delays(models[k]) for k in fifo_rows]
            )
            wire_tbl = np.stack([tables[k][0] for k in fifo_rows])
            occ_tbl = np.stack([tables[k][1] for k in fifo_rows])
            start, end, ws = kernel.relax_fifo(
                durations, delays, wire_tbl, occ_tbl
            )
            for j, k in enumerate(fifo_rows):
                wire_starts[k] = ws[j]
        _fill(fifo_rows, start, end, durations)

    iter_rows = [
        k
        for k in range(k_total)
        if contended[k] and not _inline_fifo_ok(kernel, models[k])
    ]
    if iter_rows:
        if len(iter_rows) == 1 or not kernel.wave_sweep_profitable:
            starts, ends = [], []
            for k in iter_rows:
                _, occ, chan = tables[k]
                s_row, e_row, wire, _ = _solve_scalar(
                    kernel, models[k], occ, chan, blocking_sync=False
                )
                starts.append(s_row)
                ends.append(e_row)
                wire_starts[k] = wire
            start = np.asarray(starts)
            end = np.asarray(ends)
        else:
            start, end, wires = _relax_contended_batch(
                kernel,
                [models[k] for k in iter_rows],
                [tables[k] for k in iter_rows],
            )
            for j, k in enumerate(iter_rows):
                wire_starts[k] = wires[j]
        _fill(iter_rows, start, end)

    return makespan, iteration, busy, tuple(not c for c in contended)


def _relax_contended_batch(
    kernel: ScheduleKernel,
    models: Sequence[CostModel],
    tables: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wave-vectorized fixed point over ``K`` contended rows at once.

    Each sweep relaxes every row in one wave pass (per-row edge-delay
    matrices carry the queueing delays); serialization runs per row
    between sweeps. Iterates until every row's delays are exactly stable
    — converged rows are idempotent under further sweeps, so a shared
    iteration count is safe.
    """
    k_total = len(models)
    durations = np.stack([kernel.durations(m) for m in models])
    base_edges = np.stack(
        [kernel.class_delays(m)[kernel.edge_cls] for m in models]
    )
    tr_pos = kernel.tr_edge_pos
    tr_send = kernel.tr_edge_send
    n_send = len(kernel.send_oid)
    extras = np.zeros((k_total, n_send))
    for _ in range(MAX_RELAXATION_SWEEPS):
        edge_delays = base_edges.copy()
        edge_delays[:, tr_pos] += extras[:, tr_send]
        start, end = kernel.relax(durations, edge_delays=edge_delays)
        send_end = end[:, kernel.send_oid]
        wire = np.stack(
            [
                _serialize_channels(
                    kernel, send_end[k], tables[k][1], tables[k][2]
                )
                for k in range(k_total)
            ]
        )
        new_extras = wire - send_end
        if np.array_equal(new_extras, extras):
            return start, end, wire
        extras = new_extras
    raise KernelConvergenceError(
        f"batched fixed-point relaxation did not converge within "
        f"{MAX_RELAXATION_SWEEPS} sweeps ({kernel.total} ops x "
        f"{k_total} models)"
    )


def _nic_intervals(
    kernel: ScheduleKernel, wire_start: np.ndarray, occupancy: np.ndarray
) -> dict[int, tuple[list[float], list[float]]]:
    """Merged per-worker interface busy intervals from one row's transfers.

    Sorted and coalesced so :func:`_clear_sorted` can binary-search them —
    the engine's linear rescans are O(groups x transfers), which dominates
    for per-micro-batch synchronization (pipedream-family schedules carry
    hundreds of groups). Host transfers ride PCIe, not the NIC, so they
    never appear here (the engine's ``nic_busy`` applies the same rule).
    """
    busy = np.flatnonzero((occupancy > 0.0) & (kernel.send_host_dir < 0))
    merged: dict[int, tuple[list[float], list[float]]] = {}
    if not busy.size:
        return merged
    s_one = wire_start[busy]
    e_one = s_one + occupancy[busy]
    # Each transfer occupies both endpoints' interfaces.
    workers = np.concatenate(
        [kernel.send_worker[busy], kernel.send_dst_w[busy]]
    )
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
        merged[int(workers[lo])] = (
            s[first].tolist(),
            np.maximum.reduceat(e, first).tolist(),
        )
    return merged


def _clear_sorted(
    start: float,
    workers,
    nic: dict[int, tuple[list[float], list[float]]],
) -> float:
    """:func:`repro.sim.engine._clear_of_transfers` over merged intervals.

    Both compute the least time >= ``start`` not covered by the union of
    the members' busy intervals (the fixed point is unique, so the scan
    order cannot matter); this one binary-searches each worker's merged
    list instead of rescanning every interval per round.
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
    nic_busy: dict[int, tuple[list[float], list[float]]] | None = None,
) -> tuple[float, float]:
    """(iteration time, compute makespan): the finalizer's collective rules.

    Replicates ``_finalize``'s non-blocking path on arrays — collectives
    sharing a worker are serviced serially in ready-time order, each one
    pushed past in-flight transfer occupancy on its members' interfaces
    (``nic_busy``, present for contended rows), and the overlap-slowdown
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
