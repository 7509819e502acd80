"""Parity tripwire for the dependency graph, lowering and the array kernel.

Each case pins two sha256 digests (first 16 hex digits each):

* the graph column: ``list(graph.location.items())``, every
  ``graph.deps`` edge as ``(src, dst, kind, payload_units)`` in ``deps``
  order, and, for schedules that are not lowered yet, the lowered
  schedule's ``worker_ops``. Recorded from the dict-of-``OpKey`` graph
  builder, so any change to op numbering, edge order, edge payloads or
  lowered op order fails here;
* the kernel column: the :class:`~repro.sim.kernel.ScheduleKernel`
  arrays of the same graph (dtype, shape and bytes of each array in
  :data:`KERNEL_ARRAYS`, plus the delay classes, ``inc_ptr`` offsets,
  shape classes and sync groups), so a kernel built another way must be
  bitwise the one recorded.

The PipeDream cases also pin the visit order of the kernel's blocking-
collective levelization (:data:`EXPECTED_BLOCKING_ORDER`), and the
splice battery (:data:`SPLICE_CASES`) checks that the op table lowering
splices is the table of the lowered schedule's ops, column for column.

If a change to a *builder* or *pass* is intended to reshape schedules,
regenerate the table with ``_digest``/``_kernel_digest`` and review the
diff.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.schedules.dependencies import build_dependency_graph
from repro.schedules.ir import Operation, OpKind, OpTable, Schedule
from repro.schedules.lowering import lower_schedule
from repro.schedules.placement import StagePlacement
from repro.schedules.registry import available_schemes, build_schedule
from repro.sim.kernel import ScheduleKernel

SHAPES = ((4, 4), (4, 8))
PIPELINES = ("", "lower_p2p", "offload,lower_p2p", "lower_p2p,fuse_comm", "recompute")

EXPECTED = {
    "pipedream-4x4-implicit": ("34f3086cd7bdf730", "9519c146effbde7f"),
    "pipedream-4x4-lower_p2p": ("283fe61cc1a56f75", "45b05b6a6cee9c3b"),
    "pipedream-4x4-offload,lower_p2p": ("6eac899971261877", "d3622b89e6ec80c6"),
    "pipedream-4x4-lower_p2p,fuse_comm": ("90e626a7c9e5ec30", "e7ce85445f378af1"),
    "pipedream-4x4-recompute": ("6ef9148411b83d56", "a1cb11ab6cc61877"),
    "pipedream-4x8-implicit": ("13acec698821273d", "fe4bfc8d73bcd233"),
    "pipedream-4x8-lower_p2p": ("cbe2fe51d4642c5d", "92447be6c65662d5"),
    "pipedream-4x8-offload,lower_p2p": ("17521b703682014a", "a0710f6963b331c0"),
    "pipedream-4x8-lower_p2p,fuse_comm": ("31b648ac125ffd8a", "473d09cb09f2b62f"),
    "pipedream-4x8-recompute": ("b3f1ce1b3f67a7a2", "983bfd7989be3b9b"),
    "pipedream_2bw-4x4-implicit": ("883e1d3c7a0da2b3", "2b2c29329e53ff03"),
    "pipedream_2bw-4x4-lower_p2p": ("1b147a8bda8d090c", "2c074633f281ea95"),
    "pipedream_2bw-4x4-offload,lower_p2p": ("01bbe64d6d6986b2", "fc6b96d9a661a864"),
    "pipedream_2bw-4x4-lower_p2p,fuse_comm": ("172f1e46461f1e14", "c9ff4d8a202a3e16"),
    "pipedream_2bw-4x4-recompute": ("309e5c5054deb487", "2df4a117e57f3ff1"),
    "pipedream_2bw-4x8-implicit": ("b7924f6d60891fa6", "20117b66eb2debb7"),
    "pipedream_2bw-4x8-lower_p2p": ("56db664e0c463f89", "b5f6bc2d147b0ed7"),
    "pipedream_2bw-4x8-offload,lower_p2p": ("4de419cb979b9fd8", "7ad651cf4c734703"),
    "pipedream_2bw-4x8-lower_p2p,fuse_comm": ("83c9e3f2bc5c7205", "be8f1fa32a49e27d"),
    "pipedream_2bw-4x8-recompute": ("b48cbb509001fa67", "9538c5eb0ce08d9c"),
    "gpipe-4x4-implicit": ("a436848b2f5a48ed", "f20e39d9ffe89c1f"),
    "gpipe-4x4-lower_p2p": ("5b43372e43ddcc7b", "245a98eb3f6bd477"),
    "gpipe-4x4-offload,lower_p2p": ("8c3521aa697e69b5", "b5cecd58c3699732"),
    "gpipe-4x4-lower_p2p,fuse_comm": ("2f9c1576aa6c669a", "f29dc6e3c4284afe"),
    "gpipe-4x4-recompute": ("6d9c90414b7f00b6", "de905dbc8e6630a5"),
    "gpipe-4x8-implicit": ("cc8362f217146975", "1d32c24cd3a672ca"),
    "gpipe-4x8-lower_p2p": ("e602f45db31f515d", "f3b200a0473b294b"),
    "gpipe-4x8-offload,lower_p2p": ("56add4ab9e289c5e", "ac03faf2632e240e"),
    "gpipe-4x8-lower_p2p,fuse_comm": ("8fa7981c8d109ef0", "de351593d5644e8f"),
    "gpipe-4x8-recompute": ("0c11f3b3d3ecd48e", "8147de5a1ea5dfc5"),
    "gems-4x4-implicit": ("d964025159d9a3b0", "78ac860f86d9fbde"),
    "gems-4x4-lower_p2p": ("b6b1476fc0731028", "1a14c5c9b994447d"),
    "gems-4x4-offload,lower_p2p": ("b6b1476fc0731028", "1a14c5c9b994447d"),
    "gems-4x4-lower_p2p,fuse_comm": ("2a4b3a5a4546717f", "ec16cf7f4030c08e"),
    "gems-4x4-recompute": ("a8f449c5a1d7a1b5", "fe697d10af43040a"),
    "gems-4x8-implicit": ("618ecd69f04c0dd8", "ca6cc244cecf44d8"),
    "gems-4x8-lower_p2p": ("45bcc1dd643461b9", "ae4ef43b7dd05053"),
    "gems-4x8-offload,lower_p2p": ("45bcc1dd643461b9", "ae4ef43b7dd05053"),
    "gems-4x8-lower_p2p,fuse_comm": ("5f4e53dbb559d963", "5409e14eaa0fcc6c"),
    "gems-4x8-recompute": ("ae075cf7870397be", "b85e1fe69129a830"),
    "dapple-4x4-implicit": ("883e1d3c7a0da2b3", "2b2c29329e53ff03"),
    "dapple-4x4-lower_p2p": ("1b147a8bda8d090c", "2c074633f281ea95"),
    "dapple-4x4-offload,lower_p2p": ("01bbe64d6d6986b2", "fc6b96d9a661a864"),
    "dapple-4x4-lower_p2p,fuse_comm": ("172f1e46461f1e14", "c9ff4d8a202a3e16"),
    "dapple-4x4-recompute": ("309e5c5054deb487", "2df4a117e57f3ff1"),
    "dapple-4x8-implicit": ("b7924f6d60891fa6", "20117b66eb2debb7"),
    "dapple-4x8-lower_p2p": ("56db664e0c463f89", "b5f6bc2d147b0ed7"),
    "dapple-4x8-offload,lower_p2p": ("4de419cb979b9fd8", "7ad651cf4c734703"),
    "dapple-4x8-lower_p2p,fuse_comm": ("83c9e3f2bc5c7205", "be8f1fa32a49e27d"),
    "dapple-4x8-recompute": ("b48cbb509001fa67", "9538c5eb0ce08d9c"),
    "chimera-4x4-implicit": ("200b4c8b516c1c7b", "b55514c5ab14c080"),
    "chimera-4x4-lower_p2p": ("0ecadac2e9a4ee60", "bc87d7ff19b0af79"),
    "chimera-4x4-offload,lower_p2p": ("08de061693ecc311", "490285bcda0e954b"),
    "chimera-4x4-lower_p2p,fuse_comm": ("31eb919b06eae87f", "bf2a3bbb4fd998da"),
    "chimera-4x4-recompute": ("59042e2ceb2fac17", "4415667ee9cfee82"),
    "chimera-4x8-implicit": ("c686b2eeef632d48", "c92f4851ba8d95e2"),
    "chimera-4x8-lower_p2p": ("1e42c00dc3b13fda", "e7efa8273b130d43"),
    "chimera-4x8-offload,lower_p2p": ("a700b8fc9379eec6", "16b537f5817422e3"),
    "chimera-4x8-lower_p2p,fuse_comm": ("078ef8225fabc310", "b54b9c49b94992ad"),
    "chimera-4x8-recompute": ("5f185b26f2127d9c", "c2d349b5d7f5fca6"),
    "zb_h1-4x4-implicit": ("e60c46db94c8a309", "248456984d2cc6ab"),
    "zb_h1-4x4-lower_p2p": ("a8b7c4f4764b58e0", "65a98ce00d33c451"),
    "zb_h1-4x4-offload,lower_p2p": ("6f327cbca80048f6", "96da3c78914014a0"),
    "zb_h1-4x4-lower_p2p,fuse_comm": ("ae5b4b99f0b68467", "e680fb80fd7389ed"),
    "zb_h1-4x4-recompute": ("887cb42dffe9ac1e", "0c6b189712321cb1"),
    "zb_h1-4x8-implicit": ("cfd7249bf8966288", "5c4372836a56a0c5"),
    "zb_h1-4x8-lower_p2p": ("e9e10bb3defe384d", "c1019e4206a06554"),
    "zb_h1-4x8-offload,lower_p2p": ("46123de9fa41521f", "e2994903d224678a"),
    "zb_h1-4x8-lower_p2p,fuse_comm": ("8fdfe3458180fc4f", "baae5a8059f4f09b"),
    "zb_h1-4x8-recompute": ("9c1aac46eecf24aa", "292faa86a3c80274"),
    "zb_v-4x4-implicit": ("e262e61cfc8cb055", "e32e314da76f0ffa"),
    "zb_v-4x4-lower_p2p": ("f295b88e04a8e0a7", "e6bf00728dbb4c5f"),
    "zb_v-4x4-offload,lower_p2p": ("301ad632d11fef6e", "082352c78f932236"),
    "zb_v-4x4-lower_p2p,fuse_comm": ("c9920396fd597204", "1035efa857303f60"),
    "zb_v-4x4-recompute": ("a432c2006cfa3329", "67abd5941b0dcfd9"),
    "zb_v-4x8-implicit": ("35c6ca2ceecc5198", "c210f92f73fbf994"),
    "zb_v-4x8-lower_p2p": ("7fa214c4172e2328", "15b782ca3d584983"),
    "zb_v-4x8-offload,lower_p2p": ("cda536ee8b09b26b", "502026fbd2fb0c3e"),
    "zb_v-4x8-lower_p2p,fuse_comm": ("f9b58e8dbe3bb9c8", "7a647c5cb5f32001"),
    "zb_v-4x8-recompute": ("0c0037574ad379ea", "9d1abb6d9d38670e"),
    "zb_vhalf-4x4-implicit": ("43262aec5bb935e3", "21a86d6ece4acc69"),
    "zb_vhalf-4x4-lower_p2p": ("72aec2486947c3c5", "2340590851efb4a2"),
    "zb_vhalf-4x4-offload,lower_p2p": ("79b3e7d3e7a8bcd3", "150e71865cf7a1e5"),
    "zb_vhalf-4x4-lower_p2p,fuse_comm": ("c27dee351867dfcc", "f8a998945adefbaf"),
    "zb_vhalf-4x4-recompute": ("8ba0daf2bef75282", "1d14843890aa1f8f"),
    "zb_vhalf-4x8-implicit": ("c9424c280956012f", "a93fe1da0f014d32"),
    "zb_vhalf-4x8-lower_p2p": ("e2a040b46aa7e092", "0a0d783c8c216640"),
    "zb_vhalf-4x8-offload,lower_p2p": ("d6ac081ae94a5629", "98b0f812f69af75a"),
    "zb_vhalf-4x8-lower_p2p,fuse_comm": ("2ad24d3723d1a3f8", "5e37c4c4140e14e7"),
    "zb_vhalf-4x8-recompute": ("c2520fc29a947ee5", "79e6096480c45afd"),
    "zb_vmin-4x4-implicit": ("5ccf4c5bb2644009", "079617bfb59beb34"),
    "zb_vmin-4x4-lower_p2p": ("f4ea7dc2fee5edf9", "f77c53f5ca9ef7c3"),
    "zb_vmin-4x4-offload,lower_p2p": ("640c9caf3978f9d3", "eb2ca1522b6cd373"),
    "zb_vmin-4x4-lower_p2p,fuse_comm": ("f1ab8d16ae82f46e", "7a9ac000bab1702c"),
    "zb_vmin-4x4-recompute": ("328a4fb628572be7", "e3755d4df9c53e28"),
    "zb_vmin-4x8-implicit": ("00a695e1c7a60f95", "010b7dcda4d49da4"),
    "zb_vmin-4x8-lower_p2p": ("1c870d34c6109c59", "5a571fb16985e377"),
    "zb_vmin-4x8-offload,lower_p2p": ("c9576ab2d2363962", "1635bd00829c38fe"),
    "zb_vmin-4x8-lower_p2p,fuse_comm": ("ffb92ab8b7cf5e9b", "3435f4b8443296ba"),
    "zb_vmin-4x8-recompute": ("0221001384d1f26a", "3fcd6d62b8a10890"),
    "synthesize-4x4-implicit": ("1959b4e365e3efa8", "ceddebca3154a8ad"),
    "synthesize-4x4-lower_p2p": ("88de5a70d3daf702", "5a3cce86876b08a3"),
    "synthesize-4x4-offload,lower_p2p": ("4812267284a75143", "1be8d83740b5cc1b"),
    "synthesize-4x4-lower_p2p,fuse_comm": ("40cbb49a1f50788b", "990af8218bad9674"),
    "synthesize-4x4-recompute": ("18dfede7f13bebec", "8a48a9993a0e6f15"),
    "synthesize-4x8-implicit": ("aab383ac8db13a8d", "373b2a20848fcb48"),
    "synthesize-4x8-lower_p2p": ("c9e5704e37bce218", "ad765b8a8375b01c"),
    "synthesize-4x8-offload,lower_p2p": ("3096fbc7355487ae", "2229970c8bacbbcb"),
    "synthesize-4x8-lower_p2p,fuse_comm": ("5db7a2731035c3be", "5b9ce5f590da4dd8"),
    "synthesize-4x8-recompute": ("8238d05b08754e24", "2853f573b45e4e2e"),
}


#: The kernel's array attributes the kernel column hashes.
KERNEL_ARRAYS = (
    "ops",
    "edge_src",
    "edge_dst",
    "edge_cls",
    "order",
    "send_oid",
    "send_worker",
    "send_dst_w",
    "send_units",
    "send_row_pos",
    "send_host_dir",
    "send_chan_idx",
    "send_by_wave",
    "tr_edge_pos",
    "tr_edge_send",
    "wave_op_ptr",
    "wave_edge_ptr",
    "wave_red_ptr",
    "wave_tr_ptr",
    "wave_send_ptr",
    "red_off",
    "red_dst",
    "compute_ids",
    "compute_by_worker",
    "worker_ptr",
)


def _digest(graph) -> str:
    schedule = graph.schedule
    h = hashlib.sha256()
    h.update(repr(list(graph.location.items())).encode())
    for incoming in graph.deps.values():
        for e in incoming:
            h.update(repr((e.src, e.dst, e.kind, e.payload_units)).encode())
    if not schedule.lowered:
        lowered = lower_schedule(schedule, graph=graph).schedule
        h.update(repr(lowered.worker_ops).encode())
    return h.hexdigest()[:16]


def _kernel_digest(graph) -> str:
    kernel = ScheduleKernel(graph)
    h = hashlib.sha256()
    for name in KERNEL_ARRAYS:
        array = getattr(kernel, name)
        h.update(repr((name, array.dtype.str, array.shape)).encode())
        h.update(array.tobytes())
    h.update(
        repr(
            (
                kernel.total,
                kernel.num_waves,
                kernel.num_channels,
                kernel.delay_classes,
                kernel._inc_ptr,
                [(code, op.key()) for code, op in kernel.shape_reps],
                list(kernel.sync_groups.items()),
            )
        ).encode()
    )
    return h.hexdigest()[:16]


CASES = [
    f"{scheme}-{d}x{n}-{pipeline or 'implicit'}"
    for scheme in available_schemes()
    for d, n in SHAPES
    for pipeline in PIPELINES
]


def test_table_covers_every_registered_scheme():
    assert sorted(CASES) == sorted(EXPECTED)


def _graph(case: str):
    scheme, shape, pipeline = case.split("-")
    d, n = (int(x) for x in shape.split("x"))
    passes = None if pipeline == "implicit" else pipeline
    return build_dependency_graph(build_schedule(scheme, d, n, passes=passes))


@pytest.mark.parametrize("case", CASES)
def test_graph_and_lowering_match_recorded_digest(case):
    assert _digest(_graph(case)) == EXPECTED[case][0]


@pytest.mark.parametrize("case", CASES)
def test_kernel_matches_recorded_digest(case):
    assert _kernel_digest(_graph(case)) == EXPECTED[case][1]


#: ``blocking_aux().order`` of the schemes the planner simulates with
#: blocking collectives: the visit order of the levelization over the
#: kernel's edges plus the collective barriers. The aux is built lazily
#: and never pickled, so no kernel digest above covers it.
EXPECTED_BLOCKING_ORDER = {
    "pipedream-4x4-implicit": "0449fe0dd7a3d361",
    "pipedream-4x4-lower_p2p": "9cb43d1746359231",
    "pipedream-4x4-offload,lower_p2p": "eea176f3de225670",
    "pipedream-4x4-lower_p2p,fuse_comm": "9083a96bfc470567",
    "pipedream-4x4-recompute": "9f023030692bb592",
    "pipedream-4x8-implicit": "29d4a5d41cd70dff",
    "pipedream-4x8-lower_p2p": "06254c90b99bea63",
    "pipedream-4x8-offload,lower_p2p": "3ba1f6bfe5498bd8",
    "pipedream-4x8-lower_p2p,fuse_comm": "6f5964d2aefd7ab6",
    "pipedream-4x8-recompute": "3d9519f0fafa2c98",
    "pipedream_2bw-4x4-implicit": "c97b1cfdd9032b51",
    "pipedream_2bw-4x4-lower_p2p": "4e98f5c32362e6ea",
    "pipedream_2bw-4x4-offload,lower_p2p": "da0b23e10289d1e7",
    "pipedream_2bw-4x4-lower_p2p,fuse_comm": "560d3f09e634cd44",
    "pipedream_2bw-4x4-recompute": "2154f3ae1ed9c7f3",
    "pipedream_2bw-4x8-implicit": "722bec9bb7035f77",
    "pipedream_2bw-4x8-lower_p2p": "47938d5d49e569d3",
    "pipedream_2bw-4x8-offload,lower_p2p": "f3c8d85737b97ce7",
    "pipedream_2bw-4x8-lower_p2p,fuse_comm": "f15515ea9d5a394d",
    "pipedream_2bw-4x8-recompute": "ee45f073ad734ee7",
}


def test_blocking_table_covers_the_pipedream_cases():
    assert sorted(EXPECTED_BLOCKING_ORDER) == sorted(
        case for case in CASES if case.startswith("pipedream")
    )


@pytest.mark.parametrize("case", sorted(EXPECTED_BLOCKING_ORDER))
def test_blocking_aux_order_matches_recorded_digest(case):
    order = ScheduleKernel(_graph(case)).blocking_aux().order
    digest = hashlib.sha256(repr(order).encode()).hexdigest()[:16]
    assert digest == EXPECTED_BLOCKING_ORDER[case]


#: Pre-lowering forms of the table's pipelines (``lower_p2p`` runs on
#: each), plus the extra Chimera variants and a deeper shape.
LOWERING_CASES = [
    (scheme, d, n, passes, {})
    for scheme in available_schemes()
    for d, n in (*SHAPES, (8, 16))
    for passes in (None, "offload", "recompute")
] + [("chimera", d, n, None, {"concat": "doubling"}) for d, n in (*SHAPES, (8, 16))]


@pytest.mark.parametrize(
    "scheme,d,n,passes,options",
    LOWERING_CASES,
    ids=[
        f"{scheme}-{d}x{n}-{passes or 'implicit'}{'-doubling' if options else ''}"
        for scheme, d, n, passes, options in LOWERING_CASES
    ],
)
def test_lowering_graph_equals_rebuilt_graph(scheme, d, n, passes, options):
    """The graph lowering splices equals the builder's graph of the
    lowered schedule, table for table, and its kernel is the recorded
    one."""
    schedule = build_schedule(scheme, d, n, passes=passes, **options)
    graph = lower_schedule(schedule)
    assert graph == build_dependency_graph(graph.schedule)
    case = f"{scheme}-{d}x{n}-{passes + ',' if passes else ''}lower_p2p"
    if case in EXPECTED and not options:
        assert _kernel_digest(graph) == EXPECTED[case][1]


#: The splice battery: every scheme under each pre-lowering pipeline
#: (pipedream's per-micro-batch collectives admit no ``insert_sync``),
#: plus Chimera's forward doubling.
SPLICE_CASES = [
    (scheme, d, n, passes, {})
    for scheme in available_schemes()
    for passes in (None, "recompute", "offload", "insert_sync:eager")
    if not (scheme == "pipedream" and passes == "insert_sync:eager")
    for d, n in ((2, 1), *SHAPES, (8, 16))
] + [("chimera", d, n, None, {"concat": "doubling"}) for d, n in ((2, 1), *SHAPES, (8, 16))]


@pytest.mark.parametrize(
    "scheme,d,n,passes,options",
    SPLICE_CASES,
    ids=[
        f"{scheme}-{d}x{n}-{passes or 'implicit'}{'-doubling' if options else ''}"
        for scheme, d, n, passes, options in SPLICE_CASES
    ],
)
def test_spliced_table_equals_the_lowered_schedules_table(
    scheme, d, n, passes, options
):
    """Lowering's op table, spliced from the implicit schedule's, is the
    table of the lowered schedule's ops column for column (dtypes too),
    and the lowered graph is the builder's graph of that schedule."""
    graph = lower_schedule(build_schedule(scheme, d, n, passes=passes, **options))
    spliced = graph.table
    walked = OpTable.of(graph.schedule.worker_ops)
    for name in OpTable.__dataclass_fields__:
        column = getattr(spliced, name)
        assert column.dtype == getattr(walked, name).dtype, name
        np.testing.assert_array_equal(column, getattr(walked, name), err_msg=name)
    assert graph.schedule.op_table() is spliced
    assert graph == build_dependency_graph(graph.schedule)


def test_splice_keeps_the_micro_batches_each_producer_covers():
    """A consumer covering two micro-batches fed by one producer each:
    each message carries the consumer's micro-batches that its producer
    covers, in sorted order (no builder emits this today)."""
    F, B = OpKind.FORWARD, OpKind.BACKWARD
    schedule = Schedule(
        scheme="hand",
        placement=StagePlacement.linear(2),
        num_micro_batches=2,
        worker_ops=(
            (
                Operation(F, 0, 0, (1,)),
                Operation(F, 0, 0, (0,)),
                Operation(B, 0, 0, (0,)),
                Operation(B, 0, 0, (1,)),
            ),
            (Operation(F, 0, 1, (1, 0)), Operation(B, 0, 1, (0,)), Operation(B, 0, 1, (1,))),
        ),
    )
    graph = lower_schedule(schedule)
    sends = [op for op in graph.schedule.ops_on(0) if op.kind is OpKind.SEND]
    assert [(op.payload, op.micro_batches) for op in sends] == [
        ("act", (1,)),
        ("act", (0,)),
    ]
    walked = OpTable.of(graph.schedule.worker_ops)
    for name in OpTable.__dataclass_fields__:
        np.testing.assert_array_equal(getattr(graph.table, name), getattr(walked, name))
    assert graph == build_dependency_graph(graph.schedule)
