"""Parity tripwire for the dependency graph and lowering.

Pins a sha256 (first 16 hex digits) of each case's
``list(graph.location.items())``, every ``graph.deps`` edge as
``(src, dst, kind, payload_units)`` in ``deps`` order, and, for
schedules that are not lowered yet, ``lower_schedule(...).worker_ops``.
The digests were recorded from the dict-of-``OpKey`` graph builder, so
any change to op numbering, edge order, edge payloads or lowered op order
fails here. If a change to a *builder* or *pass* is intended to reshape
schedules, regenerate the table with ``_digest`` and review the diff.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.schedules.dependencies import build_dependency_graph
from repro.schedules.lowering import lower_schedule
from repro.schedules.registry import available_schemes, build_schedule

SHAPES = ((4, 4), (4, 8))
PIPELINES = ("", "lower_p2p", "offload,lower_p2p", "lower_p2p,fuse_comm", "recompute")

EXPECTED = {
    "pipedream-4x4-implicit": "34f3086cd7bdf730",
    "pipedream-4x4-lower_p2p": "283fe61cc1a56f75",
    "pipedream-4x4-offload,lower_p2p": "6eac899971261877",
    "pipedream-4x4-lower_p2p,fuse_comm": "90e626a7c9e5ec30",
    "pipedream-4x4-recompute": "6ef9148411b83d56",
    "pipedream-4x8-implicit": "13acec698821273d",
    "pipedream-4x8-lower_p2p": "cbe2fe51d4642c5d",
    "pipedream-4x8-offload,lower_p2p": "17521b703682014a",
    "pipedream-4x8-lower_p2p,fuse_comm": "31b648ac125ffd8a",
    "pipedream-4x8-recompute": "b3f1ce1b3f67a7a2",
    "pipedream_2bw-4x4-implicit": "883e1d3c7a0da2b3",
    "pipedream_2bw-4x4-lower_p2p": "1b147a8bda8d090c",
    "pipedream_2bw-4x4-offload,lower_p2p": "01bbe64d6d6986b2",
    "pipedream_2bw-4x4-lower_p2p,fuse_comm": "172f1e46461f1e14",
    "pipedream_2bw-4x4-recompute": "309e5c5054deb487",
    "pipedream_2bw-4x8-implicit": "b7924f6d60891fa6",
    "pipedream_2bw-4x8-lower_p2p": "56db664e0c463f89",
    "pipedream_2bw-4x8-offload,lower_p2p": "4de419cb979b9fd8",
    "pipedream_2bw-4x8-lower_p2p,fuse_comm": "83c9e3f2bc5c7205",
    "pipedream_2bw-4x8-recompute": "b48cbb509001fa67",
    "gpipe-4x4-implicit": "a436848b2f5a48ed",
    "gpipe-4x4-lower_p2p": "5b43372e43ddcc7b",
    "gpipe-4x4-offload,lower_p2p": "8c3521aa697e69b5",
    "gpipe-4x4-lower_p2p,fuse_comm": "2f9c1576aa6c669a",
    "gpipe-4x4-recompute": "6d9c90414b7f00b6",
    "gpipe-4x8-implicit": "cc8362f217146975",
    "gpipe-4x8-lower_p2p": "e602f45db31f515d",
    "gpipe-4x8-offload,lower_p2p": "56add4ab9e289c5e",
    "gpipe-4x8-lower_p2p,fuse_comm": "8fa7981c8d109ef0",
    "gpipe-4x8-recompute": "0c11f3b3d3ecd48e",
    "gems-4x4-implicit": "d964025159d9a3b0",
    "gems-4x4-lower_p2p": "b6b1476fc0731028",
    "gems-4x4-offload,lower_p2p": "b6b1476fc0731028",
    "gems-4x4-lower_p2p,fuse_comm": "2a4b3a5a4546717f",
    "gems-4x4-recompute": "a8f449c5a1d7a1b5",
    "gems-4x8-implicit": "618ecd69f04c0dd8",
    "gems-4x8-lower_p2p": "45bcc1dd643461b9",
    "gems-4x8-offload,lower_p2p": "45bcc1dd643461b9",
    "gems-4x8-lower_p2p,fuse_comm": "5f4e53dbb559d963",
    "gems-4x8-recompute": "ae075cf7870397be",
    "dapple-4x4-implicit": "883e1d3c7a0da2b3",
    "dapple-4x4-lower_p2p": "1b147a8bda8d090c",
    "dapple-4x4-offload,lower_p2p": "01bbe64d6d6986b2",
    "dapple-4x4-lower_p2p,fuse_comm": "172f1e46461f1e14",
    "dapple-4x4-recompute": "309e5c5054deb487",
    "dapple-4x8-implicit": "b7924f6d60891fa6",
    "dapple-4x8-lower_p2p": "56db664e0c463f89",
    "dapple-4x8-offload,lower_p2p": "4de419cb979b9fd8",
    "dapple-4x8-lower_p2p,fuse_comm": "83c9e3f2bc5c7205",
    "dapple-4x8-recompute": "b48cbb509001fa67",
    "chimera-4x4-implicit": "200b4c8b516c1c7b",
    "chimera-4x4-lower_p2p": "0ecadac2e9a4ee60",
    "chimera-4x4-offload,lower_p2p": "08de061693ecc311",
    "chimera-4x4-lower_p2p,fuse_comm": "31eb919b06eae87f",
    "chimera-4x4-recompute": "59042e2ceb2fac17",
    "chimera-4x8-implicit": "c686b2eeef632d48",
    "chimera-4x8-lower_p2p": "1e42c00dc3b13fda",
    "chimera-4x8-offload,lower_p2p": "a700b8fc9379eec6",
    "chimera-4x8-lower_p2p,fuse_comm": "078ef8225fabc310",
    "chimera-4x8-recompute": "5f185b26f2127d9c",
    "zb_h1-4x4-implicit": "e60c46db94c8a309",
    "zb_h1-4x4-lower_p2p": "a8b7c4f4764b58e0",
    "zb_h1-4x4-offload,lower_p2p": "6f327cbca80048f6",
    "zb_h1-4x4-lower_p2p,fuse_comm": "ae5b4b99f0b68467",
    "zb_h1-4x4-recompute": "887cb42dffe9ac1e",
    "zb_h1-4x8-implicit": "cfd7249bf8966288",
    "zb_h1-4x8-lower_p2p": "e9e10bb3defe384d",
    "zb_h1-4x8-offload,lower_p2p": "46123de9fa41521f",
    "zb_h1-4x8-lower_p2p,fuse_comm": "8fdfe3458180fc4f",
    "zb_h1-4x8-recompute": "9c1aac46eecf24aa",
    "zb_v-4x4-implicit": "e262e61cfc8cb055",
    "zb_v-4x4-lower_p2p": "f295b88e04a8e0a7",
    "zb_v-4x4-offload,lower_p2p": "301ad632d11fef6e",
    "zb_v-4x4-lower_p2p,fuse_comm": "c9920396fd597204",
    "zb_v-4x4-recompute": "a432c2006cfa3329",
    "zb_v-4x8-implicit": "35c6ca2ceecc5198",
    "zb_v-4x8-lower_p2p": "7fa214c4172e2328",
    "zb_v-4x8-offload,lower_p2p": "cda536ee8b09b26b",
    "zb_v-4x8-lower_p2p,fuse_comm": "f9b58e8dbe3bb9c8",
    "zb_v-4x8-recompute": "0c0037574ad379ea",
    "zb_vhalf-4x4-implicit": "43262aec5bb935e3",
    "zb_vhalf-4x4-lower_p2p": "72aec2486947c3c5",
    "zb_vhalf-4x4-offload,lower_p2p": "79b3e7d3e7a8bcd3",
    "zb_vhalf-4x4-lower_p2p,fuse_comm": "c27dee351867dfcc",
    "zb_vhalf-4x4-recompute": "8ba0daf2bef75282",
    "zb_vhalf-4x8-implicit": "c9424c280956012f",
    "zb_vhalf-4x8-lower_p2p": "e2a040b46aa7e092",
    "zb_vhalf-4x8-offload,lower_p2p": "d6ac081ae94a5629",
    "zb_vhalf-4x8-lower_p2p,fuse_comm": "2ad24d3723d1a3f8",
    "zb_vhalf-4x8-recompute": "c2520fc29a947ee5",
    "zb_vmin-4x4-implicit": "5ccf4c5bb2644009",
    "zb_vmin-4x4-lower_p2p": "f4ea7dc2fee5edf9",
    "zb_vmin-4x4-offload,lower_p2p": "640c9caf3978f9d3",
    "zb_vmin-4x4-lower_p2p,fuse_comm": "f1ab8d16ae82f46e",
    "zb_vmin-4x4-recompute": "328a4fb628572be7",
    "zb_vmin-4x8-implicit": "00a695e1c7a60f95",
    "zb_vmin-4x8-lower_p2p": "1c870d34c6109c59",
    "zb_vmin-4x8-offload,lower_p2p": "c9576ab2d2363962",
    "zb_vmin-4x8-lower_p2p,fuse_comm": "ffb92ab8b7cf5e9b",
    "zb_vmin-4x8-recompute": "0221001384d1f26a",
    "synthesize-4x4-implicit": "1959b4e365e3efa8",
    "synthesize-4x4-lower_p2p": "88de5a70d3daf702",
    "synthesize-4x4-offload,lower_p2p": "4812267284a75143",
    "synthesize-4x4-lower_p2p,fuse_comm": "40cbb49a1f50788b",
    "synthesize-4x4-recompute": "18dfede7f13bebec",
    "synthesize-4x8-implicit": "aab383ac8db13a8d",
    "synthesize-4x8-lower_p2p": "c9e5704e37bce218",
    "synthesize-4x8-offload,lower_p2p": "3096fbc7355487ae",
    "synthesize-4x8-lower_p2p,fuse_comm": "5db7a2731035c3be",
    "synthesize-4x8-recompute": "8238d05b08754e24",
}


def _digest(schedule) -> str:
    graph = build_dependency_graph(schedule)
    h = hashlib.sha256()
    h.update(repr(list(graph.location.items())).encode())
    for incoming in graph.deps.values():
        for e in incoming:
            h.update(repr((e.src, e.dst, e.kind, e.payload_units)).encode())
    if not schedule.lowered:
        h.update(repr(lower_schedule(schedule, graph=graph).worker_ops).encode())
    return h.hexdigest()[:16]


CASES = [
    f"{scheme}-{d}x{n}-{pipeline or 'implicit'}"
    for scheme in available_schemes()
    for d, n in SHAPES
    for pipeline in PIPELINES
]


def test_table_covers_every_registered_scheme():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("case", CASES)
def test_graph_and_lowering_match_recorded_digest(case):
    scheme, shape, pipeline = case.split("-")
    d, n = (int(x) for x in shape.split("x"))
    passes = None if pipeline == "implicit" else pipeline
    schedule = build_schedule(scheme, d, n, passes=passes)
    assert _digest(schedule) == EXPECTED[case]
