"""The ``repro bench`` suite, its JSON schema, and the CI regression gate.

The deterministic parts (schema, checksum, checker verdicts) are tested
exactly; the timing-dependent parts (speedups) are tested against wide
margins on reduced grids, plus the acceptance measurement — the batch
path at least 3x the event engine on the D=16, N=64 grid — on the full
scheme list. The checker's floor verdicts are also tested on planted
summaries.
"""

import copy
import json

import pytest

from repro.bench import perfsuite
from repro.cli import main
from repro.schedules.registry import available_schemes, scheme_traits

#: The fixed-grid suite covers every scheme with a cost-independent
#: canonical build; cost-parameterized schemes (synthesize) get their own
#: non-gating block instead.
SUITE_SCHEMES = tuple(
    s for s in available_schemes() if not scheme_traits(s).cost_parameterized
)

#: Reduced grid shared by the deterministic tests: small, but still both
#: communication modes and a mix of fused/split-backward schemes.
SMALL = dict(fast=True, schemes=("gpipe", "chimera", "zb_h1"), repeats=1, batch_size=3)


@pytest.fixture(scope="module")
def small_payload():
    return perfsuite.run_suite(**SMALL)


def test_suite_grid_covers_every_scheme():
    cases = perfsuite.suite_cases()
    assert len(cases) == len(SUITE_SCHEMES) * 3 * 5
    ids = {c.case_id for c in cases}
    assert len(ids) == len(cases)
    for scheme in SUITE_SCHEMES:
        for depth in perfsuite.SUITE_DEPTHS:
            for mode in perfsuite.MODES:
                assert f"{scheme}/D{depth}/N64/{mode}" in ids
    assert perfsuite.MODES == (
        "implicit", "lowered", "fused", "contended", "contended_fused"
    )
    assert len(perfsuite.suite_cases(fast=True)) == len(SUITE_SCHEMES) * 5


def test_payload_schema(small_payload):
    payload = small_payload
    assert payload["schema_version"] == perfsuite.SCHEMA_VERSION
    assert payload["suite"] == "fast"
    assert payload["calibration_score"] > 0
    assert len(payload["cases"]) == len(SMALL["schemes"]) * 5
    assert "contended_batch_speedup_min" in payload["summary"]
    for case in payload["cases"]:
        assert case["ops"] > 0
        assert case["compute_makespan"] > 0
        assert case["iteration_time"] >= case["compute_makespan"]
        for engine in ("event", "fast", "batch"):
            assert case[engine]["ops_per_sec"] > 0
    summary = payload["summary"]
    assert summary["makespan_checksum"] == perfsuite.makespan_checksum(payload["cases"])
    offload = payload["offload"]
    assert summary["offload_fast_speedup_min"] == offload["fast_speedup_min"]
    assert len(offload["cases"]) == len(perfsuite.OFFLOAD_SCHEMES) * len(
        perfsuite.OFFLOAD_FAST_DEPTHS
    ) * len(perfsuite.OFFLOAD_MODES)
    for case in offload["cases"]:
        assert case["host_copies"] > 0  # the pass really offloaded stashes
        assert case["compute_makespan"] > 0
        for engine in ("event", "fast"):
            assert case[engine]["ops_per_sec"] > 0
    # JSON-serializable end to end.
    json.loads(json.dumps(payload))


def test_makespans_are_deterministic(small_payload):
    again = perfsuite.run_suite(**SMALL)
    assert (
        again["summary"]["makespan_checksum"]
        == small_payload["summary"]["makespan_checksum"]
    )


def test_self_check_passes(small_payload):
    assert perfsuite.check_against(small_payload, small_payload) == []


def test_injected_25pct_slowdown_fails_gate(small_payload):
    """The acceptance scenario: a synthetic 25% throughput drop is caught."""
    slowed = copy.deepcopy(small_payload)
    for case in slowed["cases"]:
        for engine in ("event", "fast", "batch"):
            case[engine]["ops_per_sec"] *= 0.75
    violations = perfsuite.check_against(slowed, small_payload)
    assert violations, "25% slowdown must trip the 20% gate"
    assert any("throughput regressed" in v for v in violations)
    # 25% is invisible at a 30% tolerance: the knob works both ways.
    assert perfsuite.check_against(slowed, small_payload, tolerance=0.30) == []


def test_injected_slowdown_in_offload_block_fails_gate(small_payload):
    """The gate covers the offload section too: a regression confined to
    the host-channel cases (engine cases untouched) still trips it."""
    slowed = copy.deepcopy(small_payload)
    for case in slowed["offload"]["cases"]:
        for engine in ("event", "fast"):
            case[engine]["ops_per_sec"] *= 0.75
    violations = perfsuite.check_against(slowed, small_payload)
    assert violations, "25% offload slowdown must trip the 20% gate"
    assert all(v.startswith("offload ") for v in violations)
    assert any("throughput regressed" in v for v in violations)

    dropped = copy.deepcopy(small_payload)
    gone = dropped["offload"]["cases"].pop(0)
    violations = perfsuite.check_against(dropped, small_payload)
    assert any(
        gone["id"] in v and "disappeared" in v for v in violations
    )


def test_makespan_mismatch_fails_gate(small_payload):
    wrong = copy.deepcopy(small_payload)
    wrong["cases"][0]["compute_makespan"] += 1e-6
    violations = perfsuite.check_against(wrong, small_payload)
    assert any("compute_makespan mismatch" in v for v in violations)


def test_case_set_and_schema_guards(small_payload):
    missing = copy.deepcopy(small_payload)
    dropped = missing["cases"].pop(0)
    violations = perfsuite.check_against(missing, small_payload)
    assert any(dropped["id"] in v and "disappeared" in v for v in violations)

    other_schema = copy.deepcopy(small_payload)
    other_schema["schema_version"] = perfsuite.SCHEMA_VERSION + 1
    assert any(
        "schema version mismatch" in v
        for v in perfsuite.check_against(other_schema, small_payload)
    )

    other_suite = copy.deepcopy(small_payload)
    other_suite["suite"] = "full"
    assert any(
        "suite mismatch" in v
        for v in perfsuite.check_against(other_suite, small_payload)
    )


def test_slowdown_injection_scales_measurements():
    base = perfsuite.run_suite(fast=True, schemes=("gpipe",), repeats=1, batch_size=2)
    slowed = perfsuite.run_suite(
        fast=True,
        schemes=("gpipe",),
        repeats=1,
        batch_size=2,
        inject_slowdown=4.0,
    )
    assert slowed["inject_slowdown"] == 4.0
    # Makespans are simulation outputs, not wall times: untouched.
    assert (
        slowed["summary"]["makespan_checksum"]
        == base["summary"]["makespan_checksum"]
    )
    for cur, ref in zip(slowed["cases"], base["cases"]):
        assert cur["event"]["wall_s"] > ref["event"]["wall_s"]


def test_cli_bench_writes_json_and_gates(tmp_path):
    out = tmp_path / "BENCH_test.json"
    baseline = tmp_path / "baseline.json"
    code = main(["bench", "--fast", "--repeats", "1", "-o", str(baseline)])
    assert code == 0
    payload = json.loads(baseline.read_text())
    assert payload["schema_version"] == perfsuite.SCHEMA_VERSION

    # Wide margins keep this a plumbing test, not a timing test (the
    # tight 20%-tolerance logic is covered deterministically above): a
    # clean re-run passes at 90% tolerance...
    code = main(
        [
            "bench", "--fast", "--repeats", "1",
            "-o", str(out), "--check-against", str(baseline),
            "--tolerance", "0.9",
        ]
    )
    assert code == 0
    # ...and a 100x synthetic slowdown fails even there.
    code = main(
        [
            "bench", "--fast", "--repeats", "1",
            "-o", str(out), "--check-against", str(baseline),
            "--tolerance", "0.9", "--inject-slowdown", "100.0",
        ]
    )
    assert code == 1


def test_acceptance_batch_speedup_at_d16():
    """Tentpole acceptance: batch path >= 3x
    (:data:`perfsuite.BATCH_SPEEDUP_FLOOR`) the event engine at D=16,
    N=64 for every registered scheme across all five modes — and >= 5x
    (:data:`perfsuite.CONTENDED_BATCH_SPEEDUP_FLOOR`) on the lowered
    *contended* cases, where the event engine pays per-event channel
    bookkeeping while the kernel's FIFO serialization stays in one
    vectorized sweep. Makespan parity is enforced inside ``run_case``
    (it raises beyond 1e-9), fused-vs-lowered parity in ``run_suite``.
    The planner load harness has its own acceptance test below."""
    payload = perfsuite.run_suite(depths=(16,), repeats=2, planner=False)
    assert len(payload["cases"]) == len(SUITE_SCHEMES) * 5
    worst = payload["summary"]["d16_batch_speedup_min"]
    assert worst >= perfsuite.BATCH_SPEEDUP_FLOOR, (
        f"batch path only {worst:.1f}x the event engine"
    )
    contended = payload["summary"]["d16_contended_batch_speedup_min"]
    assert contended >= perfsuite.CONTENDED_BATCH_SPEEDUP_FLOOR, (
        f"contended batch path only {contended:.1f}x the event engine"
    )
    assert perfsuite.check_against(payload, payload) == []


def test_contended_floor_trips_checker(small_payload):
    """A run whose D=16 batch speedup sinks below its absolute floor (5x
    on the contended cases, 3x on every case) fails the gate even
    against an equally slow baseline."""
    for key, speedup in (
        ("d16_contended_batch_speedup_min", 4.2),
        ("d16_batch_speedup_min", 2.9),
    ):
        slow = copy.deepcopy(small_payload)
        slow["summary"][key] = speedup
        violations = perfsuite.check_against(slow, slow)
        assert any("below" in v and "floor" in v for v in violations), key


class TestPlannerSection:
    """The schema-4 ``planner_qps`` load-harness section and its gates."""

    def test_payload_carries_planner_section(self, small_payload):
        planner = small_payload["planner_qps"]
        assert planner["requests"] == perfsuite.QPS_FAST_REQUESTS
        assert planner["distinct_requests"] < planner["requests"]
        assert planner["plan_many_wall_s"] > 0
        assert planner["plan_many_speedup"] > 1.0
        assert planner["clients"] == perfsuite.QPS_CLIENTS
        assert planner["client_batch"] == perfsuite.QPS_FAST_BATCH
        assert planner["qps"] > 0
        assert 0 < planner["p50_ms"] <= planner["p99_ms"]
        assert 0.0 <= planner["schedule_cache_hit_rate"] <= 1.0
        summary = small_payload["summary"]
        assert summary["planner_qps"] == planner["qps"]
        assert (
            summary["planner_plan_many_speedup"]
            == planner["plan_many_speedup"]
        )
        # The cache metadata block rides along on every payload.
        cache = small_payload["schedule_cache"]
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_rate"] <= 1.0

    def test_planner_false_drops_the_section(self):
        payload = perfsuite.run_suite(**SMALL, planner=False)
        assert "planner_qps" not in payload
        assert "planner_qps" not in payload["summary"]

    def test_plan_many_floor_trips_checker(self, small_payload):
        """Like the contended floor: absolute, so an equally slow baseline
        does not excuse it."""
        slow = copy.deepcopy(small_payload)
        slow["planner_qps"]["plan_many_speedup"] = (
            perfsuite.PLAN_MANY_SPEEDUP_FLOOR - 0.1
        )
        violations = perfsuite.check_against(slow, slow)
        assert any(
            "plan_many" in v and "floor" in v for v in violations
        ), violations

    def test_qps_regression_trips_checker(self, small_payload):
        slowed = copy.deepcopy(small_payload)
        slowed["planner_qps"]["qps"] *= 0.7
        violations = perfsuite.check_against(slowed, small_payload)
        assert any("planner_qps: QPS regressed" in v for v in violations)
        # 30% is invisible at a 40% tolerance.
        assert not any(
            "QPS regressed" in v
            for v in perfsuite.check_against(
                slowed, small_payload, tolerance=0.40
            )
        )

    def test_missing_section_against_planner_baseline_trips(self, small_payload):
        current = copy.deepcopy(small_payload)
        del current["planner_qps"]
        violations = perfsuite.check_against(current, small_payload)
        assert any(
            "planner_qps section disappeared" in v for v in violations
        )
        # ... but a planner-less baseline doesn't demand one.
        baseline = copy.deepcopy(small_payload)
        del baseline["planner_qps"]
        assert perfsuite.check_against(baseline, baseline) == []

    def test_injected_slowdown_drops_qps(self, small_payload):
        """The CI self-test path: injection scales the planner walls, so
        the measured QPS sinks and the normalized gate trips."""
        slowed = perfsuite.run_planner_qps(
            fast=True, slowdown=3.0, multiprocess=False
        )
        clean = small_payload["planner_qps"]
        assert slowed["plan_many_wall_s"] > 0
        assert slowed["qps"] < clean["qps"]

    def test_payload_carries_multiprocess_phase(self, small_payload):
        planner = small_payload["planner_qps"]
        assert planner["mp_workers"] == perfsuite.QPS_MP_WORKERS
        assert planner["cpu_count"] >= 1
        assert planner["mp_wall_s"] > 0
        assert planner["mp_qps"] > 0
        assert planner["mp_speedup"] > 0
        summary = small_payload["summary"]
        assert summary["planner_mp_qps"] == planner["mp_qps"]
        assert summary["planner_mp_speedup"] == planner["mp_speedup"]

    def test_payload_carries_coalesce_phase(self, small_payload):
        planner = small_payload["planner_qps"]
        assert planner["coalesce_clients"] == perfsuite.QPS_CLIENTS
        assert planner["coalesce_window_ms"] == perfsuite.QPS_COALESCE_MS
        # The whole point: K concurrent clients, fewer than K dispatches.
        assert planner["coalesce_batches"] < planner["coalesce_clients"]
        assert planner["coalesced_requests"] > 0
        assert planner["coalesce_dispatched"] == planner["coalesce_clients"]

    def test_mp_floor_trips_checker_on_big_hosts_only(self, small_payload):
        """The 2x floor is conditioned on the recorded host: a 4-worker
        pool on a >= 4-core box must clear it, while a 1-core CI runner
        records the phase without being judged by it."""
        slow = copy.deepcopy(small_payload)
        planner = slow["planner_qps"]
        planner["mp_speedup"] = 1.0
        planner["cpu_count"] = 8
        planner["mp_workers"] = perfsuite.QPS_MP_WORKERS
        violations = perfsuite.check_against(slow, slow)
        assert any(
            "multiprocess QPS" in v and "floor" in v for v in violations
        ), violations
        planner["cpu_count"] = 1  # same ratio, small host: no judgement
        assert not any(
            "floor" in v and "multiprocess" in v
            for v in perfsuite.check_against(slow, slow)
        )

    def test_mp_qps_regression_trips_checker(self, small_payload):
        slowed = copy.deepcopy(small_payload)
        slowed["planner_qps"]["mp_qps"] *= 0.5
        violations = perfsuite.check_against(slowed, small_payload)
        assert any(
            "planner_qps: multiprocess QPS regressed" in v
            for v in violations
        ), violations

    def test_mp_phase_disappearing_trips_checker(self, small_payload):
        current = copy.deepcopy(small_payload)
        del current["planner_qps"]["mp_qps"]
        violations = perfsuite.check_against(current, small_payload)
        assert any(
            "multiprocess phase disappeared" in v for v in violations
        ), violations


def test_acceptance_plan_many_speedup_at_d16():
    """Planner-service acceptance: the full 1000-request heterogeneous
    stream (D=16-capable grids on both machine models), planned as one
    ``plan_many`` batch, at least 5x
    (:data:`perfsuite.PLAN_MANY_SPEEDUP_FLOOR`) faster than per-request
    ``plan_configurations`` — with every entry verified 1e-9-identical to
    the sequential reference inside ``run_planner_qps`` (it raises on any
    divergence). The concurrent-client phase is skipped: QPS needs a
    baseline to gate against, while this floor is absolute."""
    section = perfsuite.run_planner_qps(
        fast=False, concurrent=False, multiprocess=False
    )
    assert section["requests"] == perfsuite.QPS_REQUESTS
    speedup = section["plan_many_speedup"]
    assert speedup >= perfsuite.PLAN_MANY_SPEEDUP_FLOOR, (
        f"plan_many only {speedup:.1f}x sequential planning "
        f"(sequential {section['sequential_wall_s']:.1f}s extrapolated, "
        f"batch {section['plan_many_wall_s']:.1f}s)"
    )


def test_default_output_name(small_payload):
    name = perfsuite.default_output_name(small_payload)
    assert name.startswith("BENCH_") and name.endswith(".json")


def test_zero_repeats_rejected():
    """repeats=0 would bake an unfailable (ops/sec 0, NaN) baseline."""
    with pytest.raises(ValueError, match="repeats"):
        perfsuite.run_suite(fast=True, schemes=("gpipe",), repeats=0)
