"""The ``repro bench`` suite, its JSON schema, and the CI regression gate.

The deterministic parts (schema, checksum, checker verdicts) are tested
exactly; the timing-dependent parts (speedups) are tested against wide
margins on reduced grids, plus the acceptance measurement — the batch
path at least 3x the event engine on the D=16, N=64 grid — on the full
scheme list. The checker's floor verdicts are also tested on planted
summaries.
"""

import copy
import dataclasses
import json

import pytest

from repro.bench import perfsuite
from repro.cli import main
from repro.common.errors import ConfigurationError, ScheduleError
from repro.schedules.registry import available_schemes, scheme_traits
from repro.sim import kernel as kernel_mod

#: The fixed-grid suite covers every scheme with a cost-independent
#: canonical build; cost-parameterized schemes (synthesize) are compared
#: against the built-ins by `repro synthesize` instead.
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
    assert "synthesize" not in payload and "schedule_cache" not in payload
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

    # The whole section dropped is named as such, on top of every case.
    del dropped["offload"]
    violations = perfsuite.check_against(dropped, small_payload)
    assert any("offload section disappeared" in v for v in violations)
    assert all(v.startswith("offload ") for v in violations)
    cases = len(small_payload["offload"]["cases"])
    assert sum("offload case disappeared" in v for v in violations) == cases


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
    (it raises beyond 1e-9), fused-vs-lowered parity in ``run_suite``."""
    payload = perfsuite.run_suite(depths=(16,), repeats=2)
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


#: One cheap case per check: the suite's own runner, not a re-spelling.
GPIPE_FAST = dict(fast=True, schemes=("gpipe",), repeats=1, batch_size=2)


def test_engine_divergence_raises(monkeypatch):
    """An event engine that drifts 1e-6 from the kernel fails the case."""
    real = perfsuite.simulate

    def drifting(*args, **kwargs):
        result = real(*args, **kwargs)
        result.compute_makespan += 1e-6
        return result

    monkeypatch.setattr(perfsuite, "simulate", drifting)
    case = perfsuite.BenchCase("gpipe", 8, 16, "implicit")
    with pytest.raises(ScheduleError, match="makespan divergence on gpipe/D8/N16/"):
        perfsuite.run_case(case, repeats=1, batch_size=2)


def test_batch_routing_mismatch_raises(monkeypatch):
    """A batch row routed against its regime fails the case."""
    real = perfsuite.simulate_batch_many

    def misrouted(*args, **kwargs):
        batch = real(*args, **kwargs)
        flipped = tuple(not used for used in batch.used_fast_path)
        return dataclasses.replace(batch, used_fast_path=flipped)

    monkeypatch.setattr(perfsuite, "simulate_batch_many", misrouted)
    case = perfsuite.BenchCase("gpipe", 8, 16, "contended")
    with pytest.raises(ScheduleError, match="routing mismatch on gpipe/D8/N16/"):
        perfsuite.run_case(case, repeats=1, batch_size=2)


@pytest.mark.parametrize("mode", ["lowered", "contended"])
def test_every_timed_batch_repeat_solves_every_row(monkeypatch, mode):
    """The batch timing measures the kernel, not a memo: the warm-up and
    each timed repeat solve all of the case's rows (``simulate_batch_many``
    memoizes only when its caller passes a memo), so the same-run batch
    floors keep timing sweeps."""
    solved = []
    solve = kernel_mod._batch_rows

    def spy(kernel, models):
        solved.append(len(models))
        return solve(kernel, models)

    monkeypatch.setattr(kernel_mod, "_batch_rows", spy)
    case = perfsuite.BenchCase("gpipe", 8, 16, mode)
    perfsuite.run_case(case, repeats=3, batch_size=4)
    assert solved == [4] * (1 + 3)


def test_fused_parity_violation_raises(monkeypatch):
    """A fused case whose makespan leaves the lowered one fails the suite."""
    real = perfsuite.run_case

    def planted(case, **kwargs):
        result = real(case, **kwargs)
        if case.mode == "fused":
            result["compute_makespan"] += 1e-6
        return result

    monkeypatch.setattr(perfsuite, "run_case", planted)
    with pytest.raises(ScheduleError, match="fuse_comm parity violation on gpipe/D8"):
        perfsuite.run_suite(**GPIPE_FAST)


def test_missing_host_channel_occupancy_raises(monkeypatch):
    """An offload case whose stash copies hold no host channel fails."""
    real = perfsuite.simulate_fast

    def no_stash(*args, **kwargs):
        result = real(*args, **kwargs)
        result.transfers = tuple(t for t in result.transfers if t.payload != "stash")
        return result

    monkeypatch.setattr(perfsuite, "simulate_fast", no_stash)
    with pytest.raises(
        ScheduleError, match="no host-channel occupancy on gpipe/D8/N16/offload"
    ):
        perfsuite.run_suite(**GPIPE_FAST)


def test_floors_survive_a_refused_baseline(small_payload):
    """The D=16 floors read only the current run, so a schema mismatch
    that refuses the baseline must not drop their verdict."""
    slow = copy.deepcopy(small_payload)
    slow["summary"]["d16_batch_speedup_min"] = 2.9
    slow["schema_version"] = perfsuite.SCHEMA_VERSION + 1
    violations = perfsuite.check_against(slow, small_payload)
    assert any(
        "d16 batch speedup 2.90x fell below the 3x floor" in v for v in violations
    )
    assert any("schema version mismatch" in v for v in violations)


def test_default_output_name(small_payload):
    name = perfsuite.default_output_name(small_payload)
    assert name.startswith("BENCH_") and name.endswith(".json")


def test_zero_repeats_rejected():
    """repeats=0 would bake an unfailable (ops/sec 0, NaN) baseline."""
    with pytest.raises(ValueError, match="repeats"):
        perfsuite.run_suite(fast=True, schemes=("gpipe",), repeats=0)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--repeats", "0"),
        ("--inject-slowdown", "0"),
        ("--inject-slowdown", "-1"),
        ("--inject-slowdown", "nan"),
        ("--tolerance", "-0.1"),
        ("--tolerance", "1"),
        ("--tolerance", "nan"),
    ],
)
def test_cli_bench_rejects_bad_flags_before_the_suite(flag, value, monkeypatch):
    """A zero slowdown would divide by zero after the first case, and a
    tolerance of 1 or more (or NaN) would let every throughput case pass."""

    def suite_ran(**kw):
        raise AssertionError("the suite ran before the flags were checked")

    monkeypatch.setattr("repro.bench.perfsuite.run_suite", suite_ran)
    with pytest.raises(ConfigurationError, match=f"^{flag} must be"):
        main(["bench", "--fast", flag, value])
