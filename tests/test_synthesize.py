"""The ``synthesize`` scheme: search, budgets, and fingerprinted caching.

Four concerns, mirroring the builder's contract:

* **Builder** — registration, determinism, input validation, metadata
  provenance, and the synthesized-schedule validator rule set.
* **Budgets** — the peak-stash pre-filter in full-stage (Ma) units,
  including the exact-boundary case (a candidate whose peak *equals* the
  budget must be accepted) and the actionable infeasibility error.
* **Acceptance battery** — over the D × N grid with seeded-random split
  costs, the synthesized schedule matches or beats every registered
  scheme's makespan at that scheme's own memory footprint. This is the
  ISSUE's match-or-beat guarantee, held by construction (derived seeds)
  and checked end to end here.
* **Cache keys** — cost-parameterized builds extend the cache key with
  the registered fingerprint: two different cost models or budgets never
  alias one entry, in memory or across a subprocess cold start on the
  disk tier, while explicit-default and no-options callers share one.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.common.errors import (
    ConfigurationError,
    ReproError,
    ScheduleError,
    ValidationError,
)
from repro.schedules.cache import ScheduleCache, cached_build_schedule
from repro.schedules.dependencies import build_dependency_graph
from repro.schedules.diskcache import DiskScheduleCache
from repro.schedules.ir import Schedule
from repro.schedules.registry import available_schemes, build_schedule, scheme_traits
from repro.schedules.synthesize import (
    build_synthesize_schedule,
    peak_stash_units,
    synthesis_cost_model,
    synthesize_fingerprint,
)
from repro.schedules.validate import validate_synthesized_schedule
from repro.sim.kernel import kernel_of, simulate_batch_many

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestBuilder:
    def test_registered_and_validates(self):
        assert "synthesize" in available_schemes()
        assert scheme_traits("synthesize").cost_parameterized
        schedule = build_schedule("synthesize", 4, 8)
        assert schedule.scheme == "synthesize"
        validate_synthesized_schedule(schedule)

    def test_deterministic(self):
        a = build_synthesize_schedule(4, 8, b_time=1.3, w_time=0.7)
        b = build_synthesize_schedule(4, 8, b_time=1.3, w_time=0.7)
        assert a.worker_ops == b.worker_ops
        assert dict(a.metadata) == dict(b.metadata)

    def test_metadata_carries_provenance(self):
        schedule = build_synthesize_schedule(
            4, 8, b_time=1.5, w_time=0.5, comm_time=0.1, memory_budget_units=4.0
        )
        meta = schedule.metadata
        assert meta["cost"] == (1.0, 1.5, 0.5, 0.1)
        assert meta["memory_budget_units"] == 4.0
        assert meta["peak_units"] == pytest.approx(peak_stash_units(schedule))
        assert meta["makespan"] > 0
        assert meta["beam"] == (4, 3)
        assert isinstance(meta["seed"], str) and meta["seed"]

    @pytest.mark.parametrize(
        "kwargs, exc",
        [
            (dict(depth=0), ScheduleError),
            (dict(num_micro_batches=0), ScheduleError),
            (dict(f_time=0.0), ConfigurationError),
            (dict(b_time=-1.0), ConfigurationError),
            (dict(w_time=0.0), ConfigurationError),
            (dict(comm_time=-0.1), ConfigurationError),
            (dict(memory_budget_units=0.0), ConfigurationError),
            (dict(beam_width=0), ConfigurationError),
            (dict(beam_rounds=-1), ConfigurationError),
        ],
    )
    def test_input_validation(self, kwargs, exc):
        full = dict(depth=4, num_micro_batches=8)
        full.update(kwargs)
        depth = full.pop("depth")
        n = full.pop("num_micro_batches")
        with pytest.raises(exc):
            build_synthesize_schedule(depth, n, **full)

    def test_registry_rejects_unknown_builder_option(self):
        with pytest.raises(ConfigurationError):
            build_schedule("synthesize", 4, 8, frobnicate=1)


class TestValidatorRules:
    def test_wrong_scheme_rejected(self):
        with pytest.raises(ValidationError, match="scheme 'synthesize'"):
            validate_synthesized_schedule(build_schedule("dapple", 4, 4))

    def test_fused_backward_rejected(self):
        base = build_schedule("dapple", 4, 4)
        fake = Schedule(
            scheme="synthesize",
            placement=base.placement,
            num_micro_batches=base.num_micro_batches,
            worker_ops=base.worker_ops,
            synchronous=base.synchronous,
            metadata=base.metadata,
        )
        with pytest.raises(ValidationError, match="fused backward"):
            validate_synthesized_schedule(fake)

    def test_missing_provenance_rejected(self):
        good = build_schedule("synthesize", 4, 4)
        stripped = Schedule(
            scheme="synthesize",
            placement=good.placement,
            num_micro_batches=good.num_micro_batches,
            worker_ops=good.worker_ops,
            synchronous=good.synchronous,
        )
        with pytest.raises(ValidationError, match="metadata"):
            validate_synthesized_schedule(stripped)

    def test_peak_recount_mismatch_rejected(self):
        tampered = build_schedule("synthesize", 4, 4).with_metadata(peak_units=99.0)
        with pytest.raises(ValidationError, match="peak"):
            validate_synthesized_schedule(tampered)

    def test_budget_violation_rejected(self):
        schedule = build_schedule("synthesize", 4, 8)
        with pytest.raises(ValidationError, match="budget"):
            validate_synthesized_schedule(schedule, memory_budget_units=0.25)


class TestBudget:
    def test_budget_caps_peak(self):
        schedule = build_synthesize_schedule(4, 16, memory_budget_units=3.0)
        assert peak_stash_units(schedule) <= 3.0 + 1e-9

    def test_exact_boundary_accepted(self):
        """A budget equal to an achievable peak must not be rejected by
        float drift — the planner-side analogue is MemoryReport.fits."""
        free = build_synthesize_schedule(4, 16)
        peak = peak_stash_units(free)
        pinned = build_synthesize_schedule(4, 16, memory_budget_units=peak)
        assert peak_stash_units(pinned) <= peak + 1e-9

    def test_infeasible_budget_names_floor(self):
        with pytest.raises(ScheduleError, match="smallest achievable peak"):
            build_synthesize_schedule(4, 16, memory_budget_units=0.1)

    def test_tighter_budget_never_faster(self):
        free = build_synthesize_schedule(8, 16, b_time=1.2, w_time=0.8)
        tight = build_synthesize_schedule(
            8, 16, b_time=1.2, w_time=0.8, memory_budget_units=3.0
        )
        assert tight.metadata["makespan"] >= free.metadata["makespan"] - 1e-9


#: The ISSUE's acceptance grid. Costs are seeded per point so the battery
#: is deterministic yet covers a spread of b/w asymmetries and comm costs.
ACCEPTANCE_GRID = [(d, n) for d in (4, 8, 16) for n in (16, 32, 64)]


@pytest.mark.parametrize("depth,n", ACCEPTANCE_GRID)
def test_acceptance_matches_or_beats_every_scheme(depth, n):
    """At every scheme's own memory footprint, the synthesized schedule's
    makespan is <= that scheme's (pre-sync compute makespan, identical
    cost model). Small beam: the guarantee comes from the derived seeds;
    refinement may only improve on it."""
    rng = random.Random(1000 * depth + n)
    b = round(rng.uniform(0.5, 2.0), 3)
    w = round(rng.uniform(0.5, 2.0), 3)
    comm = rng.choice([0.0, 0.05])
    model = synthesis_cost_model(1.0, b, w, comm)

    entries = []
    for scheme in available_schemes():
        if scheme_traits(scheme).cost_parameterized:
            continue
        try:
            schedule = cached_build_schedule(scheme, depth, n)
        except ReproError:
            continue
        entries.append((scheme, schedule, peak_stash_units(schedule)))
    assert entries
    batch = simulate_batch_many(
        [(kernel_of(build_dependency_graph(s)), model) for _, s, _ in entries]
    )
    makespans = {
        scheme: float(batch.compute_makespan[i])
        for i, (scheme, _, _) in enumerate(entries)
    }
    peaks = {scheme: peak for scheme, _, peak in entries}

    for budget in sorted({round(p, 9) for p in peaks.values()}):
        synth = build_synthesize_schedule(
            depth,
            n,
            b_time=b,
            w_time=w,
            comm_time=comm,
            memory_budget_units=budget,
            beam_width=2,
            beam_rounds=1,
        )
        assert synth.metadata["peak_units"] <= budget + 1e-9
        for scheme, peak in peaks.items():
            if peak <= budget + 1e-9:
                assert synth.metadata["makespan"] <= makespans[scheme] + 1e-9, (
                    f"synthesize lost to {scheme} at D={depth}, N={n}, "
                    f"b={b}, w={w}, comm={comm}, budget={budget:g}"
                )


class TestFingerprint:
    def test_defaults_fill_in(self):
        assert synthesize_fingerprint({}) == synthesize_fingerprint(
            dict(
                f_time=1.0,
                b_time=1.0,
                w_time=1.0,
                comm_time=0.0,
                memory_budget_units=None,
                beam_width=4,
                beam_rounds=3,
            )
        )

    def test_distinct_costs_distinct_fingerprints(self):
        base = synthesize_fingerprint({})
        assert synthesize_fingerprint(dict(b_time=2.0)) != base
        assert synthesize_fingerprint(dict(memory_budget_units=2.0)) != base
        assert synthesize_fingerprint(dict(beam_rounds=0)) != base

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown option"):
            synthesize_fingerprint(dict(frobnicate=1))

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a number"):
            synthesize_fingerprint(dict(b_time="fast"))


class TestCacheKeys:
    """Satellite: (scheme, D, N)-equal synthesized builds never alias."""

    def test_classic_schemes_keep_four_tuple_keys(self):
        key = ScheduleCache.key("dapple", 4, 8, {})
        assert key is not None and len(key) == 4

    def test_synthesize_keys_carry_fingerprint(self):
        base = ScheduleCache.key("synthesize", 4, 8, {})
        assert base is not None and len(base) == 5
        assert base != ScheduleCache.key("synthesize", 4, 8, dict(b_time=2.0))
        assert base != ScheduleCache.key(
            "synthesize", 4, 8, dict(memory_budget_units=2.0)
        )
        # Explicit defaults share the no-options entry.
        assert base == ScheduleCache.key(
            "synthesize", 4, 8, dict(f_time=1.0, beam_width=4)
        )

    def test_pipeline_options_still_keyed_alongside_fingerprint(self):
        base = ScheduleCache.key("synthesize", 4, 8, {})
        recompute = ScheduleCache.key("synthesize", 4, 8, dict(passes="recompute"))
        assert recompute != base
        assert ScheduleCache.key("synthesize", 4, 8, dict(passes="")) == base

    def test_in_process_no_alias(self, tmp_path):
        cache = ScheduleCache(8, disk=DiskScheduleCache(tmp_path / "disk"))
        fast_w = cache.artifacts("synthesize", 4, 8, w_time=0.25).schedule
        slow_w = cache.artifacts("synthesize", 4, 8, w_time=4.0).schedule
        assert fast_w.metadata["cost"] != slow_w.metadata["cost"]
        assert cache.stats().entries == 2
        again = cache.artifacts("synthesize", 4, 8, w_time=0.25).schedule
        assert again is fast_w  # memory hit, not a rebuild
        assert cache.stats().hits == 1

    def test_disk_tier_no_alias_across_cold_start(self, tmp_path):
        """Two synthesized builds differing only in cost parameters land in
        distinct disk entries, and a *fresh process* gets each back from
        disk (no rebuild) with the right provenance."""
        script = """\
import json
from repro.schedules.cache import cached_build_schedule, disk_cache_stats

def rows(schedule):  # deterministic across interpreters, unlike hash()
    return [[op.short() for op in row] for row in schedule.worker_ops]

a = cached_build_schedule("synthesize", 4, 16)
b = cached_build_schedule("synthesize", 4, 16, memory_budget_units=2.0)
print(json.dumps({
    "a_budget": a.metadata["memory_budget_units"],
    "b_budget": b.metadata["memory_budget_units"],
    "a_peak": a.metadata["peak_units"], "b_peak": b.metadata["peak_units"],
    "a_ops": rows(a), "b_ops": rows(b),
    "distinct": a.worker_ops != b.worker_ops,
    "disk_hits": disk_cache_stats().hits,
}))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "warm")
        env.pop("REPRO_CACHE_DISABLE", None)

        def run():
            proc = subprocess.run(
                [sys.executable, "-c", script],
                cwd=REPO,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        warm = run()
        assert warm["a_budget"] is None and warm["b_budget"] == 2.0
        assert warm["b_peak"] <= 2.0 + 1e-9 < warm["a_peak"]
        assert warm["distinct"], "different budgets must yield different entries"

        cold = run()  # same REPRO_CACHE_DIR, fresh interpreter
        assert cold["disk_hits"] == 2, "cold start must serve both from disk"
        assert (cold["a_peak"], cold["b_peak"]) == (warm["a_peak"], warm["b_peak"])
        assert (cold["a_ops"], cold["b_ops"]) == (warm["a_ops"], warm["b_ops"])
