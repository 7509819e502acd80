"""Batch planning: ``plan_many`` against ``plan_configurations``.

The contract under test is exact behavioural parity — the batch path is
a performance feature, so every outcome (entries *and* errors, field for
field and message for message) must match planning each request alone.
Planning speed is measured end to end by the ``benchmarks/e2e`` planning
workloads; this module covers correctness and the dedup/bookkeeping
seams on small grids.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.bench import harness
from repro.bench.machines import PIZ_DAINT, V100_CLUSTER
from repro.bench.workloads import BERT48, GPT2_32, GPT2_64
from repro.common.errors import ConfigurationError
from repro.perf import planner
from repro.sim import kernel as kernel_mod
from repro.sim import memory
from repro.sim.memory import MemoryProfile
from repro.perf.planner import (
    PlanOutcome,
    PlanRequest,
    plan_configurations,
    plan_many,
)

GIB = 2**30

#: Synchronous schemes only: the async steady-state measurement is tested
#: separately (one cell) because it costs seconds per configuration.
SYNC = ("chimera", "dapple", "zb_h1")


def request(**overrides) -> PlanRequest:
    base = dict(
        machine=PIZ_DAINT,
        workload=BERT48,
        num_workers=4,
        mini_batch=16,
        schemes=SYNC,
    )
    base.update(overrides)
    return PlanRequest(**base)


def sequential(req: PlanRequest):
    """The reference: one ``plan_configurations`` call per request."""
    try:
        return plan_configurations(
            req.machine,
            req.workload,
            num_workers=req.num_workers,
            mini_batch=req.mini_batch,
            memory_budget_bytes=req.memory_budget_bytes,
            schemes=req.schemes,
            min_depth=req.min_depth,
            max_micro_batch=req.max_micro_batch,
            recompute=req.recompute,
            top_k=req.top_k,
            pipeline=req.pipeline,
            offload=req.offload,
            host_memory_budget_bytes=req.host_memory_budget_bytes,
        )
    except ConfigurationError as err:
        return err


class TestParity:
    def test_heterogeneous_batch_matches_sequential_exactly(self):
        requests = [
            request(),
            request(mini_batch=32),
            request(machine=V100_CLUSTER, workload=GPT2_32, num_workers=8),
            request(memory_budget_bytes=6 * GIB),
            # Tight budget with the offload axis off: the recompute retry
            # admits candidates the plain attempt prunes.
            request(memory_budget_bytes=3 * GIB, offload=False),
            request(num_workers=8, schemes=("chimera", "zb_v")),
            request(pipeline="lower_p2p,fuse_comm"),
            request(recompute=True),
        ]
        outcomes = plan_many(requests)
        assert [o.request for o in outcomes] == requests
        for req, outcome in zip(requests, outcomes):
            reference = sequential(req)
            assert outcome.ok, outcome.error
            assert list(outcome.entries) == reference

    def test_entries_are_bit_identical_not_just_close(self):
        req = request(num_workers=8, mini_batch=32)
        [outcome] = plan_many([req])
        reference = sequential(req)
        for got, want in zip(outcome.entries, reference):
            # Dataclass equality covers it, but spell out the float fields:
            # the contract is ==, not approx.
            assert got.iteration_time == want.iteration_time
            assert got.throughput == want.throughput
            assert got.bubble_ratio == want.bubble_ratio
            assert got.peak_memory_bytes == want.peak_memory_bytes

    def test_async_scheme_parity(self):
        """The threaded steady-state path returns the same entries."""
        req = request(schemes=("pipedream", "chimera"), mini_batch=8)
        [a] = plan_many([req], max_workers=1)
        [b] = plan_many([req], max_workers=4)
        assert a.ok and b.ok
        assert list(a.entries) == sequential(req)
        assert a.entries == b.entries


class TestErrors:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(num_workers=1), "at least two workers"),
            (dict(mini_batch=0), "mini-batch must be positive"),
            (dict(schemes=()), "empty scheme list"),
            (dict(min_depth=5), "no valid (W, D) factorization"),
            (
                dict(memory_budget_bytes=0.05 * GIB),
                "fits the 0.05 GiB memory budget",
            ),
        ],
    )
    def test_error_parity_with_sequential(self, overrides, fragment):
        req = request(**overrides)
        [outcome] = plan_many([req])
        reference = sequential(req)
        assert not outcome.ok
        assert isinstance(outcome.error, ConfigurationError)
        assert isinstance(reference, ConfigurationError)
        assert str(outcome.error) == str(reference)
        assert fragment in str(outcome.error)

    def test_unknown_scheme_raises_with_available_list(self):
        [outcome] = plan_many([request(schemes=("chimera", "nope"))])
        assert not outcome.ok
        assert "nope" in str(outcome.error)

    def test_one_bad_request_does_not_abort_the_batch(self):
        good, bad = request(), request(num_workers=1)
        outcomes = plan_many([bad, good, bad])
        assert [o.ok for o in outcomes] == [False, True, False]
        assert list(outcomes[1].entries) == sequential(good)
        # The same failed request yields the same captured error object.
        assert outcomes[0].error is outcomes[2].error

    def test_raise_or_entries(self):
        ok = PlanOutcome(request=request(), entries=())
        assert ok.raise_or_entries() == []
        err = ConfigurationError("boom")
        with pytest.raises(ConfigurationError, match="boom"):
            PlanOutcome(request=request(), error=err).raise_or_entries()

    def test_max_workers_validated(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            plan_many([request()], max_workers=0)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(num_workers=1), "at least two workers"),  # prune step
            (dict(memory_budget_bytes=0.05 * GIB), "0.05 GiB"),  # finalize step
        ],
    )
    def test_captured_error_does_not_pin_the_call_context(self, overrides, fragment):
        """A captured error carries no traceback, so dropping the outcome
        frees the call's context (and every artifact it pinned) by
        reference counting alone, without a cyclic collection."""
        req = request(**overrides)
        gc.collect()
        gc.disable()
        try:
            [outcome] = plan_many([req], max_workers=1)
            assert not outcome.ok
            assert outcome.error.__traceback__ is None
            with pytest.raises(ConfigurationError, match=fragment):
                outcome.raise_or_entries()
            del outcome
            live = [o for o in gc.get_objects() if isinstance(o, planner._PlanContext)]
            assert live == []
        finally:
            gc.enable()


class TestDedup:
    def test_identical_requests_pruned_once(self, monkeypatch):
        calls = []
        orig = planner._prune_request

        def counting(req, ctx):
            calls.append(req)
            return orig(req, ctx)

        monkeypatch.setattr(planner, "_prune_request", counting)
        req = request()
        outcomes = plan_many([req, req, req])
        assert len(calls) == 1
        assert outcomes[0].entries == outcomes[1].entries == outcomes[2].entries

    def test_equal_but_distinct_objects_collapse(self, monkeypatch):
        """Dedup is by value (frozen dataclass equality), not identity."""
        calls = []
        orig = planner._prune_request

        def counting(req, ctx):
            calls.append(req)
            return orig(req, ctx)

        monkeypatch.setattr(planner, "_prune_request", counting)
        plan_many([request(), request()])
        assert len(calls) == 1

    def test_shared_sync_rows_simulated_once(self, monkeypatch):
        """Two requests over the same machine/workload share kernel rows:
        the batched call sees each distinct (graph, cost model) row once,
        not once per request."""
        seen = []
        orig = planner.simulate_batch_many

        def counting(items, **kwargs):
            seen.append(len(items))
            return orig(items, **kwargs)

        monkeypatch.setattr(planner, "simulate_batch_many", counting)
        base = request()
        [solo] = plan_many([base])
        solo_rows = seen.pop()
        # top_k differs -> distinct requests, but identical survivor cells.
        outcomes = plan_many([base, request(top_k=1)])
        assert len(seen) == 1  # ONE simulate_batch_many call for the batch
        assert seen[0] == solo_rows  # ... with no duplicated rows
        assert outcomes[0].ok and outcomes[1].ok
        assert outcomes[1].entries == outcomes[0].entries[:1]

    def test_memory_profiles_compile_once_per_cache_entry(self, monkeypatch):
        """The call context memoizes memory reports per call only, so a
        later call asks ``analyze_memory`` again, but for the cache
        entries' resident profiles: the schedules are not walked again,
        whatever the machine."""
        compiled = []
        priced = []
        compile_profile = memory.compile_memory_profile
        analyze = harness.analyze_memory

        def counting_compile(schedule):
            compiled.append(schedule)
            return compile_profile(schedule)

        def counting_analyze(profile, model):
            priced.append(profile)
            return analyze(profile, model)

        monkeypatch.setattr(memory, "compile_memory_profile", counting_compile)
        monkeypatch.setattr(harness, "analyze_memory", counting_analyze)
        [first] = plan_many([request(mini_batch=64)])
        assert priced and all(isinstance(p, MemoryProfile) for p in priced)
        del compiled[:], priced[:]
        again, v100 = plan_many(
            [request(mini_batch=64), request(machine=V100_CLUSTER, mini_batch=64)]
        )
        assert again.entries == first.entries and v100.ok
        assert priced and not compiled


class TestPlannerMemo:
    """A row or memory pricing the process already did is a lookup, and
    every answer equals the one planned over emptied memos."""

    HOT = dict(num_workers=8, mini_batch=32, schemes=("dapple", "chimera"))
    HOT_SET = (
        (PIZ_DAINT, BERT48, 32),
        (V100_CLUSTER, GPT2_32, 32),
        (PIZ_DAINT, GPT2_64, 64),
        (V100_CLUSTER, BERT48, 64),
    )

    @staticmethod
    def answer(outcome: PlanOutcome):
        return outcome.entries if outcome.ok else str(outcome.error)

    def cold(self, req: PlanRequest):
        planner._ROW_MEMO.clear()
        memory._REPORTS.clear()
        return self.answer(plan_many([req], max_workers=1)[0])

    def test_hits_answer_like_emptied_memos(self, monkeypatch):
        solved = []
        solve = kernel_mod._batch_rows

        def spy(kernel, models):
            solved.append(len(models))
            return solve(kernel, models)

        monkeypatch.setattr(kernel_mod, "_batch_rows", spy)
        hot = request(**self.HOT)
        variants = [
            hot,
            hot,
            request(**self.HOT, memory_budget_bytes=6 * GIB),
            request(**{**self.HOT, "schemes": ("chimera",)}),
        ]
        warm, rows = [], []
        for req in variants:
            del solved[:]
            warm.append(self.answer(plan_many([req], max_workers=1)[0]))
            rows.append(sum(solved))
        # The repeat and the chimera subset only repeat rows, the 6 GiB
        # variant mixes hits with new rows.
        assert rows[1] == rows[3] == 0 and rows[2] > 0
        for req, got in zip(variants, warm):
            assert got == self.cold(req)

    def test_concurrent_planners_agree(self):
        requests = [
            request(**{**self.HOT, "mini_batch": mini_batch}, machine=m, workload=w)
            for m, w, mini_batch in self.HOT_SET
        ]
        want = [self.cold(req) for req in requests]
        planner._ROW_MEMO.clear()
        memory._REPORTS.clear()
        got: list = []
        errors: list = []

        def client(offset: int) -> None:
            try:
                for i in range(len(requests)):
                    k = (i + offset) % len(requests)
                    [outcome] = plan_many([requests[k]], max_workers=1)
                    got.append((k, self.answer(outcome)))
            except Exception as err:  # pragma: no cover - reported below
                errors.append(err)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(got) == 8 * len(requests)
        assert all(answer == want[k] for k, answer in got)


class TestRequestSurface:
    def test_schemes_list_coerced_to_tuple_and_hashable(self):
        req = PlanRequest(
            machine=PIZ_DAINT,
            workload=BERT48,
            num_workers=4,
            mini_batch=16,
            schemes=["chimera", "dapple"],
        )
        assert req.schemes == ("chimera", "dapple")
        assert hash(req) == hash(request(schemes=("chimera", "dapple")))

    def test_absent_pipeline_is_the_planner_default(self):
        """``pipeline=None`` means the one planner constant, so both
        spellings are one request (and dedup to one computation)."""
        explicit = request(pipeline=planner.DEFAULT_PLAN_PIPELINE)
        assert request() == explicit
        assert request().pipeline == ("lower_p2p",)
        assert request(pipeline=()).pipeline == ()

    def test_top_k_truncates_after_ranking(self):
        full = sequential(request())
        [top] = plan_many([request(top_k=2)])
        assert list(top.entries) == full[:2]
