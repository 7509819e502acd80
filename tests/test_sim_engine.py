"""Discrete-event engine: timing semantics, p2p delays, sync overlap.

The engine is the oracle the array kernel is checked against, not a user
path: :class:`TestEngineIsTheOracle` keeps library code off it.
"""

import ast
import pathlib

import pytest

from repro.schedules.registry import available_schemes, build_schedule
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.kernel import simulate_fast
from repro.sim.network import FlatTopology, HierarchicalTopology, LinkSpec


class TestComputeTiming:
    def test_single_micro_batch_serial_chain(self):
        """One micro-batch: D forwards then D backwards, strictly serial."""
        s = build_schedule("dapple", 4, 1)
        r = simulate(s, CostModel.practical())
        assert r.compute_makespan == pytest.approx(4 * 1 + 4 * 2)

    def test_worker_order_respected(self):
        s = build_schedule("dapple", 4, 4)
        r = simulate(s, CostModel.practical())
        for w in range(4):
            timed = r.timed_ops_on(w)
            for a, b in zip(timed, timed[1:]):
                assert b.start >= a.end - 1e-12

    def test_dependencies_respected(self):
        s = build_schedule("chimera", 4, 4)
        r = simulate(s, CostModel.practical())
        from repro.schedules.dependencies import build_dependency_graph

        g = build_dependency_graph(s)
        for key, edges in g.deps.items():
            if key not in r.timed:
                continue
            for e in edges:
                if e.src in r.timed and r.timed[key].op.is_compute:
                    assert r.timed[key].start >= r.timed[e.src].end - 1e-12

    def test_backward_ratio_scales_makespan(self):
        s = build_schedule("gpipe", 2, 2)
        fast = simulate(s, CostModel(forward_time=1.0, backward_ratio=1.0))
        slow = simulate(s, CostModel(forward_time=1.0, backward_ratio=3.0))
        assert slow.compute_makespan > fast.compute_makespan

    def test_recompute_ratio_applies(self):
        plain = simulate(build_schedule("dapple", 4, 4), CostModel.practical())
        recomp = simulate(
            build_schedule("dapple", 4, 4, passes="recompute"), CostModel.practical()
        )
        assert recomp.compute_makespan > plain.compute_makespan

    def test_stage_scale_heterogeneity(self):
        cost = CostModel(forward_time=1.0, stage_scale=(1.0, 3.0))
        r = simulate(build_schedule("dapple", 2, 4), cost)
        hom = simulate(build_schedule("dapple", 2, 4), CostModel.practical())
        assert r.compute_makespan > hom.compute_makespan

    def test_busy_plus_bubble_equals_makespan(self):
        s = build_schedule("chimera", 8, 8)
        r = simulate(s, CostModel.practical())
        for w in range(8):
            assert r.busy_time(w) + r.bubble_time(w) == pytest.approx(
                r.compute_makespan
            )


class TestP2P:
    def _cost(self, alpha):
        topo = FlatTopology(LinkSpec(alpha=alpha, beta=0.0))
        return CostModel(
            forward_time=1.0, topology=topo, activation_message_bytes=1.0
        )

    def test_p2p_latency_stretches_pipeline(self):
        s = build_schedule("dapple", 4, 1)
        base = simulate(s, self._cost(0.0))
        lat = simulate(s, self._cost(0.5))
        # 3 forward hops + 3 backward hops, 0.5 each.
        assert lat.compute_makespan == pytest.approx(base.compute_makespan + 3.0)

    def test_p2p_can_hide_in_bubbles(self):
        """With enough slack, p2p latency does not translate 1:1 into
        iteration time for schedules with interior bubbles."""
        s = build_schedule("chimera", 4, 4)
        base = simulate(s, self._cost(0.0))
        lat = simulate(s, self._cost(0.25))
        stretch = lat.compute_makespan - base.compute_makespan
        serial = 0.25 * 6 * 2  # every hop fully serialized
        assert stretch < serial


class TestSync:
    def _cost(self, **kw):
        topo = FlatTopology(LinkSpec(alpha=0.0, beta=1e-3))
        return CostModel(
            forward_time=1.0,
            topology=topo,
            stage_grad_bytes=100.0,
            data_parallel_width=2,
            **kw,
        )

    def test_nonblocking_sync_extends_iteration_not_compute(self):
        s = build_schedule("chimera", 4, 4, sync_mode="lazy")
        r = simulate(s, self._cost())
        assert r.iteration_time > r.compute_makespan
        assert r.sync_tail() > 0

    def test_blocking_sync_slower_or_equal(self):
        s = build_schedule("chimera", 4, 4, sync_mode="lazy")
        nb = simulate(s, self._cost())
        bl = simulate(s, self._cost(), blocking_sync=True)
        assert bl.iteration_time >= nb.iteration_time - 1e-12

    def test_launch_overhead_charged_to_worker(self):
        s = build_schedule("chimera", 4, 4, sync_mode="eager")
        base = simulate(s, self._cost())
        heavy = simulate(s, self._cost(sync_launch_overhead=0.5))
        assert heavy.iteration_time > base.iteration_time

    def test_eager_sync_starts_collectives_earlier(self):
        eager = simulate(build_schedule("chimera", 4, 4, sync_mode="eager"), self._cost())
        lazy = simulate(build_schedule("chimera", 4, 4, sync_mode="lazy"), self._cost())
        eager_first = min(c.start for c in eager.collectives)
        lazy_first = min(c.start for c in lazy.collectives)
        assert eager_first < lazy_first

    def test_collective_records_have_full_groups(self):
        s = build_schedule("chimera", 4, 4)
        r = simulate(s, self._cost())
        for c in r.collectives:
            assert len(c.workers) == 2  # two stage replicas per stage (f=1)

    def test_overlap_slowdown_penalizes_overlapped_collectives(self):
        s = build_schedule("chimera", 4, 4, sync_mode="eager")
        base = simulate(s, self._cost())
        slowed = simulate(s, self._cost(sync_overlap_slowdown=0.5))
        assert slowed.iteration_time >= base.iteration_time


class TestEventQueueMatchesKernel:
    """Differential: the event-queue engine and the array kernel time
    every implicit-communication schedule identically, blocking or not."""

    def _cost_models(self):
        topo = FlatTopology(LinkSpec(alpha=0.1, beta=1e-3))
        return [
            CostModel.practical(),
            CostModel(
                forward_time=1.0,
                topology=topo,
                activation_message_bytes=10.0,
                stage_grad_bytes=100.0,
                data_parallel_width=2,
                sync_launch_overhead=0.05,
            ),
        ]

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_identical_timings(self, scheme):
        s = build_schedule(scheme, 4, 8)
        for cm in self._cost_models():
            a = simulate(s, cm)
            b = simulate_fast(s, cm)
            assert a.iteration_time == pytest.approx(b.iteration_time, abs=1e-12)
            assert a.compute_makespan == pytest.approx(
                b.compute_makespan, abs=1e-12
            )
            for key, timed in a.timed.items():
                assert timed.start == pytest.approx(b.timed[key].start, abs=1e-12)
                assert timed.end == pytest.approx(b.timed[key].end, abs=1e-12)

    @pytest.mark.parametrize("scheme", ["chimera", "pipedream", "zb_v"])
    def test_identical_under_blocking_sync(self, scheme):
        s = build_schedule(scheme, 4, 8)
        for cm in self._cost_models():
            a = simulate(s, cm, blocking_sync=True)
            b = simulate_fast(s, cm, blocking_sync=True)
            assert a.iteration_time == pytest.approx(b.iteration_time, abs=1e-12)
            for key, timed in a.timed.items():
                assert timed.start == pytest.approx(b.timed[key].start, abs=1e-12)

    def test_dense_cache_reused_across_cost_models(self):
        from repro.schedules.dependencies import build_dependency_graph

        s = build_schedule("chimera", 4, 4)
        g = build_dependency_graph(s)
        r1 = simulate(s, CostModel.practical(), graph=g)
        dense = getattr(g, "_dense")
        r2 = simulate(s, CostModel.unit(), graph=g)
        assert getattr(g, "_dense") is dense
        assert r2.compute_makespan != r1.compute_makespan


class TestHierarchicalSimulation:
    """HierarchicalTopology end to end: intra/inter hops and collectives."""

    def _cost(self, gpus_per_node, **kw):
        topo = HierarchicalTopology(
            intra=LinkSpec(alpha=0.01, beta=0.0),
            inter=LinkSpec(alpha=1.0, beta=0.0),
            gpus_per_node=gpus_per_node,
            **kw,
        )
        return CostModel(
            forward_time=1.0, topology=topo, activation_message_bytes=1.0
        )

    def test_node_boundary_hop_dominates(self):
        s = build_schedule("dapple", 4, 1)
        inside = simulate(s, self._cost(4))
        split = simulate(s, self._cost(2))
        # One forward + one backward hop cross the node boundary.
        assert split.compute_makespan == pytest.approx(
            inside.compute_makespan + 2 * (1.0 - 0.01)
        )

    def test_collective_spanning_nodes_pays_inter_link(self):
        topo_narrow = HierarchicalTopology(
            intra=LinkSpec(0.0, 1e-4), inter=LinkSpec(0.0, 1e-1), gpus_per_node=4
        )
        topo_wide = HierarchicalTopology(
            intra=LinkSpec(0.0, 1e-4), inter=LinkSpec(0.0, 1e-1), gpus_per_node=2
        )
        s = build_schedule("chimera", 4, 4)
        base = dict(
            forward_time=1.0, stage_grad_bytes=100.0, data_parallel_width=2
        )
        within = simulate(s, CostModel(topology=topo_narrow, **base))
        spanning = simulate(s, CostModel(topology=topo_wide, **base))
        # Chimera's stage-replica pairs {0,3} and {1,2} span nodes when
        # only two workers share one.
        assert max(c.cost for c in spanning.collectives) > max(
            c.cost for c in within.collectives
        )


class TestBlockingSyncAblation:
    """blocking_sync=True semantics (the §3.2 ablation)."""

    def _cost(self):
        topo = FlatTopology(LinkSpec(alpha=0.0, beta=1e-2))
        return CostModel(
            forward_time=1.0,
            topology=topo,
            stage_grad_bytes=100.0,
            data_parallel_width=2,
        )

    def test_worker_blocks_until_collective_done(self):
        s = build_schedule("chimera", 4, 4, sync_mode="eager")
        r = simulate(s, self._cost(), blocking_sync=True)
        for record in r.collectives:
            for worker in record.workers:
                after = [
                    t
                    for t in r.timed_ops_on(worker)
                    if t.start > max(record.launch_times) - 1e-12
                ]
                for t in after:
                    assert t.start >= record.end - 1e-9

    def test_blocking_extends_compute_makespan(self):
        s = build_schedule("chimera", 4, 4, sync_mode="eager")
        nb = simulate(s, self._cost())
        bl = simulate(s, self._cost(), blocking_sync=True)
        assert bl.compute_makespan > nb.compute_makespan

    def test_blocking_equals_nonblocking_without_collective_cost(self):
        s = build_schedule("chimera", 4, 4)
        cm = CostModel.practical()  # no topology: collectives are free
        assert simulate(s, cm, blocking_sync=True).iteration_time == (
            pytest.approx(simulate(s, cm).iteration_time)
        )

    def test_blocking_sync_tail_is_zero(self):
        """A blocking iteration ends with its last compute op — the
        collectives were folded into the workers' timelines."""
        s = build_schedule("chimera", 4, 4, sync_mode="lazy")
        r = simulate(s, self._cost(), blocking_sync=True)
        last_launch = max(c.launch_times[-1] for c in r.collectives)
        assert r.iteration_time == pytest.approx(
            max(r.compute_makespan, max(c.end for c in r.collectives))
        )
        assert last_launch <= r.iteration_time


class TestEngineIsTheOracle:
    #: The one library module that still runs the engine: the bench
    #: suite times it as the ``event`` baseline the kernel is gated on.
    ALLOWED = {"bench/perfsuite.py"}

    @staticmethod
    def _engine_simulators(path: pathlib.Path, package: list[str]) -> set[str]:
        """Names ``path`` imports from ``repro.sim.engine`` that simulate."""
        found = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            if module == "repro.sim.engine":
                found |= {
                    alias.name
                    for alias in node.names
                    if alias.name == "simulate"
                }
        return found

    def test_only_perfsuite_imports_the_engine_simulators(self):
        import repro

        root = pathlib.Path(repro.__file__).parent
        offenders = {}
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            package = ["repro", *rel.parent.parts]
            names = self._engine_simulators(path, package)
            if names and rel.as_posix() not in self.ALLOWED:
                offenders[rel.as_posix()] = sorted(names)
        assert offenders == {}, (
            "user paths simulate on repro.sim.kernel.simulate_fast; the event "
            f"engine is the test oracle: {offenders}"
        )
