"""Lowering pass: structure, timing parity, link contention, runtime parity."""

import numpy as np
import pytest

from repro.common.errors import ScheduleError, ValidationError
from repro.models.transformer import TransformerLMConfig
from repro.runtime.optimizers import SGD
from repro.runtime.trainer import PipelineTrainer
from repro.schedules.dependencies import build_dependency_graph
from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops
from repro.schedules.lowering import is_lowered, lower_schedule
from repro.schedules.registry import available_schemes, build_schedule
from repro.schedules.validate import validate_schedule
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.gantt import render_gantt
from repro.sim.network import FlatTopology, HierarchicalTopology, LinkSpec
from repro.sim.trace import to_chrome_trace
from tests.conftest import make_micro_batches

ALL_SCHEMES = available_schemes()


def contention_free(alpha=0.3):
    """Finite latency, infinite bandwidth: zero channel occupancy."""
    return CostModel(
        forward_time=1.0,
        topology=FlatTopology(LinkSpec(alpha=alpha, beta=0.0)),
        activation_message_bytes=1.0,
        stage_grad_bytes=50.0,
        data_parallel_width=2,
    )


def finite_links(alpha=0.3, beta=0.2):
    return contention_free(alpha).with_(
        topology=FlatTopology(LinkSpec(alpha=alpha, beta=beta))
    )


class TestLoweringStructure:
    def test_marks_metadata(self):
        low = lower_schedule(build_schedule("dapple", 4, 4))
        assert low.lowered and is_lowered(low)
        assert not is_lowered(build_schedule("dapple", 4, 4))

    def test_pairs_match_p2p_edges(self):
        s = build_schedule("chimera", 4, 4)
        edges = sum(1 for _ in build_dependency_graph(s).p2p_edges())
        low = lower_schedule(s)
        assert low.count(OpKind.SEND) == edges
        assert low.count(OpKind.RECV) == edges

    def test_lowered_graph_has_no_implicit_p2p(self):
        low = lower_schedule(build_schedule("chimera", 4, 4))
        g = build_dependency_graph(low)
        assert not list(g.p2p_edges())
        assert sum(1 for _ in g.transfer_edges()) == low.count(OpKind.SEND)

    def test_eager_send_sits_after_producer(self):
        """Every SEND directly follows an op that produced its payload."""
        low = lower_schedule(build_schedule("dapple", 4, 4))
        for ops in low.worker_ops:
            for prev, op in zip(ops, ops[1:]):
                if op.kind is OpKind.SEND:
                    anchor = prev
                    # Chains of sends hang off one producer.
                    i = ops.index(op)
                    while anchor.kind is OpKind.SEND:
                        i -= 1
                        anchor = ops[i - 1]
                    assert anchor.is_forward or anchor.is_backward

    def test_recv_sits_before_consumer(self):
        low = lower_schedule(build_schedule("dapple", 4, 4))
        for ops in low.worker_ops:
            for op, nxt in zip(ops, ops[1:]):
                if op.kind is OpKind.RECV:
                    while nxt.kind is OpKind.RECV:
                        nxt = ops[ops.index(nxt) + 1]
                    assert nxt.is_forward or nxt.is_backward
                    assert nxt.stage == op.stage

    def test_compute_order_preserved(self):
        s = build_schedule("chimera", 4, 4)
        low = lower_schedule(s)
        for worker in range(s.num_workers):
            original = [op for op in s.ops_on(worker)]
            kept = [op for op in low.ops_on(worker) if not op.is_comm]
            assert kept == original

    def test_local_hops_not_lowered(self):
        """ZB-V folds chunks p-1 and p onto one worker: no comm ops there."""
        low = lower_schedule(build_schedule("zb_v", 4, 4))
        p = 4
        step = {"act": 1, "grad": -1}
        for _, op in low.comm_ops():
            if op.kind is OpKind.SEND:
                src, dst = op.stage, op.stage + step[op.payload]
            else:
                src, dst = op.stage - step[op.payload], op.stage
            assert {src, dst} != {p - 1, p}, f"fold hop lowered: {op.short()}"

    def test_double_lowering_rejected(self):
        low = lower_schedule(build_schedule("dapple", 4, 4))
        with pytest.raises(ScheduleError):
            lower_schedule(low)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_all_schemes_validate_lowered(self, scheme):
        validate_schedule(lower_schedule(build_schedule(scheme, 4, 8)))

    @pytest.mark.parametrize(
        "options",
        [{"concat": "doubling"}, {"concat": "halving"}, {"num_down_pipelines": 2}],
    )
    def test_chimera_variants_lower(self, options):
        validate_schedule(lower_schedule(build_schedule("chimera", 8, 8, **options)))


class TestLoweringValidation:
    def _strip(self, schedule: Schedule, kind: OpKind, how_many: int = 1):
        rows = []
        removed = 0
        for ops in schedule.worker_ops:
            row = []
            for op in ops:
                if op.kind is kind and removed < how_many:
                    removed += 1
                    continue
                row.append(op)
            rows.append(row)
        assert removed == how_many
        from dataclasses import replace

        return replace(schedule, worker_ops=freeze_worker_ops(rows))

    def test_missing_send_rejected(self):
        low = self._strip(lower_schedule(build_schedule("dapple", 2, 2)), OpKind.SEND)
        with pytest.raises(ValidationError):
            validate_schedule(low)

    def test_missing_recv_rejected(self):
        low = self._strip(lower_schedule(build_schedule("dapple", 2, 2)), OpKind.RECV)
        with pytest.raises(ValidationError):
            validate_schedule(low)

    def test_duplicate_flow_send_rejected(self):
        """A stray SEND covering micro-batches another SEND already ships
        must fail validation, not crash the executor later."""
        from dataclasses import replace

        low = lower_schedule(build_schedule("chimera", 4, 8, concat="doubling"))
        donor = next(
            op
            for _, op in low.comm_ops()
            if op.kind is OpKind.SEND and len(op.micro_batches) > 1
        )
        stray = replace(donor, micro_batches=donor.micro_batches[:1])
        worker = low.worker_of(donor.replica, donor.stage)
        rows = [list(ops) for ops in low.worker_ops]
        rows[worker].append(stray)
        bad = replace(low, worker_ops=freeze_worker_ops(rows))
        with pytest.raises(ValidationError):
            validate_schedule(bad)

    def test_comm_ops_without_lowered_flag_rejected(self):
        from dataclasses import replace

        low = lower_schedule(build_schedule("dapple", 2, 2))
        unmarked = replace(low, metadata={})
        with pytest.raises(ValidationError):
            validate_schedule(unmarked)

    def test_comm_op_requires_payload(self):
        with pytest.raises(ScheduleError):
            Operation(OpKind.SEND, 0, 0, micro_batches=(0,))
        with pytest.raises(ScheduleError):
            Operation(OpKind.SEND, 0, 0, micro_batches=(0,), payload="bogus")

    def test_payload_on_compute_op_rejected(self):
        with pytest.raises(ScheduleError):
            Operation(OpKind.FORWARD, 0, 0, micro_batches=(0,), payload="act")

    def test_act_and_grad_sends_have_distinct_keys(self):
        a = Operation(OpKind.SEND, 0, 1, micro_batches=(0,), payload="act")
        g = Operation(OpKind.SEND, 0, 1, micro_batches=(0,), payload="grad")
        assert a.key() != g.key()


class TestTimingParity:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_contention_free_parity(self, scheme):
        """Infinite bandwidth, zero occupancy: lowering is timing-neutral."""
        s = build_schedule(scheme, 4, 8)
        low = lower_schedule(s)
        cm = contention_free()
        a, b = simulate(s, cm), simulate(low, cm)
        assert b.iteration_time == pytest.approx(a.iteration_time, abs=1e-9)
        assert b.compute_makespan == pytest.approx(a.compute_makespan, abs=1e-9)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_finite_links_only_add_time(self, scheme):
        s = build_schedule(scheme, 4, 8)
        low = lower_schedule(s)
        cm = finite_links()
        assert (
            simulate(low, cm).iteration_time
            >= simulate(s, cm).iteration_time - 1e-9
        )

    def test_no_topology_parity(self):
        s = build_schedule("chimera", 4, 4)
        cm = CostModel.practical()
        assert simulate(lower_schedule(s), cm).iteration_time == pytest.approx(
            simulate(s, cm).iteration_time
        )

    def test_blocking_sync_parity_contention_free(self):
        s = build_schedule("chimera", 4, 4)
        cm = contention_free()
        a = simulate(s, cm, blocking_sync=True)
        b = simulate(lower_schedule(s), cm, blocking_sync=True)
        assert b.iteration_time == pytest.approx(a.iteration_time, abs=1e-9)


class TestLinkContention:
    def test_transfers_queue_fifo_per_channel(self):
        cm = CostModel(
            forward_time=0.5,
            topology=FlatTopology(LinkSpec(alpha=0.0, beta=1.0)),
            activation_message_bytes=1.0,
        )
        low = lower_schedule(build_schedule("dapple", 2, 4))
        result = simulate(low, cm)
        by_channel: dict = {}
        for t in result.transfers:
            by_channel.setdefault(t.channel, []).append(t)
        assert any(len(ts) > 1 for ts in by_channel.values())
        for ts in by_channel.values():
            ts.sort(key=lambda t: t.start)
            for a, b in zip(ts, ts[1:]):
                assert b.start >= a.start + a.occupancy - 1e-12

    def test_queued_transfer_starts_after_launch(self):
        """The second activation send must wait for the first's bytes."""
        cm = CostModel(
            forward_time=0.5,
            topology=FlatTopology(LinkSpec(alpha=0.0, beta=1.0)),
            activation_message_bytes=1.0,
        )
        low = lower_schedule(build_schedule("dapple", 2, 4))
        result = simulate(low, cm)
        acts = [t for t in result.transfers if t.payload == "act"]
        acts.sort(key=lambda t: t.start)
        # F(mb1) on worker 0 ends at 1.0 but the wire is busy until 1.5.
        assert acts[0].start == pytest.approx(0.5)
        assert acts[1].start == pytest.approx(1.5)

    def test_half_duplex_slower_than_full(self):
        def cm(duplex):
            return CostModel(
                forward_time=1.0,
                topology=FlatTopology(
                    LinkSpec(alpha=0.1, beta=0.5), duplex=duplex
                ),
                activation_message_bytes=1.0,
            )

        low = lower_schedule(build_schedule("chimera", 2, 2))
        full = simulate(low, cm("full"))
        half = simulate(low, cm("half"))
        assert half.compute_makespan > full.compute_makespan

    def test_transfers_overlap_compute(self):
        cm = finite_links()
        low = lower_schedule(build_schedule("dapple", 4, 8))
        result = simulate(low, cm)
        overlapped = 0
        for t in result.transfers:
            for timed in result.timed_ops_on(t.src_worker):
                if timed.start < t.end and t.start < timed.end:
                    overlapped += 1
                    break
        assert overlapped > 0

    def test_collectives_wait_for_inflight_transfers(self):
        cm = CostModel(
            forward_time=1.0,
            topology=FlatTopology(LinkSpec(alpha=0.0, beta=4.0)),
            activation_message_bytes=1.0,
            stage_grad_bytes=10.0,
            data_parallel_width=2,
        )
        low = lower_schedule(build_schedule("dapple", 2, 2))
        result = simulate(low, cm)
        assert result.collectives
        for c in result.collectives:
            for t in result.transfers:
                if t.occupancy <= 0:
                    continue
                if t.src_worker in c.workers or t.dst_worker in c.workers:
                    busy = (t.start, t.start + t.occupancy)
                    assert not (busy[0] <= c.start < busy[1]), (
                        f"collective at {c.start} inside transfer occupancy {busy}"
                    )

    @pytest.mark.parametrize("scheme", ["pipedream", "chimera"])
    def test_blocking_collectives_consistent_with_worker_release(self, scheme):
        """blocking_sync on a lowered schedule: a worker blocked on a
        collective may not run compute before the collective's recorded
        end (regression: the in-flight-transfer push applied to blocking
        records while workers were released without it)."""
        cm = CostModel(
            forward_time=1.0,
            topology=FlatTopology(LinkSpec(alpha=0.05, beta=0.5)),
            activation_message_bytes=1.0,
            stage_grad_bytes=50.0,
            data_parallel_width=2,
        )
        low = lower_schedule(build_schedule(scheme, 4, 4))
        r = simulate(low, cm, blocking_sync=True)
        assert r.collectives
        for c in r.collectives:
            for w in c.workers:
                for t in r.timed_ops_on(w):
                    if t.start > max(c.launch_times) - 1e-12:
                        assert t.start >= c.end - 1e-9, (
                            f"{t.op.short()} on P{w} starts at {t.start} "
                            f"inside blocking collective [{c.start},{c.end})"
                        )
            # ...and the blocking collective itself respected in-flight
            # transfer occupancy on its members' interfaces.
            for t in r.transfers:
                if t.occupancy <= 0:
                    continue
                if t.src_worker in c.workers or t.dst_worker in c.workers:
                    assert not (t.start <= c.start < t.start + t.occupancy - 1e-12), (
                        f"blocking collective at {c.start} inside transfer "
                        f"occupancy [{t.start},{t.start + t.occupancy})"
                    )

    def test_comm_launch_overhead_charged_to_worker(self):
        low = lower_schedule(build_schedule("dapple", 4, 4))
        base = simulate(low, contention_free())
        heavy = simulate(low, contention_free().with_(comm_launch_overhead=0.25))
        assert heavy.compute_makespan > base.compute_makespan

    def test_hierarchical_inter_node_hop_contends(self):
        """Crossing the node boundary costs more than staying inside."""
        def topo(gpus):
            return HierarchicalTopology(
                intra=LinkSpec(0.0, 0.01),
                inter=LinkSpec(0.0, 2.0),
                gpus_per_node=gpus,
            )

        low = lower_schedule(build_schedule("dapple", 4, 4))
        inside = simulate(
            low,
            CostModel(
                forward_time=1.0, topology=topo(4), activation_message_bytes=1.0
            ),
        )
        split = simulate(
            low,
            CostModel(
                forward_time=1.0, topology=topo(2), activation_message_bytes=1.0
            ),
        )
        assert split.compute_makespan > inside.compute_makespan


class TestRendering:
    def test_gantt_comm_lanes_for_lowered(self):
        low = lower_schedule(build_schedule("dapple", 4, 4))
        out = render_gantt(low, cost_model=finite_links(), time_step=0.5)
        assert "P0>" in out
        assert "a0>1" in out
        assert "p2p transfers:" in out

    def test_gantt_no_comm_lanes_without_wire_time(self):
        low = lower_schedule(build_schedule("dapple", 4, 4))
        out = render_gantt(low, cost_model=CostModel.practical())
        assert "P0>" not in out

    def test_trace_exports_p2p_lane(self):
        low = lower_schedule(build_schedule("dapple", 4, 4))
        events = to_chrome_trace(simulate(low, finite_links()))
        p2p = [e for e in events if e["cat"] == "p2p"]
        assert len(p2p) == low.count(OpKind.SEND)
        assert all(e["pid"] == 2 for e in p2p)
        assert {"payload", "dst_worker", "occupancy"} <= set(p2p[0]["args"])

    def test_trace_skips_comm_launch_ops(self):
        low = lower_schedule(build_schedule("dapple", 2, 2))
        events = to_chrome_trace(simulate(low, finite_links()))
        compute = [e for e in events if e["cat"] in ("forward", "backward")]
        assert len(compute) == sum(1 for _ in low.compute_ops())


class TestRuntimeParity:
    @pytest.fixture
    def config(self):
        return TransformerLMConfig(
            num_layers=4, dim=16, heads=2, vocab=19, seq=6, seed=7
        )

    @pytest.mark.parametrize(
        "scheme,depth", [("chimera", 4), ("dapple", 4), ("zb_v", 2)]
    )
    def test_lowered_training_bit_identical(self, config, scheme, depth):
        kw = dict(
            depth=depth, num_micro_batches=4, optimizer_factory=lambda: SGD(0.05)
        )
        a = PipelineTrainer(config, scheme=scheme, **kw)
        b = PipelineTrainer(config, scheme=scheme, pipeline="lower_p2p", **kw)
        for it in range(2):
            mbs = make_micro_batches(config, 4, 2, seed=it)
            assert a.train_step(mbs) == b.train_step(mbs)
        for x, y in zip(a.full_model_layers(), b.full_model_layers()):
            for k in x.params:
                assert np.array_equal(x.params[k], y.params[k])

    def test_lowered_pipedream_stays_stale_but_identical(self, config):
        kw = dict(depth=4, num_micro_batches=4, optimizer_factory=lambda: SGD(0.05))
        a = PipelineTrainer(config, scheme="pipedream", **kw)
        b = PipelineTrainer(config, scheme="pipedream", pipeline="lower_p2p", **kw)
        for it in range(3):
            mbs = make_micro_batches(config, 4, 2, seed=it)
            assert a.train_step(mbs) == b.train_step(mbs)

    def test_lowered_executor_message_count_unchanged(self, config):
        kw = dict(depth=4, num_micro_batches=4, optimizer_factory=lambda: SGD(0.05))
        a = PipelineTrainer(config, scheme="dapple", **kw)
        b = PipelineTrainer(config, scheme="dapple", pipeline="lower_p2p", **kw)
        mbs = make_micro_batches(config, 4, 2, seed=0)
        a.train_step(mbs)
        b.train_step(mbs)
        assert (
            b.executor.backend.messages_sent == a.executor.backend.messages_sent
        )


class TestCLI:
    def test_show_lowered(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["show", "--scheme", "dapple", "-D", "4", "-N", "4",
                         "--pipeline", "lower_p2p"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_show_lowered_with_link_model_renders_lanes(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["show", "--scheme", "dapple", "-D", "4", "-N", "4",
                       "--pipeline", "lower_p2p", "--link-alpha", "0.25",
                       "--link-beta", "0.25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P0>" in out and "a0>1" in out

    def test_trace_lowered_with_link_model_has_wire_time(self, tmp_path):
        from repro.cli import main as cli_main
        import json

        out_file = tmp_path / "t.json"
        rc = cli_main(["trace", "-D", "4", "-N", "4", "--pipeline", "lower_p2p",
                       "--link-alpha", "0.1", "--link-beta", "0.1",
                       "-o", str(out_file)])
        assert rc == 0
        p2p = [e for e in json.loads(out_file.read_text())["traceEvents"]
               if e["cat"] == "p2p"]
        assert p2p and all(e["dur"] > 1.0 for e in p2p)

    def test_trace_lowered(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        import json

        out_file = tmp_path / "t.json"
        rc = cli_main(["trace", "-D", "4", "-N", "4", "--pipeline", "lower_p2p",
                       "--link-alpha", "0.1", "-o", str(out_file)])
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert any(e["cat"] == "p2p" for e in payload["traceEvents"])

    def test_trace_free_links_has_no_phantom_p2p_events(self, tmp_path):
        from repro.cli import main as cli_main
        import json

        out_file = tmp_path / "t.json"
        rc = cli_main(["trace", "-D", "4", "-N", "4", "--pipeline", "lower_p2p",
                       "-o", str(out_file)])
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert not any(e["cat"] == "p2p" for e in payload["traceEvents"])

    def test_simulate_lowered(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["simulate", "--scheme", "chimera", "-W", "8", "-D", "4",
                       "-B", "8", "--pipeline", "lower_p2p"])
        assert rc == 0
        assert "throughput" in capsys.readouterr().out

    def test_harness_lowered_config(self):
        from repro.bench.harness import ExperimentConfig, run_configuration
        from repro.bench.machines import PIZ_DAINT
        from repro.bench.workloads import BERT48

        base = dict(
            scheme="chimera", machine=PIZ_DAINT, workload=BERT48,
            width=2, depth=4, micro_batch=8, mini_batch=128,
        )
        r0 = run_configuration(ExperimentConfig(**base))
        r1 = run_configuration(ExperimentConfig(pipeline="lower_p2p", **base))
        assert r1.iteration_time >= r0.iteration_time - 1e-9
