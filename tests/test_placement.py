"""Stage placement: linear, reversed, and generalized bidirectional maps."""

import pytest

from repro.common.errors import ScheduleError
from repro.schedules.placement import StagePlacement


class TestLinear:
    def test_stage_on_matching_worker(self):
        p = StagePlacement.linear(4)
        assert [p.worker_of(0, s) for s in range(4)] == [0, 1, 2, 3]

    def test_single_replica(self):
        assert StagePlacement.linear(4).num_replicas == 1

    def test_direction_is_down(self):
        assert StagePlacement.linear(4).direction(0) == 1

    def test_single_stage(self):
        p = StagePlacement.linear(1)
        assert p.worker_of(0, 0) == 0
        assert p.direction(0) == 1

    def test_reversed(self):
        p = StagePlacement.reversed_linear(4)
        assert [p.worker_of(0, s) for s in range(4)] == [3, 2, 1, 0]
        assert p.direction(0) == -1


class TestBidirectional:
    def test_f1_down_is_linear(self):
        p = StagePlacement.bidirectional(4)
        assert [p.worker_of(0, s) for s in range(4)] == [0, 1, 2, 3]

    def test_f1_up_is_reversed(self):
        p = StagePlacement.bidirectional(4)
        assert [p.worker_of(1, s) for s in range(4)] == [3, 2, 1, 0]

    def test_paper_figure8_down_pipeline1(self):
        """D=8, f=2: stage0 of down pipeline 1 maps to worker 4 (paper §3.6)."""
        p = StagePlacement.bidirectional(8, 2)
        assert [p.worker_of(2, s) for s in range(8)] == [4, 5, 6, 7, 0, 1, 2, 3]

    def test_paper_figure8_up_pipeline1_reversed(self):
        p = StagePlacement.bidirectional(8, 2)
        down = [p.worker_of(2, s) for s in range(8)]
        up = [p.worker_of(3, s) for s in range(8)]
        assert up == list(reversed(down))

    def test_each_worker_hosts_2f_pairs(self):
        for d, f in ((4, 1), (8, 2), (16, 4)):
            p = StagePlacement.bidirectional(d, f)
            for w in range(d):
                assert len(p.stages_on_worker(w)) == 2 * f

    def test_odd_depth_rejected(self):
        with pytest.raises(ScheduleError):
            StagePlacement.bidirectional(5)

    def test_f_must_divide_q(self):
        with pytest.raises(ScheduleError):
            StagePlacement.bidirectional(8, 3)

    def test_directions_alternate(self):
        p = StagePlacement.bidirectional(8, 2)
        assert [p.direction(r) for r in range(4)] == [1, -1, 1, -1]

    def test_stage_replica_group_symmetry(self):
        p = StagePlacement.bidirectional(8)
        for s in range(8):
            assert {row[s] for row in p.table} == {s, 7 - s}

    def test_first_last_stage_workers(self):
        p = StagePlacement.bidirectional(6)
        assert p.worker_of(0, 0) == 0
        assert p.worker_of(0, 5) == 5
        assert p.worker_of(1, 0) == 5
        assert p.worker_of(1, 5) == 0


class TestValidation:
    def test_duplicate_worker_in_row_rejected(self):
        with pytest.raises(ScheduleError):
            StagePlacement(3, ((0, 0, 2),))

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ScheduleError):
            StagePlacement(3, ((0, 1),))

    def test_out_of_range_lookup(self):
        p = StagePlacement.linear(3)
        with pytest.raises(ScheduleError):
            p.worker_of(0, 7)
