import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path_cost, random_pair, reference_dc
from tswarp import (
    DCAlignmentResult,
    RecursionDepthError,
    SpaceStats,
    SplitPoint,
    SyntheticSpec,
    TimeSeries,
    backward_space_efficient,
    dc_align,
    dtw_full,
    forward_space_efficient,
    generate_pair,
    validate_path,
)
from tswarp import divide
from tswarp.core import dense_columns
from tswarp.divide import _last_columns
from tswarp.full import cost_matrix

S_FIXTURE = TimeSeries("s", [3, 4, 5, 3, 3])
Q_FIXTURE = TimeSeries("q", [1, 2, 2, 1, 0])


class TestSpaceEfficientSweeps:
    def test_forward_matches_dense_last_column(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s, q = random_pair(rng, max_len=12, min_len=1)
            dense = cost_matrix(s, q).cells[:, -1]
            assert forward_space_efficient(s, q) == dense.tolist()

    def test_backward_matches_reversed_dense(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            s, q = random_pair(rng, max_len=12, min_len=1)
            rev = cost_matrix(
                TimeSeries("rs", s.values[::-1]),
                TimeSeries("rq", q.values[::-1]),
            ).cells[:, -1][::-1]
            assert backward_space_efficient(s, q) == rev.tolist()


samples = st.floats(min_value=-100, max_value=100, allow_nan=False) | st.sampled_from(
    [0.0, 1.0, -1.0]
)
sides = st.integers(1, 40)


def _problems(values):
    """Pairs of lists of ``values``, square, one-sample and strongly
    non-square."""
    return st.one_of(
        st.tuples(sides, sides),
        st.tuples(st.just(1), sides),
        st.tuples(sides, st.just(1)),
        st.tuples(st.integers(20, 40), st.integers(1, 4)),
    ).flatmap(
        lambda nm: st.tuples(
            st.lists(values, min_size=nm[0], max_size=nm[0]),
            st.lists(values, min_size=nm[1], max_size=nm[1]),
        )
    )


problem = _problems(samples)


@settings(max_examples=300, deadline=None)
@given(problem | _problems(st.integers(-2, 2)))
def test_last_cost_is_the_optimum_in_either_orientation(pair):
    s, q = TimeSeries("s", pair[0]), TimeSeries("q", pair[1])
    want = dtw_full(s, q).raw_cost
    assert forward_space_efficient(s, q)[-1] == forward_space_efficient(q, s)[-1] == want


class TestLevelBatch:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(problem, min_size=1, max_size=4))
    def test_last_columns_equal_the_column_sweep_bit_for_bit(self, batch):
        problems = [(np.array(a), np.array(b)) for a, b in batch]
        for (a, b), got in zip(batch, _last_columns(problems)):
            *_, want = dense_columns(a, b)
            assert got.tolist() == want

    @pytest.mark.parametrize("mid_mode", ["ceil", "floor"])
    def test_equals_the_depth_first_recursion(self, mid_mode):
        rng = np.random.default_rng(19)
        for k in range(60):
            s, q = random_pair(rng, max_len=60, min_len=1, integers=k % 2 == 0)
            try:
                want = reference_dc(s, q, mid_mode)
            except RecursionDepthError as exc:
                with pytest.raises(RecursionDepthError, match=re.escape(str(exc))):
                    dc_align(s, q, mid_mode=mid_mode)
                continue
            r = dc_align(s, q, mid_mode=mid_mode)
            splits, path, raw, stats = want
            assert list(r.splits) == splits
            assert list(r.path) == path
            assert r.raw_cost == raw
            assert r.space == stats
            assert r.computed_cells == stats.computed_cells


class TestDcAlign:
    def test_first_split_point_on_fixture(self):
        r = dc_align(S_FIXTURE, Q_FIXTURE)
        assert isinstance(r, DCAlignmentResult)
        assert r.splits[0] == SplitPoint(4, 3)

    def test_suboptimal_on_fixture(self):
        dc = dc_align(S_FIXTURE, Q_FIXTURE)
        full = dtw_full(S_FIXTURE, Q_FIXTURE)
        assert dc.raw_cost > full.raw_cost
        assert list(dc.path) != list(full.path)

    def test_cost_never_below_optimum(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            s, q = random_pair(rng, max_len=20, min_len=1)
            dc = dc_align(s, q)
            full = dtw_full(s, q)
            assert dc.raw_cost >= full.raw_cost - 1e-9

    def test_reported_cost_is_cost_of_returned_path(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            s, q = random_pair(rng, max_len=20, min_len=1)
            dc = dc_align(s, q)
            assert validate_path(dc.path, len(s), len(q))
            assert dc.raw_cost == pytest.approx(path_cost(dc.path, s, q))

    def test_identical_series_recovers_diagonal(self):
        s = TimeSeries("s", np.sin(np.arange(50.0)))
        r = dc_align(s, s)
        assert r.raw_cost == pytest.approx(0.0)
        assert list(r.path) == [(i, i) for i in range(1, 51)]

    def test_invalid_mid_mode(self):
        with pytest.raises(ValueError):
            dc_align(S_FIXTURE, Q_FIXTURE, mid_mode="center")


class TestFloorMidpointPathology:
    def test_floor_mode_hits_depth_guard_on_constant_pair(self):
        s = TimeSeries("s", [0.0] * 5)
        q = TimeSeries("q", [0.0] * 3)
        with pytest.raises(RecursionDepthError, match="floor"):
            dc_align(s, q, mid_mode="floor")

    def test_floor_mode_raises_at_the_repeating_split(self, monkeypatch):
        # The box first repeats at level 9, in the tenth batch.
        batches = []

        def counting(problems):
            batches.append(len(problems))
            return _last_columns(problems)

        monkeypatch.setattr(divide, "_last_columns", counting)
        z = TimeSeries("z", np.zeros(400))
        with pytest.raises(RecursionDepthError, match="does not terminate"):
            dc_align(z, z, mid_mode="floor")
        assert len(batches) <= 12

    def test_ceil_mode_terminates_on_same_pair(self):
        s = TimeSeries("s", [0.0] * 5)
        q = TimeSeries("q", [0.0] * 3)
        r = dc_align(s, q, mid_mode="ceil")
        assert r.raw_cost == 0.0


class TestSpaceContract:
    def test_a_node_raises_the_peak_to_its_records_and_adds_its_cells(self):
        stats = SpaceStats()
        stats.node(6, 10)
        stats.node(4, 3)
        assert stats == SpaceStats(peak=6, computed_cells=13)
        assert [f.name for f in fields(SpaceStats)] == ["peak", "computed_cells"]

    def test_peak_storage_is_linear(self):
        rng = np.random.default_rng(17)
        n = 400
        s = TimeSeries("s", np.cumsum(rng.normal(size=n)))
        q = TimeSeries("q", np.cumsum(rng.normal(size=n)))
        r = dc_align(s, q)
        assert r.space is not None
        assert r.space.peak < 10 * (len(s) + len(q))

    def test_traced_memory_grows_linearly(self):
        def peak(n):
            rng = np.random.default_rng(17)
            s = TimeSeries("s", np.cumsum(rng.normal(size=n)))
            q = TimeSeries("q", np.cumsum(rng.normal(size=n)))
            tracemalloc.start()
            try:
                dc_align(s, q)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) <= 2.2 * peak(1000)

    def test_traced_memory_of_a_call(self):
        # The level sweeps buffer their broadcasts SWEEP_BUFSIZE elements
        # at a time, not a block's worth: about 203 KB here, where
        # block-sized buffers took 326 KB.
        s, q = generate_pair(SyntheticSpec(250, 0.99, 7))
        tracemalloc.start()
        try:
            dc_align(s, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 260_000, peak

    def test_computed_cells_exceed_dense_due_to_recomputation(self):
        rng = np.random.default_rng(18)
        s = TimeSeries("s", rng.normal(size=64))
        q = TimeSeries("q", rng.normal(size=64))
        r = dc_align(s, q)
        assert r.computed_cells > 64 * 64
