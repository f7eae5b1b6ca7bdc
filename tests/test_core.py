import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tswarp import (
    SyntheticSpec,
    TimeSeries,
    WarpingPath,
    dc_align,
    forward_space_efficient,
    generate_pair,
    local_distance,
    normalized_distance,
    quantize,
    sparse_dtw,
    validate_path,
)
from tswarp import divide, sparse
from tswarp.core import SWEEP_BUFSIZE, BrokenPathError, backtrack_path, step_codes

INF = float("inf")

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestTimeSeries:
    def test_basic_construction(self):
        ts = TimeSeries("x", [1.0, 2.0, 3.0])
        assert len(ts) == 3
        assert ts.id == "x"
        assert ts.values.dtype == float

    def test_values_are_read_only(self):
        ts = TimeSeries("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            TimeSeries("x", [])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            TimeSeries("x", [[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            TimeSeries("x", [1.0, bad])

    def test_equality_compares_values(self):
        assert TimeSeries("x", [1, 2]) == TimeSeries("x", [1.0, 2.0])
        assert TimeSeries("x", [1, 2]) != TimeSeries("x", [1, 3])

    def test_is_unequal_to_other_types(self):
        s = TimeSeries("x", [1.0])
        assert s.__eq__([1.0]) is NotImplemented
        assert s != [1.0]
        assert s != 1.0


class TestLocalDistance:
    def test_squared_difference(self):
        assert local_distance(3.0, 1.0) == 4.0
        assert local_distance(1.0, 3.0) == 4.0
        assert local_distance(2.5, 2.5) == 0.0


class TestQuantize:
    def test_worked_example_s(self):
        out = quantize(TimeSeries("s", [3, 4, 5, 3, 3]))
        assert out.values.tolist() == [0.0, 0.5, 1.0, 0.0, 0.0]
        assert (out.source_min, out.source_max) == (3.0, 5.0)
        assert not out.degenerate

    def test_worked_example_q(self):
        out = quantize(TimeSeries("q", [1, 2, 2, 1, 0]))
        assert out.values.tolist() == [0.5, 1.0, 1.0, 0.5, 0.0]

    def test_constant_series_is_degenerate(self):
        out = quantize(TimeSeries("c", [7.0, 7.0, 7.0]))
        assert out.values.tolist() == [0.0, 0.0, 0.0]
        assert out.degenerate

    @pytest.mark.filterwarnings("error")
    def test_span_beyond_the_float_range(self):
        out = quantize(TimeSeries("w", [1.7e308, -1.7e308, 0.0]))
        assert out.values.tolist() == [1.0, 0.0, 0.5]
        assert (out.source_min, out.source_max) == (-1.7e308, 1.7e308)

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_range_is_unit_interval(self, xs):
        out = quantize(TimeSeries("h", xs))
        assert np.all(out.values >= 0.0)
        assert np.all(out.values <= 1.0)
        if not out.degenerate:
            assert out.values.min() == 0.0
            assert out.values.max() == 1.0


class TestValidatePath:
    def test_valid_diagonal(self):
        assert validate_path([(1, 1), (2, 2), (3, 3)], 3, 3)

    def test_valid_with_expansions(self):
        assert validate_path([(1, 1), (1, 2), (2, 2), (3, 3)], 3, 3)

    def test_bad_start(self):
        v = validate_path([(2, 1), (3, 2)], 3, 2)
        assert not v and v.violation == "boundary"

    def test_bad_end(self):
        v = validate_path([(1, 1), (2, 2)], 3, 3)
        assert not v and v.violation == "boundary"

    def test_empty_path(self):
        v = validate_path([], 1, 1)
        assert not v and v.violation == "boundary"

    def test_monotonicity_violation(self):
        v = validate_path([(1, 1), (2, 2), (2, 1)], 2, 2)
        assert not v and v.violation == "monotonicity"

    def test_continuity_violation_jump(self):
        v = validate_path([(1, 1), (3, 3)], 3, 3)
        assert not v and v.violation == "continuity"

    def test_continuity_violation_repeat(self):
        v = validate_path([(1, 1), (1, 1), (2, 2)], 2, 2)
        assert not v and v.violation == "continuity"

    def test_single_cell_matrix(self):
        assert validate_path([(1, 1)], 1, 1)


class TestWarpingPath:
    def test_k_is_cell_count(self):
        p = WarpingPath([(1, 1), (2, 1), (2, 2)])
        assert p.K == 3
        assert len(p) == 3
        assert list(p) == [(1, 1), (2, 1), (2, 2)]

    def test_converts_numpy_integers_and_integral_floats(self):
        cells = [(np.int64(1), np.int32(1)), (2.0, np.float64(2.0)), [np.uint8(3), 3]]
        p = WarpingPath(iter(cells))
        assert p.steps == ((1, 1), (2, 2), (3, 3))
        assert all(type(step) is tuple for step in p.steps)
        assert all(type(i) is int and type(j) is int for i, j in p.steps)


class TestNormalizedDistance:
    def test_formula(self):
        assert normalized_distance(16.0, 2) == pytest.approx(2.0)
        assert normalized_distance(0.0, 5) == 0.0

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            normalized_distance(1.0, 0)

    @given(
        st.floats(min_value=0, max_value=1e9),
        st.integers(min_value=1, max_value=1000),
    )
    def test_matches_definition(self, raw, k):
        assert normalized_distance(raw, k) == math.sqrt(raw) / k


# A cell's accumulated cost: ties, open but unreachable (inf) or closed (None).
cell_costs = st.sampled_from([0.0, 1.0, 2.0, INF, None])


def _first_hop(grid: dict, i: int, j: int) -> tuple[int, int]:
    """``backtrack_path``'s first hop from (i, j) over ``grid``'s costs.

    Every probe of a later hop sees 0.0, so the walk always ends: cells
    off the first hop's neighbors cost 0.0, and a neighbor probed again
    is probed by a later hop.
    """
    neighbors = {(i - 1, j - 1), (i - 1, j), (i, j - 1)}
    probed = set()

    def cost(a, b):
        if (a, b) in neighbors and (a, b) not in probed:
            probed.add((a, b))
            return grid[a, b]
        return 0.0

    return backtrack_path(cost, i, j)[-2]


def test_backtrack_with_no_open_lower_neighbor_is_broken():
    # Only the corners and (1, 2) are open: (3, 3) has no open neighbor below.
    open_cells = {(1, 1): 0.0, (1, 2): 1.0, (3, 3): 2.0}
    with pytest.raises(BrokenPathError, match=r"no open lower neighbor at cell \(3, 3\)"):
        backtrack_path(lambda i, j: open_cells.get((i, j)), 3, 3)


class TestStepCodes:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.data())
    def test_codes_take_the_backtracker_hop(self, n, m, transposed, data):
        grid = {(i, j): data.draw(cell_costs) for i in range(1, n + 1) for j in range(1, m + 1)}
        # The swept matrix, the transpose when ``transposed``, laid out as
        # sweep_diagonals yields it: its cell (u, c), 0-based, at slot
        # c + 1 of row u + c + 2, after the two carry rows; closed and
        # off-matrix slots hold inf.
        down, across = (m, n) if transposed else (n, m)
        rows = np.full((down + across + 1, across + 1), INF)
        rows[0, 0] = 0.0
        for (i, j), v in grid.items():
            u, c = (j - 1, i - 1) if transposed else (i - 1, j - 1)
            rows[u + c + 2, c + 1] = INF if v is None else v
        codes = step_codes(rows, transposed)
        assert codes.shape == (down + across - 1, across + 1)
        hops = [(-1, -1), (-1, 0), (0, -1)]
        for (i, j) in grid:
            lower = [grid.get((i + di, j + dj)) for di, dj in hops]
            if not any(v is not None and v < INF for v in lower):
                continue  # no path back from a finite cost passes here
            u, c = (j - 1, i - 1) if transposed else (i - 1, j - 1)
            di, dj = hops[codes[u + c, c + 1]]
            assert (i + di, j + dj) == _first_hop(grid, i, j)


@pytest.mark.parametrize(
    "module, run",
    [(sparse, sparse_dtw), (divide, dc_align), (divide, forward_space_efficient)],
    ids=["sparse_dtw", "dc_align", "forward_space_efficient"],
)
def test_sweeps_restore_numpy_buffer_size(monkeypatch, module, run):
    # The sweeps run under numpy's ufunc buffer of SWEEP_BUFSIZE elements,
    # and hand the caller back numpy's default whether they return or
    # raise partway, even with the sweep's generator left suspended.
    default = 8192  # numpy's own
    s, q = generate_pair(SyntheticSpec(100, 0.5, 7))
    assert np.getbufsize() == default
    run(s, q)
    assert np.getbufsize() == default
    sweep = module.sweep_diagonals
    seen, suspended = [], []

    def second_block_raises(*args):
        blocks = sweep(*args)
        suspended.append(blocks)
        yield next(blocks)
        seen.append(np.getbufsize())
        raise RuntimeError("second block")

    monkeypatch.setattr(module, "sweep_diagonals", second_block_raises)
    with pytest.raises(RuntimeError, match="second block"):
        run(s, q)
    assert seen == [SWEEP_BUFSIZE]
    assert np.getbufsize() == default
