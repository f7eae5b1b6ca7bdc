import re

import numpy as np
import pytest

import tswarp.full
from helpers import brute_force_min_cost, path_cost, random_pair
from tswarp import MatrixBudgetError, TimeSeries, dtw_full, validate_path
from tswarp.full import backtrack, cost_matrix


class TestCostMatrix:
    def test_tiny_hand_computed(self):
        # s=[0,1], q=[0,2]: D(2,2) = 1 + min(0, 4, 1) = 1
        D = cost_matrix(TimeSeries("s", [0, 1]), TimeSeries("q", [0, 2]))
        assert D.cells.tolist() == [[0.0, 4.0], [1.0, 1.0]]
        assert (D.n, D.m) == (2, 2)

    def test_first_row_and_column_are_cumulative(self):
        s = TimeSeries("s", [1.0, 2.0, 4.0])
        q = TimeSeries("q", [0.0, 3.0])
        D = cost_matrix(s, q).cells
        assert D[:, 0].tolist() == [1.0, 5.0, 21.0]
        assert D[0, 1] == 1.0 + 4.0


class TestDtwFull:
    def test_identical_series_cost_zero_diagonal_path(self):
        s = TimeSeries("s", [1.0, 5.0, 2.0, 8.0])
        r = dtw_full(s, s)
        assert r.raw_cost == 0.0
        assert r.normalized_distance == 0.0
        assert list(r.path) == [(1, 1), (2, 2), (3, 3), (4, 4)]

    def test_tie_break_prefers_diagonal(self):
        s = TimeSeries("s", [0.0, 0.0, 0.0])
        r = dtw_full(s, s)
        assert list(r.path) == [(1, 1), (2, 2), (3, 3)]

    def test_matches_brute_force_on_random_small_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            s, q = random_pair(rng, max_len=7)
            r = dtw_full(s, q)
            assert r.raw_cost == pytest.approx(
                brute_force_min_cost(s, q), abs=1e-12
            )

    def test_raw_cost_equals_cost_along_path(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s, q = random_pair(rng, max_len=12)
            r = dtw_full(s, q)
            assert validate_path(r.path, len(s), len(q))
            assert r.raw_cost == pytest.approx(path_cost(r.path, s, q))

    def test_unequal_lengths(self):
        s = TimeSeries("s", [0.0, 1.0, 2.0])
        q = TimeSeries("q", [0.0, 2.0])
        r = dtw_full(s, q)
        assert validate_path(r.path, 3, 2)
        assert r.raw_cost == pytest.approx(brute_force_min_cost(s, q))

    def test_computed_cells_is_dense(self):
        s = TimeSeries("s", [1.0, 2.0, 3.0])
        q = TimeSeries("q", [1.0, 2.0])
        assert dtw_full(s, q).computed_cells == 6

    def test_budget_error(self):
        # Refused before anything is allocated, so this is instant.
        s = TimeSeries("s", np.zeros(4001))
        q = TimeSeries("q", np.zeros(4000))
        msg = ("dense matrix needs 16004000 cells, budget is 16000000; "
               "sparse at res 1 returns the same cost and path")
        for dense in (cost_matrix, dtw_full):
            with pytest.raises(MatrixBudgetError, match=f"^{re.escape(msg)}$"):
                dense(s, q)

    def test_budget_is_checked_before_the_cost_range(self):
        s = TimeSeries("s", np.full(4001, 1e200))
        q = TimeSeries("q", np.full(4000, -1e200))
        with pytest.raises(MatrixBudgetError):
            cost_matrix(s, q)

    def test_budget_admits_a_matrix_of_exactly_its_size(self, monkeypatch):
        monkeypatch.setattr(tswarp.full, "DENSE_CELL_BUDGET", 12)
        s = TimeSeries("s", np.arange(3.0))
        assert cost_matrix(s, TimeSeries("q", np.arange(4.0))).cells.size == 12
        with pytest.raises(MatrixBudgetError, match="needs 15 cells, budget is 12;"):
            cost_matrix(s, TimeSeries("q", np.arange(5.0)))

    def test_budget_is_not_a_parameter(self):
        s = TimeSeries("s", np.arange(3.0))
        with pytest.raises(TypeError):
            dtw_full(s, s, max_cells=10_000)


class TestBacktrack:
    def test_backtrack_path_is_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s, q = random_pair(rng, max_len=9)
            path = backtrack(cost_matrix(s, q))
            assert validate_path(path, len(s), len(q))
