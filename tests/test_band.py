import numpy as np
import pytest

from helpers import band_reaches, path_cost, random_pair
from tswarp import (
    BandDisconnectedError,
    BandSpec,
    TimeSeries,
    dtw_band,
    dtw_full,
    min_connecting_width,
    validate_path,
)


class TestBandSpec:
    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            BandSpec(-1)

    @pytest.mark.parametrize("width", [2.0, 2.5, "2", None])
    def test_rejects_a_width_that_is_not_an_integer(self, width):
        with pytest.raises(ValueError, match=f"band width must be an integer, got {width!r}"):
            BandSpec(width)

    def test_accepts_numpy_integers(self):
        s = TimeSeries("s", [1.0, 2.0, 3.0, 4.0])
        assert dtw_band(s, s, BandSpec(np.int64(1))).raw_cost == 0.0


class TestDtwBand:
    def test_width_zero_square_is_diagonal(self):
        s = TimeSeries("s", [1.0, 2.0, 3.0, 4.0])
        q = TimeSeries("q", [4.0, 3.0, 2.0, 1.0])
        r = dtw_band(s, q, BandSpec(0))
        assert list(r.path) == [(1, 1), (2, 2), (3, 3), (4, 4)]
        assert r.computed_cells == 4

    def test_full_width_equals_unconstrained(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            s, q = random_pair(rng, max_len=15, min_len=2)
            wide = dtw_band(s, q, BandSpec(max(len(s), len(q))))
            full = dtw_full(s, q)
            assert wide.raw_cost == pytest.approx(full.raw_cost, abs=1e-9)
            assert list(wide.path) == list(full.path)

    def test_cost_non_increasing_in_width(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            s, q = random_pair(rng, max_len=20, min_len=4)
            costs = []
            for w in range(max(len(s), len(q)) + 1):
                try:
                    costs.append(dtw_band(s, q, BandSpec(w)).raw_cost)
                except BandDisconnectedError:
                    continue
            assert costs == sorted(costs, reverse=True) or all(
                a >= b - 1e-9 for a, b in zip(costs, costs[1:])
            )

    def test_band_cost_lower_bounded_by_full(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            s, q = random_pair(rng, max_len=12, min_len=2)
            full = dtw_full(s, q).raw_cost
            for w in (1, 2, 4):
                try:
                    band = dtw_band(s, q, BandSpec(w))
                except BandDisconnectedError:
                    continue
                assert band.raw_cost >= full - 1e-9

    def test_paths_are_valid_and_cost_consistent(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s, q = random_pair(rng, max_len=15, min_len=2)
            r = dtw_band(s, q, BandSpec(2))
            assert validate_path(r.path, len(s), len(q))
            assert r.raw_cost == pytest.approx(path_cost(r.path, s, q))

    def test_disconnect_raises_with_minimal_width(self):
        s = TimeSeries("s", np.arange(7.0))
        q = TimeSeries("q", np.arange(4.0))
        with pytest.raises(BandDisconnectedError) as exc:
            dtw_band(s, q, BandSpec(0))
        err = exc.value
        assert err.width == 0
        assert err.min_width == min_connecting_width(7, 4)
        # The advertised minimal width actually connects...
        dtw_band(s, q, BandSpec(err.min_width))
        # ...and anything narrower does not.
        for w in range(err.min_width):
            with pytest.raises(BandDisconnectedError):
                dtw_band(s, q, BandSpec(w))

    def test_corner_cells_always_evaluated(self):
        # Strongly non-square: a centered width-1 band misses (1,1)
        # membership in some columns, but corners must still resolve.
        s = TimeSeries("s", np.arange(11.0))
        q = TimeSeries("q", np.arange(3.0))
        w = min_connecting_width(11, 3)
        r = dtw_band(s, q, BandSpec(w))
        assert list(r.path)[0] == (1, 1)
        assert list(r.path)[-1] == (11, 3)


class TestMinConnectingWidth:
    def test_square_is_zero(self):
        assert min_connecting_width(5, 5) == 0

    def test_known_values(self):
        assert min_connecting_width(2, 1) == 0
        assert min_connecting_width(7, 4) >= 1

    def test_sweep_oracle_and_closed_form_agree(self):
        for n in range(1, 25):
            s = TimeSeries("s", np.zeros(n))
            for m in range(1, 25):
                q = TimeSeries("q", np.zeros(m))
                least = min_connecting_width(n, m)
                for w in range(max(n, m) + 1):
                    try:
                        dtw_band(s, q, BandSpec(w))
                        swept = True
                    except BandDisconnectedError:
                        swept = False
                    assert swept == band_reaches(n, m, w) == (w >= least), (n, m, w)

    def test_closed_form_is_the_oracle_least_width(self):
        rng = np.random.default_rng(23)
        shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 400))) for _ in range(50)]
        shapes += [(int(rng.integers(1, 200)), int(rng.integers(1, 200))) for _ in range(150)]
        for a, b in shapes:
            for n, m in ((a, b), (b, a)):
                least = min_connecting_width(n, m)
                assert band_reaches(n, m, least), (n, m)
                assert least == 0 or not band_reaches(n, m, least - 1), (n, m)

    def test_tall_pair(self):
        # One band sweep per candidate width made this quadratic (seconds).
        assert min_connecting_width(12000, 4) == 2998
