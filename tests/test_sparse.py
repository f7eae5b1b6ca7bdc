import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path_cost, random_pair
from tswarp import (
    SyntheticSpec,
    TimeSeries,
    build_bins,
    dc_align,
    dtw_full,
    forward_space_efficient,
    generate_pair,
    lower_neighbors,
    quantize,
    sparse_dtw,
    upper_neighbors,
    validate_path,
)
from tswarp.core import QuantizedSeries, backtrack_path
from tswarp.sparse import (
    MIN_RES,
    BinSet,
    SparseMatrix,
    dump_lines,
    forward_pass,
    populate,
    sparse_backtrack,
)

S_FIXTURE = TimeSeries("s", [3, 4, 5, 3, 3])
Q_FIXTURE = TimeSeries("q", [1, 2, 2, 1, 0])

INF = float("inf")


class TestBuildBins:
    def test_res_half_gives_four_overlapping_bins(self):
        bs = build_bins(0.5)
        assert bs.bins == (
            (0.0, 0.5),
            (0.25, 0.75),
            (0.5, 1.0),
            (0.75, 1.25),
        )

    def test_res_one(self):
        bs = build_bins(1.0)
        assert bs.bins == ((0.0, 1.0), (0.5, 1.5))

    def test_res_quarter_count(self):
        # stride res/2 = 0.125; lower bounds 0 .. 0.875.
        assert len(build_bins(0.25)) == 8

    # A BinSet checks its own resolution, so no stage can be handed one
    # whose count disagrees with it.
    @pytest.mark.parametrize("res", [0.0, -0.5, 1.5, float("nan"), True])
    def test_rejects_bad_resolution(self, res):
        for make in (build_bins, BinSet):
            with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
                make(res)

    def test_rejects_resolution_below_the_floor(self):
        for make in (build_bins, BinSet):
            for res in (np.nextafter(MIN_RES, 0.0), MIN_RES / 2):
                with pytest.raises(ValueError, match="at least MIN_RES"):
                    make(res)

    def test_count_is_not_an_argument(self):
        with pytest.raises(TypeError):
            BinSet(0.25, 2)

    def test_floor_resolution_keeps_no_table(self):
        tracemalloc.start()
        try:
            bs = build_bins(MIN_RES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(bs) == 2**31
        assert peak < 1024, peak

    # res = 2 (1 + 1e-12) / N for N = 13, 14 and 18 puts bin N - 1's start
    # on the loop's bound, 1 - res / 2 + 1e-12, up to rounding: the floored
    # quotient then stops one bin short.
    ON_BOUND = [0.1538461538463077, 0.1428571428572857, 0.11111111111122222]

    @settings(max_examples=500, deadline=None)
    @given(st.floats(MIN_RES, 1.0) | st.sampled_from(ON_BOUND))
    def test_count_stops_where_the_bound_is_passed(self, res):
        half = res / 2.0
        count = len(build_bins(res))
        assert (count - 1) * half <= 1.0 - half + 1e-12 < count * half
        assert BinSet(res) == build_bins(res)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 1.0) | st.sampled_from([1e-3, 0.1, 0.3, 1 / 3, 0.7, 1.0, *ON_BOUND]))
    def test_bins_are_the_loop_s_bins(self, res):
        # The loop that defines the bins, kept as the reference for the
        # arithmetic.
        half = res / 2.0
        bins = []
        k = 0
        while k * half <= 1.0 - half + 1e-12:
            lo = k * half
            bins.append((lo, lo + res))
            k += 1
        assert build_bins(res).bins == tuple(bins)


class TestBinMembership:
    def test_bin_one_index_sets_of_worked_example(self):
        lo, hi = build_bins(0.5).bins[0]
        sq = quantize(S_FIXTURE).values
        qq = quantize(Q_FIXTURE).values
        s_idx = {i + 1 for i in range(len(sq)) if lo <= sq[i] <= hi}
        q_idx = {j + 1 for j in range(len(qq)) if lo <= qq[j] <= hi}
        assert s_idx == {1, 2, 4, 5}
        assert q_idx == {1, 4, 5}

    @pytest.mark.parametrize("res", [0.1, 0.3, 1 / 3, 0.7])
    def test_samples_on_and_beside_every_bound(self, res):
        # Every bound in [0, 1] and both of its float neighbours, against
        # ``lo <= v <= hi`` over the listed bins.
        bins = build_bins(res)
        bounds = np.array(bins.bins)
        edges = bounds.ravel()
        v = np.concatenate([edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0)])
        v = np.unique(v[(v >= 0.0) & (v <= 1.0)])
        s = TimeSeries("s", v)
        q = TimeSeries("q", v[::-1])
        sm = populate(_quantized(v), _quantized(v[::-1]), bins, s, q)
        lo, hi = bounds.T
        in_s = (lo <= v[:, None]) & (v[:, None] <= hi)
        in_q = in_s[::-1]
        shared = (in_s.astype(int) @ in_q.T.astype(int)) > 0
        shared[0, 0] = shared[-1, -1] = True  # the forced corners
        assert sm.col_rows == [np.flatnonzero(col).tolist() for col in shared.T]


class TestNeighbors:
    def test_lower_neighbors_mid_matrix(self):
        assert lower_neighbors(12, n=5) == {6, 7, 11}

    def test_upper_neighbors_mid_matrix(self):
        assert upper_neighbors(12, 5, 5) == {13, 17, 18}

    def test_upper_neighbors_bottom_row_wraps(self):
        assert upper_neighbors(5, 5, 5) == {10}

    def test_lower_neighbors_origin(self):
        assert lower_neighbors(1, n=5) == set()

    def test_lower_neighbors_top_row_excludes_wraps(self):
        # Row 1 of column 2: same-column and diagonal candidates wrap.
        assert lower_neighbors(6, n=5) == {1}

    def test_upper_neighbors_last_cell(self):
        assert upper_neighbors(25, 5, 5) == set()

    def test_inverse_relationship(self):
        n, m = 4, 6
        for c in range(1, n * m + 1):
            for u in upper_neighbors(c, n, m):
                assert c in lower_neighbors(u, n)

    def test_neighbor_sets_match_their_definition(self):
        # Every cell of every grid up to 12 x 12, one-row and one-column
        # grids included, against the in-matrix cells one step away.
        for n, m in itertools.product(range(1, 13), repeat=2):
            def linear(cells):
                return {(j - 1) * n + i for i, j in cells if 1 <= i <= n and 1 <= j <= m}

            for i, j in itertools.product(range(1, n + 1), range(1, m + 1)):
                c = (j - 1) * n + i
                lower = linear([(i - 1, j), (i, j - 1), (i - 1, j - 1)])
                upper = linear([(i + 1, j), (i, j + 1), (i + 1, j + 1)])
                assert lower_neighbors(c, n) == lower, (n, m, i, j)
                assert upper_neighbors(c, n, m) == upper, (n, m, i, j)


class TestWorkedExample:
    def test_open_cells_and_cost(self):
        r = sparse_dtw(S_FIXTURE, Q_FIXTURE, res=0.5)
        assert r.computed_cells == 21
        assert r.raw_cost == pytest.approx(30.0)
        assert validate_path(r.path, 5, 5)

    def test_cell_ten_is_opened_by_unblocking(self):
        # (5, 2) shares no bin, but its predecessor dead-ends without it.
        sm = populate(
            quantize(S_FIXTURE), quantize(Q_FIXTURE), build_bins(0.5),
            S_FIXTURE, Q_FIXTURE,
        )
        assert 4 not in sm.col_rows[1]
        forward_pass(sm, S_FIXTURE, Q_FIXTURE)
        assert 10 in sm.open_cells()
        assert sm.unblocked >= 1

    def test_accumulated_at_corner(self):
        sm = populate(
            quantize(S_FIXTURE), quantize(Q_FIXTURE), build_bins(0.5),
            S_FIXTURE, Q_FIXTURE,
        )
        forward_pass(sm, S_FIXTURE, Q_FIXTURE)
        assert sm.accumulated(5, 5) == pytest.approx(30.0)
        assert sm.accumulated(1, 1) == pytest.approx(4.0)


class TestSparseDtw:
    def test_res_one_matches_full_dtw(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            s, q = random_pair(rng, max_len=20, min_len=2)
            sparse = sparse_dtw(s, q, res=1.0)
            full = dtw_full(s, q)
            assert sparse.raw_cost == pytest.approx(full.raw_cost, abs=1e-9)

    def test_cost_never_below_optimum(self):
        rng = np.random.default_rng(32)
        for res in (0.25, 0.5, 1.0):
            for _ in range(25):
                s, q = random_pair(rng, max_len=24, min_len=2)
                sparse = sparse_dtw(s, q, res=res)
                full = dtw_full(s, q)
                assert sparse.raw_cost >= full.raw_cost - 1e-9

    def test_minimal_suboptimality_regression(self):
        # Smallest known pair where the open-cell path misses the
        # optimum: the cheap detour through (1, 2) is never opened.
        s = TimeSeries("s", [1, 3])
        q = TimeSeries("q", [1, 1, 0])
        sparse = sparse_dtw(s, q, res=0.25)
        full = dtw_full(s, q)
        assert full.raw_cost == pytest.approx(9.0)
        assert sparse.raw_cost == pytest.approx(13.0)

    def test_reported_cost_is_cost_of_returned_path(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            s, q = random_pair(rng, max_len=30, min_len=2)
            r = sparse_dtw(s, q, res=0.5)
            assert validate_path(r.path, len(s), len(q))
            assert r.raw_cost == pytest.approx(path_cost(r.path, s, q))

    def test_open_cells_bounded_by_dense(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            s, q = random_pair(rng, max_len=40, min_len=2)
            r = sparse_dtw(s, q, res=0.5)
            assert r.computed_cells <= len(s) * len(q)

    def test_constant_series(self):
        s = TimeSeries("s", [2.0] * 6)
        q = TimeSeries("q", [2.0] * 4)
        r = sparse_dtw(s, q, res=0.5)
        assert r.raw_cost == 0.0
        assert validate_path(r.path, 6, 4)

    def test_long_runs_use_same_recurrence(self):
        # On near-identical pairs every cell is open, so sparse runs the
        # dense DP's recurrence over the whole matrix and must agree with
        # it bit for bit.
        rng = np.random.default_rng(35)
        base = np.cumsum(rng.normal(size=300))
        s = TimeSeries("s", base)
        q = TimeSeries("q", base + 1e-12)
        sparse = sparse_dtw(s, q, res=1.0)
        full = dtw_full(s, q)
        assert sparse.raw_cost == full.raw_cost

    @pytest.mark.parametrize("length", [63, 64, 65, 120, 250])
    def test_res_one_is_bit_identical_to_full(self, length):
        # At res 1 every cell is open, so sparse runs the dense
        # recurrence; its arithmetic is the scalar kernel's, so the
        # cost and the path equal dtw_full's exactly.
        for rho in (0.0, 0.95):
            s, q = generate_pair(SyntheticSpec(length, rho, 11))
            sparse = sparse_dtw(s, q, res=1.0)
            full = dtw_full(s, q)
            assert sparse.raw_cost == full.raw_cost
            assert sparse.path == full.path

    @pytest.mark.parametrize("n, m", [(3, 5000), (5000, 3)])
    def test_memory_grows_with_the_matrix_not_the_longer_side(self, n, m):
        # A diagonal holds at most min(n, m) cells, so the sweep and the
        # column views work over the shorter side: a whole call and its
        # views stay within a fixed number of bytes per matrix cell,
        # where buffers as wide as the longer side take max(n, m)**2.
        rng = np.random.default_rng(8)
        s = TimeSeries("s", np.cumsum(rng.normal(size=n)))
        q = TimeSeries("q", np.cumsum(rng.normal(size=m)))
        tracemalloc.start()
        try:
            sm = _filled(s, q, 0.5)
            sparse_backtrack(sm)
            sm.col_vals
            sm.open_cells()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300 * n * m


    @pytest.mark.filterwarnings("error")
    def test_off_matrix_squares_overflow_without_a_warning(self):
        # Span 0, so the cost range check accepts the pair and the cost
        # is 0, but the anti-diagonal sweeps reach past the matrix, where
        # squaring a pad against 1e200 could overflow.
        for n, m in [(4, 3), (3, 4)]:
            s, q = TimeSeries("s", [1e200] * n), TimeSeries("q", [1e200] * m)
            sm = _filled(s, q, 0.5)
            assert sm.cost == 0.0
            assert sm.col_vals[-1][-1] == 0.0  # the cost sweep run again
            assert dc_align(s, q).raw_cost == 0.0
            assert forward_space_efficient(s, q)[-1] == 0.0

    def test_peak_memory_per_open_cell(self):
        # The forward pass keeps a one-byte step code per open cell, not
        # its 8-byte cost, and skews the open set into the sweep's slots
        # 64 slots at a time, never as bools of the whole matrix.  The
        # call peaks in the sweep, where the open set is held once,
        # packed, beside the codes and one block of rows, its mask and its
        # codes: numpy buffers the block's broadcast SWEEP_BUFSIZE
        # elements at a time, and no earlier block's or skew chunk's
        # temporaries are alive: about 6.4 B per open cell at L = 120 and
        # 3.2 at L = 250, res 1, where block-sized broadcast buffers and
        # the last block's temporaries took 7.3 and 4.1.
        cases = [
            (1000, 0.95, 0.5, 3.5),
            (120, 0.0, 0.1, 7.1),
            (250, 0.99, 1.0, 3.6),
            (3000, 0.95, 0.5, 1.8),
        ]
        for L, rho, res, bound in cases:
            s, q = generate_pair(SyntheticSpec(L, rho, 7))
            tracemalloc.start()
            try:
                r = sparse_dtw(s, q, res)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * r.computed_cells, (L, peak / r.computed_cells)

    @pytest.mark.parametrize("res", [1e-5, MIN_RES])
    def test_fine_resolutions_are_served(self, res):
        # A table of 2 / res bins would take about 0.1 s on this pair at
        # res 1e-5 and exhaust memory towards res 1e-8.
        s, q = generate_pair(SyntheticSpec(50, 0.5, 7))
        r = sparse_dtw(s, q, res)
        assert validate_path(r.path, 50, 50)
        assert r.raw_cost >= dtw_full(s, q).raw_cost

    def test_populate_peak_memory(self):
        # Bin ranges compared as small integers: about 1 B per matrix
        # cell, where float64 sample comparisons against bin bounds
        # buffered 3.3 B.
        s, q = generate_pair(SyntheticSpec(120, 0.0, 7))
        sq, qq, bins = quantize(s), quantize(q), build_bins(0.1)
        tracemalloc.start()
        try:
            populate(sq, qq, bins, s, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(s) * len(q), peak


@pytest.mark.parametrize("short", [63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("wide", [False, True])
def test_skew_chunk_and_byte_edges_match_the_reference(short, wide):
    # The open set is skewed into the sweep's slots 64 at a time, and
    # slot c + 1 holds swept column c, so a shorter side of 63-65 or
    # 127-129 puts the last slot on either side of a chunk or byte edge.
    rng = np.random.default_rng(short)
    n, m = (short, short + 40) if wide else (short + 40, short)
    s = TimeSeries("s", np.cumsum(rng.normal(size=n)))
    q = TimeSeries("q", np.cumsum(rng.normal(size=m)))
    for res in (0.5, 1.0):
        ref_cost, ref_open = _reference_sparse(s, q, res)
        sm = _filled(s, q, res)
        assert sm.open_cells() == ref_open
        assert sm.cost == ref_cost
    assert sparse_backtrack(sm) == dtw_full(s, q).path


def _reference_sparse(s: TimeSeries, q: TimeSeries, res: float):
    """Final cost and sorted open cells of ``_reference_engine``."""
    acc, open_cells, _ = _reference_engine(s, q, res)
    return acc[len(s) * len(q)], open_cells


def _reference_engine(s: TimeSeries, q: TimeSeries, res: float):
    """Literal single-sweep engine built on the neighbor functions.

    Independent of the production bitmask representation: a dict
    keyed by linear index, scanned once in increasing order, opening
    cells exactly when a processed cell has no open upper neighbor.
    Returns the accumulated cost of every open cell, the sorted open
    cells and the number of cells unblocking opened.
    """
    sq = quantize(s).values
    qq = quantize(q).values
    n, m = len(sq), len(qq)
    open_set = set()
    for lo, hi in build_bins(res).bins:
        si = [i for i in range(n) if lo <= sq[i] <= hi]
        qi = [j for j in range(m) if lo <= qq[j] <= hi]
        for j in qi:
            base = j * n
            for i in si:
                open_set.add(base + i + 1)
    open_set.add(1)
    open_set.add(n * m)
    sv = s.values
    qv = q.values
    acc: dict[int, float] = {}
    unblocked = 0
    for c in range(1, n * m + 1):
        if c not in open_set:
            continue
        i = (c - 1) % n
        j = (c - 1) // n
        d = float(sv[i]) - float(qv[j])
        lowers = [acc[x] for x in lower_neighbors(c, n) if x in open_set]
        if c == 1:
            acc[c] = d * d
        else:
            acc[c] = d * d + (min(lowers) if lowers else INF)
        uppers = upper_neighbors(c, n, m)
        if uppers and not (uppers & open_set):
            open_set |= uppers
            unblocked += len(uppers)
    return acc, sorted(open_set), unblocked


class TestAgainstReferenceEngine:
    def test_costs_and_open_sets_match(self):
        rng = np.random.default_rng(36)
        for res in (0.25, 0.5, 1.0):
            for _ in range(15):
                s, q = random_pair(rng, max_len=25, min_len=2)
                ref_cost, ref_open = _reference_sparse(s, q, res)
                r = sparse_dtw(s, q, res=res)
                assert r.raw_cost == ref_cost
                sm = populate(
                    quantize(s), quantize(q), build_bins(res), s, q
                )
                forward_pass(sm, s, q)
                assert sm.open_cells() == ref_open


class TestDump:
    def test_dump_marks_zero_local_cost_as_minus_one(self):
        s = TimeSeries("s", [1.0, 2.0])
        q = TimeSeries("q", [1.0, 3.0])
        sm = populate(quantize(s), quantize(q), build_bins(1.0), s, q)
        forward_pass(sm, s, q)
        lines = dump_lines(sm)
        first = lines[0].split(",")
        assert first[:3] == ["1", "1", "1"]
        assert first[3] == "-1"  # |1-1| squared is zero
        assert first[5] == "1"

    def test_dump_covers_every_open_cell(self):
        sm = populate(
            quantize(S_FIXTURE), quantize(Q_FIXTURE), build_bins(0.5),
            S_FIXTURE, Q_FIXTURE,
        )
        forward_pass(sm, S_FIXTURE, Q_FIXTURE)
        lines = dump_lines(sm)
        assert len(lines) == sm.open_count == 21
        assert [int(ln.split(",")[0]) for ln in lines] == sm.open_cells()


def _filled(s: TimeSeries, q: TimeSeries, res: float):
    sm = populate(quantize(s), quantize(q), build_bins(res), s, q)
    return forward_pass(sm, s, q)


def _run_lengths(rows: list[int]) -> list[int]:
    """Lengths of the maximal runs of consecutive rows."""
    out: list[int] = []
    for k, r in enumerate(rows):
        if k and rows[k - 1] == r - 1:
            out[-1] += 1
        else:
            out.append(1)
    return out


# Lengths 1-70: the open-row masks cross the 8- and 64-bit boundaries,
# n = 1 and m = 1 occur, and the sweep crosses several blocks of diagonals.
samples = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=70,
)


class TestRunCompressedStorage:
    @settings(max_examples=150, deadline=None)
    @given(samples, samples, st.sampled_from([0.1, 0.25, 0.5, 1.0]) | st.floats(0.05, 1.0))
    def test_views_and_queries_describe_the_same_cells(self, a, b, res):
        s = TimeSeries("s", a)
        q = TimeSeries("q", b)
        n, m = len(a), len(b)
        sm = populate(quantize(s), quantize(q), build_bins(res), s, q)
        bin_rows = sm.col_rows
        forward_pass(sm, s, q)
        # The step codes walk the dense backtracker's hops over the costs,
        # which the first ``accumulated`` query computes by re-running the
        # sweep.
        assert sparse_backtrack(sm).steps == tuple(backtrack_path(sm.accumulated, n, m))
        assert sm.col_rows == bin_rows
        rows, vals = sm.col_open_rows, sm.col_vals
        assert len(rows) == len(vals) == m
        cells = {}
        for j, (col, col_vals) in enumerate(zip(rows, vals)):
            assert col == sorted(set(col))
            assert col_vals.dtype == np.float64 and len(col_vals) == len(col)
            for r, v in zip(col, col_vals.tolist()):
                cells[j * n + r + 1] = v
        assert sm.open_cells() == sorted(cells)
        assert sm.open_count == len(cells)
        acc, ref_open, ref_unblocked = _reference_engine(s, q, res)
        assert sm.open_cells() == ref_open
        assert sm.unblocked == ref_unblocked
        assert type(sm.unblocked) is int  # JSON-serializable, unlike numpy ints
        # The sweep's arithmetic is the reference's: costs agree exactly.
        for j in range(1, m + 1):
            for i in range(1, n + 1):
                c = (j - 1) * n + i
                assert sm.is_open(i, j) == (c in cells)
                v = sm.accumulated(i, j)
                assert v == (cells[c] if c in cells else None)
                if c in cells:
                    assert v == acc[c]
        lines = dump_lines(sm)
        assert [int(ln.split(",")[0]) for ln in lines] == sorted(cells)
        for ln in lines:
            c, i, j, _, a_txt, flag = ln.split(",")
            assert (int(i), int(j)) == ((int(c) - 1) % n + 1, (int(c) - 1) // n + 1)
            v = cells[int(c)]
            assert a_txt == ("inf" if v == INF else f"{v:g}") and flag == "1"

    @pytest.mark.parametrize("span", [47, 48, 49])
    def test_runs_either_side_of_the_vector_threshold(self, span):
        # Rows 1..span share the low bin, the rest the high one, so the
        # low columns open one run of exactly `span` rows.  The sweep's
        # costs must reproduce the scalar reference bit for bit.
        s = TimeSeries("s", [i % 3 for i in range(span)] + [40] * (70 - span))
        q = TimeSeries("q", [0, 1, 2, 40, 40, 1, 0, 2, 40])
        sm = _filled(s, q, 0.25)
        assert span in _run_lengths(sm.col_open_rows[1])
        acc, ref_open, _ = _reference_engine(s, q, 0.25)
        assert sm.open_cells() == ref_open
        n = len(s)
        for c in ref_open:
            assert sm.accumulated((c - 1) % n + 1, (c - 1) // n + 1) == acc[c]

    def test_long_run_over_a_gap_in_the_previous_column(self):
        # Row 31 is closed in column 2 but open in column 3, whose single
        # 70-row run therefore reads its previous column across a gap.
        s = TimeSeries("s", [0] * 30 + [8] + [0] * 39)
        q = TimeSeries("q", [0, 0, 4, 4, 8])
        sm = _filled(s, q, 0.5)
        assert _run_lengths(sm.col_open_rows[1]) == [30, 39]
        assert _run_lengths(sm.col_open_rows[2]) == [70]
        acc, ref_open, _ = _reference_engine(s, q, 0.5)
        assert sm.open_cells() == ref_open
        n = len(s)
        for c in ref_open:
            assert sm.accumulated((c - 1) % n + 1, (c - 1) // n + 1) == acc[c]
        assert sparse_dtw(s, q, 0.5).raw_cost == acc[n * len(q)]

    @pytest.mark.parametrize(
        "a, b, res, opened",
        [
            # Row n of column 1 is open and (n, 2) closed: unblocking
            # opens (n, 2) only, which in turn opens (n, 3).
            ([0, 0, 9], [9, 0, 0, 9], 0.5, [6, 9]),
            ([0] * 63 + [9], [9, 0, 0, 9], 0.5, [128, 192]),
            # The final column bin-opens three runs, rows 1, 4 and 6,
            # and fills down from row 1.
            ([0, 9, 9, 0, 9, 0], [0, 9, 0], 0.5, [12, 14, 15, 17]),
            # One column of 8, 9, 64 and 65 rows, whose masks end on
            # either side of a byte and a 64-bit word: it fills down
            # over the rows whose sample, 2 to 4, shares no bin with
            # the query's.
            *[
                (
                    [k * 7 % 5 for k in range(n)],
                    [0],
                    0.25,
                    [k + 1 for k in range(1, n - 1) if k * 7 % 5 >= 2],
                )
                for n in (8, 9, 64, 65)
            ],
        ],
    )
    def test_unblocking_edge_cases_match_the_reference(self, a, b, res, opened):
        # Integer samples keep every sum exact, so all costs must equal
        # the reference's bit for bit, long runs included.
        s = TimeSeries("s", a)
        q = TimeSeries("q", b)
        n = len(a)
        sm = _filled(s, q, res)
        binned = {j * n + r + 1 for j, col in enumerate(sm.col_rows) for r in col}
        acc, ref_open, ref_unblocked = _reference_engine(s, q, res)
        assert sorted(set(sm.open_cells()) - binned) == opened
        assert sm.open_cells() == ref_open
        assert sm.unblocked == ref_unblocked == len(opened)
        for c in ref_open:
            assert sm.accumulated((c - 1) % n + 1, (c - 1) // n + 1) == acc[c]

    @pytest.mark.parametrize(
        "a, b",
        [
            # Columns 1, 3 and 5 share one bin range, which holds
            # neither row 1 nor row 5; columns 2 and 4 bin-open both.
            ([9, 0, 1, 0, 9], [0, 9, 0, 9, 0]),
            # A constant query: every column shares one bin range.
            ([9, 0, 1, 0, 9], [2, 2, 2, 2]),
            # One column holds both forced corners.
            ([9, 0, 1, 0, 9], [0]),
            # Every sample sits on a bin bound (multiples of res / 2).
            ([0, 0.25, 0.5, 0.75, 1, 0.5, 0.25], [1, 0.75, 0.5, 0.25, 0, 0.75]),
        ],
    )
    def test_forced_corners_stay_in_their_own_columns(self, a, b):
        s = TimeSeries("s", a)
        q = TimeSeries("q", b)
        n, m = len(a), len(b)
        sq, qq = quantize(s).values, quantize(q).values
        bins = build_bins(0.5)
        sm = populate(quantize(s), quantize(q), bins, s, q)
        for j, col in enumerate(sm.col_rows):
            binned = {
                i
                for i in range(n)
                if any(lo <= sq[i] <= hi and lo <= qq[j] <= hi for lo, hi in bins.bins)
            }
            forced = {0} if j == 0 else set()
            if j == m - 1:
                forced.add(n - 1)
            assert col == sorted(binned | forced)


def _quantized(values):
    return QuantizedSeries(np.array(values, dtype=float), 0.0, 1.0)


class TestStagedInputs:
    S3 = TimeSeries("s", [0.0, 0.5, 1.0])
    Q3 = TimeSeries("q", [0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "sv, qv, match",
        [
            ([-0.5, 0.5, 1.0], [0.0, 0.5, 1.0], r"\[0, 1\]"),
            ([0.0, 0.5, 1.0], [0.0, 1.6, 1.0], r"\[0, 1\]"),
            ([0.0, float("nan"), 1.0], [0.0, 0.5, 1.0], r"\[0, 1\]"),
            ([0.0, 1.0], [0.0, 0.5, 1.0], "quantized lengths 2 x 3"),
            ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0, 1.0], "quantized lengths 3 x 4"),
        ],
        ids=["s-below-0", "q-above-1", "s-nan", "s-short", "q-long"],
    )
    def test_populate_refuses_samples_it_would_misread(self, sv, qv, match):
        with pytest.raises(ValueError, match=match):
            populate(_quantized(sv), _quantized(qv), build_bins(0.5), self.S3, self.Q3)

    @pytest.mark.parametrize("n, m", [(5, 3), (4, 2)])
    def test_forward_pass_refuses_series_that_do_not_span_the_matrix(self, n, m):
        s = TimeSeries("s", [0.0, 1.0, 0.0, 1.0])
        q = TimeSeries("q", [0.0, 1.0, 0.0])
        sm = populate(quantize(s), quantize(q), build_bins(0.5), s, q)
        wrong = TimeSeries("s", np.arange(n, dtype=float)), TimeSeries("q", np.arange(m, dtype=float))
        with pytest.raises(ValueError, match=f"series of {n} x {m} samples for a 4 x 3 matrix"):
            forward_pass(sm, *wrong)


class TestBeforeForwardPass:
    @pytest.fixture
    def sm(self):
        return populate(
            quantize(S_FIXTURE), quantize(Q_FIXTURE), build_bins(0.5),
            S_FIXTURE, Q_FIXTURE,
        )

    def test_views_and_queries_read_the_bin_opened_cells(self, sm):
        # Before the forward pass only col_rows reads the bin-opened set;
        # every other view and query waits for the finished store.
        rows = sm.col_rows
        assert sum(map(len, rows)) == 18
        readers = [
            lambda: sm.open_count,
            lambda: sm.unblocked,
            sm.open_cells,
            lambda: sm.col_open_rows,
            lambda: sm.col_vals,
            lambda: sm.is_open(1, 1),
        ]
        for read in readers:
            with pytest.raises(RuntimeError, match="forward pass has not run yet"):
                read()
        forward_pass(sm, S_FIXTURE, Q_FIXTURE)
        assert sm.col_rows == rows
        for j in range(1, 6):
            for i in rows[j - 1]:
                assert sm.is_open(i + 1, j)

    def test_costs_and_path_need_the_forward_pass(self, sm):
        with pytest.raises(RuntimeError, match="forward pass has not run yet"):
            sm.accumulated(1, 1)
        with pytest.raises(RuntimeError, match="forward pass has not run yet"):
            sparse_backtrack(sm)

    def test_dump_leaves_the_accumulated_field_empty(self, sm):
        # The dump reads only the finished store, so there is no dump with
        # an empty accumulated field: before the forward pass it raises.
        with pytest.raises(RuntimeError, match="forward pass has not run yet"):
            dump_lines(sm)
        forward_pass(sm, S_FIXTURE, Q_FIXTURE)
        lines = dump_lines(sm)
        assert len(lines) == sm.open_count
        assert all(ln.split(",")[4] != "" for ln in lines)


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (-1, 2), (4, 1), (1, 3), (0, 0)])
def test_queries_refuse_cells_off_the_matrix(i, j):
    # A negative or zero index would otherwise wrap onto another cell's
    # diagonal slot: (-1, 2) read (3, 2)'s cost.
    s, q = TimeSeries("s", [0, 1, 2]), TimeSeries("q", [0, 2])
    sm = _filled(s, q, 0.5)
    for query in (sm.is_open, sm.accumulated):
        with pytest.raises(IndexError, match=rf"cell \({i}, {j}\) is off the 3 x 2 matrix"):
            query(i, j)


def test_sparse_matrix_is_built_from_its_shape_and_bin_opened_rows():
    # Everything else is the forward pass's output.
    fields = [f.name for f in dataclasses.fields(SparseMatrix) if f.init]
    assert fields == ["n", "m", "col_bin"]


def test_sparse_matrix_equality_is_identity():
    a, b = (_filled(S_FIXTURE, Q_FIXTURE, 0.5) for _ in range(2))
    assert a == a
    assert a != b
