"""Contracts that hold across all four aligners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path_cost
from tswarp import (
    BandDisconnectedError,
    BandSpec,
    CostOverflowError,
    TimeSeries,
    backward_space_efficient,
    build_bins,
    cost_matrix,
    dc_align,
    dtw_band,
    dtw_full,
    forward_space_efficient,
    min_connecting_width,
    normalized_distance,
    quantize,
    sparse_dtw,
    validate_path,
)
from tswarp.cli import main
from tswarp.sparse import forward_pass, populate

# Small integer samples make equal-cost predecessors common, so these
# series exercise the diagonal > vertical > horizontal tie rule.
tie_heavy = st.lists(st.integers(-2, 2), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(tie_heavy, tie_heavy)
def test_exact_configurations_reproduce_full_bit_for_bit(a, b):
    s = TimeSeries("s", a)
    q = TimeSeries("q", b)
    n, m = len(a), len(b)
    full = dtw_full(s, q)
    sparse = sparse_dtw(s, q, res=1.0)
    exact = [dtw_band(s, q, BandSpec(max(n, m))), sparse]
    if n <= 2 or m <= 2:  # dc's base case: one dense subproblem
        exact.append(dc_align(s, q))
    for r in exact:
        assert r.raw_cost == full.raw_cost
        assert list(r.path) == list(full.path)
    # At res 1, bin 0 is [0, 1] and holds every quantized sample.
    assert sparse.computed_cells == n * m


samples = st.floats(-100, 100, allow_nan=False) | st.sampled_from([0.0, 1.0, -1.0])
side = st.integers(1, 30)
shapes = st.one_of(
    st.tuples(side, side),
    st.tuples(st.just(1), side),
    st.tuples(side, st.just(1)),
    st.tuples(st.integers(15, 30), st.integers(1, 3)),
    st.tuples(st.integers(1, 3), st.integers(15, 30)),
)


def _series(n, values):
    return st.one_of(
        st.lists(values, min_size=n, max_size=n),
        values.map(lambda v: [v] * n),  # constant
    )


pairs = shapes.flatmap(lambda nm: st.tuples(_series(nm[0], samples), _series(nm[1], samples)))


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_sparse_at_res_1_reproduces_full_bit_for_bit(pair):
    # The exact route that full's budget refusal names.
    s = TimeSeries("s", pair[0])
    q = TimeSeries("q", pair[1])
    full = dtw_full(s, q)
    sparse = sparse_dtw(s, q, res=1.0)
    assert sparse.raw_cost == full.raw_cost
    assert list(sparse.path) == list(full.path)


@settings(max_examples=200, deadline=None)
@given(pairs, st.sampled_from([0.1, 0.25, 0.5, 1.0]))
def test_every_aligner_returns_a_valid_path_no_cheaper_than_full(pair, res):
    s = TimeSeries("s", pair[0])
    q = TimeSeries("q", pair[1])
    n, m = len(s), len(q)
    full = dtw_full(s, q)
    results = [full, dc_align(s, q), sparse_dtw(s, q, res=res)]
    least = min_connecting_width(n, m)
    for w in range(max(n, m) + 1):
        try:
            results.append(dtw_band(s, q, BandSpec(w)))
        except BandDisconnectedError:
            assert w < least
        else:
            assert w >= least
    for r in results:
        assert validate_path(r.path, n, m)
        assert r.raw_cost == path_cost(r.path, s, q)
        assert r.raw_cost >= full.raw_cost
        assert r.normalized_distance == normalized_distance(r.raw_cost, r.path.K)


OVERFLOW_S = [1e200, -1e200, 0.0]
OVERFLOW_Q = [0.0, 1e200, 3.0]
INFINITE_SPAN_S = [1.7e308, -1.7e308, 0.0]


def _sparse_stages(s, q):
    sm = populate(quantize(s), quantize(q), build_bins(0.5), s, q)
    return forward_pass(sm, s, q)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "align",
    [
        dtw_full,
        dc_align,
        lambda s, q: dtw_band(s, q, BandSpec(0)),
        sparse_dtw,
        cost_matrix,
        forward_space_efficient,
        backward_space_efficient,
        _sparse_stages,
    ],
    ids=[
        "full",
        "dc",
        "band-w0",
        "sparse",
        "cost_matrix",
        "forward_space_efficient",
        "backward_space_efficient",
        "sparse-stages",
    ],
)
def test_overflowing_costs_raise_typed_error(align):
    for s_values in (OVERFLOW_S, INFINITE_SPAN_S):
        s = TimeSeries("s", s_values)
        q = TimeSeries("q", OVERFLOW_Q)
        with pytest.raises(CostOverflowError, match="overflow"):
            align(s, q)


@pytest.mark.parametrize("algo", ["full", "band", "dc", "sparse"])
def test_cli_align_overflow_exits_three(tmp_path, capsys, algo):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("".join(f"{v!r}\n" for v in OVERFLOW_S))
    b.write_text("".join(f"{v!r}\n" for v in OVERFLOW_Q))
    code = main(["align", str(a), str(b), "--algo", algo, "--width", "0"])
    assert code == 3
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize(
    "align",
    [
        dtw_full,
        lambda s, q: dtw_band(s, q, BandSpec(2)),
        dc_align,
        lambda s, q: sparse_dtw(s, q, res=0.25),
        lambda s, q: sparse_dtw(s, q, res=1.0),
    ],
)
@pytest.mark.parametrize("n, m", [(1, 1), (9, 5), (5, 9)])
def test_every_path_holds_tuples_of_built_in_ints(align, n, m):
    s = TimeSeries("s", [(i * i) % 7 - 0.5 * i for i in range(n)])
    q = TimeSeries("q", [(j * j) % 5 - 0.25 * j for j in range(m)])
    steps = align(s, q).path.steps
    assert type(steps) is tuple
    assert all(type(step) is tuple and len(step) == 2 for step in steps)
    assert all(type(i) is int and type(j) is int for i, j in steps)
