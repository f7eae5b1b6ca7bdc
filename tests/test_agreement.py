"""Contracts that hold across all four aligners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tswarp import (
    BandSpec,
    CostOverflowError,
    TimeSeries,
    dc_align,
    dtw_band,
    dtw_full,
    sparse_dtw,
)
from tswarp.cli import main

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
    exact = [
        dtw_band(s, q, BandSpec(max(n, m))),
        sparse_dtw(s, q, res=1.0),
    ]
    if n <= 2 or m <= 2:  # dc's base case: one dense subproblem
        exact.append(dc_align(s, q))
    for r in exact:
        assert r.raw_cost == full.raw_cost
        assert list(r.path) == list(full.path)


OVERFLOW_S = [1e200, -1e200, 0.0]
OVERFLOW_Q = [0.0, 1e200, 3.0]


@pytest.mark.parametrize(
    "align",
    [
        dtw_full,
        dc_align,
        lambda s, q: dtw_band(s, q, BandSpec(0)),
        sparse_dtw,
    ],
    ids=["full", "dc", "band-w0", "sparse"],
)
def test_overflowing_costs_raise_typed_error(align):
    s = TimeSeries("s", OVERFLOW_S)
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
