from dataclasses import replace

import numpy as np
import pytest

from tswarp import (
    BandSpec,
    CostOverflowError,
    SyntheticSpec,
    TimeSeries,
    WarpingPath,
    dtw_band,
    dtw_full,
    generate_pair,
    load_series,
    pearson,
    run_benchmark,
    sparse_dtw,
    write_csv,
)
from tswarp.bench import CSV_HEADER, DataFormatError


class TestSyntheticSpec:
    def test_rejects_short_length(self):
        with pytest.raises(ValueError):
            SyntheticSpec(length=1, rho=0.5, seed=0)

    @pytest.mark.parametrize("rho", [1.5, -1.5])
    def test_rejects_out_of_range_rho(self, rho):
        with pytest.raises(ValueError):
            SyntheticSpec(length=10, rho=rho, seed=0)


class TestGeneratePair:
    def test_deterministic(self):
        spec = SyntheticSpec(length=100, rho=0.7, seed=42)
        a1, b1 = generate_pair(spec)
        a2, b2 = generate_pair(spec)
        assert a1 == a2
        assert b1 == b2

    def test_seed_changes_output(self):
        a1, _ = generate_pair(SyntheticSpec(length=100, rho=0.7, seed=1))
        a2, _ = generate_pair(SyntheticSpec(length=100, rho=0.7, seed=2))
        assert a1 != a2

    def test_correlation_tracks_rho(self):
        for rho in (0.0, 0.5, 0.95):
            spec = SyntheticSpec(length=5000, rho=rho, seed=3)
            a, b = generate_pair(spec)
            assert pearson(a, b) == pytest.approx(rho, abs=0.06)

    def test_lengths_and_ids(self):
        a, b = generate_pair(SyntheticSpec(length=64, rho=0.5, seed=9))
        assert len(a) == len(b) == 64
        assert a.id != b.id


class TestPearson:
    def test_perfect_correlation(self):
        a = TimeSeries("a", [1.0, 2.0, 3.0])
        b = TimeSeries("b", [2.0, 4.0, 6.0])
        assert pearson(a, b) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        a = TimeSeries("a", [1.0, 2.0, 3.0])
        b = TimeSeries("b", [3.0, 2.0, 1.0])
        assert pearson(a, b) == pytest.approx(-1.0)

    def test_constant_series_rejected(self):
        a = TimeSeries("a", [1.0, 1.0, 1.0])
        b = TimeSeries("b", [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson(a, b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson(TimeSeries("a", [1, 2]), TimeSeries("b", [1, 2, 3]))


class TestLoadSeries:
    def test_plain_format(self, tmp_path):
        f = tmp_path / "walk.txt"
        f.write_text("# a comment\n1.5\n\n2.5\n-3.0\n")
        out = load_series(f)
        assert len(out) == 1
        assert out[0].id == "walk"
        assert out[0].values.tolist() == [1.5, 2.5, -3.0]

    def test_csv_format_with_labels(self, tmp_path):
        f = tmp_path / "rows.csv"
        f.write_text("gun,1,2,3\npoint,4,5,6\n")
        out = load_series(f)
        assert [ts.id for ts in out] == ["gun", "point"]
        assert out[1].values.tolist() == [4.0, 5.0, 6.0]

    def test_csv_format_without_labels(self, tmp_path):
        f = tmp_path / "rows.csv"
        f.write_text("1,2,3\n4,5,6\n")
        out = load_series(f)
        assert [ts.id for ts in out] == ["rows-1", "rows-2"]

    def test_auto_detection(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("1,2\n3,4\n")
        assert len(load_series(f)) == 2  # comma -> csv

    def test_explicit_format_overrides_auto(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("1\n2\n3\n")
        out = load_series(f, fmt="csv")
        assert len(out) == 3

    @pytest.mark.parametrize("fmt", ["xml", "PLAIN"])
    def test_unknown_format_rejected(self, tmp_path, fmt):
        f = tmp_path / "data.txt"
        f.write_text("1\n2\n3\n")
        with pytest.raises(ValueError, match="'auto', 'plain' or 'csv'"):
            load_series(f, fmt=fmt)

    def test_label_without_samples(self, tmp_path):
        f = tmp_path / "rows.csv"
        f.write_text("gun,1,2\npoint\n")
        with pytest.raises(DataFormatError, match=r"rows\.csv:2: empty series"):
            load_series(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_series(tmp_path / "nope.txt")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# only comments\n\n")
        with pytest.raises(DataFormatError, match="no data"):
            load_series(f)

    def test_bad_token_names_line_and_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,1,2\nb,3,oops\n")
        with pytest.raises(DataFormatError, match=r"bad\.csv:2: column 3"):
            load_series(f)

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "inf.txt"
        f.write_text("1.0\ninf\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_series(f)


class TestRunBenchmark:
    @pytest.fixture
    def small_pairs(self):
        out = []
        for seed in (0, 1):
            a, b = generate_pair(SyntheticSpec(length=30, rho=0.8, seed=seed))
            out.append((f"pair-{seed}", a, b))
        return out

    def test_records_per_pair_and_algorithm(self, small_pairs):
        algos = {
            "full": lambda s, q: dtw_full(s, q),
            "sparse": lambda s, q: sparse_dtw(s, q),
        }
        records, failures = run_benchmark(small_pairs, algos, repeats=1)
        assert not failures
        assert len(records) == 4
        full_recs = [r for r in records if r.algorithm == "full"]
        assert all(r.optimal == "yes" for r in full_recs)
        assert all(r.elapsed_ms >= 0 for r in records)

    def test_failure_is_isolated(self, small_pairs):
        def broken(s, q):
            raise RuntimeError("boom")

        algos = {"full": lambda s, q: dtw_full(s, q), "broken": broken}
        records, failures = run_benchmark(small_pairs, algos, repeats=1)
        assert len(records) == 2
        assert len(failures) == 2
        assert [f[1:] for f in failures] == [("broken", "boom")] * 2

    def test_baseline_failure_is_isolated(self, small_pairs):
        overflow = ("overflow", TimeSeries("s", [1e200, -1e200, 0]),
                    TimeSeries("q", [0, 1e200, 3]))
        algos = {"full": dtw_full, "sparse": sparse_dtw}
        records, failures = run_benchmark(
            [overflow] + small_pairs, algos, repeats=1
        )
        assert len(records) == 4
        assert [f[:2] for f in failures] == [
            ("overflow", "full"), ("overflow", "sparse")
        ]
        assert all("overflow" in message for _, _, message in failures)

    def test_overflow_names_the_pair_as_given(self):
        # The optimum sweeps (longer, shorter); the failure must still
        # name n and m in the caller's order, as dtw_full does.
        s = TimeSeries("s", [1e200, -1e200])
        q = TimeSeries("q", [0, 1e200, 3])
        with pytest.raises(CostOverflowError) as raised:
            dtw_full(s, q)
        assert "n=2, m=3" in str(raised.value)
        _, failures = run_benchmark([("p", s, q)], {"full": dtw_full}, repeats=1)
        assert failures == [("p", "full", str(raised.value))]

    def test_verdict_above_the_dense_budget(self):
        # 4,001 x 4,001 cells is past cost_matrix's budget; the optimum
        # comes from the linear-space sweep.
        zeros = TimeSeries("z", np.zeros(4001))
        band = {"band": lambda s, q: dtw_band(s, q, BandSpec(0))}
        records, failures = run_benchmark([("zeros", zeros, zeros)], band, repeats=1)
        assert not failures
        assert [(r.raw_cost, r.optimal) for r in records] == [(0.0, "yes")]

    def test_invalid_path_is_a_failure(self, small_pairs):
        def truncated(s, q):
            return replace(dtw_full(s, q), path=WarpingPath([(1, 1)]))

        records, failures = run_benchmark(small_pairs[:1], {"cut": truncated}, repeats=1)
        assert records == []
        assert failures == [("pair-0", "cut", "invalid path (boundary violation)")]

    def test_rejects_zero_repeats(self, small_pairs):
        with pytest.raises(ValueError):
            run_benchmark(small_pairs, {}, repeats=0)

    def test_params_column(self, small_pairs):
        algos = {"sparse": lambda s, q: sparse_dtw(s, q, res=0.25)}
        records, _ = run_benchmark(small_pairs, algos, repeats=1)
        assert records[0].params == "res=0.25"


class TestWriteCsv:
    def test_header_and_rows(self, tmp_path, ):
        a, b = generate_pair(SyntheticSpec(length=20, rho=0.5, seed=0))
        records, _ = run_benchmark(
            [("p", a, b)], {"full": lambda s, q: dtw_full(s, q)}, repeats=1
        )
        out = tmp_path / "bench.csv"
        write_csv(records, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2
        assert lines[1].startswith("p,full,")
