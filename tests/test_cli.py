import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tswarp.cli
from tswarp import (
    BandSpec,
    CostOverflowError,
    MatrixBudgetError,
    build_bins,
    dc_align,
    dtw_band,
    dtw_full,
    load_series,
    quantize,
    run_benchmark,
    sparse_dtw,
)
from tswarp.cli import main
from tswarp.sparse import dump_lines, forward_pass, populate


@pytest.fixture
def pair_files(tmp_path):
    out = tmp_path / "pair"
    assert main(["gen", "--len", "25", "--rho", "0.9", "--seed", "5",
                 "--out", str(out)]) == 0
    return str(out) + ".a.txt", str(out) + ".b.txt"


class TestGen:
    def test_writes_both_files_and_reports_correlation(self, tmp_path, capsys):
        out = tmp_path / "p"
        code = main(["gen", "--len", "50", "--rho", "0.8", "--out", str(out)])
        assert code == 0
        assert (tmp_path / "p.a.txt").exists()
        assert (tmp_path / "p.b.txt").exists()
        assert "achieved correlation" in capsys.readouterr().out

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "x"
        b = tmp_path / "y"
        for out in (a, b):
            main(["gen", "--len", "40", "--rho", "0.5", "--seed", "7",
                  "--out", str(out)])
        assert (tmp_path / "x.a.txt").read_bytes().split(b"\n", 1)[1] == (
            tmp_path / "y.a.txt"
        ).read_bytes().split(b"\n", 1)[1]

    def test_invalid_rho_is_usage_error(self, tmp_path, capsys):
        code = main(["gen", "--len", "10", "--rho", "1.5",
                     "--out", str(tmp_path / "p")])
        assert code == 1


class TestAlign:
    def test_json_shape(self, pair_files, capsys):
        a, b = pair_files
        assert main(["align", a, b]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "algorithm", "params", "n", "m", "raw_cost",
            "normalized_distance", "path", "path_K", "open_cells",
            "elapsed_ms",
        }
        assert payload["algorithm"] == "full"
        assert payload["n"] == payload["m"] == 25
        assert payload["path"][0] == [1, 1]
        assert payload["path"][-1] == [25, 25]
        assert payload["path_K"] == len(payload["path"])

    def test_sparse_with_dump(self, pair_files, capsys):
        a, b = pair_files
        assert main(["align", a, b, "--algo", "sparse", "--dump-sm"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "sparse"
        assert payload["params"] == {"res": 0.5}
        assert len(payload["sm_dump"]) == payload["open_cells"]

    def test_dump_is_the_staged_matrix_beside_the_plain_payload(self, pair_files, capsys):
        a, b = pair_files
        assert main(["align", a, b, "--algo", "sparse"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(["align", a, b, "--algo", "sparse", "--dump-sm"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        sm_dump = dumped.pop("sm_dump")
        del plain["elapsed_ms"], dumped["elapsed_ms"]
        assert dumped == plain
        s, q = load_series(a)[0], load_series(b)[0]
        sm = populate(quantize(s), quantize(q), build_bins(0.5), s, q)
        assert sm_dump == dump_lines(forward_pass(sm, s, q))

    @pytest.mark.parametrize("algo", [["full"], ["band", "--width", "3"], ["dc"]])
    def test_dump_without_sparse_is_usage_error(self, pair_files, capsys, algo):
        a, b = pair_files
        assert main(["align", a, b, "--algo", *algo, "--dump-sm"]) == 1
        assert "--dump-sm" in capsys.readouterr().err

    def test_band_requires_width(self, pair_files, capsys):
        a, b = pair_files
        assert main(["align", a, b, "--algo", "band"]) == 1

    def test_band_disconnect_exits_three(self, tmp_path, capsys):
        main(["gen", "--len", "9", "--rho", "0.5", "--out",
              str(tmp_path / "l")])
        main(["gen", "--len", "4", "--rho", "0.5", "--out",
              str(tmp_path / "s")])
        code = main(["align", str(tmp_path / "l.a.txt"),
                     str(tmp_path / "s.b.txt"),
                     "--algo", "band", "--width", "0"])
        assert code == 3
        assert "minimal connecting width" in capsys.readouterr().err

    def test_floor_midpoint_recursion_exits_three(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n" * 6)
        b.write_text("0\n" * 5)
        code = main(["align", str(a), str(b), "--algo", "dc",
                     "--mid-mode", "floor"])
        assert code == 3
        assert "does not terminate" in capsys.readouterr().err

    def test_dense_budget_exits_three(self, tmp_path, capsys):
        z = tmp_path / "z.txt"
        z.write_text("0\n" * 4001)
        assert main(["align", str(z), str(z)]) == 3
        err = capsys.readouterr().err
        assert "dense matrix needs 16008001 cells" in err
        assert err.endswith("; sparse at res 1 returns the same cost and path\n")

    def test_two_series_file_exits_two(self, tmp_path, pair_files, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("1,2,3\n4,5,6\n")
        assert main(["align", str(rows), pair_files[1]]) == 2
        assert "expected exactly one series, found 2" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["align", str(tmp_path / "no.txt"),
                     str(tmp_path / "pe.txt")]) == 2

    def test_module_run_passes_the_exit_code_to_the_shell(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(tswarp.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "tswarp.cli", "align",
             str(tmp_path / "no.txt"), str(tmp_path / "pe.txt")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == 2
        assert run.stdout == ""

    def test_bad_data_exits_two(self, tmp_path, pair_files):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\nnot-a-number\n")
        assert main(["align", str(bad), pair_files[1]]) == 2


class TestCompare:
    def test_table_lists_all_algorithms(self, pair_files, capsys):
        a, b = pair_files
        assert main(["compare", a, b]) == 0
        out = capsys.readouterr().out
        for algo in ("full", "band", "dc", "sparse"):
            assert algo in out
        assert "optimal" in out

    def test_json_mode(self, pair_files, capsys):
        a, b = pair_files
        assert main(["compare", a, b, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["algorithm"] for r in rows] == ["full", "band", "dc",
                                                  "sparse"]
        full_row = rows[0]
        assert full_row["optimal"] == "yes"

    def test_rows_are_run_benchmarks_records(self, pair_files, capsys):
        a, b = pair_files
        assert main(["compare", a, b, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        (s,), (q,) = load_series(a), load_series(b)
        algorithms = {
            "full": dtw_full,
            "band": lambda s, q: dtw_band(s, q, BandSpec(max(len(s), len(q)))),
            "dc": dc_align,
            "sparse": lambda s, q: sparse_dtw(s, q, res=0.5),
        }
        records, failures = run_benchmark([("", s, q)], algorithms, repeats=1)
        assert failures == []
        assert len(rows) == len(records) == 4
        for row, record in zip(rows, records):
            del row["elapsed_ms"]
            assert row == {k: getattr(record, k) for k in row}

    def test_rows_are_judged_when_full_fails(self, pair_files, capsys,
                                             monkeypatch):
        def over_budget(s, q):
            raise MatrixBudgetError("dense matrix over budget")

        monkeypatch.setattr(tswarp.cli, "dtw_full", over_budget)
        a, b = pair_files
        assert main(["compare", a, b, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0] == {"algorithm": "full",
                           "error": "dense matrix over budget",
                           "optimal": "unknown"}
        assert [r["algorithm"] for r in rows[1:]] == ["band", "dc", "sparse"]
        assert all(r["optimal"] in ("yes", "no") for r in rows[1:])

    def test_overflow_fails_every_row_with_its_message(self, tmp_path, capsys):
        s, q = tmp_path / "s.txt", tmp_path / "q.txt"
        s.write_text("1e200\n-1e200\n")
        q.write_text("0\n1e200\n3\n")
        (s_series,), (q_series,) = load_series(s), load_series(q)
        aligners = [
            dtw_full,
            lambda s, q: dtw_band(s, q, BandSpec(3)),
            dc_align,
            sparse_dtw,
        ]
        messages = []
        for aligner in aligners:
            with pytest.raises(CostOverflowError) as raised:
                aligner(s_series, q_series)
            messages.append(str(raised.value))
        assert "n=2, m=3" in messages[0]
        assert main(["compare", str(s), str(q), "--json"]) == 3
        rows = json.loads(capsys.readouterr().out)
        assert [(r["algorithm"], r["error"]) for r in rows] == list(
            zip(["full", "band", "dc", "sparse"], messages)
        )
        assert main(["compare", str(s), str(q)]) == 3
        lines = capsys.readouterr().out.splitlines()[1:]
        for line, message in zip(lines, messages, strict=True):
            assert line.endswith(f"failed: {message}")

    def test_band_failure_is_reported_in_row(self, tmp_path, capsys):
        main(["gen", "--len", "9", "--rho", "0.5", "--out",
              str(tmp_path / "l")])
        main(["gen", "--len", "4", "--rho", "0.5", "--out",
              str(tmp_path / "s")])
        capsys.readouterr()
        argv = ["compare", str(tmp_path / "l.a.txt"),
                str(tmp_path / "s.b.txt"), "--width", "0"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        band = next(ln for ln in lines if ln.startswith("band"))
        assert "failed: band width 0 disconnects" in band
        assert main(argv + ["--json"]) == 0
        row = json.loads(capsys.readouterr().out)[1]
        assert list(row) == ["algorithm", "error", "optimal"]
        assert row["algorithm"] == "band"
        assert row["error"].startswith("band width 0 disconnects")
        assert row["optimal"] == "unknown"


class TestBench:
    def test_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["bench", "--lengths", "20", "--rhos", "0.5,0.9",
                     "--repeats", "1", "--algos", "full,sparse",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("dataset,algorithm,params,")
        assert len(lines) == 1 + 2 * 2  # 2 rhos x 2 algos

    def test_csv_to_stdout(self, capsys):
        code = main(["bench", "--lengths", "16", "--rhos", "0.5",
                     "--repeats", "1", "--algos", "full"])
        assert code == 0
        assert capsys.readouterr().out.startswith("dataset,algorithm,")

    def test_stdout_csv_equals_file_csv(self, tmp_path, capsys):
        grid = ["bench", "--lengths", "16", "--rhos", "0.5,0.9",
                "--repeats", "1", "--algos", "full,sparse,dc"]
        out = tmp_path / "r.csv"
        assert main(grid + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(grid) == 0
        stdout_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        with open(out, newline="") as fh:
            file_rows = list(csv.reader(fh))
        # Timings differ between the two sweeps; every other field must not.
        t = file_rows[0].index("elapsed_ms")
        for row in stdout_rows + file_rows:
            del row[t]
        assert len(file_rows) == 1 + 2 * 3
        assert stdout_rows == file_rows

    def test_empty_grid_is_usage_error(self, capsys):
        assert main(["bench", "--lengths", "", "--rhos", "0.5"]) == 1

    def test_zero_repeats_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["bench", "--lengths", "16", "--rhos", "0.5",
                     "--repeats", "0", "--out", str(out)]) == 1
        assert "repeats must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_band_needs_widths(self, capsys):
        assert main(["bench", "--lengths", "16", "--rhos", "0.5",
                     "--algos", "band"]) == 1

    @pytest.mark.parametrize("command", [
        ["bench", "--lengths", "8", "--rhos", "0.5", "--repeats", "1",
         "--algos", "full", "--out"],
        ["gen", "--len", "8", "--rho", "0.5", "--out"],
    ])
    def test_unwritable_out_is_data_error(self, tmp_path, capsys, command):
        target = tmp_path / "missing-dir" / "r"
        assert main(command + [str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {target}")
        assert "failed:" not in captured.err
        assert captured.out == ""

    def test_unknown_algorithm_is_usage_error(self, capsys):
        assert main(["bench", "--lengths", "16", "--rhos", "0.5",
                     "--algos", "quantum"]) == 1
        assert "unknown algorithm 'quantum'" in capsys.readouterr().err

    def test_failed_pair_is_reported_on_stderr(self, capsys):
        # The one pair fails, so the CSV is its header alone.
        assert main(["bench", "--lengths", "4001", "--rhos", "0", "--algos", "full"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("failed: L4001-r0-s0/full: dense matrix needs 16008001 cells")
        assert captured.err.count("\n") == 1
        assert captured.out.startswith("dataset,algorithm,")
        assert len(captured.out.splitlines()) == 1

    def test_band_widths_sweep(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["bench", "--lengths", "20", "--rhos", "0.9",
                     "--repeats", "1", "--algos", "band",
                     "--widths", "2,4", "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert "band-w2" in body and "band-w4" in body


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_algo_flag(self, pair_files, capsys):
        a, b = pair_files
        assert main(["align", a, b, "--algo", "quantum"]) == 1


class TestSettings:
    """A bad ``--width`` or ``--res`` is a usage error before any pair
    runs, not an in-row failure, even where every pair would fail."""

    BAD = [
        (["--width", "-1"], "band width must be >= 0"),
        (["--res", "0"], "resolution must be in (0, 1], got 0.0"),
        (["--res", "1.5"], "resolution must be in (0, 1], got 1.5"),
        (["--res", "1e-12"], "resolution must be at least MIN_RES = 2**-30, got 1e-12"),
    ]

    @pytest.fixture
    def overflow_files(self, tmp_path):
        s, q = tmp_path / "s.txt", tmp_path / "q.txt"
        s.write_text("1e200\n-1e200\n")
        q.write_text("0\n1e200\n3\n")
        return str(s), str(q)

    @pytest.mark.parametrize("flags, message", BAD)
    @pytest.mark.parametrize("pair", ["pair_files", "overflow_files"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_compare(self, request, capsys, pair, flags, message, json_flag):
        a, b = request.getfixturevalue(pair)
        capsys.readouterr()
        assert main(["compare", a, b, *flags, *json_flag]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", BAD)
    def test_align(self, pair_files, capsys, flags, message):
        algo = "band" if flags[0] == "--width" else "sparse"
        capsys.readouterr()
        assert main(["align", *pair_files, "--algo", algo, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--algos", "band", "--widths", "2,-1"], "band width must be >= 0"),
        (["--algos", "sparse", "--res", "0"], "resolution must be in (0, 1], got 0.0"),
        (["--algos", "sparse", "--res", "1e-12"],
         "resolution must be at least MIN_RES = 2**-30, got 1e-12"),
    ])
    def test_bench(self, tmp_path, capsys, flags, message):
        out = tmp_path / "r.csv"
        argv = ["bench", "--lengths", "8", "--rhos", "0.5", "--repeats", "1"]
        assert main(argv + flags + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert not out.exists()

    def test_bench_checks_only_the_settings_it_uses(self, capsys):
        assert main(["bench", "--lengths", "8", "--rhos", "0.5", "--repeats", "1",
                     "--algos", "full", "--res", "0"]) == 0
        assert "failed:" not in capsys.readouterr().err
