import csv
import io
import json

import pytest

from tswarp.cli import main


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

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["align", str(tmp_path / "no.txt"),
                     str(tmp_path / "pe.txt")]) == 2

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

    def test_band_needs_widths(self, capsys):
        assert main(["bench", "--lengths", "16", "--rhos", "0.5",
                     "--algos", "band"]) == 1

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
