"""The command-line front end, run in-process through cli.run."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spectral_walks import cli
from spectral_walks.cli import run
from spectral_walks import (
    decode_int,
    decode_nat,
    eigh,
    encode_int,
    encode_nat,
    gram_matrix,
)

CYCLE4 = str(Path(__file__).resolve().parents[1] / "examples_data" / "cycle4.json")


def invoke(capsys, argv):
    rc = run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExitCodes:
    def test_gram_passes(self, capsys):
        rc, out, _ = invoke(capsys, ["spectra", "gram", "--words", "1,11,111"])
        assert rc == 0
        assert "# table=reciprocity" in out

    def test_missing_graph_file(self, capsys):
        rc, _, err = invoke(
            capsys, ["walk", "sim", "--graph", "/no/such/file.json", "--paths", "10"]
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_bad_word(self, capsys):
        rc, _, err = invoke(capsys, ["tree", "encode", "--word", "102"])
        assert rc == 2
        assert "error:" in err

    def test_root_has_no_dipole(self, capsys):
        rc, _, err = invoke(capsys, ["tree", "dipole", "--x", "-"])
        assert rc == 2
        assert "root" in err

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, ["--help"])[0] == 0
        assert invoke(capsys, ["tree", "--help"])[0] == 0

    def test_no_arguments(self, capsys):
        assert invoke(capsys, [])[0] == 2

    def test_failing_qmf_is_one(self, capsys):
        rc, out, _ = invoke(capsys, ["wavelet", "qmf", "--coeffs", "0.3,0.4"])
        assert rc == 1
        assert "passed,false" in out

    @pytest.mark.parametrize("target, exc, argv", [
        ("spectral_walks.spectra.eigh", RuntimeError("QL iteration did not converge in 30 sweeps"),
         ["spectra", "gram", "--words", "1,11"]),
        ("spectral_walks.walks.stationary_measure", ArithmeticError("stationary solve residual 1e-03 exceeds 1e-12"),
         ["walk", "sim", "--graph", CYCLE4, "--paths", "10"]),
    ])
    def test_solver_failure_is_three(self, capsys, monkeypatch, target, exc, argv):
        def give_up(*args, **kwargs):
            raise exc

        monkeypatch.setattr(target, give_up)
        rc, out, err = invoke(capsys, argv)
        assert rc == 3
        assert out == ""
        assert err == f"error: {exc}\n"

    def test_dipole_defect_clean(self, capsys):
        rc, out, _ = invoke(capsys, ["tree", "dipole", "--x", "10", "--depth", "4"])
        assert rc == 0
        # every defect cell is exactly 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert rows and all(r.rsplit(",", 1)[1] == "0" for r in rows)


class TestRefusedInputs:
    """Non-finite numbers and over-cap tree depths exit 2, naming the value."""

    @pytest.mark.parametrize("argv, named", [
        (["wavelet", "qmf", "--coeffs", "nan,0.5"], "'nan'"),
        (["wavelet", "qmf", "--coeffs", "0.5,-inf"], "'-inf'"),
        (["wavelet", "qmf", "--coeffs", "0.5,1e999"], "'1e999'"),
        (["wavelet", "qmf", "--coeffs", "1/0,0.5"], "'1/0'"),
        (["wavelet", "tightness", "--coeffs", "inf,0.5"], "'inf'"),
        (["wavelet", "tightness", "--coeffs", "0.5,0.5", "--t", "nan"], "nan"),
        (["wavelet", "tightness", "--coeffs", "0.5,0.5", "--t", "inf"], "inf"),
        (["wavelet", "tightness", "--coeffs", "0.5,0.5", "--t=-inf"], "-inf"),
        (["tree", "dipole", "--x", "1", "--depth", "17"], "depth 17"),
        (["tree", "dipole", "--x", "1", "--depth", "40"], "depth 40"),
        (["spectra", "growth", "--max-depth", "17"], "depth 17"),
        (["spectra", "gram", "--words", "1,11", "--depth", "30"], "depth 30"),
    ])
    def test_exit_two_naming_the_value(self, capsys, argv, named):
        rc, out, err = invoke(capsys, argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and named in err


class TestParserReuse:
    """One parser serves every run in a process, with a fresh parser's bytes and exit codes."""

    ARGVS = [
        ["tree", "encode", "--word", "101", "--out", "json"],
        ["spectra", "gram", "--words", "1,11,0"],
        ["tree", "encode", "--word", "101"],
        ["tree", "encode", "--wrod", "101"],
        ["tree", "dipole", "--x", "01", "--depth", "3", "--seed", "5"],
        ["--help"],
        ["spectra", "gram", "--help"],
        ["tree", "dipole", "--x", "01"],
        ["wavelet", "tightness", "--coeffs", "0.5,0.5", "--t", "0.25"],
        ["verify"],
        ["wavelet", "qmf", "--coeffs", "0.5,0.5"],
    ]

    def test_shared_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        shared = [invoke(capsys, argv) for argv in self.ARGVS]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [invoke(capsys, argv) for argv in self.ARGVS]
        assert [rc for rc, _, _ in shared] == [0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0]
        assert shared == fresh


class TestCsvShape:
    def test_meta_block_then_tables(self, capsys):
        rc, out, _ = invoke(capsys, ["tree", "encode", "--word", "101"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "# version=0.1.0"
        assert lines[1] == "# seed=0"
        assert lines[2].startswith("# config=") and len(lines[2]) == len("# config=") + 12
        assert lines[3] == "# table=encodings"
        assert lines[4] == "quantity,value"
        cells = dict(l.split(",", 1) for l in lines[5:])
        assert cells["nat"] == str(encode_nat("101"))
        assert cells["int"] == str(encode_int("101"))
        assert cells["int_canonical"] == decode_int(encode_int("101"))
        assert cells["nat_canonical"] == "101"

    def test_origin_prints_as_dash(self, capsys):
        _, out, _ = invoke(capsys, ["tree", "encode", "--word", "-"])
        cells = dict(
            l.split(",", 1) for l in out.splitlines() if not l.startswith("#") and "," in l
        )
        assert cells["nat"] == "0"
        assert cells["nat_canonical"] == "-"
        assert decode_nat(0) == ""

    def test_seed_echoed(self, capsys):
        _, out, _ = invoke(capsys, ["spectra", "growth", "--max-depth", "2", "--seed", "9"])
        assert "# seed=9" in out.splitlines()


class TestJson:
    def test_parses_and_matches_library(self, capsys):
        words = ("1", "11", "111")
        rc, out, _ = invoke(
            capsys, ["spectra", "gram", "--words", ",".join(words), "--out", "json"]
        )
        assert rc == 0
        doc = json.loads(out)
        assert set(doc["meta"]) == {"version", "seed", "config"}
        assert set(doc["tables"]) == {"gram", "eigensystem", "reciprocity"}
        g = gram_matrix(words)
        for i, row in enumerate(doc["tables"]["gram"]["rows"]):
            assert row[0] == words[i]
            assert row[1:] == [int(g[i, j]) for j in range(len(words))]
        # floats are printed with 17 significant digits, so they round-trip
        vals, _ = eigh(g)
        for j, row in enumerate(doc["tables"]["eigensystem"]["rows"]):
            assert row[1] == float(vals[j])

    def test_file_filter_has_no_exact_route(self, capsys, tmp_path):
        p = tmp_path / "flat.json"
        p.write_text(json.dumps({"a": [0.5, 0.5], "degree": 2}))
        rc, out, _ = invoke(
            capsys,
            ["solenoid", "walk", "--w", str(p), "--steps", "6", "--paths", "200",
             "--seed", "3", "--out", "json"],
        )
        assert rc == 0
        rows = json.loads(out)["tables"]["covariance"]["rows"]
        assert rows
        for row in rows:
            assert row[4] is None and row[6] is None

    def test_haar_point_mass_is_exact(self, capsys):
        rc, out, _ = invoke(
            capsys,
            ["solenoid", "walk", "--w", "haar", "--steps", "6", "--paths", "200",
             "--seed", "1", "--out", "json"],
        )
        assert rc == 0
        for row in json.loads(out)["tables"]["covariance"]["rows"]:
            assert row[3] == row[4] and row[5] == 0 and row[6] == 0


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = ["walk", "sim", "--graph", CYCLE4, "--steps", "6", "--paths", "2000",
                "--seed", "42", "--out", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert invoke(capsys, argv + ["--output", str(a)]) == (0, "", "")
        assert invoke(capsys, argv + ["--output", str(b)]) == (0, "", "")
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_invisible(self, capsys, tmp_path, monkeypatch):
        argv = ["walk", "sim", "--graph", CYCLE4, "--steps", "4", "--paths", "500",
                "--seed", "7"]
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("SPECTRAL_WALKS_THREADS", threads)
            path = tmp_path / f"t{threads}.csv"
            assert invoke(capsys, argv + ["--output", str(path)])[0] == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_config_hash(self, capsys):
        _, out1, _ = invoke(capsys, ["spectra", "gram", "--words", "1", "--seed", "1"])
        _, out2, _ = invoke(capsys, ["spectra", "gram", "--words", "1", "--seed", "2"])
        cfg = lambda s: [l for l in s.splitlines() if l.startswith("# config=")][0]
        assert cfg(out1) != cfg(out2)


class TestStatisticalCommands:
    def test_walk_sim_within_tolerance(self, capsys):
        rc, out, _ = invoke(
            capsys,
            ["walk", "sim", "--graph", CYCLE4, "--steps", "6", "--paths", "2000",
             "--seed", "42"],
        )
        assert rc == 0
        assert "# table=stationary" in out and "# table=covariance" in out

    def test_solenoid_half_matches_lebesgue(self, capsys):
        rc, out, _ = invoke(
            capsys,
            ["solenoid", "walk", "--w", "half", "--steps", "8", "--paths", "1000",
             "--seed", "5"],
        )
        assert rc == 0
        assert "cos1,cos2" in out

    def test_cantor_checks_pass(self, capsys):
        rc, out, _ = invoke(capsys, ["wavelet", "cantor", "--check"])
        assert rc == 0
        assert "not_lowpass,pass" in out

    def test_verify_quick_all_pass(self, capsys):
        rc, out, _ = invoke(capsys, ["verify", "all", "--quick"])
        assert rc == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) > 20
        assert all(r.split(",")[1] == "pass" for r in rows)


class TestCellFormatting:
    """The exact-type fast path of _emit writes the bytes of the general cell formatters."""

    class Label(str):
        pass

    class Count(int):
        pass

    ROW = [0, -7, 2**70, "", "-", "10", 'quote " and \\ and é', Label("s"), True, False, None, 0.1, -0.0,
           float("nan"), float("inf"), Fraction(-3, 7), np.int64(5), np.float64(2.5), Count(4)]

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_fast_path_matches_general_formatters(self, capsys, monkeypatch, out_format):
        tables = [("t", [f"c{k}" for k in range(len(self.ROW))], [self.ROW, self.ROW[::-1]])]
        cli._emit({"seed": 3, "config": "abc"}, tables, out_format, None)
        fast = capsys.readouterr().out
        monkeypatch.setattr(cli, "_CSV_CELLS", {})
        monkeypatch.setattr(cli, "_JSON_CELLS", {})
        cli._emit({"seed": 3, "config": "abc"}, tables, out_format, None)
        assert fast == capsys.readouterr().out
