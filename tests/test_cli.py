"""The command-line front end, run in-process through cli.run."""

import json
import math
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spectral_walks import cli, walks
from spectral_walks.cli import run
from spectral_walks import (
    decode_int,
    decode_nat,
    eigh,
    encode_int,
    encode_nat,
    gram_matrix,
    mean_se,
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
        # raised by the stand-in, never allocated: an overcommitting host would kill the process instead
        ("spectral_walks.circle.tightness_defect",
         MemoryError("Unable to allocate 1.46 TiB for an array with shape (200000000001,) and data type float64"),
         ["wavelet", "tightness", "--coeffs", "0.5,0.5", "--K", "100000000000"]),
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

    def test_cascade_depth_past_the_float_range(self, capsys):
        # 2^1100 is no float; the cascade scales t by ldexp instead
        rc, out, err = invoke(capsys, ["wavelet", "tightness", "--coeffs", "1/2,1/2", "--depth", "1100"])
        assert (rc, err) == (0, "")
        assert out.splitlines()[-1].startswith("0.29999999999999999,512,1100,")


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
        (["walk", "sim", "--graph", CYCLE4, "--paths", "1"], "at least 2 samples"),
        (["solenoid", "walk", "--w", "half", "--paths", "1"], "at least 2 samples"),
        (["walk", "sim", "--graph", CYCLE4, "--steps", "0"], "--steps 0"),
        (["solenoid", "walk", "--w", "half", "--steps", "0"], "--steps 0"),
    ])
    def test_exit_two_naming_the_value(self, capsys, argv, named):
        rc, out, err = invoke(capsys, argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and named in err

    # 10 paths are one block, so the variable is read even where no thread could start
    @pytest.mark.parametrize("argv", [["walk", "sim", "--graph", CYCLE4, "--steps", "2", "--paths", "10"],
                                      ["solenoid", "walk", "--w", "half", "--steps", "2", "--paths", "10"]])
    @pytest.mark.parametrize("threads", ["abc", "2.5"])
    def test_thread_count_that_is_not_an_integer(self, capsys, monkeypatch, argv, threads):
        monkeypatch.setenv("SPECTRAL_WALKS_THREADS", threads)
        rc, out, err = invoke(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == f"error: SPECTRAL_WALKS_THREADS must be an integer worker count, not {threads!r}\n"


class TestCovarianceTable:
    """One table builder for both walk commands: evaluations, live arrays, row order and the gate."""

    PAIRS = [("a", "a"), ("a", "b"), ("b", "b")]

    @staticmethod
    def table(values, pairs, lags, exact):
        # the table reads ens.evaluate(functions[name], step): here each name is its own function
        return cli._covariance_table(SimpleNamespace(evaluate=values), {n: n for n in "abn"}, pairs, lags, exact)

    def test_each_value_once_per_lag_and_one_lag_alive(self):
        rng = np.random.default_rng(3)
        table = {(name, step): rng.normal(size=50) for name in "ab" for step in range(6)}
        calls, live = [], []

        def values(name, step):
            live.append(sum(ref() is not None for ref in refs))
            calls.append((name, step))
            arr = table[name, step].copy()
            refs.append(weakref.ref(arr))
            return arr

        refs = []
        (name, columns, rows), failed = self.table(values, self.PAIRS, [0, 4], None)
        assert (name, columns) == ("covariance", ["f1", "f2", "lag", "estimate", "exact", "se", "sigmas"])
        assert calls == [("a", 0), ("a", 1), ("b", 1), ("b", 0), ("a", 4), ("a", 5), ("b", 5), ("b", 4)]
        # at most one earlier array is alive when the next is made, and none from an earlier lag
        assert max(live) == 1 and live[4] == 0
        assert [tuple(r[:3]) for r in rows] == [(f1, f2, n) for f1, f2 in self.PAIRS for n in (0, 4)]
        for f1, f2, n, est, exact, se, sigmas in rows:
            assert (est, se) == mean_se(table[f1, n] * table[f2, n + 1])
            assert exact is None and sigmas is None
        assert not failed

    def test_rows_are_gated_by_the_check_row(self):
        ones = np.ones(10)
        spread = np.arange(10.0)

        def values(name, step):
            return {"a": ones, "b": spread, "n": np.full(10, np.nan)}[name]

        (_, _, rows), failed = self.table(values, [("a", "a")], [0], {("a", "a"): [1.0]})
        assert not failed and rows[0][4:] == [1.0, 0.0, 0.0]
        (_, _, rows), failed = self.table(values, [("a", "b")], [0], {("a", "b"): [-1.0]})
        assert failed and rows[0][6] > 5.0
        # a NaN sigma fails the table, wherever it sits
        for pairs in ([("n", "a"), ("a", "a")], [("a", "a"), ("n", "a")]):
            (_, _, rows), failed = self.table(values, pairs, [0], dict.fromkeys(pairs, [1.0]))
            assert failed and any(math.isnan(r[6]) for r in rows)

    def test_exact_values_are_read_in_lag_order(self):
        # pair-major, lag-minor rows take exact[f1, f2][k] for the k-th lag
        values = lambda name, step: np.full(4, 2.0)
        exact = {("a", "a"): [4.0, 3.0, 5.0], ("a", "b"): [4.0, 4.0, 4.0]}
        (_, _, rows), failed = self.table(values, list(exact), [3, 0, 1], exact)
        assert [(r[0], r[1], r[2], r[4]) for r in rows] == [
            ("a", "a", 3, 4.0), ("a", "a", 0, 3.0), ("a", "a", 1, 5.0),
            ("a", "b", 3, 4.0), ("a", "b", 0, 4.0), ("a", "b", 1, 4.0)]
        assert failed and [r[6] for r in rows] == [0.0, math.inf, math.inf, 0.0, 0.0, 0.0]


class TestVerifyMonteCarloRows:
    # both rows estimate through walks.covariance_mc; a NaN on one kind of ensemble fails that row alone
    @pytest.mark.parametrize("ensemble, check", [
        ("PathEnsemble", "covariance_mc_vs_exact"),
        ("SolenoidEnsemble", "solenoid_covariance_half"),
    ])
    def test_a_nan_estimate_fails_its_row(self, capsys, monkeypatch, ensemble, check):
        inner = walks.covariance_mc

        def nan_on(ens, *args):
            return (math.nan, 0.01) if type(ens).__name__ == ensemble else inner(ens, *args)

        monkeypatch.setattr(walks, "covariance_mc", nan_on)
        rc, out, _ = invoke(capsys, ["verify", "all", "--seed", "2"])
        failing = [line.split(",")[0] for line in out.splitlines() if line.split(",")[1:2] == ["fail"]]
        assert (rc, failing) == (1, [check])


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

    def test_thread_count_invisible(self, capsys, tmp_path, split_blocks):
        argv = ["walk", "sim", "--graph", CYCLE4, "--steps", "4", "--paths", "500",
                "--seed", "7"]
        outs = []
        for threads in ("1", "4"):
            plans = split_blocks(threads, block=100)
            path = tmp_path / f"t{threads}.csv"
            assert invoke(capsys, argv + ["--output", str(path)])[0] == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert plans.all_split()

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
           float("nan"), float("inf"), float("-inf"), 1e-300, -2.5e300, 1 / 3, Fraction(-3, 7), np.int64(5),
           np.float64(2.5), np.float64("nan"), np.float64("-inf"), np.float64(-0.0), Count(4)]
    # one column each of exact ints, exact strs, exact floats, and a mix
    COLUMNS = [[0, 2**70, -7, 1], ["", "%s %%", 'q"\\é', "-"], [0.1, float("nan"), -0.0, 5e-324],
               [float("-inf"), 3, "3", True]]

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_fast_path_matches_general_formatters(self, capsys, monkeypatch, out_format):
        tables = [("t", [f"c{k}" for k in range(len(self.ROW))], [self.ROW, self.ROW[::-1]]),
                  ("u", ["i", "s", "f", "mixed"], [list(row) for row in zip(*self.COLUMNS)]),
                  ("empty", ["a"], [])]
        cli._emit({"seed": 3, "config": "abc"}, tables, out_format, None)
        fast = capsys.readouterr().out
        # the general formatters, cell by cell
        def cell_by_cell(rows, out_format):
            if out_format == "json":
                return ",\n".join("        [" + ", ".join(map(cli._json_scalar, r)) + "]" for r in rows)
            return "\n".join(",".join(map(cli._cell_csv, r)) for r in rows)

        monkeypatch.setattr(cli, "_rows_text", cell_by_cell)
        cli._emit({"seed": 3, "config": "abc"}, tables, out_format, None)
        assert fast == capsys.readouterr().out

    @settings(max_examples=300, deadline=None)
    @given(st.floats())
    @example(-math.nan)
    @example(-0.0)
    @example(5e-324)
    def test_float_column_format_is_the_cell_format(self, x):
        # the former per-cell rule, with its own nan and inf branches
        former = "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf") if math.isinf(x) else format(x, ".17g")
        assert cli._fmt_float(x) == former
        assert cli._rows_text([[x], [-x]], "csv") == former + "\n" + cli._fmt_float(-x)
        assert cli._rows_text([[x], [-x]], "json") == f"        [{cli._json_scalar(x)}],\n        [{cli._json_scalar(-x)}]"

    def test_ragged_rows_are_refused(self):
        for out_format in ("csv", "json"):
            with pytest.raises(ValueError):
                cli._rows_text([[1, 2], [3]], out_format)

    @pytest.mark.parametrize("out_format, want", [
        ("csv", "nan,inf,-inf,-0,0.10000000000000001,2.5,-inf"),
        ("json", '["nan", "inf", "-inf", -0, 0.10000000000000001, 2.5, "-inf"]'),
    ])
    def test_float_cells(self, capsys, out_format, want):
        # seventeen significant digits; JSON quotes nan and inf, which it has no number for
        row = [float("nan"), float("inf"), float("-inf"), -0.0, 0.1, np.float64(2.5), np.float64("-inf")]
        cli._emit({}, [("t", [f"c{k}" for k in range(len(row))], [row])], out_format, None)
        assert want in capsys.readouterr().out


class Num(str):
    """A JSON number kept as the text it was written as."""


def csv_tables(out):
    """{name: (columns, rows of cell texts)} from CSV output; only a last column may hold commas."""
    tables = {}
    for chunk in out.split("# table=")[1:]:
        name, header, *rows = chunk.splitlines()
        columns = header.split(",")
        tables[name] = (columns, [row.split(",", len(columns) - 1) for row in rows])
    return tables


def csv_cells(v):
    """The CSV texts a JSON cell may have: numbers as written, nan/inf and Fractions already strings.

    An empty string is also the origin's word label, which CSV prints as "-".
    """
    if v is None:
        return {""}
    if isinstance(v, bool):
        return {"true" if v else "false"}
    assert isinstance(v, str), v
    return {"", "-"} if v == "" else {str(v)}


class TestOneReportPath:
    """Every command's tables go through _emit once, from run; JSON carries CSV's tables cell for cell."""

    ARGVS = [
        ["tree", "dipole", "--x", "01", "--depth", "3"],
        ["tree", "encode", "--word", "101"],
        ["tree", "encode", "--word", "-"],
        ["spectra", "gram", "--words", "0,1,00,01,10,11", "--depth", "4"],
        ["spectra", "growth", "--max-depth", "3"],
        ["walk", "sim", "--graph", CYCLE4, "--steps", "1", "--paths", "3", "--seed", "5"],
        ["walk", "sim", "--graph", CYCLE4, "--steps", "5", "--paths", "400"],
        ["wavelet", "qmf", "--coeffs", "1/2,1/3"],
        ["wavelet", "qmf", "--coeffs", "0.5,0.5"],
        ["wavelet", "tightness", "--coeffs", "1/2,1/2", "--K", "8", "--depth", "6"],
        ["wavelet", "cantor", "--check"],
        ["solenoid", "walk", "--w", "haar", "--steps", "4", "--paths", "50"],
        ["solenoid", "walk", "--w", "half", "--steps", "4", "--paths", "50", "--start-level", "3"],
        ["verify", "all", "--quick"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a[:2]) + (" " + a[-1] if len(a) > 2 else ""))
    def test_json_carries_the_csv_tables(self, capsys, argv):
        rc_csv, out_csv, _ = invoke(capsys, argv)
        rc_json, out_json, _ = invoke(capsys, argv + ["--out", "json"])
        assert rc_csv == rc_json in (0, 1)

        def no_constant(token):
            raise AssertionError(f"JSON output holds the bare constant {token}")

        doc = json.loads(out_json, parse_constant=no_constant)
        # the config hash covers --out, so only version and seed agree
        meta = dict(l[2:].split("=", 1) for l in out_csv.splitlines()[:3])
        assert list(doc["meta"]) == list(meta)
        assert [str(doc["meta"][k]) for k in ("version", "seed")] == [meta["version"], meta["seed"]]
        texts = json.loads(out_json, parse_int=Num, parse_float=Num)["tables"]
        tables = csv_tables(out_csv)
        assert list(texts) == list(tables)
        for name, (columns, rows) in tables.items():
            assert texts[name]["columns"] == columns
            assert len(texts[name]["rows"]) == len(rows) > 0
            for row, want in zip(texts[name]["rows"], rows, strict=True):
                assert len(row) == len(want) and all(t in csv_cells(v) for v, t in zip(row, want)), (row, want)

    def test_special_cells_are_json_strings(self, capsys):
        _, out, _ = invoke(capsys, ["walk", "sim", "--graph", CYCLE4, "--steps", "1", "--paths", "3",
                                    "--seed", "5", "--out", "json"])
        assert json.loads(out)["tables"]["covariance"]["rows"][2][6] == "inf"
        _, out, _ = invoke(capsys, ["wavelet", "cantor", "--out", "json"])
        rows = json.loads(out)["tables"]["cantor_coefficients"]["rows"]
        assert all(isinstance(k, int) and "/" in c for k, c in rows)
        assert [Fraction(c) for _, c in rows] == [cli.ci.cantor_filter().coefficient(k) for k, _ in rows]

    @pytest.mark.parametrize("argv, rc, calls", [
        (["tree", "encode", "--word", "101"], 0, 1),
        (["wavelet", "qmf", "--coeffs", "1/2,1/3"], 1, 1),
        (["wavelet", "cantor", "--check", "--out", "json"], 0, 1),
        (["tree", "encode", "--word", "102"], 2, 0),
        (["tree", "encode"], 2, 0),
    ])
    def test_emit_runs_once_per_run(self, capsys, monkeypatch, argv, rc, calls):
        seen = []
        inner = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda *a: seen.append(a) or inner(*a))
        assert invoke(capsys, argv)[0] == rc
        assert len(seen) == calls

    def test_a_failed_verdict_exits_one(self, capsys, monkeypatch):
        # the parser binds each command when built, so a fresh one picks up the stand-in
        table = [("t", ["a"], [[1]])]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        for failed, want in ((True, 1), (False, 0)):
            monkeypatch.setattr(cli, "_cmd_tree_encode", lambda args, failed=failed: (table, failed))
            rc, out, _ = invoke(capsys, ["tree", "encode", "--word", "1"])
            assert rc == want and out.endswith("# table=t\na\n1\n")

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_output_into_a_missing_directory_exits_two(self, capsys, tmp_path, out_format):
        target = tmp_path / "missing" / "out.txt"
        rc, out, err = invoke(capsys, ["tree", "encode", "--word", "1", "--out", out_format,
                                       "--output", str(target)])
        assert (rc, out) == (2, "") and err.startswith("error: ")
        assert not target.parent.exists()
