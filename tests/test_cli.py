import csv
import io
import json
import re
import warnings

import pytest

from bistab import cli, relaxation
from bistab.model import diagnostics


@pytest.fixture
def zero_signal(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"type": "constant", "a0": 0.0}))
    return str(path)


@pytest.fixture
def two_harmonic_signal(tmp_path):
    # (8/25)(2 + cos t - cos 2t), range [0, 1]
    path = tmp_path / "trig.json"
    path.write_text(
        json.dumps(
            {
                "type": "trig",
                "a0": 16.0 / 25.0,
                "terms": [[8.0 / 25.0, 1.0, 0.0], [-8.0 / 25.0, 2.0, 0.0]],
            }
        )
    )
    return str(path)


# signal documents whose values have the wrong JSON type (each used to be coerced or to raise TypeError)
WRONG_TYPE_DOCS = [
    {"type": "trig", "terms": [[0.1, 1.0, 0.0], [0.1, 2.0, 0.0]], "rationally_independent": "false"},
    {"type": "fourier_cesaro", "a": [0.1], "b": [], "n_terms": 6.7},
    {"type": "constant", "a0": "0.5"},
    {"type": [1]},
]


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, (json.loads(out) if out else None)


class TestDiagnostics:
    def test_json(self, capsys):
        code, doc = run_json(capsys, ["diagnostics", "--c", "5.0"])
        assert code == 0
        assert doc["version"] and doc["config"]["command"] == "diagnostics"
        row = doc["result"][0]
        assert row["lam1"] == pytest.approx(5.948274, abs=1e-5)
        assert row["lam4"] - row["lam3"] == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_at_four(self, capsys):
        code, doc = run_json(capsys, ["diagnostics", "--c", "4.0"])
        assert code == 0
        row = doc["result"][0]
        assert abs(row["h1"]) < 1e-10 and abs(row["h2"]) < 1e-10 and abs(row["h3"]) < 1e-10

    def test_subcritical_fields_empty(self, capsys):
        code, doc = run_json(capsys, ["diagnostics", "--c", "3.0"])
        assert code == 0
        row = doc["result"][0]
        assert row["x1"] is None and row["lam1"] is None

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_nonpositive_c_exits_2(self, capsys, c):
        # NaN and Infinity would print as JSON no parser accepts
        assert cli.main(["diagnostics", f"--c={c}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "requires a finite c > 0" in captured.err

    def test_csv(self, capsys):
        code, out = run(capsys, ["diagnostics", "--c", "5.0", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["lam2"]) == pytest.approx(6.133355, abs=1e-5)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "diag.json"
        code, out = run(capsys, ["diagnostics", "--c", "5.0", "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["result"][0]["c"] == 5.0

    def test_unwritable_out_file_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "diag.json"
        assert cli.main(["diagnostics", "--c", "5", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not target.exists()
        assert captured.err.startswith(f"error: cannot write output file {str(target)!r}: ")
        assert len(captured.err.splitlines()) == 1


class TestClassify:
    def test_bistable(self, capsys, zero_signal):
        code, doc = run_json(
            capsys, ["classify", "--c", "5", "--lambda", "6.0", "--signal", zero_signal]
        )
        assert code == 0
        row = doc["result"][0]
        assert row["regime"] == "bistability" and row["fired_rule"] == "thm-3.2"

    def test_json_fields_are_not_strings(self, capsys, zero_signal):
        # JSON carries the list and the object; a CSV cell carries them as JSON text
        argv = ["classify", "--c", "5", "--lambda", "6.0", "--signal", zero_signal]
        code, doc = run_json(capsys, argv)
        assert code == 0
        row = doc["result"][0]
        assert isinstance(row["intervals"], list) and row["intervals"][0]["basis"] == "thm-3.2"
        assert isinstance(row["slacks"], dict)
        code, out = run(capsys, [*argv, "--format", "csv"])
        assert code == 0
        (cells,) = list(csv.DictReader(io.StringIO(out)))
        assert cells["intervals"] == json.dumps(row["intervals"], sort_keys=True)
        assert cells["slacks"] == json.dumps(row["slacks"], sort_keys=True)

    def test_uniform(self, capsys, zero_signal):
        code, doc = run_json(
            capsys, ["classify", "--c", "3", "--lambda", "1.0", "--signal", zero_signal]
        )
        assert code == 0
        assert doc["result"][0]["regime"] == "uniform-stability"

    def test_invalid_lambda_exits_2(self, capsys, zero_signal):
        code, _ = run(capsys, ["classify", "--c", "5", "--lambda", "-1.0", "--signal", zero_signal])
        assert code == 2

    @pytest.mark.parametrize("doc", WRONG_TYPE_DOCS)
    def test_wrong_value_type_exits_2(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["classify", "--c", "5", "--lambda", "6.0", "--signal", str(path)]) == 2
        assert "cannot load signal file" in capsys.readouterr().err

    def test_degenerate_fold_at_c4(self, capsys, tmp_path):
        path = tmp_path / "cos.json"
        path.write_text(json.dumps({"type": "trig", "terms": [[0.01, 1.0, 0.0]]}))
        code, doc = run_json(capsys, ["classify", "--c", "4", "--lambda", "5.2", "--signal", str(path)])
        assert code == 0
        assert doc["result"][0]["regime"] == "indeterminate"

    def test_missing_signal_file_exits_2(self, capsys, tmp_path):
        code, _ = run(
            capsys,
            ["classify", "--c", "5", "--lambda", "6", "--signal", str(tmp_path / "nope.json")],
        )
        assert code == 2


class TestBifurcation:
    def test_three_branches(self, capsys):
        code, out = run(capsys, ["bifurcation", "--c", "5", "--lambda", "6.0"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["x"]) for r in rows] == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)
        assert [r["stability"] for r in rows] == ["attractive", "repulsive", "attractive"]

    def test_saddle_node_tagged(self, capsys):
        lam1 = diagnostics(5.0).lam1
        code, out = run(capsys, ["bifurcation", "--c", "5", "--lambda", repr(lam1)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert any(r["stability"] == "non-hyperbolic" for r in rows)

    def test_origin_only(self, capsys):
        code, out = run(capsys, ["bifurcation", "--c", "5", "--lambda", "0.0"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1 and float(rows[0]["x"]) == pytest.approx(0.0, abs=1e-9)

    def test_grid(self, capsys):
        code, out = run(capsys, ["bifurcation", "--c", "5", "--grid", "5.0:7.0:3"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["lambda"] for r in rows} == {"5.0", "6.0", "7.0"}

    def test_negative_grid_start_takes_the_equals_form(self, capsys):
        # argparse reads "-2:20:441" after a space as an option; "--grid=" passes
        # it.  The 40 negative lambda have no nonnegative equilibrium, so no row
        code, doc = run_json(capsys, ["bifurcation", "--c", "5", "--grid=-2:20:441", "--format", "json"])
        assert code == 0
        lams = [row["lambda"] for row in doc["result"]]
        assert len(lams) == 409 and len(set(lams)) == 401 and min(lams) == 0.0

    def test_requires_lambda_or_grid(self, capsys):
        code, _ = run(capsys, ["bifurcation", "--c", "5"])
        assert code == 2

    @pytest.mark.parametrize("c", ["0", "-1"])
    def test_non_positive_c_exits_2(self, capsys, c):
        assert cli.main(["bifurcation", "--c", c, "--lambda", "6.0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "bifurcation requires c > 0, got c = " in err

    @pytest.mark.parametrize("flag", ["--c", "--lambda"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_c_or_lambda_exits_2(self, capsys, flag, value):
        argv = {"--c": "5", "--lambda": "6.0", flag: value}
        assert cli.main(["bifurcation", *(f"{k}={v}" for k, v in argv.items())]) == 2
        err = capsys.readouterr().err
        assert f"bifurcation requires a finite {flag}" in err
        assert "infs or NaNs" not in err

    @pytest.mark.parametrize(
        "grid,named", [("5,,6", "has an empty entry"), ("nan,6", "'nan'"), ("5:inf:3", "'inf'"), ("5:6:2.5", "'2.5'")]
    )
    def test_bad_grid_exits_2_naming_the_entry(self, capsys, grid, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from numpy on the way
            assert cli.main(["bifurcation", "--c", "5", "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid") and named in err


class TestPoincare:
    def test_constant_signal(self, capsys, zero_signal):
        code, doc = run_json(
            capsys, ["poincare", "--c", "5", "--lambda", "6.0", "--signal", zero_signal]
        )
        assert code == 0
        rows = doc["result"]
        assert [r["kind"] for r in rows] == ["attractive", "repulsive", "attractive"]
        assert [r["fixed_point"] for r in rows] == pytest.approx([1.0, 2.0, 3.0], abs=1e-7)

    def test_empty_census(self, capsys, zero_signal):
        # lam + sup y <= -1 at c <= 4: no bounded solution on x >= 0
        code, doc = run_json(capsys, ["poincare", "--c", "3", "--lambda", "-2", "--signal", zero_signal])
        assert code == 0
        assert doc["result"] == []

    @pytest.mark.parametrize("c", ["0", "-1"])
    def test_non_positive_c_exits_2(self, capsys, zero_signal, c):
        assert cli.main(["poincare", "--c", c, "--lambda", "6.0", "--signal", zero_signal]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "requires c > 0, got c = " in err

    def test_incommensurate_signal_exits_2(self, capsys, tmp_path):
        path = tmp_path / "incommensurate.json"
        path.write_text(json.dumps({"type": "trig", "terms": [[0.02, 1.0, 0.0], [0.02, 2.0**0.5, 0.0]]}))
        code = cli.main(["poincare", "--c", "5", "--lambda", "6.0", "--signal", str(path)])
        assert code == 2
        assert "constant or periodic" in capsys.readouterr().err

    def test_census_past_the_escape_bound_exits_2(self, capsys, tmp_path):
        # a finite but huge bound puts the scan interval's ceiling near 1.7e308:
        # it is rejected before any solve, so no seed overflows gbar
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"type": "trig", "a0": 8e307, "terms": [[4e307, 1, 0], [5e307, 2, 0]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["poincare", "--c", "5", "--lambda", "6", "--signal", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "reaches past the escape bound |x| = 1e+06" in captured.err


class TestLaplace:
    def test_weighted_extremes(self, capsys, two_harmonic_signal):
        code, doc = run_json(
            capsys, ["laplace", "--signal", two_harmonic_signal, "--dfrak", "1.0"]
        )
        assert code == 0
        row = doc["result"][0]
        assert row["sup_w_minus_inf"] == pytest.approx(0.873, abs=0.005)
        assert row["sup_minus_inf_w"] == pytest.approx(0.725, abs=0.005)

    @pytest.mark.parametrize("doc", [[1, 2], {"type": "constant", "a0": 0.0, "period": 1.0}, *WRONG_TYPE_DOCS])
    def test_bad_document_exits_2(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["laplace", "--signal", str(path), "--dfrak", "1.0"]) == 2
        assert "cannot load signal file" in capsys.readouterr().err

    @pytest.mark.parametrize("dfrak", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("kind", ["trig", "sampled"])
    def test_bad_dfrak_exits_2_and_names_dfrak(self, capsys, tmp_path, kind, dfrak):
        doc = {"type": "trig", "terms": [[0.1, 1.0, 0.0]]}
        if kind == "sampled":
            doc = {"type": "sampled", "period": 1.0, "samples": [[0.0, 0.0], [0.25, 1.0], [0.5, 0.0], [0.75, -1.0]]}
        path = tmp_path / "y.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["laplace", "--signal", str(path), "--dfrak", dfrak]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"weighted_bounds requires a finite dfrak > 0, got {float(dfrak)}" in captured.err


class TestRelaxation:
    def test_csv_row(self, capsys):
        code, out = run(
            capsys,
            ["relaxation", "--c", "5", "--eps", "0.05", "--r", "0.6", "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["regime"] == "relaxation"
        assert float(rows[0]["area"]) > 0.0

    @pytest.mark.parametrize("eps, r", [("0.05,0.02", "0.6"), ("0.05", "0.6,1.6")])
    def test_grid_rejected(self, capsys, eps, r):
        # one cell only: a comma list is an error, not its first value
        assert cli.main(["relaxation", "--c", "5", "--eps", eps, "--r", r]) == 2
        capsys.readouterr()


class TestThreshold:
    def test_runs(self, capsys):
        code, doc = run_json(capsys, ["threshold", "--c", "5", "--eps", "0.05", "--tol", "0.05"])
        assert code == 0
        row = doc["result"][0]
        assert row["regime_below"] == "relaxation" and row["regime_above"] == "bistable"
        assert 0.5 < row["r_threshold"] < 2.0

    def test_reports_censuses(self, capsys):
        code, doc = run_json(capsys, ["threshold", "--c", "5", "--eps", "0.05", "--tol", "1e-3"])
        assert code == 0
        # censuses counts the r values censused, solves the family solves that censused them
        res = relaxation.r_threshold(5.0, 0.05, tol=1e-3)
        row = doc["result"][0]
        assert (row["censuses"], row["solves"]) == (res.censuses, res.solves) == (8, 2)
        code, out = run(capsys, ["threshold", "--c", "5", "--eps", "0.05", "--tol", "1e-3", "--format", "csv"])
        assert code == 0
        (cells,) = list(csv.DictReader(io.StringIO(out)))
        assert (cells["censuses"], cells["solves"]) == ("8", "2")

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-3", "inf"])
    def test_bad_tol_exits_2(self, capsys, tol):
        assert cli.main(["threshold", "--c", "5", "--eps", "0.05", f"--tol={tol}"]) == 2
        assert "finite tol > 0" in capsys.readouterr().err


class TestSweep:
    def test_grid_csv(self, capsys):
        code, out = run(
            capsys,
            ["sweep", "--c", "5", "--eps", "0.05", "--r", "0.6,1.6", "--jobs", "1"],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["regime"] for r in rows] == ["relaxation", "bistable"]

    def test_worker_processes_give_the_same_rows(self, capsys):
        # --jobs 2 runs the grid cells in a pool of two worker processes
        argv = ["sweep", "--c", "5", "--eps", "0.05", "--r", "0.6,1.6", "--format", "json"]
        rows = {}
        for jobs in ("1", "2"):
            code, doc = run_json(capsys, [*argv, "--jobs", jobs])
            assert code == 0
            rows[jobs] = doc["result"]
        assert rows["2"] == rows["1"]

    def test_pool_gets_no_more_workers_than_cells(self, capsys, monkeypatch):
        # a pool may start all its workers up front: --jobs 500 on a 2 x 2
        # grid asks for 4.  The stand-in pool records its size and maps the
        # cells in this process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli, "_sweep_cell", lambda task: dict(zip(("c", "eps", "r"), task)))
        argv = ["sweep", "--c", "5", "--eps", "0.05,0.04", "--r", "0.6,1.6", "--jobs", "500", "--format", "json"]
        code, doc = run_json(capsys, argv)
        assert code == 0 and sizes == [4]
        assert [(row["eps"], row["r"]) for row in doc["result"]] == [(0.05, 0.6), (0.05, 1.6), (0.04, 0.6), (0.04, 1.6)]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_fewer_than_one_job_exits_2(self, capsys, jobs):
        assert cli.main(["sweep", "--c", "5", "--eps", "0.05", "--r", "0.6", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"sweep requires --jobs >= 1, got {jobs}" in captured.err


class TestInterface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--c", "5", "--lambda", "6"],
            ["laplace", "--dfrak", "1"],
            ["poincare", "--c", "5", "--lambda", "6"],
        ],
        ids=["classify", "laplace", "poincare"],
    )
    def test_signal_whose_bound_overflows_exits_2(self, capsys, tmp_path, argv):
        # finite amplitudes whose sum is not: no certificate, extreme or census is made of it
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"type": "trig", "a0": 0, "terms": [[1e308, 1, 0], [1e308, 2, 0]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--signal", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "the bound |a0| + sum |a_n| of y overflows a float" in captured.err

    def test_unknown_flag_exits_2(self, capsys):
        assert cli.main(["diagnostics", "--c", "5", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_version_exits_0(self, capsys):
        assert cli.main(["--version"]) == 0
        capsys.readouterr()

    def test_parser_is_built_once(self, capsys):
        # one parser serves every main call of a process: commands in a row,
        # --version and a bad argument print what a fresh parser prints
        calls = [
            ["diagnostics", "--c", "5"],
            ["bifurcation", "--c", "5", "--lambda", "6.0"],  # its own default format, csv
            ["diagnostics", "--c", "5"],
            ["--version"],
            ["diagnostics", "--c", "5", "--frobnicate"],
        ]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append((cli.main(argv), capsys.readouterr()))
        reused = [(cli.main(argv), capsys.readouterr()) for argv in calls]
        assert reused == fresh
        assert [code for code, _ in reused] == [0, 0, 0, 0, 2]
        assert cli._parser.cache_info().misses == 1

    def test_deterministic_output(self, capsys):
        _, out1 = run(capsys, ["diagnostics", "--c", "5.0"])
        _, out2 = run(capsys, ["diagnostics", "--c", "5.0"])
        assert out1 == out2

    def test_grid_parser(self):
        assert cli._parse_grid("1,2,3") == [1.0, 2.0, 3.0]
        assert cli._parse_grid("0:1:3") == [0.0, 0.5, 1.0]
        with pytest.raises(cli.ValidationError):
            cli._parse_grid("0:1:3:4")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("5,,6", "grid '5,,6' has an empty entry"),
            ("5,6,", "grid '5,6,' has an empty entry"),
            ("nan,6", "grid entry 'nan' in 'nan,6' is not a finite number"),
            ("5,-inf", "grid entry '-inf' in '5,-inf' is not a finite number"),
            ("5,x", "grid entry 'x' in '5,x' is not a finite number"),
            ("5:inf:3", "grid entry 'inf' in '5:inf:3' is not a finite number"),
            ("nan:6:3", "grid entry 'nan' in 'nan:6:3' is not a finite number"),
            (":6:3", "grid ':6:3' has an empty entry"),
            ("-1e308:1e308:3", "grid '-1e308:1e308:3' spans more than the largest float"),
            ("5:6:2.5", "grid point count '2.5' in '5:6:2.5' is not an integer"),
            ("5:6:", "grid point count '' in '5:6:' is not an integer"),
        ],
    )
    def test_grid_parser_names_the_bad_entry(self, text, message):
        with pytest.raises(cli.ValidationError, match=f"^{re.escape(message)}$"):
            cli._parse_grid(text)

    def test_bad_grid_option_names_the_entry(self, capsys):
        # --eps and --r are parsed by argparse, which shows the parser's message
        assert cli.main(["threshold", "--c", "5", "--eps", "0.05,,0.02"]) == 2
        assert "argument --eps: grid '0.05,,0.02' has an empty entry" in capsys.readouterr().err
        assert cli.main(["sweep", "--c", "5", "--eps", "0.05", "--r", "1:2:x"]) == 2
        assert "argument --r: grid point count 'x' in '1:2:x' is not an integer" in capsys.readouterr().err
