import csv
import io
import json

import pytest

from bistab import cli
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

    def test_requires_lambda_or_grid(self, capsys):
        code, _ = run(capsys, ["bifurcation", "--c", "5"])
        assert code == 2


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

    def test_incommensurate_signal_exits_2(self, capsys, tmp_path):
        path = tmp_path / "incommensurate.json"
        path.write_text(json.dumps({"type": "trig", "terms": [[0.02, 1.0, 0.0], [0.02, 2.0**0.5, 0.0]]}))
        code = cli.main(["poincare", "--c", "5", "--lambda", "6.0", "--signal", str(path)])
        assert code == 2
        assert "constant or periodic" in capsys.readouterr().err


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


class TestInterface:
    def test_unknown_flag_exits_2(self, capsys):
        assert cli.main(["diagnostics", "--c", "5", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_version_exits_0(self, capsys):
        assert cli.main(["--version"]) == 0
        capsys.readouterr()

    def test_deterministic_output(self, capsys):
        _, out1 = run(capsys, ["diagnostics", "--c", "5.0"])
        _, out2 = run(capsys, ["diagnostics", "--c", "5.0"])
        assert out1 == out2

    def test_grid_parser(self):
        assert cli._parse_grid("1,2,3") == [1.0, 2.0, 3.0]
        assert cli._parse_grid("0:1:3") == [0.0, 0.5, 1.0]
        with pytest.raises(cli.ValidationError):
            cli._parse_grid("0:1:3:4")
