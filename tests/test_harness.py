"""Experiment harness, report emission, and the command line."""

import json
import os
from fractions import Fraction
from math import pi

import pytest

from toricount import cli, verify
from toricount.errors import DegenerateInputError
from toricount.verify import (Experiment, emit_report, fit_leading,
                              rows_to_csv, rows_to_gnuplot, rows_to_json,
                              run_experiment)

from conftest import get_lattice

TAU_P1 = 2.4317
TAU_P2 = 9.9829
TAU_PP = 5.9129


# -- experiment validation ----------------------------------------------------


def test_experiment_validates_theorem_tag():
    with pytest.raises(DegenerateInputError):
        Experiment(get_lattice("P1"), "circle", [10])


def test_experiment_validates_grid():
    lat = get_lattice("P1")
    with pytest.raises(DegenerateInputError):
        Experiment(lat, "anticanonical", [])
    with pytest.raises(DegenerateInputError):
        Experiment(lat, "anticanonical", [100, 100])
    with pytest.raises(DegenerateInputError):
        Experiment(lat, "anticanonical", [100, 10])
    with pytest.raises(DegenerateInputError):
        Experiment(lat, "anticanonical", [0, 10])
    exp = Experiment(lat, "anticanonical", ["1/2", 10])
    assert exp.grid == [Fraction(1, 2), Fraction(10)]


def test_ensure_tau_uses_preset():
    exp = Experiment(get_lattice("P1"), "anticanonical", [10], tau=1.25)
    assert exp.ensure_tau() == 1.25
    assert exp.tau == 1.25


# -- leading-coefficient fit ---------------------------------------------------


def test_fit_leading_recovers_synthetic():
    from math import log
    grid = [10, 100, 1000, 10000]
    counts = [3.0 * b * log(b) + 2.0 * b for b in grid]
    c, c2 = fit_leading(grid, counts, 2)
    assert c == pytest.approx(3.0, rel=1e-9)
    assert c2 == pytest.approx(2.0, rel=1e-6)


def test_fit_leading_rank_one_fallback():
    grid = [10, 100, 1000]
    counts = [5.0 * b for b in grid]
    c, c2 = fit_leading(grid, counts, 1)
    assert c == pytest.approx(5.0)
    assert c2 == 0.0
    c_single, _ = fit_leading([100], [700.0], 2)
    from math import log
    assert c_single == pytest.approx(700.0 / (100 * log(100)))


# -- runners -------------------------------------------------------------------


def test_run_multiheight_p1():
    exp = Experiment(get_lattice("P1"), "multiheight", [100, 1000, 10000],
                     tau=TAU_P1)
    rows, summary = run_experiment(exp)
    assert [r["count"] for r in rows] == [400, 3680, 36912]
    assert summary["nu"] == "3/2"
    assert summary["exponent"] == "1"
    assert summary["u"] == ["1/2"]
    assert rows[-1]["ratio"] == pytest.approx(1.012, abs=2e-3)
    for r in rows:
        assert r["prediction"] == pytest.approx(
            1.5 * TAU_P1 * float(r["B"]), rel=1e-9)


def test_run_box_p1xp1():
    exp = Experiment(get_lattice("P1xP1"), "box", [5], tau=TAU_PP)
    rows, summary = run_experiment(exp)
    assert rows[0]["count"] == 10816
    assert rows[0]["ratio"] == pytest.approx(1.3008, abs=2e-3)
    assert summary["exponents"] == ["2", "2"]


def test_run_cone_box_p1xp1():
    exp = Experiment(get_lattice("P1xP1"), "cone_box", [20], seed=7,
                     tau=TAU_PP)
    rows, summary = run_experiment(exp)
    assert rows[0]["count"] == 260100
    assert summary["all_checks_ok"]
    assert summary["checks"][0]["redraws"] == 0
    assert summary["checks"][0]["empty_boxes_ok"]
    assert summary["checks"][0]["tail_ok"]


def test_run_per_cone_p1xp1():
    exp = Experiment(get_lattice("P1xP1"), "per_cone", [100, 1000],
                     tau=TAU_PP)
    rows, summary = run_experiment(exp)
    assert rows[-1]["count"] == 10372
    assert summary["nu_neg"] == "1/4"
    assert summary["target_c"] == pytest.approx(0.25 * TAU_PP)
    assert summary["rel_err"] >= 0
    assert "fitted_c" in summary and "fitted_c2" in summary


def test_run_per_cone_explicit_generators():
    exp = Experiment(get_lattice("P1xP1"), "per_cone", [100, 400],
                     tau=TAU_PP, params={"cone": [[1, 0], [1, 1]]})
    rows, summary = run_experiment(exp)
    assert summary["nu_neg"] == "1/8"
    full = Experiment(get_lattice("P1xP1"), "per_cone", [100, 400],
                      tau=TAU_PP)
    full_rows, _ = run_experiment(full)
    assert 0 < rows[-1]["count"] < full_rows[-1]["count"]


def test_run_anticanonical_p2():
    exp = Experiment(get_lattice("P2"), "anticanonical", [100, 300],
                     tau=TAU_P2)
    rows, summary = run_experiment(exp)
    assert [r["count"] for r in rows] == [220, 724]
    assert all(r["ie_equal"] for r in rows)
    assert all(r["ie_count"] == r["count"] for r in rows)
    assert summary["ie_equal_all"]
    assert summary["alpha"] == "1/3"
    assert summary["target_c"] == pytest.approx(TAU_P2 / 3)


def test_run_hyperbola_p1():
    exp = Experiment(get_lattice("P1"), "hyperbola", [100, 1000], tau=TAU_P1)
    rows, summary = run_experiment(exp)
    assert summary["caps"] == [31]
    assert summary["table_sizes"] == [62, 62]
    assert summary["sandwich_ok_all"]
    assert summary["alphas"] == ["2"]
    assert [r["count"] for r in rows] == [126, 1230]
    for r in rows:
        assert r["sum_ceil"] == r["count"] == r["sum_floor"]


def test_run_hyperbola_p1xp1():
    exp = Experiment(get_lattice("P1xP1"), "hyperbola", [100, 400],
                     tau=TAU_PP)
    rows, summary = run_experiment(exp)
    assert [r["count"] for r in rows] == [836, 3908]
    assert summary["sandwich_ok_all"]
    for r in rows:
        assert r["sum_ceil"] == r["count"] == r["sum_floor"]


def test_run_intersections_p1xp1():
    exp = Experiment(get_lattice("P1xP1"), "intersections",
                     [100, 1000, 10000],
                     params={"cones": ([(1, 0), (1, 1)], [(1, 1), (0, 1)])})
    rows, summary = run_experiment(exp)
    vals = summary["normalized"]
    assert vals == pytest.approx(
        [0.18240368239936575, 0.05848499022963791, 0.02314789588544332])
    assert summary["all_decreasing"]
    assert summary["tail_decreasing"]
    assert all(r["prediction"] == 0.0 for r in rows)


def test_run_intersections_requires_cone_pair():
    exp = Experiment(get_lattice("P1xP1"), "intersections", [100])
    with pytest.raises(DegenerateInputError):
        run_experiment(exp)


# -- report emission -----------------------------------------------------------


ROWS = [
    {"B": Fraction(10), "count": 7, "prediction": 6.5,
     "ratio": 7 / 6.5, "flag": True},
    {"B": Fraction(1, 2), "count": 0, "prediction": 0.25,
     "ratio": 0.0, "flag": False},
]


def test_rows_to_csv_header_and_values():
    text = rows_to_csv(ROWS)
    lines = text.splitlines()
    assert lines[0] == "B,count,prediction,ratio"
    assert lines[1].startswith("10,7,6.5,")
    assert lines[2].startswith("1/2,0,0.25,")
    assert text.endswith("\n")


def test_rows_to_json_roundtrip():
    text = rows_to_json(ROWS, {"nu": Fraction(3, 2), "ok": True})
    payload = json.loads(text)
    assert payload["summary"]["nu"] == "3/2"
    assert payload["summary"]["ok"] is True
    assert payload["rows"][0]["B"] == "10"
    assert payload["rows"][0]["flag"] is True
    assert payload["rows"][0]["count"] == 7


def test_rows_to_gnuplot_uses_basename():
    data, script = rows_to_gnuplot(ROWS, "report.dat")
    assert data.splitlines()[0].startswith("#")
    assert "'report.dat' using 1:2" in script
    assert "/" not in script.split("plot", 1)[1].split("'")[1]


def test_emit_report_formats(tmp_path):
    base = str(tmp_path / "rep")
    assert emit_report(ROWS, "csv", base) == [base + ".csv"]
    assert emit_report(ROWS, "json", base, summary={"x": 1}) == \
        [base + ".json"]
    assert emit_report(ROWS, "gnuplot", base) == [base + ".dat", base + ".gp"]
    with pytest.raises(DegenerateInputError):
        emit_report(ROWS, "svg", base)
    for suffix in (".csv", ".json", ".dat", ".gp"):
        assert os.path.getsize(base + suffix) > 0


def test_emit_report_byte_deterministic(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    emit_report(ROWS, "json", a, summary={"nu": Fraction(1, 4)})
    emit_report(ROWS, "json", b, summary={"nu": Fraction(1, 4)})
    with open(a + ".json", "rb") as fa, open(b + ".json", "rb") as fb:
        assert fa.read() == fb.read()


# -- command line ---------------------------------------------------------------


def test_cli_analyze_p1xp1(tmp_path, capsys):
    rc = cli.main(["analyze", "P1xP1", "--out", str(tmp_path)])
    assert rc == 0
    path = capsys.readouterr().out.strip()
    assert path == str(tmp_path / "analyze.json")
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["picard_rank"] == 2
    assert payload["basis_nef"] == [True, True]
    assert payload["anticanonical"] == [2, 2]
    assert payload["constants"]["alpha"] == "1/4"
    assert payload["constants"]["c_P_exact"] == "1"
    assert payload["constants"]["nu_per_cone"] == ["1/4"]
    assert payload["triangulation"]["pieces"] == 1


def test_cli_constants_p1(tmp_path, capsys):
    rc = cli.main(["constants", "P1", "--pmax", "300",
                   "--out", str(tmp_path)])
    assert rc == 0
    path = capsys.readouterr().out.strip()
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["alpha"] == "1/2"
    assert payload["rho"] == 1
    assert payload["note"] == "operational Tamagawa number"
    assert payload["alpha_tau"] == pytest.approx(
        0.5 * payload["tau"]["value"])
    assert payload["tau"]["value"] == pytest.approx(2.4317, abs=0.08)
    # omega_inf is exact, so the proven Euler tail bounds tau's error
    assert payload["omega_inf"] == {"value": 8.0, "stderr": 0.0}
    assert abs(payload["tau"]["value"] - 24 / pi ** 2) <= \
        payload["tau"]["error"]
    with pytest.raises(SystemExit):
        cli.main(["constants", "P1", "--samples", "100000"])


def test_cli_count_region_file(tmp_path, capsys):
    region = tmp_path / "region.json"
    region.write_text(json.dumps(
        {"constraints": [{"class": [2], "s": 1}]}))
    rc = cli.main(["count", "P1", "--region", str(region), "--B", "100"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 126
    assert payload["prediction"] is None
    assert payload["ratio"] is None
    assert payload["visited"] >= 63   # magnitude tuples, weight 2 each


def test_cli_count_workers_agree(tmp_path, capsys):
    region = tmp_path / "region.json"
    region.write_text(json.dumps(
        {"constraints": [{"class": [2], "s": 1}]}))
    rc = cli.main(["count", "P1", "--region", str(region), "--B", "10000",
                   "--workers", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 12174


def test_cli_verify_csv_stdout(capsys):
    rc = cli.main(["verify", "P1", "--theorem", "anticanonical",
                   "--grid", "10,100", "--tau", "2.4317", "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "B,count,prediction,ratio"
    assert lines[1].split(",")[1] == "14"
    assert lines[2].split(",")[1] == "126"


def test_cli_verify_deterministic_reports(tmp_path, capsys):
    args = ["verify", "P1xP1", "--theorem", "intersections",
            "--grid", "10,100", "--tau", "1.0", "--format", "json"]
    rc1 = cli.main(args + ["--out", str(tmp_path / "one")])
    rc2 = cli.main(args + ["--out", str(tmp_path / "two")])
    assert rc1 == rc2 == 0
    capsys.readouterr()
    p1 = tmp_path / "one" / "verify_intersections.json"
    p2 = tmp_path / "two" / "verify_intersections.json"
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["summary"]["theorem"] == "intersections"


def test_cli_hyperbola_subcommand(tmp_path, capsys):
    rc = cli.main(["hyperbola", "P1", "--cone", "0", "--grid", "100,1000",
                   "--tau", "2.4317", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    with open(tmp_path / "hyperbola_0.json") as fh:
        payload = json.load(fh)
    assert payload["summary"]["sandwich_ok_all"] is True
    assert [r["count"] for r in payload["rows"]] == [126, 1230]
    # hyperbola draws no cone-box walls, so it takes no seed
    with pytest.raises(SystemExit):
        cli.main(["hyperbola", "P1", "--grid", "100", "--seed", "3"])


def test_cli_exit_code_bad_fan(capsys):
    rc = cli.main(["analyze", "P9"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_exit_code_missing_region(capsys):
    rc = cli.main(["count", "P1", "--region", "/nonexistent/r.json",
                   "--B", "10"])
    assert rc == 2


def test_cli_exit_code_bad_region_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = cli.main(["count", "P1", "--region", str(bad), "--B", "10"])
    assert rc == 2
    assert "region file" in capsys.readouterr().err


def test_cli_exit_code_bad_grid(capsys):
    rc = cli.main(["verify", "P1", "--theorem", "anticanonical",
                   "--grid", "100,10", "--tau", "1.0"])
    assert rc == 2


def test_cli_exit_code_budget(tmp_path, capsys):
    region = tmp_path / "region.json"
    region.write_text(json.dumps(
        {"constraints": [{"class": [2], "s": 1}]}))
    rc = cli.main(["count", "P1", "--region", str(region), "--B", "1000000",
                   "--budget", "50"])
    assert rc == 3


def test_cli_exit_code_bad_cone_index(capsys):
    rc = cli.main(["hyperbola", "P1", "--cone", "7", "--grid", "10,100",
                   "--tau", "1.0"])
    assert rc == 2
    for cone in ("5", "-1"):
        rc = cli.main(["verify", "P2", "--theorem", "per_cone", "--grid",
                       "10", "--cone", cone, "--tau", "1"])
        assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_cli_cone_box_below_one(capsys):
    rc = cli.main(["verify", "P1xP1", "--theorem", "cone_box", "--grid",
                   "1/2", "--tau", "1.0", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["count"] for r in payload["rows"]] == [0]
    checks = payload["summary"]["checks"]
    assert len(checks) == 1
    assert all(v is True for k, v in checks[0].items()
               if k not in ("B", "redraws"))
    assert payload["summary"]["all_checks_ok"] is True


def test_cli_argparse_rejects_unknown_theorem():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "P1", "--theorem", "nonsense", "--grid", "10"])
    assert exc.value.code == 2
