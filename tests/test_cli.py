import json

import numpy as np
import pytest
from click.testing import CliRunner

from laxo.cli import main


RIEMANN_DOWN = {"flux": {"kind": "burgers"},
                "data": {"pieces": [], "left_tail": 1.0, "right_tail": 0.0,
                         "window": [0.0, 0.0]}}
RIEMANN_UP = {"flux": {"kind": "burgers"},
              "data": {"pieces": [], "left_tail": -1.0, "right_tail": 1.0,
                       "window": [0.0, 0.0]}}
SIN = {"flux": {"kind": "burgers"},
       "data": {"pieces": [{"lo": -np.pi, "hi": np.pi, "kind": "sin",
                            "a": -1.0, "b": 1.0, "c": 0.0}],
                "period": 2 * np.pi}}


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, desc in (("down", RIEMANN_DOWN), ("up", RIEMANN_UP),
                       ("sin", SIN)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(desc))
        paths[name] = str(p)
    return paths


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_solve_riemann_rows(files):
    r = run("solve", files["down"], "--t", "1", "--x-range", "-1:2", "--n", "7")
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines[0] == "x,u_minus,u_plus"
    assert len(lines) == 8
    us = [float(l.split(",")[2]) for l in lines[1:]]
    # jump between x = 0.4 and 0.6: row at x=0 still 1, row at x=1 already 0
    assert us[2] == pytest.approx(1.0, abs=1e-9)
    assert us[4] == pytest.approx(0.0, abs=1e-9)


def test_classify_rarefaction(files):
    r = run("classify", files["up"], "--x0", "0")
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert out["wave_class"] == "R"
    assert out["spectrum"]["kind"] == "closed_interval"


def test_classify_singleton_lifespans(files):
    r = run("classify", files["sin"], "--x0", "0")
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert out["wave_class"] == "characteristic"
    assert out["lifespans"]["t_p"] == pytest.approx(1.0)


def test_divides_sin(files):
    r = run("divides", files["sin"])
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert out["periodic"] and out["finite"]
    lo, hi = out["k0"][0]
    assert abs(abs(lo) - np.pi) <= 1e-6


def test_divides_infinite_exit_3(files):
    r = run("divides", files["down"])
    assert r.exit_code == 3


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run("solve", str(bad), "--t", "1", "--x-range", "0:1")
    assert r.exit_code == 2


def test_shock_csv(files):
    r = run("shock", files["down"], "--seed", "0.1,0.2",
            "--t-end", "1.0", "--dt", "0.1")
    assert r.exit_code == 0
    rows = [l.split(",") for l in r.output.strip().splitlines()[1:]]
    assert float(rows[-1][1]) == pytest.approx(0.5, abs=1e-6)
    assert float(rows[-1][4]) == pytest.approx(0.5, abs=1e-6)


def test_profile_periodic_mean(files):
    r = run("profile", files["sin"], "--t", "10",
            "--x-range", "-3:3", "--n", "5")
    assert r.exit_code == 0
    vals = [float(l.split(",")[1]) for l in r.output.strip().splitlines()[1:]]
    assert vals == [0.0] * 5


def test_decay_fit_line(files):
    r = run("decay", files["sin"], "--norm", "sup", "--t-list", "10,20,40",
            "--x-range", "-3.14159:3.14159")
    assert r.exit_code == 0
    fit = json.loads(r.output.strip().splitlines()[-1])
    assert fit["exponent"] == pytest.approx(-1.0, abs=0.1)


def test_compare_metrics(files):
    r = run("compare", files["down"], "--t", "1", "--n-cells", "100",
            "--x-range", "-1:2")
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert out["shock_offset"] <= 3.0 / 100
    assert out["l1"] <= 0.1


def test_byte_determinism(files):
    args = ("solve", files["sin"], "--t", "2.5", "--x-range", "-3:3",
            "--n", "41")
    assert run(*args).output == run(*args).output


def _assert_exit_2_json(r):
    assert r.exit_code == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


def test_nan_tail_exit_2(tmp_path):
    bad = tmp_path / "nan_tail.json"
    bad.write_text(json.dumps({"flux": {"kind": "burgers"},
                               "data": {"pieces": [], "left_tail": np.nan,
                                        "right_tail": 0.0,
                                        "window": [0.0, 0.0]}}))
    _assert_exit_2_json(run("solve", str(bad), "--t", "1",
                            "--x-range", "0:1"))


@pytest.mark.parametrize("t, xr", [("nan", "-1:1"), ("-1", "-1:1"),
                                   ("1", "nan:1")])
def test_solve_bad_point_exit_2(files, t, xr):
    _assert_exit_2_json(run("solve", files["down"], "--t", t,
                            "--x-range", xr, "--n", "3"))


@pytest.mark.parametrize("x0", ["nan", "inf"])
def test_classify_nonfinite_x0_exit_2(files, x0):
    _assert_exit_2_json(run("classify", files["sin"], "--x0", x0))


@pytest.mark.parametrize("extra", [
    ("--seed", "0.5,nan", "--t-end", "1"), ("--seed", "0.5", "--t-end", "nan"),
    ("--seed", "0.5,0.5", "--t-end", "1", "--dt", "0"),
    ("--seed", "0.5,0.5", "--t-end", "1", "--dt", "-0.1")])
def test_shock_bad_input_exit_2(files, extra):
    _assert_exit_2_json(run("shock", files["sin"], *extra))


@pytest.mark.parametrize("t, xr", [("0", "-1:1"), ("-1", "-1:1"),
                                   ("nan", "-1:1"), ("inf", "-1:1"),
                                   ("1", "nan:1")])
@pytest.mark.parametrize("kind", ["utilde", "nwave"])
def test_profile_bad_point_exit_2(files, t, xr, kind):
    _assert_exit_2_json(run("profile", files["up"], "--t", t,
                            "--x-range", xr, "--n", "3", "--kind", kind))
