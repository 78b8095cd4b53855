import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import laxo
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


@pytest.mark.parametrize("window", ["nan", "inf"])
def test_divides_non_finite_window_exit_2(files, window):
    _assert_exit_2_json(run("divides", files["up"], "--window", window),
                        "the hull half-width N must be finite")


def test_non_integral_n_scan_exit_2(tmp_path):
    # an n_scan of 64.7 used to scan 64 cells and exit 0
    bad = tmp_path / "n_scan.json"
    bad.write_text(json.dumps(dict(RIEMANN_UP, tolerances={"n_scan": 64.7})))
    _assert_exit_2_json(run("solve", str(bad), "--t", "1",
                            "--x-range", "-1:1", "--n", "3"),
                        "n_scan must be an integer")


@pytest.mark.parametrize("n_scan", [2, 3])
def test_coarse_n_scan_exit_2(tmp_path, n_scan):
    # n_scan = 3 gave u+ = 1 right of the step(1, 0) shock, where it is 0
    bad = tmp_path / "n_scan.json"
    bad.write_text(json.dumps(dict(RIEMANN_UP,
                                   tolerances={"n_scan": n_scan})))
    _assert_exit_2_json(run("solve", str(bad), "--t", "1",
                            "--x-range", "-1:1", "--n", "3"),
                        "need n_scan >= 4 and finite positive tolerances")


def test_unknown_tolerance_key_exit_2(tmp_path):
    # a mistyped key was dropped, and the solve ran with the default val_tol
    bad = tmp_path / "val_toll.json"
    bad.write_text(json.dumps(dict(RIEMANN_UP, tolerances={"val_toll": 1e-6})))
    r = run("solve", str(bad), "--t", "1", "--x-range", "-1:1", "--n", "3")
    _assert_exit_2_json(r)
    assert "val_toll" in json.loads(r.stderr)["message"]


def test_classify_constant_power_piece(tmp_path):
    # a power piece with a = 0 is the constant 0: one characteristic that
    # lives for ever (t_p divided by zero and exited 1 with a traceback)
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "flux": {"kind": "burgers"},
        "data": {"pieces": [{"lo": -1.0, "hi": 1.0, "kind": "power",
                             "a": 0.0, "g": 1.0, "x_ref": 0.0}],
                 "left_tail": 0.0, "right_tail": 0.0}}))
    r = run("classify", str(path), "--x0", "0")
    assert r.exit_code == 0, r.output
    out = json.loads(r.output)
    assert out["wave_class"] == "characteristic"
    assert out["lifespans"]["t_p"] == out["lifespans"]["t_star"] == "inf"


def test_overflowing_problem_exit_2(tmp_path):
    # power2n(2) on data of bound 1e102: H U overflows on the u-grid, an
    # inadmissible problem (it exited 3 with a FloatingPointError)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "flux": {"kind": "power2n", "n": 2},
        "data": {"pieces": [{"lo": -1e-6, "hi": 1e-6, "kind": "power",
                             "a": -1e104, "g": 1.0 / 3.0, "x_ref": 0.0}],
                 "left_tail": 1e102, "right_tail": -1e102}}))
    r = run("solve", str(path), "--t", "1", "--x-range", "-1:1", "--n", "3")
    _assert_exit_2_json(r, "H, U and int_0^u H'U must be finite on the "
                           "u-grid")


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


# junk text in a range, seed or time list: the float parse's own error,
# through the CLI's one ValueError path
_JUNK_TEXT = {"abc": "could not convert string to float: 'abc'",
              "1:2:3": "too many values to unpack (expected 2)",
              "0.5,x": "could not convert string to float: 'x'",
              "1,x": "could not convert string to float: 'x'",
              "0,0,99": "--seed takes x0 or x0,t0, not '0,0,99'"}


def _assert_exit_2_json(r, message=None):
    # a failed run prints nothing on stdout, not even a CSV header
    assert r.exit_code == 2
    assert r.stdout == ""
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert "error" in payload
    if message is not None:
        assert payload == {"error": "ValueError", "message": message}


def test_solve_past_periodic_range_exit_2(files):
    # periodic data lose their phase at |x| ~ 1e16: exit 2, not wrong values
    for xr in ("1e16:1e16", "-1e15:0"):
        r = run("solve", files["sin"], "--t", "1", "--x-range", xr, "--n", "3")
        _assert_exit_2_json(r)
        assert json.loads(r.stderr)["error"] == "ValueError"


def test_compare_on_a_needle_grid_exit_2(files):
    # 24 cells over 1e-12 would need about 1e13 Godunov steps to reach t = 1
    r = run("compare", files["sin"], "--t", "1", "--n-cells", "24",
            "--x-range", "1:1.000000000001")
    _assert_exit_2_json(r)


def test_nan_tail_exit_2(tmp_path):
    bad = tmp_path / "nan_tail.json"
    bad.write_text(json.dumps({"flux": {"kind": "burgers"},
                               "data": {"pieces": [], "left_tail": np.nan,
                                        "right_tail": 0.0,
                                        "window": [0.0, 0.0]}}))
    _assert_exit_2_json(run("solve", str(bad), "--t", "1",
                            "--x-range", "0:1"))


@pytest.mark.parametrize("t, xr", [("nan", "-1:1"), ("-1", "-1:1"),
                                   ("1", "nan:1"), ("1", "inf:inf"),
                                   ("1", "0:inf"), ("1", "-inf:0"),
                                   ("1", "abc"), ("1", "1:2:3")])
def test_solve_bad_point_exit_2(files, t, xr):
    _assert_exit_2_json(run("solve", files["down"], "--t", t,
                            "--x-range", xr, "--n", "3"), _JUNK_TEXT.get(xr))


@pytest.mark.parametrize("x0", ["nan", "inf"])
def test_classify_nonfinite_x0_exit_2(files, x0):
    _assert_exit_2_json(run("classify", files["sin"], "--x0", x0))


@pytest.mark.parametrize("extra", [
    ("--seed", "0.5,nan", "--t-end", "1"), ("--seed", "0.5", "--t-end", "nan"),
    ("--seed", "0.5,0.5", "--t-end", "1", "--dt", "0"),
    ("--seed", "0.5,0.5", "--t-end", "1", "--dt", "-0.1"),
    ("--seed", "0.5,0.5", "--t-end", "1", "--dt", "1e-300"),
    ("--seed", "0.5,0.5", "--t-end", "1e300", "--dt", "1"),
    ("--seed", "abc", "--t-end", "1"), ("--seed", "0.5,x", "--t-end", "1"),
    ("--seed", "0,0,99", "--t-end", "1")])
def test_shock_bad_input_exit_2(files, extra):
    _assert_exit_2_json(run("shock", files["sin"], *extra),
                        _JUNK_TEXT.get(extra[1]))


@pytest.mark.parametrize("t, xr", [("0", "-1:1"), ("-1", "-1:1"),
                                   ("nan", "-1:1"), ("inf", "-1:1"),
                                   ("1", "nan:1"), ("1", "inf:inf"),
                                   ("1", "0:inf"), ("1", "-inf:0")])
@pytest.mark.parametrize("kind", ["utilde", "nwave"])
def test_profile_bad_point_exit_2(files, t, xr, kind):
    _assert_exit_2_json(run("profile", files["up"], "--t", t,
                            "--x-range", xr, "--n", "3", "--kind", kind))


@pytest.mark.parametrize("xr", ["inf:inf", "0:inf", "-inf:0"])
def test_decay_nonfinite_range_exit_2(files, xr):
    _assert_exit_2_json(run("decay", files["sin"], "--t-list", "1,2",
                            "--x-range", xr))


@pytest.mark.parametrize("xr", ["3:-3", "1:1"])
def test_decay_empty_or_reversed_range_exit_2(files, xr):
    # a reversed range used to exit 0 with negative l1 norms
    _assert_exit_2_json(run("decay", files["sin"], "--norm", "l1",
                            "--t-list", "1,2", "--x-range", xr))


_SIN_PIECE = {"lo": -1.0, "hi": 1.0, "kind": "sin", "a": 1.0, "b": 1.0,
              "c": 0.0}


@pytest.mark.parametrize("desc", [
    {"flux": {"kind": "burgers"},
     "data": {"pieces": [dict(_SIN_PIECE, b=0)], "period": 2.0}},
    {"flux": {"kind": "burgers"},
     "data": {"pieces": [{"lo": 0.0, "hi": 1.0, "kind": "poly",
                          "coeffs": []}], "left_tail": 0.0, "right_tail": 0.0}},
    {"flux": {"kind": "burgers"}, "data": {"pieces": "x", "period": 2.0}},
    {"flux": "burgers", "data": SIN["data"]},
    {"flux": {"kind": "burgers"}, "data": 5},
    {"flux": {"kind": "burgers"},
     "data": {"pieces": [dict(_SIN_PIECE, lo=1.0, hi=0.0)],
              "left_tail": 0.0, "right_tail": 0.0}},
], ids=["sin_b_zero", "empty_coeffs", "pieces_not_list", "flux_not_object",
        "data_not_object", "reversed_piece"])
def test_malformed_problem_file_exit_2(tmp_path, desc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    _assert_exit_2_json(run("solve", str(bad), "--t", "1",
                            "--x-range", "-1:1", "--n", "3"))


@pytest.mark.parametrize("n", [np.inf, np.nan, 2.5, True],
                         ids=["inf", "nan", "fraction", "bool"])
def test_power2n_bad_exponent_exit_2(tmp_path, n):
    bad = tmp_path / "bad_n.json"
    bad.write_text(json.dumps({"flux": {"kind": "power2n", "n": n},
                               "data": SIN["data"]}))
    _assert_exit_2_json(run("solve", str(bad), "--t", "1",
                            "--x-range", "-1:1", "--n", "3"))


# finite numbers up to 1e3 in magnitude, subnormals included
_NUM = st.floats(-1e3, 1e3)
_JUNK = st.one_of(st.none(), st.text(max_size=2), st.lists(_NUM, max_size=2),
                  st.dictionaries(st.text(max_size=1), _NUM, max_size=1))
_KEYS = {"const": ["c"], "poly": ["coeffs"], "sin": ["a", "b", "c"],
         "cos": ["a", "b", "c"], "power": ["a", "g", "x_ref", "b"]}


@st.composite
def _mutated(draw, obj):
    """obj, or a value of the wrong type, or obj with one key dropped or
    given a value of the wrong type."""
    how = draw(st.sampled_from(["keep"] * 6 + ["replace", "drop", "junk"]))
    if how == "replace":
        return draw(_JUNK)
    obj = dict(obj)
    if how != "keep" and obj:
        key = draw(st.sampled_from(sorted(obj)))
        if how == "drop":
            del obj[key]
        else:
            obj[key] = draw(_JUNK)
    return obj


@st.composite
def _piece(draw, lo, hi):
    kind = draw(st.sampled_from(sorted(_KEYS)))
    lo, hi = draw(st.sampled_from([(lo, hi)] * 4 + [(hi, lo), (lo, lo)]))
    d = {"lo": lo, "hi": hi, "kind": kind}
    for k in _KEYS[kind]:
        d[k] = draw(st.lists(_NUM, max_size=3)) if k == "coeffs" else draw(_NUM)
    return draw(_mutated(d))


@st.composite
def _problem(draw):
    fl = {"kind": draw(st.sampled_from(["burgers", "power2n", "exponential"])),
          "n": draw(st.one_of(st.integers(1, 4), _NUM)),
          "k": draw(st.one_of(st.floats(0.1, 2.0), _NUM))}
    xs = sorted(draw(st.lists(_NUM, min_size=1, max_size=4, unique=True)))
    pieces = [draw(_piece(a, b)) for a, b in zip(xs, xs[1:])]
    data = {"pieces": pieces}
    if draw(st.booleans()) and pieces:
        data["period"] = xs[-1] - xs[0]
    else:
        data.update(left_tail=draw(_NUM), right_tail=draw(_NUM))
    if not pieces:
        data["window"] = draw(st.one_of(st.just(xs[:1]), st.just([]), _JUNK))
    desc = {"flux": draw(_mutated(fl)), "data": draw(_mutated(data))}
    if draw(st.booleans()):
        desc["tolerances"] = draw(st.one_of(
            _JUNK, st.fixed_dictionaries({"val_tol": _NUM, "n_scan": _NUM})))
    return draw(_mutated(desc))


@settings(max_examples=150, deadline=None)
@given(_problem())
def test_any_problem_file_exits_cleanly(tmp_path_factory, desc):
    # 0 on success, 2 on a malformed file, 3 on a numerical sentinel; a
    # failure is one line of JSON on stderr, never a traceback
    path = tmp_path_factory.mktemp("hyp") / "p.json"
    path.write_text(json.dumps(desc))
    for args in (("solve", str(path), "--t", "1", "--x-range", "-1:1",
                  "--n", "3"),
                 ("divides", str(path))):
        r = run(*args)
        assert r.exit_code in (0, 2, 3), (r.exception, desc)
        if r.exit_code:
            lines = r.stderr.strip().splitlines()
            assert len(lines) == 1
            assert "error" in json.loads(lines[0])


@pytest.mark.parametrize("args", [
    ("solve", "--t", "abc", "--x-range", "-1:1"),
    ("solve", "--x-range", "-1:1"),
    ("solve", "--t", "1", "--x-range", "-1:1", "--bogus", "1"),
    ("profile", "--t", "1", "--x-range", "-1:1", "--kind", "x"),
    ("compare", "--t", "1", "--x-range", "0:0"),
    ("decay", "--t-list", "10", "--x-range", "-3:3"),
    ("decay", "--t-list", "1,x", "--x-range", "-3:3"),
], ids=["bad_float", "missing_option", "unknown_option", "bad_choice",
        "empty_range", "one_time", "bad_time_list"])
def test_usage_errors_exit_2_json(files, args):
    junk = args[2] if args[1] == "--t-list" else None
    _assert_exit_2_json(run(args[0], files["sin"], *args[1:]),
                        _JUNK_TEXT.get(junk))


def test_cli_import_loads_no_scipy():
    # scipy serves the tests as an oracle; the program must start without it
    src = os.path.dirname(os.path.dirname(laxo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code = ("import sys, laxo.cli; print([m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')])")
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, check=True)
    assert r.stdout.strip() == "[]"


# each option gets a well-formed value, a bad one (non-finite, signs, empty
# or non-numeric text) or none; magnitudes stay small to keep each run's
# work small, and a valid --dt stays >= 0.25: track_forward rejects a dt
# that cannot advance t and step counts past its cap, but below the cap its
# work still grows as the step count (t_end - t0) / dt
_BAD = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-1", ""]),
                 st.text(".,:-+eax ", min_size=1, max_size=3))
_X = st.floats(-5.0, 5.0).map(repr)
_T = st.floats(0.01, 5.0).map(repr)
_COUNT = st.integers(-2, 24).map(str)
_OPTIONS = {
    "solve": {"--t": _T, "--x-range": st.tuples(_X, _X).map(":".join),
              "--n": _COUNT},
    "classify": {"--x0": _X},
    "shock": {"--seed": st.one_of(_X, st.tuples(_X, _T).map(",".join)),
              "--t-end": _T, "--dt": st.floats(0.25, 2.0).map(repr)},
    "profile": {"--t": _T, "--x-range": st.tuples(_X, _X).map(":".join),
                "--n": _COUNT, "--kind": st.sampled_from(["utilde", "nwave"])},
    "decay": {"--t-list": st.lists(_T, min_size=1, max_size=3).map(",".join),
              "--x-range": st.tuples(_X, _X).map(":".join)},
    "compare": {"--t": _T, "--n-cells": _COUNT,
                "--x-range": st.tuples(_X, _X).map(":".join)},
}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [cmd, draw(st.sampled_from(["down", "up", "sin"]))]
    for opt, good in _OPTIONS[cmd].items():
        k = draw(st.integers(0, 9))
        if k:                             # k == 0 leaves the option out
            argv += [opt, draw(good if k > 2 else _BAD)]
    return argv


@settings(max_examples=50, deadline=None)
@given(_argv())
def test_any_argv_exits_cleanly(tmp_path_factory, argv):
    # 0 on success, 2 on a parse error, 3 on a numerical sentinel; a
    # failure is one line of JSON on stderr, never a traceback
    path = tmp_path_factory.getbasetemp() / f"argv_{argv[1]}.json"
    if not path.exists():
        path.write_text(json.dumps(
            {"down": RIEMANN_DOWN, "up": RIEMANN_UP, "sin": SIN}[argv[1]]))
    r = run(argv[0], str(path), *argv[2:])
    assert r.exit_code in (0, 2, 3), (r.exception, argv)
    if r.exit_code:
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1, (lines, argv)
        assert "error" in json.loads(lines[0])
