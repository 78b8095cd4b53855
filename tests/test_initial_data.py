import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from laxo import initial_data as idata
from laxo.errors import FitError
from laxo.flux import GeneralFluxPair
from laxo.variational_core import GeneralProblem


@pytest.fixture(scope="module")
def neg_sin():
    return idata.sin_wave(a=-1.0, b=1.0, c=0.0)


@pytest.fixture(scope="module")
def riemann_down():
    return idata.step(1.0, 0.0)


def test_primitive_examples(neg_sin, riemann_down):
    # Phi = cos x - 1 for phi = -sin x
    assert neg_sin.primitive(np.pi) == pytest.approx(-2.0, abs=1e-12)
    assert neg_sin.primitive(0.0) == 0.0
    assert riemann_down.primitive(-3.0) == pytest.approx(-3.0)
    assert riemann_down.primitive(3.0) == pytest.approx(0.0)


def test_primitive_periodic_far(neg_sin):
    # periodic extension: Phi(x + 2 pi k) = Phi(x) (zero-mean data)
    x = 0.7
    assert neg_sin.primitive(x + 20 * np.pi) == pytest.approx(
        neg_sin.primitive(x), abs=1e-10)
    assert neg_sin.primitive(x - 14 * np.pi) == pytest.approx(
        neg_sin.primitive(x), abs=1e-10)


def test_phi_values(neg_sin, riemann_down):
    assert neg_sin.phi(np.pi / 2) == pytest.approx(-1.0)
    assert neg_sin.phi(7.0 * np.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert riemann_down.phi(-0.1) == 1.0
    assert riemann_down.phi(0.1) == 0.0


def test_piecewise_poly_continuity():
    d = idata.InitialData(
        [idata.Piece(-1.0, 0.0, "poly", {"coeffs": [-1.0, -1.0]}),
         idata.Piece(0.0, 1.0, "poly", {"coeffs": [1.0, -1.0]})],
        left_tail=0.0, right_tail=0.0)
    xs = np.linspace(-2, 2, 1001)
    P = d.primitive(xs)
    # primitive of a bounded phi is Lipschitz -> no jumps across breakpoints
    assert np.max(np.abs(np.diff(P))) <= d.bound * (xs[1] - xs[0]) + 1e-12
    assert d.primitive(0.0) == 0.0


def test_dini(neg_sin, riemann_down):
    dp = riemann_down.dini(0.0)
    assert (dp.upper_left, dp.lower_right) == (1.0, 0.0)
    up = idata.step(0.0, 1.0)
    dp = up.dini(0.0)
    assert (dp.upper_left, dp.lower_right) == (0.0, 1.0)
    dp = neg_sin.dini(np.pi)
    assert dp.upper_left == pytest.approx(0.0, abs=1e-12)
    assert dp.lower_right == pytest.approx(0.0, abs=1e-12)


def test_tail_invariants(neg_sin, riemann_down):
    t = neg_sin.tail_invariants()
    assert (t.ubar_l, t.ulow_l, t.ubar_r, t.ulow_r) == (0.0, 0.0, 0.0, 0.0)
    t = riemann_down.tail_invariants()
    assert (t.ubar_l, t.ulow_l, t.ubar_r, t.ulow_r) == (1.0, 1.0, 0.0, 0.0)


def test_tail_invariants_bump_mean():
    d = idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [1.5, 0.0, -1.0]})],
        left_tail=0.5, right_tail=0.5)
    t = d.tail_invariants()
    assert t.ubar_l == t.ulow_r == 0.5


def test_local_expansion(neg_sin):
    e = neg_sin.local_expansion(0.0, 0.0, "right")
    assert (e.gamma, e.C_gamma) == (1.0, pytest.approx(-1.0))
    e = neg_sin.local_expansion(0.0, 0.0, "left")
    assert (e.gamma, e.C_gamma) == (1.0, pytest.approx(-1.0))
    cube = idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, 0.0, 0.0, -1.0]})],
        left_tail=1.0, right_tail=-1.0)
    e = cube.local_expansion(0.0, 0.0, "right")
    assert (e.gamma, e.C_gamma) == (3.0, pytest.approx(-1.0))
    e = cube.local_expansion(0.0, 0.0, "left")
    assert e.gamma == 3.0 and e.C_gamma == pytest.approx(-1.0)  # odd term

    onemx = idata.InitialData(
        [idata.Piece(0.0, 1.0, "poly", {"coeffs": [1.0, -1.0]})],
        left_tail=1.0, right_tail=0.0)
    e = onemx.local_expansion(0.0, 1.0, "right")
    assert (e.gamma, e.C_gamma) == (1.0, pytest.approx(-1.0))


def test_local_expansion_power_piece():
    d = idata.InitialData(
        [idata.Piece(-1.0, 1.0, "power", {"a": -1.0, "g": 1.0 / 3.0, "x_ref": 0.0})],
        left_tail=1.0, right_tail=-1.0)
    for side in ("left", "right"):
        e = d.local_expansion(0.0, 0.0, side)
        assert e.gamma == pytest.approx(1.0 / 3.0)
        assert e.C_gamma == pytest.approx(-1.0)
    # exact primitive: int_0^x -sgn(s)|s|^(1/3) ds = -(3/4)|x|^(4/3)
    assert d.primitive(0.5) == pytest.approx(-0.75 * 0.5 ** (4.0 / 3.0), abs=1e-12)


def test_local_expansion_errors(neg_sin):
    const = idata.InitialData([], left_tail=1.0, right_tail=1.0, window=(0.0, 0.0))
    with pytest.raises(FitError):
        const.local_expansion(0.0, 1.0, "right")   # phi == c
    with pytest.raises(FitError):
        neg_sin.local_expansion(0.0, 0.5, "right")  # limit differs from c


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_primitive_lipschitz(x1, x2):
    d = idata.sin_wave()
    assert abs(d.primitive(x2) - d.primitive(x1)) <= d.bound * abs(x2 - x1) + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.floats(-9.0, 9.0))
def test_dini_continuity_points(x0):
    d = idata.sin_wave()
    dp = d.dini(x0)
    assert dp.upper_left == pytest.approx(d.phi(x0), abs=1e-9)
    assert dp.lower_right == pytest.approx(d.phi(x0), abs=1e-9)


def test_bound(neg_sin):
    assert neg_sin.bound == pytest.approx(1.0, abs=1e-6)
    xs = np.random.default_rng(0).uniform(-30, 30, 1000)
    assert np.all(np.abs(neg_sin.phi(xs)) <= neg_sin.bound)


def test_descriptor_roundtrip(neg_sin):
    d2 = idata.from_descriptor(neg_sin.to_descriptor())
    xs = np.linspace(-7, 7, 101)
    assert np.allclose(d2.phi(xs), neg_sin.phi(xs))
    assert np.allclose(d2.primitive(xs), neg_sin.primitive(xs))
    r = idata.step(1.0, 0.0)
    r2 = idata.from_descriptor(r.to_descriptor())
    assert r2.phi(-1.0) == 1.0 and r2.phi(1.0) == 0.0


def test_sampled_data_matches_exact():
    d = idata.sin_wave()
    xs = np.linspace(-np.pi, np.pi, 20001)
    mids = 0.5 * (xs[:-1] + xs[1:])
    sd = idata.SampledData(xs, np.append(d.phi(mids), d.phi(mids)[-1]),
                           period=2 * np.pi)
    q = np.linspace(-10, 10, 500)
    assert np.max(np.abs(sd.primitive(q) - d.primitive(q))) < 1e-6
    assert sd.primitive(0.0) == 0.0


@pytest.mark.parametrize("build", [
    lambda: idata.InitialData([], left_tail=np.nan, right_tail=0.0,
                              window=(0.0, 0.0)),
    lambda: idata.InitialData([], left_tail=0.0, right_tail=np.inf,
                              window=(0.0, 0.0)),
    lambda: idata.InitialData([], left_tail=0.0, right_tail=0.0,
                              window=(np.nan, np.nan)),
    lambda: idata.InitialData([], left_tail=0.0, right_tail=0.0,
                              window=(0.0, 0.0), bound=np.nan),
    lambda: idata.InitialData([idata.Piece(0.0, 1.0, "const", {"c": 1.0})],
                              period=np.nan),
    lambda: idata.from_descriptor({"pieces": [], "left_tail": np.nan,
                                   "right_tail": 0.0, "window": [0.0, 0.0]}),
    lambda: idata.SampledData([0.0, 1.0, 2.0], [1.0, np.nan, 0.0]),
    lambda: idata.SampledData([0.0, np.inf], [1.0, 0.0]),
    lambda: idata.SampledData([0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
                              period=np.nan),
], ids=["nan_left_tail", "inf_right_tail", "nan_window", "nan_bound",
         "nan_period", "nan_tail_descriptor", "nan_us", "inf_xs",
         "sampled_nan_period"])
def test_nonfinite_input_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_side_limits_across_period_boundary():
    # just left of a period boundary the right-side limit wraps to w_lo
    d = idata.sin_wave()
    for x0, side in ((np.pi - 5e-15, "left"), (np.pi - 5e-15, "right"),
                     (3 * np.pi - 1e-15, "right"),
                     (-np.pi - 1e-15, "right")):
        assert d.phi_side(x0, side) == pytest.approx(
            d.phi_side(np.pi, side), abs=1e-12)


# -- the periodic / constant-tail extension, shared by every primitive -----

def _cube(u):
    u = np.asarray(u, dtype=float)
    return u ** 3 + u


_CUBE_PAIR = GeneralFluxPair(
    _cube, lambda u: 3.0 * np.asarray(u, dtype=float) ** 2 + 1.0,
    H=lambda u: np.asarray(u, dtype=float),
    Hprime=lambda u: np.ones_like(np.asarray(u, dtype=float)))
_PIECES = [idata.Piece(0.0, 1.0, "poly", {"coeffs": [0.5, 1.0]}),
           idata.Piece(1.0, 2.0, "poly", {"coeffs": [2.0, -0.75]})]
_SX = np.linspace(0.0, 2.0, 41)
_SU = np.cos(3.0 * _SX) + 0.3


def _window_integral(U):
    return (quad(lambda y: float(U(0.5 + y)), 0.0, 1.0)[0]
            + quad(lambda y: float(U(2.0 - 0.75 * y)), 1.0, 2.0)[0])


# case -> (Phi, period, integral over the window or the two tail slopes);
# the window is [0, 2]
_EXTENDED = {
    "initial_periodic": lambda: (
        idata.InitialData(_PIECES, period=2.0).primitive, 2.0,
        _window_integral(lambda u: u)),
    "initial_tailed": lambda: (
        idata.InitialData(_PIECES, left_tail=-0.5, right_tail=0.25).primitive,
        None, (-0.5, 0.25)),
    "sampled_periodic": lambda: (
        idata.SampledData(_SX, _SU, period=2.0).primitive, 2.0,
        float(np.dot(_SU[:-1], np.diff(_SX)))),
    "sampled_tailed": lambda: (
        idata.SampledData(_SX, _SU).primitive, None, (_SU[0], _SU[-1])),
    "general_periodic": lambda: (
        GeneralProblem(_CUBE_PAIR, idata.InitialData(_PIECES, period=2.0))._W,
        2.0, _window_integral(_cube)),
    "general_tailed": lambda: (
        GeneralProblem(_CUBE_PAIR, idata.InitialData(
            _PIECES, left_tail=-0.5, right_tail=0.25))._W,
        None, (float(_cube(-0.5)), float(_cube(0.25)))),
}


@pytest.mark.parametrize("case", sorted(_EXTENDED))
def test_extension_far_outside_window(case):
    Phi, period, expect = _EXTENDED[case]()
    rng = np.random.default_rng(3)
    if period is not None:
        # Phi(x + kP) = Phi(x) + k * (integral over one window)
        for x in rng.uniform(0.0, 2.0, 20):
            for k in range(-20, 20):
                assert Phi(x + k * period) == pytest.approx(
                    Phi(x) + k * expect, abs=1e-9)
        return
    # tailed: Phi is affine beyond the window with the tail slopes
    for (lo, hi), slope in (((-40.0, 0.0), expect[0]),
                            ((2.0, 40.0), expect[1])):
        a, b = np.sort(rng.uniform(lo, hi, (2, 50)), axis=0)
        assert np.allclose((Phi(b) - Phi(a)) / (b - a), slope,
                           rtol=0.0, atol=1e-9)


def test_sampled_right_tail_starts_at_last_knot():
    sd = idata.SampledData(_SX, _SU)
    assert sd.phi(sd.w_hi) == _SU[-1]
    assert np.all(sd.phi(np.array([sd.w_hi, 7.0, 40.0])) == _SU[-1])


# -- an array evaluates each point as the scalar call does ---------------------
# Batched bisection evaluates its midpoints in one array and reproduces the
# one-step search only if each element is bitwise the scalar value.

_ALL_KINDS = [
    idata.Piece(-2.0, -1.0, "const", {"c": 0.75}),
    idata.Piece(-1.0, 0.0, "poly", {"coeffs": [0.3, -1.0, 0.5, 2.0]}),
    idata.Piece(0.0, 1.0, "sin", {"a": -1.3, "b": 2.7, "c": 0.4}),
    idata.Piece(1.0, 2.0, "cos", {"a": 0.8, "b": 3.1, "c": -0.2}),
    idata.Piece(2.0, 3.0, "power", {"a": -0.9, "g": 1.0 / 3.0,
                                    "x_ref": 2.4, "b": 0.1}),
]
_KNOTS = np.linspace(-2.0, 3.0, 33)
_VALUES = np.sin(2.3 * _KNOTS) - 0.2
_BITWISE = {
    "initial_periodic": lambda: idata.InitialData(_ALL_KINDS, period=5.0),
    "initial_tailed": lambda: idata.InitialData(
        _ALL_KINDS, left_tail=-0.5, right_tail=0.25),
    "sampled_periodic": lambda: idata.SampledData(_KNOTS, _VALUES, period=5.0),
    "sampled_tailed": lambda: idata.SampledData(_KNOTS, _VALUES),
}


def _probe_points(d):
    rng = np.random.default_rng(11)
    marks = np.concatenate([[d.w_lo, d.w_hi],
                            d.xs if d.is_sampled else d._breaks])
    shifts = (np.arange(-3, 4) * d.period if d.period is not None
              else np.array([0.0]))
    pts = (marks[:, None] + shifts[None, :]).ravel()
    pts = np.concatenate([pts, np.nextafter(pts, np.inf),
                          np.nextafter(pts, -np.inf),
                          rng.uniform(d.w_lo - 12.0, d.w_hi + 12.0, 400)])
    return rng.permutation(pts)


@pytest.mark.parametrize("case", sorted(_BITWISE))
def test_phi_array_matches_scalar_bitwise(case):
    d = _BITWISE[case]()
    xs = _probe_points(d)
    scalar = np.array([d.phi(float(x)) for x in xs])
    assert d.phi(xs).tobytes() == scalar.tobytes()


def test_general_psi_array_matches_scalar_bitwise():
    gp = GeneralProblem(_CUBE_PAIR, _BITWISE["initial_tailed"]())
    rng = np.random.default_rng(12)
    for x, t in ((0.3, 0.7), (-1.9, 2.5), (2.6, 0.05)):
        us = np.concatenate([rng.uniform(-gp.M, gp.M, 300), gp._s[::64]])
        scalar = np.array([gp._psi(float(u), x, t) for u in us])
        assert gp._psi(us, x, t).tobytes() == scalar.tobytes()


_NAN_CASES = dict(_BITWISE, step=lambda: idata.step(1.0, 0.0))


@pytest.mark.parametrize("case", sorted(_NAN_CASES))
def test_nan_point_gives_nan(case):
    # NaN lies in neither tail nor the window; no piece or knot may claim it
    d = _NAN_CASES[case]()
    for fn in (d.phi, d.primitive):
        assert np.isnan(fn(np.nan))
        out = fn(np.array([np.nan, d.w_lo, np.nan]))
        assert np.isnan(out[[0, 2]]).all() and np.isfinite(out[1])
