import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from laxo import flux, initial_data as idata
from laxo.characteristics import CharacteristicAnalyzer
from laxo.errors import FitError
from laxo.flux import GeneralFluxPair
from laxo.variational_core import GeneralProblem, Problem, _NumericPrimitive


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


def test_local_expansion_power_piece_off_its_reference_point():
    # a sgn(x)|x|^g is smooth away from x_ref = 0, so the expansion reads
    # the power term's derivatives there: phi' = a g |x0|^(g - 1) on both
    # sides of x0 = -+0.4, a linear term, and under Burgers each side's t_p
    # is 1 / |phi'|
    a, g = -1.5, 2.5
    d = idata.InitialData(
        [idata.Piece(-1.0, 1.0, "power", {"a": a, "g": g, "x_ref": 0.0})],
        left_tail=1.5, right_tail=-1.5)
    slope = a * g * 0.4 ** (g - 1.0)
    assert slope == pytest.approx(-0.948683298050514, rel=1e-15)
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), d))
    for x0 in (-0.4, 0.4):
        c = float(d.phi(x0))
        for side in ("left", "right"):
            e = d.local_expansion(x0, c, side)
            assert e.gamma == 1.0
            assert e.C_gamma == pytest.approx(slope, rel=1e-12)
        assert ca.lifespan_upper(x0, c) == pytest.approx(
            (1.0540925533894596,) * 2, rel=1e-12)


def test_local_expansion_errors(neg_sin):
    const = idata.InitialData([], left_tail=1.0, right_tail=1.0, window=(0.0, 0.0))
    with pytest.raises(FitError):
        const.local_expansion(0.0, 1.0, "right")   # phi == c
    with pytest.raises(FitError):
        neg_sin.local_expansion(0.0, 0.5, "right")  # limit differs from c


@pytest.mark.parametrize("a, g", [(0.0, 0.5), (0.7, 0.0)],
                         ids=["a_zero", "g_zero"])
def test_constant_power_term_is_identically_its_limit(a, g):
    # a sgn(x)|x|^g + 0.2 is constant on each side of x_ref when a = 0 or
    # g = 0, as a const piece is: no power law, so no LocalExpansion (a = 0
    # gave C = 0, and g = 0 the exponent 0 with C = a, off by a on the left)
    d = idata.InitialData(
        [idata.Piece(-1.0, 1.0, "power",
                     {"a": a, "g": g, "x_ref": 0.0, "b": 0.2})],
        left_tail=0.2 - a, right_tail=0.2 + a)
    for side in ("left", "right"):
        with pytest.raises(FitError, match="identically"):
            d.local_expansion(0.0, d.phi_side(0.0, side), side)


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


def test_bound_sees_peaks_between_samples():
    # sin(2048 x) vanishes at every point of a 4097-point grid on [-pi, pi];
    # a bound read off that grid alone scans u on +-1e-6 and misses the foot
    d = idata.InitialData(
        [idata.Piece(-np.pi, np.pi, "sin", {"a": 1.0, "b": 2048.0, "c": 0.0})],
        period=2.0 * np.pi)
    assert d.bound >= 1.0
    x, t = 0.3, 1e-4
    s = Problem(flux.burgers(), d).solve(x, t)
    for u in (s.u_minus, s.u_plus):
        assert abs(u - d.phi(x - t * u)) <= 1e-9


@pytest.mark.parametrize("piece, peak", [
    (idata.Piece(-1.0, 1.1, "poly", {"coeffs": [1.0, 0.0, -1.0]}), 1.0),
    (idata.Piece(0.0, 3.0, "cos", {"a": 2.0, "b": 1.0, "c": -1.0}), 2.0),
], ids=["poly", "cos"])
def test_bound_reaches_interior_peaks(piece, peak):
    # neither peak (x = 0, x = 1) lies on the 4097-point grid of the piece
    d = idata.InitialData([piece], left_tail=0.0, right_tail=0.0)
    assert peak <= d.bound <= peak + 1e-9


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


@pytest.mark.parametrize("build", [
    idata.sin_wave,
    lambda: idata.step(1.0, 0.0),
    lambda: idata.SampledData([0.0, 1.0, 2.0], [1.0, 0.0, 1.0]),
], ids=["sin_wave", "step", "sampled"])
def test_side_and_value_checked(build):
    # a side other than "left" or "right" was read as right, and a
    # non-finite c gave an expansion about c = nan
    d = build()
    for side in ("up", "Left", None):
        with pytest.raises(ValueError):
            d.phi_side(0.0, side)
        with pytest.raises(ValueError):
            d.local_expansion(0.0, 0.0, side)
    for c in (np.nan, np.inf):
        for side in ("left", "right"):
            with pytest.raises(ValueError):
                d.local_expansion(0.0, c, side)


def test_overflowing_primitive_rejected():
    # a / b = 1 / 5e-324 overflows, so the cos piece has no finite primitive
    with pytest.raises(ValueError, match="primitive"):
        idata.InitialData([idata.Piece(2.0, 3.0, "cos",
                                       {"a": 1.0, "b": 5e-324, "c": 0.0})],
                          left_tail=0.0, right_tail=0.0)


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
    H=lambda u: np.asarray(u, dtype=float))
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


@pytest.mark.parametrize("case", ["initial_periodic", "sampled_periodic"])
def test_infinite_point_on_periodic_data_gives_nan(case):
    # +-inf has no phase in the period; the reduction must not warn
    d = _BITWISE[case]()
    for fn in (d.phi, d.primitive):
        for x in (np.inf, -np.inf):
            assert np.isnan(fn(x))
        out = fn(np.array([np.inf, d.w_lo, -np.inf]))
        assert np.isnan(out[[0, 2]]).all() and np.isfinite(out[1])


@pytest.mark.parametrize("x", [1e15, 1e16])
@pytest.mark.parametrize("case", ["sin_wave", "initial_periodic",
                                  "sampled_periodic"])
def test_periodic_point_past_safe_range_raises(case, x):
    # the float spacing is 0.125 at 1e15 and 2 at 1e16: no phase is left,
    # and sin_wave().phi(1e16) used to give phi(w_lo) without a word
    d = idata.sin_wave() if case == "sin_wave" else _BITWISE[case]()
    assert d.w_lo + 2.0 ** 30 * d.period < d._x_max < 1e15
    for side in ("left", "right"):
        with pytest.raises(ValueError, match="periodic data"):
            d.phi_side(-x, side)
    for fn in (d.phi, d.primitive):
        for v in (x, -x, np.array([d.w_lo, x]), np.array([np.nan, -x])):
            with pytest.raises(ValueError, match="periodic data"):
                fn(v)
        # within the range the reduction keeps the phase to its float spacing
        near = d.w_lo + 0.3 * d.period
        far = near + 2.0 ** 30 * d.period
        if case != "sampled_periodic":
            assert fn(far) == pytest.approx(
                fn(near) + (2.0 ** 30 * d._win if fn == d.primitive else 0.0),
                rel=1e-12, abs=1e-6)


@pytest.mark.parametrize("tails, x, want", [
    ((1.0, 0.0), np.inf, 0.0), ((0.0, 1.0), -np.inf, 0.0),
    ((1.0, 0.0), -np.inf, -np.inf), ((0.0, 1.0), np.inf, np.inf)])
def test_tailed_primitive_at_infinity(tails, x, want):
    # a zero tail adds nothing out to +-inf; 0 * inf must not warn or give NaN
    d = idata.step(*tails)
    assert d.primitive(x) == want
    assert d.primitive(np.array([x, 0.5]))[0] == want


# -- array and point calls agree for every data class --------------------------

def _general(data):
    return _NumericPrimitive(_CUBE_PAIR.U, data)


def _quad_primitive(data, x):
    """int_0^x U(phi) for U = _cube, split at every break and x_ref."""
    cuts = {0.0, x} | {p.lo for p in data.pieces} | {p.hi for p in data.pieces}
    cuts |= {p.params["x_ref"] for p in data.pieces if p.kind == "power"}
    cuts = sorted(c for c in cuts if min(0.0, x) <= c <= max(0.0, x))
    total = sum(quad(lambda y: float(_cube(data.phi(y))), a, b,
                     epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                for a, b in zip(cuts[:-1], cuts[1:]))
    return total if x >= 0.0 else -total


@pytest.mark.parametrize("data", [
    idata.InitialData(_ALL_KINDS, left_tail=-0.5, right_tail=0.25),
    idata.InitialData(_ALL_KINDS, period=5.0),
    idata.InitialData(_PIECES, left_tail=-0.5, right_tail=0.25),
    idata.InitialData(_PIECES, period=2.0)],
    ids=["all_kinds_tailed", "all_kinds_periodic", "pieces_tailed",
         "pieces_periodic"])
def test_general_primitive_against_quadrature(data):
    # the power piece's kink at x_ref is where a fixed rule on even panels
    # fails; the knot table is graded toward it
    W = _NumericPrimitive(_cube, data)
    xs = list(np.linspace(data.w_lo, data.w_hi, 41))
    for p in data.pieces:
        if p.kind == "power":
            x_ref = p.params["x_ref"]
            xs += [x_ref, x_ref - 1e-9, x_ref + 1e-9]
    for x in xs:
        assert W.primitive(x) == pytest.approx(_quad_primitive(data, x),
                                               rel=0.0, abs=1e-10)


@pytest.mark.parametrize("freq", [20.0, 200.0])
def test_general_primitive_resolves_fast_sine(freq):
    # a sin piece gets 64 panels per period, so W keeps up with fast
    # oscillation
    data = idata.InitialData(
        [idata.Piece(-2.0, 2.0, "sin", {"a": 1.0, "b": freq, "c": 0.0})],
        left_tail=0.0, right_tail=0.0)
    W = _NumericPrimitive(_cube, data)
    for x in np.linspace(-2.0, 2.0, 21):
        want = quad(lambda y: float(_cube(data.phi(y))), 0.0, x,
                    epsabs=1e-12, epsrel=1e-12, limit=2000)[0]
        assert W.primitive(x) == pytest.approx(want, rel=0.0, abs=1e-8)


@pytest.mark.parametrize("period", [None, 2.0])
def test_general_sampled_primitive_is_sampled_primitive(period):
    # U(phi) is piecewise constant between knots like phi itself, so W is
    # the sampled primitive of U(us), continuous at the last knot
    sd = idata.SampledData(_SX, _SU, period=period)
    W = GeneralProblem(_CUBE_PAIR, sd)._W
    want = idata.SampledData(_SX, _cube(_SU), period=period).primitive
    w_hi = sd.w_hi
    near = [np.nextafter(w_hi, -np.inf), w_hi, np.nextafter(w_hi, np.inf)]
    xs = np.concatenate([near, _SX, np.random.default_rng(14).uniform(
        sd.w_lo - 3.0, sd.w_hi + 3.0, 200)])
    assert W(xs).tobytes() == want(xs).tobytes()
    assert all(W(float(x)) == want(float(x)) for x in xs)
    assert np.abs(np.diff(W(np.array(near)))).max() <= 1e-12


_AGREE = {
    "one_piece_periodic": lambda: idata.sin_wave(c=0.5),
    "multi_piece_periodic": _BITWISE["initial_periodic"],
    "multi_piece_tailed": _BITWISE["initial_tailed"],
    "step": lambda: idata.step(1.0, -0.5, x0=0.25),
    "sampled_periodic": _BITWISE["sampled_periodic"],
    "sampled_tailed": _BITWISE["sampled_tailed"],
    "general_periodic": lambda: _general(
        idata.InitialData(_PIECES, period=2.0)),
    "general_tailed": lambda: _general(_BITWISE["initial_tailed"]()),
}


@functools.cache
def _built(case):
    return _AGREE[case]()


def _marks(d):
    """Window ends, knots or breaks, and exact multiples of the period."""
    if hasattr(d, "xs"):
        marks = list(d.xs)
    elif hasattr(d, "_breaks"):
        marks = list(d._breaks)
    else:
        marks = list(d._k)
    marks += [d.w_lo, d.w_hi, 0.0, -0.0]
    if d.period is not None:
        marks += [k * d.period for k in range(-4, 5)]
        marks += [d.w_lo + k * d.period for k in (-3, 1, 7)]
    return marks


@pytest.mark.parametrize("case", sorted(_AGREE))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_array_and_point_calls_agree_bitwise(case, data):
    d = _built(case)
    point = st.one_of(st.sampled_from(_marks(d)),
                      st.floats(d.w_lo - 10.0, d.w_hi + 10.0),
                      st.floats(-1e6, 1e6))
    xs = np.array(data.draw(st.lists(point, min_size=1, max_size=24)))
    for fn in (d.phi, d.primitive):
        one = np.array([fn(float(x)) for x in xs])
        assert fn(xs).tobytes() == one.tobytes()


_MIXED = {
    "periodic": _BITWISE["initial_periodic"],
    "zero_tails": lambda: idata.InitialData(_ALL_KINDS, left_tail=0.0,
                                            right_tail=0.0),
    "sampled_tailed": lambda: idata.SampledData(
        _KNOTS, np.concatenate([[0.0], _VALUES[1:-1], [0.0]])),
    "sampled_periodic": _BITWISE["sampled_periodic"],
    "step": lambda: idata.step(1.0, -0.5),
}


@pytest.mark.parametrize("case", sorted(_MIXED))
def test_nonfinite_entries_leave_finite_ones_alone(case):
    d = _MIXED[case]()
    xs = _probe_points(d)[:60]
    bad = np.array([np.nan, np.inf, -np.inf] * 5)
    mixed = np.random.default_rng(13).permutation(np.concatenate([xs, bad]))
    fin = np.isfinite(mixed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for fn in (d.phi, d.primitive):
            out = fn(mixed)
            assert out[fin].tobytes() == fn(mixed[fin]).tobytes()
            one = np.array([fn(float(x)) for x in mixed[~fin]])
            assert out[~fin].tobytes() == one.tobytes()
    if d.period is None:
        # +-inf lies in the tails
        assert d.phi(np.array([-np.inf, np.inf])).tolist() == [d.left_tail,
                                                               d.right_tail]


class _PlainKnots(idata.SampledData):
    """SampledData that finds every knot by binary search."""

    def _knot(self, r):
        return idata._interval(self.xs, r, len(self.xs) - 2)


def _jittered(n):
    # gaps within a factor 4 of each other
    gaps = np.random.default_rng(n).uniform(1.0, 4.0, n - 1) * 0.01
    return np.concatenate([[-1.3], -1.3 + np.cumsum(gaps)])


def _restart_knots(data):
    return Problem(flux.burgers(), data).restart(0.5).problem.data


_TABLES = {
    **{f"linspace_{n}": (lambda n=n: np.linspace(-2.0, 3.0, n))
       for n in (2, 17, 41, 4097, 16385)},
    "jittered_41": lambda: _jittered(41),
    "jittered_4097": lambda: _jittered(4097),
    "restart_sine": lambda: _restart_knots(idata.sin_wave()),
    "restart_step": lambda: _restart_knots(idata.step(1.0, -0.5)),
    # rounding puts two knots in one bucket here
    "two_pass_4": lambda: np.linspace(-1.0, 10.0, 4),
    "two_pass_10": lambda: np.linspace(0.3, 2.0, 10),
}


def _table_data(case):
    xs = _TABLES[case]()
    if isinstance(xs, idata.SampledData):
        return xs
    us = np.random.default_rng(len(xs)).uniform(-1.0, 1.0, len(xs))
    return idata.SampledData(xs, us)


def _locator_points(sd):
    """Every knot, every bucket edge, their float neighbours and 1e5 random
    points, all in the window [w_lo, w_hi] that ``_knot`` serves."""
    pts = [sd.xs]
    if sd._lut is not None:
        pts.append(sd.w_lo + np.arange(len(sd._lut) + 1) / sd._scale)
    pts = np.concatenate(pts)
    rand = np.random.default_rng(22).uniform(sd.w_lo, sd.w_hi, 100_000)
    pts = np.concatenate([pts, np.nextafter(pts, -np.inf),
                          np.nextafter(pts, np.inf), rand])
    return np.clip(pts, sd.w_lo, sd.w_hi)


@pytest.mark.parametrize("case", list(_TABLES))
def test_bucket_locator_matches_binary_search(case):
    sd = _table_data(case)
    assert sd._lut is not None
    assert sd._passes == (2 if case.startswith("two_pass") else 1)
    r = _locator_points(sd)
    want = idata._interval(sd.xs, r, len(sd.xs) - 2)
    assert sd._knot(r).tobytes() == want.tobytes()


def _knot_sets(rng, count):
    """Uniform, jittered, far-offset, dyadic and near-uniform knot sets."""
    for k in range(count):
        n = int(rng.integers(2, 60))
        kind = k % 5
        if kind == 0:
            xs = np.linspace(*np.sort(rng.uniform(-1e3, 1e3, 2)), n)
        elif kind == 1:
            g = rng.uniform(1.0, 4.0, n - 1) * 10.0 ** rng.uniform(-6, 3)
            xs = rng.uniform(-10, 10) + np.concatenate([[0.0], np.cumsum(g)])
        elif kind == 2:     # offsets up to 1e12 round every difference
            xs = 10.0 ** rng.uniform(3, 12) + np.concatenate(
                [[0.0], np.cumsum(rng.uniform(1.0, 2.0, n - 1))])
        elif kind == 3:
            xs = np.cumsum(np.concatenate(
                [[rng.integers(-5, 5)], rng.integers(1, 5, n - 1)])
            ) * 2.0 ** int(rng.integers(-30, 30))
        else:               # equal gaps but one, 1e-12 wider
            g = np.ones(n - 1)
            g[rng.integers(0, n - 1)] += rng.uniform(0.0, 1e-12)
            xs = (rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(0, 8)
                  + np.concatenate([[0.0], np.cumsum(g)])
                  * 10.0 ** rng.uniform(-3, 3))
        yield np.asarray(xs, dtype=float)


def test_bucket_table_takes_at_most_two_passes():
    # a bucket is no wider than the least gap, so it holds at most two
    # knots, two only by rounding
    rng = np.random.default_rng(44)
    passes = set()
    for xs in _knot_sets(rng, 2000):
        sd = idata.SampledData(xs, np.zeros_like(xs))
        if sd._lut is None:
            continue
        passes.add(sd._passes)
        edges = sd.w_lo + np.arange(len(sd._lut) + 1) / sd._scale
        r = np.concatenate([xs, edges])
        r = np.concatenate([r, np.nextafter(r, -np.inf),
                            np.nextafter(r, np.inf),
                            rng.uniform(sd.w_lo, sd.w_hi, 100)])
        r = np.clip(r, sd.w_lo, sd.w_hi)
        want = idata._interval(xs, r, len(xs) - 2)
        assert sd._knot(r).tobytes() == want.tobytes()
    assert passes == {1, 2}


@pytest.mark.parametrize("xs", [
    np.concatenate([[0.0], np.cumsum(0.5 ** np.arange(40))]),
    np.array([0.0, 1e-300, 1.0]),
    np.array([0.0, 5e-324, 1.0]),
], ids=["geometric", "tiny_gap", "subnormal_gap"])
def test_clustered_knots_fall_back_to_binary_search(xs):
    us = np.random.default_rng(3).uniform(-1.0, 1.0, len(xs))
    sd, plain = idata.SampledData(xs, us), _PlainKnots(xs, us)
    assert sd._lut is None
    r = _locator_points(sd)
    for fn in ("phi", "primitive"):
        assert (getattr(sd, fn)(r).tobytes()
                == getattr(plain, fn)(r).tobytes())
    for x0 in np.concatenate([xs, r[-50:]]).tolist():
        for side in ("left", "right"):
            assert sd.phi_side(x0, side) == plain.phi_side(x0, side)


@pytest.mark.parametrize("periodic", [False, True])
def test_bucket_table_data_match_binary_search_data(periodic):
    xs = _jittered(257)
    us = np.random.default_rng(5).uniform(-1.0, 1.0, len(xs))
    if periodic:
        us[-1] = us[0]
    period = xs[-1] - xs[0] if periodic else None
    sd, plain = (cls(xs, us, period=period)
                 for cls in (idata.SampledData, _PlainKnots))
    assert sd._lut is not None
    q = np.random.default_rng(6).uniform(-9.0, 9.0, 5000)
    for fn in ("phi", "primitive"):
        assert getattr(sd, fn)(q).tobytes() == getattr(plain, fn)(q).tobytes()


# -- the evaluators built at construction, against the rule written out -------
# ``phi`` and ``primitive`` are built once per data object.  Each case below
# is checked point by point against the extension rule and the closed forms
# written out in full, in the order of operations the evaluators take, so a
# value that moves by one ulp fails here; and each array call must equal its
# one-point calls bit for bit.

def _closed_form(p, x, integrated):
    """The piece term of phi at x, or its raw antiderivative."""
    q, x = p.params, np.asarray(x, dtype=float)
    if p.kind == "const":
        return q["c"] * x if integrated else np.full_like(x, q["c"])
    if p.kind == "poly":
        cs = np.asarray(q["coeffs"], dtype=float)
        if integrated:
            cs = np.polynomial.polynomial.polyint(cs)
        return np.polynomial.polynomial.polyval(x, cs)
    if p.kind in ("sin", "cos"):
        a, b, c = q["a"], q["b"], q["c"]
        if p.kind == "sin":
            return (-a / b * np.cos(b * x + c) if integrated
                    else a * np.sin(b * x + c))
        return a / b * np.sin(b * x + c) if integrated else a * np.cos(b * x + c)
    s, a, g, b = x - q["x_ref"], q["a"], q["g"], q.get("b", 0.0)
    if integrated:
        return a * np.abs(s) ** (1.0 + g) / (1.0 + g) + b * x
    return a * np.sign(s) * np.abs(s) ** g + b


def _piece_inner(d, integrated):
    """phi, or the stitched primitive, of InitialData at one window point."""
    ps, offs, run = d.pieces, [], 0.0
    for p in ps:
        lo = float(_closed_form(p, p.lo, True))
        offs.append(run - lo)
        run = run + float(_closed_form(p, p.hi, True)) - lo

    def inner(r):
        if not ps:
            return np.zeros_like(r)
        i = min(max(int(np.searchsorted(d._breaks, r[0], "right")) - 1, 0),
                len(ps) - 1)
        v = _closed_form(ps[i], r, integrated)
        return v + offs[i] if integrated else v
    return inner, run


def _sampled_inner(d, integrated):
    """phi, or the piecewise-linear primitive, of SampledData at one window
    point, its knot found by binary search."""
    xs, us = d.xs, d.us
    P = np.concatenate([[0.0], np.cumsum(us[:-1] * np.diff(xs))])

    def inner(r):
        i = min(max(int(np.searchsorted(xs, r[0], "right")) - 1, 0),
                len(xs) - 2)
        return P[i] + us[i] * (r - xs[i]) if integrated else np.full_like(r, us[i])
    return inner, P[-1]


def _numeric_inner(W, integrated):
    """U(phi), or W by the knot table and a Simpson step, at one point."""
    phi, _ = _piece_inner(W._d, False)

    def f(r):
        return W._U(phi(r))

    def inner(r):
        if not integrated:
            return f(r)
        i = min(max(int(np.searchsorted(W._k, r[0], "right")) - 1, 0),
                len(W._k) - 2)
        h = r - W._k[i]
        return W._v[i] + h / 6.0 * (W._fk[i] + 4.0 * f(W._k[i] + 0.5 * h)
                                     + f(r))
    return inner, W._v[-1]


def _rule(d, x, integrated, norm=0.0):
    """phi(x), or Phi(x) - norm, at one finite x: the window's values
    tiled by the period or continued by the tails."""
    if isinstance(d, _NumericPrimitive):
        inner, win = _numeric_inner(d, integrated)
    elif d.is_sampled:
        inner, win = _sampled_inner(d, integrated)
    else:
        inner, win = _piece_inner(d, integrated)
    x = np.array([x])
    if d.period is not None:
        k = np.floor((x - d.w_lo) / d.period)
        r = np.minimum(d.w_hi, np.maximum(d.w_lo, x - k * d.period))
        out = inner(r) + k * win if integrated else inner(r)
    elif x[0] < d.w_lo:
        out = (d.left_tail * (x - d.w_lo) if integrated
               else np.full_like(x, d.left_tail))
    elif x[0] > d.w_hi or (x[0] == d.w_hi and d._tail_from_w_hi):
        out = (win + d.right_tail * (x - d.w_hi) if integrated
               else np.full_like(x, d.right_tail))
    else:
        out = inner(x)
    return float((out - norm)[0] if integrated else out[0])


def _one_kind(p, period):
    if p.kind == "power":          # x_ref inside the piece
        p = idata.Piece(2.0, 3.0, "power", p.params)
    else:
        p = idata.Piece(-1.0, 1.5, p.kind, p.params)
    if period:
        return idata.InitialData([p], period=p.hi - p.lo)
    return idata.InitialData([p], left_tail=-0.4, right_tail=0.6)


_EVALUATORS = {
    **{f"{p.kind}_{'periodic' if per else 'tailed'}":
       (lambda p=p, per=per: _one_kind(p, per))
       for p in _ALL_KINDS for per in (False, True)},
    "all_kinds_periodic": _BITWISE["initial_periodic"],
    "all_kinds_tailed": _BITWISE["initial_tailed"],
    "sin_wave": lambda: idata.sin_wave(0.7, 3.0, 0.5),
    "step": lambda: idata.step(1.0, -0.5, x0=0.25),
    "sampled_buckets": _BITWISE["sampled_tailed"],
    "sampled_buckets_periodic": _BITWISE["sampled_periodic"],
    "sampled_clustered": lambda: idata.SampledData(
        [0.0, 1e-9, 1e-6, 0.5, 1.0], [1.0, -1.0, 0.5, 0.2, 0.7], period=1.0),
    "numeric_periodic": lambda: _general(_BITWISE["initial_periodic"]()),
    "numeric_tailed": lambda: _general(_BITWISE["initial_tailed"]()),
}


@pytest.mark.parametrize("case", sorted(_EVALUATORS))
def test_evaluators_follow_the_rule_bitwise(case):
    d = _EVALUATORS[case]()
    if case.startswith("sampled_buckets"):
        assert d._lut is not None
    if case == "sampled_clustered":
        assert d._lut is None
    rng = np.random.default_rng(45)
    xs = np.concatenate([_marks(d), rng.uniform(d.w_lo - 9.0, d.w_hi + 9.0,
                                                150)])
    xs = np.concatenate([xs, np.nextafter(xs, np.inf),
                         np.nextafter(xs, -np.inf)])
    norm = _rule(d, 0.0, True)
    for fn, integrated in ((d.phi, False), (d.primitive, True)):
        want = np.array([_rule(d, x, integrated, norm) for x in xs.tolist()])
        one = np.array([fn(x) for x in xs.tolist()])
        assert one.tobytes() == want.tobytes()
        assert fn(xs).tobytes() == want.tobytes()
        assert fn(xs.reshape(3, -1)).tobytes() == want.tobytes()
        assert fn(xs[:0]).shape == (0,)


@pytest.mark.parametrize("case", sorted(_EVALUATORS))
def test_evaluators_keep_the_non_finite_contract(case):
    # NaN gives NaN; +-inf gives NaN on periodic data and the tail's limit
    # on tailed data; on periodic data |x| >= _x_max raises.  No warning
    d = _EVALUATORS[case]()
    inside = 0.5 * (d.w_lo + d.w_hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for fn, integrated in ((d.phi, False), (d.primitive, True)):
            out = fn(np.array([np.nan, inside, -np.inf, np.inf]))
            assert np.isnan(out[0]) and out[1] == fn(inside)
            if d.period is not None:
                assert np.isnan(out[2:]).all()
                for x in (d._x_max, -d._x_max, 2.0 * d._x_max):
                    with pytest.raises(ValueError, match="periodic data"):
                        fn(np.array([inside, x]))
                assert np.isfinite(fn(np.nextafter(d._x_max, 0.0)))
            elif integrated:
                # Phi runs out along the tails' lines, of nonzero slopes here
                assert out[2:].tolist() == [-np.inf * np.sign(d.left_tail),
                                            np.inf * np.sign(d.right_tail)]
            else:
                assert out[2:].tolist() == [d.left_tail, d.right_tail]


def _const(lo, hi, c=1.0):
    return idata.Piece(lo, hi, "const", {"c": c})


@pytest.mark.parametrize("build, match", [
    (lambda: idata.SampledData([0.0, 1.0, 2.0], [0.0, 1.0]), "matching"),
    (lambda: idata.SampledData([0.0], [1.0]), "matching"),
    (lambda: idata.SampledData([[0.0, 1.0]], [[0.0, 1.0]]), "matching"),
    (lambda: idata.SampledData([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]),
     "strictly increasing"),
    (lambda: idata.SampledData([0.0, 2.0, 1.0], [0.0, 1.0, 2.0]),
     "strictly increasing"),
    (lambda: idata.InitialData([_const(-1.0, 0.0), _const(0.5, 1.0)],
                               left_tail=0.0, right_tail=0.0), "contiguous"),
    (lambda: idata.InitialData([_const(-1.0, 1.0)], left_tail=0.0),
     "both constant tails"),
    (lambda: idata.InitialData([_const(-1.0, 1.0)], right_tail=0.0),
     "both constant tails"),
    (lambda: idata.InitialData([idata.Piece(-1.0, 1.0, "power", {
        "a": 1.0, "g": -0.5, "x_ref": 0.0})], left_tail=0.0, right_tail=0.0),
     "g >= 0"),
    (lambda: idata.InitialData([idata.Piece(-1.0, 1.0, "tanh", {"a": 1.0})],
                               left_tail=0.0, right_tail=0.0),
     "unknown piece kind")],
    ids=["sampled_mismatch", "sampled_short", "sampled_2d", "sampled_repeat",
         "sampled_decreasing", "gap_between_pieces", "no_right_tail",
         "no_left_tail", "negative_power", "unknown_kind"])
def test_data_reject_malformed_input(build, match):
    with pytest.raises(ValueError, match=match):
        build()
