import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from laxo import flux
from laxo.errors import BracketError, FitError
from laxo.flux import GeneralFluxPair

_NAMED = {"burgers": flux.burgers, "power2n_2": lambda: flux.power2n(2),
          "power2n_3": lambda: flux.power2n(3),
          "exponential": lambda: flux.exponential(0.7)}


@pytest.fixture(scope="module")
def quartic():
    return flux.power2n(2)


def test_normalization_and_eval():
    for fl in (flux.burgers(), flux.power2n(2), flux.exponential(1.0)):
        assert fl.eval(0.0) == pytest.approx(0.0, abs=1e-15)
    assert flux.burgers().eval(2.0) == pytest.approx(2.0)
    assert flux.power2n(2).eval(1.0) == pytest.approx(0.25)
    assert flux.exponential(1.0).eval(1.0) == pytest.approx(np.e - 1.0)


def test_invert_deriv_examples(quartic):
    assert flux.burgers().invert_deriv(0.5, (-2, 2)) == pytest.approx(0.5, abs=1e-10)
    assert quartic.invert_deriv(1.0, (0, 2)) == pytest.approx(1.0, abs=1e-10)
    assert flux.exponential(1.0).invert_deriv(2.0) == pytest.approx(np.log(2.0), abs=1e-10)


def test_invert_deriv_bracket_error():
    with pytest.raises(BracketError):
        flux.exponential(1.0).invert_deriv(-0.5)  # e^u is never negative


def test_invert_deriv_rejects_nan():
    with pytest.raises(BracketError):
        flux.burgers().invert_deriv(float("nan"))
    with pytest.raises(BracketError):
        flux.burgers().invert_deriv(np.array([0.5, np.nan]))


def test_invert_deriv_vectorized(quartic):
    v = np.array([-1.0, 0.0, 0.125, 1.0])
    u = quartic.invert_deriv(v, (-2, 2))
    assert np.allclose(quartic.deriv(u), v, atol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("arg", range(2))
def test_rho_rejects_non_finite_arguments(arg, bad):
    # rho(nan, 0) returned nan, and rho(inf, 0) warned "invalid value
    # encountered in scalar subtract"
    args = [0.5, 0.0]
    args[arg] = bad
    with pytest.raises(ValueError, match="must be finite"):
        flux.burgers().rho(*args)


@pytest.mark.parametrize("kind", sorted(_NAMED))
def test_invert_deriv_closed_form_matches_bisection(kind):
    # the custom twin has the same f, f', f'' and inverts f' by bisection
    fl = _NAMED[kind]()
    twin = flux.custom(fl.eval, fl.deriv, fl.second)
    for lo, hi in ((-2.0, 2.0), (-0.5, 1.5), (0.25, 3.0)):
        v = np.linspace(fl.deriv(lo), fl.deriv(hi), 41)   # ends included
        got = fl.invert_deriv(v, (lo, hi))
        assert np.max(np.abs(got - twin.invert_deriv(v, (lo, hi)))) <= 1e-12
        assert got[0] == pytest.approx(lo, abs=1e-12)
        assert got[-1] == pytest.approx(hi, abs=1e-12)


@pytest.mark.parametrize("kind", sorted(_NAMED))
def test_custom_invert_deriv_array_equals_scalar_calls(kind):
    # every v is bisected in lockstep: each must get the float its own
    # one-value search gives, bracket ends and tolerated overshoot included
    fl = _NAMED[kind]()
    twin = flux.custom(fl.eval, fl.deriv, fl.second)
    rng = np.random.default_rng(3)
    for lo, hi in ((-2.0, 2.0), (0.25, 3.0), flux.DOMAIN):
        flo, fhi = float(fl.deriv(lo)), float(fl.deriv(hi))
        v = np.concatenate([
            [flo, fhi, flo - 0.5 * flux.TOL_V, fhi + 0.5 * flux.TOL_V],
            rng.uniform(flo, fhi, 40), [flo, fhi]])
        got = twin.invert_deriv(v, (lo, hi))
        ref = np.array([twin.invert_deriv(float(x), (lo, hi)) for x in v])
        assert got.view(np.int64).tolist() == ref.view(np.int64).tolist()


def test_invert_deriv_tolerated_overshoot_stays_in_bracket():
    # values within TOL_V outside the image map to the bracket ends; e^(2u)
    # is never negative, and log of a negative value must not be taken
    assert flux.exponential(2.0).invert_deriv(-5e-11) == -16.0
    u = flux.exponential(2.0).invert_deriv(np.array([-5e-11, np.exp(32.0)]))
    assert np.all((-16.0 <= u) & (u <= 16.0))
    for fl in (flux.burgers(), flux.power2n(2)):
        lo, hi = -1.0, 2.0
        u = fl.invert_deriv(np.array([fl.deriv(lo) - 5e-11,
                                      fl.deriv(hi) + 5e-11]), (lo, hi))
        assert list(u) == [lo, hi]


@settings(max_examples=200, deadline=None)
@given(st.floats(-8.0, 8.0))
def test_invert_roundtrip_burgers(v):
    fl = flux.burgers()
    assert fl.deriv(fl.invert_deriv(v)) == pytest.approx(v, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.floats(-3.0, 3.0))
def test_invert_roundtrip_quartic(v):
    fl = flux.power2n(2)
    u = fl.invert_deriv(v, (-2, 2))
    assert fl.deriv(u) == pytest.approx(v, abs=1e-9)


def test_rho_examples(quartic):
    b = flux.burgers()
    assert b.rho(1.0, 0.0) == pytest.approx(0.5, abs=1e-10)
    assert b.rho(0.3, 0.3) == 0.3
    # int_0^1 3 s^3 ds / int_0^1 3 s^2 ds = (3/4) / 1
    assert quartic.rho(1.0, 0.0) == pytest.approx(0.75, abs=1e-9)


@pytest.mark.parametrize("kind", sorted(_NAMED))
def test_rho_argument_order(kind):
    # the denominator is taken on the ordered pair, so u < v is no error
    fl = _NAMED[kind]()
    for u, v in ((0.0, 1.0), (-1.2, 0.4), (0.3, 1.9), (-1.5, -0.2)):
        assert fl.rho(u, v) == fl.rho(v, u)
        assert u < fl.rho(u, v) < v
    # nearly equal arguments: rounding must not leave the interval
    for u in (-1.9, 0.7, 1.9):
        v = u + 3e-9
        assert fl.rho(u, v) == fl.rho(v, u)
        assert u <= fl.rho(u, v) <= v


@settings(max_examples=100, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_rho_symmetry_and_bounds(u, v):
    fl = flux.power2n(2)
    if abs(u - v) < 1e-6:
        return
    r1, r2 = fl.rho(u, v), fl.rho(v, u)
    assert r1 == pytest.approx(r2, abs=1e-8)
    assert min(u, v) - 1e-9 <= r1 <= max(u, v) + 1e-9


def test_rho_closed_form_oracle(quartic):
    # exact identity: int_v^u s f'' ds = u f'(u) - v f'(v) - (f(u) - f(v))
    rng = np.random.default_rng(7)
    for fl in (flux.burgers(), quartic, flux.exponential(0.7)):
        for _ in range(20):
            u, v = rng.uniform(-1.5, 1.5, 2)
            if abs(u - v) < 1e-3:
                continue
            num = u * fl.deriv(u) - v * fl.deriv(v) - (fl.eval(u) - fl.eval(v))
            den = fl.deriv(u) - fl.deriv(v)
            assert fl.rho(u, v) == pytest.approx(num / den, abs=1e-8)


def test_fit_degeneracy_builtin(quartic):
    d = flux.burgers().fit_degeneracy(0.0)
    assert (d.alpha, d.N) == (0.0, 1.0)
    d = quartic.fit_degeneracy(0.0, "left")
    assert (d.alpha, d.N) == (2.0, 3.0)
    d = flux.exponential(1.0).fit_degeneracy(0.0)
    assert d.alpha == 0.0 and d.N == pytest.approx(1.0)
    d = quartic.fit_degeneracy(0.5)
    assert d.alpha == 0.0 and d.N == pytest.approx(3 * 0.25)


def _exp07_twin():
    k = 0.7
    return flux.custom(lambda u: np.exp(k * np.asarray(u, dtype=float)) / k,
                       lambda u: np.exp(k * np.asarray(u, dtype=float)),
                       lambda u: k * np.exp(k * np.asarray(u, dtype=float)))


def test_fit_degeneracy_is_second_derivative_where_positive():
    # f''(c) > 0 gives (0, f''(c)) for every kind: exponential(k) has
    # f'' = k e^{kc}, not k^2 e^{kc}, and a custom twin is not fitted
    for fl in (flux.exponential(0.7), _exp07_twin()):
        for c, side in ((0.3, "right"), (0.0, "left"), (-1.5, "right")):
            d = fl.fit_degeneracy(c, side)
            assert d.alpha == 0.0
            assert d.N == pytest.approx(0.7 * math.exp(0.7 * c), rel=1e-14)
    d = _exp07_twin().fit_degeneracy(0.0)
    assert (d.alpha, d.N) == (0.0, 0.7)


def test_fit_degeneracy_rejects_bad_input(quartic):
    for fl in (quartic, flux.burgers(), _exp07_twin()):
        for c in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                fl.fit_degeneracy(c, "right")
        with pytest.raises(ValueError):
            fl.fit_degeneracy(0.0, "up")


def test_fit_degeneracy_custom_numeric():
    fl = flux.custom(lambda u: np.abs(u) ** 4 / 4.0,
                     lambda u: np.sign(u) * np.abs(u) ** 3,
                     lambda u: 3.0 * np.abs(u) ** 2)
    d = fl.fit_degeneracy(0.0, "right")
    assert d.alpha == pytest.approx(2.0, rel=1e-3)
    assert d.N == pytest.approx(3.0, rel=1e-2)


def test_fit_degeneracy_flat_raises():
    fl = flux.custom(lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                     lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                     lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    with pytest.raises(FitError):
        fl.fit_degeneracy(0.0, "right")


def test_rho_expansion_ratio(quartic):
    # (rho(u,c)-c)/(u-c) -> (1+alpha)/(2+alpha) as u->c
    for fl, alpha in ((flux.burgers(), 0.0), (quartic, 2.0)):
        target = (1 + alpha) / (2 + alpha)
        for du in (1e-2, 1e-3, 1e-4):
            got = (fl.rho(du, 0.0) - 0.0) / du
            assert got == pytest.approx(target, rel=0.05)


def test_deriv_expansion_consistency(quartic):
    # |f'(u)-f'(c)| ~ N/(1+alpha) |u-c|^{1+alpha}
    for fl in (flux.burgers(), quartic):
        d = fl.fit_degeneracy(0.0, "right")
        for du in (1e-2, 1e-3, 1e-4):
            pred = d.N / (1 + d.alpha) * du ** (1 + d.alpha)
            assert abs(fl.deriv(du) - fl.deriv(0.0)) == pytest.approx(pred, rel=0.05)


def test_second_nonnegative_and_deriv_monotone(quartic):
    u = np.linspace(-3, 3, 301)
    for fl in (flux.burgers(), quartic, flux.exponential(0.5)):
        assert np.all(fl.second(u) >= 0)
        assert np.all(np.diff(fl.deriv(u)) > 0)


def test_descriptor_roundtrip():
    for fl in (flux.burgers(), flux.power2n(3), flux.exponential(2.0)):
        d = flux.to_descriptor(fl)
        fl2 = flux.from_descriptor(d)
        assert fl2.kind == fl.kind
        assert fl2.eval(0.7) == pytest.approx(fl.eval(0.7))


def _arr(u):
    return np.asarray(u, dtype=float)


# (U, U', H) of pairs given without F
_H_ONLY = {
    "cube_U_identity_H": (lambda u: _arr(u) ** 3 + _arr(u),
                          lambda u: 3.0 * _arr(u) ** 2 + 1.0, _arr),
    "exp_U_cube_H": (lambda u: np.exp(_arr(u) / 2.0),
                     lambda u: 0.5 * np.exp(_arr(u) / 2.0),
                     lambda u: _arr(u) ** 3 + _arr(u)),
}


@pytest.mark.parametrize("name", sorted(_H_ONLY))
def test_general_pair_F_matches_quad(name):
    # F = int_0^u H U' ds by Gauss-Legendre against adaptive quadrature
    U, Up, H = _H_ONLY[name]
    pair = GeneralFluxPair(U, Up, H=H)
    us = np.linspace(-2.5, 2.5, 21)
    want = np.array([quad(lambda s: float(H(s) * Up(s)), 0.0, u,
                          epsabs=1e-13, epsrel=1e-13)[0] for u in us])
    assert np.max(np.abs(pair.F(us) - want)) <= 1e-12
    assert pair.F(float(us[3])) == pytest.approx(want[3], abs=1e-12)
    assert pair.F(0.0) == 0.0


_RHO_FLUXES = dict(_NAMED, power2n_4=lambda: flux.power2n(4),
                   exponential_2=lambda: flux.exponential(2.0))


@pytest.mark.parametrize("kind", sorted(_RHO_FLUXES))
def test_rho_narrow_intervals_against_gauss_reference(kind):
    # the closed form cancels as v -> u; against a 30-point Gauss-Legendre
    # ratio of int s f'' and int f'' on [lo, hi], at widths 1e-9 to 1
    fl = _RHO_FLUXES[kind]()
    xg, wg = np.polynomial.legendre.leggauss(30)
    rng = np.random.default_rng(11)
    for width in 10.0 ** np.arange(-9.0, 0.5, 0.5):
        for lo in rng.uniform(-3.0, 3.0 - width, 20):
            hi = lo + width
            s = 0.5 * (lo + hi) + 0.5 * width * xg
            w = wg * fl.second(s)
            want = (w @ s) / np.sum(w)
            assert abs(fl.rho(lo, hi) - want) <= 1e-13
            assert abs(fl.rho(hi, lo) - want) <= 1e-13


@pytest.mark.parametrize("fl", [
    flux.custom(lambda u: u ** 4 / 4.0, lambda u: u ** 3,
                lambda u: 3.0 * u ** 2),
    flux.custom(flux.burgers().eval, flux.burgers().deriv,
                flux.burgers().second)], ids=["quartic", "burgers_like"])
def test_custom_flux_has_no_descriptor(fl):
    # a custom flux is code, not data: even one that acts as Burgers
    with pytest.raises(ValueError, match="no JSON descriptor"):
        flux.to_descriptor(fl)
