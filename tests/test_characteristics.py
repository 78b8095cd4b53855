import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laxo import flux, initial_data as idata
from laxo.characteristics import (
    T_CAP, T_TOL, CharacteristicAnalyzer, F_l, phi_l)
from laxo.errors import BracketError
from laxo.variational_core import Problem


@pytest.fixture(scope="module")
def sin_analyzer():
    return CharacteristicAnalyzer(Problem(flux.burgers(), idata.sin_wave()))


@pytest.fixture(scope="module")
def riemann_down_analyzer():
    return CharacteristicAnalyzer(Problem(flux.burgers(), idata.step(1.0, 0.0)))


def test_phi_l_examples():
    assert phi_l(idata.sin_wave(), np.pi, 0.0, 0.0) == pytest.approx(-2.0)
    assert phi_l(idata.sin_wave(), 0.0, 0.3, 0.7) == 0.0
    d = idata.step(1.0, 0.0)
    assert phi_l(d, -2.0, 0.0, 0.5) == pytest.approx(-1.0)   # int of (1-0.5)
    assert phi_l(d, 2.0, 0.0, 0.5) == pytest.approx(-1.0)


def test_F_l_burgers_closed_form():
    b = flux.burgers()
    for l, t in ((0.3, 2.0), (-0.7, 0.5), (1.1, 3.0)):
        assert F_l(b, l, t, 0.0) == pytest.approx(-l * l / (2 * t), abs=1e-12)
    assert F_l(b, 0.0, 1.0, 0.4) == 0.0


def test_F_l_quadrature_oracle():
    # independent check of the closed form against dense quadrature
    fl = flux.power2n(2)
    c, l, t = 0.3, -0.4, 1.7
    u = fl.invert_deriv(fl.deriv(c) - l / t)
    s = np.linspace(c, u, 200001)
    oracle = -t * np.trapezoid((s - c) * fl.second(s), s)
    assert F_l(fl, l, t, c) == pytest.approx(oracle, abs=1e-10)


def test_F_l_bracket_error():
    with pytest.raises(BracketError):
        F_l(flux.exponential(1.0), 10.0, 1e-3, 0.0)   # f' > 0 everywhere


def test_spectrum_pure_shock(riemann_down_analyzer):
    sp = riemann_down_analyzer.char_spectrum(0.0)
    assert sp.kind == "empty"
    assert (sp.a, sp.b) == (1.0, 0.0)
    assert riemann_down_analyzer.classify_initial_wave(0.0) == "S"


def test_spectrum_rarefaction():
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), idata.step(-1.0, 1.0)))
    sp = ca.char_spectrum(0.0)
    assert sp.kind == "closed_interval"
    assert sp.includes_a and sp.includes_b
    assert (sp.a, sp.b) == (-1.0, 1.0)
    assert ca.classify_initial_wave(0.0) == "R"


def test_spectrum_singleton(sin_analyzer):
    sp = sin_analyzer.char_spectrum(0.0)
    assert sp.kind == "singleton"
    assert sp.a == pytest.approx(0.0) and sp.b == pytest.approx(0.0)
    assert sin_analyzer.classify_initial_wave(0.0) == "characteristic"


def test_spectrum_just_left_of_period_boundary(sin_analyzer):
    # the right-side limit wraps across the period instead of reading a
    # tail that periodic data does not have
    near = sin_analyzer.char_spectrum(np.pi - 5e-15)
    assert near.kind == sin_analyzer.char_spectrum(np.pi).kind


@pytest.mark.parametrize("x0, c", [(0.0, np.nan), (0.0, np.inf),
                                   (0.0, -np.inf), (np.nan, 0.0)])
def test_lifespan_upper_rejects_non_finite(sin_analyzer, x0, c):
    # as lifespans does; c = NaN gave (1.0, 1.0)
    with pytest.raises(ValueError, match="x0 and c must be finite"):
        sin_analyzer.lifespan_upper(x0, c)


@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
def test_spectrum_rejects_nonfinite_x0(sin_analyzer, x0):
    # periodic data has no tail for a NaN reduction to fall through to
    with pytest.raises(ValueError):
        sin_analyzer.char_spectrum(x0)
    with pytest.raises(ValueError):
        sin_analyzer.data.phi_side(x0, "right")


def test_spectrum_srs_with_root_data():
    # sqrt-steep decrease on both sides of an up-jump: gamma = 1/2 gives
    # gamma (1 + alpha) = 1/2 < 1 with C < 0, so both endpoints drop out
    d = idata.InitialData(
        [idata.Piece(-1.0, 0.0, "power",
                     {"a": -1.0, "g": 0.5, "x_ref": 0.0, "b": -1.0}),
         idata.Piece(0.0, 1.0, "power",
                     {"a": -1.0, "g": 0.5, "x_ref": 0.0, "b": 1.0})],
        left_tail=0.0, right_tail=0.0)
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), d))
    sp = ca.char_spectrum(0.0)
    assert sp.kind == "open_interval"
    assert (sp.a, sp.b) == (-1.0, 1.0)
    assert ca.classify_initial_wave(0.0) == "S+R+S"


def test_spectrum_one_sided_exclusion():
    # down-steep only on the right of the up-jump -> R+S
    d = idata.InitialData(
        [idata.Piece(-1.0, 0.0, "const", {"c": -1.0}),
         idata.Piece(0.0, 1.0, "power",
                     {"a": -1.0, "g": 0.5, "x_ref": 0.0, "b": 1.0})],
        left_tail=-1.0, right_tail=0.0)
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), d))
    sp = ca.char_spectrum(0.0)
    assert sp.kind == "half_open_right"
    assert sp.includes_a and not sp.includes_b
    assert ca.classify_initial_wave(0.0) == "R+S"


def test_spectrum_one_sided_exclusion_mirrored():
    # the mirror image: down-steep only on the left of the up-jump -> S+R
    d = idata.InitialData(
        [idata.Piece(-1.0, 0.0, "power",
                     {"a": -1.0, "g": 0.5, "x_ref": 0.0, "b": -1.0}),
         idata.Piece(0.0, 1.0, "const", {"c": 1.0})],
        left_tail=0.0, right_tail=1.0)
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), d))
    sp = ca.char_spectrum(0.0)
    assert sp.kind == "half_open_left"
    assert sp.includes_b and not sp.includes_a
    assert ca.classify_initial_wave(0.0) == "S+R"


def test_linear_sides_keep_endpoints():
    # gamma = 1 with alpha = 0 sits exactly on the threshold
    # gamma(1+alpha) = 1, which keeps both endpoints
    d = idata.InitialData(
        [idata.Piece(-1.0, 0.0, "poly", {"coeffs": [-1.0, -1.0]}),
         idata.Piece(0.0, 1.0, "poly", {"coeffs": [1.0, -1.0]})],
        left_tail=0.0, right_tail=0.0)
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), d))
    assert ca.char_spectrum(0.0).kind == "closed_interval"
    assert ca.classify_initial_wave(0.0) == "R"


def test_lifespan_upper(sin_analyzer):
    assert sin_analyzer.lifespan_upper(0.0, 0.0) == (1.0, 1.0)
    # phi' = -2 at the crest of -2 sin x scaled: use poly data
    d = idata.InitialData([idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, -2.0]})],
                          left_tail=2.0, right_tail=-2.0)
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), d))
    assert ca.lifespan_upper(0.0, 0.0) == (0.5, 0.5)


def test_lifespan_upper_degenerate_flux():
    # f = u^4/4 with cube-root data: gamma (1+alpha) = 1, t_p = 1
    d = idata.InitialData(
        [idata.Piece(-1.0, 1.0, "power", {"a": -1.0, "g": 1.0 / 3.0, "x_ref": 0.0})],
        left_tail=1.0, right_tail=-1.0)
    ca = CharacteristicAnalyzer(Problem(flux.power2n(2), d))
    assert ca.lifespan_upper(0.0, 0.0) == (1.0, 1.0)


def test_lifespan_upper_infinite_sides(riemann_down_analyzer):
    # constant data on both sides of the queried characteristic
    assert riemann_down_analyzer.lifespan_upper(-1.0, 1.0) == (np.inf, np.inf)


def test_lifespan_exact_symmetric_compression(sin_analyzer):
    t = sin_analyzer.lifespan_exact(0.0, 0.0)
    assert t == pytest.approx(1.0, abs=1e-4)


def test_lifespan_exact_collision(riemann_down_analyzer):
    # x = -1 + t meets the shock x = t/2 at t = 2
    t = riemann_down_analyzer.lifespan_exact(-1.0, 1.0)
    assert t == pytest.approx(2.0, abs=1e-6)


def test_lifespan_exact_immortal():
    const = Problem(flux.burgers(),
                    idata.InitialData([], left_tail=0.5, right_tail=0.5,
                                      window=(0.0, 0.0)))
    ca = CharacteristicAnalyzer(const)
    assert ca.lifespan_exact(0.0, 0.5) == np.inf


def _on_sequential(ca, x0, c, t):
    """The membership test of one t: a scalar maximize and eval_E."""
    p = ca.problem
    x = x0 + t * ca.flux.deriv(c)
    ms = p.maximize(x, t)
    tol = min(p.val_tol, 1e-12 * (1.0 + abs(ms.max_value)))
    return ms.max_value - p.eval_E(c, x, t) <= tol


def _bisect_loop(pred, a, b, tol):
    """Reference: the one-step bisection loop on a scalar predicate."""
    while abs(b - a) > tol:
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if pred(m):
            a = m
        else:
            b = m
    return a, b


def _lifespan_sequential(ca, x0, c):
    """The one-row lifespan loop, as t* with T_CAP probed first and last.

    Probed first, T_CAP decides alone whether t* is infinite; probed last,
    it is read only when every doubling stayed on the characteristic.
    """
    cap = _on_sequential(ca, x0, c, T_CAP)
    lo, hi = 0.0, T_CAP
    t = 1.0
    while t < T_CAP:
        if _on_sequential(ca, x0, c, t):
            lo = t
        else:
            hi = t
            break
        t *= 2.0
    if cap and hi == T_CAP:
        return np.inf, np.inf
    lo, hi = _bisect_loop(lambda m: _on_sequential(ca, x0, c, m), lo, hi,
                          T_TOL)
    t_star = 0.5 * (lo + hi)
    return (np.inf if cap else t_star), t_star


def _sampled_17():
    us = np.random.default_rng(17).uniform(-1.0, 1.0, 15)
    return idata.SampledData(np.linspace(-2.0, 2.0, 17),
                             np.concatenate([[0.0], us, [0.0]]))


_LIFESPAN_CA = {
    "burgers_sine": CharacteristicAnalyzer(
        Problem(flux.burgers(), idata.sin_wave())),
    "quartic_sine": CharacteristicAnalyzer(
        Problem(flux.power2n(2), idata.sin_wave())),
    "step_down": CharacteristicAnalyzer(
        Problem(flux.burgers(), idata.step(1.0, -1.0))),
    "sampled": CharacteristicAnalyzer(Problem(flux.burgers(), _sampled_17())),
    "constant": CharacteristicAnalyzer(Problem(
        flux.burgers(), idata.InitialData([], left_tail=0.5, right_tail=0.5,
                                          window=(0.0, 0.0)))),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lifespan_exact_equals_sequential_loop(data):
    # the blocks give the t* of the one-row loop, bit for bit; T_CAP first
    # differs only where its aliased scan reads c as a maximizer at T_CAP
    # although a doubling already left the characteristic
    ca = _LIFESPAN_CA[data.draw(st.sampled_from(sorted(_LIFESPAN_CA)))]
    x0 = data.draw(st.floats(-3.0, 3.0))
    c = (float(ca.data.phi(x0)) if data.draw(st.booleans())
         else data.draw(st.floats(-1.2, 1.2)))
    first, last = _lifespan_sequential(ca, x0, c)
    got = ca.lifespan_exact(x0, c)
    assert got == last
    assert got == first or (first == np.inf and got < 8192.0)


def test_lifespan_exact_tailed_data_past_the_aliased_cap():
    # the zero right tail of the sampled data carries x = 2.9768 until the
    # data's waves reach it between t = 2.6 and 2.7; at T_CAP the 2 049-point
    # u-scan steps over the whole window and reads c = 0 as the maximizer,
    # so the loop that probed T_CAP first answered inf here
    ca = _LIFESPAN_CA["sampled"]
    x0 = 2.976847140711767
    assert _on_sequential(ca, x0, 0.0, T_CAP)
    assert 2.6 < ca.lifespan_exact(x0, 0.0) < 2.7


def _spy_blocks(monkeypatch, ca):
    """Record the t array and the result of every block ``ca.problem``
    maximizes."""
    p = ca.problem
    block = p._maximize_block
    seen = []

    def spy(xs, t, start, width):
        out = block(xs, t, start, width)
        seen.append((np.array(t, dtype=float, ndmin=1), out))
        return out

    monkeypatch.setattr(p, "_maximize_block", spy)
    return seen


@pytest.mark.parametrize("x0", [-2.5, -1.7, -0.3, 0.3, 0.9, 1.6, 2.2, 2.5])
def test_lifespan_exact_blocks(monkeypatch, x0):
    # the bench's lifespans on -sin x: no T_CAP row once a doubling fails,
    # at most 12 blocks, at most 7 rows each
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), idata.sin_wave()))
    seen = _spy_blocks(monkeypatch, ca)
    t = ca.lifespan_exact(x0, -np.sin(x0))
    assert t == pytest.approx(x0 / np.sin(x0), abs=1e-4)
    assert len(seen) <= 12
    assert max(len(ts) for ts, _ in seen) <= 7
    assert not any((ts == T_CAP).any() for ts, _ in seen)


def test_lifespan_exact_immortal_blocks(monkeypatch):
    # every doubling stays on the characteristic: 14 rows in 5 blocks, then
    # T_CAP alone, last
    ca = CharacteristicAnalyzer(_LIFESPAN_CA["constant"].problem)
    seen = _spy_blocks(monkeypatch, ca)
    assert ca.lifespan_exact(0.0, 0.5) == np.inf
    assert [ts.tolist() for ts, _ in seen] == [
        [1.0, 2.0, 4.0], [8.0, 16.0, 32.0], [64.0, 128.0, 256.0],
        [512.0, 1024.0, 2048.0], [4096.0, 8192.0], [T_CAP]]


@pytest.mark.parametrize("x0, c", [(np.nan, 0.0), (0.0, np.nan), (0.0, np.inf),
                                   (np.inf, 0.0), (-np.inf, 0.5),
                                   (1.7e308, 1e308)])
def test_lifespan_exact_rejects_non_finite(sin_analyzer, x0, c):
    # a non-finite x0 or c, or a first point x0 + t f'(c) that overflows
    with pytest.raises(ValueError):
        sin_analyzer.lifespan_exact(x0, c)


def test_classify_termination_probes_one_block(monkeypatch):
    # the two probes past t* are one 2-row block, with the sets that two
    # scalar solves give
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), idata.sin_wave()))
    t_star = ca.lifespan_exact(0.0, 0.0)
    seen = _spy_blocks(monkeypatch, ca)
    assert ca.classify_termination(0.0, 0.0).kind \
        == "continuous_shock_generation"
    ts, out = seen[-1]
    assert ts.tolist() == [t_star + 1e-4, t_star + 1e-6]
    assert out.sets() == [ca.problem.maximize(0.0, t) for t in ts.tolist()]


def test_t_star_below_t_p(sin_analyzer):
    ls = sin_analyzer.lifespans(np.pi / 2, -1.0)
    assert ls.t_star <= ls.t_p + 1e-6


def test_classify_termination(sin_analyzer, riemann_down_analyzer):
    tc = sin_analyzer.classify_termination(0.0, 0.0)
    assert tc.kind == "continuous_shock_generation"
    assert tc.x_star == pytest.approx(0.0, abs=1e-9)
    assert tc.t_star == pytest.approx(1.0, abs=1e-4)

    tc = riemann_down_analyzer.classify_termination(-1.0, 1.0)
    assert tc.kind == "collision_with_shock"
    assert tc.x_star == pytest.approx(1.0, abs=1e-6)
    assert tc.t_star == pytest.approx(2.0, abs=1e-6)

    const = Problem(flux.burgers(),
                    idata.InitialData([], left_tail=0.5, right_tail=0.5,
                                      window=(0.0, 0.0)))
    assert CharacteristicAnalyzer(const).classify_termination(0.0, 0.5).kind \
        == "immortal"


def test_classify_termination_focusing_point():
    # phi = 1 - x on [0, 1]: every interior characteristic survives to the
    # focal point (1, 1) where the full interval [0, 1] maximizes
    d = idata.InitialData([idata.Piece(0.0, 1.0, "poly", {"coeffs": [1.0, -1.0]})],
                          left_tail=1.0, right_tail=0.0)
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), d))
    tc = ca.classify_termination(0.5, 0.5)
    assert tc.kind == "discontinuous_or_shock_point"
    assert tc.x_star == pytest.approx(1.0, abs=1e-6)
    assert tc.t_star == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.floats(-3.0, 3.0))
def test_interior_characteristic_carries_value(x0):
    # pre-breakdown the sine solution rides its characteristics
    ca = _SIN_CA
    c = ca.data.phi(x0)
    t = 0.5
    s = ca.problem.solve(x0 + t * c, t)
    assert s.u_plus == pytest.approx(c, abs=1e-7)


_SIN_CA = CharacteristicAnalyzer(Problem(flux.burgers(), idata.sin_wave()))


def test_spectrum_membership_sandwich():
    # reported set always sits between the open and closed Dini interval
    for d in (idata.step(-1.0, 1.0), idata.step(1.0, 0.0), idata.sin_wave()):
        ca = CharacteristicAnalyzer(Problem(flux.burgers(), d))
        sp = ca.char_spectrum(0.0)
        if sp.kind != "empty":
            assert sp.a <= sp.b


_KNOT_US = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.5, -0.25, 0.0, 0.0, 0.75,
                     0.75, -1.0, -1.0, 0.25, 0.25, 0.0, 0.5])


@pytest.mark.parametrize("period", [None, 4.0], ids=["tailed", "periodic"])
def test_sampled_data_wave_types(period):
    # phi is constant between knots: a knot where it drops is a shock (S),
    # one where it rises a fan (R), anything else a single characteristic
    xs = np.linspace(-2.0, 2.0, 17)
    d = idata.SampledData(xs, _KNOT_US, period=period)
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), d))
    # left and right limits at each knot; the periodic w_lo sees w_hi's left
    left = np.concatenate([[_KNOT_US[0] if period is None else _KNOT_US[-2]],
                           _KNOT_US[:-1]])
    right = _KNOT_US.copy()
    if period is not None:
        right[-1] = _KNOT_US[0]
    for x0, a, b in zip(xs, left, right):
        expect = "S" if a > b else "R" if a < b else "characteristic"
        assert ca.classify_initial_wave(x0) == expect
        sp = ca.char_spectrum(x0)
        assert (sp.a, sp.b) == (a, b)
    for x0 in 0.5 * (xs[:-1] + xs[1:]) + 0.1:
        assert ca.classify_initial_wave(x0) == "characteristic"
        assert ca.lifespan_upper(x0, float(d.phi(x0))) == (np.inf, np.inf)
    with pytest.raises(ValueError):
        d.phi_side(np.nan, "left")
