from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laxo import _search, characteristics, flux, initial_data as idata
from laxo.characteristics import (
    T_CAP, T_TOL, CharacteristicAnalyzer, F_l, TerminationClass, phi_l)
from laxo.errors import BracketError
from laxo.shock_analysis import ShockAnalyzer
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


@pytest.mark.parametrize("l, t, c", [(20.0, 1.0, 0.0), (-30.0, 0.5, 0.4),
                                     (1.6, 0.05, -0.3)])
def test_F_l_beyond_the_default_bracket(l, t, c):
    # f'(c) - l/t outside the image of f' on DOMAIN = (-16, 16): F_l raised
    # BracketError, though f' takes the value; now the closed forms
    # -l^2 / (2t) (Burgers) and, under f = u^4/4, u = (c^3 - l/t)^(1/3)
    assert abs(c - l / t) > 16.0
    assert F_l(flux.burgers(), l, t, c) == pytest.approx(-l * l / (2 * t),
                                                         rel=1e-13)
    u = np.cbrt(c ** 3 - l / t)
    ref = -t * ((u - c) * u ** 3 - (u ** 4 - c ** 4) / 4.0)
    assert F_l(flux.power2n(2), l, t, c) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("t", [0.0, -0.0, -1.0])
def test_F_l_rejects_a_time_not_positive(t):
    with pytest.raises(ValueError, match="t must be positive"):
        F_l(flux.burgers(), 0.1, t, 0.0)


def test_F_l_bracket_error():
    with pytest.raises(BracketError):
        F_l(flux.exponential(1.0), 10.0, 1e-3, 0.0)   # f' > 0 everywhere


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("arg", range(3))
def test_criterion_helpers_reject_non_finite_input(arg, bad):
    # F_l(burgers, 0.1, nan, 0) raised BracketError and F_l(.., 0.1, inf, 0)
    # returned nan after a RuntimeWarning; phi_l returned nan
    args = [0.1, 1.0, 0.0]
    args[arg] = bad
    with pytest.raises(ValueError, match="must be finite"):
        F_l(flux.burgers(), *args)
    with pytest.raises(ValueError, match="must be finite"):
        phi_l(idata.sin_wave(), *args)
    if arg < 2:
        with pytest.raises(ValueError, match="must be finite"):
            characteristics.critical_sign(*args[:2])


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


def _power_step(a, b, where):
    """a sgn(x) + b, a g = 0 power term, with x_ref = 0 inside its piece or
    at either of its ends, between the tails b - a and b + a: the step
    from b - a to b + a at 0."""
    lo, hi = {"inside": (-1.0, 1.0), "at_lo": (0.0, 1.0),
              "at_hi": (-1.0, 0.0)}[where]
    q = {"a": a, "g": 0.0, "x_ref": 0.0}
    if b:
        q["b"] = b
    return idata.InitialData([idata.Piece(lo, hi, "power", q)],
                             left_tail=b - a, right_tail=b + a)


@pytest.mark.parametrize("where", ["inside", "at_lo", "at_hi"])
@pytest.mark.parametrize("b", [0.0, 0.5])
@pytest.mark.parametrize("a", [-1.0, 1.0])
def test_power_step_reads_as_its_step_twin(a, b, where):
    # sgn(0) reads 0, so the power term's value at x_ref is b; its limits
    # there are b -+ a, as the step's are: a = -1 is a shock (S), a = 1 a
    # rarefaction (R)
    pw, sp = (Problem(flux.burgers(), d) for d in (
        _power_step(a, b, where), idata.step(b - a, b + a)))
    ca, ca_twin = CharacteristicAnalyzer(pw), CharacteristicAnalyzer(sp)
    sa, sa_twin = ShockAnalyzer(pw), ShockAnalyzer(sp)
    assert ca.classify_initial_wave(0.0) == ("S" if a < 0 else "R")
    for x0 in (0.0, -0.5, 0.5):
        for side in ("left", "right"):
            assert pw.data.phi_side(x0, side) == sp.data.phi_side(x0, side)
        assert pw.data.dini(x0) == sp.data.dini(x0)
        assert ca.char_spectrum(x0) == ca_twin.char_spectrum(x0)
        assert (ca.classify_initial_wave(x0)
                == ca_twin.classify_initial_wave(x0))
        lims = (sp.data.phi_side(x0, "left"), sp.data.phi_side(x0, "right"))
        for c in lims + (0.5 * sum(lims), b + 2.0):
            assert ca.lifespan_upper(x0, c) == ca_twin.lifespan_upper(x0, c)
            assert (sa.generation_point(x0, c)
                    == sa_twin.generation_point(x0, c))
            if ca_twin.carries(x0, c):
                assert (ca.classify_termination(x0, c)
                        == ca_twin.classify_termination(x0, c))


def test_lifespan_exact_rejects_a_point_past_the_float_range():
    # speeds of about 1e306: the doubling scan's x0 + t f'(c) overflows
    # at t = 256, before any solve there
    K, A = 1e306, 1e300

    def f(u):
        u = np.asarray(u, dtype=float)
        return K * u + 0.5 * A * u ** 2

    fl = flux.custom(f, lambda u: K + A * np.asarray(u),
                     lambda u: np.full_like(np.asarray(u, dtype=float), A))
    ca = CharacteristicAnalyzer(Problem(fl, idata.step(0.0, 1.0)))
    assert ca.lifespan_upper(5.0, 1.0) == (np.inf, np.inf)
    with pytest.raises(ValueError, match="finite"):
        ca.lifespan_exact(5.0, 1.0)


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
    # c = 0 still holds at t_p - T_TOL, so t* is t_p exactly, not the
    # bisection's 1 + 8.2e-7 where the value gap opens only quadratically
    assert sin_analyzer.lifespan_exact(0.0, 0.0) == 1.0


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


@pytest.mark.parametrize("kind", ["exponential", "custom"])
def test_lifespan_upper_exponential_flux(kind):
    # f'' = 0.7 at c = 0 and phi = -sin x: t_p = 1/0.7 on both sides
    k = 0.7
    fl = flux.exponential(k) if kind == "exponential" else flux.custom(
        lambda u: np.exp(k * np.asarray(u, dtype=float)) / k,
        lambda u: np.exp(k * np.asarray(u, dtype=float)),
        lambda u: k * np.exp(k * np.asarray(u, dtype=float)))
    ca = CharacteristicAnalyzer(Problem(fl, idata.sin_wave()))
    tm, tp = ca.lifespan_upper(0.0, 0.0)
    assert tm == pytest.approx(1.0 / k, rel=1e-14)
    assert tp == pytest.approx(1.0 / k, rel=1e-14)


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
    """The one-row lifespan loop over the capped list, as t* with its last
    time top = min(t_p - T_TOL, T_CAP) probed first and last.

    Probed first, top decides alone whether t* is t_p (inf past T_CAP);
    probed last, it is read only when every doubling stayed on the
    characteristic.
    """
    t_p = min(ca.lifespan_upper(x0, c))
    if t_p <= T_TOL:
        return t_p, t_p
    top = min(t_p - T_TOL, T_CAP)
    end = t_p if t_p <= T_CAP else np.inf
    cap = _on_sequential(ca, x0, c, top)
    lo, hi = 0.0, top
    t = 1.0
    while t < top:
        if _on_sequential(ca, x0, c, t):
            lo = t
        else:
            hi = t
            break
        t *= 2.0
    if cap and hi == top:
        return end, end
    lo, hi = _bisect_loop(lambda m: _on_sequential(ca, x0, c, m), lo, hi,
                          T_TOL)
    t_star = 0.5 * (lo + hi)
    return (end if cap else t_star), t_star


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


def _certified(ca, x0, c, t):
    """The one-row oracle's certificate of a t*: c holds at t* - T_TOL / 2
    and fails at t* + T_TOL / 2, as at a bisection's midpoint."""
    return (_on_sequential(ca, x0, c, t - 0.5 * T_TOL)
            and not _on_sequential(ca, x0, c, t + 0.5 * T_TOL))


def _lifespan_and_walks(ca, x0, c, steps=None):
    """``lifespan_exact``, and the bracket that each bisection walk of its
    ``tie`` starts from; with ``steps``, its probes give up (decide nothing
    and give no step) after that many."""
    tie, walk = characteristics.tie, _search.bisect_many
    preds, walks = [], []

    def spy_walk(pred, a, b, tol):
        if pred in preds:
            walks.append((float(a[0]), float(b[0])))
        return walk(pred, a, b, tol)

    def spy_tie(probe, pred, *args):
        probes = []

        def capped(t):
            probes.append(t)
            if steps is not None and len(probes) > steps:
                return None, None
            return probe(t)

        preds.append(pred)
        return tie(capped, pred, *args)

    with mock.patch.object(characteristics, "tie", spy_tie), \
            mock.patch.object(_search, "bisect_many", spy_walk):
        return ca.lifespan_exact(x0, c), walks


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lifespan_exact_equals_sequential_loop(data):
    # an answer of no search (t_p, or inf) is the t* of the one-row loop bit
    # for bit; an answer of the Newton steps or of the bisection walk lies
    # within T_TOL of it and carries the midpoint's certificate.  top first
    # differs only where its aliased scan reads c as a maximizer at T_CAP
    # although a doubling already left the characteristic
    ca = _LIFESPAN_CA[data.draw(st.sampled_from(sorted(_LIFESPAN_CA)))]
    x0 = data.draw(st.floats(-3.0, 3.0))
    c = (float(ca.data.phi(x0)) if data.draw(st.booleans())
         else data.draw(st.floats(-1.2, 1.2)))
    first, last = _lifespan_sequential(ca, x0, c)
    got = ca.lifespan_exact(x0, c)
    if got in (min(ca.lifespan_upper(x0, c)), np.inf) or got == last:
        assert got == last
    else:
        assert abs(got - last) <= T_TOL
        assert _certified(ca, x0, c, got)
    assert first in (got, last) or (first == np.inf and got < 8192.0)


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
    # at most 10 blocks of at most 7 rows, 20 rows in all (the bisection
    # took 9-12 blocks, about 63 rows), and the Newton steps land on the
    # tie x0 / sin x0 itself, where the bisection was up to 3.2e-9 off
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), idata.sin_wave()))
    seen = _spy_blocks(monkeypatch, ca)
    t = ca.lifespan_exact(x0, -np.sin(x0))
    assert abs(t - x0 / np.sin(x0)) <= 1e-12
    assert len(seen) <= 10
    assert max(len(ts) for ts, _ in seen) <= 7
    assert sum(len(ts) for ts, _ in seen) <= 20
    assert not any((ts == T_CAP).any() for ts, _ in seen)


def test_lifespan_exact_quartic_collisions():
    # power2n(2) on -sin x, 12 draws of the bench's x0: each t* ends in a
    # collision before t_p, carries the midpoint's certificate, lies within
    # T_TOL of the one-row bisection, and takes no bisection walk
    ca = _LIFESPAN_CA["quartic_sine"]
    rng = np.random.default_rng(0)
    for x0 in (rng.choice([-1.0, 1.0], 12)
               * rng.uniform(0.3, 2.5, 12)).tolist():
        c = -np.sin(x0)
        t, walks = _lifespan_and_walks(ca, x0, c)
        assert walks == [], x0
        assert t < min(ca.lifespan_upper(x0, c)), x0
        assert _certified(ca, x0, c, t), x0
        assert abs(t - _lifespan_sequential(ca, x0, c)[1]) <= T_TOL, x0


def test_lifespan_exact_large_t_ends_on_the_certificate():
    # near x0 = pi, -sin x rises and c is small, so power2n(2)
    # characteristics live for thousands of units of time before a shock
    # takes them; the steps stop at 2e-9 (1 + t), up to 2e-5, yet Newton's
    # next error is far below T_TOL / 2, so t* carries the certificate with
    # no bisection walk
    ca = _LIFESPAN_CA["quartic_sine"]
    for x0 in (np.pi - 0.068, np.pi + 0.068, np.pi - 0.08):
        c = float(ca.data.phi(x0))
        t, walks = _lifespan_and_walks(ca, x0, c)
        assert 5e3 < t < T_CAP, x0
        assert walks == [], x0
        assert _certified(ca, x0, c, t), x0


@pytest.mark.parametrize("case, x0, steps, halvings", [
    # a weak collision just before t_p = 0.866: the first step, 3.5e-9
    # from top, fails its certificate, and the walk takes [0, top] as the
    # certificate's reads narrowed it
    ("quartic_sine", 0.9528670904567889, None, 0),
    # the probes give up after 3 and 2 steps, and the walk takes the
    # bracket they leave, inside the one that the bisection of [1, top]
    # reaches after 1 and 2 halvings
    ("burgers_sine", 0.3, 3, 1),
    ("burgers_sine", 0.9, 2, 2)])
def test_lifespan_exact_fallback_is_the_bisection(case, x0, steps,
                                                  halvings):
    # where the Newton steps give up, one bisection walk halves the bracket
    # they leave to T_TOL, and t* carries the midpoint's certificate and
    # lies within T_TOL of the one-row bisection's
    ca = _LIFESPAN_CA[case]
    c = -np.sin(x0)
    t, walks = _lifespan_and_walks(ca, x0, c, steps)
    top = min(ca.lifespan_upper(x0, c)) - T_TOL
    lo = 0.0 if top < 1.0 else 1.0
    hi = top
    for _ in range(halvings):
        hi = 0.5 * (lo + hi)
    assert len(walks) == 1
    assert lo <= walks[0][0] < walks[0][1] <= hi
    assert _certified(ca, x0, c, t)
    assert abs(t - _lifespan_sequential(ca, x0, c)[1]) <= T_TOL


@pytest.mark.parametrize("case, x0", [("quartic_sine", -0.9622079627574553),
                                      ("sampled", 0.6222544287920941)])
def test_lifespan_exact_undecided_side_read_goes_to_the_walk(monkeypatch,
                                                             case, x0):
    # a probe's side read whose best value or band reaches mid decides
    # nothing (the competing branch may lie across mid), and the walk takes
    # the bracket the probes leave; t* carries the midpoint's certificate
    # and lies within T_TOL of the one-row bisection, in 12 and 13 blocks
    ca = _LIFESPAN_CA[case]
    c = float(ca.data.phi(x0))
    p = ca.problem
    sides, reads = p._sides, []

    def spy(xs, t, mid=None, above=None):
        out = sides(xs, t, mid, above)
        if mid is not None:
            reads.append(out is not None)
        return out

    monkeypatch.setattr(p, "_sides", spy)
    seen = _spy_blocks(monkeypatch, ca)
    t, walks = _lifespan_and_walks(ca, x0, c)
    assert reads[-1] is False and all(reads[:-1])
    assert len(walks) == 1
    assert len(seen) <= 13
    assert _certified(ca, x0, c, t)
    assert abs(t - _lifespan_sequential(ca, x0, c)[1]) <= T_TOL


def test_lifespan_exact_immortal_blocks(monkeypatch):
    # t_p is inf, so the list is the 14 doublings and then T_CAP: every row
    # stays on the characteristic, in 5 blocks of three
    ca = CharacteristicAnalyzer(_LIFESPAN_CA["constant"].problem)
    seen = _spy_blocks(monkeypatch, ca)
    assert ca.lifespan_exact(0.0, 0.5) == np.inf
    assert [ts.tolist() for ts, _ in seen] == [
        [1.0, 2.0, 4.0], [8.0, 16.0, 32.0], [64.0, 128.0, 256.0],
        [512.0, 1024.0, 2048.0], [4096.0, 8192.0, T_CAP]]


@pytest.mark.parametrize("x0, c", [(0.0, 0.5), (1.0, 0.0)])
def test_lifespan_off_the_data_value_is_zero_with_no_solve(monkeypatch, x0,
                                                            c):
    # on -sin x, phi(x0+) < c: the characteristics right of x0 cross the
    # one of c at once, so t_p = t* = 0 with no block (it took 10 blocks
    # to bisect down to 3.7e-9)
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), idata.sin_wave()))
    seen = _spy_blocks(monkeypatch, ca)
    assert min(ca.lifespan_upper(x0, c)) == 0.0
    assert ca.lifespan_exact(x0, c) == 0.0
    assert seen == []


def test_lifespan_at_a_jump_zero_on_compressive_sides_only(
        riemann_down_analyzer):
    # step(1, 0) at 0: both sides compress c = 1/2 (a shock), so t_p = 0;
    # step(-1, 1) at 0: each side's limit lies on the rarefaction side of
    # every c of the fan, so both stay inf
    assert riemann_down_analyzer.lifespan_upper(0.0, 0.5) == (0.0, 0.0)
    assert riemann_down_analyzer.lifespan_exact(0.0, 0.5) == 0.0
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), idata.step(-1.0, 1.0)))
    for c in (-1.0, 0.3, 1.0):
        assert ca.lifespan_upper(0.0, c) == (np.inf, np.inf)


def test_classify_termination_rejects_a_value_not_carried(sin_analyzer):
    # phi(0-) = phi(0+) = 0 on -sin x: the line of 1/2 from 0 is no
    # characteristic, so it has no termination to classify
    assert not sin_analyzer.carries(0.0, 0.5)
    with pytest.raises(ValueError):
        sin_analyzer.classify_termination(0.0, 0.5)
    with pytest.raises(ValueError):
        sin_analyzer.carries(np.nan, 0.0)


def test_classify_termination_at_a_downward_jump(monkeypatch,
                                                 riemann_down_analyzer):
    # the shock of step(1, 0) starts at (0, 0) and takes every c in [0, 1]
    # at once, the end values included
    ca = riemann_down_analyzer
    seen = _spy_blocks(monkeypatch, ca)
    for c in (1.0, 0.5, 0.0):
        assert ca.carries(0.0, c)
        assert ca.classify_termination(0.0, c) == TerminationClass(
            "discontinuous_or_shock_point", 0.0, 0.0)
    assert seen == []


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
    assert tc.t_star == 1.0

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


def _power(g, a, lo=1.0):
    """phi = a sgn(x)|x|^g on [-lo, lo], continued by its end values."""
    return idata.InitialData(
        [idata.Piece(-lo, lo, "power", {"a": a, "g": g, "x_ref": 0.0})],
        left_tail=-a * lo ** g, right_tail=a * lo ** g)


def _assert_spectrum_is_positive_t_p(ca, x0):
    # C(x0) = {c : t_p(x0, c) > 0}: each endpoint is in the spectrum
    # exactly when its own t_p is positive
    sp = ca.char_spectrum(x0)
    for c, inside in ((sp.a, sp.includes_a), (sp.b, sp.includes_b)):
        assert inside == (min(ca.lifespan_upper(x0, c)) > 0.0), (x0, c, sp)
    return sp


@pytest.mark.parametrize("d, wave, t_p", [
    # limits within jump_tol are one value, as in carries
    (idata.step(0.3 + 1e-9, 0.3), "characteristic", np.inf),
    (idata.step(0.3, 0.3 + 1e-9), "characteristic", np.inf),
    # gamma (1 + alpha) below 1 - 1e-12: compression at once
    (_power(1.0 - 5e-10, -0.5), "S", 0.0),
    (_power(1.0 - 5e-12, -0.5), "S", 0.0),
    # a = 0 is the constant 0, which no characteristic leaves
    (_power(1.0, 0.0), "characteristic", np.inf),
], ids=["down_1e-9", "up_1e-9", "g_5e-10", "g_5e-12", "a_zero"])
def test_spectrum_is_the_values_of_positive_t_p(d, wave, t_p):
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), d))
    sp = _assert_spectrum_is_positive_t_p(ca, 0.0)
    assert ca.classify_initial_wave(0.0) == wave
    assert ca.lifespan_upper(0.0, sp.a) == (t_p, t_p)


def test_spectrum_of_the_fixtures_is_the_values_of_positive_t_p(
        sin_analyzer, riemann_down_analyzer):
    for x0 in (0.0, 0.5, np.pi):
        _assert_spectrum_is_positive_t_p(sin_analyzer, x0)
    for x0 in (-1.0, 0.0, 1.0):
        _assert_spectrum_is_positive_t_p(riemann_down_analyzer, x0)
    xs = np.linspace(-2.0, 2.0, 17)
    for period in (None, 4.0):
        ca = CharacteristicAnalyzer(Problem(
            flux.burgers(), idata.SampledData(xs, _KNOT_US, period=period)))
        for x0 in xs:
            _assert_spectrum_is_positive_t_p(ca, x0)


@pytest.mark.parametrize("n, a, lo, t_p", [(2, -1e-110, 1.0, np.inf),
                                           (20, -9e7, 1e-10, 0.0)],
                         ids=["underflow", "overflow"])
def test_lifespan_upper_past_the_float_range(n, a, lo, t_p):
    # f = u^(2n)/(2n) and data of exponent 1/(2n - 1) sit on
    # gamma (1 + alpha) = 1, where t_p = 1 / (gamma N |C|^(2n - 1)):
    # 1e-330 underflows (t_p > 1e308) and 1e310 overflows (t_p < 1e-308),
    # and neither raises
    ca = CharacteristicAnalyzer(Problem(
        flux.power2n(n), _power(1.0 / (2 * n - 1), a, lo)))
    assert ca.lifespan_upper(0.0, 0.0) == (t_p, t_p)
