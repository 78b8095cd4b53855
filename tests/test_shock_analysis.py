import dataclasses
import math
import signal

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from laxo import flux, initial_data as idata, shock_analysis
from laxo import variational_core as vc
from laxo.characteristics import T_TOL
from laxo.errors import ConditionFailed, LostCurve, RootNotBracketed
from laxo.shock_analysis import ShockAnalyzer
from laxo.variational_core import GeneralProblem, Problem


@pytest.fixture(scope="module")
def sin_sa():
    return ShockAnalyzer(Problem(flux.burgers(), idata.sin_wave()))


@pytest.fixture(scope="module")
def riemann_sa():
    return ShockAnalyzer(Problem(flux.burgers(), idata.step(1.0, 0.0)))


@pytest.fixture(scope="module")
def merging_sa():
    # 2 -> 1 at x = -1, 1 -> 0 at x = 0
    d = idata.InitialData([idata.Piece(-1.0, 0.0, "const", {"c": 1.0})],
                          left_tail=2.0, right_tail=0.0)
    return ShockAnalyzer(Problem(flux.burgers(), d))


@pytest.fixture(scope="module")
def one_sided_sa():
    # constant 1 left, 1 - x + x^2 on [0, 1/2], then 3/4: compression only
    # on the right of x0 = 0 -> Case II generation at (1, 1)
    d = idata.InitialData(
        [idata.Piece(-1.0, 0.0, "const", {"c": 1.0}),
         idata.Piece(0.0, 0.5, "poly", {"coeffs": [1.0, -1.0, 1.0]})],
        left_tail=1.0, right_tail=0.75)
    return ShockAnalyzer(Problem(flux.burgers(), d))


# -- generation ------------------------------------------------------------

def test_generation_point_symmetric(sin_sa):
    gp = sin_sa.generation_point(0.0, 0.0)
    assert gp.case == "I"
    assert (gp.x_p, gp.t_p) == (pytest.approx(0.0), pytest.approx(1.0))
    assert gp.speed_c == 0.0


def test_generation_point_one_sided(one_sided_sa):
    gp = one_sided_sa.generation_point(0.0, 1.0)
    assert gp.case == "II_a_eq_c"
    assert gp.x_p == pytest.approx(1.0)
    assert gp.t_p == pytest.approx(1.0)


def _one_sided(lo_c, hi_c):
    # the one_sided_sa data with its left constant and tail set to lo_c
    return idata.InitialData(
        [idata.Piece(-1.0, 0.0, "const", {"c": lo_c}),
         idata.Piece(0.0, 0.5, "poly", {"coeffs": [1.0, -1.0, 1.0]})],
        left_tail=lo_c, right_tail=hi_c)


def _mirrored(right):
    # the mirror: -1 - x - x^2 on [-1/2, 0], then the constant right
    return idata.InitialData(
        [idata.Piece(-0.5, 0.0, "poly", {"coeffs": [-1.0, -1.0, -1.0]}),
         idata.Piece(0.0, 1.0, "const", {"c": right})],
        left_tail=-0.75, right_tail=right)


@pytest.mark.parametrize("fl", [flux.burgers(), flux.power2n(2)],
                         ids=["burgers", "quartic"])
@pytest.mark.parametrize("data, c, case", [
    (lambda: _one_sided(0.0, 0.75), 1.0, "II_a_lt_c"),
    (lambda: _mirrored(-1.0), -1.0, "III_b_eq_c"),
    (lambda: _mirrored(0.0), -1.0, "III_b_gt_c")],
    ids=["II_a_lt_c", "III_b_eq_c", "III_b_gt_c"])
def test_generation_point_one_sided_cases(fl, data, c, case):
    # phi has slope -1 on the compressive side of x0 = 0 and jumps on the
    # other (II: a = 0 < c; III: b = 0 > c) or stays at c there: so
    # t_p = 1 / f''(c) (1 under Burgers, 1/3 under u^4/4) and
    # x_p = t_p f'(c)
    gp = ShockAnalyzer(Problem(fl, data())).generation_point(0.0, c)
    t_p = 1.0 / float(fl.second(c))
    assert gp.case == case
    assert gp.t_p == pytest.approx(t_p, rel=1e-9)
    assert gp.x_p == pytest.approx(t_p * float(fl.deriv(c)), rel=1e-9)


def test_generation_point_none_for_rarefaction():
    sa = ShockAnalyzer(Problem(flux.burgers(), idata.step(-1.0, 1.0)))
    assert sa.generation_point(0.0, 0.5) is None


def test_generation_point_none_where_t_p_is_zero(riemann_sa, sin_sa):
    # c = 1/2 at the jump of step(1, 0), and c = 1/2 where -sin x is 0:
    # the data compress c at once (t_p = 0), so no shock is generated
    assert riemann_sa.generation_point(0.0, 0.5) is None
    assert sin_sa.generation_point(0.0, 0.5) is None


def test_generation_uniqueness_passes_flux_faults_on():
    # only a BracketError means "beyond the flux range"; any other error
    # from invert_deriv is a fault of the flux and must surface
    def broken_inverse(v, bracket=None):
        raise RuntimeError("broken inverse")

    fl = flux.burgers()
    fl.invert_deriv = broken_inverse
    sa = ShockAnalyzer(Problem(fl, idata.sin_wave()))
    with pytest.raises(RuntimeError, match="broken inverse"):
        sa.generation_point(0.0, 0.0)


def test_generation_uniqueness_reads_every_lattice_point():
    # -20 sin x: t_p = 1/20, so l / t_p reaches 32 on the lattice, beyond
    # invert_deriv's default bracket, where the closed form u = c - l / t_p
    # answers: the check skips none of the 22 points (it skipped the two at
    # |l| = 1.6)
    sa = ShockAnalyzer(Problem(flux.burgers(), idata.sin_wave(-20.0)))
    us = []
    rho = sa.flux.rho
    sa.flux.rho = lambda u, v: us.append(u) or rho(u, v)
    gp = sa.generation_point(0.0, 0.0)
    assert gp.t_p == 0.05 and gp.case == "I"
    ls = np.concatenate([0.1 * 2.0 ** -np.arange(7.0), [0.2, 0.4, 0.8, 1.6]])
    assert us == (-np.concatenate([-ls, ls]) / 0.05).tolist()


def test_generation_uniqueness_skips_points_beyond_the_flux_range():
    # f' = arctan u stays within (-pi/2, pi/2): at l = +-1.6 with t_p = 1
    # no u has f'(u) = -+1.6, so those two lattice points constrain nothing
    fl = flux.custom(
        lambda u: np.asarray(u) * np.arctan(u) - 0.5 * np.log1p(
            np.asarray(u) ** 2),
        np.arctan, lambda u: 1.0 / (1.0 + np.asarray(u) ** 2))
    sa = ShockAnalyzer(Problem(fl, idata.sin_wave()))
    us = []
    rho = sa.flux.rho
    sa.flux.rho = lambda u, v: us.append(u) or rho(u, v)
    gp = sa.generation_point(0.0, 0.0)
    assert (gp.t_p, gp.x_p, gp.case) == (1.0, 0.0, "I")
    assert len(us) == 20


def test_generation_uniqueness_fails_for_focusing():
    # exactly linear data focuses an entire interval at once: the strict
    # inequality of the uniqueness condition degenerates to equality
    d = idata.InitialData(
        [idata.Piece(-1.0, 0.0, "const", {"c": 1.0}),
         idata.Piece(0.0, 1.0, "poly", {"coeffs": [1.0, -1.0]})],
        left_tail=1.0, right_tail=0.0)
    sa = ShockAnalyzer(Problem(flux.burgers(), d))
    with pytest.raises(ConditionFailed):
        sa.generation_point(0.0, 1.0)


# -- development asymptotics ----------------------------------------------

def test_development_case2_constants(one_sided_sa):
    gp = one_sided_sa.generation_point(0.0, 1.0)
    da = one_sided_sa.development_asymptotics(
        gp, {"gamma": 1.0, "sigma": 1.0, "Cbar_sigma": 1.0})
    assert da.Q_plus == pytest.approx(0.75)
    assert da.exponent_curve == pytest.approx(2.0)
    assert da.coeff_curve == pytest.approx(-3.0 / 16.0)


def test_development_case1_symmetric(sin_sa):
    gp = sin_sa.generation_point(0.0, 0.0)
    da = sin_sa.development_asymptotics(
        gp, {"gamma": 1.0, "sigma": 2.0, "Cbar_sigma_plus": 1.0,
             "Cbar_sigma_minus": 1.0, "rho": 2.0, "Cbar_rho": -0.5})
    assert da.lambda1 == 1.0 and da.Q_plus == 1.0
    assert da.exponent_curve == pytest.approx(2.5)
    assert da.coeff_curve == pytest.approx(-0.125)


def test_development_case1_asymmetric(sin_sa):
    gp = sin_sa.generation_point(0.0, 0.0)
    da = sin_sa.development_asymptotics(
        gp, {"gamma": 1.0, "sigma": 2.0, "Cbar_sigma_plus": 2.0,
             "Cbar_sigma_minus": 1.0})
    # lambda1 solves the scalar root equation inside the proven bracket
    g, s, l0, l1 = 1.0, 2.0, da.lambda0, da.lambda1
    resid = (g * s * (1 + l1) * (l0 - l1 ** (1 + g + s))
             - (1 + g + s) * l1 * (1 + l1 ** g) * (l1 ** s - l0))
    assert resid == pytest.approx(0.0, abs=1e-10)
    assert l0 ** (1 / (1 + g + s)) <= l1 <= l0 ** (1 / s)
    # ordering invariant for lambda0 > 1
    assert da.Q_minus < 1.0 < da.Q_plus
    # both O1 routes agree
    cg = 1.0 / gp.t_p
    O1p = cg * (cg * cg * da.Q_plus / 2.0) ** (1 / s) * abs(da.Q_plus - 1)
    O1m = cg * (cg * cg * da.Q_minus / 1.0) ** (1 / s) * abs(da.Q_minus - 1)
    assert O1p == pytest.approx(O1m, rel=1e-10)
    assert da.coeff_curve == pytest.approx(0.5 * (O1p + O1m))
    assert da.exponent_curve == pytest.approx(1.5)


def test_development_qplus_consistency_at_lambda_one(sin_sa):
    # with gamma = sigma = 1 and lambda1 = 1 the Q formula gives exactly 1
    g = s = 1.0
    k = g * s / ((1 + g) * (1 + s))
    tail = (1 + g + s) / ((1 + g) * (1 + s))
    assert k * 1.0 * 2.0 / 2.0 + tail == pytest.approx(1.0)


def test_development_root_not_bracketed(sin_sa):
    gp = sin_sa.generation_point(0.0, 0.0)
    with pytest.raises((RootNotBracketed, ConditionFailed)):
        sin_sa.development_asymptotics(
            gp, {"gamma": 1.0, "sigma": 2.0, "Cbar_sigma_plus": -1.0,
                 "Cbar_sigma_minus": 1.0})
    # lambda_0 = 1 - 2.5e-12, just past the equal-constants case: both
    # ends of the bracket round to one side of the root
    with pytest.raises(RootNotBracketed):
        sin_sa.development_asymptotics(
            gp, {"gamma": 0.04049830091506562, "sigma": 67.51778278124726,
                 "Cbar_sigma_plus": 0.9999999999974939,
                 "Cbar_sigma_minus": 1.0})


_CASE1 = {"gamma": 1.0, "sigma": 2.0, "Cbar_sigma_plus": 1.0,
          "Cbar_sigma_minus": 1.0, "rho": 2.0, "Cbar_rho": -0.5}
_CASE2 = {"gamma": 1.0, "sigma": 1.0, "Cbar_sigma": 1.0, "gamma_other": 0.5,
          "alpha": 0.0, "Cbar_gamma_other": 4.0, "C_gamma_sign": -1.0}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case, key", [("I", k) for k in _CASE1]
                         + [("II", k) for k in _CASE2])
def test_development_rejects_non_finite_constants(sin_sa, one_sided_sa,
                                                  case, key, bad):
    # a nan gamma (case II) or Cbar_sigma_plus (case I) passed the <= 0
    # checks and gave coeff_curve = exponent_u = nan
    sa, c, inputs = ((sin_sa, 0.0, _CASE1) if case == "I"
                     else (one_sided_sa, 1.0, _CASE2))
    gp = sa.generation_point(0.0, c)
    assert gp.case[:2] == case[:2]
    assert np.isfinite(sa.development_asymptotics(gp, inputs).coeff_curve)
    with pytest.raises(ValueError, match="must be finite"):
        sa.development_asymptotics(gp, dict(inputs, **{key: bad}))


@pytest.mark.parametrize("go, regime", [
    (0.5, "below"), (1.0, "at"), (1.0 - 5e-13, "at"), (1.0 + 5e-13, "at"),
    (2.0, "above")])
def test_case23_O4_in_each_critical_regime(one_sided_sa, go, regime):
    # O4 reads gamma_other (1 + alpha) against 1 (``critical_sign``, 0
    # within 1e-12): cg / cgo below, 1 + C_gamma_sign cg / cgo at 1, and 1
    # above.  C_gamma_sign defaults to -1 (case II here); case III takes +1
    base = {"gamma": 1.0, "sigma": 1.0, "Cbar_sigma": 1.0,
            "gamma_other": go, "alpha": 0.0, "Cbar_gamma_other": 4.0}
    mirrored = ShockAnalyzer(Problem(flux.burgers(), _mirrored(-1.0)))
    for sa, c, sign, extra in ((one_sided_sa, 1.0, -1.0, {}),
                               (mirrored, -1.0, 1.0, {"C_gamma_sign": 1.0})):
        gp = sa.generation_point(0.0, c)
        assert gp.case[:3] == ("II_" if sign < 0 else "III")
        cg = 1.0 / gp.t_p
        O4 = sa.development_asymptotics(gp, dict(base, **extra)).O4
        expected = {"below": cg / 4.0, "at": 1.0 + sign * cg / 4.0,
                    "above": 1.0}[regime]
        assert O4 == pytest.approx(expected, rel=1e-12), (gp.case, go)


@pytest.mark.parametrize("cs", [0.0, -1.0])
@pytest.mark.parametrize("case", ["II_a_eq_c", "II_a_lt_c", "III_b_eq_c",
                                  "III_b_gt_c"])
def test_case23_rejects_a_sigma_constant_not_positive(sin_sa, case, cs):
    gp = shock_analysis.GenerationPoint(0.0, 1.0, 0.0, 0.0, case)
    with pytest.raises(ConditionFailed, match="sigma-constant"):
        sin_sa.development_asymptotics(gp, {"gamma": 1.0, "sigma": 1.0,
                                            "Cbar_sigma": cs})


def test_solve_lambda_matches_brentq():
    # the bracket end lam0^(1/sigma) can lie many orders of magnitude above
    # the root, where a bisection tolerance scaled by it would stop coarse
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20)
    far = 0
    for _ in range(2000):
        g, s = rng.uniform(0.05, 4.0, 2).tolist()
        lam0 = float(10.0 ** rng.uniform(-4.0, 4.0))

        def F(lam):
            return (g * s * (1 + lam) * (lam0 - lam ** (1 + g + s))
                    - (1 + g + s) * lam * (1 + lam ** g) * (lam ** s - lam0))

        lo = lam0 ** (1.0 / (1 + g + s))
        hi = lam0 ** (1.0 / s)
        lo, hi = min(lo, hi), max(lo, hi)
        got = ShockAnalyzer._solve_lambda(g, s, lam0)
        ref = brentq(F, lo, hi, xtol=1e-300, rtol=4 * eps, maxiter=1000)
        assert abs(got - ref) <= 1e-13 * ref, (g, s, lam0)
        far += 1e-14 * (1.0 + hi) > 1e-11 * ref
    assert far >= 100


# -- forward tracking ------------------------------------------------------

def test_track_riemann_shock(riemann_sa):
    cur = riemann_sa.track_forward(0.0, 0.0, 2.0, 0.05)
    assert max(abs(n.x - n.t / 2) for n in cur.nodes) < 1e-6
    for n in cur.nodes:
        assert n.u_minus == pytest.approx(1.0, abs=1e-8)
        assert n.u_plus == pytest.approx(0.0, abs=1e-8)
        assert n.speed_right == pytest.approx(0.5, abs=1e-8)
        # Lax admissibility
        assert n.u_plus - 1e-8 <= n.speed_right <= n.u_minus + 1e-8


def test_track_solves_no_point_alone(riemann_sa, monkeypatch):
    # a node is its traces and their Rankine-Hugoniot speed: a tracked
    # shock needs solve_grid blocks only, never a backward triangle
    def alone(*args):
        raise AssertionError("tracking maximized a point on its own")

    monkeypatch.setattr(ShockAnalyzer, "backward_triangle", alone)
    monkeypatch.setattr(GeneralProblem, "maximize", alone)
    cur = riemann_sa.track_forward(0.0, 0.0, 0.5, 0.1)
    assert len(cur.nodes) == 5


def test_track_and_limits_build_no_sample(sin_sa, merging_sa, monkeypatch):
    # pre-shock reads, walks, certificates and traces read u+- from the
    # maximizer rows: no solve_grid call, no SolutionSample and, in a
    # track, no MaximizerSet.  The track walks into the standing shock
    ref = [n.x for n in sin_sa.track_forward(-0.5, 0.125, 1.5, 0.125).nodes]

    def built(*args):
        raise AssertionError("built a sample")

    monkeypatch.setattr(GeneralProblem, "solve_grid", built)
    monkeypatch.setattr(GeneralProblem, "solve", built)
    monkeypatch.setattr(GeneralProblem, "_sample", built)
    dl = merging_sa.directional_limits(0.5, 1.0)
    assert (dl.left, dl.right) == (pytest.approx(2.0, abs=1e-6),
                                   pytest.approx(0.0, abs=1e-6))
    assert len(dl.gap_limits) == 2
    monkeypatch.setattr(vc._Rows, "sets", built)
    cur = sin_sa.track_forward(-0.5, 0.125, 1.5, 0.125)
    assert [n.x for n in cur.nodes] == ref
    assert max(abs(n.x) for n in cur.nodes if n.t >= 1.125) < 1e-6


def test_directional_limits_check_the_earlier_time(riemann_sa):
    # the gap's limits are read DELTA back in time: before DELTA no such
    # time exists, as a solve there would say
    with pytest.raises(ValueError, match="t positive"):
        riemann_sa.directional_limits(2.5e-5, 5e-5)


def test_track_stationary_sine_shock(sin_sa):
    cur = sin_sa.track_forward(0.0, 1.0, 10.0, 0.1)
    assert max(abs(n.x) for n in cur.nodes) < 1e-6
    assert max(abs(n.u_minus + n.u_plus) for n in cur.nodes) < 1e-6
    # traces decay toward zero
    assert cur.nodes[-1].u_minus < 0.4


def test_track_merging_shocks(merging_sa):
    c1 = merging_sa.track_forward(-1.0, 0.0, 2.0, 0.05)
    c2 = merging_sa.track_forward(0.0, 0.0, 2.0, 0.05)

    def exp1(t):
        return -1 + 1.5 * t if t <= 1 else 0.5 + (t - 1)

    def exp2(t):
        return 0.5 * t if t <= 1 else 0.5 + (t - 1)

    assert max(abs(n.x - exp1(n.t)) for n in c1.nodes) < 1e-6
    assert max(abs(n.x - exp2(n.t)) for n in c2.nodes) < 1e-6
    # both curves coincide after the merge at (1/2, 1)
    for a, b in zip(c1.nodes, c2.nodes):
        if a.t > 1.01:
            assert a.x == pytest.approx(b.x, abs=1e-9)
            assert a.speed_right == pytest.approx(1.0, abs=1e-8)


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


def _one_point_jump(p, x_hat, t, mid, w):
    """Reference: the window's ends checked and the drop of u+ through mid
    bisected to 1e-12, at one solve per point."""
    lo, hi = x_hat - w, x_hat + w
    if not p.solve(lo, t).u_plus > mid > p.solve(hi, t).u_plus:
        raise LostCurve("no jump in the window")
    lo, hi = _bisect_loop(lambda m: p.solve(m, t).u_plus > mid, lo, hi,
                          1e-12)
    return 0.5 * (lo + hi)


class _OnePointTracker(ShockAnalyzer):
    """Reference: the jump bisected and the traces read at one solve per
    point, with no Newton step."""

    def _traces(self, x, t):
        return (self.problem.solve(x - 1e-7, t).u_minus,
                self.problem.solve(x + 1e-7, t).u_plus)

    def _locate_jump(self, x_hat, t, um, up, w):
        x = _one_point_jump(self.problem, x_hat, t, 0.5 * (um + up), w)
        return (x,) + self._traces(x, t)


def _certified_node(p, x, t, mid):
    """The node's certificate: u+ drops through mid between x -+ eps."""
    eps = max(5e-13, math.ulp(x))
    return p.solve(x - eps, t).u_plus > mid > p.solve(x + eps, t).u_plus


_MERGING = idata.InitialData([idata.Piece(-1.0, 0.0, "const", {"c": 1.0})],
                             left_tail=2.0, right_tail=0.0)
# flux, data, x0, t0, t_end, dt, nodes; exponential(0.7) on sin_wave() has
# its jump at t = 2 on x = 2.15879067195 (bisected)
_TRACKS = {
    "step": (flux.burgers(), idata.step(1.0, 0.0), 0.4, 0.8, 1.0, 0.05, 5),
    "phase_sine": (flux.burgers(), idata.sin_wave(c=0.5), -0.5, 2.0, 2.15,
                   0.05, 4),
    "merging": (flux.burgers(), _MERGING, 0.0, 0.0, 1.2, 0.1, 12),
    "quartic": (flux.power2n(2), idata.sin_wave(), 0.0, 1.5, 2.0, 0.1, 6),
    "exponential": (flux.exponential(0.7), idata.sin_wave(), 2.15879067195,
                    2.0, 2.3, 0.05, 7),
    "far": (flux.burgers(), idata.step(1.0, 0.0, x0=1e4), 1e4 + 0.25, 0.5,
            0.6, 0.05, 3),
}


def _tracks(name):
    f, data, x0, t0, t_end, dt, n_nodes = _TRACKS[name]
    p = Problem(f, data)
    got = ShockAnalyzer(p).track_forward(x0, t0, t_end, dt)
    ref = _OnePointTracker(p).track_forward(x0, t0, t_end, dt)
    assert len(got.nodes) == len(ref.nodes) == n_nodes
    return got, ref


@pytest.mark.parametrize("name", sorted(_TRACKS))
def test_track_nodes_match_one_point_bisection(name):
    # the Newton node is certified by the bisection's own test one ulp or
    # 5e-13 to each side, so it lies within about 1e-12 of the bisection's
    got, ref = _tracks(name)
    for g, r in zip(got.nodes, ref.nodes):
        assert g.t == r.t
        assert abs(g.x - r.x) <= max(1e-12, 2.0 * math.ulp(r.x))
        assert g.u_minus == pytest.approx(r.u_minus, abs=1e-10)
        assert g.u_plus == pytest.approx(r.u_plus, abs=1e-10)


@pytest.mark.parametrize("name", ["step", "phase_sine", "far"])
def test_track_fallback_equals_one_point_bisection(name, monkeypatch):
    # with no branch gap to step on, one bisection walk of each window
    # places the jump, and one block certifies it: every node lies within
    # 1e-12 (two ulps far from the origin) of the one-point bisection's,
    # and u+ drops through the middle of the last traces between x -+ eps
    monkeypatch.setattr(GeneralProblem, "branch_gap", lambda *args: None)
    got, ref = _tracks(name)
    p = Problem(*_TRACKS[name][:2])
    for prev, g, r in zip(ref.nodes, got.nodes[1:], ref.nodes[1:]):
        assert g.t == r.t
        assert abs(g.x - r.x) <= max(1e-12, 2.0 * math.ulp(r.x))
        assert _certified_node(p, g.x, g.t,
                               0.5 * (prev.u_minus + prev.u_plus))
        assert g.u_minus == pytest.approx(r.u_minus, abs=1e-10)
        assert g.u_plus == pytest.approx(r.u_plus, abs=1e-10)


def _count_work(monkeypatch):
    """Count the blocks, the calls of _maximize_block and of the one-root
    kernel that rows before the breaking time take, and the ties that end
    in a bisection walk (no certificate held on their steps), from now on."""
    count = {"blocks": 0, "walks": 0}
    tie = shock_analysis.tie

    def counted(name):
        block = getattr(GeneralProblem, name)

        def counted_block(self, *args):
            count["blocks"] += 1
            return block(self, *args)
        monkeypatch.setattr(GeneralProblem, name, counted_block)

    def counted_tie(*args):
        x, node = tie(*args)
        count["walks"] += node is None
        return x, node

    counted("_maximize_block")
    counted("_one_roots")
    monkeypatch.setattr(shock_analysis, "tie", counted_tie)
    return count


@pytest.mark.parametrize("name", ["step", "phase_sine", "merging"])
def test_track_block_budget(name, monkeypatch):
    # at most two branch blocks and one certifying block per step, so no
    # bisection walk, which took about 16.6 blocks per node
    f, data, x0, t0, t_end, dt, n_nodes = _TRACKS[name]
    sa = ShockAnalyzer(Problem(f, data))
    count = _count_work(monkeypatch)
    cur = sa.track_forward(x0, t0, t_end, dt)
    assert len(cur.nodes) == n_nodes
    assert count["walks"] == 0
    assert count["blocks"] <= 3 * n_nodes


def test_smooth_track_takes_one_block_per_node(sin_sa, monkeypatch):
    # before Burgers/sine forms its shock, each step reads the point on the
    # characteristic and the traces 1e-7 to each side of it in one block,
    # whose rows equal their point solves bit for bit
    count = _count_work(monkeypatch)
    cur = sin_sa.track_forward(-2.0, 0.1, 0.6, 0.1)
    assert len(cur.nodes) == 6
    assert all(n.u_minus - n.u_plus <= sin_sa.problem.jump_tol
               for n in cur.nodes)
    assert count["blocks"] == len(cur.nodes)
    ref = _OnePointTracker(sin_sa.problem).track_forward(-2.0, 0.1, 0.6, 0.1)
    assert [repr(n) for n in cur.nodes] == [repr(n) for n in ref.nodes]


def test_fallback_places_the_node_on_the_shock_run_into(sin_sa,
                                                       monkeypatch):
    # the characteristic from (-0.5, 1/8) runs into the standing shock of
    # Burgers/sine at x = 0 just before t = 1.125: the branch gap at
    # x_hat = 0.0372 reaches mid, the walk puts the node on the shock, and
    # its block certifies it; later nodes stay on it.  The 12 nodes take 32
    # blocks
    count = _count_work(monkeypatch)
    cur = sin_sa.track_forward(-0.5, 0.125, 1.5, 0.125)
    assert count["walks"] == 1
    assert count["blocks"] <= 33
    late = [n for n in cur.nodes if n.t >= 1.125]
    assert len(late) == 4
    prev = cur.nodes[-5]
    for n in late:
        assert abs(n.x) < 1e-6
        assert abs(n.u_minus + n.u_plus) < 1e-6
        assert _certified_node(sin_sa.problem, n.x, n.t,
                               0.5 * (prev.u_minus + prev.u_plus))
        prev = n


def test_result_float_fields_are_python_floats(sin_sa):
    # every field declared float holds a Python float, not a numpy scalar,
    # so the results repr as plain numbers
    results = [sin_sa.generation_point(0.0, 0.0),
               sin_sa.chars.classify_termination(1.0, -math.sin(1.0)),
               sin_sa.chars.lifespans(1.0, -math.sin(1.0)),
               sin_sa.generation_point(0, 0),
               sin_sa.generation_point(np.float64(0.0), 0.0)]
    results += sin_sa.track_forward(-0.5, 0.125, 0.5, 0.125).nodes
    assert len(results) == 9
    for r in results:
        for f in dataclasses.fields(r):
            if f.type is float:
                v = getattr(r, f.name)
                assert type(v) is float, (type(r).__name__, f.name, v)
    assert "np." not in repr(results[:2])


def test_locate_jump_raises_lost_curve(riemann_sa, monkeypatch):
    # the step(1, 0) shock sits on x = 1/2 at t = 1: [1.9, 2.1] holds no
    # jump.  The branch gap at 2 reaches mid, so one block reads that the
    # window's ends hold no drop, with no walk: 2 blocks
    count = _count_work(monkeypatch)
    with pytest.raises(LostCurve):
        riemann_sa._locate_jump(2.0, 1.0, 1.0, 0.0, 0.1)
    assert count["walks"] == 0
    assert count["blocks"] <= 3


def _locate_with_a_bad_first_gap(sa, monkeypatch, fault):
    """_locate_jump(0.52, ...) on the step(1, 0) shock at x = 1/2, t = 1,
    with fault applied to the first branch gap's (gap, slope); its block
    and walk counts and the points of its branch gaps, its node checked."""
    gap = GeneralProblem.branch_gap
    calls = []

    def off(self, *args):
        g = gap(self, *args)
        calls.append(args[0])
        return (fault(*g[:2]) if len(calls) == 1 else g[:2]) + g[2:]

    count = _count_work(monkeypatch)
    monkeypatch.setattr(GeneralProblem, "branch_gap", off)
    node = sa._locate_jump(0.52, 1.0, 1.0, 0.0, 0.1)
    count = dict(count)
    p = sa.problem
    ref = _one_point_jump(p, 0.52, 1.0, 0.5, 0.1)
    assert abs(node[0] - ref) <= 1e-12
    assert _certified_node(p, node[0], 1.0, 0.5)
    assert node[1:] == _OnePointTracker(p)._traces(node[0], 1.0)
    return count, calls


def test_newton_iterate_leaving_window_falls_back(riemann_sa, monkeypatch):
    # a first gap too large by 1 decides that u+ > mid at 0.52, right of
    # the jump, and steps x by 1, out of the window of half-width 0.1: the
    # bracket is stranded right of the jump and its certificate fails, so
    # the window's ends are read, and one walk of the whole window places
    # the node, with the certificate, within 1e-12 of the one-point
    # bisection, in 19 blocks
    count, calls = _locate_with_a_bad_first_gap(
        riemann_sa, monkeypatch, lambda g, slope: (g + 1.0, slope))
    assert calls[0] == 0.52
    assert count["walks"] == 1
    assert count["blocks"] <= 20


def test_newton_step_past_held_probes_held(riemann_sa, monkeypatch):
    # a first slope 1000 times too small steps x far left of the window of
    # half-width 0.1, past its held end, which is probed instead; the steps
    # from there settle, and the node carries the certificate within 1e-12
    # of the one-point bisection
    count, calls = _locate_with_a_bad_first_gap(
        riemann_sa, monkeypatch, lambda g, slope: (g, 1e-3 * slope))
    assert calls[1] == 0.52 - 0.1
    assert count["walks"] == 0
    assert count["blocks"] <= 4


def test_branch_gap_with_no_step_probes_the_midpoint(riemann_sa,
                                                     monkeypatch):
    # a first slope of the wrong sign gives no step: the midpoint of the
    # bracket that the first read left, [0.42, 0.52], is probed next
    count, calls = _locate_with_a_bad_first_gap(
        riemann_sa, monkeypatch, lambda g, slope: (g, -slope))
    assert calls[1] == 0.5 * ((0.52 - 0.1) + 0.52)
    assert count["walks"] == 0
    assert count["blocks"] <= 4


def test_track_rh_consistency_with_polyline(sin_sa):
    d = idata.sin_wave(a=-1.0, b=1.0, c=0.5)   # asymmetric phase: moving shock
    sa = ShockAnalyzer(Problem(flux.burgers(), d))
    # locate the shock at t = 2 near the compression region, then track
    cur = sa.track_forward(-0.5, 2.0, 3.0, 0.02)
    ts, xs = cur.times(), cur.positions()
    slopes = np.diff(xs) / np.diff(ts)
    speeds = np.array([n.speed_right for n in cur.nodes[:-1]])
    assert np.max(np.abs(slopes - speeds)) < 0.05   # O(dt) agreement


def test_track_far_from_origin_terminates():
    # beyond |x| = 2**13 neighbouring floats lie more than the 1e-12 jump
    # tolerance apart, so the jump search must stop on lack of progress
    x0 = 1e4
    sa = ShockAnalyzer(Problem(flux.burgers(), idata.step(1.0, 0.0, x0=x0)))

    def hang(signum, frame):
        pytest.fail("track_forward did not terminate")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        cur = sa.track_forward(x0 + 0.25, 0.5, 0.6, 0.05)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert [n.x - x0 for n in cur.nodes] == pytest.approx(
        [0.25, 0.275, 0.3], abs=1e-8)


@pytest.mark.parametrize("x0, t0, t_end, dt", [
    (0.5, np.nan, 1.0, 0.1), (np.nan, 1.0, 1.5, 0.1), (0.5, 1.0, np.nan, 0.1),
    (0.5, 1.0, np.inf, 0.1), (0.5, -1.0, 1.5, 0.1), (0.5, 1.0, 1.5, 0.0),
    (0.5, 1.0, 1.5, -0.1), (0.5, 1.0, 1.5, np.nan)])
def test_track_rejects_bad_input(sin_sa, x0, t0, t_end, dt):
    with pytest.raises(ValueError):
        sin_sa.track_forward(x0, t0, t_end, dt)


@pytest.mark.parametrize("c", [np.nan, np.inf])
def test_generation_point_rejects_non_finite_c(sin_sa, c):
    # c = NaN gave GenerationPoint(x_p=nan, t_p=1.0, case='I')
    with pytest.raises(ValueError, match="x0 and c must be finite"):
        sin_sa.generation_point(0.0, c)


@pytest.mark.parametrize("t0, t_end, dt", [
    (1.0, 2.0, 1e-300),           # t + dt == t: the steps never reach t_end
    (1e5, 1e5 + 1e-10, 1e-12),    # the same in a hundred nominal steps
    (1.0, 1e300, 1.0)])           # past MAX_STEPS
def test_track_rejects_endless_steps(sin_sa, t0, t_end, dt):
    with pytest.raises(ValueError):
        sin_sa.track_forward(0.5, t0, t_end, dt)


def test_backward_feet_nesting(riemann_sa):
    cur = riemann_sa.track_forward(0.0, 0.0, 3.0, 0.1)
    feet_minus, feet_plus = [], []
    for n in cur.nodes:
        feet_minus.append(n.x - n.t * n.u_minus)
        feet_plus.append(n.x - n.t * n.u_plus)
    assert np.all(np.diff(feet_minus) <= 1e-7)    # y- nonincreasing
    assert np.all(np.diff(feet_plus) >= -1e-7)    # y+ nondecreasing


# -- backward structure ----------------------------------------------------

def test_backward_triangle_regular_shock(riemann_sa):
    tri = riemann_sa.backward_triangle(0.5, 1.0)
    assert tri.interval[0] == pytest.approx(0.0, abs=1e-9)
    assert tri.interval[1] == pytest.approx(1.0, abs=1e-9)
    assert len(tri.gaps) == 1
    assert tri.gaps[0][0] == pytest.approx(0.0, abs=1e-9)
    assert tri.gaps[0][1] == pytest.approx(1.0, abs=1e-9)
    assert tri.rarefactions == ()


def test_backward_triangle_continuous_point(riemann_sa):
    tri = riemann_sa.backward_triangle(-0.5, 1.0)
    assert tri.interval[1] - tri.interval[0] <= 1e-9
    assert tri.gaps == () and tri.rarefactions == ()


def test_backward_triangle_focal_point():
    # phi = 1 - x on [0,1]: the focal point carries the full interval [0,1]
    d = idata.InitialData([idata.Piece(0.0, 1.0, "poly", {"coeffs": [1.0, -1.0]})],
                          left_tail=1.0, right_tail=0.0)
    sa = ShockAnalyzer(Problem(flux.burgers(), d))
    tri = sa.backward_triangle(1.0, 1.0)
    assert len(tri.rarefactions) == 1
    lo, hi = tri.rarefactions[0]
    assert lo == pytest.approx(0.0, abs=1e-4)
    assert hi == pytest.approx(1.0, abs=1e-4)
    assert tri.gaps == ()


def test_rarefaction_component_carries_fan(merging_sa):
    # inside the wedge of a backward interval component the solution is the
    # self-similar fan u = (f')^{-1}((x - x0)/(t - t0))
    d = idata.step(0.0, 1.0)
    p = Problem(flux.burgers(), d)
    sa = ShockAnalyzer(p)
    tri = sa.backward_triangle(0.5, 1.0)
    # fan value at the apex from the decomposition viewpoint
    assert p.solve(0.5, 1.0).u_plus == pytest.approx(0.5, abs=1e-8)
    assert tri.interval[1] - tri.interval[0] <= 1e-6


def test_directional_limits_simple(riemann_sa):
    dl = riemann_sa.directional_limits(0.5, 1.0)
    assert dl.left == pytest.approx(1.0, abs=1e-6)
    assert dl.right == pytest.approx(0.0, abs=1e-6)


def test_directional_limits_merge_point(merging_sa):
    dl = merging_sa.directional_limits(0.5, 1.0)
    assert dl.left == pytest.approx(2.0, abs=1e-6)
    assert dl.right == pytest.approx(0.0, abs=1e-6)
    assert len(dl.gap_limits) == 2
    (d1, c1), (d2, c2) = dl.gap_limits
    # branch carried by gap (0,1): traces (1, 0); by gap (1,2): traces (2, 1)
    assert (d1, c1) == (pytest.approx(1.0, abs=1e-6), pytest.approx(0.0, abs=1e-6))
    assert (d2, c2) == (pytest.approx(2.0, abs=1e-6), pytest.approx(1.0, abs=1e-6))


# -- point classification --------------------------------------------------

def test_classify_points(riemann_sa, sin_sa, merging_sa):
    assert riemann_sa.classify_point(0.25, 1.0).kind == "interior_characteristic"
    assert riemann_sa.classify_point(0.5, 1.0) \
        .kind == "single_shock_point"
    assert riemann_sa.classify_point(0.5, 1.0).detail == "regular"
    assert sin_sa.classify_point(0.0, 1.0).kind == "continuous_shock_generation"
    # t < t_p of the point's characteristic: interior, however close to
    # the generation point (0, 1) or to the shock x = t/2
    for sa, x, t in ((sin_sa, 0.0, 0.999), (sin_sa, 0.0, 0.9999),
                     (riemann_sa, 0.504, 1.0)):
        assert sa.classify_point(x, t).kind == "interior_characteristic"
    pc = merging_sa.classify_point(0.5, 1.0)
    assert pc.kind == "multi_shock_collision" and pc.detail == 2


def _count_rows(monkeypatch):
    """Record the row count of every block any problem maximizes, by the
    scan (_maximize_block) or, before the breaking time, by the one-root
    kernel."""
    rows = []
    for name in ("_maximize_block", "_one_roots"):
        def counted(self, xs, *args, _block=getattr(GeneralProblem, name)):
            rows.append(len(xs))
            return _block(self, xs, *args)

        monkeypatch.setattr(GeneralProblem, name, counted)
    return rows


def test_classify_shock_point_maximizes_once(riemann_sa, monkeypatch):
    # the backward triangle comes from the solve's own maximizer set
    rows = _count_rows(monkeypatch)
    pc = riemann_sa.classify_point(0.5, 1.0)
    assert (pc.kind, pc.detail) == ("single_shock_point", "regular")
    assert rows == [1]


def test_classify_interior_point_maximizes_once(sin_sa, monkeypatch):
    # t_p is in closed form, so the solve's block is the only one
    rows = _count_rows(monkeypatch)
    assert sin_sa.classify_point(0.3, 0.5).kind == "interior_characteristic"
    assert rows == [1]


def test_classify_smooth_point_whose_value_misses_phi_at_its_foot():
    # phi = sgn(x) sqrt|x| is increasing, so every point is interior; at
    # this point phi' is about 20 at the foot, where the solved c misses
    # phi(x0) by 1.2e-11: within jump_tol, so t_p is not read as 0
    d = idata.InitialData([idata.Piece(-1.0, 1.0, "power", {
        "a": 1.0, "b": 0.0, "x_ref": 0.0, "g": 0.5})],
        left_tail=-1.0, right_tail=1.0)
    sa = ShockAnalyzer(Problem(flux.burgers(), d))
    x, t = 0.03546487410077015, 1.4261909075256436
    c = sa.problem.solve(x, t).u_plus
    assert abs(float(d.phi(x - t * c)) - c) > 1e-12
    assert sa.classify_point(x, t).kind == "interior_characteristic"


_FAN_SA = {
    "step": ShockAnalyzer(Problem(flux.burgers(), idata.step(-1.0, 1.0))),
    "sampled": ShockAnalyzer(Problem(flux.burgers(), idata.SampledData(
        np.linspace(-2.0, 2.0, 9),
        np.array([-1.0, -1.0, -0.5, -0.5, 0.5, 0.5, 1.0, 1.0, 1.0])))),
}


@pytest.mark.parametrize("name, x, t", [
    ("step", 0.0, 1.0), ("step", 0.0, 1e3), ("step", -123.975, 150.0),
    ("step", 112.57500000000002, 150.0), ("step", -503.5, 1e3),
    ("step", 503.5, 1e3), ("sampled", -128.25, 150.0),
    ("sampled", 128.25, 150.0)])
def test_classify_fan_point_whose_foot_misses_the_jump(name, x, t):
    # the foot x - t c of these fan points lies 1e-14 to 3e-10 off the jump
    # of phi, so both one-sided limits there lie on one side of c; the fan's
    # sides are rarefaction sides, and the point is interior
    sa = _FAN_SA[name]
    s = sa.problem.solve(x, t)
    assert not s.is_shock
    assert not sa.chars.carries(x - t * s.u_plus, s.u_plus)
    assert sa.classify_point(x, t).kind == "interior_characteristic"


def _cubic_sa():
    # phi = 1/2 - x + x^3/2 on [-1, 1]: the characteristic of c = 1/2 from
    # x0 = 0 generates a shock at (1/2, 1)
    d = idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.5, -1.0, 0.0, 0.5]})],
        left_tail=1.0, right_tail=0.0)
    return ShockAnalyzer(Problem(flux.burgers(), d))


@pytest.mark.parametrize("name", ["sine", "cubic"])
def test_classify_generation_point_and_before(name, sin_sa):
    sa, c = (sin_sa, 0.0) if name == "sine" else (_cubic_sa(), 0.5)
    gp = sa.generation_point(0.0, c)
    assert sa.classify_point(gp.x_p, gp.t_p).kind \
        == "continuous_shock_generation"
    assert sa.chars.lifespan_exact(0.0, c) == gp.t_p
    t = 0.999 * gp.t_p
    assert sa.classify_point(t * gp.speed_c, t).kind \
        == "interior_characteristic"


_CLASSIFY_SA = {
    "burgers_sine": ShockAnalyzer(Problem(flux.burgers(), idata.sin_wave())),
    "quartic_sine": ShockAnalyzer(Problem(flux.power2n(2), idata.sin_wave())),
    "exponential_sine": ShockAnalyzer(
        Problem(flux.exponential(0.7), idata.sin_wave())),
    "step_down": ShockAnalyzer(Problem(flux.burgers(), idata.step(1.0, 0.0))),
    "cubic": _cubic_sa(),
}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(_CLASSIFY_SA)), x=st.floats(-3.0, 3.0),
       t=st.floats(0.2, 2.0))
def test_classify_point_agrees_with_lifespan_exact(name, x, t):
    # a smooth point is a continuous generation point iff the exact
    # lifespan of its characteristic ends there
    sa = _CLASSIFY_SA[name]
    s = sa.problem.solve(x, t)
    assume(not s.is_shock)
    c = s.u_plus
    t_star = sa.chars.lifespan_exact(x - t * sa.flux.deriv(c), c)
    assert t_star >= t - T_TOL
    assert (sa.classify_point(x, t).kind == "continuous_shock_generation") \
        == (t_star <= t + T_TOL)


def test_classify_discontinuous_generation():
    d = idata.InitialData([idata.Piece(0.0, 1.0, "poly", {"coeffs": [1.0, -1.0]})],
                          left_tail=1.0, right_tail=0.0)
    sa = ShockAnalyzer(Problem(flux.burgers(), d))
    assert sa.classify_point(1.0, 1.0).kind == "discontinuous_shock_generation"
