"""End-to-end acceptance suite: each test exercises one headline guarantee."""

import time

import numpy as np
import pytest

from laxo import flux, initial_data as idata
from laxo.characteristics import CharacteristicAnalyzer
from laxo.flux import GeneralFluxPair
from laxo.global_structure import GlobalStructure
from laxo.reference_oracle import FvGrid, compare
from laxo.shock_analysis import ShockAnalyzer
from laxo.variational_core import GeneralProblem, Problem, identity_pair


@pytest.fixture(scope="module")
def sin_problem():
    return Problem(flux.burgers(), idata.sin_wave())


def _bisect_jump(p, t, lo, hi, threshold=0.0, iters=70):
    """x where u_plus(., t) drops through the threshold."""
    for _ in range(iters):
        m = 0.5 * (lo + hi)
        if p.solve(m, t).u_plus > threshold:
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


# 1 ------------------------------------------------------------------------

def test_formula_matches_finite_volume_oracle(sin_problem):
    start = time.time()
    cases = [
        (Problem(flux.burgers(), idata.step(1.0, 0.0)),
         lambda n: FvGrid(-1.0, 2.0, n), True),
        (Problem(flux.burgers(), idata.step(-1.0, 1.0)),
         lambda n: FvGrid(-3.0, 3.0, n), False),
        (sin_problem,
         lambda n: FvGrid(-np.pi, np.pi, n, boundary="periodic"), False),
    ]
    for p, mk, has_shock in cases:
        errs = []
        for n in (100, 200, 400, 800):
            g = mk(n)
            r = compare(p, 1.0, g)
            errs.append(r["l1"])
            if has_shock:
                assert r["shock_offset"] <= g.dx
        assert all(b < a for a, b in zip(errs, errs[1:]))
    assert time.time() - start < 60.0


# 2 ------------------------------------------------------------------------

def test_one_sided_steepening_bound():
    problems = [
        Problem(flux.burgers(), idata.sin_wave()),
        Problem(flux.burgers(), idata.step(1.0, 0.0)),
        Problem(flux.burgers(), idata.step(-1.0, 1.0)),
        Problem(flux.power2n(2), idata.sin_wave()),
        Problem(flux.burgers(), idata.InitialData(
            [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, -1.0]})],
            left_tail=1.0, right_tail=-1.0)),
    ]
    rng = np.random.default_rng(11)
    worst = -np.inf
    for p in problems:
        for _ in range(2000):
            x1, x2 = np.sort(rng.uniform(-4.0, 4.0, 2))
            t = rng.uniform(0.1, 5.0)
            # one block for the pair: solve_grid equals point solves bit
            # for bit
            s1, s2 = p.solve_grid([x1, x2], t)
            lhs = p.flux.deriv(s2.u_plus) - p.flux.deriv(s1.u_minus)
            worst = max(worst, lhs - (x2 - x1) / t)
    assert worst <= 1e-8


# 3 ------------------------------------------------------------------------

def test_shock_formation_time(sin_problem):
    # before breakdown the finite-difference slope stays modest ...
    g = np.linspace(-0.5, 0.5, 1001)
    u = np.array([sin_problem.solve(x, 0.9).u_plus for x in g])
    assert np.max(np.abs(np.diff(u))) / (g[1] - g[0]) < 1e2
    # ... just after t = 1 the profile has torn
    g = np.linspace(-0.01, 0.01, 2001)
    u = np.array([sin_problem.solve(x, 1.001).u_plus for x in g])
    assert np.max(np.abs(np.diff(u))) / (g[1] - g[0]) > 1e3


def test_shock_formation_time_degenerate_flux():
    # quartic flux with cube-root data: the compression-rate formula and
    # the bisected breakdown time agree
    d = idata.InitialData(
        [idata.Piece(-1.0, 1.0, "power",
                     {"a": -1.0, "g": 1.0 / 3.0, "x_ref": 0.0})],
        left_tail=1.0, right_tail=-1.0)
    fl = flux.power2n(2)
    ca = CharacteristicAnalyzer(Problem(fl, d))
    le = d.local_expansion(0.0, 0.0, "right")
    dg = fl.fit_degeneracy(0.0, "left")
    predicted = 1.0 / (le.gamma * dg.N * abs(le.C_gamma) ** (1.0 + dg.alpha))
    assert ca.lifespan_upper(0.0, 0.0) == (predicted, predicted)
    t_star = ca.lifespan_exact(0.0, 0.0)
    assert abs(t_star - predicted) <= 0.01 * predicted


# 4 ------------------------------------------------------------------------

def test_lifespan_bisection_consistency(sin_problem):
    ca = CharacteristicAnalyzer(sin_problem)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x0 = float(rng.uniform(-3.0, 3.0))
        c = float(sin_problem.data.phi(x0))
        ls = ca.lifespans(x0, c)
        assert ls.t_star <= ls.t_p + 1e-6
        if np.isfinite(ls.t_star):
            assert ca._on_characteristic(x0, c,
                                         np.array([ls.t_star - 2e-8]))[0]
            assert not ca._on_characteristic(x0, c,
                                             np.array([ls.t_star + 2e-8]))[0]


# 5 ------------------------------------------------------------------------

def test_divide_locations_and_values(sin_problem):
    gs = GlobalStructure(sin_problem)
    h = gs.convex_hull()
    grid_h = 1e-3 * 2 * np.pi
    assert len(h.K0) == 1
    assert abs(abs(h.K0[0][0]) - np.pi) <= grid_h
    for t in (0.5, 2.0, 8.0, 32.0, 64.0):
        s = sin_problem.solve(np.pi, t)
        assert abs(s.u_plus) <= 1e-6 and abs(s.u_minus) <= 1e-6


def test_divide_fan_rarefaction():
    p = Problem(flux.burgers(), idata.step(-1.0, 1.0))
    gs = GlobalStructure(p)
    f = gs.divide_fan(0.0)
    assert (f.lo, f.hi) == (-1.0, 1.0)
    t = 2.0
    for x in np.linspace(-1.9, 1.9, 21):
        assert p.solve(x, t).u_plus == pytest.approx(x / t, abs=1e-8)


# 6 ------------------------------------------------------------------------

def test_sup_norm_decay(sin_problem):
    xs = np.linspace(-np.pi, np.pi, 801)
    sups = []
    for t in (20.0, 40.0, 80.0):
        ss = sin_problem.solve_grid(xs, t)
        sup = max(max(abs(s.u_minus), abs(s.u_plus)) for s in ss)
        sups.append(sup)
        assert 2.8 <= sup * t <= np.pi * 1.05
    slope = np.polyfit(np.log([20.0, 40.0, 80.0]), np.log(sups), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_sup_norm_decay_degenerate_flux():
    gs = GlobalStructure(Problem(flux.power2n(2), idata.sin_wave()))
    e, _, _ = gs.measure_decay("sup", (-np.pi, np.pi),
                               [20.0, 40.0, 80.0, 160.0])
    assert e == pytest.approx(-1.0 / 3.0, abs=0.05)


# 7 ------------------------------------------------------------------------

def test_shock_approaches_gap_midpoint():
    xs = np.linspace(-np.pi, np.pi, 16385)
    d = idata.SampledData(xs, -np.sin(xs) + 0.3 * np.sin(2 * xs),
                          period=2 * np.pi)
    p = Problem(flux.burgers(), d)
    gs = GlobalStructure(p)
    gaps = [r for r in gs.partition().regions if r.kind == "gap"]
    assert len(gaps) == 1
    e, h = gaps[0].interval
    mid = 0.5 * (e + h)
    dists = []
    for t in (10.0, 25.0, 40.0, 55.0, 70.0, 85.0, 100.0):
        x = _bisect_jump(p, t, -1.0, 1.5)
        dists.append(abs(x - mid))
    assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
    x100 = _bisect_jump(p, 100.0, -1.0, 1.5)
    theta = (x100 - e) / (h - e)
    assert 0.45 <= theta <= 0.55


# 8 ------------------------------------------------------------------------

def test_nwave_l1_convergence(sin_problem):
    gs = GlobalStructure(sin_problem)
    t = 50.0
    xs = np.linspace(-np.pi, np.pi, 801)
    us = np.array([s.u_plus for s in sin_problem.solve_grid(xs, t)])
    ws = np.array([gs.nwave(x, t) for x in xs])
    fl = sin_problem.flux
    err = np.trapezoid(np.abs(fl.deriv(us) - fl.deriv(ws)), xs)
    assert err < 0.02


# 9 ------------------------------------------------------------------------

def _pval(c, x):
    return sum(ci * x ** i for i, ci in enumerate(c))


def test_development_exponent_symmetric():
    # quintic perturbation of linear compression on both sides: the shock
    # leaves the formation point like (t - 1)^{5/2} with a negative sign
    cl = [0.0, -1.0, 0.0, 1.0, 0.0, 0.5]
    cr = [0.0, -1.0, 0.0, 1.0, 0.0, -0.5]
    d = idata.InitialData(
        [idata.Piece(-0.45, 0.0, "poly", {"coeffs": cl}),
         idata.Piece(0.0, 0.45, "poly", {"coeffs": cr})],
        left_tail=_pval(cl, -0.45), right_tail=_pval(cr, 0.45))
    p = Problem(flux.burgers(), d)
    sa = ShockAnalyzer(p)
    gp = sa.generation_point(0.0, 0.0)
    dev = sa.development_asymptotics(
        gp, {"gamma": 1.0, "sigma": 2.0, "Cbar_sigma_plus": 1.0,
             "Cbar_sigma_minus": 1.0, "rho": 2.0, "Cbar_rho": -0.5})
    assert dev.exponent_curve == pytest.approx(2.5)
    assert dev.coeff_curve < 0
    deltas = np.geomspace(1e-2, 1e-1, 7)
    offs = np.array([_bisect_jump(p, 1.0 + dd, -0.2, 0.2) for dd in deltas])
    assert np.all(offs < 0)
    slope = np.polyfit(np.log(deltas), np.log(-offs), 1)[0]
    assert abs(slope - dev.exponent_curve) <= 0.1 * dev.exponent_curve


def test_development_exponent_one_sided():
    # constant state meeting a quadratic ramp: quadratic shock offset with
    # a negative sign
    d = idata.InitialData(
        [idata.Piece(0.0, 0.5, "poly", {"coeffs": [1.0, -1.0, 1.0]})],
        left_tail=1.0, right_tail=0.75)
    p = Problem(flux.burgers(), d)
    sa = ShockAnalyzer(p)
    dev = sa.development_asymptotics(
        sa.generation_point(0.0, 1.0),
        {"gamma": 1.0, "sigma": 1.0, "Cbar_sigma": 1.0})
    assert dev.exponent_curve == pytest.approx(2.0)
    assert dev.coeff_curve < 0
    deltas = np.geomspace(1e-2, 1e-1, 7)
    offs = []
    for dd in deltas:
        t = 1.0 + dd
        x = _bisect_jump(p, t, t - 0.3, t + 0.05, threshold=0.99999)
        offs.append(x - t)
    offs = np.array(offs)
    assert np.all(offs < 0)
    slope = np.polyfit(np.log(deltas), np.log(-offs), 1)[0]
    assert abs(slope - dev.exponent_curve) <= 0.1 * dev.exponent_curve


# 10 -----------------------------------------------------------------------

def test_semigroup_restart(sin_problem):
    xs = np.concatenate([np.linspace(-3.0, -0.05, 40),
                         np.linspace(0.05, 3.0, 40)])
    ref = np.array([sin_problem.solve(x, 3.0).u_plus for x in xs])
    for tau in (0.5, 2.0):
        rp = sin_problem.restart(tau)
        got = np.array([rp.solve(x, 3.0).u_plus for x in xs])
        assert np.max(np.abs(got - ref)) <= 1e-3


def test_l1_contraction():
    rng = np.random.default_rng(7)
    b = flux.burgers()
    t = 0.7
    gx = np.linspace(-4.0, 4.0, 201)
    fine = np.linspace(-2.0, 2.0, 2001)
    knots = np.linspace(-2.0, 2.0, 17)
    for _ in range(100):
        ua = rng.uniform(-1, 1, 17)
        ub = rng.uniform(-1, 1, 17)
        ua[0] = ua[-1] = ub[0] = ub[-1] = 0.0
        da, db = idata.SampledData(knots, ua), idata.SampledData(knots, ub)
        rhs = np.trapezoid(np.abs(da.phi(fine) - db.phi(fine)), fine)
        pa = Problem(b, da, n_scan=256)
        pb = Problem(b, db, n_scan=256)
        va = np.array([s.u_plus for s in pa.solve_grid(gx, t)])
        vb = np.array([s.u_plus for s in pb.solve_grid(gx, t)])
        lhs = np.trapezoid(np.abs(va - vb), gx)
        # 0.02 covers the trapezoid error of integrating across jumps
        assert lhs <= rhs + 0.02


# 11 -----------------------------------------------------------------------

def test_general_pair_identity_reduction(sin_problem):
    gp = GeneralProblem(identity_pair(sin_problem.flux), sin_problem.data)
    for x, t in ((0.37, 1.9), (-1.2, 0.6), (2.5, 3.3), (0.0, 2.0)):
        a = sin_problem.solve(x, t)
        b = gp.solve(x, t)
        assert (a.u_minus, a.u_plus) == (b.u_minus, b.u_plus)


def test_general_pair_shock_speed():
    # U = u^3 + u, F = 3u^4/4 + u^2/2: the (1 -> 0) jump moves at
    # [F]/[U] = 1.25/2
    U = lambda u: np.asarray(u, dtype=float) ** 3 + np.asarray(u, dtype=float)
    Up = lambda u: 3.0 * np.asarray(u, dtype=float) ** 2 + 1.0
    pair = GeneralFluxPair(
        U, Up,
        H=lambda u: np.asarray(u, dtype=float))
    p = GeneralProblem(pair, idata.step(1.0, 0.0))
    t = 1.6
    x = _bisect_jump(p, t, 0.0, 1.25 * t, threshold=0.5)
    assert x / t == pytest.approx(0.625, abs=1e-6)
