"""The ledger of known wrong answers: one strict xfail per open ``FOUND:``
entry of CHANGES.md that reproduces.

Each test asserts the right answer against an independent oracle, so a
fix makes it pass, which a strict marker turns into a failure until the
mending change removes the marker.  The solver's oracle is one dense scan
of E through ``_E``, one array call of 2**16 points over the u-window that
the solve itself scans (``_window``); a solver with a larger ``n_scan``
would not do, as a block of that many cells takes the coarse pass.  The
N-wave's oracle is the solver: its jump, where the Burgers case, in which
the N-wave's shock is right, passes as the control, and its values left of
the first divide.  The track's oracle is the closed form of the
characteristic it follows and of the time that characteristic meets the
standing shock of -sin x.  The Riemann case's oracle is its exact
solution.  The hulls' oracle is the closed-form primitive and its contact
set.  The development constants' oracle is the error contract: a
finite answer or a typed error.
"""

import dataclasses
import math

import numpy as np
import pytest

from laxo import flux, initial_data as idata
from laxo.errors import LaxoError
from laxo.global_structure import GlobalStructure
from laxo.shock_analysis import ShockAnalyzer
from laxo.variational_core import Problem

DENSE = 2 ** 16


def _dense(p, x, t):
    """The best of E(.; x, t) over 2**16 points of the u-window of t:
    (its value, its u, the spacing of the points)."""
    start, width = (int(v[0]) for v in p._window(t))
    u = np.linspace(p._s[start], p._s[start + width - 1], DENSE)
    E = p._E(p._W(x - t * p._H0), u, x, t)
    k = int(E.argmax())
    return float(E[k]), float(u[k]), float(u[1] - u[0])


def _knots_33():
    """33 random knots of period 3 (ROADMAP, *Measured*)."""
    rng = np.random.default_rng(5)
    xs = np.sort(np.concatenate([[0.0, 3.0], rng.uniform(0.0, 3.0, 31)]))
    us = rng.uniform(-1.0, 1.0, 33)
    us[-1] = us[0]
    return idata.SampledData(xs, us, period=3.0)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: the 2 049-point u-scan aliases at t = 1e4 on Burgers/sine, "
    "where its foot spacing t h exceeds the period (ROADMAP item 8)"))
def test_late_sine_reaches_the_dense_maximum():
    p = Problem(flux.burgers(), idata.sin_wave())
    top, _, _ = _dense(p, 1.1, 1e4)
    assert p.maximize(1.1, 1e4).max_value >= top - p.val_tol


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: on periodic sampled data the fixed u-scan aliases long before "
    "t = 1e4: 33 random knots of period 3 at t = 160 (ROADMAP item 8)"))
def test_random_knots_reach_the_dense_maximum():
    # x = 1.575 is one of the 21 of 41 points of [0, 3] that miss the dense
    # maximum on this draw at t = 160 (by 0.027); x = 1.5 does not
    p = Problem(flux.burgers(), _knots_33())
    top, _, _ = _dense(p, 1.575, 160.0)
    assert p.maximize(1.575, 160.0).max_value >= top - p.val_tol


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: on 4 097 knots of 0.7 - sin x at t = 0.6 the 2 049-point u-scan "
    "returns a grid point 7.4e-8 below the dense maximum, which lies in the "
    "grid cell left of it (ROADMAP items 12 and 15)"))
def test_fine_sampled_data_reach_the_dense_maximum_early():
    # the cell left of u = 1.4194358481453662 holds two roots of psi, and
    # the second one is the maximum; n_scan = 4097 finds it
    xs = np.linspace(-np.pi, np.pi, 4097)
    d = idata.SampledData(xs, 0.7 - np.sin(xs), period=2.0 * np.pi)
    p = Problem(flux.burgers(), d)
    top, _, _ = _dense(p, 0.05, 0.6)
    assert p.maximize(0.05, 0.6).max_value >= top - p.val_tol


def test_tailed_hull_between_nodes_meets_the_primitive():
    # the primitive cos x - 1 (tails 0) touches its envelope, -2, at +-pi
    # only, between two nodes: each short contact on the tail line is the
    # root of phi there (the nodes alone put K0 5.2e-3 off)
    w = 2.0 * np.pi + 0.3
    d = idata.InitialData([idata.Piece(-w, w, "sin",
                                       {"a": -1.0, "b": 1.0, "c": 0.0})],
                          left_tail=0.0, right_tail=0.0)
    h = GlobalStructure(Problem(flux.burgers(), d)).convex_hull()
    assert len(h.K0) == 2
    for (lo, hi), x0 in zip(h.K0, (-np.pi, np.pi)):
        assert abs(lo - x0) <= 1e-9 and abs(hi - x0) <= 1e-9
    xs = np.linspace(-7.0, 7.0, 200001)
    assert np.max(h.value(xs) - d.primitive(xs)) <= h.hull_tol


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: the ends of wide contact runs, and contacts between the "
    "tangencies of the tail lines, stay at nodes: on sin 3x over [-pi, pi] "
    "with tails -0.5 and 0.5 the ends of K0 lie 7.0e-4 and 2.1e-3 off and "
    "the envelope 1.5e-5 above the primitive (ROADMAP item 11)"))
def test_wide_runs_and_inner_contacts_meet_the_primitive():
    # Phi = (1 - cos 3x) / 3 lies on its envelope on [-13 pi/18, -2 pi/3],
    # where sin 3x rises from -1/2 to 0, at 0, and on [2 pi/3, 13 pi/18],
    # where it rises from 0 to 1/2: the tail lines touch at -+13 pi/18,
    # and the two chords between have slope 0
    d = idata.InitialData([idata.Piece(-np.pi, np.pi, "sin",
                                       {"a": 1.0, "b": 3.0, "c": 0.0})],
                          left_tail=-0.5, right_tail=0.5)
    h = GlobalStructure(Problem(flux.burgers(), d)).convex_hull()
    exact = ((-13 * np.pi / 18, -2 * np.pi / 3), (0.0, 0.0),
             (2 * np.pi / 3, 13 * np.pi / 18))
    assert len(h.K0) == 3
    for got, want in zip(h.K0, exact):
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9
    xs = np.linspace(-7.0, 7.0, 200001)
    assert np.max(h.value(xs) - d.primitive(xs)) <= h.hull_tol


def test_tiny_amplitude_is_smooth_at_the_dense_maximizer():
    # t = 0.5 lies below t_one = 1e6 of this data, so the one-root kernel
    # answers, and no flat band of the scan
    p = Problem(flux.burgers(), idata.sin_wave(-1e-6))
    _, u, du = _dense(p, 1.0, 0.5)
    s = p.solve(1.0, 0.5)
    assert not s.is_shock
    assert abs(s.u_plus - u) <= 2.0 * du and abs(s.u_minus - u) <= 2.0 * du


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: where the scan runs, val_tol and the flat test are absolute, so "
    "data of amplitude 1e-6 still read as one flat band: step(1e-6, 0) "
    "gives u+- = -+2e-6 and a shock at (-1, 1), where u = 1e-6 (ROADMAP "
    "item 11)"))
def test_tiny_step_is_smooth_left_of_its_shock():
    # step(1e-6, 0) jumps down, so it has no breaking-time certificate and
    # every solve scans; its shock runs on x = 5e-7 t
    p = Problem(flux.burgers(), idata.step(1e-6, 0.0))
    s = p.solve(-1.0, 1.0)
    assert not s.is_shock
    assert abs(s.u_plus - 1e-6) <= 1e-12 and abs(s.u_minus - 1e-6) <= 1e-12


def _asym_sine():
    """Period 2 pi: -sin x on [-pi, 0] and -0.5 sin x on [0, pi]."""
    return idata.InitialData(
        [idata.Piece(-np.pi, 0.0, "sin", {"a": -1.0, "b": 1.0, "c": 0.0}),
         idata.Piece(0.0, np.pi, "sin", {"a": -0.5, "b": 1.0, "c": 0.0})],
        period=2.0 * np.pi)


def _drop(u, xs, vals):
    """The x where u falls across the largest drop of its values vals on
    the grid xs: bisected on u above the mean of the two values there."""
    k = int(np.argmin(np.diff(vals)))
    a, b, mid = xs[k], xs[k + 1], 0.5 * (vals[k] + vals[k + 1])
    while b - a > 1e-9:
        c = 0.5 * (a + b)
        a, b = (c, b) if u(c) > mid else (a, c)
    return 0.5 * (a + b)


@pytest.mark.parametrize("fl", [
    flux.burgers(),
    pytest.param(flux.power2n(2), marks=pytest.mark.xfail(strict=True, reason=(
        "FOUND: nwave's default shock, the gap midpoint + t f'(c), holds "
        "only for quadratic f*; under power2n(2) it lies 0.65-1.10 from "
        "the solver's jump at t = 20-160 (ROADMAP item 9)")))],
    ids=["burgers", "power2n"])
def test_nwave_default_shock_meets_the_solver(fl):
    # the one gap's shock, of the solver and of nwave (the gap midpoint
    # moved at its speed), within 1/t of each other (ROADMAP item 9): under
    # Burgers 1.6e-4 apart at t = 40; under power2n(2) the solver's jump
    # is at 1.159 and nwave's at 0.321.  The Burgers case passes.
    t = 40.0
    p = Problem(fl, _asym_sine())
    gs = GlobalStructure(p)
    xs = np.linspace(-np.pi, np.pi, 129)
    solver = _drop(lambda x: p.solve(x, t).u_plus, xs,
                   [s.u_plus for s in p.solve_grid(xs, t)])
    nwave = _drop(lambda x: gs.nwave(x, t), xs,
                  [gs.nwave(x, t) for x in xs])
    assert abs(nwave - solver) <= 1.0 / t


def test_nwave_left_of_the_first_divide_meets_the_solver():
    # the asymmetric sine's one divide lies at -2.98, 0.16 right of
    # w_lo = -pi: points up to 0.16 left of its characteristic lie in the
    # wrap gap's band, whose fan is within 1e-4 of the solver at t = 40;
    # the mean 1/(2 pi) lies 3.7e-3 above it
    t = 40.0
    p = Problem(flux.burgers(), _asym_sine())
    gs = GlobalStructure(p)
    hull = gs.convex_hull()
    x0 = hull.K0[0][0] + t * hull.slope_left
    for dx in (0.05, 0.1, 0.15):
        assert abs(gs.nwave(x0 - dx, t) - p.solve(x0 - dx, t).u_plus) <= (
            1.0 / t ** 2)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: track_forward reads traces 1e-7 to each side of a node, which "
    "differ by more than jump_tol wherever |u_x| > 5, so a steep smooth "
    "step before the shock is taken as a shock step (ROADMAP item 13)"))
def test_steep_pre_shock_track_takes_no_shock_step(monkeypatch):
    # the characteristic of Burgers/-sin x from x0 = 0.3 carries -sin 0.3
    # along x = 0.3 - t sin 0.3 into the standing shock at x = 0, which it
    # meets at T = 0.3 / sin 0.3 = 1.015: the traces do not jump before T,
    # so no step there locates a jump.  With dt = 0.1 the node at t = 0.9
    # reads traces 1.4e-6 apart (|u_x| = 6.8), and the step to t = 1 is a
    # shock step; the steps after T are, as they must be
    sa = ShockAnalyzer(Problem(flux.burgers(), idata.sin_wave()))
    located = []
    locate = sa._locate_jump

    def spy(x_hat, t, um, up, w):
        located.append(t)
        return locate(x_hat, t, um, up, w)

    monkeypatch.setattr(sa, "_locate_jump", spy)
    curve = sa.track_forward(0.3, 0.0, 1.5, 0.1)
    T = 0.3 / math.sin(0.3)
    assert located and max(located) > T
    assert abs(curve.nodes[-1].x) <= 1e-6
    assert [t for t in located if t < T] == []


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: a Riemann jump of one grid cell at the bound leaves psi "
    "negative at both ends of the end cell and positive between, so the "
    "run takes the golden-section search, which places u = 1 only to "
    "about 1e-8 (ROADMAP item 15)"))
def test_jump_of_one_cell_at_the_bound_is_exact():
    # Burgers step(1, 1 - h), h the grid cell, at t = 1: the shock runs at
    # x = 1 - h / 2, and a quarter cell left of it u = 1 exactly.  The
    # feet of the end cell's two grid points both see 1 - h or 1 past the
    # grid end, where psi = -delta, and the maximizer u = 1 lies between
    h = Problem(flux.burgers(), idata.step(1.0, 0.0))._h
    p = Problem(flux.burgers(), idata.step(1.0, 1.0 - h))
    x = 1.0 - 0.75 * h
    s = p.solve(x, 1.0)
    n = len(p._s)
    psi = p._psi(p._s[n - 2:], np.full(2, x), np.ones(2))
    assert (psi < 0.0).all()
    assert abs(s.u_plus - 1.0) <= p.tol_u and abs(s.u_minus - 1.0) <= p.tol_u


def test_lambda_root_at_zero_gives_a_typed_error():
    # lambda_0 = 9.8e-284 and sigma = 1.4e-19 put the bracket at
    # [0, 9.8e-284], and F(0) = gamma sigma lambda_0 = 1.3e-327 is 0 in
    # floats: every answer must be finite or a typed error (lambda_1 = 0
    # made _case1 raise ZeroDivisionError)
    sa = ShockAnalyzer(Problem(flux.burgers(), idata.sin_wave()))
    gp = sa.generation_point(0.0, 0.0)
    try:
        out = sa.development_asymptotics(gp, {
            "gamma": 9.673742587038173e-26, "sigma": 1.3625770188654413e-19,
            "Cbar_sigma_plus": 9.813020074404337e-284,
            "Cbar_sigma_minus": 1.0})
    except LaxoError:
        return
    assert all(math.isfinite(v) for v in dataclasses.astuple(out)[1:])
