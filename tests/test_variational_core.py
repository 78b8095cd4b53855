import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laxo import (characteristics, flux, initial_data as idata,
                  variational_core as vc)
from laxo._search import bisect_many, golden_many, runs, secant_many
from laxo.characteristics import CharacteristicAnalyzer
from laxo.flux import GeneralFluxPair
from laxo.variational_core import (
    GeneralProblem, MaximizerSet, Problem, identity_pair)


@pytest.fixture(scope="module")
def riemann_down():
    return Problem(flux.burgers(), idata.step(1.0, 0.0))


@pytest.fixture(scope="module")
def neg_sin():
    return Problem(flux.burgers(), idata.sin_wave())


def test_riemann_shock_values(riemann_down):
    p = riemann_down
    assert p.solve(0.25, 1.0).u_plus == pytest.approx(1.0, abs=1e-10)
    assert p.solve(0.75, 1.0).u_plus == pytest.approx(0.0, abs=1e-10)
    s = p.solve(0.5, 1.0)          # on the shock x = t/2
    assert s.is_shock
    assert s.u_minus == pytest.approx(1.0, abs=1e-10)
    assert s.u_plus == pytest.approx(0.0, abs=1e-10)
    assert len(s.maximizer.components) == 2


def test_branch_gap_on_riemann_shock(riemann_down):
    # step(1, 0) at t = 1: E(1) - E(0) = 1/2 - x for 0 < x < 1, and the
    # slope is U(0) - U(1) = -1
    p = riemann_down
    for x in (0.4, 0.5, 0.62):
        gap, slope, um, up = p.branch_gap(x, 1.0, 0.5)
        assert gap == pytest.approx(0.5 - x, abs=1e-12)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert (um, up) == pytest.approx((1.0, 0.0), abs=1e-12)
    # E(0.5) - E(0) = 0.375 - x: for x < 0.375 the best of E below mid lies
    # at mid, and at x = 2 only the right state is a maximizer, so the best
    # above mid lies at mid
    assert p.branch_gap(0.3, 1.0, 0.5) is None
    assert p.branch_gap(2.0, 1.0, 0.5) is None


def test_rarefaction_profile():
    p = Problem(flux.burgers(), idata.step(0.0, 1.0))
    for x in (0.1, 0.25, 0.5, 0.9):
        s = p.solve(x, 1.0)
        assert not s.is_shock
        assert s.u_plus == pytest.approx(x, abs=1e-9)   # u = x/t inside the fan
    assert p.solve(-0.5, 1.0).u_plus == pytest.approx(0.0, abs=1e-9)
    assert p.solve(1.5, 1.0).u_plus == pytest.approx(1.0, abs=1e-9)


def test_quartic_riemann_shock_speed():
    # f = u^4/4: shock speed [f]/[u] = 1/4 for the (1 -> 0) jump
    p = Problem(flux.power2n(2), idata.step(1.0, 0.0))
    assert p.solve(0.2, 1.0).u_plus == pytest.approx(1.0, abs=1e-9)
    assert p.solve(0.3, 1.0).u_plus == pytest.approx(0.0, abs=1e-9)
    s = p.solve(0.25, 1.0)
    assert s.is_shock and len(s.maximizer.components) == 2


def test_eval_E_against_direct_quadrature(neg_sin):
    # independent oracle: E = t int_0^u f''(s)(phi(x - t f'(s)) - s) ds by
    # dense trapezoid sums (smooth integrand for sine data)
    for p in (neg_sin, Problem(flux.power2n(2), neg_sin.data),
              Problem(flux.exponential(0.7), neg_sin.data)):
        fl = p.flux
        rng = np.random.default_rng(3)
        for _ in range(12):
            x = rng.uniform(-3.0, 3.0)
            t = rng.uniform(0.2, 3.0)
            u = rng.uniform(-1.0, 1.0)
            s = np.linspace(0.0, u, 20001)
            g = fl.second(s) * (p.data.phi(x - t * fl.deriv(s)) - s)
            oracle = t * np.trapezoid(g, s)
            assert p.eval_E(u, x, t) == pytest.approx(oracle, abs=1e-7)


def test_maximize_against_brute_force_scan(neg_sin):
    p = neg_sin
    rng = np.random.default_rng(11)
    grid = np.linspace(-1.001, 1.001, 20021)    # du ~ 1e-4
    for _ in range(8):
        x = rng.uniform(-4.0, 4.0)
        t = rng.uniform(0.3, 4.0)
        # one array call; equal bit for bit to the scalar eval_E calls
        vals = p._E(p._W(x - t * p._H0), grid, x, t)
        ms = p.maximize(x, t)
        # the refined value may only beat the scan, by at most O(du^2)
        assert vals.max() - 1e-12 <= ms.max_value <= vals.max() + 1e-7
        best = grid[np.argmax(vals)]
        assert any(lo - 2e-4 <= best <= hi + 2e-4 for lo, hi in ms.components)


def test_entropy_ordering_and_maximizer_traces(neg_sin):
    s = neg_sin.solve(0.0, 2.0)     # post-breakdown shock at x = 0
    assert s.is_shock
    assert s.u_minus > 0 > s.u_plus
    assert s.u_minus == pytest.approx(-s.u_plus, abs=1e-9)   # odd data
    assert s.u_minus == s.maximizer.u_minus
    assert s.u_plus == s.maximizer.u_plus


def test_characteristic_feet(neg_sin):
    # away from the shock the maximizer satisfies u = phi(x - t u)
    for x in (1.0, 2.0, -2.5):
        s = neg_sin.solve(x, 0.5)
        assert not s.is_shock
        foot = x - 0.5 * s.u_plus
        assert neg_sin.data.phi(foot) == pytest.approx(s.u_plus, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(0.2, 3.0), st.floats(0.05, 2.0))
def test_oleinik_one_sided_bound(x, t, dx):
    p = _SIN
    a = p.solve(x, t).u_plus
    b = p.solve(x + dx, t).u_plus
    assert b - a <= dx / t + 1e-7


_SIN = Problem(flux.burgers(), idata.sin_wave())


def test_e_hat_conservation(riemann_down):
    # int_{x1}^{x2} u dx = Ehat(x1) - Ehat(x2); here the mass on [-1, 2]
    # at t = 1 is exactly 1.5 (u = 1 left of the shock at x = 1/2)
    p = riemann_down
    assert p.e_hat(-1.0, 1.0) - p.e_hat(2.0, 1.0) == pytest.approx(1.5, abs=1e-9)


def test_e_hat_conservation_against_quadrature(neg_sin):
    p = neg_sin
    x1, x2, t = -1.3, 2.1, 0.7
    xs = np.linspace(x1, x2, 2001)
    us = np.array([p.solve(x, t).u_plus for x in xs])
    mass = np.trapezoid(us, xs)
    assert p.e_hat(x1, t) - p.e_hat(x2, t) == pytest.approx(mass, abs=1e-5)


def test_constant_data_e_hat():
    # phi == c: u == c and Ehat(x, t) = t c^2/2 - c x
    p = Problem(flux.burgers(),
                idata.InitialData([], left_tail=1.0, right_tail=1.0,
                                  window=(0.0, 0.0)))
    for x, t in ((0.0, 1.0), (2.0, 3.0), (-1.5, 0.4)):
        assert p.solve(x, t).u_plus == pytest.approx(1.0, abs=1e-9)
        assert p.e_hat(x, t) == pytest.approx(0.5 * t - x, abs=1e-9)


def _sampled_17():
    us = np.random.default_rng(17).uniform(-1.0, 1.0, 15)
    return idata.SampledData(np.linspace(-2.0, 2.0, 17),
                             np.concatenate([[0.0], us, [0.0]]))


def _cube_plus_id_pair():
    U = lambda u: np.asarray(u, dtype=float) ** 3 + np.asarray(u, dtype=float)
    return GeneralFluxPair(U, lambda u: 3.0 * np.asarray(u, dtype=float) ** 2
                           + 1.0, H=lambda u: np.asarray(u, dtype=float))


_GRID_PROBLEMS = {
    "burgers_sine": lambda: Problem(flux.burgers(), idata.sin_wave()),
    "quartic_sine": lambda: Problem(flux.power2n(2), idata.sin_wave()),
    "step_down": lambda: Problem(flux.burgers(), idata.step(1.0, 0.0)),
    "step_up": lambda: Problem(flux.burgers(), idata.step(-1.0, 1.0)),
    "sampled": lambda: Problem(flux.burgers(), _sampled_17()),
    "cube_plus_id": lambda: GeneralProblem(_cube_plus_id_pair(),
                                           idata.sin_wave()),
    "restart": lambda: Problem(flux.burgers(), idata.sin_wave()).restart(0.5),
}


@pytest.mark.parametrize("t", [0.4, 1.4, 3.0])
@pytest.mark.parametrize("name", list(_GRID_PROBLEMS))
def test_solve_grid_matches_solve(name, t):
    # 129 points: level 0 and several levels of windowed rows, each the
    # sample a whole-grid solve of the point alone gives, bit for bit
    p = _GRID_PROBLEMS[name]()
    t += getattr(p, "tau", 0.0)
    xs = np.linspace(-3.0, 3.0, 129)
    assert p.solve_grid(xs, t) == [p.solve(x, t) for x in xs]


def test_solve_grid_keeps_order_and_repeats(neg_sin):
    xs = np.concatenate([np.linspace(2.0, -2.0, 30), [0.5, 0.5, -1.0]])
    assert neg_sin.solve_grid(xs, 1.4) == [neg_sin.solve(x, 1.4) for x in xs]


def _scan_only(monkeypatch, *problems):
    """Send the rows of the problems below the breaking time to the scan,
    as for a problem with no breaking-time certificate: t_one = 0.  The
    scan's structure tests keep their inputs below the breaking time.
    Rows whose coarse hulls ``_one_hull`` certifies still take the
    one-root kernel; a problem of a ``_twin`` flux scans every row."""
    for p in problems:
        monkeypatch.setattr(p, "t_one", 0.0)


def _twin(fl):
    """fl as a ``custom`` flux of the same f, f' and f'': a problem of it
    has no breaking-time certificate (t_one = 0) and no hull certificate
    (``_one_hull``), so every row of it is scanned."""
    return flux.custom(fl.eval, fl.deriv, fl.second)


def _count_blocks(monkeypatch):
    """Record each block's rows as (start, width, scanned again)."""
    calls = []
    block = GeneralProblem._maximize_block

    def counted(self, xs, t, start, width):
        out = block(self, xs, t, start, width)
        calls.append(list(zip(start.tolist(), width.tolist(),
                              out.redo.tolist())))
        return out

    monkeypatch.setattr(GeneralProblem, "_maximize_block", counted)
    return calls


def _row_cost(ww):
    """The cells a row of a window of ww points costs after the coarse
    pass, as ``_maximize_grid`` sizes its levels."""
    S = vc.COARSE_STEP
    return (ww - 1) // S + min(ww - 1, S * S)


def _level_zero_rows(ww):
    """k of ``_maximize_grid``: the rows that fill 2 * BLOCK_ELEMS cells."""
    return max(2, 2 * vc.BLOCK_ELEMS // _row_cost(ww))


def _short_grid_rows(ww):
    """The most points ``_maximize_grid`` solves in one ``_blocks`` call:
    their rows fill at most 3 * BLOCK_ELEMS cells."""
    return 3 * vc.BLOCK_ELEMS // _row_cost(ww)


def test_window_that_misses_the_maximizer_is_scanned_again(neg_sin,
                                                          monkeypatch):
    # every window of 20 cells ends 4 cells short of its row's maximizer: E
    # rises toward that edge, and the row is scanned over the whole grid.
    # The grid is longer than level 0, so its later levels are windowed
    n = len(neg_sin._s)
    blocks = GeneralProblem._blocks
    mangled = set()

    def missing(self, xs, t, start, width):
        part = width < n
        if part.any():
            j = np.searchsorted(self._s, [
                self.solve(x, tq).u_plus
                for x, tq in zip(xs[part].tolist(), t[part].tolist())])
            start, width = start.copy(), width.copy()
            start[part] = np.where(j < n // 2, j + 4, j - 24)
            width[part] = 20
            mangled.update(zip(start[part].tolist(), width[part].tolist()))
        return blocks(self, xs, t, start, width)

    monkeypatch.setattr(GeneralProblem, "_blocks", missing)
    _scan_only(monkeypatch, neg_sin)
    calls = _count_blocks(monkeypatch)
    xs = np.linspace(-3.0, 3.0, 2 * _level_zero_rows(n) + 1)
    assert neg_sin.solve_grid(xs, 0.4) == [neg_sin.solve(x, 0.4) for x in xs]
    # the blocks' rows of the mangled windows only, not the coarse hulls
    windowed = [redo for c in calls for start, width, redo in c
                if (start, width) in mangled]
    assert len(windowed) > 40 and all(windowed)


def test_fluxes_the_formula_does_not_cover_raise_at_construction():
    # the formula gives the entropy solution only where H = f' rises on
    # every grid cell and U does not fall: f = u^3/3 (H = u^2 falls left of
    # 0), the zero flux (H constant), f = max(u, 0)^2/2 (H flat for u < 0,
    # where the whole flat stretch was one maximizer band) and a pair whose
    # U falls are rejected before any solve
    u3 = flux.custom(lambda u: np.asarray(u, dtype=float) ** 3 / 3.0,
                     lambda u: np.asarray(u, dtype=float) ** 2,
                     lambda u: 2.0 * np.asarray(u, dtype=float))
    zero = flux.custom(lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                       lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                       lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    half = flux.custom(lambda u: 0.5 * np.maximum(u, 0.0) ** 2,
                       lambda u: np.maximum(u, 0.0),
                       lambda u: (np.asarray(u, dtype=float) > 0.0) * 1.0)
    falling = GeneralFluxPair(lambda u: -np.asarray(u, dtype=float),
                              lambda u: -np.ones_like(np.asarray(u, dtype=float)),
                              H=lambda u: np.asarray(u, dtype=float))
    with pytest.raises(ValueError):
        Problem(u3, idata.sin_wave())
    with pytest.raises(ValueError):
        Problem(zero, idata.sin_wave())
    with pytest.raises(ValueError):
        Problem(half, idata.sin_wave())
    with pytest.raises(ValueError):
        GeneralProblem(falling, idata.step(1.0, 0.0))
    # power2n(2) on data of bound 1e102: H = u^3 reaches 1e306, H U and F
    # overflow, and int_0^u H'U was inf - inf.  The problem built with
    # overflow warnings, and every solve returned u+- = nan as no shock
    huge = idata.InitialData(
        [idata.Piece(-1e-6, 1e-6, "power",
                     {"a": -1e104, "g": 1.0 / 3.0, "x_ref": 0.0})],
        left_tail=1e102, right_tail=-1e102)
    with pytest.raises(ValueError, match="must be finite"):
        Problem(flux.power2n(2), huge)


@pytest.mark.parametrize("data, points", [
    (lambda: idata.step(1.0, 0.0), [(0.1, 1.0), (0.45, 1.0), (-2.0, 0.5)]),
    (lambda: idata.step(-1.0, 1.0), [(-1.5, 1.0), (-0.7, 0.5), (3.0, 2.0)])],
    ids=["top", "both_ends"])
def test_grid_end_runs_read_psi_in_the_carrier_call(data, points):
    # u = +-1 is the data's bound, so the maximizer lies in the last cell
    # at a grid end.  Its run reads the three innermost grid points in the
    # block's one carrier call: phi is called by the carrier and by the
    # closed-form roots' check, and no third time for a second difference.
    # step(-1, 1) has no down-jump, so its solves take the one-root kernel:
    # the scan runs here as a one-row block over the whole grid
    d = data()
    p = Problem(flux.burgers(), d)
    phi, calls = d.phi, []

    def counted_phi(y):
        calls.append(np.size(y))
        return phi(y)

    d.phi = counted_phi
    for x, t in points:
        calls.clear()
        u = p._maximize_block(np.array([x]), np.array([t]),
                              *p._whole).u_plus[0]
        assert abs(abs(u) - 1.0) <= 1e-12, (x, t, u)
        assert len(calls) == 2, (x, t, calls)


@pytest.mark.parametrize("data, x, t, side", [
    (lambda: idata.step(1.0, 0.0), 0.3, 1.0, "top"),
    (lambda: idata.step(-1.0, 1.0), 1.5, 1.0, "top"),
    (lambda: idata.step(-1.0, 1.0), -1.5, 1.0, "bottom")],
    ids=["shock_top", "fan_top", "fan_bottom"])
def test_window_of_the_three_end_grid_points(data, x, t, side):
    # an H-interval beyond H(s_n) (or below H(s_0)) gets the window of the
    # three end grid points, the fewest a window holds; a row whose
    # maximizer lies in the end cell gets the whole grid's set bit for bit
    p = Problem(flux.burgers(), data())
    n = len(p._s)
    H = p._Hs[-1] + 1.0 if side == "top" else p._Hs[0] - 1.0
    start, width = p._cells(np.array([H]), np.array([H + 0.5]), 0, n)
    assert (start.tolist(), width.tolist()) == (
        ([n - 3], [3]) if side == "top" else ([0], [3]))
    xs, ts = np.array([x]), np.array([t])
    out = p._maximize_block(xs, ts, start, width)
    whole = p._maximize_block(xs, ts, *p._whole)
    assert not out.redo.any()
    assert repr(out.sets()) == repr(whole.sets())


def test_branch_gap_sides_hold_three_grid_points():
    # step(1, -1) at x = 0 holds both branches, u = -1 and u = 1, in the end
    # cells of the grid; a side of fewer than three points gets None
    p = Problem(flux.burgers(), idata.step(1.0, -1.0))
    n, s = len(p._s), p._s
    assert p.branch_gap(0.0, 1.0, s[2]) is None
    assert p.branch_gap(0.0, 1.0, s[n - 2]) is None
    for im in (3, n - 3):
        G, dG, um, up = p.branch_gap(0.0, 1.0, s[im])
        assert abs(G) <= 1e-9 and dG == -2.0
        assert abs(um - 1.0) <= 1e-12 and abs(up + 1.0) <= 1e-12


def _riemann_burgers(ul, ur, x, t):
    """The entropy solution of Burgers' equation from step(ul, ur)."""
    if ul > ur:
        return ul if x < 0.5 * (ul + ur) * t else ur
    return min(max(x / t, ul), ur)


def _assert_riemann_exact(p, ul, ur, xs, t):
    """u+- of every point solve and sample of xs within tol_u of the exact
    solution, off the shock itself."""
    if ul > ur:
        xs = xs[np.abs(xs - 0.5 * (ul + ur) * t) > 1e-9]
    for s in p.solve_grid(xs, t) + [p.solve(x, t) for x in xs.tolist()]:
        u = _riemann_burgers(ul, ur, s.x, t)
        assert abs(s.u_plus - u) <= p.tol_u, (s.x, t, s.u_plus, u)
        assert abs(s.u_minus - u) <= p.tol_u, (s.x, t, s.u_minus, u)


@pytest.mark.parametrize("n_scan", [4, 5, 6, 8, 10])
@pytest.mark.parametrize("ul, ur", [(1.0, 0.0), (-1.0, 1.0)],
                         ids=["shock", "fan"])
def test_grid_end_runs_bracket_their_end_cell(ul, ur, n_scan):
    # a run at a grid end reads psi's second difference at the three
    # innermost grid points, but its sign test and bracket read its own end
    # cell: on a coarse grid psi may change sign twice over the two cells
    # [s_{n-3}, s_{n-1}] (step(1, 0) at x = 0.25, t = 1, n_scan = 5 was
    # 7.5e-9 off when the bracket spanned them)
    p = Problem(flux.burgers(), idata.step(ul, ur), n_scan=n_scan)
    for t in (1.0, 1.2, 8.0):
        _assert_riemann_exact(p, ul, ur, np.linspace(-3.0, 3.0, 25) * t / 2,
                              t)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("end", ["top_shock", "top_fan", "bottom_shock",
                                 "bottom_fan"])
def test_jumps_of_a_few_cells_at_the_bound(end, k):
    # Riemann data whose jump at the bound +-M spans k grid cells: the feet
    # of the innermost grid points straddle it, so psi changes sign within
    # the two end cells.  u+- stay within tol_u of the exact solution near
    # the jump's waves, and at Burgers step(1, 0.998), t = 1, x = 0.9985.
    # A jump of one cell is in the ledger of known defects
    h = Problem(flux.burgers(), idata.step(1.0, 0.0))._h
    a, b = 1.0, 1.0 - k * h
    ul, ur = {"top_shock": (a, b), "top_fan": (b, a),
              "bottom_shock": (-b, -a), "bottom_fan": (-a, -b)}[end]
    p = Problem(flux.burgers(), idata.step(ul, ur))
    for t in (0.3, 1.0, 8.0):
        c = 0.5 * (ul + ur) * t
        _assert_riemann_exact(p, ul, ur, np.concatenate([
            c + np.linspace(-4.0, 4.0, 33) * h * t, [-1.5 * t, 1.5 * t]]), t)
    p = Problem(flux.burgers(), idata.step(1.0, 0.998))
    _assert_riemann_exact(p, 1.0, 0.998, np.linspace(0.998, 0.9995, 16), 1.0)


def test_coarse_hull_at_a_one_cell_grid_end():
    # n_scan = 2049 leaves the coarse pass a last cell of one grid cell; a
    # 17-point slice of step(1, 0) whose maximizers lie at u = 1 keeps hulls
    # of at least three points reaching the top grid end, and every row gets
    # the whole grid's set bit for bit
    p = Problem(flux.burgers(), idata.step(1.0, 0.0), n_scan=2049)
    n = len(p._s)
    assert (n - 1) % vc.COARSE_STEP == 1
    for t in (0.5, 1.0, 300.0):
        xs = np.linspace(-2.0, 0.45 * t, 17)
        ts = np.full(17, t)
        start, width = p._coarse(xs, t, 0, n)
        assert (width >= 3).all() and (start + width == n).all()
        out = p._blocks(xs, ts, np.zeros(17, dtype=np.intp), np.full(17, n))
        whole = p._maximize_block(xs, ts, np.zeros(17, dtype=np.intp),
                                  np.full(17, n))
        assert not out.redo.any() and not whole.redo.any()
        assert repr(out.sets()) == repr(whole.sets())
        assert np.abs(out.u_plus - 1.0).max() <= p.tol_u


def test_restart_scans_a_tenth_of_the_whole_grid():
    p = Problem(flux.burgers(), idata.sin_wave())
    sizes = []
    W = p._W

    def spy(y):
        sizes.append(np.size(y))
        return W(y)

    p._W = spy
    p.restart(0.5)
    assert sum(sizes) <= 4096 * 2050 / 10


def test_solve_grid_rejects_bad_input_before_work(neg_sin):
    for xs, t in (([0.0, np.nan], 1.0), ([np.inf, 0.0], 1.0),
                  ([0.0] * 20 + [-np.inf], 1.0), ([0.0], 0.0),
                  ([0.0], -1.0), ([0.0], np.nan), ([0.0], np.inf),
                  ([], 0.0), (np.zeros((2, 2)), 1.0)):
        with pytest.raises(ValueError):
            neg_sin.solve_grid(xs, t)
    assert neg_sin.solve_grid([], 1.0) == []
    assert neg_sin.solve_grid(np.empty(0), 1.0) == []


@pytest.mark.parametrize("n_scan", [64.7, np.nan, np.inf],
                         ids=["fraction", "nan", "inf"])
def test_problem_rejects_non_integral_n_scan(n_scan):
    # 64.7 used to scan 64 cells, and inf raised OverflowError
    with pytest.raises(ValueError, match="n_scan must be an integer"):
        Problem(flux.burgers(), idata.sin_wave(), n_scan=n_scan)
    assert Problem(flux.burgers(), idata.sin_wave(), n_scan=64.0).n_scan == 64


@pytest.mark.parametrize("n_scan", [2, 3])
def test_problem_rejects_a_grid_of_fewer_than_four_cells(n_scan):
    # at n_scan = 3 Burgers step(1, 0) at (0.65, 1.2), right of the shock
    # x = 0.6, gave u+ = 1.0000000032 where it is 0; from 4 cells on the
    # grid finds the maximum
    with pytest.raises(ValueError, match="need n_scan >= 4"):
        Problem(flux.burgers(), idata.step(1.0, 0.0), n_scan=n_scan)
    p = Problem(flux.burgers(), idata.step(1.0, 0.0), n_scan=4)
    assert abs(p.solve(0.65, 1.2).u_plus) <= p.tol_u


def test_eval_E_rejects_bad_input(neg_sin):
    # as maximize does: no E at t <= 0, nor at a non-finite u or x
    for u, x, t in ((0.5, 0.3, -1.0), (0.5, 0.3, 0.0), (0.5, 0.3, np.nan),
                    (0.5, 0.3, np.inf), (np.nan, 0.3, 1.0),
                    (0.5, np.nan, 1.0), (np.inf, 0.3, 1.0),
                    (0.5, -np.inf, 1.0)):
        with pytest.raises(ValueError):
            neg_sin.eval_E(u, x, t)
    assert math.isfinite(neg_sin.eval_E(0.5, 0.3, 1.0))


def test_branch_gap_rejects_bad_input(neg_sin):
    # a NaN x gave (nan, nan, nan, nan), and t < 0 a gap of 0.497
    for x, t, mid in ((np.nan, 1.0, 0.0), (np.inf, 1.5, 0.0),
                      (0.3, 1.0, np.nan), (0.3, 1.0, -np.inf),
                      (0.3, -1.0, 0.0), (0.3, 0.0, 0.0), (0.3, np.nan, 0.0),
                      (0.3, np.inf, 0.0)):
        with pytest.raises(ValueError):
            neg_sin.branch_gap(x, t, mid)
    assert all(math.isfinite(g) for g in neg_sin.branch_gap(0.0, 1.5, 0.0))


def test_solve_grid_partial_block_on_sampled_data():
    # 41 points: five full blocks and a last block of one
    rng = np.random.default_rng(17)
    us = rng.uniform(-1.0, 1.0, 17)
    us[0] = us[-1] = 0.0
    p = Problem(flux.burgers(), idata.SampledData(np.linspace(-2, 2, 17), us))
    xs = np.linspace(-2.5, 2.5, 41)
    for t in (0.3, 1.7):
        grid = p.solve_grid(xs, t)
        assert [s.x for s in grid] == xs.tolist()
        assert grid == [p.solve(x, t) for x in xs]


def test_general_pair_solve_grid_matches_solve(neg_sin):
    # F comes from the pair's own quadrature, which must not depend on how
    # many points one call values
    U = lambda u: np.asarray(u, dtype=float) ** 3 + np.asarray(u, dtype=float)
    pair = GeneralFluxPair(U, lambda u: 3.0 * np.asarray(u, dtype=float) ** 2
                           + 1.0, H=lambda u: np.asarray(u, dtype=float))
    p = GeneralProblem(pair, neg_sin.data)
    xs = np.linspace(-3.0, 3.0, 19)
    assert p.solve_grid(xs, 0.8) == [p.solve(x, 0.8) for x in xs]


def _bisect_psi(f, a, b, fa, fb, curv, tol):
    """Reference refinement: each bracket alone, one midpoint per step."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    for i in range(len(a)):
        lo, hi, owner = float(a[i]), float(b[i]), np.array([i])
        while abs(hi - lo) > tol:
            m = 0.5 * (lo + hi)
            if m == lo or m == hi:
                break
            if f(np.array([m]), owner)[0] > 0.0:
                lo = m
            else:
                hi = m
        a[i], b[i] = lo, hi
    return a, b


@pytest.mark.parametrize("name", [k for k in _GRID_PROBLEMS if k != "restart"])
def test_secant_refinement_matches_bisection_of_psi(name, monkeypatch):
    # the probe pairs against one-midpoint bisection of psi on the same
    # brackets: both end within tol_u of a root of psi
    p = _GRID_PROBLEMS[name]()
    xs = np.linspace(-3.0, 3.0, 25)
    for t in (0.4, 1.3, 3.1):
        got = p.solve_grid(xs, t)
        with monkeypatch.context() as m:
            m.setattr(vc, "secant_many", _bisect_psi)
            ref = p.solve_grid(xs, t)
        for g, r in zip(got, ref):
            assert abs(g.u_minus - r.u_minus) <= p.tol_u
            assert abs(g.u_plus - r.u_plus) <= p.tol_u
            assert g.is_shock == r.is_shock
            assert len(g.maximizer.components) == len(r.maximizer.components)


def _nwave():
    return idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, 1.0]})],
        left_tail=0.0, right_tail=0.0)


def _power_jump():
    # 0.1 + 0.5 sgn(x - 0.2): a jump up at x_ref = 0.2, and two at the ends
    return idata.InitialData(
        [idata.Piece(-1.0, 1.0, "power",
                     {"a": 0.5, "g": 0.0, "x_ref": 0.2, "b": 0.1})],
        left_tail=-0.5, right_tail=0.3)


# problems whose psi jumps, each with its times
_JUMP_PROBLEMS = {
    "restart": (lambda: Problem(flux.burgers(), idata.sin_wave())
                .restart(0.5), (10.0, 15.0, 20.0)),
    "sampled": (lambda: Problem(flux.burgers(), _sampled_17()),
                (0.4, 1.3, 3.1)),
    "sampled_quartic": (lambda: Problem(flux.power2n(2), _sampled_17()),
                        (0.4, 1.3, 3.1)),
    "fan": (lambda: Problem(flux.burgers(), idata.step(-1.0, 1.0)),
            (0.4, 1.3, 3.1)),
    # the fan's edges u = -+1 inside the u-grid, not at its ends
    "fan_inside_grid": (lambda: Problem(flux.burgers(), idata.InitialData(
        [], left_tail=-1.0, right_tail=1.0, window=(0.0, 0.0), bound=1.5)),
        (0.4, 1.3, 3.1)),
    "fan_exponential": (lambda: Problem(flux.exponential(0.7),
                                        idata.step(-1.0, 1.0)),
                        (0.4, 1.3, 3.1)),
    "shock": (lambda: Problem(flux.burgers(), idata.step(1.0, 0.0)),
              (0.4, 1.3, 3.1)),
    "nwave": (lambda: Problem(flux.burgers(), _nwave()), (0.4, 1.3, 3.1)),
    "power_jump": (lambda: Problem(flux.burgers(), _power_jump()),
                   (0.4, 1.3, 3.1)),
    "cube_plus_id_sampled": (lambda: GeneralProblem(_cube_plus_id_pair(),
                                                    _sampled_17()),
                             (0.4, 1.3, 3.1)),
}


@pytest.mark.parametrize("name", list(_JUMP_PROBLEMS))
def test_exact_roots_match_bisection_of_psi(name, monkeypatch):
    # the closed-form roots where the feet cross a jump of the data, and
    # the plateau roots of sampled data, against one-midpoint bisection of
    # psi on the same brackets with the exact roots switched off
    make, ts = _JUMP_PROBLEMS[name]
    p = make()
    inner = getattr(p, "problem", p)
    certified = []
    exact = GeneralProblem._exact_roots

    def counted(self, *args):
        done = exact(self, *args)
        certified.append(int(done.sum()))
        return done

    monkeypatch.setattr(GeneralProblem, "_exact_roots", counted)
    for t in ts:
        # a grid, and points just outside the edges of a Riemann fan, where
        # the root lies on the smooth side next to the jump's preimage
        xs = np.concatenate([np.linspace(-3.0, 3.0, 25),
                             t * np.array([-1.0003, -0.9997, 0.9997, 1.0003])])
        got = p.solve_grid(xs, t)
        with monkeypatch.context() as m:
            m.setattr(inner, "_jumps", None)
            m.setattr(vc, "secant_many", _bisect_psi)
            ref = p.solve_grid(xs, t)
        for g, r in zip(got, ref):
            assert abs(g.u_minus - r.u_minus) <= inner.tol_u
            assert abs(g.u_plus - r.u_plus) <= inner.tol_u
            assert g.is_shock == r.is_shock
            assert len(g.maximizer.components) == len(r.maximizer.components)
    # a step(1, 0) shock and the N-wave keep their roots off the jumps'
    # preimages; every other problem takes closed-form roots
    assert (sum(certified) > 0) == (name not in ("shock", "nwave"))


@pytest.mark.parametrize("name", ["burgers", "quartic"])
def test_sampled_halves_take_closed_form_roots(name, monkeypatch):
    # psi is U(c) - U(u) between knots, so a sampled half reaches the
    # refiner only when its closed-form root fails the check: never under
    # Burgers; under power2n(2) only at u = 0, where H = 4u^3 is flat and
    # the foot of a jump's preimage barely moves over tol_u
    f = flux.burgers() if name == "burgers" else flux.power2n(2)
    p = Problem(f, _sampled_17())
    halves, refined = [0], []
    roots, refine = GeneralProblem._roots, GeneralProblem._refine_roots

    def counted_roots(self, xb, *args):
        halves[0] += len(xb)
        return roots(self, xb, *args)

    def counted_refine(self, xb, t, d2, ends, vals):
        refined.append((ends.copy(), vals.copy()))
        return refine(self, xb, t, d2, ends, vals)

    monkeypatch.setattr(GeneralProblem, "_roots", counted_roots)
    monkeypatch.setattr(GeneralProblem, "_refine_roots", counted_refine)
    for t in (0.4, 1.3, 3.1):
        for k in range(5):
            p.solve_grid(np.linspace(-3.0, 3.0, 67) + 0.1 * k, t)
    assert halves[0] > 900
    if name == "burgers":
        assert refined == []
    for ends, vals in refined:
        # psi(a) > 0 >= psi(b): _exact_roots took the half, its check failed
        assert ((vals[0] > 0.0) & (vals[1] <= 0.0)).all()
        assert (ends[0] == 0.0).all()


def _count_psi_secants(monkeypatch):
    """One count per ``_roots`` call: its ``secant_many`` calls on psi.

    ``_preimage``'s secant pairs on v - H read no psi, so they are not
    counted."""
    per_call, in_preimage = [], [False]
    roots, preimage = GeneralProblem._roots, GeneralProblem._preimage

    def counted_roots(self, *args):
        per_call.append(0)
        return roots(self, *args)

    def counted_preimage(self, *args):
        in_preimage[0] = True
        try:
            return preimage(self, *args)
        finally:
            in_preimage[0] = False

    def counted_secant(*args):
        if per_call and not in_preimage[0]:
            per_call[-1] += 1
        return secant_many(*args)

    monkeypatch.setattr(GeneralProblem, "_roots", counted_roots)
    monkeypatch.setattr(GeneralProblem, "_preimage", counted_preimage)
    monkeypatch.setattr(vc, "secant_many", counted_secant)
    return per_call


@pytest.mark.parametrize("t", [0.4, 1.3, 3.1])
def test_fan_edges_take_the_plateau_root(t, monkeypatch):
    # just outside the fan of step(-1, 1), its edges inside the u-grid, the
    # bracket of the root holds the preimage of the jump, and the root is
    # the tail value on the feet next to it: -1 left of the fan, +1 right
    p = _JUMP_PROBLEMS["fan_inside_grid"][0]()
    per_call = _count_psi_secants(monkeypatch)
    for x in (-1.0003 * t, 1.0003 * t):
        assert p.solve(x, t).u_plus == math.copysign(1.0, x)
    assert per_call and sum(per_call) == 0


def test_roots_make_at_most_one_psi_secant_call(monkeypatch):
    # the closed-form roots take no search of their own: a half whose root
    # fails the check joins the other halves in one secant_many call
    per_call = _count_psi_secants(monkeypatch)
    for make, ts in _JUMP_PROBLEMS.values():
        p = make()
        for t in ts:
            xs = np.concatenate([np.linspace(-3.0, 3.0, 25), t * np.array(
                [-1.0003, -0.9997, 0.9997, 1.0003])])
            p.solve_grid(xs, t)
            for x in xs[::4].tolist():
                p.solve(x, t)
    assert len(per_call) > 100 and max(per_call) <= 1


def test_plateau_root_outside_the_half_is_refined(monkeypatch):
    # phi jumps at 0 from -1/2 into 4 sin x, which starts at c = 0 and is 0
    # again at 2 pi.  At (x, t) = (2 pi, 2 pi / 0.6) the characteristic
    # from 2 pi carries c = 0 to (x, t), so psi changes sign at u = 0; the
    # half [0.5, 0.75] holds the preimage 0.6 of the jump and its own root,
    # on the sine.  Its plateau root c passes the sign test but lies
    # outside the half, so the half goes to _refine_roots
    data = idata.InitialData(
        [idata.Piece(0.0, 3.0 * np.pi, "sin", {"a": 4.0, "b": 1.0, "c": 0.0})],
        left_tail=-0.5, right_tail=0.0)
    p = Problem(flux.burgers(), data)
    x, t = 2.0 * np.pi, 2.0 * np.pi / 0.6
    xb, tb = np.array([x]), np.array([t])
    d = 0.45 * p.tol_u
    assert p._psi(np.array([-d]), xb, tb)[0] > 0.0 >= p._psi(
        np.array([d]), xb, tb)[0]
    nb = np.searchsorted(p._s, [[0.5], [0.75], [1.0]])
    a, b = p._s[nb[:2, 0]]
    carrier = p._psi(p._s[nb], xb, tb)
    assert carrier[0, 0] > 0.0 >= carrier[1, 0]
    refined = []
    refine = GeneralProblem._refine_roots

    def counted_refine(self, xb, t, d2, ends, vals):
        refined.append(ends.copy())
        return refine(self, xb, t, d2, ends, vals)

    monkeypatch.setattr(GeneralProblem, "_refine_roots", counted_refine)
    d2 = carrier[0] - 2.0 * carrier[1] + carrier[2]
    lo, hi = p._roots(xb, tb, nb, carrier, d2)
    assert len(refined) == 1 and refined[0].ravel().tolist() == [a, b]
    assert a <= lo[0] < hi[0] <= b and hi[0] - lo[0] <= p.tol_u
    assert (p._psi(np.concatenate([lo, hi]), np.concatenate([xb, xb]),
                   np.concatenate([tb, tb])) > 0.0).tolist() == [True, False]


def _count_psi(monkeypatch):
    """The number of psi points evaluated, as a one-element list."""
    n = [0]
    psi = GeneralProblem._psi

    def counted(self, u, x, t):
        n[0] += np.size(u)
        return psi(self, u, x, t)

    monkeypatch.setattr(GeneralProblem, "_psi", counted)
    return n


def test_jump_roots_take_few_psi_points(monkeypatch):
    fan = Problem(flux.burgers(), idata.step(-1.0, 1.0))
    rp = Problem(flux.burgers(), idata.sin_wave()).restart(0.5)
    n = _count_psi(monkeypatch)
    for x, t in ((0.3, 1.3), (-0.5, 1.0), (0.1, 0.4)):
        n[0] = 0
        assert fan.solve(x, t).u_plus == pytest.approx(x / t, abs=1e-12)
        assert n[0] <= 10           # 828 by bisection of psi
    for t in (10.0, 15.0, 20.0):
        n[0] = 0
        rp.solve_grid(np.linspace(-np.pi, np.pi, 17), t)
        assert n[0] <= 14904 // 10  # 14 904 by bisection of psi


def test_smooth_point_solve_psi_call_budget(monkeypatch):
    # a Burgers/sine point solve refines its brackets in at most 3 rounds
    # of psi: a change that adds rounds fails here, not only in the bench
    p = Problem(flux.burgers(), idata.sin_wave())
    rounds = []

    def counted(f, *args):
        calls = [0]

        def g(u, i):
            calls[0] += 1
            return f(u, i)

        out = secant_many(g, *args)
        rounds.append(calls[0])
        return out

    monkeypatch.setattr(vc, "secant_many", counted)
    rng = np.random.default_rng(41)
    for x, t in zip(rng.uniform(-3.0, 3.0, 40), rng.uniform(0.2, 3.0, 40)):
        rounds.clear()
        p.solve(float(x), float(t))
        assert rounds and max(rounds) <= 3


@pytest.mark.parametrize("case, want", [
    ("sine", {"phi": 130, "primitive": 80, "rounds": 90}),
    ("step", {"phi": 80, "primitive": 80, "rounds": 40})])
def test_point_solve_read_counts(case, want, monkeypatch):
    # the data reads and the secant rounds of 40 Burgers point solves,
    # pinned, so that a change that adds a read shows here.  A sine solve
    # reads W over the grid's feet and at its refined point (primitive),
    # phi at the carrier's feet and once per secant round; step(1, 0)
    # takes its roots in closed form, checked by one psi call
    count = dict.fromkeys(want, 0)
    for name in ("phi", "primitive"):
        def read(self, x, _name=name, _fn=getattr(idata.InitialData, name)):
            count[_name] += 1
            return _fn(self, x)
        # before the problem is built: it keeps data.primitive as W
        monkeypatch.setattr(idata.InitialData, name, read)

    def rounds(f, *args):
        def g(u, i):
            count["rounds"] += 1
            return f(u, i)
        return secant_many(g, *args)

    monkeypatch.setattr(vc, "secant_many", rounds)
    data = idata.sin_wave() if case == "sine" else idata.step(1.0, 0.0)
    p = Problem(flux.burgers(), data)
    _scan_only(monkeypatch, p)
    count.update(dict.fromkeys(want, 0))
    rng = np.random.default_rng(45)
    for x, t in zip(rng.uniform(-3.0, 3.0, 40), rng.uniform(0.2, 3.0, 40)):
        p.solve(float(x), float(t))
    assert count == want


def test_custom_flux_fan_matches_named_flux():
    # a custom Burgers twin inverts H by secant pairs on H - v, the named
    # flux in closed form; at fan, edge and off-fan points they agree
    b = flux.burgers()
    named = Problem(b, idata.step(-1.0, 1.0))
    twin = Problem(flux.custom(b.eval, b.deriv, b.second),
                   idata.step(-1.0, 1.0))
    rng = np.random.default_rng(50)
    ts = rng.uniform(0.2, 3.0, 50)
    xs = ts * rng.uniform(-1.3, 1.3, 50)
    xs[:4] = ts[:4] * np.array([-1.0, 1.0, -0.9997, 1.0003])
    for x, t in zip(xs.tolist(), ts.tolist()):
        g, r = twin.solve(x, t), named.solve(x, t)
        assert abs(g.u_minus - r.u_minus) <= 1e-12
        assert abs(g.u_plus - r.u_plus) <= 1e-12
        assert abs(g.u_plus - min(max(x / t, -1.0), 1.0)) <= 1e-9


def test_breakpoints_of_sampled_and_piece_data():
    y, left, right = idata.step(1.0, 0.0, x0=0.5).breakpoints()
    assert (y.tolist(), left.tolist(), right.tolist()) == ([0.5], [1.0], [0.0])
    assert all(len(v) == 0 for v in idata.sin_wave().breakpoints())
    assert all(len(v) == 0 for v in idata.step(0.3, 0.3).breakpoints())
    y, left, right = _power_jump().breakpoints()
    assert y.tolist() == [-1.0, 0.2, 1.0]
    assert left.tolist() == [-0.5, -0.4, 0.6]
    assert right.tolist() == [-0.4, 0.6, 0.3]
    y, left, right = _nwave().breakpoints()
    assert (y.tolist(), left.tolist(), right.tolist()) == (
        [-1.0, 1.0], [0.0, 1.0], [-1.0, 0.0])
    # periodic pieces: the seam and an inner jump
    d = idata.InitialData([idata.Piece(0.0, 1.0, "const", {"c": 1.0}),
                           idata.Piece(1.0, 2.0, "const", {"c": -1.0})],
                          period=2.0)
    y, left, right = d.breakpoints()
    assert (y.tolist(), left.tolist(), right.tolist()) == (
        [0.0, 1.0], [-1.0, 1.0], [1.0, -1.0])
    # knots where phi steps; phi(y-) and phi(y+) as phi reads them
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    us = np.array([1.0, 1.0, -2.0, 0.5])
    for period in (None, 3.0):
        d = idata.SampledData(xs, us, period=period)
        y, left, right = d.breakpoints()
        assert y.tolist() == ([2.0, 3.0] if period is None else [0.0, 2.0])
        assert d.phi(y).tolist() == right.tolist()
        assert d.phi(y - 1e-9).tolist() == left.tolist()


@st.composite
def _random_data(draw):
    """Random sampled or piecewise data, periodic or with tails."""
    lo = draw(st.floats(-3.0, 0.0))
    hi = lo + draw(st.floats(0.5, 5.0))
    period = hi - lo if draw(st.booleans()) else None
    tails = {} if period else {"left_tail": draw(st.floats(-1.0, 1.0)),
                               "right_tail": draw(st.floats(-1.0, 1.0))}
    value = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        n = draw(st.integers(2, 40))
        return idata.SampledData(np.linspace(lo, hi, n),
                                 draw(st.lists(value, min_size=n, max_size=n)),
                                 period=period)
    k = draw(st.integers(1, 4))
    ends = np.linspace(lo, hi, k + 1).tolist()
    pieces = []
    for a, b in zip(ends[:-1], ends[1:]):
        kind = draw(st.sampled_from(["const", "poly", "sin", "cos", "power"]))
        c0, c1 = draw(value), draw(value)
        if kind == "const":
            params = {"c": c0}
        elif kind == "poly":
            params = {"coeffs": [c0, c1]}
        elif kind == "power":
            params = {"a": c0, "b": c1, "x_ref": draw(st.floats(a, b)),
                      "g": draw(st.sampled_from([0.0, 0.5, 1.0]))}
        else:
            params = {"a": c0, "b": draw(st.floats(0.5, 3.0)), "c": c1}
        pieces.append(idata.Piece(a, b, kind, params))
    return idata.InitialData(pieces, period=period, **tails)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_grid_equals_solve_on_random_problems(data):
    # the blocks, windows and closed-form roots of solve_grid give each
    # point the sample a solve of it alone gives, bit for bit
    fl = data.draw(st.sampled_from([flux.burgers(), flux.power2n(2),
                                    flux.exponential(0.7)]))
    p = Problem(fl, data.draw(_random_data()))
    t = float(np.exp(data.draw(st.floats(np.log(0.05), np.log(50.0)))))
    xs = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=9, max_size=40))
    assert p.solve_grid(xs, t) == [p.solve(x, t) for x in xs]


_ROW_FLUXES = {
    "burgers": lambda d: Problem(flux.burgers(), d),
    "quartic": lambda d: Problem(flux.power2n(2), d),
    "exponential": lambda d: Problem(flux.exponential(0.7), d),
    "cube_plus_id": lambda d: GeneralProblem(_cube_plus_id_pair(), d),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_maximize_block_per_row_t_equals_one_row_blocks(data):
    # a block with one t per row gives each row the MaximizerSet of a block
    # of one at its own t, bit for bit
    make = _ROW_FLUXES[data.draw(st.sampled_from(sorted(_ROW_FLUXES)))]
    p = make(data.draw(_random_data()))
    k = data.draw(st.integers(1, 8))
    xs = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k))
    ts = np.exp(data.draw(st.lists(st.floats(np.log(0.05), np.log(50.0)),
                                   min_size=k, max_size=k)))
    out = p._maximize_block(np.array(xs), ts, np.zeros(k, dtype=np.intp),
                            np.full(k, len(p._s)))
    assert out.sets() == [p._maximize_block(np.array([x]), np.array([t]),
                                            *p._whole).sets()[0]
                          for x, t in zip(xs, ts.tolist())]


def _assemble(p, E, Emax, thresh, us, es, first, last, seen):
    """One row's MaximizerSet from its refined points and value bands.

    The per-row assembly that blocks ran before they assembled all their
    rows as arrays, kept as the reference.  ``E(u)`` is the row's E(.; x,
    t), ``us`` and ``es`` the refined points and E there, and the grid
    bands run from ``first`` to ``last``.  ``seen`` counts the flat bands,
    the unreached bands and the rows of two or more components.
    """
    s, n = p._s, len(p._s)
    h = p._h
    pts = [u for u, e in zip(us, es) if e >= thresh]
    flat_tol = 1e-11 * (1.0 + abs(Emax))
    comps = [[u, u] for u in pts]
    edges = []              # (outside, inside) grid points of flat bands
    unreached = []
    for i, j in zip(first, last):
        out_lo, lo = s[max(i - 1, 0)], s[i]
        hi, out_hi = s[j], s[min(j + 1, n - 1)]
        if hi - lo > 2.5 * h:
            probes = np.linspace(lo, hi, 7)[1:-1]
            spread = Emax - float(E(probes).min())
            if spread <= flat_tol:
                edges += [(out_lo, lo), (out_hi, hi)]
                continue
        if not any(lo - 1.5 * h <= u <= hi + 1.5 * h for u in pts):
            unreached.append((lo, hi))
    if edges:
        seen["flat"] += len(edges) // 2
        out, inside = zip(*edges)
        us, _ = bisect_many(lambda u, i: E(u) >= thresh, inside, out,
                            p.tol_u)
        comps += [[min(a, b), max(a, b)]
                  for a, b in us.reshape(-1, 2).tolist()]
    if unreached:
        seen["unreached"] += len(unreached)
        lo, hi = zip(*unreached)
        us = golden_many(lambda u, i: -E(u), lo, hi, p.tol_u)
        comps += [[u, u] for u in us.tolist()]
    seen["multi"] += len(comps) > 1
    comps.sort()
    merged = []
    for c in comps:
        if merged and c[0] <= merged[-1][1] + p.tol_u:
            merged[-1][1] = max(merged[-1][1], c[1])
        else:
            merged.append(c)
    components = tuple((float(a), float(b)) for a, b in merged)
    return MaximizerSet(components, components[0][0], components[-1][1],
                        float(Emax))


def _row_set(out, q):
    """Row q of a block's arrays as a MaximizerSet, built here."""
    k = out.own == q
    return MaximizerSet(tuple(zip(out.lo[k].tolist(), out.hi[k].tolist())),
                        float(out.u_plus[q]), float(out.u_minus[q]),
                        float(out.max_value[q]))


def _check_assembly(monkeypatch):
    """From now on, check every block's rows against ``_assemble``.

    Each row's best grid value, bands and ``redo`` flag are recomputed
    from E on its window, and its refined points are the block's own.
    Returns the counts of rows checked and of the branches they took.
    """
    seen = {"rows": 0, "flat": 0, "unreached": 0, "multi": 0, "redo": 0}
    block = GeneralProblem._maximize_block
    components = GeneralProblem._components
    refined = []

    def capture(self, E, Emax, thresh, r, u_star, E_star, br, *bands):
        refined.append((E, r, u_star, E_star, br))
        return components(self, E, Emax, thresh, r, u_star, E_star, br,
                          *bands)

    def checked(self, xs, t, start, width):
        out = block(self, xs, t, start, width)
        E, r, u_star, E_star, br = refined.pop()
        assert not out.redo[br].any()       # no band search on those rows
        n = len(self._s)
        for q in range(len(xs)):
            def Eq(u, q=q):
                return E(u, q)

            a, b = int(start[q]), int(start[q] + width[q])
            Ew = Eq(self._s[a:b])
            es = E_star[r == q].tolist()
            Emax = max([float(Ew.max())] + es)
            thresh = Emax - self.val_tol
            bands = runs(Ew >= thresh)
            edges = [0] * (a > 0) + [b - a - 1] * (b < n)
            redo = any(Ew[e] >= min(thresh, Ew.max()) for e in edges)
            assert bool(out.redo[q]) == redo
            seen["redo"] += redo
            if redo:            # scanned again, never assembled
                continue
            ref = _assemble(self, Eq, Emax, thresh, u_star[r == q].tolist(),
                            es, [a + i for i, _ in bands],
                            [a + j for _, j in bands], seen)
            assert repr(_row_set(out, q)) == repr(ref)
        seen["rows"] += len(xs)
        return out

    monkeypatch.setattr(GeneralProblem, "_components", capture)
    monkeypatch.setattr(GeneralProblem, "_maximize_block", checked)
    return seen


def test_components_reach_bands_of_their_own_row_within_1_5_cells():
    # one band of two cells per row and kept points placed around its
    # reach [s[i] - 1.5 h, s[i + 1] + 1.5 h]: on both ends a point reaches
    # it and one ulp outside does not; a point in the band of another row
    # reaches nothing; two points tol_u / 2 apart merge into one component
    p = Problem(flux.burgers(), idata.sin_wave())
    s, h, i = p._s, p._h, 1000
    lo, hi = s[i] - 1.5 * h, s[i + 1] + 1.5 * h
    pts = [lo, np.nextafter(lo, -np.inf), hi, np.nextafter(hi, np.inf)]
    r = np.array([0, 1, 2, 3, 5, 6, 6])
    u_star = np.array(pts + [s[i], 0.1, 0.1 + 0.5 * p.tol_u])
    E_star = np.zeros(len(r))
    br = np.arange(5)
    first, last = np.full(5, i), np.full(5, i + 1)
    Emax = np.zeros(7)
    thresh = Emax - p.val_tol

    def E(u, q):
        return -(u - s[i]) ** 2

    out = vc._Rows(*p._merge(*p._components(
        E, Emax, thresh, r, u_star, E_star, br, first, last), 7), Emax,
        np.zeros(7, dtype=bool))
    seen = {"flat": 0, "unreached": 0, "multi": 0}
    for q in range(7):
        b = br == q
        ref = _assemble(p, lambda u: E(u, q), 0.0, -p.val_tol,
                        u_star[r == q].tolist(), E_star[r == q].tolist(),
                        first[b].tolist(), last[b].tolist(), seen)
        assert repr(_row_set(out, q)) == repr(ref)
    assert seen == {"flat": 0, "unreached": 3, "multi": 3}
    assert [len(ms.components) for ms in out.sets()] == [1, 2, 1, 2, 1, 1, 1]


def test_rows_join_takes_a_later_parts_rows_with_their_components():
    # row 1 is covered by both parts, row 0 by the first only and row 2
    # by the second only; the second part's row 1 replaces the first's,
    # components and all, and a redo row keeps none of its components
    def rows(own, lo, hi, up, redo):
        up = np.array(up)
        return vc._Rows(up, up + 1.0, np.array(own), np.array(lo),
                        np.array(hi), -up, np.array(redo))

    first = rows([0, 1, 1], [0.0, 1.0, 1.5], [0.0, 1.2, 2.0], [0.0, 1.0],
                 [False, False])
    second = rows([0, 1], [5.0, 6.0], [5.5, 6.0], [5.0, 6.0], [False, True])
    out = vc._Rows.join([(np.array([0, 1]), first),
                         (np.array([1, 2]), second)], 3)
    assert out.sets() == [MaximizerSet(((0.0, 0.0),), 0.0, 1.0, -0.0),
                          MaximizerSet(((5.0, 5.5),), 5.0, 6.0, -5.0), None]


def _narrow_windows(monkeypatch):
    """Cut every windowed row's window to 20 cells that end 4 cells short
    of its maximizer, so that the row is scanned again."""
    blocks = GeneralProblem._blocks

    def missing(self, xs, t, start, width):
        n = len(self._s)
        part = width < n
        if part.any():
            j = np.searchsorted(self._s, [
                self.solve(x, tq).u_plus
                for x, tq in zip(xs[part].tolist(), t[part].tolist())])
            start, width = start.copy(), width.copy()
            start[part] = np.where(j < n // 2, j + 4, j - 24)
            width[part] = 20
        return blocks(self, xs, t, start, width)

    monkeypatch.setattr(GeneralProblem, "_blocks", missing)


_ASSEMBLY_DATA = {
    "sine": idata.sin_wave,
    "step": lambda: idata.step(1.0, 0.0),
    "sampled": _sampled_17,
    # poly [0, -1] with tails 1 and -1: at (0, 1) under Burgers the maximizer
    # set is the one interval [-1, 1], a flat band
    "flat": lambda: idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, -1.0]})],
        left_tail=1.0, right_tail=-1.0),
}


def test_block_assembly_matches_per_row_reference(monkeypatch):
    # Burgers and power2n(2): restarts, point solves, windowed slices,
    # forced rescans and late slices on restart data.  Each row's u+-,
    # max_value and components are the reference's, bit for bit, and every
    # rare branch runs: flat bands (Burgers at (0, 1) on the "flat" data),
    # unreached bands (refined roots moved off), rows of two components
    seen = _check_assembly(monkeypatch)
    rng = np.random.default_rng(23)
    for fl in (flux.burgers(), flux.power2n(2)):
        problems = {k: Problem(fl, make()) for k, make in
                    _ASSEMBLY_DATA.items()}
        _scan_only(monkeypatch, *problems.values())
        restarted = problems["sine"].restart(0.5)
        for p in problems.values():
            for t in (0.4, 1.0, 2.5):
                p.solve_grid(np.sort(rng.uniform(-3.0, 3.0, 40)), t)
                for x in rng.uniform(-3.0, 3.0, 4).tolist():
                    p.solve(x, t)
        for t in (10.5, 17.0):
            restarted.solve_grid(np.linspace(-np.pi, np.pi, 33), t)
        problems["flat"].solve(0.0, 1.0)
        problems["flat"].solve_grid(np.linspace(-0.02, 0.02, 9), 1.0)
        problems["step"].branch_gap(0.5, 1.0, 0.5)
        with pytest.MonkeyPatch.context() as mp:
            _narrow_windows(mp)
            problems["sine"].solve_grid(np.linspace(-3.0, 3.0, 33), 0.4)
        with pytest.MonkeyPatch.context() as mp:
            # roots moved 3 cells up fall below the band of the best grid
            # value, so no kept point reaches it: unreached-band searches
            roots = GeneralProblem._roots
            mp.setattr(GeneralProblem, "_roots", lambda self, *args: np.add(
                roots(self, *args), 3 * self._h))
            problems["sine"].solve_grid(np.linspace(-3.0, 3.0, 8), 0.7)
    assert seen["rows"] > 2 * 4096
    assert min(seen.values()) > 0, seen


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_block_assembly_matches_reference_on_random_problems(data):
    # the custom twins scan every row, which the check reads
    fl = data.draw(st.sampled_from([flux.burgers(), flux.power2n(2)]))
    p = Problem(_twin(fl), data.draw(_random_data()))
    t = float(np.exp(data.draw(st.floats(np.log(0.05), np.log(50.0)))))
    xs = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=40))
    with pytest.MonkeyPatch.context() as mp:
        seen = _check_assembly(mp)
        p.solve_grid(xs, t)
    assert seen["rows"] >= len(set(xs))


def test_restart_knots_equal_pointwise_solves():
    p = Problem(flux.burgers(), idata.step(1.0, -0.5))
    d = p.restart(0.5).problem.data
    mids = 0.5 * (d.xs[:-1] + d.xs[1:])
    ref = np.array([p.solve(x, 0.5).u_plus for x in mids])
    assert d.us[:-1].tobytes() == ref.tobytes()
    assert d.us[-1] == ref[-1]


def test_restart_reproduces_solution(riemann_down):
    rp = riemann_down.restart(1.0)
    s = rp.solve(1.0, 2.0)          # shock sits at x = t/2
    assert s.is_shock
    assert s.u_plus == pytest.approx(0.0, abs=1e-10)
    assert s.u_minus == pytest.approx(1.0, abs=1e-10)
    for x in (0.4, 1.6):
        assert rp.solve(x, 2.0).u_plus == pytest.approx(
            riemann_down.solve(x, 2.0).u_plus, abs=1e-3)


@pytest.mark.parametrize("t", [0.5, 0.25, 0.0, -1.0, np.nan, np.inf])
def test_restarted_problem_rejects_t_up_to_tau(t, monkeypatch):
    # an absolute t <= tau (or a non-finite t) names tau, and the inner
    # problem is never asked
    rp = Problem(flux.burgers(), idata.step(1.0, 0.0)).restart(0.5)

    def asked(*args):
        raise AssertionError("the inner problem was asked")

    monkeypatch.setattr(rp.problem, "solve", asked)
    monkeypatch.setattr(rp.problem, "solve_grid", asked)
    with pytest.raises(ValueError, match=r"tau = 0\.5"):
        rp.solve(0.0, t)
    with pytest.raises(ValueError, match=r"tau = 0\.5"):
        rp.solve_grid([0.0, 1.0], t)


def test_restarted_samples_carry_absolute_time():
    rp = Problem(flux.burgers(), idata.sin_wave()).restart(0.5)
    xs = np.linspace(-np.pi, np.pi, 17)
    grid = rp.solve_grid(xs, 15)
    assert grid == [rp.solve(x, 15) for x in xs]
    assert all(type(s.t) is float and s.t == 15.0 for s in grid)
    inner = rp.problem.solve_grid(xs, 14.5)
    assert [s.x for s in grid] == [s.x for s in inner]
    assert [(s.u_minus, s.u_plus, s.is_shock, s.maximizer) for s in grid] == [
        (s.u_minus, s.u_plus, s.is_shock, s.maximizer) for s in inner]


def test_identity_pair_reduction_bitwise(riemann_down):
    gp = GeneralProblem(identity_pair(riemann_down.flux), riemann_down.data)
    for x, t in ((0.25, 1.0), (0.5, 1.0), (0.73, 2.2), (-0.4, 0.3)):
        a = riemann_down.solve(x, t)
        b = gp.solve(x, t)
        assert a.u_plus == b.u_plus
        assert a.u_minus == b.u_minus
        assert a.maximizer.max_value == b.maximizer.max_value


def test_general_pair_riemann():
    # U = u^3 + u, F = 3u^4/4 + u^2/2, H = u: jump (1 -> 0) moves at
    # [F]/[U] = (5/4)/2 = 0.625
    U = lambda u: np.asarray(u, dtype=float) ** 3 + np.asarray(u, dtype=float)
    Up = lambda u: 3.0 * np.asarray(u, dtype=float) ** 2 + 1.0
    pair = GeneralFluxPair(U, Up,
                           H=lambda u: np.asarray(u, dtype=float))
    d = idata.step(1.0, 0.0)
    assert GeneralProblem(pair, d).solve(0.5, 1.0).u_plus == pytest.approx(1.0, abs=1e-9)
    assert GeneralProblem(pair, d).solve(0.7, 1.0).u_plus == pytest.approx(0.0, abs=1e-9)
    assert GeneralProblem(pair, d).solve(0.62, 1.0).u_plus == pytest.approx(1.0, abs=1e-9)
    assert GeneralProblem(pair, d).solve(0.63, 1.0).u_plus == pytest.approx(0.0, abs=1e-9)


def test_general_eval_E_against_direct_quadrature(neg_sin):
    # E = t int_0^u H'(s)(U(phi(x - t H(s))) - U(s)) ds; H(0)U(0) = 1 and F
    # comes from the pair's own quadrature
    U = lambda u: np.exp(np.asarray(u, dtype=float) / 2.0)
    pair = GeneralFluxPair(U, lambda u: 0.5 * U(u),
                           H=lambda u: np.asarray(u, dtype=float) + 1.0)
    p = GeneralProblem(pair, neg_sin.data)
    rng = np.random.default_rng(5)
    for _ in range(8):
        x = rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.2, 3.0)
        u = rng.uniform(-1.0, 1.0)
        s = np.linspace(0.0, u, 20001)
        g = U(p.data.phi(x - t * (s + 1.0))) - U(s)     # H' = 1
        oracle = t * np.trapezoid(g, s)
        assert p.eval_E(u, x, t) == pytest.approx(oracle, abs=1e-7)


def test_interval_maximizer_at_compression_point():
    # phi = 1 - x on [0, 1]: every characteristic lands on (1, 1), so the
    # maximizer set is the full interval [0, 1]
    d = idata.InitialData([idata.Piece(0.0, 1.0, "poly", {"coeffs": [1.0, -1.0]})],
                          left_tail=1.0, right_tail=0.0)
    ms = Problem(flux.burgers(), d).maximize(1.0, 1.0)
    assert len(ms.components) == 1
    assert ms.u_plus == pytest.approx(0.0, abs=1e-4)
    assert ms.u_minus == pytest.approx(1.0, abs=1e-4)


def test_determinism_byte_identical(neg_sin):
    a = neg_sin.solve(0.37, 1.9)
    b = Problem(flux.burgers(), idata.sin_wave()).solve(0.37, 1.9)
    assert (a.u_plus, a.u_minus, a.maximizer) == (b.u_plus, b.u_minus, b.maximizer)


def test_solve_grid_matches_solve_at_late_times(monkeypatch):
    # late on sine data the scan keeps runs with no psi sign change, and
    # one lockstep golden-section search per block maximizes all of them
    rows_per_call = []          # the x of the rows each search served
    inside = []
    real_golden = vc.golden_many

    def golden_many(f, a, b, tol):
        rows_per_call.append(set())
        inside.append(True)
        try:
            return real_golden(f, a, b, tol)
        finally:
            inside.pop()

    monkeypatch.setattr(vc, "golden_many", golden_many)
    xs = np.linspace(-3.0, 3.0, 16)
    for fl in (flux.burgers(), flux.power2n(2)):
        p = Problem(fl, idata.sin_wave())
        real_E = p._E

        def E(W0, u, x, t, real_E=real_E):
            if inside:
                rows_per_call[-1].update(np.atleast_1d(x).tolist())
            return real_E(W0, u, x, t)

        monkeypatch.setattr(p, "_E", E)
        for t in (1e3, 1e4):
            grid = p.solve_grid(xs, t)
            point = [p.solve(x, t) for x in xs]
            assert [repr(s) for s in grid] == [repr(s) for s in point]
    assert max(len(rows) for rows in rows_per_call) >= 2


# -- the a-priori u-window of late periodic solves ---------------------------

def _sawtooth():
    """phi = 0.4 + x on [-1, 1], period 2: mean 0.4."""
    return idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.4, 1.0]})], period=2.0)


def _periodic_sampled(n):
    rng = np.random.default_rng(n)
    return idata.SampledData(np.linspace(-2.0, 2.0, n),
                             rng.uniform(-1.0, 1.0, n) + 0.3, period=4.0)


_PERIODIC_PROBLEMS = {
    "burgers_sine": lambda: Problem(flux.burgers(), idata.sin_wave()),
    "quartic_sine": lambda: Problem(flux.power2n(2), idata.sin_wave()),
    "sawtooth": lambda: Problem(flux.burgers(), _sawtooth()),
    "sampled_17": lambda: Problem(flux.burgers(), _periodic_sampled(17)),
    "sampled_65": lambda: Problem(flux.burgers(), _periodic_sampled(65)),
    "sampled_257": lambda: Problem(flux.burgers(), _periodic_sampled(257)),
    "restart": lambda: Problem(flux.burgers(),
                               idata.sin_wave()).restart(0.5).problem,
    # U = u^3 + u: the period mean of U(phi) is bracketed on U's grid values
    "cube_plus_id": lambda: GeneralProblem(_cube_plus_id_pair(), _sawtooth()),
}


@pytest.mark.parametrize("name", list(_PERIODIC_PROBLEMS))
def test_windowed_solves_equal_whole_grid_blocks(name):
    # before t_w the window is the whole grid, after it a narrower one; the
    # maximizer sets of solve and solve_grid are those of one-row blocks
    # over the whole grid
    p = _PERIODIC_PROBLEMS[name]()
    assert math.isfinite(p._t_w)
    n = len(p._s)
    xs = np.linspace(p.data.w_lo - 0.3, p.data.w_hi + 0.3, 33)
    widths = []
    for t in (0.5 * p._t_w, p._t_w, 2.0 * p._t_w, 10.0, 20.0, 40.0, 80.0,
              160.0):
        widths.append(int(p._window(t)[1][0]))
        ref = [repr(p._maximize_block(np.array([x]), np.array([t]),
                                      *p._whole).sets()[0])
               for x in xs.tolist()]
        assert [repr(s.maximizer) for s in p.solve_grid(xs, t)] == ref
        assert [repr(p.solve(x, t).maximizer) for x in xs] == ref
    assert widths[:2] == [n, n] and n > widths[2] > widths[-1]


def test_late_restart_slice_takes_one_block(monkeypatch):
    rp = Problem(flux.burgers(), idata.sin_wave()).restart(0.5)
    n = len(rp.problem._s)
    xs = np.linspace(-np.pi, np.pi, 17)
    calls = _count_blocks(monkeypatch)
    rp.solve_grid(xs, 15.0)
    assert len(calls) == 1 and len(calls[0]) == 17
    assert all(width < 0.5 * n and not redo for _, width, redo in calls[0])
    calls.clear()
    rp.solve_grid(xs, 10.0)
    assert len(calls) == 1
    # before t_w the slice scans the whole grid, as every tailed problem:
    # one _blocks call over it, whose coarse pass leaves one block (the
    # custom twin, whose hulls take no one-root kernel)
    calls.clear()
    grids = _spy(monkeypatch, "_blocks")
    p = Problem(_twin(flux.burgers()), idata.sin_wave())
    p.solve_grid(np.linspace(-3.0, 3.0, 8), 1.0)
    assert [list(zip(start.tolist(), width.tolist()))
            for _, _, start, width in grids] == [[(0, n)] * 8]
    assert len(calls) == 1 and len(calls[0]) == 8
    assert not any(redo for *_, redo in calls[0])


def test_blocks_are_bounded_by_their_cells_alone(monkeypatch):
    # restart's 4 096 knots: a block of narrow windows holds more than 256
    # rows, every block's cells, the sum of its rows' windows after the
    # coarse pass, stay within BLOCK_ELEMS, and the knots take at most 9
    # blocks
    p = Problem(flux.burgers(), idata.sin_wave())
    _scan_only(monkeypatch, p)
    calls = _count_blocks(monkeypatch)
    p.restart(0.5)
    for c in calls:
        assert len(c) == 1 or sum(w - 1 for _, w, _ in c) <= vc.BLOCK_ELEMS
    assert max(len(c) for c in calls) > 256
    assert len(calls) <= 9


def test_one_window_rows_fill_one_block_after_the_pass(monkeypatch):
    # rows of one u-window are packed by the cells their coarse pass leaves
    # them, within BLOCK_ELEMS like rows of many windows: every late
    # 17-point restart slice is one block, with no join, equal to its point
    # solves, and so is a 12-point slice over the whole grid (of the custom
    # twin, whose hulls take no one-root kernel).  Whole-grid rows each at
    # their own time take no pass, and 16 of them fill two blocks of 8
    p = Problem(_twin(flux.burgers()), idata.sin_wave())
    rp = Problem(flux.burgers(), idata.sin_wave()).restart(0.5)
    joins = []
    join = vc._Rows.join

    def counted(parts, m):
        joins.append(m)
        return join(parts, m)

    monkeypatch.setattr(vc._Rows, "join", staticmethod(counted))
    calls = _count_blocks(monkeypatch)
    xs = np.linspace(-np.pi, np.pi, 17)
    for t in (8.0, 10.0, 10.5, 12.0, 13.3, 15.0, 20.0):
        calls.clear()
        got = rp.solve_grid(xs, t)
        assert len(calls) == 1 and not joins
        assert sum(w - 1 for _, w, _ in calls[0]) <= vc.BLOCK_ELEMS
        assert [repr(s) for s in got] == [repr(rp.solve(x, t)) for x in xs]
    calls.clear()
    p.solve_grid(np.linspace(-3.0, 3.0, 12), 1.0)
    assert [len(c) for c in calls] == [12] and not joins
    calls.clear()
    p._blocks(np.linspace(-3.0, 3.0, 16), np.linspace(1.0, 2.5, 16),
              np.zeros(16, dtype=np.intp), np.full(16, 2049))
    assert [len(c) for c in calls] == [8, 8]
    # 3 rows of 1 024 cells and 20 of 2 048, in their given order: 3 + 6
    # rows, then 8 and 6, each block within BLOCK_ELEMS cells
    calls.clear()
    width = np.array([1025] * 3 + [2049] * 20)
    p._blocks(np.linspace(-3.0, 3.0, 23), np.full(23, 1.0),
              np.zeros(23, dtype=np.intp), width)
    assert [len(c) for c in calls[:3]] == [9, 8, 6]


def test_block_of_many_windows_equals_its_one_row_blocks():
    # rows of different u-windows laid end to end in one block: a row at
    # each grid end, rows with two inner edges, a shock row over the whole
    # grid and two rows whose windows miss their maximizers (redo); every
    # row's arrays equal those of its own one-row block, bit for bit
    p = Problem(flux.burgers(), idata.sin_wave())
    n, t = len(p._s), 1.3
    xs = np.array([0.25, -0.25, -2.0, 1.5, 0.0, 2.5, -1.0])
    start = np.array([0, n - 30, 1503, 300, 0, 744, 1877])
    width = np.array([30, 30, 40, 60, n, 20, 20])
    ts = np.full(len(xs), t)
    out = p._maximize_block(xs, ts, start, width)
    assert out.redo.tolist() == [False] * 5 + [True] * 2
    for q, x in enumerate(xs.tolist()):
        one = p._maximize_block(xs[q:q + 1], ts[q:q + 1], start[q:q + 1],
                                width[q:q + 1])
        assert out.redo[q] == one.redo[0]
        assert repr(_row_set(out, q)) == repr(_row_set(one, 0))
        if not out.redo[q]:
            assert repr(_row_set(out, q)) == repr(p.maximize(x, t))
    assert len(_row_set(out, 4).components) == 2


def test_sine_slice_shares_blocks_across_windows(monkeypatch):
    # a slice of 2k points: level 0 of k rows, then one block of the k
    # other rows, 5 359 cells of 84 windows from 32 to 1 903 points at
    # t = 1.2 and 12 186 of 85 from 79 to 308 at t = 0.5
    p = Problem(flux.burgers(), idata.sin_wave())
    _scan_only(monkeypatch, p)
    k = _level_zero_rows(len(p._s))
    grids = _spy(monkeypatch, "_blocks")
    calls = _count_blocks(monkeypatch)
    xs = np.linspace(-np.pi, np.pi, 2 * k)
    for t in (1.2, 0.5):
        grids.clear()
        calls.clear()
        got = p.solve_grid(xs, t)
        assert [len(g[0]) for g in grids] == [k, k]
        assert len(calls[-1]) == k and len(set(calls[-1])) > k // 2
        assert got == [p.solve(x, t) for x in xs]


@pytest.mark.parametrize("n_scan", [2048, 4096])
def test_level_zero_is_one_block_of_whole_grid_rows(monkeypatch, n_scan):
    # a grid of m points whose rows cost at most 3 * BLOCK_ELEMS cells
    # after the coarse pass (128 at n_scan 2048, 96 at 4096) is one _blocks
    # call of whole-grid rows; one point more starts with level 0, one call
    # of k whole-grid rows (85 and 64), packed after its coarse pass.  The
    # custom twin's hulls take no one-root kernel, so every row is scanned
    p = Problem(_twin(flux.burgers()), idata.sin_wave(), n_scan=n_scan)
    k = _level_zero_rows(n_scan + 1)
    short = _short_grid_rows(n_scan + 1)
    assert (k, short) == {2048: (85, 128), 4096: (64, 96)}[n_scan]
    grids = _spy(monkeypatch, "_blocks")
    calls = _count_blocks(monkeypatch)
    for m in (k, k + 1, short, short + 1):
        grids.clear()
        calls.clear()
        xs = np.linspace(-3.0, 3.0, m)
        got = p.solve_grid(xs, 1.2)
        _, _, start, width = grids[0]
        assert list(zip(start.tolist(), width.tolist())) \
            == [(0, n_scan + 1)] * (m if m <= short else k)
        assert len(grids) == (m > short) + 1
        assert sum(len(c) for c in calls) == m
        assert got == [p.solve(x, 1.2) for x in xs]


_SHORT_SLICE_DATA = {
    "sine": idata.sin_wave,
    "step_down": lambda: idata.step(1.0, 0.0),
    "step_up": lambda: idata.step(-1.0, 1.0),
    "sampled": _sampled_17,
}


@pytest.mark.parametrize("fl", [flux.burgers(), flux.power2n(2),
                                flux.exponential(0.7)],
                         ids=["burgers", "quartic", "exponential"])
def test_slice_of_at_most_k_points_is_one_coarse_pass(monkeypatch, fl):
    # a slice of 5 to k points is level 0 alone: one _blocks call whose one
    # coarse pass covers every row, packed in blocks of at most BLOCK_ELEMS
    # cells, and each sample equals its point solve by repr.  Up to 32
    # points the hulls fit one block, but for power2n(2) on the sampled
    # data, which spill into a second at t <= 0.5; k points take 1-3.  The
    # custom twins send every row to the scan
    grids = _spy(monkeypatch, "_blocks")
    coarse = _spy(monkeypatch, "_coarse")
    calls = _count_blocks(monkeypatch)
    for dname, make in _SHORT_SLICE_DATA.items():
        p = Problem(_twin(fl), make())
        k = _level_zero_rows(len(p._s))
        for m in (5, 32, k):
            xs = np.linspace(-3.0, 3.0, m) + 0.01
            for t in (0.3, 0.5, 1.2, 3.0):
                grids.clear()
                coarse.clear()
                calls.clear()
                got = p.solve_grid(xs, t)
                assert len(grids) == 1 and len(grids[0][0]) == m
                assert len(coarse) == 1 and len(coarse[0][0]) == m
                assert sum(len(c) for c in calls) == m
                assert all(sum(w - 1 for _, w, _ in c) <= vc.BLOCK_ELEMS
                           for c in calls)
                one = m <= 32 and not (dname == "sampled"
                                        and fl.kind == "power2n")
                assert len(calls) == 1 if one else len(calls) <= 3
                assert [repr(s) for s in got] \
                    == [repr(p.solve(x, t)) for x in xs]


def test_rows_that_fit_are_one_block_with_no_join(monkeypatch):
    # a point solve, an 8-point whole-grid slice (of the custom twin, whose
    # hulls take no one-root kernel) and a late 17-point restart slice each
    # take one _maximize_block call, and no _Rows.join
    p = Problem(_twin(flux.burgers()), idata.sin_wave())
    rp = Problem(flux.burgers(), idata.sin_wave()).restart(0.5)
    joins = []
    join = vc._Rows.join

    def counted(parts, m):
        joins.append(m)
        return join(parts, m)

    monkeypatch.setattr(vc._Rows, "join", staticmethod(counted))
    calls = _count_blocks(monkeypatch)
    for run in (lambda: p.maximize(0.3, 1.0),
                lambda: p.solve_grid(np.linspace(-3.0, 3.0, 8), 1.0),
                lambda: rp.solve_grid(np.linspace(-np.pi, np.pi, 17), 15.0)):
        calls.clear()
        run()
        assert len(calls) == 1 and not joins


def test_window_that_cuts_off_the_maximizer_is_scanned_again(monkeypatch):
    # a window of 20 cells that ends 4 cells short of the point's
    # maximizer, where E still rises toward its edge: the row is scanned
    # again over the whole grid and gets its answer there
    p = Problem(flux.burgers(), idata.sin_wave())
    n = len(p._s)
    t = 20.0
    calls = _count_blocks(monkeypatch)
    for x in (-2.5, -0.4, 0.3, 1.7):
        ref = p._maximize_block(np.array([x]), np.array([t]),
                                *p._whole).sets()[0]
        j = int(np.searchsorted(p._s, ref.u_plus))
        start = j + 4 if j < n // 2 else j - 24
        monkeypatch.setattr(p, "_window", lambda t: (np.full(1, start),
                                                     np.full(1, 20)))
        calls.clear()
        assert repr(p.solve_grid([x], t)[0].maximizer) == repr(ref)
        assert repr(p.solve(x, t).maximizer) == repr(ref)
        assert calls == [[(start, 20, True)], [(0, n, False)]] * 2


@pytest.mark.parametrize("fl", [flux.burgers(), flux.power2n(2)],
                         ids=["burgers", "quartic"])
@pytest.mark.parametrize("data, ubar", [(idata.sin_wave(), 0.0),
                                        (_sawtooth(), 0.4)],
                         ids=["sine", "sawtooth"])
def test_late_maximizers_obey_the_period_mean_bound(fl, data, ubar,
                                                    monkeypatch):
    # the window's bound itself, on solutions that scan the whole grid:
    # H(ubar) - P/t <= H(u+-) <= H(ubar) + P/t
    p = Problem(fl, data)
    monkeypatch.setattr(p, "_window", lambda t: p._whole)
    P = data.period
    xs = np.linspace(data.w_lo, data.w_hi, 401)
    Hbar = float(fl.deriv(ubar))
    for t in (10.0, 20.0, 40.0):
        out = p.solve_grid(xs, t)
        H = fl.deriv(np.array([[s.u_plus, s.u_minus] for s in out]))
        assert H.min() >= Hbar - P / t and H.max() <= Hbar + P / t


# -- the coarse pass of wide one-window blocks --------------------------------

_B = flux.burgers()
_COARSE_FLUXES = {
    "burgers": _B,
    "quartic": flux.power2n(2),
    "exponential": flux.exponential(0.7),
    "twin": flux.custom(_B.eval, _B.deriv, _B.second),
}
_COARSE_DATA = {
    "sine": idata.sin_wave,
    "step": lambda: idata.step(1.0, 0.0),
    "sampled": _sampled_17,
}


def _coarse_problem(fname, dname):
    fl = _COARSE_FLUXES[fname]
    if dname == "restart":
        return Problem(fl, idata.sin_wave()).restart(0.5).problem
    return Problem(fl, _COARSE_DATA[dname]())


def _spy(monkeypatch, name):
    """Record the arguments of every call of the block routine ``name``."""
    calls = []
    real = getattr(GeneralProblem, name)

    def spy(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(GeneralProblem, name, spy)
    return calls


@pytest.mark.parametrize("dname", ["sine", "step", "restart", "sampled"])
@pytest.mark.parametrize("fname", list(_COARSE_FLUXES))
def test_wide_one_window_blocks_equal_their_one_row_blocks(fname, dname,
                                                          monkeypatch):
    # 17 rows over the u-window of t hold more than BLOCK_ELEMS // 2 cells
    # and take the coarse pass of _blocks, except on the narrow period-mean
    # window of periodic data at t = 1e3; every row's set and redo equal
    # those of its own one-row _blocks call, which takes no pass
    p = _coarse_problem(fname, dname)
    _scan_only(monkeypatch, p)
    coarse = _spy(monkeypatch, "_coarse")
    xs = np.linspace(-3.0, 3.0, 17) + 0.01
    for t in (0.1, 1.0, 15.0, 1e3):
        start, width = (int(v[0]) for v in p._window(t))
        ts = np.full(17, t)
        out = p._blocks(xs, ts, np.full(17, start), np.full(17, width))
        wide = 17 * (width - 1) > vc.BLOCK_ELEMS // 2
        assert len(coarse) == wide
        coarse.clear()
        for q in range(17):
            one = p._blocks(xs[q:q + 1], ts[q:q + 1], np.full(1, start),
                            np.full(1, width))
            assert out.redo[q] == one.redo[0]
            assert repr(_row_set(out, q)) == repr(_row_set(one, 0))
        assert not coarse


def test_fine_one_row_block_takes_the_coarse_pass(monkeypatch):
    # a point solve over 2**14 cells takes the pass, and reaches the best
    # value of a dense scan of 2**16 points
    p = Problem(flux.burgers(), idata.sin_wave(), n_scan=2 ** 14)
    _scan_only(monkeypatch, p)
    coarse = _spy(monkeypatch, "_coarse")
    u = np.linspace(p._s[0], p._s[-1], 2 ** 16)
    for x, t in ((-1.3, 0.4), (0.2, 1.0), (2.1, 3.0), (0.0, 5.0)):
        coarse.clear()
        ms = p.maximize(x, t)
        assert len(coarse) == 1
        dense = p._E(p._W(x - t * p._H0), u, x, t).max()
        assert ms.max_value >= dense - p.val_tol


def test_late_restart_slice_scans_a_quarter_of_its_window(monkeypatch):
    # the coarse pass leaves the t = 15 slice's rows less than a quarter of
    # the 17 windows' cells, laid end to end by _flat
    rp = Problem(flux.burgers(), idata.sin_wave()).restart(0.5)
    flat = _spy(monkeypatch, "_flat")
    xs = np.linspace(-np.pi, np.pi, 17)
    got = rp.solve_grid(xs, 15.0)
    width = int(rp.problem._window(15.0 - rp.tau)[1][0])
    assert len(flat) == 1
    *_, widths = flat[0]
    assert (widths - 1).sum() < 17 * (width - 1) / 4
    assert [repr(s) for s in got] == [repr(rp.solve(x, 15.0)) for x in xs]


def test_point_solves_branch_gaps_and_lifespans_take_no_coarse_pass(
        monkeypatch):
    # a point solve, branch_gap and a lifespan's Newton steps hold too few
    # cells; the 7-row blocks of a lifespan's bisection walk (taken here by
    # probes that give up at once) hold enough, but each row at its own
    # time
    p = Problem(flux.burgers(), idata.step(1.0, 0.0))
    coarse = _spy(monkeypatch, "_coarse")
    blocks = _spy(monkeypatch, "_maximize_block")
    p.solve(0.3, 1.0)
    p.branch_gap(0.5, 1.0, 0.5)
    ca = CharacteristicAnalyzer(Problem(flux.burgers(), idata.sin_wave()))
    assert ca.lifespan_exact(1.6, -math.sin(1.6)) \
        == pytest.approx(1.6 / math.sin(1.6), abs=1e-6)
    tie = characteristics.tie
    monkeypatch.setattr(characteristics, "tie", lambda probe, *args: tie(
        lambda t: (None, None), *args))
    assert ca.lifespan_exact(1.6, -math.sin(1.6)) \
        == pytest.approx(1.6 / math.sin(1.6), abs=1e-6)
    assert max(len(xs) for xs, *_ in blocks) == 7
    assert coarse == []


def _oscillating_flux(s):
    """f' = u - (a/w) sin(w (u - s_0)) on the u-grid s, a = 0.9 and w =
    2 pi / h: f'' is 1 - a at every grid point but up to 1 + a between
    them, so no bound read from f'' at grid points holds on the cells."""
    a, s0 = 0.9, float(s[0])
    w = 2.0 * math.pi / float(s[1] - s[0])

    def arg(u):
        return w * (np.asarray(u, dtype=float) - s0)

    return flux.custom(
        lambda u: 0.5 * np.asarray(u, dtype=float) ** 2
        + a / w ** 2 * np.cos(arg(u)),
        lambda u: np.asarray(u, dtype=float) - a / w * np.sin(arg(u)),
        lambda u: 1.0 - a * np.cos(arg(u)))


def _sampled_periodic():
    us = np.random.default_rng(33).uniform(-1.0, 1.0, 33)
    return idata.SampledData(np.linspace(-1.5, 1.5, 34), np.append(us, us[0]),
                             period=3.0)


_BOUND_DATA = {
    "sine": idata.sin_wave,
    "step_down": lambda: idata.step(1.0, 0.0),
    "step_up": lambda: idata.step(-1.0, 1.0),
    "sampled": _sampled_17,
    "sampled_periodic": _sampled_periodic,
}


def _piyavskii_bound(p, t, i, Ea, Eb):
    """``_coarse``'s first-order bound B on the coarse cells from the grid
    indices i, given E at their ends: its tables, as it combines them."""
    return np.maximum(np.maximum(Ea, Eb), 0.5 * (Ea + Eb)
                      + t * p._lipschitz[1][i])


def _assert_coarse_bound_holds(p, bound, xs, ts):
    """A dense scan of E over every coarse cell of the whole grid, 32
    points per grid cell, stays within ``bound`` plus ``_coarse``'s
    rounding allowance R, in each row (x, t).  ``bound(p, t, i, Ea, Eb)``
    bounds E on the coarse cells from the grid indices i, given E at their
    ends, valued as ``_coarse`` values them."""
    S, e = vc.COARSE_STEP, len(p._s) - 1
    i = np.arange(0, e, S)
    ends = np.append(i, e)
    frac = np.linspace(0.0, 1.0, 32 * S + 1)
    lo, hi = p._s[i], p._s[np.minimum(i + S, e)]
    u = lo[:, None] + (hi - lo)[:, None] * frac
    Umax, tmag = p._lipschitz[2:4]
    for x, t in zip(xs, ts):
        W0 = float(p._W(x - t * p._H0))
        Wc = p._W(x - t * p._Hs[ends])
        Ec = W0 - Wc - t * p._Is[ends]
        R = 2.0 ** -40 * (max(np.abs(Wc).max(), abs(W0)) + Umax * abs(x)
                          + t * tmag)
        B = bound(p, t, i, Ec[:-1], Ec[1:])
        excess = p._E(W0, u, x, t).max(axis=1) - (B + R)
        assert excess.max() <= 0.0, (x, t, int(i[excess.argmax()]),
                                     float(excess.max()))


@pytest.mark.parametrize("dname", list(_BOUND_DATA))
@pytest.mark.parametrize("fname", ["burgers", "quartic", "exponential",
                                   "oscillating"])
def test_coarse_bound_holds_on_every_cell(fname, dname):
    # _coarse rules a cell out by a bound on E over it; the bound must hold
    # on every cell for every rising H, also where f'' between the grid
    # points is far above its grid values (the oscillating flux)
    data = _BOUND_DATA[dname]()
    fl = {"burgers": flux.burgers(), "quartic": flux.power2n(2),
          "exponential": flux.exponential(0.7)}.get(fname)
    if fl is None:
        fl = _oscillating_flux(Problem(flux.burgers(), data)._s)
    p = Problem(fl, data)
    rng = np.random.default_rng(
        [list(_BOUND_DATA).index(dname), len(fname)])
    ts = rng.uniform(0.1, 5.0, 4)
    xs = rng.uniform(-1.0, 1.0, 4) * ts
    _assert_coarse_bound_holds(p, _piyavskii_bound, xs, ts)


def _second_order_bound(p, t, i, Ea, Eb):
    """``_coarse``'s bound: the smaller of the first-order bound and
    max(E_a, E_b) + K (H(s_k) - H(s_i))^2 / 8, K = t^2 sup(phi')_+ + t /
    min f'' from its tables, as it combines them."""
    rise, g, q, _ = p._semi
    return np.minimum(_piyavskii_bound(p, t, i, Ea, Eb),
                      np.maximum(Ea, Eb) + t * (t * rise + g[i]) * q[i])


@pytest.mark.parametrize("dname", ["sine", "step_down"])
@pytest.mark.parametrize("fname", ["burgers", "quartic", "exponential"])
def test_second_order_bound_holds_on_every_cell(fname, dname):
    # where phi has no up-jump, E'' >= -K in H on each coarse cell, and the
    # pass rules a cell out by the smaller bound; data that jump up and
    # custom fluxes take no second-order bound
    fl = {"burgers": flux.burgers(), "quartic": flux.power2n(2),
          "exponential": flux.exponential(0.7)}[fname]
    p = Problem(fl, _BOUND_DATA[dname]())
    rng = np.random.default_rng([list(_BOUND_DATA).index(dname), 53])
    ts = rng.uniform(0.1, 5.0, 6)
    xs = rng.uniform(-1.0, 1.0, 6) * ts
    _assert_coarse_bound_holds(p, _second_order_bound, xs, ts)
    for name in ("step_up", "sampled"):
        assert Problem(fl, _BOUND_DATA[name]())._semi is None
    assert Problem(_oscillating_flux(p._s), p.data)._semi is None


@pytest.mark.parametrize("call", [
    lambda p: p.maximize(np.nan, 1.0), lambda p: p.maximize(np.inf, 1.0),
    lambda p: p.maximize(-np.inf, 1.0), lambda p: p.restart(0.0),
    lambda p: p.restart(-1.0), lambda p: p.restart(np.nan),
    lambda p: p.restart(np.inf)],
    ids=["x_nan", "x_inf", "x_-inf", "tau_0", "tau_-1", "tau_nan", "tau_inf"])
def test_maximize_and_restart_reject_bad_input(call):
    with pytest.raises(ValueError, match="must be finite"):
        call(Problem(flux.burgers(), idata.sin_wave()))
