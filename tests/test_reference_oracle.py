import numpy as np
import pytest

from laxo import flux, initial_data as idata
from laxo.errors import CflViolation
from laxo.reference_oracle import CFL, FvGrid, GodunovSolver, compare
from laxo.variational_core import GeneralProblem, Problem


def test_grid_validation():
    with pytest.raises(ValueError):
        FvGrid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        FvGrid(0.0, 1.0, 10, boundary="absorbing")


def test_grid_rejects_non_integral_cells():
    # 4.5 cells gave 5 centers, the last one past x_hi
    for n in (4.5, 10.01, np.nan, np.inf):
        with pytest.raises(ValueError, match="n_cells"):
            FvGrid(-1.0, 1.0, n)
    assert len(FvGrid(-1.0, 1.0, 8.0).centers()) == 8


def test_sonic_point_passes_flux_faults_on():
    # only a BracketError means "f' has no zero on the data range"
    def broken_inverse(v, bracket=None):
        raise RuntimeError("broken inverse")

    fl = flux.burgers()
    fl.invert_deriv = broken_inverse
    with pytest.raises(RuntimeError, match="broken inverse"):
        GodunovSolver(fl, idata.step(1.0, 0.0), FvGrid(-1.0, 2.0, 16))


def test_constant_data_unchanged():
    d = idata.InitialData([], left_tail=0.7, right_tail=0.7, window=(0.0, 0.0))
    s = GodunovSolver(flux.burgers(), d, FvGrid(-1.0, 1.0, 32))
    u0 = s.u.copy()
    s.advance(2.0)
    assert np.max(np.abs(s.u - u0)) == 0.0


def test_cfl_violation():
    s = GodunovSolver(flux.burgers(), idata.step(1.0, 0.0),
                      FvGrid(-1.0, 2.0, 100))
    with pytest.raises(CflViolation):
        s.step(1.0)


def test_shock_cell_location():
    # (1 -> 0) shock travels at speed 1/2: at t=1 the jump sits at x=0.5
    g = FvGrid(-1.0, 2.0, 300)
    s = GodunovSolver(flux.burgers(), idata.step(1.0, 0.0), g)
    s.advance(1.0)
    xs = g.centers()
    i = int(np.argmin(np.diff(s.u)))
    assert abs(0.5 * (xs[i] + xs[i + 1]) - 0.5) <= 2 * g.dx


def test_mass_conservation_periodic():
    g = FvGrid(-np.pi, np.pi, 200, boundary="periodic")
    s = GodunovSolver(flux.burgers(), idata.sin_wave(), g)
    for _ in range(300):
        a = s.max_speed()
        s.step(CFL * g.dx / a)
        assert abs(s.mass()) <= 1e-13


def test_compare_shock_offset():
    p = Problem(flux.burgers(), idata.step(1.0, 0.0))
    g = FvGrid(-1.0, 2.0, 400)
    r = compare(p, 1.0, g)
    assert r["shock_offset"] <= g.dx
    assert r["l1"] <= 0.1


def test_compare_rarefaction_linf():
    p = Problem(flux.burgers(), idata.step(-1.0, 1.0))
    g = FvGrid(-3.0, 3.0, 400)
    r = compare(p, 1.0, g)
    assert r["linf_smooth"] <= 5 * g.dx
    assert np.isnan(r["shock_offset"])


def test_convergence_sine():
    p = Problem(flux.burgers(), idata.sin_wave())
    errs = []
    for n in (100, 200, 400, 800):
        g = FvGrid(-np.pi, np.pi, n, boundary="periodic")
        errs.append(compare(p, 3.0, g)["l1"])
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # first-order scheme with a shock: at worst O(sqrt(dx)) in L1
    dxs = [2 * np.pi / n for n in (100, 200, 400, 800)]
    C = max(e / np.sqrt(dx) for e, dx in zip(errs, dxs))
    assert C < 2.0


def test_convergence_monotone_all_canonical():
    cases = [
        (flux.burgers(), idata.step(1.0, 0.0), FvGrid(-1.0, 2.0, 100), 1.0),
        (flux.burgers(), idata.step(-1.0, 1.0), FvGrid(-3.0, 3.0, 100), 1.0),
    ]
    for fl, d, g0, t in cases:
        p = Problem(fl, d)
        errs = [compare(p, t, FvGrid(g0.x_lo, g0.x_hi, n, boundary=g0.boundary))["l1"]
                for n in (100, 200, 400)]
        assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("lo, hi", [(0.0, 0.0), (1.0, 0.0), (np.nan, 1.0)])
def test_grid_rejects_empty_or_reversed_range(lo, hi):
    with pytest.raises(ValueError):
        FvGrid(lo, hi, 10)


@pytest.mark.parametrize("hi, t", [(1.0 + 1e-12, 1.0), (2.0, np.inf),
                                   (2.0, np.nan)])
def test_advance_rejects_endless_stepping(hi, t):
    # a 1e-12 wide grid needs about 1e13 steps to reach t = 1, and t = inf
    # never comes: both used to step for ever
    s = GodunovSolver(flux.burgers(), idata.sin_wave(), FvGrid(1.0, hi, 8))
    with pytest.raises(ValueError, match="time steps"):
        s.advance(t)
    assert s.t == 0.0


@pytest.mark.parametrize("k", [0.7, 1.0])
def test_compare_without_a_sonic_point(k):
    # f = e^(k u) has f' > 0 everywhere: no sonic point on the data range,
    # so the Godunov flux is the upwind one
    p = Problem(flux.exponential(k), idata.sin_wave())
    g = FvGrid(-np.pi, np.pi, 200, boundary="periodic")
    assert GodunovSolver(p.flux, p.data, g)._sonic is None
    r = compare(p, 1.5, g)
    assert r["l1"] <= 2.0 * np.sqrt(g.dx)
    assert r["shock_offset"] <= g.dx * (1.0 + 1e-9)


def test_compare_reads_the_u_plus_rows(monkeypatch):
    # compare reads u+ from the maximizer rows, with no solve_grid call and
    # no sample built, and its l1 is the one the samples give
    p = Problem(flux.burgers(), idata.sin_wave())
    g = FvGrid(-np.pi, np.pi, 100, boundary="periodic")
    s = GodunovSolver(p.flux, p.data, g)
    s.advance(1.5)
    exact = np.array([x.u_plus for x in p.solve_grid(g.centers(), 1.5)])
    l1 = float(np.sum(np.abs(s.u - exact)) * g.dx)

    def built(*args):
        raise AssertionError("built a sample")

    monkeypatch.setattr(GeneralProblem, "solve_grid", built)
    monkeypatch.setattr(GeneralProblem, "_sample", built)
    assert compare(p, 1.5, g)["l1"] == l1
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="t positive"):
            compare(p, t, g)


def test_advance_reads_the_speed_and_f_once_per_step():
    # advance takes the steps that step(dt) takes at the CFL limit of the
    # present speed, bit for bit, on the four grids of the benchmark's
    # compare(); each step reads f' once, for its speed, and f once, on
    # the state padded by its ghost cells (f at the sonic point is read
    # when the solver is built)
    calls = {"f": 0, "fp": 0}
    for fl in (flux.burgers(), flux.power2n(2)):
        def f(u, fl=fl):
            calls["f"] += 1
            return fl.eval(u)

        def fp(u, fl=fl):
            calls["fp"] += 1
            return fl.deriv(u)

        counted = flux.custom(f, fp, fl.second)
        periodic = FvGrid(-np.pi, np.pi, 100, boundary="periodic")
        cases = [(idata.sin_wave(), periodic)]
        if fl.kind == "burgers":
            cases += [(idata.step(1.0, 0.0), FvGrid(-1.0, 2.0, 100)),
                      (idata.step(-1.0, 1.0), FvGrid(-3.0, 3.0, 100))]
        for data, grid in cases:
            ref = GodunovSolver(fl, data, grid)
            steps = 0
            while ref.t < 1.5 - 1e-14:
                a = ref.max_speed()
                dt = CFL * grid.dx / a if a > 0 else 1.5 - ref.t
                ref.step(min(dt, 1.5 - ref.t))
                steps += 1
            s = GodunovSolver(counted, data, grid)
            calls.update(f=0, fp=0)
            u = s.advance(1.5)
            assert np.array_equal(u, ref.u) and s.t == ref.t
            # f' once more for the step cap, before the first step
            assert calls == {"f": steps, "fp": steps + 1}
