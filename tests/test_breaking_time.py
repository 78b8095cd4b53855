"""The breaking-time certificate t_one and the one-root kernel.

Below t_one = 1 / (sup f'' sup(-phi')_+) of data with no down-jump, psi
falls across the u-grid and E has one maximizer (Hopf 1950; Lax 1957).
Rows before t_one go to ``GeneralProblem._one_roots``, which must give the
scan's answer bit for bit wherever the scan returns one point; the scan
(``_maximize_block`` over the whole grid, one row) is the reference here,
and a dense scan of E the independent oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laxo import flux, initial_data as idata
from laxo import variational_core as vc
from laxo.variational_core import GeneralProblem, Problem, identity_pair

P = idata.Piece
_B = flux.burgers()


def _scan(p, x, t):
    """The scan's MaximizerSet: one row over the whole grid."""
    return p._maximize_block(np.array([x]), np.array([t]),
                             *p._whole).sets()[0]


def _one_point(ms):
    return ms.u_plus == ms.u_minus and len(ms.components) == 1


def _dense_top(p, x, t, n=2 ** 16):
    """The best of E(.; x, t) over n points of the u-grid's span."""
    u = np.linspace(p._s[0], p._s[-1], n)
    return float(p._E(p._W(x - t * p._H0), u, x, t).max())


# -- the certificate ----------------------------------------------------------

_T_ONE = {
    # sin and cos: sup(-phi') = |a b|
    "sin": (lambda: idata.sin_wave(a=-2.0, b=1.5), 1.0 / 3.0),
    "cos": (lambda: idata.InitialData(
        [P(-math.pi, math.pi, "cos", {"a": 0.5, "b": 2.0, "c": 0.3})],
        period=2.0 * math.pi), 1.0),
    # -phi' = 1 - x^2 on [-2, 2] peaks at its critical point 0, not at an end
    "poly": (lambda: idata.InitialData(
        [P(-2.0, 2.0, "poly", {"coeffs": [0.0, -1.0, 0.0, 1.0 / 3.0]})],
        left_tail=-2.0 / 3.0, right_tail=2.0 / 3.0), 1.0),
    "const": (lambda: idata.InitialData(
        [P(-1.0, 1.0, "const", {"c": 0.5})], left_tail=0.2, right_tail=0.9),
        math.inf),
    # -0.5 sgn(s) s^2 around x_ref = 0.25: -phi' = |s| peaks at s = -1.25
    "power_g2": (lambda: idata.InitialData(
        [P(-1.0, 1.0, "power", {"a": -0.5, "g": 2.0, "x_ref": 0.25})],
        left_tail=0.78125, right_tail=-0.28125), 0.8),
    # g < 1 and a < 0: -phi' is unbounded at x_ref, refused
    "power_g_half_falling": (lambda: idata.InitialData(
        [P(-1.0, 1.0, "power", {"a": -0.5, "g": 0.5, "x_ref": 0.0})],
        left_tail=0.5, right_tail=-0.5), 0.0),
    # g < 1 and a > 0: phi rises, steeply at x_ref
    "power_g_half_rising": (lambda: idata.InitialData(
        [P(-1.0, 1.0, "power", {"a": 0.5, "g": 0.5, "x_ref": 0.0})],
        left_tail=-0.5, right_tail=0.5), math.inf),
    # a g = 0 power piece steps at an x_ref on its end, where sgn(0) reads
    # b: -sgn(x) on [0, 1] steps down from the tail 0 at x = 0, and
    # -sgn(x - 1) reads 1 up to x = 1, then the tail 0.5
    "power_g0_step_at_lo": (lambda: idata.InitialData(
        [P(0.0, 1.0, "power", {"a": -1.0, "g": 0.0, "x_ref": 0.0})],
        left_tail=0.0, right_tail=-1.0), 0.0),
    "power_g0_step_at_hi": (lambda: idata.InitialData(
        [P(0.0, 1.0, "power", {"a": -1.0, "g": 0.0, "x_ref": 1.0})],
        left_tail=0.0, right_tail=0.5), 0.0),
    # up-steps at both ends: 0 -> 1 at x_ref = lo, then the tail 1
    "power_g0_rising_at_lo": (lambda: idata.InitialData(
        [P(0.0, 1.0, "power", {"a": 1.0, "g": 0.0, "x_ref": 0.0})],
        left_tail=0.0, right_tail=1.0), math.inf),
    "sampled_nondecreasing": (lambda: idata.SampledData(
        np.linspace(-2.0, 2.0, 9), np.array([-1.0, -1.0, -0.5, 0.0, 0.0,
                                             0.2, 0.5, 1.0, 1.0])),
        math.inf),
    "sampled_non_monotone": (lambda: idata.SampledData(
        np.linspace(-2.0, 2.0, 5), np.array([0.0, 0.5, 0.2, 0.7, 0.7])),
        0.0),
    # 0.1 x over one period jumps down at the seam
    "periodic_seam_jump": (lambda: idata.InitialData(
        [P(-math.pi, math.pi, "poly", {"coeffs": [0.0, 0.1]})],
        period=2.0 * math.pi), 0.0),
    "step_up": (lambda: idata.step(-1.0, 1.0), math.inf),
    "step_down": (lambda: idata.step(1.0, 0.0), 0.0),
    # a window of no pieces reads phi = 0 at its one point, which dips
    # below both tails here
    "step_up_positive": (lambda: idata.step(0.3, 0.5), 0.0),
}


@pytest.mark.parametrize("name", list(_T_ONE))
def test_t_one_per_piece_kind(name):
    make, want = _T_ONE[name]
    assert Problem(_B, make()).t_one == pytest.approx(want, rel=1e-12)


def test_power_step_at_a_piece_end_is_a_shock():
    # the down-step 0 -> -1 at x = 0 moves at speed -1/2 under Burgers: on
    # the shock the solve reads both sides, as the scan does, and the
    # breakpoints hold the step with its one-sided limits
    d = _T_ONE["power_g0_step_at_lo"][0]()
    y, left, right = d.breakpoints()
    assert (y.tolist(), left.tolist(), right.tolist()) == ([0.0], [0.0],
                                                           [-1.0])
    y, left, right = _T_ONE["power_g0_step_at_hi"][0]().breakpoints()
    assert (y.tolist(), left.tolist(), right.tolist()) == ([0.0, 1.0],
                                                           [0.0, 1.0],
                                                           [1.0, 0.5])
    p = Problem(_B, d)
    for x, t in ((-0.3, 0.6), (-0.5, 1.0)):
        s = p.solve(x, t)
        assert s.is_shock and s.u_plus == -1.0 and abs(s.u_minus) < 1e-9
        assert repr(s.maximizer) == repr(_scan(p, x, t))


def test_t_one_per_flux():
    # sup f'' on the u-grid is the larger of f'' at its two ends
    d = idata.sin_wave(a=-0.5)
    for fl in (_B, flux.power2n(2), flux.exponential(0.7)):
        p = Problem(fl, d)
        curv = max(float(fl.second(p._s[0])), float(fl.second(p._s[-1])))
        assert p.t_one == 1.0 / (0.5 * curv)
    assert Problem(flux.power2n(2), d).t_one == pytest.approx(
        1.0 / (1.5 * (0.5 + 1e-12 + 1e-6 * 1.5) ** 2), rel=1e-9)


def test_custom_fluxes_and_general_pairs_are_refused():
    twin = flux.custom(_B.eval, _B.deriv, _B.second)
    assert Problem(twin, idata.sin_wave()).t_one == 0.0
    assert GeneralProblem(identity_pair(_B), idata.sin_wave()).t_one == 0.0


def _kernel_rows(monkeypatch):
    """Record the row count of every call of the one-root kernel."""
    rows = []
    real = GeneralProblem._one_roots

    def spy(self, xs, *args):
        rows.append(len(xs))
        return real(self, xs, *args)

    monkeypatch.setattr(GeneralProblem, "_one_roots", spy)
    return rows


def test_rows_from_the_breaking_time_on_take_the_scan(monkeypatch):
    # t = t_one is not below it: Burgers/sine at t = 1 scans
    p = Problem(_B, idata.sin_wave())
    kernel = _kernel_rows(monkeypatch)
    p.solve(0.3, 1.0)
    p.solve_grid(np.linspace(-3.0, 3.0, 9), 1.5)
    assert kernel == []
    p.solve(0.3, np.nextafter(1.0, 0.0))
    assert kernel == [1]


# -- the kernel against the scan and a dense scan ----------------------------

_FLUXES = {"burgers": _B, "quartic": flux.power2n(2),
           "exponential": flux.exponential(0.7)}


@st.composite
def _certified_data(draw):
    """sin, poly, const, an up-step or nondecreasing sampled data, periodic
    or tailed; some have down-jumps (a periodic step or poly seam), which
    the certificate refuses."""
    kind = draw(st.sampled_from(["sin", "poly", "const", "step", "sampled"]))
    periodic = draw(st.booleans())
    amp = draw(st.floats(0.1, 1.5))
    if kind == "sampled":
        xs = np.linspace(-2.0, 2.0, draw(st.integers(3, 17)))
        us = np.sort(draw(st.lists(st.floats(-amp, amp), min_size=len(xs),
                                   max_size=len(xs))))
        if periodic:
            us[-1] = us[0]
        return idata.SampledData(xs, us, 4.0 if periodic else None)
    if kind == "sin":
        b = draw(st.sampled_from([1.0, 2.0]))
        pc = [P(-math.pi, math.pi, "sin", {"a": -amp, "b": b,
                                          "c": draw(st.floats(-3.0, 3.0))})]
    elif kind == "poly":
        cs = draw(st.lists(st.floats(-amp, amp), min_size=1, max_size=4))
        pc = [P(-1.0, 1.0, "poly", {"coeffs": cs})]
    elif kind == "const":
        pc = [P(-1.0, 1.0, "const", {"c": amp - 0.75})]
    else:
        lo = draw(st.floats(-amp, 0.0))
        pc = [P(-1.0, 0.0, "const", {"c": lo}),
              P(0.0, 1.0, "const", {"c": lo + amp})]
    if periodic:
        return idata.InitialData(pc, period=pc[-1].hi - pc[0].lo)
    # tails that continue the ends, so that only the pieces' own jumps
    # decide
    d = idata.InitialData(pc, left_tail=0.0, right_tail=0.0)
    return idata.InitialData(pc, left_tail=float(d.phi(pc[0].lo)),
                             right_tail=float(d.phi(pc[-1].hi)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_root_rows_equal_the_scan(data):
    # point solves, a slice and restart knots below t_one: each row that
    # the scan answers with one point gets that answer bit for bit, and
    # every row reaches a dense scan's best value within val_tol
    fl = _FLUXES[data.draw(st.sampled_from(sorted(_FLUXES)))]
    p = Problem(fl, data.draw(_certified_data()))
    frac = data.draw(st.floats(0.02, 0.98))
    t = frac * p.t_one if math.isfinite(p.t_one) else 5.0 * frac
    xs = np.sort(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=2,
                                    max_size=6, unique=True)))
    with pytest.MonkeyPatch.context() as mp:
        kernel = _kernel_rows(mp)
        if not p.t_one > 0.0:
            p.solve_grid(xs, 0.5)
            assert kernel == []
            return
        for x in xs.tolist():
            ms = p.maximize(x, t)
            assert _one_point(ms)
            assert ms.max_value >= _dense_top(p, x, t) - p.val_tol
            ref = _scan(p, x, t)
            if _one_point(ref):
                assert repr(ms) == repr(ref)
        assert [s.maximizer for s in p.solve_grid(xs, t)] \
            == [p.maximize(x, t) for x in xs.tolist()]
        tau = min(t, 2.0)
        knots = p.restart(tau).problem.data
    mids = 0.5 * (knots.xs[:-1] + knots.xs[1:])
    for k in range(0, 4096, 1024):
        ref = _scan(p, float(mids[k]), tau)
        if _one_point(ref):
            assert knots.us[k] == ref.u_plus
    # restart's knots come in one call and split in two halves
    assert kernel[2 * len(xs) + 1:] == [4096, 2048, 2048]


def test_bound_below_sup_phi_falls_back_to_the_scan():
    # a bound of 0.5 on -sin x: rows whose foot range reaches |phi| > 0.5
    # have psi > 0 at the top of the u-grid (or <= 0 at its bottom), so the
    # window's ends bracket no sign change and the scan answers them; the
    # others take the kernel.  Every row equals the scan
    d = idata.InitialData(
        [P(-math.pi, math.pi, "sin", {"a": -1.0, "b": 1.0, "c": 0.0})],
        period=2.0 * math.pi, bound=0.5)
    p = Problem(_B, d)
    assert p.t_one == 1.0
    xs = np.linspace(-3.0, 3.0, 25)
    ts = np.full(25, 0.5)
    n = len(p._s)
    one = p._one_roots(xs, ts, np.zeros(25, dtype=np.intp), np.full(25, n))
    assert 0 < np.count_nonzero(one.redo) < 25
    out = p._blocks(xs, ts, np.zeros(25, dtype=np.intp), np.full(25, n))
    assert repr(out.sets()) == repr([_scan(p, x, 0.5) for x in xs])


def test_rows_of_many_times_split_between_kernel_and_scan():
    # one _blocks call with times on both sides of t_one: each row is the
    # one-row _blocks answer at its own time
    p = Problem(_B, idata.sin_wave())
    xs = np.linspace(-3.0, 3.0, 12)
    ts = np.linspace(0.3, 2.5, 12)
    n = len(p._s)
    out = p._blocks(xs, ts, np.zeros(12, dtype=np.intp), np.full(12, n))
    assert repr(out.sets()) == repr([p.maximize(x, t) for x, t in
                                     zip(xs.tolist(), ts.tolist())])


# -- the kernel's work --------------------------------------------------------

def _reads(monkeypatch):
    """Record the shape of every psi read of the kernel's rounds."""
    reads = []
    real = GeneralProblem._psi_grid

    def spy(self, x, t, idx):
        reads.append(np.shape(idx))
        return real(self, x, t, idx)

    monkeypatch.setattr(GeneralProblem, "_psi_grid", spy)
    return reads


def test_fan_out_per_row_count():
    # 2 048 cells: two 46-way rounds for one row, 13-way for a slice of
    # 8-85 rows, binary for the 4 096 knots of restart
    assert [vc._fan_out(r, 2048) for r in (1, 8, 32, 85, 128, 4096)] \
        == [46, 46, 13, 13, 7, 2]


def test_kernel_reads_and_rounds(monkeypatch):
    # Burgers/sine at t = 0.5: the rounds' psi reads of a point solve, a
    # 32-point slice and restart's 4 096 knots, two halves of 2 048 whose
    # reads hold at most 2 048 * 5 values, within BLOCK_ELEMS; the last
    # read of each holds the carrier's three points, so no other psi read
    # of the grid runs
    p = Problem(_B, idata.sin_wave())
    reads = _reads(monkeypatch)
    for x in (-2.0, 0.3, 2.9):
        reads.clear()
        p.solve(x, 0.5)
        assert len(reads) == 2 and reads[0] == (1, 47)
        assert 47 <= reads[1][1] <= 49
    reads.clear()
    p.solve_grid(np.linspace(-3.0, 3.0, 32), 0.5)
    assert reads == [(32, 14), (32, 12), (32, 16)]
    reads.clear()
    p.restart(0.5)
    assert reads == ([(2048, 3)] + [(2048, 1)] * 9 + [(2048, 5)]) * 2
    assert max(r * c for r, c in reads) <= vc.BLOCK_ELEMS
