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
from hypothesis import given, reject, settings, strategies as st

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


# -- the interval query of the hull certificate -------------------------------

@st.composite
def _slope_data(draw):
    """One to three pieces of every kind, power with g >= 1 and g < 1 among
    them, periodic or between random tails, so that piece ends, the seam
    and the window's ends may jump either way."""
    lo = draw(st.floats(-3.0, 0.0))
    ends = np.linspace(lo, lo + draw(st.floats(1.0, 5.0)),
                       draw(st.integers(1, 3)) + 1).tolist()
    value = st.floats(-1.5, 1.5)
    pieces = []
    for a, b in zip(ends[:-1], ends[1:]):
        kind = draw(st.sampled_from(["sin", "cos", "poly", "const", "power"]))
        if kind in ("sin", "cos"):
            q = {"a": draw(value), "b": draw(st.floats(0.5, 3.0)),
                 "c": draw(value)}
        elif kind == "poly":
            q = {"coeffs": draw(st.lists(value, min_size=1, max_size=4))}
        elif kind == "const":
            q = {"c": draw(value)}
        else:
            q = {"a": draw(value), "b": draw(value),
                 "x_ref": draw(st.floats(a - 0.5, b + 0.5)),
                 "g": draw(st.sampled_from([0.0, 0.3, 0.7, 1.0, 1.5, 2.0,
                                            3.0]))}
        pieces.append(P(a, b, kind, q))
    tails = ({"period": ends[-1] - ends[0]} if draw(st.booleans()) else
             {"left_tail": draw(value), "right_tail": draw(value)})
    try:
        return idata.InitialData(pieces, **tails)
    except ValueError:
        # the one refusal: a poly piece whose coefficients over its
        # leading one overflow, a subnormal after a 1, say
        assert any(p.kind == "poly" and _overflows(p.params["coeffs"])
                   for p in pieces)
        reject()


def _overflows(coeffs):
    """Whether coefficients of size at most 1.5 can overflow over the
    last nonzero one of degree 1 or more: it lies below 1.5 / max float."""
    cs = np.trim_zeros(np.asarray(coeffs[1:], dtype=float), "b")
    return len(cs) > 0 and abs(cs[-1]) < 1.5 / np.finfo(float).max


def _falls_at(d, y):
    """Whether phi, read from the left limit at y to its value there and on
    to the right limit, falls by more than 1e-12 of its size."""
    lo, hi, mid = d.phi_side(y, "left"), d.phi_side(y, "right"), d.phi(y)
    return max(lo, mid) - min(mid, hi) > 1e-12 * (1.0 + abs(lo) + abs(hi))


def _holds(d, a, b, y):
    """Whether [a, b] holds one of the points y, or on periodic data a
    point of y shifted by whole periods."""
    y = np.asarray(y, dtype=float)
    if d.period is not None:
        y = y + d.period * np.ceil((a - y) / d.period)
    return bool(np.count_nonzero((a <= y) & (y <= b)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_descent_on_bounds_every_finite_difference(data):
    # the bound is at least the largest of (-phi')_+ read as finite
    # differences on 2^16 cells of [a, b], which read phi's values at
    # breakpoints too, and +inf exactly where [a, b] holds a down-jump of
    # phi or a falling power point of g < 1, whose -phi' is unbounded
    # (read 1e-9 inside and outside [a, b], where the
    # shifts by whole periods round); intervals cross piece ends, the seam
    # and the window's ends, and some are a period long or longer
    d = data.draw(_slope_data())
    span = d.w_hi - d.w_lo
    a = data.draw(st.floats(d.w_lo - 0.25 * span, d.w_hi))
    b = a + span * data.draw(st.sampled_from([0.0, 1e-3, 0.1, 0.3, 0.6, 1.0,
                                              2.5]))
    bound = float(d._descent_on(np.array([[a], [b]]))[0])
    # phi jumps down where it falls from its left limit to its value, or
    # on to its right limit: at a piece end, or at a power piece's x_ref
    down = [y for y in [p.lo for p in d.pieces] + [d.w_hi]
            + [p.params["x_ref"] for p in d.pieces if p.kind == "power"]
            if _falls_at(d, y)]
    steep = [p.params["x_ref"] for p in d.pieces
             if p.kind == "power" and p.params["a"] < 0.0
             and 0.0 < p.params["g"] < 1.0
             and p.lo <= p.params["x_ref"] <= p.hi]
    y = np.array(down + steep)
    eps = 1e-9 * (1.0 + abs(a) + abs(b))
    if _holds(d, a + eps, b - eps, y):
        assert bound == math.inf
    if not _holds(d, a - eps, b + eps, y):
        assert bound < math.inf
        if b > a:
            ys = np.linspace(a, b, 2 ** 16 + 1)
            fd = -np.diff(d.phi(ys)) / (ys[1] - ys[0])
            assert fd.max() <= bound + 1e-6 * (1.0 + bound)


def test_descent_on_the_window_is_the_descent():
    # the query over the window, or a period, reads the sup that t_one
    # reads, inf where phi jumps down, for all data of the t_one table;
    # sampled data read inf where a knot steps down
    for make, t_one in _T_ONE.values():
        d = make()
        ab = np.array([[d.w_lo], [d.w_hi]])
        assert d._descent_on(ab)[0] == d._descent()
        assert (d._descent() == math.inf) == (t_one == 0.0)


def test_descent_on_sine_is_the_sup_of_cos():
    # -phi' = cos y on sin_wave(): the sup over [a, b] is 1 where [a, b]
    # holds a multiple of 2 pi, else the larger of cos a and cos b, 0 at
    # least; a period or more reads 1
    d = idata.sin_wave()
    rng = np.random.default_rng(5)
    a = rng.uniform(-20.0, 20.0, 400)
    b = a + rng.uniform(0.0, 8.0, 400)
    got = d._descent_on(np.array([a, b]))
    peak = np.floor(b / (2 * math.pi)) * 2 * math.pi >= a
    want = np.where(peak, 1.0, np.maximum(np.maximum(np.cos(a), np.cos(b)),
                                          0.0))
    assert np.max(np.abs(got - want)) <= 1e-12


def _rises_at(d, y):
    """Whether phi, read as ``_falls_at`` reads it, rises by more than
    1e-12 of its size."""
    lo, hi, mid = d.phi_side(y, "left"), d.phi_side(y, "right"), d.phi(y)
    return max(mid, hi) - min(lo, mid) > 1e-12 * (1.0 + abs(lo) + abs(hi))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ascent_bounds_every_finite_difference(data):
    # sup(phi')_+ over the line is at least the largest of (phi')_+ read
    # as finite differences on 2^16 cells across the window, its ends and
    # the seam, and +inf exactly where phi jumps up or a power point of
    # g < 1 rises without bound
    d = data.draw(_slope_data())
    up = [y for y in [p.lo for p in d.pieces] + [d.w_hi]
          + [p.params["x_ref"] for p in d.pieces if p.kind == "power"]
          if _rises_at(d, y)]
    steep = [p for p in d.pieces if p.kind == "power"
             and p.params["a"] > 0.0 and 0.0 < p.params["g"] < 1.0
             and p.lo <= p.params["x_ref"] <= p.hi]
    bound = d._ascent()
    assert (bound == math.inf) == bool(up or steep)
    if bound < math.inf:
        span = d.w_hi - d.w_lo
        ys = np.linspace(d.w_lo - 0.25 * span, d.w_hi + 0.25 * span,
                         2 ** 16 + 1)
        fd = np.diff(d.phi(ys)) / (ys[1] - ys[0])
        assert fd.max() <= bound + 1e-6 * (1.0 + bound)


def test_ascent_of_sine_and_sampled_data():
    # phi' = -a b cos(b x + c): sup(phi')_+ = |a b|; sampled data read 0,
    # or inf where a knot steps up; a step reads 0 down and inf up
    assert idata.sin_wave(a=-2.0, b=1.5)._ascent() == pytest.approx(3.0,
                                                                     1e-15)
    xs = np.linspace(-2.0, 2.0, 5)
    assert idata.SampledData(xs, -xs)._ascent() == 0.0
    assert idata.SampledData(xs, xs)._ascent() == math.inf
    assert idata.step(1.0, 0.0)._ascent() == 0.0
    assert idata.step(0.0, 1.0)._ascent() == math.inf


def test_sampled_steps_of_one_ulp_are_jumps():
    # sampled data test their knots exactly, not within piece data's
    # 1e-12: a step of one ulp down reads sup(-phi')_+ = inf, so t_one =
    # 0, and one up reads sup(phi')_+ = inf; periodic data step back at
    # the seam
    xs = np.linspace(0.0, 4.0, 5)
    b = math.nextafter(1.0, 0.0)
    for us, kw, fall, rise in (
            ([1.0, 1.0, b, b, b], {}, math.inf, 0.0),
            ([b, b, 1.0, 1.0, 1.0], {}, 0.0, math.inf),
            ([1.0, 1.0, b, b, 1.0], {"period": 4.0}, math.inf, math.inf),
            ([1.0] * 5, {}, 0.0, 0.0)):
        d = idata.SampledData(xs, np.array(us), **kw)
        assert (d._descent(), d._ascent()) == (fall, rise)
        assert d._descent_on(np.array([[0.0], [4.0]]))[0] == fall
        assert (Problem(_B, d).t_one == 0.0) == (fall == math.inf)


# -- the hull certificate after breaking --------------------------------------

def test_second_derivative_peaks_at_an_interval_end():
    # the hull certificate reads f'' at the two ends of a row's u-window:
    # f'' is constant (Burgers), even and convex (power2n) or monotone
    # (exponential), so its max on any interval is at an end
    rng = np.random.default_rng(3)
    ends = np.sort(rng.uniform(-2.0, 2.0, (2, 200)), axis=0)
    for fl in (_B, flux.power2n(2), flux.power2n(3), flux.exponential(0.7),
               flux.exponential(2.0)):
        for a, b in ends.T.tolist():
            inner = fl.second(np.linspace(a, b, 257)).max()
            assert inner <= max(fl.second(a), fl.second(b))


_NWAVE = idata.InitialData([P(-1.0, 1.0, "poly", {"coeffs": [0.0, 1.0]})],
                           left_tail=0.0, right_tail=0.0)
_HULL_PROBLEMS = {
    "burgers": lambda: Problem(_B, idata.sin_wave()),
    "quartic": lambda: Problem(flux.power2n(2), idata.sin_wave()),
    "exponential": lambda: Problem(flux.exponential(0.7), idata.sin_wave()),
    "nwave": lambda: Problem(_B, _NWAVE),
}
# (problem, lo, hi, points, t, route): slices after breaking whose every
# hull the certificate takes ("kernel"), slices with a row on the shock,
# whose hull holds both branches there ("shock"), and slices with rows near
# a shock that the certificate refuses ("scan")
_HULL_SLICES = [
    ("burgers", 0.3, 2.9, 100, 1.0, "kernel"),
    ("burgers", -3.0, 3.0, 32, 1.5, "kernel"),
    ("burgers", -2.9, -0.3, 9, 3.0, "kernel"),
    ("burgers", -1.5, 1.5, 9, 2.0, "shock"),
    ("burgers", -3.0, 3.0, 57, 2.6, "shock"),
    ("quartic", -3.0, 3.0, 9, 1.0, "kernel"),
    ("quartic", 0.3, 2.9, 32, 3.0, "kernel"),
    ("quartic", -1.5, 1.5, 57, 2.6, "shock"),
    ("exponential", -2.9, -0.3, 57, 1.3, "kernel"),
    ("exponential", -2.9, -0.3, 100, 2.6, "kernel"),
    ("exponential", -3.0, 3.0, 32, 1.12, "scan"),
    ("nwave", -3.0, 3.0, 9, 2.0, "kernel"),
    ("nwave", -1.5, 1.5, 100, 3.0, "kernel"),
    ("nwave", -1.0, 2.0, 57, 2.0, "scan"),
]


@pytest.mark.parametrize("case", _HULL_SLICES,
                         ids=lambda c: "-".join(map(str, c[:5])))
def test_certified_hulls_equal_the_point_solves(case):
    # solve_grid equals the point solves bit for bit, where every row's
    # coarse hull is certified and the one-root kernel answers it, and
    # where a row on or near a shock keeps the whole slice on the scan;
    # point solves take no coarse pass, so they scan
    name, lo, hi, m, t, route = case
    p = _HULL_PROBLEMS[name]()
    assert t >= p.t_one
    xs = np.linspace(lo, hi, m)
    hull = p._coarse(xs, t, 0, len(p._s))
    assert p._one_hull(xs, t, *hull) == (route == "kernel")
    got = p.solve_grid(xs, t)
    assert [repr(s) for s in got] == [repr(p.solve(x, t)) for x in xs]
    assert any(s.is_shock for s in got) == (route == "shock")


def test_sampled_data_custom_fluxes_and_general_pairs_opt_out():
    # no hull certificate for sampled data, a custom flux or a general
    # pair: the test answers before it reads the data
    xs, t = np.linspace(0.3, 2.9, 9), 1.5
    n = 2049
    start, width = np.zeros(9, dtype=np.intp), np.full(9, n)
    twin = flux.custom(_B.eval, _B.deriv, _B.second)
    for p in (Problem(twin, idata.sin_wave()),
              GeneralProblem(identity_pair(_B), idata.sin_wave()),
              Problem(_B, idata.sin_wave()).restart(0.5).problem):
        assert not p._one_hull(xs, t, start, width)
    # the named flux on the piece data takes the same window: the whole
    # grid's feet span a period, where -phi' reaches 1
    p = Problem(_B, idata.sin_wave())
    assert not p._one_hull(xs, t, start, width)
    assert p._one_hull(xs, t, *p._coarse(xs, t, 0, n))


# -- the second-order coarse pass ---------------------------------------------

def test_second_derivative_is_least_at_an_end_or_zero():
    # the coarse pass reads min f'' over a cell at its two ends, and at 0
    # where the cell holds it: f'' is constant, even and convex, or
    # monotone
    rng = np.random.default_rng(7)
    ends = np.sort(rng.uniform(-2.0, 2.0, (2, 200)), axis=0)
    for fl in (_B, flux.power2n(2), flux.power2n(3), flux.exponential(0.7)):
        for a, b in ends.T.tolist():
            least = min(fl.second(a), fl.second(b))
            if a < 0.0 < b:
                least = min(least, fl.second(0.0))
            assert fl.second(np.linspace(a, b, 257)).min() >= least


def _random_problem(rng):
    """One of Burgers, power2n(2) and exponential(0.7) on sine, poly,
    power or step data, at a time of 0.3 to 20."""
    fl = [_B, flux.power2n(2), flux.exponential(0.7)][rng.integers(3)]
    kind = ["sine", "poly", "power", "step"][rng.integers(4)]
    a = float(rng.uniform(0.3, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
    if kind == "sine":
        d = idata.sin_wave(a=a, b=float(rng.uniform(0.5, 2.0)))
    elif kind == "poly":
        c = rng.uniform(-1.0, 1.0, 4).tolist()
        d = idata.InitialData([P(-1.0, 1.0, "poly", {"coeffs": c})],
                              left_tail=float(sum(c[::2]) - sum(c[1::2])),
                              right_tail=float(sum(c)))
    elif kind == "power":
        g = float(rng.choice([0.5, 1.0, 2.0]))
        d = idata.InitialData([P(-1.0, 1.0, "power",
                                 {"a": a, "g": g, "x_ref": 0.0})],
                              left_tail=-a, right_tail=a)
    else:
        d = idata.step(a, float(rng.uniform(-1.0, 1.0)))
    return Problem(fl, d), float(np.exp(rng.uniform(np.log(0.3),
                                                    np.log(20.0))))


def _assert_hulls_hold_the_band(p, xs, t):
    """Each row's coarse hull holds every grid point of its whole window
    whose E reaches its best coarse value less 10 val_tol, the least its
    keep threshold and band can be, and solve_grid equals the point
    solves by repr."""
    (j,), (w,) = p._window(t)
    start, width = p._coarse(xs, t, int(j), int(w))
    H, I = p._Hs[j:j + w], p._Is[j:j + w]
    coarse = np.r_[0:w - 1:vc.COARSE_STEP, w - 1]
    for x, a, k in zip(xs, start - j, width):
        E = (p._W(x - t * p._H0) - p._W(x - t * H)) - t * I
        near = np.flatnonzero(E >= E[coarse].max() - 10.0 * p.val_tol)
        assert a <= near.min() and near.max() <= a + k - 1
    got = p.solve_grid(xs, t)
    assert [repr(s) for s in got] == [repr(p.solve(x, t)) for x in xs]


@pytest.mark.parametrize("seed", range(24))
def test_second_order_hulls_hold_the_band_on_random_problems(seed):
    rng = np.random.default_rng([seed, 53])
    p, t = _random_problem(rng)
    lo = float(rng.uniform(-3.0, 0.0))
    _assert_hulls_hold_the_band(
        p, np.linspace(lo, lo + float(rng.uniform(1.0, 4.0)), 9), t)


@pytest.mark.parametrize("t", [1.5, 2.0, 3.0, 5.0])
def test_second_order_hulls_hold_both_branches_near_the_shock(t):
    # Burgers/sine rows within 1e-5 to 1e-2 of the standing shock at x = 0,
    # where the far branch's cell reaches the best coarse value only by
    # the t^2 sup(phi')_+ part of the curvature bound
    p = _HULL_PROBLEMS["burgers"]()
    for w in (1e-2, 1e-3, 1e-4, 1e-5):
        _assert_hulls_hold_the_band(p, np.linspace(-w, w, 33), t)


@pytest.mark.parametrize("data", [idata.sin_wave(), idata.step(1.0, 0.0)],
                         ids=["sine", "shock"])
def test_second_order_hulls_are_half_as_wide(data):
    # on Burgers slices of 32 points at t = 1 to 3, the hulls hold at
    # most half the cells of the first-order bound's, read on the custom
    # twin of Burgers, which takes no second-order bound
    named = Problem(_B, data)
    twin = Problem(flux.custom(_B.eval, _B.deriv, _B.second), data)
    n = len(named._s)
    cells = {id(named): 0, id(twin): 0}
    for t in np.linspace(1.0, 3.0, 9):
        xs = np.linspace(-3.0, 3.0, 32)
        for p in (named, twin):
            cells[id(p)] += int((p._coarse(xs, t, 0, n)[1] - 1).sum())
    assert 2 * cells[id(named)] <= cells[id(twin)]
