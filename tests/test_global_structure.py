import numpy as np
import pytest

from laxo import flux, initial_data as idata
from laxo.errors import HullInfinite, NoDivides
from laxo.global_structure import GlobalStructure
from laxo.variational_core import Problem


@pytest.fixture(scope="module")
def sin_gs():
    return GlobalStructure(Problem(flux.burgers(), idata.sin_wave()))


@pytest.fixture(scope="module")
def fan_gs():
    return GlobalStructure(Problem(flux.burgers(), idata.step(-1.0, 1.0)))


def test_periodic_hull_is_min_line(sin_gs):
    h = sin_gs.convex_hull()
    assert h.value(0.0) == pytest.approx(-2.0, abs=1e-9)
    assert h.value(np.pi) == pytest.approx(-2.0, abs=1e-9)
    assert h.finite


def test_periodic_contact_set_at_odd_pi(sin_gs):
    h = sin_gs.convex_hull()
    assert len(h.K0) == 1
    lo, hi = h.K0[0]
    assert lo == pytest.approx(-np.pi, abs=1e-6)
    assert hi == pytest.approx(lo, abs=1e-6)


def test_hull_below_primitive(sin_gs, fan_gs):
    for gs in (sin_gs, fan_gs):
        h = gs.convex_hull()
        xs = np.linspace(-8.0, 8.0, 4001)
        assert np.all(gs.data.primitive(xs) - h.value(xs) >= -h.hull_tol)


def test_hull_idempotent(sin_gs):
    h = sin_gs.convex_hull()
    xs = np.linspace(-5.0, 5.0, 101)
    v1 = h.value(xs)
    # envelope of the envelope: recompute from its own values on a fine grid
    xs2 = np.linspace(-5.0, 5.0, 2001)
    v2 = np.interp(xs, xs2, h.value(xs2))
    assert np.max(np.abs(v1 - v2)) <= 1e-9


def test_divide_fan_periodic(sin_gs):
    f = sin_gs.divide_fan(np.pi)
    assert not f.empty
    assert f.lo == pytest.approx(0.0, abs=1e-6)
    assert f.hi == pytest.approx(0.0, abs=1e-6)
    assert sin_gs.divide_fan(0.0).empty


def test_divide_fan_full(fan_gs):
    h = fan_gs.convex_hull()
    assert h.K0 == ((0.0, 0.0),)
    assert h.left_unbounded and h.right_unbounded
    f = fan_gs.divide_fan(0.0)
    assert (f.lo, f.hi) == (-1.0, 1.0)


@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
def test_divide_fan_rejects_non_finite(sin_gs, fan_gs, x0):
    for gs in (sin_gs, fan_gs):
        with pytest.raises(ValueError):
            gs.divide_fan(x0)


def test_hull_infinite_for_downward_step():
    gs = GlobalStructure(Problem(flux.burgers(), idata.step(1.0, 0.0)))
    with pytest.raises(HullInfinite):
        gs.convex_hull()
    with pytest.raises(NoDivides):
        gs.partition()


def test_verify_divide(sin_gs, fan_gs):
    assert sin_gs.verify_divide(np.pi, 0.0, 50.0)
    assert not sin_gs.verify_divide(0.0, 0.0, 50.0)
    for c in (-1.0, -0.3, 0.0, 0.8, 1.0):
        assert fan_gs.verify_divide(0.0, c, 50.0)
    assert not fan_gs.verify_divide(0.0, 1.5, 50.0)


@pytest.mark.parametrize("x0, c, L", [
    (np.nan, 0.0, 1.0), (np.inf, 0.0, 1.0), (0.0, np.nan, 1.0),
    (0.0, -np.inf, 1.0), (0.0, 0.0, np.nan), (0.0, 0.0, np.inf)])
def test_verify_divide_rejects_non_finite(sin_gs, x0, c, L):
    # as divide_fan does, rather than a verdict of False
    with pytest.raises(ValueError):
        sin_gs.verify_divide(x0, c, L)


def test_partition_periodic(sin_gs):
    part = sin_gs.partition()
    kinds = [r.kind for r in part.regions]
    assert kinds.count("divide") == 1
    gaps = [r for r in part.regions if r.kind == "gap"]
    assert len(gaps) == 1
    e, h = gaps[0].interval
    assert e == pytest.approx(-np.pi, abs=1e-6)
    assert h == pytest.approx(np.pi, abs=1e-6)
    assert gaps[0].speed == pytest.approx(0.0, abs=1e-6)


def test_partition_infinite_sides():
    # odd dip: primitive has one interior minimum below both tails
    d = idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, 1.0]})],
        left_tail=0.0, right_tail=0.0)
    gs = GlobalStructure(Problem(flux.burgers(), d))
    part = gs.partition()
    kinds = sorted(r.kind for r in part.regions)
    assert "left_infinite" in kinds and "right_infinite" in kinds
    li = [r for r in part.regions if r.kind == "left_infinite"][0]
    assert li.speed == 0.0


def test_divide_constancy(sin_gs):
    # the solution along the divide line equals the fan value at all times
    for t in (0.5, 2.0, 8.0, 32.0, 64.0):
        s = sin_gs.problem.solve(np.pi, t)
        assert not s.is_shock
        assert s.u_plus == pytest.approx(0.0, abs=1e-6)


def test_profile_u_tilde_periodic(sin_gs):
    for x in (-2.0, 0.0, 1.3):
        assert sin_gs.profile_u_tilde(x, 7.0) == pytest.approx(0.0)


def test_profile_u_tilde_fan(fan_gs):
    t = 4.0
    # inside the fan the profile is the rarefaction, outside the constants
    assert fan_gs.profile_u_tilde(2.0, t) == pytest.approx(0.5, abs=1e-6)
    assert fan_gs.profile_u_tilde(-2.0, t) == pytest.approx(-0.5, abs=1e-6)
    assert fan_gs.profile_u_tilde(8.0, t) == pytest.approx(1.0, abs=1e-6)
    assert fan_gs.profile_u_tilde(-8.0, t) == pytest.approx(-1.0, abs=1e-6)


def test_profile_matches_solution_fan(fan_gs):
    # convex data never shocks, so the profile is the solution itself
    t = 3.0
    for x in np.linspace(-5.0, 5.0, 21):
        s = fan_gs.problem.solve(x, t)
        assert fan_gs.profile_u_tilde(x, t) == pytest.approx(s.u_plus, abs=1e-7)


def test_nwave_sawtooth(sin_gs):
    t = 10.0
    pos = {0: 0.0}   # the stationary shock of the odd profile
    for x in (-2.0, -0.5, 0.5, 2.0):
        foot = -np.pi if x < 0 else np.pi
        assert sin_gs.nwave(x, t, pos) == pytest.approx((x - foot) / t, abs=1e-6)


def test_nwave_matches_solution(sin_gs):
    t = 20.0
    pos = {0: 0.0}
    for x in (-2.5, -1.0, 1.0, 2.5):
        s = sin_gs.problem.solve(x, t)
        assert sin_gs.nwave(x, t, pos) == pytest.approx(s.u_plus, abs=2e-2)


def test_decay_rate_sup(sin_gs):
    e, c, series = sin_gs.measure_decay(
        "sup", (-np.pi, np.pi), [10.0, 20.0, 40.0, 80.0])
    assert e == pytest.approx(-1.0, abs=0.05)
    assert c <= np.pi * 1.1
    # sup |u| at time t is pi/(t+1) for the stationary sawtooth
    for t, v in series:
        assert v == pytest.approx(np.pi / (t + 1.0), abs=2e-2)


def test_decay_l1_nwave(sin_gs):
    pos = {0: 0.0}
    e, c, series = sin_gs.measure_decay(
        "l1", (-3.0, 3.0), [10.0, 20.0, 40.0],
        target=lambda x, t: sin_gs.nwave(x, t, pos))
    # closing the gap to the N-wave beats 1/t
    for t, v in series:
        assert v <= 1.0 / t


def test_decay_degenerate_flux():
    # quartic flux spreads mass cubically: sup-norm decays like t^{-1/3}
    gs = GlobalStructure(Problem(flux.power2n(2), idata.sin_wave()))
    e, c, series = gs.measure_decay(
        "sup", (-np.pi, np.pi), [20.0, 40.0, 80.0, 160.0])
    assert e == pytest.approx(-1.0 / 3.0, abs=0.05)


def _sin3():
    # sin 3x on [-2, 2] between the tails -1/2 and 1/2
    return idata.InitialData(
        [idata.Piece(-2.0, 2.0, "sin", {"a": 1.0, "b": 3.0, "c": 0.0})],
        left_tail=-0.5, right_tail=0.5)


@pytest.mark.parametrize("fl", [flux.burgers(), flux.power2n(2)],
                         ids=["burgers", "quartic"])
def test_profile_matches_envelope_solution(fl):
    # the profile is the entropy solution whose data is the envelope's
    # derivative: constant on each segment, the tail slopes outside
    gs = GlobalStructure(Problem(fl, _sin3()))
    h = gs.convex_hull()
    pieces = [idata.Piece(a, b, "const", {"c": c})
              for a, b, c in zip(h.vx, h.vx[1:], h.slopes[1:-1])]
    env = Problem(fl, idata.InitialData(
        pieces, left_tail=h.slope_left, right_tail=h.slope_right,
        window=(h.vx[0], h.vx[-1])))
    for t in (0.5, 3.0, 20.0):
        for x in np.linspace(-10.0, 10.0, 41):
            assert abs(gs.profile_u_tilde(x, t)
                       - env.solve(x, t).u_plus) <= 1e-9


def test_tailed_hull_one_node_per_breakpoint():
    d = _sin3()
    h = GlobalStructure(Problem(flux.burgers(), d)).convex_hull()
    grid_h = 1e-3 * (d.w_hi - d.w_lo)
    assert np.all(np.diff(h.vx) > 1e-9 * grid_h)
    assert np.all(np.diff(h.xs) > 1e-9 * grid_h)
    assert h.K0[-1] == (2.0, 2.0)


@pytest.mark.parametrize("x, t", [(np.nan, 1.0), (np.inf, 1.0),
                                  (0.0, np.nan), (0.0, np.inf),
                                  (0.0, 0.0), (0.0, -1.0)])
def test_profile_rejects_bad_point(sin_gs, fan_gs, x, t):
    for gs in (sin_gs, fan_gs):
        with pytest.raises(ValueError):
            gs.profile_u_tilde(x, t)
        with pytest.raises(ValueError):
            gs.nwave(x, t, {0: 0.0})


def test_windowed_hull_leaves_default_answers_alone():
    # convex_hull(N) builds its own report; the cached default one that
    # K0, the profile and the divide fans read must stay as it was
    d = idata.InitialData([idata.Piece(-2.0, 2.0, "sin",
                                       {"a": 1.0, "b": 3.0, "c": 0.0})],
                          left_tail=-0.5, right_tail=0.5)
    gs = GlobalStructure(Problem(flux.burgers(), d))
    before = (gs.convex_hull().K0, gs.profile_u_tilde(0.3, 5.0),
              gs.divide_fan(0.001))
    wide = gs.convex_hull(N=5.3)
    assert wide is not gs.convex_hull()
    assert (gs.convex_hull().K0, gs.profile_u_tilde(0.3, 5.0),
            gs.divide_fan(0.001)) == before


def test_decay_needs_two_distinct_times(sin_gs):
    # a line through one log-time is no fit: reject it before any solve
    for ts in ([10.0], [10.0, 10.0]):
        with pytest.raises(ValueError):
            sin_gs.measure_decay("sup", (-np.pi, np.pi), ts)


def test_hull_with_tail_slopes_a_rounding_apart():
    # tails 0 and -7e-138 pass the 1e-12 finiteness test although the
    # right one is lower: the envelope keeps one vertex instead of none
    d = idata.InitialData([idata.Piece(0.0, 1.0, "const", {"c": -4e-274})],
                          left_tail=0.0, right_tail=-7.5e-138)
    h = GlobalStructure(Problem(flux.burgers(), d)).convex_hull()
    assert h.finite and len(h.vx) == 1
    xs = np.linspace(-2.0, 3.0, 11)
    assert np.all(np.abs(d.primitive(xs) - h.value(xs)) <= h.hull_tol)


def _profile_point(gs, x, t):
    """The rarefaction-constant profile at one point, as it was computed
    point by point before the array evaluation, kept as the reference."""
    hull = gs.convex_hull()
    vx = hull.vx
    d = t * gs.flux.deriv(hull.slopes)
    j = int(np.searchsorted(vx + d[1:], x, side="right"))
    if j < len(vx) and x >= vx[j] + d[j]:
        fl = gs.flux
        M = gs.data.bound + 1.0
        v = min(max((x - vx[j]) / t, fl.deriv(-M)), fl.deriv(M))
        return float(fl.invert_deriv(v, (-M, M)))
    return float(hull.slopes[j])


_QUARTIC_CUSTOM = flux.custom(lambda u: np.asarray(u, dtype=float) ** 4 / 4.0,
                     lambda u: np.asarray(u, dtype=float) ** 3,
                     lambda u: 3.0 * np.asarray(u, dtype=float) ** 2)


@pytest.mark.parametrize("fl", [flux.burgers(), flux.power2n(2),
                                _QUARTIC_CUSTOM],
                         ids=["burgers", "quartic", "custom"])
@pytest.mark.parametrize("data", [
    lambda: idata.step(-1.0, 1.0),
    lambda: idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, 1.0]})],
        left_tail=0.0, right_tail=0.0),
    idata.sin_wave, _sin3], ids=["fan", "nwave", "periodic", "sin3"])
def test_array_profile_equals_point_profile(fl, data):
    # 801 points plus every vertex and every fan edge, in one array call,
    # against the point-by-point reference and the public scalar call
    gs = GlobalStructure(Problem(fl, data()))
    hull = gs.convex_hull()
    for t in (0.7, 5.0, 22.0):
        d = t * gs.flux.deriv(hull.slopes)
        xs = np.concatenate([np.linspace(-9.0, 9.0, 801), hull.vx,
                             hull.vx + d[:-1], hull.vx + d[1:]])
        ref = [_profile_point(gs, x, t) for x in xs]
        got = gs._profile(xs, t)
        assert got.tobytes() == np.array(ref).tobytes()
        assert [gs.profile_u_tilde(x, t) for x in xs.tolist()] == ref


@pytest.mark.parametrize("norm, region, ts", [
    ("l1", (6.5, -6.5), [11.0, 22.0]), ("l2", (6.5, -6.5), [11.0, 22.0]),
    ("sup", (1.0, 1.0), [11.0, 22.0]), ("sup", (np.nan, 1.0), [11.0, 22.0]),
    ("sup", (-np.inf, 1.0), [11.0, 22.0]), ("l1", (0.0, np.inf), [11.0, 22.0]),
    ("linf", (-6.5, 6.5), [11.0, 22.0]), ("sup", (-6.5, 6.5), [11.0, np.inf]),
    ("sup", (-6.5, 6.5), [11.0, -1.0])])
def test_decay_rejects_bad_input_before_any_solve(norm, region, ts,
                                                  monkeypatch):
    # a reversed region gave negative l1 norms and an l2 NaN, and an
    # unknown norm was caught only after the first solve
    p = Problem(flux.burgers(), idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, 1.0]})],
        left_tail=0.0, right_tail=0.0))
    gs = GlobalStructure(p)

    def solved(*args):
        raise AssertionError("solved before the input was checked")

    monkeypatch.setattr(p, "_maximize_grid", solved)
    with pytest.raises(ValueError):
        gs.measure_decay(norm, region, ts)


def test_decay_of_nwave_reads_the_u_plus_array():
    # u = x/(1 + t) on |x| < sqrt(1 + t), else 0, and the profile is 0:
    # the sup norm is 1/sqrt(1 + t), an exponent of about -1/2
    p = Problem(flux.burgers(), idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, 1.0]})],
        left_tail=0.0, right_tail=0.0))
    e, _, series = GlobalStructure(p).measure_decay("sup", (-6.5, 6.5),
                                                    [11.0, 22.0])
    ref = [1.0 / np.sqrt(1.0 + t) for t, _ in series]
    assert [v for _, v in series] == pytest.approx(ref, abs=2e-2)
    assert e == pytest.approx(np.log(ref[1] / ref[0]) / np.log(2.0), abs=0.05)
    xs = np.linspace(-6.5, 6.5, 801)
    assert series[0][1] == float(np.max(np.abs(np.array(
        [s.u_plus for s in p.solve_grid(xs, 11.0)]))))
