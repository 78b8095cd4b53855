import numpy as np
import pytest

from laxo import flux, global_structure, initial_data as idata
from laxo.characteristics import CharacteristicAnalyzer
from laxo.errors import HullInfinite, NoDivides
from laxo.global_structure import GlobalStructure, HullReport, _lower_hull
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
    # the root of phi next to the node -pi is no lower there, so the
    # contact is the node itself (golden sections read -pi - 1.8e-8)
    assert sin_gs.convex_hull().K0 == ((-np.pi, -np.pi),)


def _sawtooth():
    """Period 2: 0.4 + x on [-1, 1], a sawtooth of mean 0.4."""
    return idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.4, 1.0]})], period=2.0)


@pytest.mark.parametrize("data, x0", [
    (lambda: idata.sin_wave(c=0.5), np.pi - 0.5),
    (lambda: idata.sin_wave(-1.0, 2.0, 0.3), 0.5 * (np.pi - 0.3)),
    (lambda: _asym_sine(), -np.pi + np.arcsin(1.0 / (2.0 * np.pi))),
    (_sawtooth, 0.0)], ids=["shifted", "doubled", "asym", "sawtooth"])
def test_periodic_contact_is_the_root_of_phi_less_the_mean(data, x0):
    # where phi crosses the period mean m upward, Phi - m x is least: the
    # contact is that root, not a node near it
    h = GlobalStructure(Problem(flux.burgers(), data())).convex_hull()
    assert len(h.K0) == 1
    lo, hi = h.K0[0]
    assert lo == hi and abs(lo - x0) <= 1e-12


def test_hull_below_primitive(sin_gs, fan_gs):
    shifted = [GlobalStructure(Problem(flux.burgers(), d)) for d in (
        _sawtooth(), idata.sin_wave(c=0.5), idata.sin_wave(-1.0, 2.0, 0.3))]
    for gs in (sin_gs, fan_gs, *shifted):
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


@pytest.mark.parametrize("fl, data", [
    (flux.burgers(), idata.sin_wave), (flux.power2n(2), idata.sin_wave),
    (flux.burgers(), lambda: idata.sin_wave(c=0.5)),
    (flux.burgers(), lambda: idata.step(-1.0, 1.0))],
    ids=["burgers_sine", "quartic_sine", "burgers_sine_c", "burgers_fan"])
def test_divides_are_immortal_characteristics(fl, data):
    # the paper's part (ii): the characteristic from each divide x0 with
    # the envelope's slope c there never stops carrying c, and the
    # solution along it is c, with no shock
    p = Problem(fl, data())
    gs = GlobalStructure(p)
    ca = CharacteristicAnalyzer(p)
    divides = [r for r in gs.partition().regions if r.kind == "divide"]
    assert divides
    for r in divides:
        for x0 in sorted(set(r.interval)):
            c = gs.convex_hull().slopes_at(x0)[0]
            assert ca.lifespan_exact(x0, c) == np.inf
            for t in (5.0, 50.0):
                s = p.solve(x0 + t * float(fl.deriv(c)), t)
                assert not s.is_shock
                assert abs(s.u_plus - c) <= 1e-7


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
    t = 10.0   # the stationary shock of the odd profile sits at x = 0
    for x in (-2.0, -0.5, 0.5, 2.0):
        foot = -np.pi if x < 0 else np.pi
        assert sin_gs.nwave(x, t) == pytest.approx((x - foot) / t, abs=1e-6)


def test_nwave_matches_solution(sin_gs):
    t = 20.0
    for x in (-2.5, -1.0, 1.0, 2.5):
        s = sin_gs.problem.solve(x, t)
        assert sin_gs.nwave(x, t) == pytest.approx(s.u_plus, abs=2e-2)


def test_decay_rate_sup(sin_gs):
    e, c, series = sin_gs.measure_decay(
        "sup", (-np.pi, np.pi), [10.0, 20.0, 40.0, 80.0])
    assert e == pytest.approx(-1.0, abs=0.05)
    assert c <= np.pi * 1.1
    # sup |u| at time t is pi/(t+1) for the stationary sawtooth
    for t, v in series:
        assert v == pytest.approx(np.pi / (t + 1.0), abs=2e-2)


def test_decay_l1_nwave(sin_gs):
    e, c, series = sin_gs.measure_decay(
        "l1", (-3.0, 3.0), [10.0, 20.0, 40.0],
        target=lambda x, t: sin_gs.nwave(x, t))
    # closing the gap to the N-wave beats 1/t
    for t, v in series:
        assert v <= 1.0 / t


def test_decay_own_targets_are_one_array_call(sin_gs, monkeypatch):
    # the object's own nwave and profile_u_tilde are one array call per
    # time, each series the point calls' bit for bit; an unhashable
    # callable target (eq without hash) is called point by point
    ts, calls, refs = [10.0, 20.0], [], {}
    for name in ("_nwave", "_profile"):
        real = getattr(sin_gs, name)
        monkeypatch.setattr(sin_gs, name, lambda xs, t, name=name, real=real:
                            calls.append((name, len(xs))) or real(xs, t))
    for own, name in ((sin_gs.nwave, "_nwave"),
                      (sin_gs.profile_u_tilde, "_profile")):
        calls.clear()
        fit = sin_gs.measure_decay("l1", (-3.0, 3.0), ts, target=own)
        assert [c for c in calls if c[0] == name] == [(name, 801)] * 2
        calls.clear()
        refs[name] = sin_gs.measure_decay("l1", (-3.0, 3.0), ts,
                                          target=lambda x, t, f=own: f(x, t))
        assert fit == refs[name]
        assert [c for c in calls if c[0] == name] == [(name, 1)] * 1602

    class Target:
        __hash__ = None

        def __eq__(self, other):
            return isinstance(other, Target)

        def __call__(self, x, t):
            return sin_gs.nwave(x, t)

    calls.clear()
    assert sin_gs.measure_decay("l1", (-3.0, 3.0), ts, target=Target()) \
        == refs["_nwave"]
    assert [c for c in calls if c[0] == "_nwave"] == [("_nwave", 1)] * 1602


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
            gs.nwave(x, t)


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


@pytest.mark.parametrize("N", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_hull_rejects_non_finite_half_width(sin_gs, fan_gs, N):
    # numpy's arange used to raise its own "cannot compute length" for NaN
    # and "Maximum allowed size exceeded" for inf on tailed data
    for gs in (sin_gs, fan_gs):
        with pytest.raises(ValueError, match="half-width N must be finite"):
            gs.convex_hull(N)


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


def _nwave_point(gs, x, t):
    """The N-wave at one point as it was computed point by point before the
    array evaluation, gap by gap from ``partition``, kept as the
    reference."""
    hull, fl = gs.convex_hull(), gs.flux
    xq = x
    if hull.period is not None:
        shift = gs.data._tile(x - t * fl.deriv(hull.slope_left),
                              hull.K0[0][0])
        xq = x - shift * gs.data.period
    for r in gs.partition().regions:
        if r.kind != "gap":
            continue
        e, h = r.interval
        left = e + t * fl.deriv(r.speed)
        right = h + t * fl.deriv(r.speed)
        if left < xq < right:
            xn = 0.5 * (e + h) + t * fl.deriv(r.speed)
            return float(gs._fan(xq, e if xq < xn else h, t))
    return _profile_point(gs, x, t)


def _knots17(seed, periodic):
    """17 random knots on [-2, 2] (period 4, or tails 0)."""
    us = np.random.default_rng(seed).choice([-1.0, -0.5, 0.5, 1.0], 17)
    if periodic:
        us[-1] = us[0]
    else:
        us[0] = us[-1] = 0.0
    return idata.SampledData(np.linspace(-2.0, 2.0, 17), us,
                             period=4.0 if periodic else None)


def _minus_sin(w):
    """-sin x on [-w, w] between the tails 0."""
    return idata.InitialData([idata.Piece(-w, w, "sin", {"a": -1.0, "b": 1.0,
                                                          "c": 0.0})],
                             left_tail=0.0, right_tail=0.0)


def _asym_sine():
    """Period 2 pi: -sin x on [-pi, 0] and -0.5 sin x on [0, pi]."""
    return idata.InitialData(
        [idata.Piece(-np.pi, 0.0, "sin", {"a": -1.0, "b": 1.0, "c": 0.0}),
         idata.Piece(0.0, np.pi, "sin", {"a": -0.5, "b": 1.0, "c": 0.0})],
        period=2.0 * np.pi)


@pytest.mark.parametrize("fl", [flux.burgers(), flux.power2n(2),
                                _QUARTIC_CUSTOM],
                         ids=["burgers", "quartic", "custom"])
@pytest.mark.parametrize("data", [
    idata.sin_wave, _asym_sine, lambda: _minus_sin(2.0 * np.pi),
    lambda: idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, 1.0]})],
        left_tail=0.0, right_tail=0.0),
    lambda: _knots17(16, True), lambda: _knots17(54, False)],
    ids=["sine", "asym", "two_divides", "nwave", "knots_periodic",
         "knots_tailed"])
def test_array_nwave_equals_point_nwave(fl, data):
    # 301 points, each gap band's edges and shock, one ulp to each side of
    # them and, on periodic data, one period either way: one array call
    # against the gap-by-gap reference, and the public one-point call
    gs = GlobalStructure(Problem(fl, data()))
    gaps = [r for r in gs.partition().regions if r.kind == "gap"]
    assert gaps or gs.data.period is None
    shifts = (0.0,) if gs.data.period is None else (-gs.data.period, 0.0,
                                                     gs.data.period)
    for t in (0.7, 5.0, 40.0):
        edges = np.array([v + t * float(gs.flux.deriv(r.speed)) + k
                          for r in gaps for k in shifts
                          for v in (*r.interval, 0.5 * sum(r.interval))])
        xs = np.concatenate([np.linspace(-9.0, 9.0, 301), edges,
                             np.nextafter(edges, -np.inf),
                             np.nextafter(edges, np.inf)])
        ref = [_nwave_point(gs, x, t) for x in xs]
        assert gs._nwave(xs, t).tobytes() == np.array(ref).tobytes()
        assert [gs.nwave(x, t) for x in xs.tolist()] == ref


def test_nwave_reads_the_gap_table(monkeypatch):
    # the one-point and array N-waves build no partition and no Region,
    # and raise as the partition does
    gs = GlobalStructure(Problem(flux.burgers(), _minus_sin(2.0 * np.pi)))
    e, h, c = gs.convex_hull().gaps
    gaps = [r for r in gs.partition().regions if r.kind == "gap"]
    assert [((a, b), s) for a, b, s in zip(e.tolist(), h.tolist(),
                                           c.tolist())] == [
        (r.interval, r.speed) for r in gaps]

    def built(*args):
        raise AssertionError("built a partition or a Region")

    monkeypatch.setattr(GlobalStructure, "partition", built)
    monkeypatch.setattr(global_structure, "Region", built)
    # the gap (-pi, pi) stands still: right of its shock at 0 the fan
    # from pi
    assert gs.nwave(0.3, 5.0) == pytest.approx((0.3 - np.pi) / 5.0)
    assert gs.nwave(0.3, 5.0) == gs._nwave(np.array([0.3]), 5.0)[0]
    down = GlobalStructure(Problem(flux.burgers(), idata.step(1.0, 0.0)))
    with pytest.raises(HullInfinite):
        down.nwave(0.0, 1.0)
    with pytest.raises(HullInfinite):
        down._nwave(np.zeros(3), 1.0)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decay_rejects_non_finite_target(bad, monkeypatch):
    # a target of NaN gave (nan, nan, series) with no error
    p = Problem(flux.burgers(), idata.sin_wave())
    gs = GlobalStructure(p)

    def solved(*args):
        raise AssertionError("solved before the target was checked")

    monkeypatch.setattr(p, "_maximize_grid", solved)
    with pytest.raises(ValueError):
        gs.measure_decay("sup", (-3.0, 3.0), [2.0, 4.0],
                         target=lambda x, t: bad if x > 1.0 else 0.0)


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


@pytest.mark.parametrize("fl", [flux.burgers(), flux.power2n(2)],
                         ids=["burgers", "quartic"])
def test_two_divides_and_a_gap(fl):
    # -sin x on [-2 pi, 2 pi], tails 0: the primitive cos x - 1 touches its
    # envelope at -pi and pi only, so K0 is two divides, the gap between
    # them moves at the chord slope 0, and both sides run off to infinity.
    # The gap holds the standing shock at x = 0 for all time
    d = idata.InitialData(
        [idata.Piece(-2.0 * np.pi, 2.0 * np.pi, "sin",
                     {"a": -1.0, "b": 1.0, "c": 0.0})],
        left_tail=0.0, right_tail=0.0)
    gs = GlobalStructure(Problem(fl, d))
    regions = gs.partition().regions
    divides = [r.interval for r in regions if r.kind == "divide"]
    assert len(divides) == 2
    for (lo, hi), x0 in zip(divides, (-np.pi, np.pi)):
        assert abs(lo - x0) <= 1e-9 and abs(hi - x0) <= 1e-9
    gaps = [r for r in regions if r.kind == "gap"]
    assert len(gaps) == 1
    assert gaps[0].interval == (divides[0][1], divides[1][0])
    assert abs(gaps[0].speed) <= 1e-12
    kinds = [r.kind for r in regions]
    assert kinds.count("left_infinite") == kinds.count("right_infinite") == 1
    xs = np.linspace(-3.0, 3.0, 241)
    for t in (5.0, 20.0, 80.0):
        u = np.array([s.u_plus for s in gs.problem.solve_grid(xs, t)])
        k = int(np.argmin(np.diff(u)))
        assert -0.025 - 1e-12 <= xs[k] and xs[k + 1] <= 1e-12, (t, xs[k])


@pytest.mark.parametrize("periodic", [False, True],
                         ids=["tailed", "periodic"])
def test_hull_holds_every_contact_knot_of_sampled_data(periodic):
    # 300 random 17-knot sets: every knot where the (tilted) primitive sits
    # at its minimum is a divide.  Nodes on the h-grid alone left out 166
    # tailed and 8 periodic contact knots.  A periodic contact at a knot is
    # that knot exactly: golden sections put 42 of them 1 ulp off
    rng = np.random.default_rng(3)
    knots = np.linspace(-2.0, 2.0, 17)
    for _ in range(300):
        us = rng.choice([-1.0, -0.5, 0.5, 1.0], 17)
        if periodic:
            us[-1] = us[0]
        else:
            us[0] = us[-1] = 0.0
        d = idata.SampledData(knots, us, period=4.0 if periodic else None)
        h = GlobalStructure(Problem(flux.burgers(), d)).convex_hull()
        g = d.primitive(knots) - h.slope_left * knots
        for y in knots[g - g.min() <= 1e-12]:
            if periodic:
                assert any(z in comp for z in (y, y - 4.0)
                           for comp in h.K0), (us, y, h.K0)
            else:
                assert any(lo - 1e-9 <= y <= hi + 1e-9
                           for lo, hi in h.K0), (us, y, h.K0)


def test_restarted_divides_stay_at_odd_pi():
    # -sin x on [-2 pi, 2 pi], tails 0, restarted at t = 0.5: the divides
    # at +-pi carry their characteristics unchanged, so the restart's knots
    # keep them to within half a knot step (the h-grid alone put them
    # 0.0028 off, about three quarters of a step)
    d = idata.InitialData(
        [idata.Piece(-2.0 * np.pi, 2.0 * np.pi, "sin",
                     {"a": -1.0, "b": 1.0, "c": 0.0})],
        left_tail=0.0, right_tail=0.0)
    sd = Problem(flux.burgers(), d).restart(0.5).problem.data
    k0 = GlobalStructure(Problem(flux.burgers(), sd)).convex_hull().K0
    step = sd.xs[1] - sd.xs[0]
    assert len(k0) == 2
    for (lo, hi), x0 in zip(k0, (-np.pi, np.pi)):
        assert abs(lo - x0) <= 0.5 * step and abs(hi - x0) <= 0.5 * step


def test_power_jump_divide_is_its_reference_point():
    # 0.5 sgn(x - 0.3) on [-1, 1], tails 0: the primitive's kink at x_ref
    # is a node, so K0 is x_ref exactly (the h-grid gave 0.30000000000000115)
    d = idata.InitialData([idata.Piece(-1.0, 1.0, "power",
                                       {"a": 0.5, "g": 0.0, "x_ref": 0.3})],
                          left_tail=0.0, right_tail=0.0)
    assert GlobalStructure(Problem(flux.burgers(), d)).convex_hull().K0 == (
        (0.3, 0.3),)


def test_decay_rate_l2(sin_gs):
    # the sawtooth of height pi / t: its l2 norm decays like 1/t too
    e, c, series = sin_gs.measure_decay("l2", (-3.0, 3.0), [20.0, 40.0, 80.0])
    assert e == pytest.approx(-1.0, abs=0.05)
    assert [t for t, _ in series] == [20.0, 40.0, 80.0]
    assert all(v > 0.0 for _, v in series)


def _chord_draws():
    """Random 17- and 65-knot data, periodic and with tails s_l <= s_r,
    and sine pieces between tails s_l < s_r."""
    rng = np.random.default_rng(49)
    for n in (17, 65):
        for _ in range(40):
            us = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], n)
            knots = np.linspace(-2.0, 2.0, n)
            if rng.random() < 0.5:
                us[-1] = us[0]
                yield idata.SampledData(knots, us, period=4.0)
            else:
                us[[0, -1]] = np.sort(us[[0, -1]])
                yield idata.SampledData(knots, us)
    for _ in range(40):
        a, b, c = rng.uniform(0.2, 2.0), rng.uniform(1.0, 5.0), rng.uniform(
            -np.pi, np.pi)
        sl, sr = np.sort(rng.uniform(-1.0, 1.0, 2))
        yield idata.InitialData(
            [idata.Piece(-2.0, 2.0, "sin", {"a": a, "b": b, "c": c})],
            left_tail=sl, right_tail=sr)


def test_chord_filter_keeps_every_vertex():
    # the envelope's vertices are the lower hull of the nodes strictly
    # below the chord between the tangencies; a node on or above it is no
    # vertex, so the hull of every node between the tangencies is the same,
    # bit for bit
    for d in _chord_draws():
        h = HullReport(d, None)
        xs, ys = h.xs, d.primitive(h.xs)
        h._envelope(xs, ys)
        i = int(np.argmin(ys - h.slope_left * xs))
        j = len(xs) - 1 - int(np.argmin((ys - h.slope_right * xs)[::-1]))
        vx, vy = _lower_hull(xs[i:max(i, j) + 1], ys[i:max(i, j) + 1])
        assert h.vx.tobytes() == vx.tobytes() and h.vy.tobytes() == (
            vy.tobytes())
