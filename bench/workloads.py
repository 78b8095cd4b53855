"""Seeded workloads of the laxo benchmark: inputs, operations and checks.

Every workload is a closed loop with one client.  ``ops(state, rng)`` draws
one round of public-API operations from
``numpy.random.default_rng([seed, workload.index])``; the runner repeats
that same round ``rounds(seconds)`` times, a count that depends only on the
run length and the workload's nominal ``round_s``.  Each operation is timed
on its own; its first output is checked against an independent reference
(closed forms computed here with numpy, the Godunov oracle, or a direct
solve) and every later output must repeat it byte for byte.  The tolerances
are the ones the repository's tests use for the same facts, never looser.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from laxo import flux, initial_data as idata
from laxo import reference_oracle
from laxo.characteristics import CharacteristicAnalyzer
from laxo.global_structure import GlobalStructure
from laxo.reference_oracle import FvGrid
from laxo.shock_analysis import ShockAnalyzer
from laxo.variational_core import Problem

# test_variational_core.py::test_riemann_shock_values
TOL_SHOCK = 1e-10
# test_variational_core.py::test_rarefaction_profile
TOL_FAN = 1e-9
# test_variational_core.py::test_characteristic_feet
TOL_FOOT = 1e-9
# test_acceptance.py::test_one_sided_steepening_bound
TOL_OLEINIK = 1e-8
# test_shock_analysis.py::test_track_riemann_shock / _stationary_sine_shock
TOL_TRACK_X = 1e-6
TOL_TRACK_U = 1e-8
TOL_TRACK_SYM = 1e-6
# test_characteristics.py::test_lifespan_exact_collision
TOL_LIFESPAN = 1e-6
# test_acceptance.py::test_semigroup_restart
TOL_SEMIGROUP = 1e-3
# test_global_structure.py::test_decay_rate_sup
TOL_SUP = 2e-2
# test_global_structure.py::test_decay_rate_sup
TOL_EXPONENT = 0.05
# test_reference_oracle.py: compare_shock_offset (l1 <= 0.1),
# compare_rarefaction_linf (5 dx), convergence_sine (l1 <= 2 sqrt(dx))
TOL_L1_SHOCK = 0.1
LINF_FAN_CELLS = 5.0
L1_SQRT_DX = 2.0

# the unit operation whose latency is reported runs on this case only, so
# that the latency follows one problem rather than the middle of a mix
LATENCY_CASE = "sine"

SLICE_POINTS = 32
# solve_grid slices per case and round; the random-knot sets get one each
SLICES = {"sine": 8, "quartic": 4, "shock": 4, "fan": 4}
SAMPLED_SETS = 4              # random data sets, so no one draw sets the cost
FV_CELLS = 100
# independent solves per case and round; the random-knot sets share theirs
SOLVES = {"sine": 40, "quartic": 10, "shock": 10, "fan": 10, "sampled": 10}
RESTART_KNOTS = 4097          # Problem.restart's default sampling
LATE_SLICES = 32
LATE_POINTS = 17
DECAY_POINTS = 801            # GlobalStructure.measure_decay's grid


@dataclass
class Op:
    """One timed operation of a round and how to judge its output."""
    tag: str
    fn: Callable                   # () -> output
    check: Callable                # output -> [(label, deviation, tolerance)]
    points: int = 0                # solution values the output holds
    latency: bool = False          # a sample of the unit-operation latency
    nodes: Callable = None         # output -> shock-curve nodes returned


@dataclass
class Case:
    """A problem plus the closed-form facts the benchmark knows about it."""
    name: str
    problem: Problem
    fprime: object                 # numpy f', independent of laxo.flux
    exact: object = None           # (xs, t) -> (u_minus, u_plus) arrays
    phi: object = None             # numpy phi for the foot equation
    grid: FvGrid = None            # Godunov grid for compare()


def _shock_exact(xs, t):
    # step(1, 0) under Burgers: one shock on x = t/2, u- = 1 and u+ = 0 on it
    xs = np.asarray(xs, dtype=float)
    um = np.where(xs <= 0.5 * t, 1.0, 0.0)
    up = np.where(xs < 0.5 * t, 1.0, 0.0)
    return um, up


def _fan_exact(xs, t):
    u = np.clip(np.asarray(xs, dtype=float) / t, -1.0, 1.0)
    return u, u


def _neg_sin(y):
    return -np.sin(y)


def sampled_data(rng):
    """Random 17-knot data with zero tails, as in test_l1_contraction."""
    us = rng.uniform(-1.0, 1.0, 17)
    us[0] = us[-1] = 0.0
    return idata.SampledData(np.linspace(-2.0, 2.0, 17), us)


def strata(rng, lo, hi, n, m=None):
    """Stratified draws on [lo, hi]: row k lies in the k-th of n equal parts.

    A round's cost then hangs little on the seed, while every seed still
    draws its own values.
    """
    shape = (n,) if m is None else (n, m)
    k = np.arange(n).reshape((n,) + (1,) * (len(shape) - 1))
    return lo + (hi - lo) * (k + rng.uniform(0.0, 1.0, shape)) / n


def build_cases(seed):
    """The four fixed problems, then SAMPLED_SETS random-knot problems."""
    b, q = flux.burgers(), flux.power2n(2)
    rng = np.random.default_rng([seed, 1000])
    periodic = FvGrid(-math.pi, math.pi, FV_CELLS, boundary="periodic")
    return [
        Case("sine", Problem(b, idata.sin_wave()), lambda u: u,
             phi=_neg_sin, grid=periodic),
        Case("quartic", Problem(q, idata.sin_wave()), lambda u: u ** 3,
             grid=periodic),
        Case("shock", Problem(b, idata.step(1.0, 0.0)), lambda u: u,
             exact=_shock_exact, grid=FvGrid(-1.0, 2.0, FV_CELLS)),
        Case("fan", Problem(b, idata.step(-1.0, 1.0)), lambda u: u,
             exact=_fan_exact, grid=FvGrid(-3.0, 3.0, FV_CELLS)),
    ] + [Case("sampled", Problem(b, sampled_data(rng)), lambda u: u)
         for _ in range(SAMPLED_SETS)]


# -- checks: each returns [(label, deviation, tolerance)] -------------------

def _traces(sols):
    um = np.array([s.u_minus for s in sols])
    up = np.array([s.u_plus for s in sols])
    return um, up


def point_checks(case, xs, t, um, up):
    out = [("order", float(np.max(up - um)), 0.0)]
    if case.exact is not None:
        em, ep = case.exact(xs, t)
        tol = TOL_SHOCK if case.name == "shock" else TOL_FAN
        out.append((f"{case.name}_exact",
                    float(max(np.max(np.abs(um - em)), np.max(np.abs(up - ep)))),
                    tol))
    if case.phi is not None:
        xs = np.asarray(xs, dtype=float)
        dev = max(np.max(np.abs(case.phi(xs - t * case.fprime(u)) - u))
                  for u in (um, up))
        out.append(("foot", float(dev), TOL_FOOT))
    return out


def oleinik(fprime, xs, t, um, up):
    """One-sided bound f'(u+(x2)) - f'(u-(x1)) <= (x2 - x1)/t on neighbours."""
    lhs = fprime(up[1:]) - fprime(um[:-1])
    return ("oleinik", float(np.max(lhs - np.diff(xs) / t)), TOL_OLEINIK)


def slice_checks(case, xs, t, sols):
    um, up = _traces(sols)
    return point_checks(case, xs, t, um, up) + [
        oleinik(case.fprime, xs, t, um, up)]


def compare_checks(case, r):
    dx = case.grid.dx
    out = []
    # compare() takes the offset between two cell midpoints, so an offset of
    # exactly one cell can read a few ulps above dx: count it in cells
    cells = round(r["shock_offset"] / dx, 9)
    if case.name == "shock":
        out += [("fv_l1", r["l1"], TOL_L1_SHOCK),
                ("fv_offset_cells", cells, 1.0)]
    elif case.name == "fan":
        out += [("fv_linf", r["linf_smooth"], LINF_FAN_CELLS * dx),
                ("fv_offset_nan", 0.0 if math.isnan(r["shock_offset"]) else 1.0,
                 0.0)]
    else:
        out.append(("fv_l1", r["l1"], L1_SQRT_DX * math.sqrt(dx)))
        if case.name == "sine":
            out.append(("fv_offset_cells", cells, 1.0))
    return out


# -- workloads --------------------------------------------------------------

def shuffled(ops, rng):
    """The round's operations in a seeded order.

    Each operation's time is scaled by the host-speed probes taken near it,
    so operations of one case must not all fall in one short stretch.
    """
    return [ops[k] for k in rng.permutation(len(ops))]


class Workload:
    name = ""
    index = 0
    round_s = 1.0                 # nominal scaled round time, checks apart

    def rounds(self, seconds):
        """Rounds per run: fixed by the run length, not by the program's speed."""
        return max(1, math.ceil(seconds / self.round_s))


class SliceWorkload(Workload):
    """Whole-slice throughput: seeded solve_grid calls plus Godunov compares."""

    name = "slice"
    index = 0
    round_s = 2.0

    def setup(self, seed):
        return {"cases": build_cases(seed)}

    def ops(self, st, rng):
        cases = st["cases"]
        plan = [(c, SLICES[c.name]) for c in cases[:4]] + [
            (c, 1) for c in cases[4:]]
        ops = []
        for case, n in plan:
            for t in strata(rng, 0.5, 3.0, n):
                t = float(t)
                lo = float(rng.uniform(-3.5, -2.5))
                xs = np.linspace(lo, lo + 6.0, SLICE_POINTS)
                ops.append(Op(
                    case.name,
                    lambda p=case.problem, xs=xs, t=t: p.solve_grid(xs, t),
                    lambda out, c=case, xs=xs, t=t: slice_checks(c, xs, t, out),
                    points=len(xs), latency=case.name == LATENCY_CASE))
        for case in cases:
            if case.grid is None:
                continue
            t = float(rng.uniform(1.4, 1.6))
            ops.append(Op(
                "compare",
                lambda c=case, t=t: reference_oracle.compare(c.problem, t,
                                                             c.grid),
                lambda r, c=case: compare_checks(c, r)))
        return shuffled(ops, rng)


class PointwiseWorkload(Workload):
    """Independent solves, then chains whose next solve needs the last one."""

    name = "pointwise"
    index = 1
    round_s = 1.25

    def setup(self, seed):
        cases = build_cases(seed)
        by = {c.name: c for c in cases}
        b = flux.burgers()
        return {
            "cases": cases,
            "shock_sa": ShockAnalyzer(by["shock"].problem),
            "sine_sa": ShockAnalyzer(by["sine"].problem),
            "phase_sa": ShockAnalyzer(Problem(b, idata.sin_wave(c=0.5))),
            "chars": CharacteristicAnalyzer(by["sine"].problem),
        }

    def ops(self, st, rng):
        cases = st["cases"]
        ops = []
        for name, n in SOLVES.items():
            pool = [c for c in cases if c.name == name]
            for k, t in enumerate(strata(rng, 0.2, 3.0, n)):
                case, t = pool[k % len(pool)], float(t)
                x = float(rng.uniform(-3.0, 3.0))
                ops.append(Op(
                    name, lambda p=case.problem, x=x, t=t: p.solve(x, t),
                    lambda s, c=case, x=x, t=t: point_checks(
                        c, [x], t, *_traces([s])),
                    points=1, latency=name == LATENCY_CASE))

        def n_nodes(curve):
            return len(curve.nodes)

        # step(1, 0): the shock runs on x = t/2 at RH speed 1/2
        t0 = float(rng.uniform(0.5, 1.5))
        ops.append(Op("track", lambda t0=t0: st["shock_sa"].track_forward(
            0.5 * t0, t0, t0 + 0.2, 0.05), _check_step_track, nodes=n_nodes))
        # -sin(x + 0.5): the standing shock sits on x = -0.5 with u- = -u+
        t0 = float(rng.uniform(1.5, 2.5))
        ops.append(Op("track", lambda t0=t0: st["phase_sa"].track_forward(
            -0.5, t0, t0 + 0.15, 0.05), _check_phase_track, nodes=n_nodes))

        # on -sin x the characteristic from x0 runs into the standing shock
        # at x = 0, so its exact lifespan is x0 / sin(x0)
        x0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.5))
        ops.append(Op(
            "lifespan",
            lambda: st["chars"].lifespan_exact(x0, -math.sin(x0)),
            lambda ts: [("lifespan", abs(ts - x0 / math.sin(x0)),
                         TOL_LIFESPAN)]))

        t = float(rng.uniform(0.5, 2.0))
        d = float(rng.uniform(0.1, 0.4)) * t
        t_late = float(rng.uniform(1.5, 3.0))
        xs_early = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.5))
        t_early = float(rng.uniform(0.2, 0.8))
        for sa, x, tq, kind in (
                (st["shock_sa"], 0.5 * t, t, "single_shock_point"),
                (st["shock_sa"], 0.5 * t - d, t, "interior_characteristic"),
                (st["sine_sa"], 0.0, t_late, "single_shock_point"),
                (st["sine_sa"], xs_early, t_early, "interior_characteristic")):
            ops.append(Op(
                "classify", lambda sa=sa, x=x, tq=tq: sa.classify_point(x, tq),
                lambda pc, kind=kind: [("classify",
                                        0.0 if pc.kind == kind else 1.0, 0.0)]))
        return shuffled(ops, rng)


def _check_step_track(curve):
    xs, ts = curve.positions(), curve.times()
    um = np.array([n.u_minus for n in curve.nodes])
    up = np.array([n.u_plus for n in curve.nodes])
    sp = np.array([n.speed_right for n in curve.nodes])
    return [("track_x", float(np.max(np.abs(xs - 0.5 * ts))), TOL_TRACK_X),
            ("track_u", float(max(np.max(np.abs(um - 1.0)),
                                  np.max(np.abs(up)))), TOL_TRACK_U),
            ("track_rh", float(np.max(np.abs(sp - 0.5))), TOL_TRACK_U)]


def _check_phase_track(curve):
    um = np.array([n.u_minus for n in curve.nodes])
    up = np.array([n.u_plus for n in curve.nodes])
    return [("track_x", float(np.max(np.abs(curve.positions() + 0.5))),
             TOL_TRACK_X),
            ("track_sym", float(np.max(np.abs(um + up))), TOL_TRACK_SYM)]


class LongtimeWorkload(Workload):
    """Restart on 4097 knots, late slices and a decay measurement."""

    name = "longtime"
    index = 2
    round_s = 14.0

    def setup(self, seed):
        b = flux.burgers()
        nwave = Problem(b, idata.InitialData(
            [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, 1.0]})],
            left_tail=0.0, right_tail=0.0))
        st = {"sine": Problem(b, idata.sin_wave()),
              "nwave_gs": GlobalStructure(nwave)}
        st["nwave_gs"].convex_hull()
        return st

    def ops(self, st, rng):
        sine = st["sine"]
        tau = float(rng.uniform(0.4, 0.6))
        # the late slices read the problem this round's restart returned
        last = {}

        def restart():
            last["rp"] = None
            last["rp"] = sine.restart(tau)
            return last["rp"]

        late = []
        for t in strata(rng, 10.0, 20.0, LATE_SLICES):
            t = float(t)
            xs = (np.linspace(-math.pi, math.pi, LATE_POINTS)
                  + rng.uniform(-0.25, 0.25) * 2.0 * math.pi / (LATE_POINTS - 1))
            late.append(Op(
                "late", lambda xs=xs, t=t: last["rp"].solve_grid(xs, t),
                lambda out, xs=xs, t=t: _check_late(sine, xs, t, out),
                points=len(xs), latency=True))
        L = float(rng.uniform(6.0, 7.0))
        t1 = float(rng.uniform(10.0, 12.0))
        decay = Op("decay", lambda: st["nwave_gs"].measure_decay(
            "sup", (-L, L), [t1, 2.0 * t1]), _check_nwave_decay,
            points=2 * DECAY_POINTS)
        # half the late slices run before the decay and half after it, so
        # that the latency samples catch the host at more than one moment
        return ([Op("restart", restart, lambda r: _check_restart(r, tau),
                    points=RESTART_KNOTS - 1)]
                + late[0::2] + [decay] + late[1::2])


def _check_restart(rp, tau):
    # before t = 1 the solution of -sin x is smooth: u = -sin(x - tau u)
    d = rp.problem.data
    mids = 0.5 * (d.xs[:-1] + d.xs[1:])
    us = d.us[:-1]
    return [("restart_knots", float(abs(len(d.xs) - RESTART_KNOTS)), 0.0),
            ("foot", float(np.max(np.abs(-np.sin(mids - tau * us) - us))),
             TOL_FOOT)]


def _check_late(sine, xs, t, sols):
    um, up = _traces(sols)
    sup = float(np.max(np.maximum(np.abs(um), np.abs(up))))
    far = np.abs(xs) > 0.05        # the standing shock sits on x = 0
    ref = np.array([sine.solve(x, t).u_plus for x in xs[far]])
    return [("order", float(np.max(up - um)), 0.0),
            oleinik(lambda u: u, xs, t, um, up),
            ("sup_norm", abs(sup - math.pi / (t + 1.0)), TOL_SUP),
            ("semigroup", float(np.max(np.abs(up[far] - ref))), TOL_SEMIGROUP)]


def _check_nwave_decay(r):
    # u = x/(1+t) on |x| < sqrt(1+t), else 0; the envelope profile is 0
    _, _, series = r
    ts = np.array([t for t, _ in series])
    vs = np.array([v for _, v in series])
    ref = 1.0 / np.sqrt(1.0 + ts)
    slope = math.log(ref[1] / ref[0]) / math.log(ts[1] / ts[0])
    return [("sup_norm", float(np.max(np.abs(vs - ref))), TOL_SUP),
            ("decay_exponent", abs(r[0] - slope), TOL_EXPONENT)]


WORKLOADS = {w.name: w for w in (SliceWorkload(), PointwiseWorkload(),
                                 LongtimeWorkload())}
