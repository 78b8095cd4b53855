"""Shock formation, development asymptotics, and shock-set structure.

Covers: location and case tags of continuous shock generation points; the
local power laws the shock obeys just after generation (exponents and
leading constants); forward tracking of shock curves by locating the jump
of the variational maximizer; backward-triangle decompositions; directional
limits at shock points; and the five-way classification of points on the
shock set.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from ._search import bisect
from .characteristics import CharacteristicAnalyzer, phi_l
from .errors import ConditionFailed, LostCurve, RootNotBracketed


@dataclass(frozen=True)
class GenerationPoint:
    x_p: float
    t_p: float
    source_x0: float
    speed_c: float
    case: str        # I | II_a_eq_c | II_a_lt_c | III_b_eq_c | III_b_gt_c
    c: float = 0.0


@dataclass(frozen=True)
class DevelopmentAsymptotics:
    case: str
    exponent_curve: float     # shock offset power of (t - t_p)
    coeff_curve: float        # signed leading coefficient
    exponent_u: float         # Hoelder power of u - c near the point
    Q_plus: float = 1.0
    Q_minus: float = 1.0
    lambda0: float = 1.0
    lambda1: float = 1.0
    O4: float = None


@dataclass(frozen=True)
class ShockNode:
    t: float
    x: float
    u_minus: float
    u_plus: float
    speed_right: float
    speed_left: float


@dataclass
class ShockCurve:
    origin: tuple
    nodes: list = field(default_factory=list)

    def positions(self):
        return np.array([n.x for n in self.nodes])

    def times(self):
        return np.array([n.t for n in self.nodes])


@dataclass(frozen=True)
class TriangleDecomposition:
    apex: tuple
    interval: tuple                 # [u_plus, u_minus]
    rarefactions: tuple             # interval components I_m of the maximizer
    gaps: tuple                     # gap components J_n of the complement


@dataclass(frozen=True)
class DirectionalLimits:
    left: float
    right: float
    gaps: tuple
    gap_limits: tuple               # per gap: estimated (d_n, c_n)


@dataclass(frozen=True)
class PointClass:
    kind: str
    # single_shock_point carries regular/irregular; collisions carry count
    detail: object = None


class ShockAnalyzer:
    """Shock-set queries bound to a problem."""

    def __init__(self, problem):
        self.problem = problem
        self.flux = problem.flux
        self.data = problem.data
        self.chars = CharacteristicAnalyzer(problem)

    # -- generation --------------------------------------------------------

    def generation_point(self, x0, c):
        tm, tp = self.chars.lifespan_upper(x0, c)
        t_p = min(tm, tp)
        if not np.isfinite(t_p):
            return None
        self._check_uniqueness(x0, c, t_p)
        a = self.data.phi_side(x0, "left")
        b = self.data.phi_side(x0, "right")
        if abs(tm - tp) <= 1e-9 * (1.0 + t_p):
            case = "I"
        elif tp < tm:       # the right data side compresses first
            case = "II_a_eq_c" if abs(a - c) <= 1e-12 else "II_a_lt_c"
        else:
            case = "III_b_eq_c" if abs(b - c) <= 1e-12 else "III_b_gt_c"
        return GenerationPoint(x0 + t_p * self.flux.deriv(c), t_p, x0,
                               float(self.flux.deriv(c)), case, float(c))

    def _check_uniqueness(self, x0, c, t_p):
        """Strict inequality Phi(l) > (rho(u(l), c) - c) l on a lattice.

        Only scales where the expected margin clears double-precision noise
        are tested.
        """
        ls = np.concatenate([0.1 * 2.0 ** -np.arange(7.0),
                             [0.2, 0.4, 0.8, 1.6]])
        for l in np.concatenate([-ls, ls]):
            try:
                u = self.flux.invert_deriv(self.flux.deriv(c) - l / t_p)
            except Exception:
                continue        # beyond the flux range: no constraint
            lhs = phi_l(self.data, l, x0, c)
            rhs = (self.flux.rho(u, c) - c) * l
            if lhs <= rhs + 1e-14 * (1.0 + abs(lhs) + abs(rhs)):
                raise ConditionFailed(
                    f"generation uniqueness fails at l={l:g}")

    # -- development asymptotics ------------------------------------------

    def development_asymptotics(self, gp, inputs):
        """Local power laws after generation from analytic expansion inputs.

        ``inputs`` carries the expansion constants of f'(phi) around the
        source point: gamma, sigma, Cbar_sigma_plus/minus for Case I (plus
        rho, Cbar_rho when the sigma constants coincide); gamma, sigma,
        Cbar_sigma for Cases II/III.
        """
        if gp.case == "I":
            return self._case1(gp, inputs)
        return self._case23(gp, inputs)

    def _case1(self, gp, inputs):
        g = float(inputs["gamma"])
        s = float(inputs["sigma"])
        csp = float(inputs["Cbar_sigma_plus"])
        csm = float(inputs["Cbar_sigma_minus"])
        if csp <= 0 or csm <= 0:
            raise ConditionFailed("sigma-constants must be positive")
        cg = 1.0 / gp.t_p
        lam0 = csp / csm
        if abs(lam0 - 1.0) <= 1e-12:
            r = float(inputs["rho"])
            cr = float(inputs["Cbar_rho"])
            O2 = (((1 + g) * (1 - g) + s)
                  / ((1 + g) * (1 - g) + s * (2 + s))
                  * abs(cr) / cg
                  * (cg * cg / csp) ** ((1 + s + r) / s))
            return DevelopmentAsymptotics(
                "I", (1 + s + r) / s, float(np.sign(cr)) * O2,
                g / (1 + s), 1.0, 1.0, 1.0, 1.0)
        lam1 = self._solve_lambda(g, s, lam0)
        k = g * s / ((1 + g) * (1 + s))
        tail = (1 + g + s) / ((1 + g) * (1 + s))
        Qp = k * lam1 ** g * (1 + lam1) / (1 + lam1 ** g) + tail
        Qm = k * (1 + lam1) / (lam1 * (1 + lam1 ** g)) + tail
        O1p = cg * (cg * cg * Qp / csp) ** (1 / s) * abs(Qp - 1)
        O1m = cg * (cg * cg * Qm / csm) ** (1 / s) * abs(Qm - 1)
        O1 = 0.5 * (O1p + O1m)
        return DevelopmentAsymptotics(
            "I", (1 + s) / s, float(np.sign(csp - csm)) * O1,
            g / (1 + s), Qp, Qm, lam0, lam1)

    @staticmethod
    def _solve_lambda(g, s, lam0):
        def F(lam):
            return (g * s * (1 + lam) * (lam0 - lam ** (1 + g + s))
                    - (1 + g + s) * lam * (1 + lam ** g) * (lam ** s - lam0))

        lo = lam0 ** (1.0 / (1 + g + s))
        hi = lam0 ** (1.0 / s)
        if lo > hi:
            lo, hi = hi, lo
        fl, fh = F(lo), F(hi)
        if fl == 0.0:
            return lo
        if fh == 0.0:
            return hi
        if fl * fh > 0:
            raise RootNotBracketed(
                "lambda equation has no sign change on the proven bracket")
        return float(brentq(F, lo, hi, xtol=1e-14, rtol=1e-14))

    def _case23(self, gp, inputs):
        g = float(inputs["gamma"])
        s = float(inputs["sigma"])
        cs = float(inputs["Cbar_sigma"])
        if cs <= 0:
            raise ConditionFailed("sigma-constant must be positive")
        cg = 1.0 / gp.t_p
        Q3 = (1 + g + s) / ((1 + g) * (1 + s))
        O3 = cg * (1 - Q3) * Q3 ** (1 / s) * (cg * cg / cs) ** (1 / s)
        sign = -1.0 if gp.case.startswith("II") else 1.0
        O4 = None
        if "gamma_other" in inputs:
            go = float(inputs["gamma_other"])
            alpha = float(inputs.get("alpha", 0.0))
            cgo = float(inputs["Cbar_gamma_other"])
            crit = go * (1 + alpha)
            if crit < 1 - 1e-12:
                O4 = cg / cgo
            elif crit <= 1 + 1e-12:
                O4 = 1.0 + float(inputs.get("C_gamma_sign", -1.0)) * cg / cgo
            else:
                O4 = 1.0
        return DevelopmentAsymptotics(
            gp.case, (1 + s) / s, sign * O3,
            max(g, float(inputs.get("gamma_other", g))),
            Q3, Q3, 1.0, 1.0, O4)

    # -- forward tracking --------------------------------------------------

    def track_forward(self, x0, t0, t_end, dt, x_tol=1e-10):
        """Follow the discontinuity (or characteristic) issued at (x0, t0)."""
        if not (math.isfinite(x0) and math.isfinite(t0) and t0 >= 0
                and math.isfinite(t_end) and math.isfinite(dt) and dt > 0):
            raise ValueError("x0, t0, t_end and dt must be finite, with "
                             "t0 >= 0 and dt > 0")
        fl = self.flux
        M = self.problem.M
        w = 2.0 * dt * max(abs(fl.deriv(-M)), abs(fl.deriv(M))) + 1e-12
        curve = ShockCurve(origin=(float(x0), float(t0)))
        t, x = float(t0), float(x0)
        if t > 0:
            um, up = self._traces(x, t)
        else:
            um = self.data.phi_side(x, "left")
            up = self.data.phi_side(x, "right")
        prev_slope = None
        if t > 0:
            curve.nodes.append(self._node(x, t, um, up, prev_slope))
        while t < t_end - 1e-12:
            step = min(dt, t_end - t)
            speed = self._rh_speed(um, up)
            x_hat = x + step * speed
            t_next = t + step
            if um - up > self.problem.jump_tol:
                x_new = self._locate_jump(x_hat, t_next, 0.5 * (um + up), w)
            else:
                # pre-shock: ride the classical characteristic, then check
                # whether a jump has opened underneath it
                x_new = x_hat
                s = self.problem.solve(x_new, t_next)
                if s.is_shock:
                    x_new = self._locate_jump(
                        x_hat, t_next, 0.5 * (s.u_minus + s.u_plus), w)
            prev_slope = (x_new - x) / step
            x, t = x_new, t_next
            um, up = self._traces(x, t)
            curve.nodes.append(self._node(x, t, um, up, prev_slope))
        return curve

    def _traces(self, x, t, eps=1e-7):
        # sample a hair to each side: the located position sits at the edge
        # of the val_tol capture band, where on-point traces are unreliable
        um = self.problem.solve(x - eps, t).u_minus
        up = self.problem.solve(x + eps, t).u_plus
        return um, up

    def _rh_speed(self, um, up):
        if um - up <= self.problem.tol_u:
            return float(self.flux.deriv(0.5 * (um + up)))
        return float((self.flux.eval(um) - self.flux.eval(up)) / (um - up))

    def _locate_jump(self, x_hat, t, mid, w):
        """Bisect for the position where u_plus drops through ``mid``."""
        lo, hi = x_hat - w, x_hat + w
        if not (self.problem.solve(lo, t).u_plus > mid
                > self.problem.solve(hi, t).u_plus):
            raise LostCurve(
                f"no jump through {mid:g} in window around {x_hat:g} at t={t:g}")
        lo, hi = bisect(lambda m: self.problem.solve(m, t).u_plus > mid,
                        lo, hi, 1e-12)
        return 0.5 * (lo + hi)

    def _node(self, x, t, um, up, prev_slope):
        sr = self._rh_speed(um, up)
        sl = sr
        if prev_slope is not None and um - up > self.problem.jump_tol:
            tri = self.backward_triangle(x, t)
            for c_n, d_n in tri.gaps:
                vlo = self.flux.deriv(c_n)
                vhi = self.flux.deriv(d_n)
                if vlo - 1e-6 <= prev_slope <= vhi + 1e-6:
                    sl = self._rh_speed(d_n, c_n)
                    break
        return ShockNode(float(t), float(x), float(um), float(up),
                         float(sr), float(sl))

    # -- backward structure ------------------------------------------------

    def backward_triangle(self, x0, t0):
        ms = self.problem.maximize(x0, t0)
        wide = 10.0 * self.problem.jump_tol
        rarefactions = tuple((lo, hi) for lo, hi in ms.components
                             if hi - lo > wide)
        gaps = []
        for (lo1, hi1), (lo2, hi2) in zip(ms.components, ms.components[1:]):
            gaps.append((hi1, lo2))
        return TriangleDecomposition((float(x0), float(t0)),
                                     (ms.u_plus, ms.u_minus),
                                     rarefactions, tuple(gaps))

    def directional_limits(self, x0, t0, deltas=(1e-2, 1e-3, 1e-4)):
        tri = self.backward_triangle(x0, t0)
        d = deltas[-1]
        left = self.problem.solve(x0 - d, t0).u_minus
        right = self.problem.solve(x0 + d, t0).u_plus
        gap_limits = []
        for c_n, d_n in tri.gaps:
            v = self._rh_speed(d_n, c_n)
            s = self.problem.solve(x0 - d * v, t0 - d)
            gap_limits.append((s.u_minus, s.u_plus))
        return DirectionalLimits(float(left), float(right),
                                 tri.gaps, tuple(gap_limits))

    # -- point classification ----------------------------------------------

    def _value_survives(self, x, t, c):
        """Forward-survival probe: c remains a maximizer just after t."""
        H = self.flux.deriv
        for d in (1e-2, 1e-3, 1e-4):
            xq, tq = x + d * H(c), t + d
            ms = self.problem.maximize(xq, tq)
            gap = ms.max_value - self.problem.eval_E(c, xq, tq)
            if gap > min(self.problem.val_tol,
                         1e-12 * (1.0 + abs(ms.max_value))):
                return False
        return True

    def classify_point(self, x, t):
        s = self.problem.solve(x, t)
        if not s.is_shock:
            if self._value_survives(x, t, s.u_plus):
                return PointClass("interior_characteristic")
            return PointClass("continuous_shock_generation")
        tri = self.backward_triangle(x, t)
        n = len(tri.gaps)
        if n == 0:
            return PointClass("discontinuous_shock_generation")
        if n == 1:
            c_n, d_n = tri.gaps[0]
            regular = (abs(c_n - s.u_plus) <= 1e-6
                       and abs(d_n - s.u_minus) <= 1e-6)
            return PointClass("single_shock_point",
                              "regular" if regular else "irregular")
        return PointClass("multi_shock_collision", n)
