"""Shock formation, development asymptotics, and shock-set structure.

Covers: location and case tags of continuous shock generation points; the
local power laws the shock obeys just after generation (exponents and
leading constants); forward tracking of shock curves by locating the jump
of the variational maximizer; backward-triangle decompositions; directional
limits at shock points; and the five-way classification of points on the
shock set.
"""

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from ._search import bisect, tie
from .characteristics import (T_TOL, CharacteristicAnalyzer,
                              critical_sign, phi_l)
from .errors import (BracketError, ConditionFailed, FitError, LostCurve,
                     RootNotBracketed)

# offset of the one-sided probes in directional_limits
DELTA = 1e-4
# most steps one track_forward call takes: a step maximizes about 8 rows
# (about 1.5 ms on a 2-vCPU host), or about 90 (about 20 ms) where its
# Newton steps leave the jump to a bisection walk, so 10^5 steps already
# run for minutes, and a longer run is taken for a mistyped dt or t_end
MAX_STEPS = 100_000


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
    """A tracked point: its traces and their Rankine-Hugoniot speed."""
    t: float
    x: float
    u_minus: float
    u_plus: float
    speed_right: float


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
        if not 0.0 < t_p < np.inf:      # no compression, or a shock at t = 0
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
        speed = float(self.flux.deriv(c))
        return GenerationPoint(float(x0 + t_p * speed), t_p, float(x0), speed,
                               case, float(c))

    def _check_uniqueness(self, x0, c, t_p):
        """Strict inequality Phi(l) > (rho(u(l), c) - c) l on a lattice.

        Only scales where the expected margin clears double-precision noise
        are tested.
        """
        ls = np.concatenate([0.1 * 2.0 ** -np.arange(7.0),
                             [0.2, 0.4, 0.8, 1.6]])
        for l in np.concatenate([-ls, ls]):
            try:
                u = self.flux.deriv_inverse(self.flux.deriv(c) - l / t_p)
            except BracketError:
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
        Cbar_sigma for Cases II/III.  A constant that is not finite raises
        ValueError; in Case I a lambda bracket that floats cannot hold
        raises RootNotBracketed, and a power law that overflows FitError.
        """
        if not all(math.isfinite(float(v)) for v in inputs.values()):
            raise ValueError("the expansion constants must be finite")
        if gp.case != "I":
            return self._case23(gp, inputs)
        try:
            out = self._case1(gp, inputs)
        except OverflowError as err:
            raise FitError("the case I power laws overflow") from err
        if not all(map(math.isfinite, astuple(out)[1:8])):
            raise FitError("the case I power laws overflow")
        return out

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

        try:
            lo, hi = sorted((lam0 ** (1.0 / (1 + g + s)), lam0 ** (1.0 / s)))
            fl, fh = F(lo), F(hi)
        except OverflowError:
            lo = hi = math.inf
        # an F of +-inf still has its sign, but NaN has none
        if not 0.0 < lo <= hi < math.inf or math.isnan(fl) or math.isnan(fh):
            raise RootNotBracketed(
                "the lambda bracket or F at its ends is 0, inf or NaN")
        if fl == 0.0:
            return lo
        if fh == 0.0:
            return hi
        if fl * fh > 0:
            raise RootNotBracketed(
                "lambda equation has no sign change on the proven bracket")
        # to the float floor: hi can lie far above the root; F point by
        # point, since numpy's power need not round as the scalar one does
        lo, hi = bisect(lambda lams: np.array(
            [(F(lam) > 0) == (fl > 0) for lam in lams.tolist()]), lo, hi, 0.0)
        return 0.5 * (lo + hi)

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
            regime = critical_sign(go, alpha)
            if regime < 0:
                O4 = cg / cgo
            elif regime == 0:
                O4 = 1.0 + float(inputs.get("C_gamma_sign", -1.0)) * cg / cgo
            else:
                O4 = 1.0
        return DevelopmentAsymptotics(
            gp.case, (1 + s) / s, sign * O3,
            max(g, float(inputs.get("gamma_other", g))),
            Q3, Q3, 1.0, 1.0, O4)

    # -- forward tracking --------------------------------------------------

    def track_forward(self, x0, t0, t_end, dt):
        """Follow the discontinuity (or characteristic) issued at (x0, t0).

        Each step of ``dt`` moves by the Rankine-Hugoniot speed, then
        ``_locate_jump`` places the jump; traces are read 1e-7 to each side,
        and a node holds them with their Rankine-Hugoniot speed.  A step
        before the shock solves its point and both traces as one block.
        Node x is where u+ drops through the middle of the traces: the edge
        of the ``val_tol`` capture band, where the gap G between the values
        of E at the left and the right maximizer branch is ``val_tol``,
        about val_tol / [U] left of the exact tie G = 0.  ``tie`` places it
        there by Newton steps on G, or else by a bisection walk to 1e-12,
        and one block certifies that u+ drops through the middle within
        max(5e-13, ulp(x)) of x.  A dt too small to advance t_end, or more
        than ``MAX_STEPS`` steps, raises ValueError before any solve.
        """
        if not (math.isfinite(x0) and math.isfinite(t0) and t0 >= 0
                and math.isfinite(t_end) and math.isfinite(dt) and dt > 0):
            raise ValueError("x0, t0, t_end and dt must be finite, with "
                             "t0 >= 0 and dt > 0")
        if t_end > t0 and (t_end + dt == t_end
                           or (t_end - t0) / dt > MAX_STEPS):
            raise ValueError(f"dt must advance t_end and give at most "
                             f"{MAX_STEPS} steps")
        fl = self.flux
        jump_tol = self.problem.jump_tol
        M = self.problem.M
        w = 2.0 * dt * max(abs(fl.deriv(-M)), abs(fl.deriv(M))) + 1e-12
        curve = ShockCurve(origin=(float(x0), float(t0)))
        t, x = float(t0), float(x0)
        if t > 0:
            um, up = self._traces(x, t)
            curve.nodes.append(self._node(x, t, um, up))
        else:
            um = self.data.phi_side(x, "left")
            up = self.data.phi_side(x, "right")
        while t < t_end - 1e-12:
            step = min(dt, t_end - t)
            x_hat = x + step * self._rh_speed(um, up)
            t += step
            if um - up <= jump_tol:
                # pre-shock: ride the classical characteristic; one block
                # reads whether a jump has opened underneath it, and the
                # traces for the node if none has
                ums, ups = self.problem._u_minus_plus(
                    [x_hat - 1e-7, x_hat, x_hat + 1e-7], t)
                um, up = ums[1], ups[1]
            if um - up > jump_tol:
                x, um, up = self._locate_jump(x_hat, t, um, up, w)
            else:
                # only a pre-shock step gets here, with its traces read
                x, um, up = x_hat, ums[0], ups[2]
            curve.nodes.append(self._node(x, t, um, up))
        return curve

    def _traces(self, x, t):
        # sample a hair to each side: the located position sits at the edge
        # of the val_tol capture band, where on-point traces are unreliable
        ums, ups = self.problem._u_minus_plus([x - 1e-7, x + 1e-7], t)
        return ums[0], ups[1]

    def _rh_speed(self, um, up):
        if um - up <= self.problem.tol_u:
            return float(self.flux.deriv(0.5 * (um + up)))
        return float((self.flux.eval(um) - self.flux.eval(up)) / (um - up))

    def _locate_jump(self, x_hat, t, um, up, w):
        """The node (x, u-, u+) of the jump near x_hat at time t.

        The jump is where u+ drops through mid = (um + up) / 2, the middle
        of the last traces (a node's, or a pre-shock solve's), in the window
        [x_hat - w, x_hat + w]: there the best of E below mid enters the
        val_tol band of the best above it, G = val_tol.  ``tie`` steps from
        x_hat on G, each probe one ``branch_gap`` block (one row over each
        whole side of mid), which gives u+ > mid as G > val_tol and the
        slope U(u+) - U(u-), until a step is at most 2e-13 (1 + |x|).
        One 4-row block then certifies x by u+(x - eps) > mid > u+(x + eps)
        with eps = max(5e-13, ulp(x)), and reads the traces 1e-7 to each
        side.  Where the steps stop paying, as where ``branch_gap`` gives
        None, ``bisect_many`` walks the bracket they leave to 1e-12, with
        the window's ends, unread, taken for u+ > mid on the left and not on
        the right, solving each round's midpoints as one block; the same
        4-row block certifies its midpoint.  Where the first probe decides
        nothing, the walk takes the whole window, so one block first reads
        the window's ends, and only where they hold the drop does it walk.
        Where the certificate fails after steps that decided, as where a
        probe decided wrongly and stranded the bracket, that block reads
        the ends, and where they hold the drop one more walk takes the
        whole window and its midpoint is certified.  Raises LostCurve where
        no certificate holds: the window holds no such drop, which a window
        whose first probe decides nothing shows in 2 blocks.
        """
        p = self.problem
        mid = 0.5 * (um + up)

        def probe(x):
            g = p.branch_gap(x, t, mid)
            if g is None:
                return None, None
            gap, slope = g[:2]
            return (gap > p.val_tol,
                    (gap - p.val_tol) / slope if slope < 0.0 else None)

        def certify(x):
            eps = max(5e-13, math.ulp(x))
            ums, ups = p._u_minus_plus([x - 1e-7, x - eps, x + eps,
                                        x + 1e-7], t)
            return ((x - eps, x + eps), (ups[1] > mid, ups[2] > mid),
                    (x, ums[0], ups[3]))

        def pred(xs, _):
            return np.array(p._u_minus_plus(xs, t)[1]) > mid

        def drop():     # one block: the window's ends hold the drop
            return pred([lo, hi], None).tolist() == [True, False]

        lo, hi = x_hat - w, x_hat + w
        # tie's first probe, read here: where it decides nothing, tie walks
        # the whole window, so only a window whose ends hold the drop
        first = [probe(x_hat)]
        whole = first[0][0] is None
        if not whole or drop():
            x, node = tie(lambda z: first.pop() if first else probe(z), pred,
                          certify, lo, hi, x_hat, None, 1e-12)
            if node is not None:
                return node
            _, holds, node = certify(x)
            if not (holds[0] and not holds[1]) and not whole and drop():
                # a probe that decided wrongly stranded the bracket: walk
                # the whole window
                a, b = bisect(lambda xs: pred(xs, None), lo, hi, 1e-12)
                _, holds, node = certify(0.5 * (a + b))
            if holds[0] and not holds[1]:
                return node
        raise LostCurve(f"no jump through {mid:g} in window around "
                        f"{x_hat:g} at t={t:g}")

    def _node(self, x, t, um, up):
        return ShockNode(float(t), float(x), float(um), float(up),
                         self._rh_speed(um, up))

    # -- backward structure ------------------------------------------------

    def backward_triangle(self, x0, t0):
        return self._triangle(x0, t0, self.problem.maximize(x0, t0))

    def _triangle(self, x0, t0, ms):
        """The backward triangle at (x0, t0) from its maximizer set ms."""
        wide = 10.0 * self.problem.jump_tol
        rarefactions = tuple((lo, hi) for lo, hi in ms.components
                             if hi - lo > wide)
        gaps = []
        for (lo1, hi1), (lo2, hi2) in zip(ms.components, ms.components[1:]):
            gaps.append((hi1, lo2))
        return TriangleDecomposition((float(x0), float(t0)),
                                     (ms.u_plus, ms.u_minus),
                                     rarefactions, tuple(gaps))

    def directional_limits(self, x0, t0):
        """Traces at x0 -+ DELTA, and per maximizer gap the solution DELTA
        back in time along the gap's Rankine-Hugoniot direction."""
        tri = self.backward_triangle(x0, t0)
        ums, ups = self.problem._u_minus_plus([x0 - DELTA, x0 + DELTA], t0)
        left, right = ums[0], ups[1]
        gap_limits = []
        for c_n, d_n in tri.gaps:
            v = self._rh_speed(d_n, c_n)
            ums, ups = self.problem._u_minus_plus([x0 - DELTA * v], t0 - DELTA)
            gap_limits.append((ums[0], ups[0]))
        return DirectionalLimits(float(left), float(right),
                                 tri.gaps, tuple(gap_limits))

    # -- point classification ----------------------------------------------

    def classify_point(self, x, t):
        """The class of (x, t), from one solve there.  A smooth point
        with value c is a continuous generation point iff t is within
        ``T_TOL`` of the t_p of c's characteristic (t <= t* <= t_p).

        The foot x - t f'(c) of a smooth point carries c.  One that reads
        otherwise (``CharacteristicAnalyzer.carries``) lies within rounding
        of an upward jump of phi, the apex of c's fan, whose two sides are
        rarefaction sides: t_p is inf there."""
        s = self.problem.solve(x, t)
        if not s.is_shock:
            c = s.u_plus
            x0 = x - t * self.flux.deriv(c)
            t_p = (min(self.chars.lifespan_upper(x0, c))
                   if self.chars.carries(x0, c) else np.inf)
            if t >= t_p - T_TOL:
                return PointClass("continuous_shock_generation")
            return PointClass("interior_characteristic")
        tri = self._triangle(x, t, s.maximizer)
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
