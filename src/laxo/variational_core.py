"""The variational solution formula.

For u_t + f(u)_x = 0 the functional is

    E(u; x, t) = t * int_0^u f''(s) ( phi(x - t f'(s)) - s ) ds,

whose maximizer set U(x,t) yields the entropy solution through its extreme
points: u(x,t) = u+ = inf U(x,t) and the left trace u- = sup U(x,t).

E is evaluated in closed form through the substitution y = x - t f'(s):

    E(u; x, t) = Phi(x - t f'(0)) - Phi(x - t f'(u)) - t * int_0^u s f''(s) ds,

with the exact primitive Phi carrying all the data roughness.  The flux
term is closed form, int_0^u s f''(s) ds = u f'(u) - f(u) + f(0), the
Legendre conjugate of the Hopf-Lax formula.  The same pipeline serves the
general pair U(u)_t + F(u)_x = 0 with H = F'/U', where Phi is replaced by a
primitive of U(phi) and the flux term by
int_0^u H'U ds = H(u)U(u) - F(u) - (H(0)U(0) - F(0)).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_simpson
from ._search import bisect, golden_min, runs
from .flux import GeneralFluxPair
from .initial_data import SampledData, _Extended

N_SCAN = 2048
VAL_TOL = 1e-9
JUMP_TOL = 1e-6
TOL_U = 1e-12


def _identity(a):
    return a


def _ones(a):
    return np.ones_like(np.asarray(a, dtype=float))


@dataclass(frozen=True)
class MaximizerSet:
    components: tuple          # sorted tuple of (lo, hi) closed intervals
    u_plus: float
    u_minus: float
    max_value: float


@dataclass(frozen=True)
class SolutionSample:
    x: float
    t: float
    u_minus: float
    u_plus: float
    is_shock: bool
    maximizer: MaximizerSet


class _NumericPrimitive(_Extended):
    """Vectorized primitive of U(phi) for piecewise data, W(0) = 0.

    Precomputes cumulative integrals at dense knots inside each smooth
    segment of the data window; off the window it follows the data's
    periodicity or the constant tails U(phi(w_lo - 1)) and U(phi(w_hi + 1)).
    """

    def __init__(self, U, data):
        self._U = U
        self._d = data
        self.w_lo, self.w_hi, self.period = data.w_lo, data.w_hi, data.period
        if data.is_sampled:
            # phi is constant between knots: cumulative sums are exact
            self._k = np.asarray(data.xs, dtype=float)
            seg = np.asarray(U(data.us[:-1])) * np.diff(self._k)
            self._v = np.concatenate([[0.0], np.cumsum(seg)])
        else:
            bks = [p.lo for p in data.pieces] + [data.w_hi]
            if not data.pieces:
                bks = [data.w_lo, data.w_hi]
            knots = [np.asarray(bks[:1])]
            for a, b in zip(bks[:-1], bks[1:]):
                if b > a:     # 256 Simpson panels per smooth segment
                    knots.append(np.linspace(a, b, 257)[1:])
            self._k = np.concatenate(knots)
            vals = [0.0]
            for a, b in zip(self._k[:-1], self._k[1:]):
                vals.append(vals[-1] + adaptive_simpson(self._inner_phi, a, b,
                                                        1e-13, 24))
            self._v = np.asarray(vals)
        self._win = self._v[-1]
        if self.period is None:
            self.left_tail = U(data.phi(data.w_lo - 1.0))
            self.right_tail = U(data.phi(data.w_hi + 1.0))
        self._normalize()

    def _inner_phi(self, r):
        return self._U(self._d.phi(r))

    def _inner_primitive(self, r):
        idx = np.clip(np.searchsorted(self._k, r, side="right") - 1,
                      0, len(self._k) - 2)
        x0 = self._k[idx]
        h = r - x0
        f = self._inner_phi
        # Simpson from the base knot; knots never straddle data breakpoints
        return self._v[idx] + h / 6.0 * (f(x0) + 4.0 * f(x0 + 0.5 * h) + f(r))


class GeneralProblem:
    """Variational problem for the pair (U, F); U = id gives the scalar case."""

    def __init__(self, pair, data, n_scan=N_SCAN, val_tol=VAL_TOL,
                 jump_tol=JUMP_TOL, tol_u=TOL_U):
        self.pair = pair
        self.data = data
        self.n_scan = int(n_scan)
        self.val_tol = float(val_tol)
        self.jump_tol = float(jump_tol)
        self.tol_u = float(tol_u)
        if not (self.n_scan >= 2 and all(0.0 < v < np.inf for v in (
                self.val_tol, self.jump_tol, self.tol_u))):
            raise ValueError("need n_scan >= 2 and finite positive tolerances")
        self._H = pair.H
        self._Hp = pair.Hprime
        self._U = pair.U
        self._F = pair.F
        if pair.U is _identity:
            self._W = data.primitive
        else:
            self._W = _NumericPrimitive(pair.U, data).primitive
        M = data.bound
        self.M = M
        delta = 1e-6 * (1.0 + M)
        self._s = np.linspace(-M - delta, M + delta, self.n_scan + 1)
        self._Hs = np.asarray(self._H(self._s), dtype=float)
        self._H0 = float(self._H(0.0))
        self._I0 = float(self._H0 * self._U(0.0) - self._F(0.0))
        # int_0^s H'(r) U(r) dr along the grid
        self._Is = (self._Hs * np.asarray(self._U(self._s))
                    - np.asarray(self._F(self._s)) - self._I0)

    # -- scalar helpers ---------------------------------------------------

    def eval_E(self, u, x, t):
        """E(u; x, t), exact given the primitive and the pair's F."""
        Hu = self._H(u)
        return float(self._W(x - t * self._H0) - self._W(x - t * Hu)
                     - t * (Hu * self._U(u) - self._F(u) - self._I0))

    def _psi(self, u, x, t):
        """sign(dE/du) carrier U(phi(x - t H(u))) - U(u) on an array of u."""
        return self._U(self.data.phi(x - t * self._H(u))) - self._U(u)

    # -- maximization ------------------------------------------------------

    def maximize(self, x, t):
        if not (math.isfinite(x) and math.isfinite(t) and t > 0):
            raise ValueError("x and t must be finite, with t positive")
        s, Hs = self._s, self._Hs
        W = self._W
        feet = x - t * Hs
        Wf = np.asarray(W(feet))
        Ev = (W(x - t * self._H0) - Wf) - t * self._Is
        g = np.abs(np.asarray(self._Hp(s))
                   * (np.asarray(self._U(self.data.phi(feet)))
                      - np.asarray(self._U(s))))
        h = s[1] - s[0]
        Emax_grid = float(np.max(Ev))

        # local maxima; a plateau is represented by its middle point
        n = len(s)
        lm = np.zeros(n, dtype=bool)
        lm[1:-1] = (Ev[1:-1] >= Ev[:-2]) & (Ev[1:-1] >= Ev[2:])
        lm[0] = Ev[0] >= Ev[1]
        lm[-1] = Ev[-1] >= Ev[-2]
        cands = []
        for first, last in runs(lm):
            j = first + (last - first + 1) // 2
            lo, hi = max(j - 1, 0), min(j + 1, n - 1)
            gloc = float(np.max(g[lo:hi + 1]))
            if Ev[j] + t * h * gloc < Emax_grid - 10.0 * self.val_tol:
                continue
            cands.append((s[lo], s[hi]))

        refined = []
        for lo, hi in cands:
            u_star = self._refine_bracket(lo, hi, x, t)
            refined.append((u_star, self.eval_E(u_star, x, t)))
        Emax = max([Emax_grid] + [e for _, e in refined])
        thresh = Emax - self.val_tol

        pts = [u for u, e in refined if e >= thresh]
        flat_tol = 1e-11 * (1.0 + abs(Emax))
        comps = [[u, u] for u in pts]
        # value-band runs on the grid
        for first, last in runs(Ev >= thresh):
            out_lo, lo = s[max(first - 1, 0)], s[first]
            hi, out_hi = s[last], s[min(last + 1, n - 1)]
            if hi - lo > 2.5 * h:
                # genuine maximizer intervals have exactly constant E;
                # otherwise the band is a flat peak of a degenerate flux
                probes = np.linspace(lo, hi, 7)[1:-1]
                spread = Emax - min(self.eval_E(u, x, t) for u in probes)
                if spread <= flat_tol:
                    a = self._edge_refine(out_lo, lo, x, t, thresh)
                    b = self._edge_refine(out_hi, hi, x, t, thresh)
                    comps.append([min(a, b), max(a, b)])
                    continue
            # a band no refined point reached
            if not any(lo - 1.5 * h <= u <= hi + 1.5 * h for u in pts):
                u = self._golden(lo, hi, x, t)
                comps.append([u, u])
        comps.sort()
        merged = []
        for c in comps:
            if merged and c[0] <= merged[-1][1] + self.tol_u:
                merged[-1][1] = max(merged[-1][1], c[1])
            else:
                merged.append(c)
        components = tuple((float(a), float(b)) for a, b in merged)
        return MaximizerSet(components, components[0][0], components[-1][1],
                            float(Emax))

    def _refine_bracket(self, lo, hi, x, t):
        pl, ph = self._psi(np.array([lo, hi]), x, t).tolist()
        if pl > 0.0 >= ph or pl >= 0.0 > ph:
            a, b = bisect(lambda u: self._psi(u, x, t) > 0.0, lo, hi,
                          self.tol_u, 60, vectorized=True)
            return 0.5 * (a + b)
        return self._golden(lo, hi, x, t)

    def _golden(self, lo, hi, x, t):
        return golden_min(lambda u: -self.eval_E(u, x, t), lo, hi, self.tol_u)

    def _edge_refine(self, u_out, u_in, x, t, thresh):
        """Boundary of {E >= thresh} between an outside and an inside point."""
        return bisect(lambda u: self.eval_E(u, x, t) >= thresh, u_in, u_out,
                      self.tol_u, 60)[0]

    # -- public solution API ----------------------------------------------

    def solve(self, x, t):
        ms = self.maximize(x, t)
        return SolutionSample(float(x), float(t), ms.u_minus, ms.u_plus,
                              ms.u_minus - ms.u_plus > self.jump_tol, ms)

    def solve_grid(self, xs, t):
        return [self.solve(x, t) for x in xs]

    def e_hat(self, x, t):
        ms = self.maximize(x, t)
        return float(ms.max_value - self._W(x - t * self._H0))


class Problem(GeneralProblem):
    """Scalar conservation law u_t + f(u)_x = 0 with data phi."""

    def __init__(self, flux, data, **kw):
        super().__init__(identity_pair(flux), data, **kw)
        self.flux = flux

    def restart(self, tau):
        """Problem restarted from the computed solution at time tau.

        Returns a wrapper whose ``solve(x, t)`` (absolute time t > tau)
        evaluates the variational formula for the sampled data u(., tau) on
        4097 knots: one period, or the window padded by tau * max|f'| + 1.
        """
        if tau <= 0:
            raise ValueError("tau must be positive")
        lo, hi = self.data.w_lo, self.data.w_hi
        if self.data.period is None:
            speed = max(abs(self._H(self.M)), abs(self._H(-self.M)))
            pad = tau * speed + 1.0
            lo, hi = lo - pad, hi + pad
        xs = np.linspace(lo, hi, 4097)
        mids = 0.5 * (xs[:-1] + xs[1:])
        us = np.array([self.solve(x, tau).u_plus for x in mids])
        us = np.append(us, us[-1] if self.data.period is None else us[0])
        sd = SampledData(xs, us, period=self.data.period)
        inner = Problem(self.flux, sd, n_scan=self.n_scan,
                        val_tol=self.val_tol, jump_tol=self.jump_tol,
                        tol_u=self.tol_u)
        return RestartedProblem(inner, tau)


class RestartedProblem:
    """Absolute-time view of a problem restarted at time tau."""

    def __init__(self, problem, tau):
        self.problem = problem
        self.tau = float(tau)

    def maximize(self, x, t):
        return self.problem.maximize(x, t - self.tau)

    def solve(self, x, t):
        s = self.problem.solve(x, t - self.tau)
        return SolutionSample(s.x, float(t), s.u_minus, s.u_plus, s.is_shock,
                              s.maximizer)

    def solve_grid(self, xs, t):
        return [self.solve(x, t) for x in xs]


def identity_pair(flux):
    """GeneralFluxPair reducing to the scalar flux (U = id)."""
    return GeneralFluxPair(_identity, _ones, F=flux.eval, H=flux.deriv,
                           Hprime=flux.second)
