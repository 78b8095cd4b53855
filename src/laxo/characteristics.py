"""Characteristic generation, initial-wave types, and lifespans.

For a point x0 the generation values C(x0) are the constants c whose
characteristic line x = x0 + t f'(c) carries the solution for some positive
time.  Membership is decided by comparing the shifted primitive

    Phi(l; x0, c) = Phi(x0 + l) - Phi(x0) - c l

against the flux barrier F(l; t, c); for power-law data and flux the
comparison collapses to inequalities between the data exponent gamma and
the flux degeneracy alpha.  The six initial-wave types, the lifespan bound
t_p and the exact lifespan t* all derive from the same quantities.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._search import bisect
from .errors import FitError

T_CAP = 1e4
T_TOL = 1e-8
# the doubling scan's times 2**0 ... 2**13, all below T_CAP
_DOUBLINGS = 14
_EPS = 1e-12


@dataclass(frozen=True)
class CharSpectrum:
    x0: float
    kind: str            # empty | singleton | closed_interval |
    #                      half_open_left | half_open_right | open_interval
    a: float             # upper left Dini derivative of Phi at x0
    b: float             # lower right Dini derivative of Phi at x0
    includes_a: bool
    includes_b: bool


@dataclass(frozen=True)
class Lifespans:
    t_p_minus: float
    t_p_plus: float
    t_p: float
    t_star: float


@dataclass(frozen=True)
class TerminationClass:
    kind: str            # continuous_shock_generation |
    #                      discontinuous_or_shock_point |
    #                      collision_with_shock | immortal
    x_star: float = np.inf
    t_star: float = np.inf


def phi_l(data, l, x0, c):
    """Phi(l; x0, c) = Phi(x0+l) - Phi(x0) - c l, exact."""
    return float(data.primitive(x0 + l) - data.primitive(x0) - c * l)


def F_l(fl, l, t, c):
    """The flux barrier F(l; t, c) = -t int_c^u (s-c) f''(s) ds.

    Here u solves f'(u) = f'(c) - l/t; the integral is exact:
    int_c^u (s-c) f'' ds = (u-c) f'(u) - (f(u) - f(c)).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    u = fl.invert_deriv(fl.deriv(c) - l / t)
    return float(-t * ((u - c) * fl.deriv(u) - (fl.eval(u) - fl.eval(c))))


class CharacteristicAnalyzer:
    """Bundles a problem's flux and data for generation-value queries."""

    def __init__(self, problem):
        self.problem = problem
        self.flux = problem.flux
        self.data = problem.data

    # -- endpoint membership ----------------------------------------------

    def _endpoint(self, x0, c, data_side):
        """Membership of an endpoint value c via the power-law criterion.

        The data side pairs with the flux expansion on the opposite side of
        c in u (left data side with u -> c+, right with u -> c-).
        """
        flux_side = "right" if data_side == "left" else "left"
        dg = self.flux.fit_degeneracy(c, flux_side)
        try:
            le = self.data.local_expansion(x0, c, data_side)
        except FitError as err:
            if "identically" in str(err):
                return True              # phi == c: Phi(l) = 0 > F
            raise
        return le.C_gamma > 0 or le.gamma * (1.0 + dg.alpha) >= 1.0 - _EPS

    # -- the spectrum and the six wave types -------------------------------

    def char_spectrum(self, x0):
        a = self.data.phi_side(x0, "left")
        b = self.data.phi_side(x0, "right")
        if a > b + _EPS:
            return CharSpectrum(x0, "empty", a, b, False, False)
        if abs(a - b) <= _EPS:
            # excluded as soon as either side triggers the exclusion
            if self._endpoint(x0, a, "left") and self._endpoint(x0, a, "right"):
                return CharSpectrum(x0, "singleton", a, b, True, True)
            return CharSpectrum(x0, "empty", a, b, False, False)
        in_a = self._endpoint(x0, a, "left")
        in_b = self._endpoint(x0, b, "right")
        kind = {(True, True): "closed_interval",
                (False, True): "half_open_left",
                (True, False): "half_open_right",
                (False, False): "open_interval"}[(in_a, in_b)]
        return CharSpectrum(x0, kind, a, b, in_a, in_b)

    def classify_initial_wave(self, x0):
        sp = self.char_spectrum(x0)
        return {"empty": "S",
                "singleton": "characteristic",
                "closed_interval": "R",
                "half_open_left": "S+R",
                "half_open_right": "R+S",
                "open_interval": "S+R+S"}[sp.kind]

    # -- lifespans ---------------------------------------------------------

    def _lifespan_side(self, x0, c, data_side):
        flux_side = "right" if data_side == "left" else "left"
        try:
            le = self.data.local_expansion(x0, c, data_side)
        except FitError:
            return np.inf          # phi == c locally, or a robust jump side
        if le.C_gamma > 0:
            return np.inf
        dg = self.flux.fit_degeneracy(c, flux_side)
        crit = le.gamma * (1.0 + dg.alpha)
        if crit > 1.0 + 1e-9:
            return np.inf
        if crit < 1.0 - 1e-9:
            return 0.0             # c is not a generation value
        return 1.0 / (le.gamma * dg.N * abs(le.C_gamma) ** (1.0 + dg.alpha))

    def lifespan_upper(self, x0, c):
        if not (math.isfinite(x0) and math.isfinite(c)):
            raise ValueError("x0 and c must be finite")
        return (self._lifespan_side(x0, c, "left"),
                self._lifespan_side(x0, c, "right"))

    def _maximize_along(self, x0, c, ts):
        """The points x = x0 + t f'(c) at the times ts, and their maximizer
        sets as the arrays of one block with one t per row."""
        with np.errstate(over="ignore"):    # an overflow is rejected below
            xs = x0 + ts * self.flux.deriv(c)
        if not np.isfinite(xs).all():
            raise ValueError("x and t must be finite, with t positive")
        p, n = self.problem, len(ts)
        return xs, p._maximize_block(xs, ts, np.zeros(n, dtype=np.intp),
                                     np.full(n, len(p._s)))

    def _on_characteristic(self, x0, c, t):
        """Whether c lies in U(x0 + t f'(c), t): at each t of an array t, in
        one block, or at the one t given."""
        p = self.problem
        ts = np.array(t, dtype=float, ndmin=1)
        xs, rows = self._maximize_along(x0, c, ts)
        top = rows.max_value
        Ec = p._E(p._W(xs - ts * p._H0), c, xs, ts)
        # tighter than val_tol: near tangential terminations the value gap
        # opens only quadratically in t - t*, so a loose gap test would blur
        # t* by its square root
        tol = np.minimum(p.val_tol, 1e-12 * (1.0 + np.abs(top)))
        on = top - Ec <= tol
        return on if np.ndim(t) else bool(on[0])

    def lifespan_exact(self, x0, c):
        """t* = sup{t : c in U(x0 + t f'(c), t)}; inf past T_CAP.

        Each block of rows is one ``_maximize_block`` call with one t per
        row.  The doubling scan tests t = 1, 2, 4, ..., 8192 in blocks of
        three and stops at the block of the first failure; t* lies between
        that t and the one before it (0 for t = 1).  Only when every
        doubling stays on the characteristic is ``T_CAP`` tested, last: a
        characteristic that stops being a backward characteristic never
        becomes one again (Dafermos 1977), so after a failed doubling the
        answer at ``T_CAP`` is known.  Its row is also the costliest, and
        the least trustworthy: at t = 1e4 the feet x - t f'(u) of the
        2 049-point u-scan lie about 10 apart on Burgers/sine, so they can
        step over a period or over all the data in a window.  The
        bisection of t is ``bisect``: each block holds the 7 dyadic
        midpoints of its next ``_DEPTH`` = 3 steps, which are the
        midpoints a one-step bisection visits, so t* is the same float.

        ``T_TOL`` is the bisection tolerance in t.  The value-gap test of
        membership limits the accuracy at continuous generation points:
        at (0, 0) on Burgers/sine, where t* = 1, this returns 1 + 8.2e-7.
        A non-finite x0 or c, or a point x0 + t f'(c) that is not finite,
        raises ValueError.
        """
        if not (math.isfinite(x0) and math.isfinite(c)):
            raise ValueError("x0 and c must be finite")
        lo = 0.0
        for k in range(0, _DOUBLINGS, 3):
            ts = 2.0 ** np.arange(k, min(k + 3, _DOUBLINGS))
            on = self._on_characteristic(x0, c, ts)
            if not on.all():
                j = int(on.argmin())            # the first failure
                lo, hi = (float(ts[j - 1]) if j else lo), float(ts[j])
                break
            lo = float(ts[-1])
        else:
            if self._on_characteristic(x0, c, T_CAP):
                return np.inf
            hi = T_CAP
        lo, hi = bisect(lambda ts: self._on_characteristic(x0, c, ts),
                        lo, hi, T_TOL)
        return 0.5 * (lo + hi)

    def lifespans(self, x0, c):
        tm, tp = self.lifespan_upper(x0, c)
        return Lifespans(tm, tp, min(tm, tp), self.lifespan_exact(x0, c))

    # -- termination -------------------------------------------------------

    def classify_termination(self, x0, c):
        ls = self.lifespans(x0, c)
        if not np.isfinite(ls.t_star):
            return TerminationClass("immortal")
        x_star = float(x0 + ls.t_star * self.flux.deriv(c))
        if ls.t_star < ls.t_p - 10.0 * T_TOL:
            return TerminationClass("collision_with_shock", x_star, ls.t_star)
        # just past t* a continuous generation point carries an opening jump
        # of width O(sqrt(t - t*)), while a discontinuous one jumps by a
        # finite amount immediately: probe at two offsets and compare
        _, rows = self._maximize_along(x0, c,
                                       ls.t_star + np.array([1e-4, 1e-6]))
        gaps = (rows.u_minus - rows.u_plus).tolist()
        singleton = gaps[1] <= max(0.5 * gaps[0], self.problem.jump_tol)
        if singleton:
            return TerminationClass("continuous_shock_generation",
                                    x_star, ls.t_star)
        return TerminationClass("discontinuous_or_shock_point",
                                x_star, ls.t_star)
