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

from dataclasses import dataclass

import numpy as np

from ._search import bisect
from .errors import FitError

T_CAP = 1e4
T_TOL = 1e-8
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
        return (self._lifespan_side(x0, c, "left"),
                self._lifespan_side(x0, c, "right"))

    def _on_characteristic(self, x0, c, t):
        x = x0 + t * self.flux.deriv(c)
        ms = self.problem.maximize(x, t)
        # tighter than val_tol: near tangential terminations the value gap
        # opens only quadratically in t - t*, so a loose gap test would blur
        # t* by its square root
        tol = min(self.problem.val_tol, 1e-12 * (1.0 + abs(ms.max_value)))
        return ms.max_value - self.problem.eval_E(c, x, t) <= tol

    def lifespan_exact(self, x0, c, t_cap=T_CAP, t_tol=T_TOL):
        """t* = sup{t : c in U(x0 + t f'(c), t)} by bisection."""
        if self._on_characteristic(x0, c, t_cap):
            return np.inf
        lo, hi = 0.0, t_cap
        t = 1.0
        while t < t_cap:
            if self._on_characteristic(x0, c, t):
                lo = t
            else:
                hi = t
                break
            t *= 2.0
        lo, hi = bisect(lambda m: self._on_characteristic(x0, c, m),
                        lo, hi, t_tol)
        return 0.5 * (lo + hi)

    def lifespans(self, x0, c, t_cap=T_CAP, t_tol=T_TOL):
        tm, tp = self.lifespan_upper(x0, c)
        return Lifespans(tm, tp, min(tm, tp),
                         self.lifespan_exact(x0, c, t_cap, t_tol))

    # -- termination -------------------------------------------------------

    def classify_termination(self, x0, c, t_cap=T_CAP, t_tol=T_TOL):
        ls = self.lifespans(x0, c, t_cap, t_tol)
        if not np.isfinite(ls.t_star):
            return TerminationClass("immortal")
        x_star = x0 + ls.t_star * self.flux.deriv(c)
        if ls.t_star < ls.t_p - 10.0 * t_tol:
            return TerminationClass("collision_with_shock", x_star, ls.t_star)
        # just past t* a continuous generation point carries an opening jump
        # of width O(sqrt(t - t*)), while a discontinuous one jumps by a
        # finite amount immediately: probe at two offsets and compare
        gaps = []
        for dt in (1e-4, 1e-6):
            t = ls.t_star + dt
            ms = self.problem.maximize(x0 + t * self.flux.deriv(c), t)
            gaps.append(ms.u_minus - ms.u_plus)
        singleton = gaps[1] <= max(0.5 * gaps[0], self.problem.jump_tol)
        if singleton:
            return TerminationClass("continuous_shock_generation",
                                    x_star, ls.t_star)
        return TerminationClass("discontinuous_or_shock_point",
                                x_star, ls.t_star)
