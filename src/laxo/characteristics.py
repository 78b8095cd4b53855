"""Characteristic generation, initial-wave types, and lifespans.

For a point x0 the generation values C(x0) are the constants c whose
characteristic line x = x0 + t f'(c) carries the solution for some positive
time.  Membership is decided by comparing the shifted primitive

    Phi(l; x0, c) = Phi(x0 + l) - Phi(x0) - c l

against the flux barrier F(l; t, c); for power-law data and flux the
comparison collapses to one test of the data exponent gamma against the
flux degeneracy alpha (``critical_sign``), which also gives the lifespan
bound t_p.  A characteristic is a backward one for as long as it lives
(Dafermos 1977), so C(x0) is the set of c between phi(x0-) and phi(x0+)
with t_p(x0, c) > 0, and the six initial-wave types and the exact
lifespan t* <= t_p follow from t_p.
"""

from dataclasses import dataclass

import numpy as np

from ._search import tie
from .errors import FitError
from .initial_data import _check_finite

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


def _farther(rows, q, c):
    """Row q's maximizer farther from c, u+ or u-."""
    return float(max(rows.u_plus[q], rows.u_minus[q],
                     key=lambda u: abs(u - c)))


def critical_sign(gamma, alpha):
    """The sign of gamma (1 + alpha) - 1, 0 within ``_EPS``: compressive
    data of exponent gamma under a flux of degeneracy alpha cross the
    characteristic at once (-1), after a finite time (0), or never (+1).
    A non-finite gamma or alpha raises ValueError."""
    _check_finite("gamma and alpha", gamma, alpha)
    crit = gamma * (1.0 + alpha)
    return int(crit > 1.0 + _EPS) - int(crit < 1.0 - _EPS)


def phi_l(data, l, x0, c):
    """Phi(l; x0, c) = Phi(x0+l) - Phi(x0) - c l, exact.  A non-finite l,
    x0 or c raises ValueError."""
    _check_finite("l, x0 and c", l, x0, c)
    return float(data.primitive(x0 + l) - data.primitive(x0) - c * l)


def F_l(fl, l, t, c):
    """The flux barrier F(l; t, c) = -t int_c^u (s-c) f''(s) ds.

    Here u solves f'(u) = f'(c) - l/t; the integral is exact:
    int_c^u (s-c) f'' ds = (u-c) f'(u) - (f(u) - f(c)), with u in closed
    form for a named flux (``Flux.deriv_inverse``).  A non-finite l, t or c,
    or a t <= 0, raises ValueError, and a value that f' does not take
    BracketError.
    """
    _check_finite("l, t and c", l, t, c)
    if t <= 0:
        raise ValueError("t must be positive")
    u = fl.deriv_inverse(fl.deriv(c) - l / t)
    return float(-t * ((u - c) * fl.deriv(u) - (fl.eval(u) - fl.eval(c))))


class CharacteristicAnalyzer:
    """Bundles a problem's flux and data for generation-value queries."""

    def __init__(self, problem):
        self.problem = problem
        self.flux = problem.flux
        self.data = problem.data

    # -- the spectrum and the six wave types -------------------------------

    def char_spectrum(self, x0):
        """C(x0): the c between a = phi(x0-) and b = phi(x0+) with t_p > 0.

        Limits within ``jump_tol`` of each other are one value, whose
        membership needs t_p > 0 at both; an endpoint of a wider interval
        is in C(x0) when its own t_p (``lifespan_upper``) is positive.
        """
        a = self.data.phi_side(x0, "left")
        b = self.data.phi_side(x0, "right")
        if a > b + self.problem.jump_tol:
            return CharSpectrum(x0, "empty", a, b, False, False)
        in_a = min(self.lifespan_upper(x0, a)) > 0.0
        in_b = min(self.lifespan_upper(x0, b)) > 0.0
        if b - a <= self.problem.jump_tol:
            one = in_a and in_b
            return CharSpectrum(x0, "singleton" if one else "empty",
                                a, b, one, one)
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
        """t_p of one data side of x0, by the power-law criterion where
        phi's one-sided limit there is c (``critical_sign``), for every
        finite x0 and c.

        A limit more than ``jump_tol`` off c on its compressive side
        (phi(x0+) < c on the right, phi(x0-) > c on the left) gives 0: the
        neighbouring characteristics cross the one from x0 at once.  A
        limit on the rarefaction side, phi identically c there, or a limit
        within ``jump_tol`` of c, as for an x0 or c known to fewer digits
        (a divide that the hull locates to about 1e-8, say), give inf.
        x0 is taken as exact: a foot that rounding moved off a jump of phi
        reads both limits on one side of the jump, so a caller holding the
        foot of a solved point checks ``carries`` first, as
        ``ShockAnalyzer.classify_point`` does.
        """
        flux_side = "right" if data_side == "left" else "left"
        try:
            le = self.data.local_expansion(x0, c, data_side)
        except FitError:       # the limit is not c, or phi == c on the side
            gap = self.data.phi_side(x0, data_side) - c
            if (gap if data_side == "left" else -gap) > self.problem.jump_tol:
                return 0.0
            return np.inf
        if le.C_gamma > 0:
            return np.inf
        dg = self.flux.fit_degeneracy(c, flux_side)
        regime = critical_sign(le.gamma, dg.alpha)
        if regime:
            return np.inf if regime > 0 else 0.0
        try:
            return 1.0 / (le.gamma * dg.N
                          * abs(le.C_gamma) ** (1.0 + dg.alpha))
        except ZeroDivisionError:       # the power underflows: t_p > 1e308
            return np.inf
        except OverflowError:           # the power overflows: t_p < 1e-308
            return 0.0

    def carries(self, x0, c):
        """Whether c lies between phi(x0-) and phi(x0+), to ``jump_tol``:
        whether the characteristic of c from x0 starts on the data.  A
        non-finite x0 or c raises ValueError."""
        _check_finite("x0 and c", x0, c)
        a = self.data.phi_side(x0, "left")
        b = self.data.phi_side(x0, "right")
        tol = self.problem.jump_tol
        return min(a, b) - tol <= c <= max(a, b) + tol

    def lifespan_upper(self, x0, c):
        _check_finite("x0 and c", x0, c)
        return (self._lifespan_side(x0, c, "left"),
                self._lifespan_side(x0, c, "right"))

    def _excess(self, x0, c, ts, mid=None, above=None):
        """How far the best E at the points x0 + t f'(c), at the times of
        the array ts, exceeds E(c) there: one ``GeneralProblem._sides``
        read with one t per row, over the whole grid by default, else over
        one side of mid.  Returns the excess, the most it may reach while c
        is a maximizer, and the read's rows; None where the side read gives
        None.  A point that is not finite raises ValueError."""
        p = self.problem
        with np.errstate(over="ignore"):    # an overflow is rejected below
            xs = x0 + ts * self.flux.deriv(c)
        if not np.isfinite(xs).all():
            raise ValueError("x and t must be finite, with t positive")
        rows = p._sides(xs, ts, mid, above)
        if rows is None:
            return None
        top = rows.max_value
        Ec = p._E(p._W(xs - ts * p._H0), c, xs, ts)
        # tighter than val_tol: near tangential terminations the value gap
        # opens only quadratically in t - t*, so a loose gap test would blur
        # t* by its square root
        tol = np.minimum(p.val_tol, 1e-12 * (1.0 + np.abs(top)))
        return top - Ec, tol, rows

    def _on_characteristic(self, x0, c, ts):
        """Whether c lies in U(x0 + t f'(c), t), at each t of the array ts,
        in one block."""
        ex, tol, _ = self._excess(x0, c, ts)
        return ex <= tol

    def lifespan_exact(self, x0, c):
        """t* = sup{t : c in U(x0 + t f'(c), t)}; inf past T_CAP.

        t* <= t_p = min(``lifespan_upper``), and a characteristic that stops
        being a backward one never becomes one again (Dafermos 1977).  So
        t_p <= ``T_TOL`` returns with no solve; otherwise the doublings
        1, 2, 4, ... below top = min(t_p - T_TOL, T_CAP), then top, are
        tested in blocks of three, one ``_maximize_block`` call with one t
        per row each.  If c holds at all of them, t* is t_p (inf past
        T_CAP).  Otherwise ``tie`` steps in t from the first failure to the
        tie of E(c) with the competing branch, c holding at the time before
        it (or 0), and one 2-row block certifies its t* as a bisection's
        midpoint is certified: c holds at t* - T_TOL / 2 and fails at
        t* + T_TOL / 2.  Where the steps stop paying, ``bisect_many``
        halves the bracket they leave to ``T_TOL``, 7 dyadic midpoints per
        block.

        The competing branch is the best of E on the side of mid = (c + u)
        / 2 away from c, u the maximizer farther from c at the last read.
        Each probe values it by one one-row ``GeneralProblem._sides`` read
        of that side, as ``branch_gap`` reads a shock node's, with E(c) in
        closed form.  It decides that c fails where the branch exceeds E(c)
        by more than the test's tolerance, and nothing otherwise.  By the
        envelope theorem in t the excess rises at the rate r(u) = f(u) -
        f(c) - f'(c) (u - c) = int_c^u f''(s) (u - s) ds > 0, the flux's
        convexity gap between c and u (Lax 1957), (u - c)**2 / 2 for
        Burgers, which reads no data; the first step takes r at the grid
        end on u's side, so it stays at or above t*.  A side read that
        gives None (the side holds fewer than three grid points, or its
        best reaches mid, so the branch may lie across it) decides nothing
        and gives no step, and ``tie`` walks the bracket, as for a shock
        node.  A non-finite x0 or c, or a point x0 + t f'(c) that is not
        finite, raises ValueError.
        """
        t_p = min(self.lifespan_upper(x0, c))
        if t_p <= T_TOL:
            return t_p
        top = min(t_p - T_TOL, T_CAP)
        ts = [0.0, *(t for t in (2.0 ** np.arange(_DOUBLINGS)).tolist()
                     if t < top), top]
        for k in range(1, len(ts), 3):
            ex, tol, rows = self._excess(x0, c, np.array(ts[k:k + 3]))
            on = ex <= tol
            if not on.all():
                i = int(on.argmin())            # the first failure
                break
        else:
            return t_p if t_p <= T_CAP else np.inf
        lo, hi = ts[k + i - 1], ts[k + i]
        p = self.problem

        fl = self.flux
        fc, hc = fl.eval(c), fl.deriv(c)

        def step(g, lim, v):
            # toward the tie, g = 0, or, where lim / r puts the test's last
            # time on c more than T_TOL / 4 past it (a weak collision),
            # T_TOL / 4 before that time
            rate = fl.eval(v) - fc - hc * (v - c)
            if rate > 0.0:
                return float((g - max(0.0, lim - rate * 0.25 * T_TOL)) / rate)
            return None

        u = _farther(rows, i, c)

        def probe(t):
            nonlocal u
            if not t > 0.0:                     # the line starts on c
                return True, None
            read = self._excess(x0, c, np.array([t]), 0.5 * (c + u), u > c)
            if read is None:
                return None, None
            ex, lim, rows = read
            g, lim = float(ex[0]), float(lim[0])
            u = _farther(rows, 0, c)
            return (False if g > lim else None), step(g, lim, u)

        def certify(t):
            ts = np.array([t - 0.5 * T_TOL, t + 0.5 * T_TOL])
            on = (self._on_characteristic(x0, c, ts).tolist()
                  if ts[0] > 0.0 else (None, None))
            return ts.tolist(), on, t

        t, _ = tie(probe, lambda ts, _: self._on_characteristic(x0, c, ts),
                   certify, lo, hi, hi,
                   step(float(ex[i]), float(tol[i]),
                        p._s[-1] if u > c else p._s[0]), T_TOL)
        return t

    def lifespans(self, x0, c):
        tm, tp = self.lifespan_upper(x0, c)
        return Lifespans(tm, tp, min(tm, tp), self.lifespan_exact(x0, c))

    # -- termination -------------------------------------------------------

    def classify_termination(self, x0, c):
        """``immortal`` (t* = inf), ``collision_with_shock`` (t* < t_p), or
        a generation point, continuous or not by two probes past t*.

        A c that x0 does not carry (``carries``) raises ValueError: its
        line is no characteristic, so nothing terminates.  Where phi jumps
        down at x0, a shock starts at (x0, 0) and takes every c it carries
        at once: ``discontinuous_or_shock_point`` there, with no solve.
        """
        if not self.carries(x0, c):
            raise ValueError("c must lie between phi(x0-) and phi(x0+)")
        if (self.data.phi_side(x0, "left") - self.data.phi_side(x0, "right")
                > self.problem.jump_tol):
            return TerminationClass("discontinuous_or_shock_point",
                                    float(x0), 0.0)
        ls = self.lifespans(x0, c)
        if not np.isfinite(ls.t_star):
            return TerminationClass("immortal")
        x_star = float(x0 + ls.t_star * self.flux.deriv(c))
        if ls.t_star < ls.t_p:
            return TerminationClass("collision_with_shock", x_star, ls.t_star)
        # just past t* a continuous generation point carries an opening jump
        # of width O(sqrt(t - t*)), while a discontinuous one jumps by a
        # finite amount immediately: probe at two offsets and compare
        rows = self._excess(x0, c, ls.t_star + np.array([1e-4, 1e-6]))[2]
        gaps = (rows.u_minus - rows.u_plus).tolist()
        singleton = gaps[1] <= max(0.5 * gaps[0], self.problem.jump_tol)
        if singleton:
            return TerminationClass("continuous_shock_generation",
                                    x_star, ls.t_star)
        return TerminationClass("discontinuous_or_shock_point",
                                x_star, ls.t_star)
