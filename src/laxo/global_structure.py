"""Global long-time structure: hulls, divides, partition, asymptotic profiles.

The lower convex envelope of the primitive controls everything here: its
contact set K0 locates the divides, the gaps between contact components
carry one persistent shock each, and the envelope's derivative is the
initial data of the rarefaction-constant profile the solution decays to.
"""

from dataclasses import dataclass

import numpy as np

from ._search import golden_many, runs
from .errors import HullInfinite, NoDivides
from .variational_core import _checked_t

HULL_TOL_SCALE = 1e-9


def _check_point(x, t):
    if not (np.isfinite(x) and np.isfinite(t) and t > 0):
        raise ValueError("x and t must be finite, with t > 0")


@dataclass(frozen=True)
class DivideFan:
    x0: float
    empty: bool
    lo: float = np.nan
    hi: float = np.nan


@dataclass(frozen=True)
class Region:
    kind: str          # divide | gap | left_infinite | right_infinite
    interval: tuple    # (e_n, h_n) for gaps, component for divides
    speed: float       # c_n for gaps, tail slope for infinite regions


@dataclass(frozen=True)
class Partition:
    regions: tuple


class HullReport:
    """Lower convex envelope of the primitive with its contact set.

    The envelope is stored as its vertices ``vx``, ``vy`` and ``slopes``:
    ``slopes[i]`` holds left of ``vx[i]``, so it reads ``slope_left``, the
    segment slopes, then ``slope_right``.  A periodic envelope is the line
    of the mean slope, one vertex at w_lo with both tails on it.  The
    primitive is sampled at steps of 1e-3 max(window width, 1), over the
    window joined with [-N, N] when N is given.
    """

    def __init__(self, data, N):
        self.period = data.period
        ti = data.tail_invariants()
        self.slope_left = ti.ubar_l
        self.slope_right = ti.ulow_r
        if self.slope_left > self.slope_right + 1e-12:
            raise HullInfinite("left tail mean exceeds right tail mean")
        self.finite = True
        h = 1e-3 * max(data.w_hi - data.w_lo, 1.0)
        if self.period is not None:
            self._build_periodic(data, h)
        else:
            self._build_tailed(data, N, h)

    # -- construction ------------------------------------------------------

    def _build_periodic(self, data, h):
        m = self.slope_left
        xs = np.arange(data.w_lo, data.w_hi + 0.5 * h, h)
        g = data.primitive(xs) - m * xs
        self.hull_tol = HULL_TOL_SCALE * (1.0 + float(np.max(np.abs(g))))
        b0 = float(np.min(g))
        # one lockstep golden refinement of every short minimizer cluster
        refined = [(float(xs[i]), float(xs[j]))
                   for i, j in runs(g - b0 <= self.hull_tol)]
        short = [k for k, (lo, hi) in enumerate(refined)
                 if hi - lo <= h * 1.5]
        if short:
            lo, hi = np.array([refined[k] for k in short]).T
            x_star = golden_many(lambda x, _: data.primitive(x) - m * x,
                                 lo - h, hi + h, 1e-12)
            b0 = min(b0, float(np.min(data.primitive(x_star) - m * x_star)))
            for k, x in zip(short, x_star.tolist()):
                refined[k] = (x, x)
        if (len(refined) > 1
                and abs(refined[-1][0] - data.period - refined[0][0]) <= 2 * h):
            refined = refined[:-1]     # same divide modulo the period
        self.K0 = tuple(refined)
        self.xs = xs
        self.left_unbounded = self.right_unbounded = False
        self.b_left = self.b_right = b0
        self._set_vertices([data.w_lo], [m * data.w_lo + b0])

    def _build_tailed(self, data, N, h):
        lo = data.w_lo if N is None else -abs(N)
        hi = data.w_hi if N is None else abs(N)
        lo, hi = min(lo, data.w_lo), max(hi, data.w_hi)
        # one node per breakpoint: drop grid nodes that round onto one
        brk = np.unique([data.w_lo, data.w_hi]
                        + [p.lo for p in getattr(data, "pieces", ())])
        grid = np.arange(lo, hi + 0.5 * h, h)
        ends = np.concatenate([[-np.inf], brk, [np.inf]])
        i = np.searchsorted(ends, grid)
        near = np.minimum(grid - ends[i - 1], ends[i] - grid) <= 1e-9 * h
        xs = np.union1d(grid[~near], brk)
        ys = data.primitive(xs)
        self.hull_tol = HULL_TOL_SCALE * (1.0 + float(np.max(np.abs(ys))))
        vx, vy = _lower_hull(xs, ys)
        sl, sr = self.slope_left, self.slope_right
        # tangency of the tail lines with the window hull
        gl = vy - sl * vx
        gr = vy - sr * vx
        i_l = int(np.argmin(gl))
        # tail slopes within 1e-12 can cross the tangencies: keep one vertex
        i_r = max(i_l, len(vx) - 1 - int(np.argmin(gr[::-1])))
        self.b_left = float(gl[i_l])
        self.b_right = float(gr[i_r])
        self._set_vertices(vx[i_l:i_r + 1], vy[i_l:i_r + 1])
        self.xs = xs
        hull_ys = self.value(xs)
        self.K0 = tuple((float(xs[i]), float(xs[j]))
                        for i, j in runs(ys - hull_ys <= self.hull_tol))
        self.left_unbounded = abs(
            float(data.primitive(data.w_lo)) - sl * data.w_lo
            - self.b_left) <= self.hull_tol
        self.right_unbounded = abs(
            float(data.primitive(data.w_hi)) - sr * data.w_hi
            - self.b_right) <= self.hull_tol

    def _set_vertices(self, vx, vy):
        """Store the envelope: vertices, and slopes[i] left of vertex i."""
        self.vx = np.asarray(vx, dtype=float)
        self.vy = np.asarray(vy, dtype=float)
        self.slopes = np.concatenate([[self.slope_left],
                                      np.diff(self.vy) / np.diff(self.vx),
                                      [self.slope_right]])

    # -- evaluation --------------------------------------------------------

    def value(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        vx = self.vx
        out = np.empty_like(x)
        left = x <= vx[0]
        right = x >= vx[-1]
        midm = ~(left | right)
        out[left] = self.slope_left * x[left] + self.b_left
        out[right] = self.slope_right * x[right] + self.b_right
        if np.any(midm):
            out[midm] = np.interp(x[midm], vx, self.vy)
        return float(out[0]) if scalar else out

    def slopes_at(self, x0):
        """One-sided derivatives of the envelope at x0."""
        vx, slopes = self.vx, self.slopes
        dist = np.abs(vx - x0)
        j = int(np.argmin(dist))
        if dist[j] <= 1e-12:
            return float(slopes[j]), float(slopes[j + 1])
        # slopes[i] covers (vx[i-1], vx[i])
        i = int(np.searchsorted(vx, x0, side="right"))
        return float(slopes[i]), float(slopes[i])


def _lower_hull(xs, ys):
    """Vertices (vx, vy) of the lower convex hull of sorted points."""
    hull = []
    for p in zip(xs, ys):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    vx, vy = zip(*hull)
    return np.array(vx), np.array(vy)


class GlobalStructure:
    """Hull, divides, partition and asymptotic profiles for one problem."""

    def __init__(self, problem):
        self.problem = problem
        self.flux = problem.flux
        self.data = problem.data
        self._hull = None

    def convex_hull(self, N=None):
        """Envelope of the primitive; a half-width N builds an uncached one."""
        if N is not None:
            return HullReport(self.data, N)
        if self._hull is None:
            self._hull = HullReport(self.data, None)
        return self._hull

    def divide_fan(self, x0):
        if not np.isfinite(x0):
            raise ValueError("x0 must be finite")
        hull = self.convex_hull()
        gap = float(self.data.primitive(x0)) - float(hull.value(x0))
        if gap > hull.hull_tol:
            return DivideFan(float(x0), True)
        lo, hi = hull.slopes_at(x0)
        return DivideFan(float(x0), False, lo, hi)

    def verify_divide(self, x0, c, L):
        """Phi(x0 + l) - Phi(x0) - c l >= 0 on 4001 points of [-L, L]."""
        if not (np.isfinite(x0) and np.isfinite(c) and np.isfinite(L)):
            raise ValueError("x0, c and L must be finite")
        ls = np.linspace(-L, L, 4001)
        vals = (self.data.primitive(x0 + ls) - self.data.primitive(x0)
                - c * ls)
        tol = 1e-9 * (1.0 + float(np.max(np.abs(vals))))
        return bool(np.min(vals) >= -tol)

    def partition(self):
        try:
            hull = self.convex_hull()
        except HullInfinite as err:
            raise NoDivides(str(err)) from err
        if not hull.K0:
            raise NoDivides("the contact set of the envelope is empty")
        regions = []
        P = self.data.primitive
        for comp in hull.K0:
            regions.append(Region("divide", comp, np.nan))
        for (lo1, hi1), (lo2, hi2) in zip(hull.K0, hull.K0[1:]):
            e, h = hi1, lo2
            c = float((P(h) - P(e)) / (h - e))
            regions.append(Region("gap", (e, h), c))
        if hull.period is not None:
            # wrap-around gap of the tiled contact set
            e = hull.K0[-1][1]
            h = hull.K0[0][0] + self.data.period
            if h - e > 1e-12:
                c = float((P(h) - P(e)) / (h - e))
                regions.append(Region("gap", (e, h), c))
        else:
            if not hull.left_unbounded:
                regions.append(Region("left_infinite",
                                      (-np.inf, hull.K0[0][0]),
                                      hull.slope_left))
            if not hull.right_unbounded:
                regions.append(Region("right_infinite",
                                      (hull.K0[-1][1], np.inf),
                                      hull.slope_right))
        return Partition(tuple(regions))

    # -- asymptotic profiles ----------------------------------------------

    def _fan(self, x, foot, t):
        """Value at x of the centred rarefaction fan from (foot, 0);
        elementwise on arrays x and foot."""
        fl = self.flux
        M = self.data.bound + 1.0
        v = np.minimum(np.maximum((x - foot) / t, fl.deriv(-M)), fl.deriv(M))
        return fl.invert_deriv(v, (-M, M))

    def profile_u_tilde(self, x, t):
        """Rarefaction-constant profile: the solution with envelope data.

        The envelope's derivative is slopes[i] between vertices i-1 and i,
        so the solution is slopes[i] on the band its segment's
        characteristics sweep and a centred fan at each vertex.
        """
        _check_point(x, t)
        return float(self._profile(np.array([x], dtype=float), t)[0])

    def _profile(self, xs, t):
        """``profile_u_tilde`` at every x of the array xs: one searchsorted
        places the points on the segments and fans, and one
        ``invert_deriv`` call gives every fan value."""
        hull = self.convex_hull()
        vx = hull.vx
        d = t * self.flux.deriv(hull.slopes)
        # vertex j fans out over [vx[j] + d[j], vx[j] + d[j + 1])
        j = np.searchsorted(vx + d[1:], xs, side="right")
        u = hull.slopes[j]
        fan = (j < len(vx)).nonzero()[0]
        fan = fan[xs[fan] >= (vx + d[:-1])[j[fan]]]
        if len(fan):
            u[fan] = self._fan(xs[fan], vx[j[fan]], t)
        return u

    def nwave(self, x, t, shock_positions=None):
        """Generalized N-wave profile; ``shock_positions`` is a dict from gap
        index to x, and a gap it leaves out moves its midpoint at its speed."""
        _check_point(x, t)
        hull = self.convex_hull()
        fl = self.flux
        part = self.partition()
        gaps = [r for r in part.regions if r.kind == "gap"]
        xq = x
        if hull.period is not None:
            # work in the tile containing the backward foot
            shift = self.data._tile(x - t * fl.deriv(hull.slope_left))
            xq = x - shift * self.data.period
        for n, r in enumerate(gaps):
            e, h = r.interval
            left = e + t * fl.deriv(r.speed)
            right = h + t * fl.deriv(r.speed)
            if left < xq < right:
                xn = (shock_positions or {}).get(n)
                if xn is None:
                    xn = 0.5 * (e + h) + t * fl.deriv(r.speed)
                return float(self._fan(xq, e if xq < xn else h, t))
        return self.profile_u_tilde(x, t)

    # -- decay measurement -------------------------------------------------

    def measure_decay(self, norm, region, t_list, target=None):
        """Fit ||u - target||(t) ~ C t^e on the given region (lo, hi).

        ``norm`` in {"sup", "l1", "l2"}; target defaults to the
        rarefaction-constant profile.  Returns (exponent, constant, series)
        with series = [(t, value)].  At each t, u+ on 801 points of the
        region is one maximization of ``solve_grid`` read as an array
        (``GeneralProblem._maximize_grid``), and the default profile one
        array evaluation; a ``target`` callable is called point by point.
        An unknown norm, a region that is not finite or has lo >= hi, a
        time that is not finite and positive, or fewer than two distinct
        times raise ValueError before any solve.
        """
        if norm not in ("sup", "l1", "l2"):
            raise ValueError(f"unknown norm {norm!r}")
        lo, hi = region
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("region must be finite, with lo < hi")
        t_list = [_checked_t(float(t)) for t in t_list]
        if len(set(t_list)) < 2:
            raise ValueError("need at least two distinct times")
        xs = np.linspace(lo, hi, 801)
        series = []
        for t in t_list:
            us = self.problem._maximize_grid(xs, t).u_plus
            if target is None:
                tv = self._profile(xs, t)
            else:
                tv = np.array([target(x, t) for x in xs])
            diff = np.abs(us - tv)
            if norm == "sup":
                val = float(np.max(diff))
            elif norm == "l1":
                val = float(np.trapezoid(diff, xs))
            else:
                val = float(np.sqrt(np.trapezoid(diff ** 2, xs)))
            series.append((t, val))
        ts = np.log([t for t, _ in series])
        vs = np.log([max(v, 1e-300) for _, v in series])
        slope, intercept = np.polyfit(ts, vs, 1)
        return float(slope), float(np.exp(intercept)), series
