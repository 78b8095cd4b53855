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
    if not (np.isfinite(x).all() and np.isfinite(t) and t > 0):
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
    window joined with [-N, N] when N is given, and at every point where
    phi breaks (``data.breakpoints``): a contact at a kink of the
    primitive, such as a knot of sampled data, is a node, so K0 holds it
    exactly.  K0 is never empty: on tailed data it holds every vertex of
    the envelope, each a node where the envelope meets the primitive, and
    on periodic data the node where the primitive less the mean line is
    least.
    ``gaps`` is the gap table that ``partition`` and the N-wave read.
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
        # the gap table (e, h, c) of arrays: the gap (e, h) between each two
        # consecutive K0 components, then on periodic data the wrap gap from
        # the last one to the first one a period on, where wider than
        # 1e-12, and c, each gap's chord speed
        K0 = np.array(self.K0, dtype=float).reshape(-1, 2)
        e, h = K0[:-1, 1], K0[1:, 0]
        if self.period is not None and (
                K0[0, 0] + self.period - K0[-1, 1] > 1e-12):
            e, h = np.append(e, K0[-1, 1]), np.append(h, K0[0, 0] + self.period)
        self.gaps = (e, h, (data.primitive(h) - data.primitive(e)) / (h - e))

    # -- construction ------------------------------------------------------

    def _build_periodic(self, data, h):
        m = self.slope_left
        xs = _nodes(data, data.w_lo, data.w_hi, h)
        g = data.primitive(xs) - m * xs
        self.hull_tol = HULL_TOL_SCALE * (1.0 + float(np.max(np.abs(g))))
        b0 = float(np.min(g))
        # one lockstep golden refinement of every short minimizer cluster;
        # one lowest at a kink of the primitive keeps that node, exactly
        ij = runs(g - b0 <= self.hull_tol)
        refined = [(float(xs[i]), float(xs[j])) for i, j in ij]
        short = [k for k, (lo, hi) in enumerate(refined)
                 if hi - lo <= h * 1.5]
        if short:
            lo, hi = np.array([refined[k] for k in short]).T
            x_star = golden_many(lambda x, _: data.primitive(x) - m * x,
                                 lo - h, hi + h, 1e-12)
            b0 = min(b0, float(np.min(data.primitive(x_star) - m * x_star)))
            kink = np.isin(xs, data.breakpoints()[0])
            for k, x in zip(short, x_star.tolist()):
                low = ij[k][0] + int(np.argmin(g[ij[k][0]:ij[k][1] + 1]))
                refined[k] = (float(xs[low]),) * 2 if kink[low] else (x, x)
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
        xs = _nodes(data, lo, hi, h)
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
        vx = self.vx
        # the right tail's line from the last vertex on, else the left
        # tail's up to the first, else the segments
        out = np.where(x >= vx[-1], self.slope_right * x + self.b_right,
                       np.where(x <= vx[0], self.slope_left * x + self.b_left,
                                np.interp(x, vx, self.vy)))
        return float(out) if out.ndim == 0 else out

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


def _nodes(data, lo, hi, h):
    """The hull's nodes on [lo, hi]: the h-grid joined with lo, hi and the
    points where phi breaks (``data.breakpoints``), so the primitive's
    kinks are nodes.  One node per breakpoint: grid nodes that round onto
    one are dropped."""
    brk = np.unique(np.concatenate([[lo, hi], data.breakpoints()[0]]))
    grid = np.arange(lo, hi + 0.5 * h, h)
    ends = np.concatenate([[-np.inf], brk, [np.inf]])
    i = np.searchsorted(ends, grid)
    near = np.minimum(grid - ends[i - 1], ends[i] - grid) <= 1e-9 * h
    return np.union1d(grid[~near], brk)


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
            if not np.isfinite(N):
                raise ValueError("the hull half-width N must be finite")
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
        regions = [Region("divide", comp, np.nan) for comp in hull.K0]
        regions += [Region("gap", (e, h), c)
                    for e, h, c in zip(*(v.tolist() for v in hull.gaps))]
        if hull.period is None:
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
        return float(self._profile(np.array([x], dtype=float), t)[0])

    def _profile(self, xs, t):
        """``profile_u_tilde`` at every x of the array xs: one searchsorted
        places the points on the segments and fans, and one
        ``invert_deriv`` call gives every fan value."""
        _check_point(xs, t)
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

    def nwave(self, x, t):
        """Generalized N-wave profile: the shock of each gap of the
        partition is its midpoint moved at its speed, and the profile
        elsewhere is ``profile_u_tilde``; the one-point case of
        ``_nwave``."""
        return float(self._nwave(np.array([x], dtype=float), t)[0])

    def _nwave(self, xs, t):
        """``nwave`` at every x of the array xs.  On periodic data each x
        is shifted by the tile (``_tile``) of its backward foot
        x - t f'(m) counted from the first divide K0[0][0], where the gap
        table's wrap gap ends, not from w_lo; the bands that the
        gaps of the hull's gap table sweep, (e, h) + t f'(c), are disjoint
        and in order, so one searchsorted finds the band that holds each
        point, whose value is the fan from the gap's end on its side of
        the shock (one ``_fan`` call), and every other point takes
        ``_profile``.  A bad x or t raises ValueError, and data whose
        envelope is -inf HullInfinite."""
        _check_point(xs, t)
        hull = self.convex_hull()
        xq = xs
        if hull.period is not None:
            xq = xs - hull.period * self.data._tile(
                xs - t * self.flux.deriv(hull.slope_left), hull.K0[0][0])
        e, h, c = hull.gaps
        d = t * self.flux.deriv(c)
        # k: the first band whose right edge lies right of x; an x right of
        # every band reads the inf edges, and so lies in none
        k = np.searchsorted(np.append(h + d, np.inf), xq, side="right")
        band = (np.append(e + d, np.inf)[k] < xq).nonzero()[0]
        u = self._profile(xs, t)
        if len(band):
            x, k = xq[band], k[band]
            shock = 0.5 * (e[k] + h[k]) + d[k]
            u[band] = self._fan(x, np.where(x < shock, e[k], h[k]), t)
        return u

    # -- decay measurement -------------------------------------------------

    def measure_decay(self, norm, region, t_list, target=None):
        """Fit ||u - target||(t) ~ C t^e on the given region (lo, hi).

        ``norm`` in {"sup", "l1", "l2"}; target defaults to the
        rarefaction-constant profile.  Returns (exponent, constant, series)
        with series = [(t, value)].  At each t, u+ on 801 points of the
        region is one maximization of ``solve_grid`` read as an array
        (``GeneralProblem._maximize_grid``).  The default profile, and a
        ``target`` that is this object's own ``profile_u_tilde`` or
        ``nwave``, are one array evaluation (``_profile``, ``_nwave``),
        each value the point call's bit for bit; any other ``target`` is
        called point by point.
        An unknown norm, a region that is not finite or has lo >= hi, a
        time that is not finite and positive, or fewer than two distinct
        times raise ValueError before any solve, and a ``target`` value that
        is not finite raises ValueError before the solve at its time.
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
        # compared, not hashed: a callable target need not be hashable
        array = (self._profile if target is None or self.profile_u_tilde ==
                 target else self._nwave if self.nwave == target else lambda
                 xs, t: np.array([target(x, t) for x in xs], dtype=float))
        for t in t_list:
            tv = array(xs, t)
            if target is not None and not np.isfinite(tv).all():
                raise ValueError("target values must be finite")
            us = self.problem._maximize_grid(xs, t).u_plus
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
