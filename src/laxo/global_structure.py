"""Global long-time structure: hulls, divides, partition, asymptotic profiles.

The lower convex envelope of the primitive controls everything here: its
contact set K0 locates the divides, the gaps between contact components
carry one persistent shock each, and the envelope's derivative is the
initial data of the rarefaction-constant profile the solution decays to.
"""

from dataclasses import dataclass

import numpy as np

from ._search import bisect_many, runs
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
    segment slopes, then ``slope_right``.  Periodic data are tailed data
    whose two tail slopes are both the period mean, so one builder serves
    both.  The primitive is sampled at steps of 1e-3 max(window width, 1),
    over the window (joined with [-N, N] on tailed data when N is given),
    and at every point where phi breaks (``data.breakpoints``).  The
    vertices lie between the tangencies of the two tail lines, and only the
    nodes strictly below the chord joining those tangencies can be vertices
    (``_envelope``).  K0 is the runs of nodes within ``hull_tol`` of the
    envelope.  A run no wider than 1.5 steps that lies on a tail line of
    slope s is one contact: its lowest node where that node is a kink of
    the primitive, such as a knot of sampled data, else the root of
    phi - s, where Phi - s x is lower there; the ends of wider runs and
    contacts between the tangencies stay at nodes.  On periodic data the
    last component is dropped where it is the first a period on.  K0 is
    never empty: it holds the envelope's first vertex.
    ``gaps`` is the gap table that ``partition`` and the N-wave read.
    """

    def __init__(self, data, N):
        self.period = data.period
        ti = data.tail_invariants()
        sl = self.slope_left = ti.ubar_l
        sr = self.slope_right = ti.ulow_r
        if sl > sr + 1e-12:
            raise HullInfinite("left tail mean exceeds right tail mean")
        self.finite = True
        h = 1e-3 * max(data.w_hi - data.w_lo, 1.0)
        lo, hi = data.w_lo, data.w_hi
        if self.period is None and N is not None:
            lo, hi = min(lo, -abs(N)), max(hi, abs(N))
        xs = self.xs = _nodes(data, lo, hi, h)
        ys = data.primitive(xs)
        self.hull_tol = HULL_TOL_SCALE * (1.0 + float(np.max(np.abs(
            ys - sl * xs))))
        self._envelope(xs, ys)
        ij = runs(ys - self.value(xs) <= self.hull_tol)
        K0 = [(float(xs[i]), float(xs[j])) for i, j in ij]
        # a short run on a tail line of slope s is its lowest node n, or
        # where n is no kink, the root of phi - s next to it
        kink, short = np.isin(xs, data.breakpoints()[0]), []
        for k, (i, j) in enumerate(ij):
            s = (sl if sl == sr or xs[i] <= self.vx[0] else
                 sr if xs[j] >= self.vx[-1] else None)
            if s is not None and xs[j] - xs[i] <= 1.5 * h:
                n = i + int(np.argmin(ys[i:j + 1] - s * xs[i:j + 1]))
                K0[k] = (float(xs[n]),) * 2
                short += [] if kink[n] else [(k, n, s)]
        if short:
            k, n, s = (np.array(v) for v in zip(*short))
            a, b = bisect_many(lambda u, o: data.phi(u) < s[o], xs[n] - h,
                               xs[n] + h, 1e-12)
            x = 0.5 * (a + b)
            y = data.primitive(x)
            take = y - s * x < ys[n] - s * xs[n]
            for q, r in zip(k[take].tolist(), x[take].tolist()):
                K0[q] = (r, r)
            if take.any():
                xs, ys = np.append(xs, x[take]), np.append(ys, y[take])
                o = np.argsort(xs)
                self._envelope(xs[o], ys[o])
        if self.period is not None:
            if len(K0) > 1 and abs(K0[-1][0] - self.period - K0[0][0]) <= 2 * h:
                K0 = K0[:-1]       # same divide modulo the period
            self.left_unbounded = self.right_unbounded = False
        else:
            ends = np.array([data.w_lo, data.w_hi])
            self.left_unbounded, self.right_unbounded = (np.abs(
                data.primitive(ends) - np.array([sl, sr]) * ends
                - [self.b_left, self.b_right]) <= self.hull_tol).tolist()
        self.K0 = tuple(K0)
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

    def _envelope(self, xs, ys):
        """Set the envelope of the nodes (xs, ys): the tail lines touch it
        at the first node lowest under the left slope and the last lowest
        under the right one, and its vertices, with slopes[i] left of vertex
        i, are the lower hull of the nodes between that lie strictly below
        the chord joining those two."""
        sl, sr = self.slope_left, self.slope_right
        gl, gr = ys - sl * xs, ys - sr * xs
        i = int(np.argmin(gl))
        # tail slopes within 1e-12 can cross the tangencies: keep one vertex
        j = max(i, len(xs) - 1 - int(np.argmin(gr[::-1])))
        self.b_left, self.b_right = float(gl[i]), float(gr[j])
        # the chord in Phi - sl x, flat where sl == sr
        x, g = xs[i:j + 1], gl[i:j + 1]
        below = (g - g[0]) * (x[-1] - x[0]) < (g[-1] - g[0]) * (x - x[0])
        below[[0, -1]] = True
        self.vx, self.vy = _lower_hull(x[below], ys[i:j + 1][below])
        self.slopes = np.concatenate([[sl], np.diff(self.vy) / np.diff(self.vx),
                                      [sr]])

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
