"""Global long-time structure: hulls, divides, partition, asymptotic profiles.

The lower convex envelope of the primitive controls everything here: its
contact set K0 locates the divides, the gaps between contact components
carry one persistent shock each, and the envelope's derivative is the
initial data of the rarefaction-constant profile the solution decays to.
"""

from dataclasses import dataclass

import numpy as np

from ._search import golden_min, runs
from .errors import HullInfinite, NoDivides

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
    of the mean slope, one vertex at w_lo with both tails on it.
    """

    def __init__(self, structure, N, grid_h):
        data = structure.data
        self.period = data.period
        ti = data.tail_invariants()
        self.slope_left = ti.ubar_l
        self.slope_right = ti.ulow_r
        if self.slope_left > self.slope_right + 1e-12:
            raise HullInfinite("left tail mean exceeds right tail mean")
        self.finite = True
        w = max(data.w_hi - data.w_lo, 1.0)
        h = grid_h if grid_h is not None else 1e-3 * w
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
        # golden refinement of each discrete minimizer cluster
        refined = []
        for i, j in runs(g - b0 <= self.hull_tol):
            lo, hi = float(xs[i]), float(xs[j])
            if hi - lo <= h * 1.5:
                x_star = golden_min(lambda x: float(data.primitive(x) - m * x),
                                    lo - h, hi + h, 1e-12)
                b0 = min(b0, float(data.primitive(x_star) - m * x_star))
                refined.append((x_star, x_star))
            else:
                refined.append((lo, hi))
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
        i_r = len(vx) - 1 - int(np.argmin(gr[::-1]))
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

    def convex_hull(self, N=None, grid_h=None):
        if self._hull is None or N is not None or grid_h is not None:
            self._hull = HullReport(self, N, grid_h)
        return self._hull

    def divide_fan(self, x0):
        hull = self.convex_hull()
        gap = float(self.data.primitive(x0)) - float(hull.value(x0))
        if gap > hull.hull_tol:
            return DivideFan(float(x0), True)
        lo, hi = hull.slopes_at(x0)
        return DivideFan(float(x0), False, lo, hi)

    def verify_divide(self, x0, c, L, n=4001, check_tol=None):
        ls = np.linspace(-L, L, n)
        vals = (self.data.primitive(x0 + ls) - self.data.primitive(x0)
                - c * ls)
        tol = check_tol if check_tol is not None else \
            1e-9 * (1.0 + float(np.max(np.abs(vals))))
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
        """Value at x of the centred rarefaction fan from (foot, 0)."""
        fl = self.flux
        M = self.data.bound + 1.0
        v = min(max((x - foot) / t, fl.deriv(-M)), fl.deriv(M))
        return float(fl.invert_deriv(v, (-M, M)))

    def profile_u_tilde(self, x, t):
        """Rarefaction-constant profile: the solution with envelope data.

        The envelope's derivative is slopes[i] between vertices i-1 and i,
        so the solution is slopes[i] on the band its segment's
        characteristics sweep and a centred fan at each vertex.
        """
        _check_point(x, t)
        hull = self.convex_hull()
        vx = hull.vx
        d = t * self.flux.deriv(hull.slopes)
        # vertex j fans out over [vx[j] + d[j], vx[j] + d[j + 1])
        j = int(np.searchsorted(vx + d[1:], x, side="right"))
        if j < len(vx) and x >= vx[j] + d[j]:
            return self._fan(x, vx[j], t)
        return float(hull.slopes[j])

    def nwave(self, x, t, shock_positions=None):
        """Generalized N-wave profile; shock positions supplied per gap."""
        _check_point(x, t)
        hull = self.convex_hull()
        fl = self.flux
        part = self.partition()
        gaps = [r for r in part.regions if r.kind == "gap"]
        xq = x
        if hull.period is not None:
            # work in the tile containing the backward foot
            p = self.data.period
            shift = np.floor((x - t * fl.deriv(hull.slope_left)
                              - self.data.w_lo) / p)
            xq = x - shift * p
        for n, r in enumerate(gaps):
            e, h = r.interval
            left = e + t * fl.deriv(r.speed)
            right = h + t * fl.deriv(r.speed)
            if left < xq < right:
                xn = None
                if shock_positions is not None:
                    xn = shock_positions.get(n) if hasattr(shock_positions, "get") \
                        else shock_positions[n]
                if xn is None:
                    xn = 0.5 * (e + h) + t * fl.deriv(r.speed)
                return self._fan(xq, e if xq < xn else h, t)
        return self.profile_u_tilde(x, t)

    # -- decay measurement -------------------------------------------------

    def measure_decay(self, norm, region, t_list, target=None):
        """Fit ||u - target||(t) ~ C t^e on the given region.

        ``norm`` in {"sup", "l1", "l2"}; target defaults to the
        rarefaction-constant profile.  Returns (exponent, constant, series)
        with series = [(t, value)].
        """
        lo, hi = region
        xs = np.linspace(lo, hi, 801)
        series = []
        for t in t_list:
            us = np.array([s.u_plus for s in self.problem.solve_grid(xs, t)])
            if target is None:
                tv = np.array([self.profile_u_tilde(x, t) for x in xs])
            else:
                tv = np.array([target(x, t) for x in xs])
            diff = np.abs(us - tv)
            if norm == "sup":
                val = float(np.max(diff))
            elif norm == "l1":
                val = float(np.trapezoid(diff, xs))
            elif norm == "l2":
                val = float(np.sqrt(np.trapezoid(diff ** 2, xs)))
            else:
                raise ValueError(f"unknown norm {norm!r}")
            series.append((float(t), val))
        ts = np.log([t for t, _ in series])
        vs = np.log([max(v, 1e-300) for _, v in series])
        slope, intercept = np.polyfit(ts, vs, 1)
        return float(slope), float(np.exp(intercept)), series
