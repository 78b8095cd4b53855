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

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._search import bisect_many, golden_many, padded_runs, secant_many
from .flux import GeneralFluxPair
from .initial_data import SampledData, _Extended, _interval

N_SCAN = 2048
VAL_TOL = 1e-9
JUMP_TOL = 1e-6
TOL_U = 1e-12
# scan cells one block holds, summed over its rows' u-windows, the only
# bound on a block: 8 rows over the whole default grid of n_scan cells.  A
# block also costs a fixed 0.3-0.5 ms, about the scan of this many cells at
# 30-40 ns each (2-core Xeon, numpy 2.4), so rows that all share one window
# may fill twice this (rows of many windows gather more temporaries)
BLOCK_ELEMS = 1 << 14
# freeing a 1 MB array raises glibc's mmap threshold (128 kB at start) above
# a block's temporaries of up to ~260 kB, else unmapped on free and faulted
# in anew
np.empty(1 << 17)
# offsets of the grid neighbours lo, j, hi of a local-maximum run's middle j
_NEIGHBOURS = np.array([[-1], [0], [1]])
# |psi''| / 2 on a bracket is taken as this many times the grid's estimate
_SECANT_SAFETY = 4.0
# the inner points k of linspace(lo, hi, 7), at lo + k (hi - lo) / 6
_PROBES = np.arange(1.0, 6.0)


def _checked_t(t):
    if not (math.isfinite(t) and t > 0):
        raise ValueError("x and t must be finite, with t positive")
    return float(t)


def _identity(a):
    return a


def _at(t, k):
    """The times of the rows k: t[k] for an array of one t per row, else t."""
    return t[k] if isinstance(t, np.ndarray) else t


@dataclass(frozen=True)
class MaximizerSet:
    components: tuple          # sorted tuple of (lo, hi) closed intervals
    u_plus: float
    u_minus: float
    max_value: float


class _Rows:
    """The maximizer sets of many rows, as arrays.

    ``u_plus``, ``u_minus`` and ``max_value`` hold one float per row, and
    ``redo`` marks the rows whose u-window may have cut off a maximizer,
    left for a scan of the whole grid.  Row q's components are the
    intervals [lo[k], hi[k]] with own[k] == q, in order; ``own`` is sorted.
    ``sets`` builds the ``MaximizerSet``s, for the callers that return them.
    """

    __slots__ = ("u_plus", "u_minus", "own", "lo", "hi", "max_value", "redo")

    def __init__(self, u_plus, u_minus, own, lo, hi, max_value, redo):
        self.u_plus, self.u_minus = u_plus, u_minus
        self.own, self.lo, self.hi = own, lo, hi
        self.max_value, self.redo = max_value, redo

    def sets(self):
        """Each row's MaximizerSet, None for a row of ``redo``."""
        cut = np.searchsorted(self.own, np.arange(len(self.redo) + 1)).tolist()
        lo, hi = self.lo.tolist(), self.hi.tolist()
        return [None if r else MaximizerSet(tuple(zip(lo[a:b], hi[a:b])),
                                            up, um, e)
                for r, a, b, up, um, e in zip(
                    self.redo.tolist(), cut, cut[1:], self.u_plus.tolist(),
                    self.u_minus.tolist(), self.max_value.tolist())]

    @staticmethod
    def join(parts, m):
        """m rows from parts (q, rows): the rows q of the result are the
        rows of the part, a later part's over an earlier one's, its
        components too.  The components of the parts' ``redo`` rows are
        left out."""
        vals = np.empty((3, m))
        redo = np.zeros(m, dtype=bool)
        last = np.empty(m, dtype=np.intp)       # the part that gives row q
        for i, (q, p) in enumerate(parts):
            vals[:, q] = p.u_plus, p.u_minus, p.max_value
            redo[q] = p.redo
            last[q] = i
        own = [np.zeros(0, dtype=np.intp)]
        lo, hi = [np.zeros(0)], [np.zeros(0)]
        for i, (q, p) in enumerate(parts):
            k = ~p.redo[p.own] & (last[q[p.own]] == i)
            own.append(q[p.own[k]])
            lo.append(p.lo[k])
            hi.append(p.hi[k])
        own, lo, hi = (np.concatenate(v) for v in (own, lo, hi))
        k = np.argsort(own, kind="stable")
        return _Rows(vals[0], vals[1], own[k], lo[k], hi[k], vals[2], redo)


@dataclass(frozen=True)
class SolutionSample:
    x: float
    t: float
    u_minus: float
    u_plus: float
    is_shock: bool
    maximizer: MaximizerSet


class _NumericPrimitive(_Extended):
    """Vectorized primitive of U(phi) for piecewise-analytic data, W(0) = 0.

    The knot table holds W at 256 panels per piece, 64 per period for a
    faster sin or cos piece, plus, for a power piece, its reference point and
    knots graded geometrically toward it, where U(phi) may have a kink or a
    jump.  Every panel is integrated in one call by an 8-point Gauss-Legendre
    rule; a point between knots adds a Simpson step from its base knot, with
    U(phi) at the knots tabulated.  Off the window W follows the data's
    periodicity or the constant tails U(phi(w_lo - 1)) and U(phi(w_hi + 1)).
    Sampled data need no quadrature: U(phi) is piecewise constant there, so
    ``GeneralProblem`` builds W as a ``SampledData`` primitive.
    """

    def __init__(self, U, data):
        self._U = U
        self._d = data
        self.w_lo, self.w_hi, self.period = data.w_lo, data.w_hi, data.period
        self._x_max = data._x_max
        bks = [p.lo for p in data.pieces] + [data.w_hi]
        knots = [np.array([data.w_lo])]
        for p, a, b in zip(data.pieces, bks[:-1], bks[1:]):
            n = 256
            if p.kind in ("sin", "cos"):    # 64 panels per period
                n = max(n, math.ceil(64.0 * abs(p.params["b"]) * (b - a)
                                     / (2.0 * math.pi)))
            ks = np.linspace(a, b, n + 1)[1:]
            if p.kind == "power":
                # graded toward the kink or jump at x_ref (Davis & Rabinowitz,
                # Methods of Numerical Integration, 2.12)
                x_ref = p.params["x_ref"]
                d = (ks[0] - a) * 0.5 ** np.arange(41)
                g = np.concatenate([[x_ref], x_ref - d, x_ref + d])
                ks = np.concatenate([ks, g[(a < g) & (g < b)]])
            knots.append(ks)
        self._k = np.unique(np.concatenate(knots))
        # the rule is built here, not at import: its first call loads LAPACK
        nodes, weights = np.polynomial.legendre.leggauss(8)
        half = 0.5 * np.diff(self._k)
        pts = (self._k[:-1] + half)[:, None] + half[:, None] * nodes
        panels = half * (self._inner_phi(pts.ravel()).reshape(pts.shape)
                         @ weights)
        self._v = np.concatenate([[0.0], np.cumsum(panels)])
        self._fk = self._inner_phi(self._k)
        self._win = self._v[-1]
        if self.period is None:
            self.left_tail = U(data.phi(data.w_lo - 1.0))
            self.right_tail = U(data.phi(data.w_hi + 1.0))
        self._normalize()

    def _inner_phi(self, r):
        return self._U(self._d._inner_phi(r))

    def _inner_primitive(self, r):
        idx = _interval(self._k, r, len(self._k) - 2)
        x0 = self._k[idx]
        h = r - x0
        f = self._inner_phi
        # Simpson from the base knot; knots never straddle data breakpoints
        return self._v[idx] + h / 6.0 * (self._fk[idx]
                                         + 4.0 * f(x0 + 0.5 * h) + f(r))


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
        # the data of U(phi), whose primitive is W
        if pair.U is _identity:
            Ud = data
        elif data.is_sampled:
            # U(phi) is piecewise constant between knots, like phi
            Ud = SampledData(data.xs, pair.U(data.us), data.period)
        else:
            Ud = _NumericPrimitive(pair.U, data)
        self._W = Ud.primitive
        M = data.bound
        self.M = M
        delta = 1e-6 * (1.0 + M)
        self._s = np.linspace(-M - delta, M + delta, self.n_scan + 1)
        h = self._h = float(self._s[1] - self._s[0])
        # |psi''| / 2 per unit of a second difference on the grid
        self._curv = _SECANT_SAFETY / (2.0 * h * h)
        self._Hs = np.ascontiguousarray(self._H(self._s), dtype=float)
        self._Hps = np.asarray(self._Hp(self._s), dtype=float)
        self._H0 = float(self._H(0.0))
        self._I0 = float(self._H0 * self._U(0.0) - self._F(0.0))
        # int_0^s H'(r) U(r) dr along the grid
        Us = np.asarray(self._U(self._s), dtype=float)
        self._Is = self._Hs * Us - np.asarray(self._F(self._s)) - self._I0
        # the window of one row over the whole grid: start 0, width n
        self._whole = np.zeros(1, dtype=np.intp), np.full(1, len(self._s))
        # backward characteristics keep their order where H and U rise
        self._ordered = bool((np.diff(self._Hs) >= 0.0).all()
                             and (np.diff(Us) >= 0.0).all())
        # periodic data: after t_w every solve scans within ``_window``.
        # H_mean holds H(c_lo) and H(c_hi), c_lo the last and c_hi the first
        # grid point with U(c_lo) < Ubar < U(c_hi), Ubar the period mean of
        # U(phi): a bracket on U's grid values, so U is never inverted
        self._t_w = np.inf
        span = self._Hs[-1] - self._Hs[0]
        if self._ordered and data.period is not None and span > 0.0:
            ubar = Ud.tail_invariants().ubar_l
            c_lo = max(int(np.searchsorted(Us, ubar, "left")) - 1, 0)
            c_hi = min(int(np.searchsorted(Us, ubar, "right")), len(Us) - 1)
            self._H_mean = float(self._Hs[c_lo]), float(self._Hs[c_hi])
            self._t_w = 2.0 * data.period / span
        # phi's breakpoints y, its limits there and H of them, for the
        # exact roots of psi; on periodic data y runs on over a second
        # period, and breakpoint j of it is breakpoint j % len(left)
        self._jumps = None
        y, left, right = data.breakpoints()
        if self._ordered and len(y):
            if data.period is not None:
                y = np.concatenate([y, y + data.period])
            self._jumps = (y, left, right, np.asarray(self._H(left), float),
                           np.asarray(self._H(right), float))

    # -- scalar helpers ---------------------------------------------------

    def eval_E(self, u, x, t):
        """E(u; x, t), exact given the primitive and the pair's F."""
        if not (math.isfinite(u) and math.isfinite(x)):
            raise ValueError("u, x and t must be finite, with t positive")
        t = _checked_t(t)
        return float(self._E(self._W(x - t * self._H0), u, x, t))

    def _E(self, W0, u, x, t):
        """E(u; x, t) given W0 = W(x - t H(0)); elementwise on arrays."""
        Hu = self._H(u)
        return (W0 - self._W(x - t * Hu)
                - t * (Hu * self._U(u) - self._F(u) - self._I0))

    def _psi(self, u, x, t):
        """sign(dE/du) carrier U(phi(x - t H(u))) - U(u) on an array of u."""
        return self._U(self.data.phi(x - t * self._H(u))) - self._U(u)

    # -- maximization ------------------------------------------------------

    def maximize(self, x, t):
        """Certified maximizer set of E(.; x, t).

        ``_blocks`` on the one row x over the u-window of ``_window``, as
        ``_maximize_grid`` scans a short grid.  A point of a long grid that
        is scanned over a narrower u-window gets the same ``MaximizerSet``,
        bit for bit, wherever its kept runs and value bands lie inside that
        window (see ``_maximize_block``).
        """
        if not math.isfinite(x):
            raise ValueError("x and t must be finite, with t positive")
        t = _checked_t(t)
        return self._blocks(np.array([x], dtype=float), t,
                            *self._window(t)).sets()[0]

    def _cells(self, lo, hi, a, b):
        """The u-windows (start, width) of the H-intervals [lo, hi]: the
        grid indices whose H lies there, widened by 2 cells and clipped to
        the indices [a, b), at least 2 points."""
        start = np.minimum(np.maximum(
            np.searchsorted(self._Hs, lo, "left") - 2, a), b - 2)
        stop = np.minimum(np.searchsorted(self._Hs, hi, "right") + 2, b)
        return start, np.maximum(stop - start, 2)

    def _window(self, t):
        """The u-window of every row at time t, as one-row arrays (start,
        width) of grid indices: ``_whole``, but on periodic data after t_w.

        The period mean Ubar of U(phi) is conserved, so within a period
        left of x (at x' <= x) and one right of it (at x'' >= x) lie points
        whose maximizers have U(u') <= Ubar and U(u'') >= Ubar, that is
        u' < c_hi and u'' > c_lo.  Backward characteristics keep their
        order (Lax 1957; Oleinik's one-sided bound): the feet satisfy
        x' - t H(u') <= x - t H(u) <= x'' - t H(u'') for every maximizer u
        at x, so H(c_lo) - P/t <= H(u) <= H(c_hi) + P/t: the window is
        ``_cells`` of that interval, whose clips never bind, as it holds
        H(c_lo).  Before t_w = 2 P / (H(s_n) - H(s_0)), where P/t reaches
        half of H's range on the grid, on tailed data, and where H or U is
        not nondecreasing on the grid, it is the whole grid.
        """
        if not t > self._t_w:
            return self._whole
        lo, hi = self._H_mean
        P = self.data.period
        return self._cells(np.array([lo - P / t]), np.array([hi + P / t]), 0,
                           len(self._s))

    def _maximize_grid(self, xs, t):
        """The maximizer sets at the x of a nondecreasing grid, at a time t
        its caller has checked, as ``_Rows`` in the order of xs.

        This is the internal entry of every grid solve: ``solve_grid``
        sorts its distinct points, calls it and builds the MaximizerSets;
        ``restart`` and ``GlobalStructure.measure_decay`` read the u+ array
        and build none, and the levels read u+ and u-.

        Every row scans within the u-window of ``_window``: the whole grid,
        or on periodic data after t_w the window the period mean allows.  A
        grid of at most ``2 * BLOCK_ELEMS`` cells, its points times the
        window's cells (n_scan on the whole grid: 16 points by default), is
        one ``_blocks`` call and one block: a level would save fewer cells
        than the fixed cost of the block it adds.  A grid where H or U is
        not nondecreasing on the grid (a ``custom`` flux, say) is one
        ``_blocks`` call too, packed over the whole grid.  A longer grid is
        maximized in levels.  Level 0 scans ``BLOCK_ELEMS // cells``
        evenly spaced points, at least 2, both ends included, over the
        window, one block.  Each later level maximizes the middle point q
        of every unsolved gap (a, b) over the u-window that the
        ordering of backward characteristics leaves it (Lax 1957): for
        x_a < x_q < x_b every maximizer foot x - t H(u) at x_q lies between
        the rightmost foot at x_a and the leftmost at x_b, so H(u) lies in
        [H(u_b-) - (x_b - x_q)/t, H(u_a+) + (x_q - x_a)/t].  The window is
        ``_cells`` of that interval within the window of ``_window``.  Once
        the unsolved rows' windows hold at most four blocks of cells, one
        level takes them all: a further level costs blocks that the
        narrower windows would not pay back.  Rows that ``_blocks`` cannot
        certify in their window are scanned over the whole grid.
        """
        m = len(xs)
        w0, ww = (int(v[0]) for v in self._window(t))
        start, width = np.full(m, w0), np.full(m, ww)
        if m <= 1 or m * (ww - 1) <= 2 * BLOCK_ELEMS or not self._ordered:
            return self._blocks(xs, t, start, width)
        parts = []
        Hp, Hm = np.empty(m), np.empty(m)       # H(u+), H(u-) of solved rows
        solved = np.zeros(m, dtype=bool)
        k = max(2, BLOCK_ELEMS // (ww - 1))
        q = np.arange(k) * (m - 1) // (k - 1)
        start, width = start[:k], width[:k]
        while len(q):
            out = self._blocks(xs[q], t, start, width)
            parts.append((q, out))
            Hp[q], Hm[q] = self._H(np.array([out.u_plus, out.u_minus]))
            solved[q] = True
            # every unsolved row's window from its solved neighbours a, b
            ends = solved.nonzero()[0]
            q = (~solved).nonzero()[0]
            i = np.searchsorted(ends, q)
            a, b = ends[i - 1], ends[i]
            with np.errstate(over="ignore"):    # a tiny t: the whole grid
                lo = Hm[b] - (xs[b] - xs[q]) / t
                hi = Hp[a] + (xs[q] - xs[a]) / t
            start, width = self._cells(lo, hi, w0, w0 + ww)
            if (width - 1).sum() > 4 * BLOCK_ELEMS:
                # more than four blocks of cells: the middle row of each gap
                mid = q == (a + b) // 2
                q, start, width = q[mid], start[mid], width[mid]
        return _Rows.join(parts, m)

    def _blocks(self, xs, t, start, width):
        """``_maximize_block`` on rows packed in blocks of few enough cells.

        Row q scans the u-grid window start[q] ... start[q] + width[q] - 1,
        width[q] - 1 cells.  The rows are packed in their given order, each
        block as many rows as fit, at least one: rows of many windows up to
        ``BLOCK_ELEMS`` cells, the sum of their windows' cells, and rows
        that all share one window up to ``2 * BLOCK_ELEMS``; cells alone
        bound a block.  Rows that fit in one block are one
        ``_maximize_block`` call, else the blocks are joined.  A row the
        block cannot certify in its window is maximized again over the
        whole grid.  Returns the ``_Rows`` in the order of xs.
        """
        m = len(xs)
        if m <= 1:
            out = self._maximize_block(xs, t, start, width)
        else:
            many = (np.count_nonzero(start != start[0])
                    or np.count_nonzero(width != width[0]))
            bound = BLOCK_ELEMS if many else 2 * BLOCK_ELEMS
            below = np.concatenate([[0], np.cumsum(width - 1)])
            cuts = [0]
            while cuts[-1] < m:     # the cells of rows a ... b - 1 fit
                a = cuts[-1]
                b = np.searchsorted(below, below[a] + bound, "right") - 1
                cuts.append(max(a + 1, int(b)))
            if len(cuts) == 2:
                out = self._maximize_block(xs, t, start, width)
            else:
                out = _Rows.join([(np.arange(a, b), self._maximize_block(
                    xs[a:b], t, start[a:b], width[a:b]))
                    for a, b in zip(cuts, cuts[1:])], m)
        redo = out.redo.nonzero()[0]
        if len(redo):
            n = len(self._s)
            full = self._blocks(xs[redo], t, np.zeros(len(redo), dtype=np.intp),
                                np.full(len(redo), n))
            out = _Rows.join([(np.arange(m), out), (redo, full)], m)
        return out

    def _maximize_block(self, xs, t, start, width):
        """The maximizer sets at the points of the array xs, at time t, as
        ``_Rows``: arrays of u+, u-, max_value and the component ends.

        ``t`` is one time for every row, or an array of one time per row;
        only the latter builds per-row products and indexes t by row.

        Row q scans the u-grid indices start[q] ... start[q] + width[q] - 1;
        the whole grid is the window [0, n).  Rows of one window, a one-row
        block among them, broadcast the grid's values on it; rows of many
        windows lie end to end (``_flat``).  No cell is padding.  Every
        phase runs on the whole block: one W call scans the feet of every
        row, local maxima and their runs are found row-wise, ``_roots``
        refines every sign-change bracket (in closed form on sampled data
        and where the feet cross a jump of the data, checked by one psi
        call, else by lockstep probe pairs and bisection), one lockstep
        golden-section search maximizes E on the kept runs with no sign
        change, and one E call values the refined points.  The components
        are assembled for the whole block too (``_components``,
        ``_merge``): only rows of two or more components are merged in
        Python.  Rows never mix, no bracket's root reads another's, and
        numpy's elementwise results do not depend on the array around an
        element, so each row's answer is the one a block of one gives.
        Each windowed value of E is the float the whole scan computes, so a
        row whose kept runs and bands lie inside its window gets the whole
        scan's maximizer set, bit for bit.  Likewise a row of an array t
        reads only its own time, so it gets the maximizer set of a block of
        one at that time.

        A window edge that is not a grid end is never a local maximum.  A
        row is marked ``redo``, for a scan of the whole grid, when its best
        grid value, or its band within ``val_tol`` of the maximum, reaches
        such an edge.
        """
        s, n, rows = self._s, len(self._s), len(xs)
        j, w = (int(start[0]), int(width[0])) if rows else (0, n)
        # E between two columns of -inf: row q's in Ep[q], column c at grid
        # index c + j, or every row's in Ep[0] (``_flat``)
        flat = rows > 1 and bool(np.count_nonzero(start != j)
                                 or np.count_nonzero(width != w))
        if flat:
            Ep, feet, W0, Emax_grid, O, base = self._flat(xs, t, start, width)
            Ev = Ep[:, 1:-1]
        else:
            tc = t[:, None] if isinstance(t, np.ndarray) else t
            pts = np.empty((rows, w + 1))
            feet = pts[:, :w]
            np.subtract(xs[:, None], tc * self._Hs[j:j + w], out=feet)
            pts[:, w] = xs - t * self._H0
            Wp = self._W(pts.ravel()).reshape(rows, w + 1)
            W0 = Wp[:, w]
            Ep = np.empty((rows, w + 2))
            Ep[:, ::w + 1] = -np.inf
            Ev = Ep[:, 1:-1]
            np.subtract(Wp[:, w:] - Wp[:, :w], tc * self._Is[j:j + w], out=Ev)
            Emax_grid = np.maximum.reduce(Ev, axis=1)

        shift = flat or j > 0           # else column c is grid index c

        def locate(sr, c):     # rows of Ev[sr, c], column of grid index 0
            if not flat:
                return sr, -j
            r = np.searchsorted(O, c, "right") - 1
            return r, base[r]

        # the window edges that are no grid end: rows er, at the columns ec
        # of the rows esr of Ev; rows of many windows have some
        er = None
        if flat or j > 0 or j + w < n:
            in_lo, in_hi = start > 0, start + width < n
            er = np.concatenate([in_lo.nonzero()[0], in_hi.nonzero()[0]])
            c0 = O if flat else np.zeros(rows, dtype=np.intp)
            ec = np.concatenate([c0[in_lo], (c0 + width - 1)[in_hi]])
            esr = 0 if flat else er

        # local maxima; a plateau is represented by its middle point.  No
        # sentinel is one, as a cell beside it is finite
        lm = np.zeros(Ep.shape, dtype=bool)
        np.logical_and(Ev >= Ep[:, :-2], Ev >= Ep[:, 2:], out=lm[:, 1:-1])
        if er is not None:
            lm[esr, ec + 1] = False
        sr, first, last = padded_runs(lm)
        col = first + (last - first + 1) // 2
        r, d = locate(sr, col)
        # the neighbours of each run's middle, as grid indices nb and
        # columns nbc; a run's middle is a grid end or inside its window
        nb = np.minimum(np.maximum((col - d if shift else col) + _NEIGHBOURS,
                                   0), n - 1)
        nbc = nb + d if shift else nb
        carrier = (self._U(self.data.phi(feet[sr, nbc].ravel()))
                   - self._U(s[nb].ravel())).reshape(nb.shape)
        gloc = np.abs(self._Hps[nb] * carrier).max(axis=0)
        keep = ~(Ev[sr, col] + _at(t, r) * self._h * gloc
                 < Emax_grid[r] - 10.0 * self.val_tol)
        if np.count_nonzero(keep) < len(r):     # else every run stays
            r, nb, carrier = r[keep], nb[:, keep], carrier[:, keep]

        # refine: psi at the bracket ends is the carrier there; a sign
        # change is psi(lo) > 0 >= psi(hi) or psi(lo) >= 0 > psi(hi)
        pl, ph = carrier[0], carrier[2]
        sign = (pl > ph) & (pl >= 0.0) & (ph <= 0.0)
        nsign = np.count_nonzero(sign)
        u_star = np.empty(len(r))
        if nsign:
            i = sign if nsign < len(r) else slice(None)
            a, b = self._roots(xs[r[i]], _at(t, r[i]), nb[:, i], carrier[:, i])
            u_star[i] = 0.5 * (a + b)
        if nsign < len(r):
            # no sign change: maximize E itself, at the scan's W(x - tH(0))
            g = ~sign
            W0g, xg, tg = W0[r[g]], xs[r[g]], _at(t, r[g])
            u_star[g] = golden_many(
                lambda u, i: -self._E(W0g[i], u, xg[i], _at(tg, i)),
                s[nb[0, g]], s[nb[2, g]], self.tol_u)
        E_star = self._E(W0[r], u_star, xs[r], _at(t, r))

        # per row: the best value, the refined points within val_tol of it,
        # and the grid bands there
        Emax = Emax_grid.copy()
        np.maximum.at(Emax, r, E_star)
        thresh = Emax - self.val_tol
        bm = Ep >= (np.repeat(thresh, width + 2) if flat else thresh[:, None])
        br, first, last = padded_runs(bm)
        br, d = locate(br, first)
        if shift:
            first, last = first - d, last - d
        redo = np.zeros(rows, dtype=bool)
        if er is not None:
            # a window that may have cut off a maximizer: E at an inner
            # edge reaches the band or the best grid value
            reach = np.minimum(thresh, Emax_grid)[er]
            redo[er[Ev[esr, ec] >= reach]] = True
            if np.count_nonzero(redo):
                # those rows are scanned again: no search on their bands
                k = ~redo[br]
                br, first, last = br[k], first[k], last[k]
        own, lo, hi = self._components(
            lambda u, q: self._E(W0[q], u, xs[q], _at(t, q)), Emax, thresh,
            r, u_star, E_star, br, first, last)
        return _Rows(*self._merge(own, lo, hi, rows), Emax, redo)

    def _flat(self, xs, t, start, width):
        """Rows of many u-windows end to end, for ``_maximize_block``.

        Ep is one row of a -inf, each row's cells and a -inf (Blelloch,
        *Vector Models for Data-Parallel Computing*, 1990).  Column c of
        ``Ep[:, 1:-1]`` from O[q] on is row q's grid index c - base[q].  The
        feet are one gather of H; the foot at row q's first -inf is x -
        t H(0), whose W is W0[q].  Returns Ep, the feet by column, W0, each
        row's best grid value, O and base.
        """
        k = width + 2
        O = np.cumsum(k) - k                    # the first -inf of row q
        base = O - start
        # the grid index of every entry of Ep, start - 1 and start + width
        # at the -infs, clipped to the grid
        gi = np.arange(O[-1] + k[-1]) - 1 - np.repeat(base, k)
        H = self._Hs.take(gi, mode="clip")
        H[O] = self._H0
        tr = np.repeat(t, k) if isinstance(t, np.ndarray) else t
        feet = np.repeat(xs, k) - tr * H
        Wf = self._W(feet)
        W0 = Wf[O]
        Ep = np.repeat(W0, k) - Wf
        Ep -= tr * self._Is.take(gi, mode="clip")
        Ep[O] = Ep[O + k - 1] = -np.inf
        return (Ep[None], feet[None, 1:-1], W0, np.maximum.reduceat(Ep, O),
                O, base)

    def _components(self, E, Emax, thresh, r, u_star, E_star, br, first,
                    last):
        """The components of a block's rows: kept points and band maxima.

        ``E(u, q)`` is E at the points u of the rows q.  Row q's refined
        points are u_star[r == q], with E there E_star, and those where
        E >= thresh are kept, each a component [u, u].  Its bands run over
        the grid indices first[k] ... last[k] with br[k] == q; r and br are
        sorted.  A band wider than 2.5 cells whose E, at the 5 inner points
        of ``linspace(lo, hi, 7)``, stays within 1e-11 (1 + |Emax|) of the
        row's best is flat, a genuine maximizer interval: its edges on
        E >= thresh are bisected between the grid points in and out of it.
        A band that is not flat, and that no kept point of its row lies
        within 1.5 cells of, is unreached: golden sections maximize E on
        it.  All flat edges of a block are one ``bisect_many`` call and all
        unreached bands one ``golden_many`` call; each bracket's search
        reads only its own row.  Returns the components' rows, sorted, and
        their ends.
        """
        s, n, h = self._s, len(self._s), self._h
        kept = E_star >= thresh[r]
        pr, pu = r[kept], u_star[kept]
        if not len(br):
            return pr, pu, pu
        lo, hi = s[first], s[last]
        flat = (hi - lo > 2.5 * h).nonzero()[0]
        if len(flat):
            q = br[flat]
            # linspace(lo, hi, 7)[1:-1], as numpy computes it: k step + lo
            probes = (((hi[flat] - lo[flat]) / 6.0)[:, None] * _PROBES
                      + lo[flat][:, None])
            low = E(probes.ravel(), np.repeat(q, 5)).reshape(-1, 5).min(axis=1)
            flat = flat[Emax[q] - low <= 1e-11 * (1.0 + np.abs(Emax[q]))]
        # a band is reached when a kept point of its row lies within 1.5
        # cells of it: complex keys row + u i compare as (row, u), in order
        key = np.empty(len(pr), dtype=complex)
        key.real, key.imag = pr, pu
        key.sort()
        reach = np.empty((2, len(br)), dtype=complex)
        reach.real = br
        reach.imag = lo - 1.5 * h, hi + 1.5 * h
        open_ = (np.searchsorted(key, reach[0], "left")
                 == np.searchsorted(key, reach[1], "right"))
        open_[flat] = False
        comps = [(pr, pu, pu)]
        if len(flat):
            q = np.repeat(br[flat], 2)
            u, _ = bisect_many(
                lambda u, i: E(u, q[i]) >= thresh[q[i]],
                np.stack([lo[flat], hi[flat]], axis=1).ravel(),
                np.stack([s[np.maximum(first[flat] - 1, 0)],
                          s[np.minimum(last[flat] + 1, n - 1)]],
                         axis=1).ravel(), self.tol_u)
            comps.append((br[flat], u[0::2], u[1::2]))
        if np.count_nonzero(open_):
            q = br[open_]
            u = golden_many(lambda u, i: -E(u, q[i]), lo[open_], hi[open_],
                            self.tol_u)
            comps.append((q, u, u))
        if len(comps) == 1:
            return comps[0]
        own, lo, hi = (np.concatenate(v) for v in zip(*comps))
        k = np.argsort(own, kind="stable")
        return own[k], lo[k], hi[k]

    def _merge(self, own, lo, hi, rows):
        """u+, u- and the merged components of each row.

        Row q's components are [lo[k], hi[k]] for own[k] == q, own sorted.
        A row of one component keeps it.  The components of a row of more
        are sorted, and each joins the one before it when it starts within
        ``tol_u`` of that one's end.  Merging moves no lower end of the
        first component and no upper end of the last, so u+ is the least
        lower end and u- the greatest upper end.  Returns (u+, u-, own,
        lo, hi) of the merged components.
        """
        count = np.bincount(own, minlength=rows)
        if np.count_nonzero(count == 1) == rows:
            # nothing to merge, as in most point solves: the general path
            # below costs such a one-row block about 10 numpy calls more
            return lo, hi, own, lo, hi
        up, um = np.full(rows, np.nan), np.full(rows, np.nan)
        up[own], um[own] = lo, hi
        # each row of more components: its merged ones take the first
        # places of its run, and the places left over are dropped
        multi = (count > 1).nonzero()[0].tolist()
        ends, count = np.cumsum(count).tolist(), count.tolist()
        ls, hs = lo.tolist(), hi.tolist()
        keep = np.ones(len(own), dtype=bool)
        for q in multi:
            a, b = ends[q] - count[q], ends[q]
            merged = []
            for c in sorted(zip(ls[a:b], hs[a:b])):
                if merged and c[0] <= merged[-1][1] + self.tol_u:
                    merged[-1][1] = max(merged[-1][1], c[1])
                else:
                    merged.append(list(c))
            up[q], um[q] = merged[0][0], merged[-1][1]
            b = a + len(merged)
            ls[a:b], hs[a:b] = zip(*merged)
            keep[b:ends[q]] = False
        return up, um, own[keep], np.array(ls)[keep], np.array(hs)[keep]

    def _roots(self, xb, t, nb, carrier):
        """Final ends of psi's sign-change brackets s[nb[0]], s[nb[2]].

        Column k serves the point xb[k], at time t or t[k].  ``carrier``
        holds psi at the grid points nb.  The middle value halves each
        bracket.  Psi jumps only where the foot x - t H(u) crosses a
        breakpoint of phi, and on sampled data it is U(c) - U(u) between
        knots, so every half of sampled data, and a half of piece data whose
        feet hold a breakpoint, takes its root in closed form
        (``_exact_roots``).  Every other half, and every closed-form root
        that fails its check, goes to ``_refine_roots``.  Returns the two
        rows of ends.
        """
        # the half of each bracket where psi changes sign, ends (a, b)
        up = carrier[1] > 0.0
        ie = np.where(up, nb[1:], nb[:2])
        ends = self._s[ie]
        vals = np.where(up, carrier[1:], carrier[:2])
        if self._jumps is not None:
            done = self._exact_roots(xb, t, ie, vals, ends)
            if np.count_nonzero(done):
                k = (~done).nonzero()[0]
                if len(k):
                    ends[:, k] = self._refine_roots(
                        xb[k], _at(t, k), nb[:, k], carrier[:, k], ends[:, k],
                        vals[:, k])
                return ends
        return self._refine_roots(xb, t, nb, carrier, ends, vals)

    def _refine_roots(self, xb, t, nb, carrier, ends, vals):
        """``secant_many`` on the halves ``ends`` of the brackets nb.

        ``vals`` holds psi at the ends; the second difference of three grid
        values bounds psi''.  At an end of the grid two of the points nb
        coincide, so the difference is taken from the three innermost grid
        points there, s[0..2] or s[n-3..n-1], at one more psi value.  Where
        psi jumps, the difference is about the jump, and ``secant_many``'s
        test sends the bracket to the bisection.  Whatever the bound, a
        bracket ends only on evaluated signs of psi.
        """
        s, n = self._s, len(self._s)
        pl, pm, ph = carrier
        d2 = pl - 2.0 * pm + ph
        end = nb[2] - nb[0] < 2                 # brackets at a grid end
        if np.count_nonzero(end):
            e = end.nonzero()[0]
            at_lo = nb[0, e] == nb[1, e]
            k = np.where(at_lo, 2, n - 3)
            px = (self._U(self.data.phi(xb[e] - _at(t, e) * self._Hs[k]))
                  - self._U(s[k]))
            d2[e] = np.where(at_lo, pl[e] - 2.0 * ph[e] + px,
                             px - 2.0 * pl[e] + ph[e])
        curv = self._curv * np.abs(d2)
        return secant_many(lambda u, i: self._psi(u, xb[i], _at(t, i)),
                           ends[0], ends[1], vals[0], vals[1], curv,
                           self.tol_u)

    def _exact_roots(self, xb, t, ie, vals, ends):
        """Roots of psi in closed form: where its feet cross phi's jumps,
        and on sampled data everywhere.

        Bracket k is [a, b] = ends[:, k], the grid points ie[:, k], with
        psi > 0 at a and <= 0 at b (``vals``), for the point xb[k] at time
        t or t[k].  Its feet sweep (x - t H(b), x - t H(a)], and each
        breakpoint y of phi in there (one ``searchsorted``; periodic data
        shifted by whole periods onto the table of two periods) is crossed
        at H(u) = (x - y) / t; a breakpoint at the foot of a, where psi(a)
        reads phi(y+), may put the jump at a itself.  In the order of rising
        u, the first breakpoint whose phi(y+) gives psi <= 0 just below its
        preimage ends the sub-bracket that holds the sign change; H being
        increasing, that is the test H(phi(y+)) <= (x - y) / t, which needs
        no preimage.  On sampled data a bracket whose feet hold no knot
        (j1 == j0: as many breakpoints lie up to the foot of a as up to
        that of b) is itself such a sub-bracket, with no breakpoint on
        either side.  The root is then:

        * the preimage below, where psi <= 0 also just above it: psi jumps
          down there, a fan's maximizer (one inversion of H);
        * on sampled data, the plateau value c, where U(phi) - U(u) =
          U(c) - U(u) vanishes, read from the breakpoint table with no call
          of the data;
        * else the ``secant_many`` root of the smooth sub-bracket, from
          phi's limits at its ends and a bound on psi'' from the second
          difference through its midpoint, all on its own side of the jumps.

        An exact root r stands as the bracket r -+ 0.45 tol_u.  One psi
        call checks every bracket: psi > 0 at its lower end, <= 0 at its
        upper end, width at most tol_u.  Those that pass are written into
        ``ends``, and the mask of them returned; the others, and the
        brackets of piece data whose feet hold no breakpoint, and those
        whose feet span a period, are left to ``_roots``.  Each bracket's
        result reads only its own column.
        """
        y, left, right, Hl, Hr = self._jumps
        fa, fb = vals
        # the feet of a and of b, periodic data shifted by whole periods so
        # that the foot of b lies in the window
        feet = xb - t * self._Hs[ie]
        xr = xb
        P = self.data.period
        if P is not None:
            shift = self.data._tile(feet[1]) * P
            feet -= shift
            xr = xb - shift
        j1, j0 = np.searchsorted(y, feet, "right")
        go = (j1 > j0) | self.data.is_sampled
        if not np.count_nonzero(go):
            return go
        go &= (fa > 0.0) & (fb <= 0.0)
        if P is not None:
            go &= feet[0] - feet[1] < P
        g = go.nonzero()[0]
        if not len(g):
            return go
        # the breakpoints of each foot range, falling, so that u rises, and
        # H at their preimages; a range that holds none (sampled data only)
        # lists the breakpoint below it, which m = 0 passes over
        c = (j1 - j0)[g]
        listed = np.maximum(c, 1)
        off = np.cumsum(listed) - listed
        own = np.repeat(np.arange(len(g)), listed)
        n = len(own)
        j = np.repeat(j1[g] - 1 + off, listed) - np.arange(n)
        tg = _at(t, g)
        v = (xr[g][own] - y[j]) / _at(tg, own)
        j %= len(left)
        # the first preimage with psi <= 0 just below it ends the sub-bracket
        # that holds the sign change; m breakpoints lie below it
        m = np.minimum.reduceat(np.where(Hr[j] <= v, np.arange(n), n), off)
        m = np.minimum(m - off, c)
        has_l, has_r = m > 0, m < c
        el = off + m - 1                        # the preimage below it
        er = np.minimum(off + m, n - 1)         # and the one above it
        jl, jr = j[el], j[er]
        jump = has_l & (Hl[jl] <= v[el])
        (ag, bg), xg = ends[:, g], xb[g]
        d = 0.45 * self.tol_u
        if self.data.is_sampled:
            # phi on the sub-bracket's feet: right of breakpoint i - 1, or
            # left of the first one
            i = j1[g] - m
            r = np.where(i > 0, right[(i - 1) % len(right)], left[0])
            if np.count_nonzero(jump):
                r[jump] = self._preimage(v[el[jump]], ag[jump], bg[jump])
            lo, hi = r - d, r + d
        else:
            # the preimages at the ends of the sub-brackets, in one call
            smooth_r = has_r & ~jump
            u = self._preimage(np.concatenate([v[el[has_l]], v[er[smooth_r]]]),
                               np.concatenate([ag[has_l], ag[smooth_r]]),
                               np.concatenate([bg[has_l], bg[smooth_r]]))
            ul, ur = ag.copy(), bg.copy()
            ul[has_l], ur[smooth_r] = np.split(u, [np.count_nonzero(has_l)])
            lo, hi = ul - d, ul + d
            sm = (~jump).nonzero()[0]
            if len(sm):
                ul, ur, xs, ts = ul[sm], ur[sm], xg[sm], _at(tg, sm)
                # psi at the sub-brackets' ends from phi's limits, and in
                # the middle
                fl = np.where(has_l[sm], self._U(left[jl[sm]]) - self._U(ul),
                              fa[g[sm]])
                fr = np.where(has_r[sm], self._U(right[jr[sm]]) - self._U(ur),
                              fb[g[sm]])
                hh = 0.5 * (ur - ul)
                fm = self._psi(ul + hh, xs, ts)
                with np.errstate(divide="ignore", invalid="ignore"):
                    curv = (_SECANT_SAFETY / (2.0 * hh * hh)
                            * np.abs(fl - 2.0 * fm + fr))
                lo[sm], hi[sm] = secant_many(
                    lambda u, i: self._psi(u, xs[i], _at(ts, i)), ul, ur, fl,
                    fr, curv, self.tol_u)
        # the check, one psi call for every bracket
        k = len(g)
        if isinstance(tg, np.ndarray):
            tg = np.concatenate([tg, tg])
        pv = self._psi(np.concatenate([lo, hi]), np.concatenate([xg, xg]), tg)
        ok = ((pv[:k] > 0.0) & (pv[k:] <= 0.0) & (lo < hi)
              & (hi - lo <= self.tol_u))
        ends[:, g[ok]] = lo[ok], hi[ok]
        go[g[~ok]] = False
        return go

    def branch_gap(self, x, t, mid):
        """The value gap between the maximizer branches of E(.; x, t) on each
        side of mid.

        One ``_maximize_block`` of two rows at x: branch u- is the largest
        maximizer of E over the grid indices [im, n) at or above mid, and
        branch u+ the smallest over [0, im) below it.  Near the tie of the
        two, u+(x) > mid exactly when G > ``val_tol``, the bisection's own
        test.  Returns (G, dG/dx, u-, u+) with G = E(u-) - E(u+); by the
        envelope theorem dG/dx = U(u+) - U(u-) (Lax 1957).  None when a side
        of mid holds less than two grid points, or a side's best value or
        band reaches mid (its row's ``redo``).
        """
        if not (math.isfinite(x) and math.isfinite(mid)):
            raise ValueError("x, mid and t must be finite, with t positive")
        t = _checked_t(t)
        n = len(self._s)
        im = int(np.searchsorted(self._s, mid))
        if im < 2 or n - im < 2:
            return None
        out = self._maximize_block(np.full(2, float(x)), t,
                                   np.array([im, 0]), np.array([n - im, im]))
        if out.redo.any():
            return None
        um, up = float(out.u_minus[0]), float(out.u_plus[1])
        return (float(out.max_value[0] - out.max_value[1]),
                float(self._U(up) - self._U(um)), um, up)

    def _preimage(self, v, a, b):
        """u in [a, b] with H(u) = v, or the end of [a, b] nearer to it.

        ``secant_many`` on v - H, which reads no data, to a sixteenth of
        tol_u: [a, b] lies in a cell of the u-grid, and H'' there is
        bounded by the grid's second differences of H at the cell's ends,
        as ``_refine_roots`` bounds psi''.  A v outside [H(a), H(b)] walks
        to the end nearer to it, and the result is clamped to [a, b].
        """
        cell = np.minimum(np.searchsorted(self._s, a, "right") - 1,
                          len(self._s) - 2)
        Hab = self._H(np.concatenate([a, b]))
        lo, hi = secant_many(lambda u, i: v[i] - self._H(u), a, b,
                             v - Hab[:len(a)], v - Hab[len(a):],
                             self._curv * self._Hd2[cell], self.tol_u / 16.0)
        return np.minimum(np.maximum(0.5 * (lo + hi), a), b)

    @functools.cached_property
    def _Hd2(self):
        """|H''| h**2 on each grid cell, from the second differences of H
        at its ends (built on the first call of ``_preimage``)."""
        d2 = np.abs(np.diff(self._Hs, 2))
        d2 = np.concatenate([d2[:1], d2, d2[-1:]])
        return np.maximum(d2[:-1], d2[1:])

    # -- public solution API ----------------------------------------------

    def _sample(self, x, t, ms):
        return SolutionSample(float(x), float(t), ms.u_minus, ms.u_plus,
                              ms.u_minus - ms.u_plus > self.jump_tol, ms)

    def solve(self, x, t):
        return self._sample(x, t, self.maximize(x, t))

    def solve_grid(self, xs, t):
        """``solve(x, t)`` at every x of the 1-D sequence xs, in order.

        Up to ``2 * BLOCK_ELEMS // n_scan`` points (16 at the default
        n_scan) are one block over the whole u-grid, one pass of array
        phases.  A longer grid is maximized in levels: 8 evenly spaced
        points over the whole grid, then each unsolved point over the
        u-window that its solved neighbours' characteristic feet leave it,
        rows packed in their order in blocks of at most ``BLOCK_ELEMS``
        cells, the sum of their windows' cells, twice that where they all
        share one window, and no row cap (12 blocks for the 4 096 knots of
        ``restart(0.5)`` on ``sin_wave()``, 2 for 32 points of
        ``sin_wave()`` at t = 1.2); a row whose best value or ``val_tol``
        band reaches an inner window edge, and every row of a flux whose f'
        is not nondecreasing, is scanned over the whole grid.
        On periodic data after t_w = 2 P / (H(s_n) - H(s_0)) the whole grid
        is replaced by the window that the period mean allows
        (``_window``), so more points share a block: 17 points at t >= 7.19
        on ``restart(0.5)`` of ``sin_wave()`` are one block.  A windowed
        value of E is the float the whole scan computes, so each sample
        equals ``solve(x, t)`` bit for bit wherever its kept runs and bands
        lie inside its window, as on every tested problem.  A non-finite x
        or t, or t <= 0, raises ValueError before any work.
        """
        t = _checked_t(t)
        return self._solve_grid(xs, t, t)

    def _solve_grid(self, xs, t, t_out):
        """``solve_grid``'s samples at the checked time t, each reported at
        the time t_out (``RestartedProblem`` reports absolute times)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1 or not np.all(np.isfinite(xs)):
            raise ValueError("xs must be a 1-D sequence of finite values")
        xu, inv = xs, None
        if not (xs[1:] > xs[:-1]).all():
            xu, inv = np.unique(xs, return_inverse=True)
        res = self._maximize_grid(xu, t).sets()
        if inv is not None:
            res = [res[i] for i in inv.tolist()]
        return [self._sample(x, t_out, ms) for x, ms in zip(xs.tolist(), res)]

    def e_hat(self, x, t):
        ms = self.maximize(x, t)
        return float(ms.max_value - self._W(x - t * self._H0))


class Problem(GeneralProblem):
    """Scalar conservation law u_t + f(u)_x = 0 with data phi."""

    def __init__(self, flux, data, **kw):
        super().__init__(identity_pair(flux), data, **kw)
        self.flux = flux

    def _preimage(self, v, a, b):
        """``GeneralProblem._preimage``, in closed form for named fluxes."""
        u = self.flux.closed_inverse(np.minimum(np.maximum(v, self._Hs[0]),
                                                self._Hs[-1]))
        if u is None:
            return super()._preimage(v, a, b)
        return np.minimum(np.maximum(u, a), b)

    def restart(self, tau):
        """Problem restarted from the computed solution at time tau.

        Returns a wrapper whose ``solve(x, t)`` (absolute time t > tau)
        evaluates the variational formula for the sampled data u(., tau) on
        4097 knots: one period, or the window padded by tau * max|f'| + 1.
        The knot values are u+ at the 4096 interval midpoints, maximized as
        ``solve_grid`` maximizes a grid: most over a u-window of a few dozen
        cells that the neighbouring knots' feet leave them (12 blocks on
        ``sin_wave()`` at tau = 0.5).  They are read as the u+ array of
        ``_maximize_grid``, with no MaximizerSet built.
        Each equals ``solve(x, tau).u_plus`` bit for bit wherever the knot's
        kept runs and bands lie inside its window, as in every tested
        restart.  On periodic data the restarted problem is periodic too, so
        its solves after t_w = 2 P / (H(s_n) - H(s_0)) past tau scan only
        the window its period mean allows (``_window``): on ``sin_wave()``
        restarted at tau in [0.4, 0.6], a 17-point ``solve_grid`` slice at
        t - tau >= 6.69 is one block of at most 1 927 cells per row.
        """
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError("tau must be finite and positive")
        lo, hi = self.data.w_lo, self.data.w_hi
        if self.data.period is None:
            speed = max(abs(self._H(self.M)), abs(self._H(-self.M)))
            pad = tau * speed + 1.0
            lo, hi = lo - pad, hi + pad
        xs = np.linspace(lo, hi, 4097)
        mids = 0.5 * (xs[:-1] + xs[1:])
        us = self._maximize_grid(mids, tau).u_plus
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

    def _checked(self, t):
        if not (math.isfinite(t) and t > self.tau):
            raise ValueError(f"t must be finite and above the restart time "
                             f"tau = {self.tau!r}")
        return float(t)

    def solve(self, x, t):
        """The inner problem's ``solve`` at t - tau, in absolute time."""
        t = self._checked(t)
        p = self.problem
        return p._sample(x, t, p.maximize(x, t - self.tau))

    def solve_grid(self, xs, t):
        """The inner problem's ``solve_grid`` at t - tau, in absolute time."""
        t = self._checked(t)
        return self.problem._solve_grid(xs, t - self.tau, t)


def identity_pair(flux):
    """GeneralFluxPair reducing to the scalar flux (U = id, F given: no U')."""
    return GeneralFluxPair(_identity, None, F=flux.eval, H=flux.deriv,
                           Hprime=flux.second)
