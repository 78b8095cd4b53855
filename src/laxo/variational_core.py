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

from ._search import (_ONE_I, _ZERO, bisect_many, golden_many, padded_runs,
                      secant_many)
from .flux import GeneralFluxPair
from .initial_data import SampledData, _Extended, _interval

N_SCAN = 2048
VAL_TOL = 1e-9
JUMP_TOL = 1e-6
TOL_U = 1e-12
# scan cells one block holds, summed over its rows' u-windows after the
# coarse pass, the one bound on a block.  A block also costs a fixed
# 0.3-0.5 ms, about the scan of this many cells at 30-40 ns each (2-core
# Xeon, numpy 2.4).  Rows of one window and one time over half this many
# cells first narrow their windows by a coarse pass (``_coarse``) and are
# packed by the cells left: its fixed cost, about 80 us, that of some 2 000
# cells, rules out most of them
BLOCK_ELEMS = 1 << 14
# grid cells per coarse cell of ``_coarse``: every COARSE_STEP-th point of a
# window is valued.  A late 17-point restart slice at t = 15 keeps 2 304 of
# its 15 147 cells at 16, 1 552 at 8 and 3 264 at 32; 8 and 16 ran equally
# fast in process (late slices -18% against the full scan), 16 at half the
# coarse feet (2-core Xeon, numpy 2.4)
COARSE_STEP = 16
# freeing a 1 MB array raises glibc's mmap threshold (128 kB at start) above
# a block's temporaries of up to ~260 kB, else unmapped on free and faulted
# in anew
np.empty(1 << 17)
# offsets of the grid neighbours lo, j, hi of a local-maximum run's middle j;
# the last two, of the ends i, i + 1 of a grid cell
_NEIGHBOURS = np.array([[-1], [0], [1]])
# |psi''| / 2 on a bracket is taken as this many times the grid's estimate
_SECANT_SAFETY = 4.0
# the inner points k of linspace(lo, hi, 7), at lo + k (hi - lo) / 6
_PROBES = np.arange(1.0, 6.0)
# constants of the hot path as 0-d arrays, as ``_search``'s ``_ZERO``: numpy
# takes them faster than Python numbers, and computes the same numbers
_HALF, _TWO, _TWO_I = np.array(0.5), np.array(2.0), np.array(2)


@functools.lru_cache(maxsize=256)
def _fan_out(rows, cells):
    """The fan-out k of ``_one_roots``' rounds on rows whose windows span
    at most ``cells`` grid cells: of the d-round searches, k = ceil(cells
    ** (1 / d)), the one of least cost d (1 536 + rows (k - 1))."""
    # 1 536 psi reads: the fixed cost of one round, about 15 numpy calls of
    # 1-2 us against 10-15 ns a read (2-core Xeon, numpy 2.4)
    return min((d * (1536 + rows * (k - 1)), k) for d, k in (
        (d, max(1, math.ceil(cells ** (1.0 / d) - 1e-9)))
        for d in range(1, max(1, cells.bit_length()) + 1)))[1]


def _near(v):
    """The max of a table of coarse cells, by the grid index of their
    start, over each cell and the two cells beside it, clipped to the
    grid."""
    i, n = np.arange(len(v)), len(v) - 1
    return np.maximum(np.maximum(v[np.maximum(i - COARSE_STEP, 0)], v),
                      v[np.minimum(i + COARSE_STEP, n)])


def _checked_t(t):
    if not (math.isfinite(t) and t > 0):
        raise ValueError("x and t must be finite, with t positive")
    return float(t)


def _identity(a):
    return a


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
        self._build()

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
    """Variational problem for the pair (U, F); U = id gives the scalar case.

    H = F'/U' must rise on every cell of the u-grid, and U must not fall
    there: the formula's maximizers give the entropy solution only then.
    Any other pair, such as a ``custom`` flux whose f' falls or stays
    constant on some cell (f = max(u, 0)^2 / 2, say), raises ValueError,
    and so do H, U and int_0^u H'U that are not finite on the grid (a
    ``power2n(2)`` flux on data of bound 1e102, say, where H U overflows).
    So does a u-grid of fewer than 4 cells, whose points can step over the
    maximum.
    """

    def __init__(self, pair, data, n_scan=N_SCAN, val_tol=VAL_TOL,
                 jump_tol=JUMP_TOL, tol_u=TOL_U):
        self.pair = pair
        self.data = data
        if not float(n_scan).is_integer():
            raise ValueError("n_scan must be an integer")
        self.n_scan = int(n_scan)
        self.val_tol = float(val_tol)
        self.jump_tol = float(jump_tol)
        self.tol_u = float(tol_u)
        # a grid of 2 or 3 cells can step over the maximum: at n_scan = 3,
        # Burgers step(1, 0) at (0.65, 1.2) gave u+ = 1, where it is 0
        if not (self.n_scan >= 4 and all(0.0 < v < np.inf for v in (
                self.val_tol, self.jump_tol, self.tol_u))):
            raise ValueError("need n_scan >= 4 and finite positive tolerances")
        self._H = pair.H
        self._U = pair.U
        self._F = pair.F
        M = data.bound
        self.M = M
        delta = 1e-6 * (1.0 + M)
        self._s = np.linspace(-M - delta, M + delta, self.n_scan + 1)
        h = self._h = float(self._s[1] - self._s[0])
        # |psi''| / 2 per unit of a second difference on the grid
        self._curv = np.array(_SECANT_SAFETY / (2.0 * h * h))
        # the keep filter's margin and val_tol, as 0-d operands (``_ZERO``)
        self._tols = np.array(10.0 * self.val_tol), np.array(self.val_tol)
        # an overflow here is the ValueError below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            self._Hs = np.ascontiguousarray(self._H(self._s), dtype=float)
            Us = np.asarray(self._U(self._s), dtype=float)
            self._H0 = float(self._H(0.0))
            self._I0 = np.array(float(self._H0 * self._U(0.0) - self._F(0.0)))
            # int_0^s H'(r) U(r) dr along the grid
            self._Is = self._Hs * Us - np.asarray(self._F(self._s)) - self._I0
        if not all(np.isfinite(v).all() for v in (self._Hs, Us, self._Is)):
            raise ValueError("H, U and int_0^u H'U must be finite on the "
                             "u-grid")
        # the formula gives the entropy solution, and backward
        # characteristics keep their order, only where H and U rise
        rise = np.diff(self._Hs)
        if not ((rise > 0.0).all() and (np.diff(Us) >= 0.0).all()):
            raise ValueError("H must rise on every cell of the u-grid, "
                             "and U must not fall")
        # H's rise over the larger of the two grid cells beside each point
        self._dH = np.maximum(np.concatenate([rise[:1], rise]),
                              np.concatenate([rise, rise[-1:]]))
        # the window of one row over the whole grid: start 0, width n
        self._whole = np.zeros(1, dtype=np.intp), np.full(1, len(self._s))
        # the data of U(phi), whose primitive is W
        if pair.U is _identity:
            Ud = data
        elif data.is_sampled:
            # U(phi) is piecewise constant between knots, like phi
            Ud = SampledData(data.xs, pair.U(data.us), data.period)
        else:
            Ud = _NumericPrimitive(pair.U, data)
        self._W = Ud.primitive
        # periodic data: after t_w every solve scans within ``_window``.
        # H_mean holds H(c_lo) and H(c_hi), c_lo the last and c_hi the first
        # grid point with U(c_lo) < Ubar < U(c_hi), Ubar the period mean of
        # U(phi): a bracket on U's grid values, so U is never inverted
        self._t_w = np.inf
        if data.period is not None:
            ubar = Ud.tail_invariants().ubar_l
            c_lo = max(int(np.searchsorted(Us, ubar, "left")) - 1, 0)
            c_hi = min(int(np.searchsorted(Us, ubar, "right")), len(Us) - 1)
            self._H_mean = float(self._Hs[c_lo]), float(self._Hs[c_hi])
            self._t_w = 2.0 * data.period / (self._Hs[-1] - self._Hs[0])
        # the breaking-time certificate; ``Problem`` sets it for named fluxes
        self.t_one = 0.0
        # phi's breakpoints y, its limits there and H of them, for the
        # exact roots of psi; on periodic data y runs on over a second
        # period, and breakpoint j of it is breakpoint j % len(left)
        self._jumps = None
        y, left, right = data.breakpoints()
        if len(y):
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
        window (see ``_maximize_block``).  Before the breaking time
        ``t_one`` of a named flux on data with no down-jump, E has one
        maximizer and the one-root kernel ``_one_roots`` finds it, the
        scan's answer wherever the scan returns one point.
        """
        if not math.isfinite(x):
            raise ValueError("x and t must be finite, with t positive")
        t = _checked_t(t)
        return self._blocks(np.array([x], dtype=float), np.array([t]),
                            *self._window(t)).sets()[0]

    def _cells(self, lo, hi, a, b):
        """The u-windows (start, width) of the H-intervals [lo, hi]: the
        grid indices whose H lies there, widened by 2 cells and clipped to
        the indices [a, b), at least 3 points, so that a run at a grid end
        finds the three innermost grid points in its window; b - a >= 3."""
        start = np.minimum(np.maximum(
            np.searchsorted(self._Hs, lo, "left") - 2, a), b - 3)
        stop = np.minimum(np.searchsorted(self._Hs, hi, "right") + 2, b)
        return start, np.maximum(stop - start, 3)

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
        half of H's range on the grid, and on tailed data, it is the whole
        grid.
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
        ``restart``, ``GlobalStructure.measure_decay`` and
        ``reference_oracle.compare`` read the u+ array and build none, the
        tracks and ``directional_limits`` read u- and u+ through
        ``_u_minus_plus``, and the levels read u+ and u-.

        Every row scans within the u-window of ``_window``, of ww points:
        the whole grid, or on periodic data after t_w the window the period
        mean allows.  The coarse pass of ``_blocks`` leaves such a row its
        (ww - 1) / COARSE_STEP coarse points and a hull of at most about
        COARSE_STEP coarse cells (a mean of 20-72 cells on ``sin_wave()``
        and ``step(1, 0)`` under Burgers and ``power2n(2)`` at t = 0.3-3,
        67-182 on ``step(-1, 1)``, whose up-jump keeps the first-order
        bound), or the whole window where that is narrower: a cost of c
        cells per row.  Level 0 holds
        the k rows of that cost that fill 2 * BLOCK_ELEMS, at least 2: 85
        over the default whole grid, and on a window the pass hardly
        narrows about the rows whose whole windows fill 2 * BLOCK_ELEMS.
        Timed in process on slices of 17-257 points, this rule and a level
        0 of 64 rows were fastest over the whole grid, ahead of 32, 42, 48
        and 128 rows, and unlike 64 it kept long late slices on narrow
        windows as fast as 2 * BLOCK_ELEMS // (ww - 1) rows.  A grid of m
        points with m c <= 3 * BLOCK_ELEMS, 128 over the default whole
        grid, is one ``_blocks`` call: it costs at most one block more than
        level 0's two, and any further level costs at least one block of
        its own.  A longer grid is maximized in levels.  Level 0 is the
        ``_blocks`` call of k evenly spaced points, both ends included.
        Each later level maximizes the middle point q of every
        unsolved gap (a, b) over the u-window that the ordering of backward
        characteristics leaves it (Lax 1957): for x_a < x_q < x_b every
        maximizer foot x - t H(u) at x_q lies between the rightmost foot at
        x_a and the leftmost at x_b, so H(u) lies in
        [H(u_b-) - (x_b - x_q)/t, H(u_a+) + (x_q - x_a)/t], and the window
        is ``_cells`` of that interval within the window of ``_window``.
        Once the unsolved rows' windows hold at most four blocks of cells,
        one level takes them all: a further level costs blocks that the
        narrower windows would not pay back.  Rows that ``_blocks`` cannot
        certify in their window are scanned over the whole grid.

        A grid before ``t_one`` skips the levels: its rows are one
        ``_blocks`` call, which sends them to the one-root kernel; a row
        the kernel leaves to the scan is scanned over its whole window.
        After it, the rows of one ``_blocks`` call that takes the coarse
        pass (a short grid, or level 0) go to the kernel too when
        ``_one_hull`` certifies every hull; the later levels' rows, each
        of its own window, are scanned.
        """
        m = len(xs)
        w0, ww = (int(v[0]) for v in self._window(t))
        ts, start, width = np.full(m, t), np.full(m, w0), np.full(m, ww)
        cost = (ww - 1) // COARSE_STEP + min(ww - 1, COARSE_STEP ** 2)
        if m * cost <= 3 * BLOCK_ELEMS or t < self.t_one:
            return self._blocks(xs, ts, start, width)
        k = max(2, 2 * BLOCK_ELEMS // cost)
        parts = []
        Hp, Hm = np.empty(m), np.empty(m)       # H(u+), H(u-) of solved rows
        solved = np.zeros(m, dtype=bool)
        q = np.arange(k) * (m - 1) // (k - 1)
        start, width = start[:k], width[:k]
        while len(q):
            out = self._blocks(xs[q], ts[q], start, width)
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

    def _u_minus_plus(self, xs, t):
        """u- and u+ as lists at the nondecreasing points xs: the rows of
        ``_maximize_grid``, read by the analysis layers with no MaximizerSet
        or SolutionSample built.  A t that is not finite and positive raises
        ValueError, as ``solve_grid`` does."""
        rows = self._maximize_grid(np.asarray(xs, dtype=float), _checked_t(t))
        return rows.u_minus.tolist(), rows.u_plus.tolist()

    def _blocks(self, xs, t, start, width):
        """The maximizer sets of rows, as ``_Rows`` in the order of xs.

        Rows whose t lies below ``t_one`` (Burgers/sine before t = 1,
        every row of ``step(-1, 1)``; none of a ``custom`` flux, a general
        pair, or data with a down-jump) go to the one-root kernel
        ``_one_roots``; the rows it leaves, whose window ends bracket no
        sign change of psi, and every other row go to ``_scan``:
        ``_maximize_block`` on rows packed in blocks of few enough cells,
        or the kernel again where the coarse pass leaves hulls that
        ``_one_hull`` certifies to hold one falling stretch of psi.

        Row q, at the time t[q], scans the u-grid window start[q] ...
        start[q] + width[q] - 1, width[q] - 1 cells.  Rows that share one
        window and one time and hold more than ``BLOCK_ELEMS // 2`` cells
        together (a short grid solve or level 0 of a longer one, a late
        restart slice, a rescan, a point solve on a fine grid) first take
        the coarse pass (``_coarse``): each row's window becomes the hull
        of the cells that a first- or second-order bound on E cannot rule
        out, and its set stays the whole window's, bit for bit.  Where
        ``_one_hull`` certifies psi to fall on every row's hull, the rows go
        to ``_one_roots`` over their hulls, and the rows it leaves are
        scanned over them (``_pack``).  The cell count is
        tested first, so a point solve over the default grid pays for no
        other test.  The rows are then packed in their given order, each
        block as many rows as fit in ``BLOCK_ELEMS`` cells, the sum of their
        windows' cells, at least one.  Rows that fit in one block are one
        ``_maximize_block`` call, else the blocks are joined.  A row the
        block cannot certify in its window is maximized again over the
        whole grid, at its own time.  Returns the ``_Rows`` in the order of
        xs.

        ``_sides``, which reads a shock node's branches and every row of a
        lifespan, calls ``_maximize_block`` itself and scans every cell of
        its windows, with no coarse pass: a node's two rows have two
        windows, and the rows of a lifespan's doubling scan, certificate
        and walk each have a time of their own, so the pass's gate (one
        window and one time) would shut them out; a lifespan's probe is
        one row.
        """
        # one scalar test for a point solve's one row
        if not (t[0] < self.t_one if len(t) == 1
                else np.count_nonzero(t < self.t_one)):
            return self._scan(xs, t, start, width)
        one = t < self.t_one
        m, q = len(xs), one.nonzero()[0]
        out = self._one_roots(*(v if len(q) == m else v[q]
                                for v in (xs, t, start, width)))
        if len(q) == m and not np.count_nonzero(out.redo):
            return out
        rest = np.concatenate([(~one).nonzero()[0], q[out.redo]])
        return _Rows.join([(q, out), (rest, self._scan(
            xs[rest], t[rest], start[rest], width[rest]))], m)

    def _scan(self, xs, t, start, width):
        """The scan of ``_blocks`` (see there), on the rows it does not
        send to the one-root kernel before ``t_one``.

        Rows that take the coarse pass go on to the one-root kernel when
        ``_one_hull`` certifies every hull, all or none: the kernel gives
        the scan's answer wherever the scan returns one point, and a hull
        keeps every kept run and band of the whole window, so the answers
        stay bit for bit.  With the second-order bound, 32-point Burgers/sine
        and ``step(1, 0)`` slices at t = 1 to 3 were all certified on 40
        draws, and ``power2n(2)``/sine slices on 39 of 40; a row on or very
        near a shock, whose hull holds both branches, is not.  The rows the
        kernel leaves are scanned over their hulls (``_pack``).
        """
        m = len(xs)
        if (m and m * (int(width[0]) - 1) > BLOCK_ELEMS // 2
                and not (np.count_nonzero(start != start[0])
                         or np.count_nonzero(width != width[0])
                         or np.count_nonzero(t != t[0]))):
            start, width = self._coarse(xs, t[0], int(start[0]),
                                        int(width[0]))
            if self._one_hull(xs, t[0], start, width):
                out = self._one_roots(xs, t, start, width)
                q = out.redo.nonzero()[0]
                if len(q):
                    out = _Rows.join([(np.arange(m), out), (q, self._pack(
                        xs[q], t[q], start[q], width[q]))], m)
                return out
        return self._pack(xs, t, start, width)

    def _one_hull(self, xs, t, start, width):
        """Whether psi falls on every row's window at the one time t, so
        that the one-root kernel may answer: never for a general pair
        (``Problem`` tests named fluxes)."""
        return False

    def _pack(self, xs, t, start, width):
        """The rows of ``_scan``, packed in their given order in blocks of
        at most ``BLOCK_ELEMS`` cells; a row a block leaves ``redo`` is
        scanned again over the whole grid."""
        m = len(xs)
        if m <= 1:
            out = self._maximize_block(xs, t, start, width)
        else:
            below = np.concatenate([[0], np.cumsum(width - 1)])
            cuts = [0]
            while cuts[-1] < m:     # the cells of rows a ... b - 1 fit
                a = cuts[-1]
                b = np.searchsorted(below, below[a] + BLOCK_ELEMS, "right") - 1
                cuts.append(max(a + 1, int(b)))
            if len(cuts) == 2:
                out = self._maximize_block(xs, t, start, width)
            else:
                out = _Rows.join([(np.arange(a, b), self._maximize_block(
                    xs[a:b], t[a:b], start[a:b], width[a:b]))
                    for a, b in zip(cuts, cuts[1:])], m)
        redo = out.redo.nonzero()[0]
        if len(redo):
            n = len(self._s)
            full = self._scan(xs[redo], t[redo], np.zeros_like(redo),
                              np.full(len(redo), n))
            out = _Rows.join([(np.arange(m), out), (redo, full)], m)
        return out

    def _maximize_block(self, xs, t, start, width):
        """The maximizer sets at the points xs and times t, one of each per
        row, as ``_Rows``: arrays of u+, u-, max_value and the component ends.

        Row q, at x = xs[q] and t = t[q], scans the u-grid indices
        start[q] ... start[q] + width[q] - 1; the whole grid is the window
        [0, n).  Rows of one window, a one-row block among them, broadcast
        the grid's values on it; rows of many windows lie end to end
        (``_flat``).  No cell is padding.  Every
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
        scan's maximizer set, bit for bit.  Every phase reads t row by row,
        as it reads xs; where every row shares one time, the scan forms its
        products with the grid's H and I once, the floats each row would.

        A window edge that is not a grid end is never a local maximum.  A
        row is marked ``redo``, for a scan of the whole grid, when its best
        grid value, or its band within ``val_tol`` of the maximum, reaches
        such an edge.

        Each local-maximum run reads psi at three distinct grid points, in
        the block's one carrier call: its middle j and the neighbours j -+ 1,
        or at a grid end the three innermost grid points (j clipped to
        [1, n - 2]).  A run's middle is a grid end or inside its window, and
        every window holds at least three points, so all three lie in the
        row's window.  Their second difference bounds psi'' for the refine;
        the sign test, the bracket and the keep filter read the run's own
        cells, j -+ 1 clipped to the grid, so a run at a grid end is
        bracketed by its one end cell.
        """
        n, rows = len(self._s), len(xs)
        j, w = (int(start[0]), int(width[0])) if rows else (0, n)
        # E between two columns of -inf: row q's in Ep[q], column c at grid
        # index c + j, or every row's in Ep[0] (``_flat``)
        flat = rows > 1 and bool(np.count_nonzero(start != j)
                                 or np.count_nonzero(width != w))
        if flat:
            Ep, W0, Emax_grid, O, base = self._flat(xs, t, start, width)
            Ev = Ep[:, 1:-1]
        else:
            # rows at one time form its products with the grid once
            tc = (t[0] if rows and not np.count_nonzero(t != t[0])
                  else t[:, None])
            pts = np.empty((rows, w + 1))
            feet = pts[:, :w]
            np.subtract(xs[:, None], tc * self._Hs[j:j + w], out=feet)
            np.subtract(xs[:, None], tc * self._H0, out=pts[:, w:])
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
        col = (first + last + _ONE_I) // _TWO_I
        r, d = locate(sr, col)
        # each run's middle m, a grid end or inside its window
        xr, tr = xs[r], t[r]
        nb, carrier, d2 = self._carrier(col - d if shift else col,
                                        lambda nb: self._psi_grid(xr, tr, nb))
        # the keep filter: dE = t psi dH, so E on a run's two cells stays
        # within t max|dH psi| of its middle's value
        gloc = np.abs(self._dH[nb] * carrier).max(axis=0)
        keep = ~(Ev[sr, col] + tr * gloc < Emax_grid[r] - self._tols[0])
        if np.count_nonzero(keep) < len(r):     # else every run stays
            r, xr, tr = r[keep], xr[keep], tr[keep]
            nb, carrier, d2 = nb[:, keep], carrier[:, keep], d2[keep]
        u_star, E_star = self._refine(xr, tr, W0[r], nb, carrier, d2)

        # per row: the best value, the refined points within val_tol of it,
        # and the grid bands there
        Emax = Emax_grid.copy()
        np.maximum.at(Emax, r, E_star)
        thresh = Emax - self._tols[1]
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
            lambda u, q: self._E(W0[q], u, xs[q], t[q]), Emax, thresh,
            r, u_star, E_star, br, first, last)
        return _Rows(*self._merge(own, lo, hi, rows), Emax, redo)

    def _one_roots(self, xs, t, start, width):
        """The maximizer of each row on whose window psi falls, as
        ``_Rows``: rows below ``t_one``, or rows whose coarse hulls
        ``_one_hull`` certifies.  A row whose window ends do not bracket a
        sign change of psi, or whose refined value falls ``val_tol`` below
        its cell's grid values, is marked ``redo``, left to the scan.

        Below t_one psi falls across the u-grid, and on a certified hull
        across the hull, so E has one maximizer there, in the one grid cell
        [i, i + 1] with psi(s_i) > 0 >= psi(s_i+1) (Hopf 1950; Lax 1957;
        Oleinik 1957).  Lockstep k-ary rounds over grid indices
        find it: the first reads psi at the window's ends and k - 1 points
        between, each later round k - 1 points of the bracket left, and
        the bracket narrows to the probes around the first read of psi <=
        0, while the bracket holds more than k cells; the last read takes
        every point of the bracket and one beyond each end, where the
        carrier reads too.  k comes from ``_fan_out``: over the default
        grid a point solve takes a 46-way round and its last read (one
        read of the whole window cost about 15% more per solve), a slice
        of 32 points 13-way rounds, and the 4 096 knots of ``restart``
        binary ones.  Rows whose reads would hold more than BLOCK_ELEMS
        values, rows (k + 3) at most, split in equal parts that each take
        their own rounds, so the kernel's temporaries stay within a scan
        block's: restart's knots go in two halves of 2 048.  On that cell
        the scan's own arithmetic follows: E at s_i and s_i+1, where the
        scan's grid maximum lies, picks the run middle m as its plateau
        rule does (s_i where E is larger there, else s_i+1), then ``_carrier`` and ``_refine`` as in
        ``_maximize_block``, and max_value is the best of those two grid
        values and E at the refined point.  So a row's answer depends
        neither on its window nor on the rows with it, and equals the
        scan's wherever the scan returns one point.
        """
        rows, Hs, n = len(xs), self._Hs, len(self._s)
        k = _fan_out(rows, int(width.max()) - 1)
        parts = -(-rows * (k + 3) // BLOCK_ELEMS)
        if parts > 1:
            # a read holds at most k + 3 points a row: rows split in parts
            # whose reads fit in BLOCK_ELEMS, as a scan block's cells do
            return _Rows.join([(q, self._one_roots(*(v[q] for v in (
                xs, t, start, width)))) for q in np.array_split(
                    np.arange(rows), parts)], rows)
        x, tq, a = xs[:, None], t[:, None], start[:, None]
        P = a + (width[:, None] - 1) * np.arange(k + 1) // k
        neg = self._psi_grid(x, tq, P) <= _ZERO
        ok = neg[:, -1] > neg[:, 0]     # psi(start) > 0 >= psi(end)
        # a row without that bracket searches its first probe cell, as a
        # bracket inside the grid, and is marked redo
        neg[:, 0] = False
        neg[:, 1] |= ~ok
        i = np.arange(rows)
        while True:
            f = neg.argmax(axis=1)      # the first probe of psi <= 0
            a, b = P[i, f - 1], P[i, f]
            c = int((b - a).max(initial=1))
            if c <= k:
                break
            P = a[:, None] + (b - a)[:, None] * np.arange(k + 1) // k
            # the bracket's ends: psi > 0 at a, kept from the first read,
            # and psi <= 0 at b
            neg[:, 1:-1] = self._psi_grid(x, tq, P[:, 1:-1]) <= _ZERO
            neg[:, -1] = True
        # the last read: the bracket and one point beyond each end, column
        # j at the grid index a - 1 + j clipped, so the carrier's too
        v = self._psi_grid(x, tq, np.minimum(np.maximum(
            a[:, None] + np.arange(-1, c + 2), 0), n - 1))
        lo, a = a - 1, a + (v[:, 2:] <= _ZERO).argmax(axis=1)
        # W0 and E at s_i and s_i+1, the floats the scan computes
        x, tq, ab = x[:, 0], tq[:, 0], a + _NEIGHBOURS[1:]
        Wf = self._W(np.concatenate([x - tq * Hs[ab], [x - tq * self._H0]])
                     .ravel()).reshape(3, -1)
        Ea, Eb = (Wf[2] - Wf[:2]) - tq * self._Is[ab]
        nb, carrier, d2 = self._carrier(np.where(Ea > Eb, a, ab[1]),
                                        lambda nb: v[i, nb - lo])
        u, E = self._refine(x, tq, Wf[2], nb, carrier, d2)
        top = np.maximum(np.maximum(Ea, Eb), E)
        ok &= E >= top - self._tols[1]
        own = ok.nonzero()[0]
        return _Rows(u, u, own, u[own], u[own], top, ~ok)

    def _psi_grid(self, x, t, idx):
        """psi at the grid indices idx for the points x at the times t,
        broadcast together, as the scan forms it: U(phi(x - t H(s))) -
        U(s), with the scan's feet."""
        feet = x - t * self._Hs[idx]
        return (self._U(self.data.phi(feet.ravel()))
                - self._U(self._s[idx].ravel())).reshape(feet.shape)

    def _carrier(self, m, psi):
        """The grid points nb of the runs with middles m, psi there as
        ``psi(nb)`` reads it, and its second difference d2.

        psi is read at three distinct grid points, m -+ 1 or at a grid end
        the three innermost ones (m clipped to [1, n - 2]); their second
        difference bounds psi'' for the refine.  The run's own cells m -+
        1, clipped to the grid, bracket it, so a grid end's run reads its
        one cell there, psi at the end repeated.
        """
        n = len(self._s)
        nb = np.minimum(np.maximum(m, _ONE_I), n - 2) + _NEIGHBOURS
        carrier = psi(nb)
        d2 = carrier[0] - _TWO * carrier[1] + carrier[2]
        if np.count_nonzero(nb[1] != m):       # a run at a grid end
            own = np.minimum(np.maximum(m + _NEIGHBOURS, 0), n - 1)
            carrier = np.take_along_axis(carrier, own - nb[0], axis=0)
            nb = own
        return nb, carrier, d2

    def _refine(self, x, t, W0, nb, carrier, d2):
        """The refined point of each run of ``_carrier`` and E there, for
        the points x at the times t, W0 = W(x - t H(0)) as the scan reads
        it.  psi at the bracket ends is the carrier there: where it changes
        sign, psi(lo) > 0 >= psi(hi) or psi(lo) >= 0 > psi(hi), ``_roots``
        refines the root, else golden sections maximize E itself."""
        pl, ph = carrier[0], carrier[2]
        sign = (pl > ph) & (pl >= _ZERO) & (ph <= _ZERO)
        nsign = np.count_nonzero(sign)
        u_star = np.empty(len(x))
        if nsign:
            i = sign if nsign < len(x) else slice(None)
            a, b = self._roots(x[i], t[i], nb[:, i], carrier[:, i], d2[i])
            u_star[i] = _HALF * (a + b)
        if nsign < len(x):
            g = ~sign
            W0g, xg, tg = W0[g], x[g], t[g]
            u_star[g] = golden_many(
                lambda u, i: -self._E(W0g[i], u, xg[i], tg[i]),
                self._s[nb[0, g]], self._s[nb[2, g]], self.tol_u)
        return u_star, self._E(W0, u_star, x, t)

    def _coarse(self, xs, t, j, w):
        """The u-windows of rows at the one time t that share the window
        j ... j + w - 1, each narrowed to the cells that a bound on E
        cannot rule out, as (start, width) arrays, which ``_blocks`` packs.

        The coarse points are every COARSE_STEP-th index of the window and
        its last, read as strided views of the grid and valued by one W
        call with each row's H(0) foot: each E is the float the scan
        computes there.  On the cell [a, b] between two coarse points the
        smaller of two upper bounds on E rules it out.

        * First order.  As dE = t psi dH, psi(u) = U(phi(x - t H(u))) -
          U(u), E is Lipschitz in H itself.  On the cell |psi| <= C = max|U|
          on the grid + max(|U(a)|, |U(b)|), since phi lies within the grid
          and U rises, so E <= B1 = max(E_a, E_b, (E_a + E_b)/2 + t C (H(b)
          - H(a))/2) there (Piyavskii 1972; Shubert 1972, in the variable
          H).  This holds for every rising H, whatever the shape of H', and
          reads H and U at grid points only.
        * Second order, for a named flux.  In the variable H, E'' = -t**2
          phi'(x - t H) - t / f''(u), so E'' >= -K on the cell, K = t**2
          sup(phi')_+ + t / min f'' there (``_semi``): Oleinik's one-sided
          condition read on E.  E + K H**2 / 2 is then convex, and E lies
          at most K (H(b) - H(a))**2 / 8 above its chord: E <= B2 = max(E_a,
          E_b) + K (H(b) - H(a))**2 / 8 (Breiman and Cutler 1993).  A
          down-jump of phi makes psi jump up, a positive delta in E'', so it
          costs nothing; an up-jump adds a negative one, so data with one
          (sup(phi')_+ = inf), a cell where min f'' = 0 (the quartic's
          cell at u = 0), a ``custom`` flux and a general pair keep B1.

        The last cell, which may end short of COARSE_STEP grid cells, takes
        C, min f'' and the rise of H of the COARSE_STEP cells from its
        start, which hold it.  The cell is ruled out when min(B1, B2) <
        Emax_c - 10 val_tol - m - R, with Emax_c the row's best coarse
        value; m a margin, the largest over the window's cells of the
        smaller of t C' dH' and K' dH'**2 / 8, where C', K' and dH' are the
        largest C, K and keep-filter rise of H (``_dH``) at a grid point of
        the cell or of the cells beside it; and R = 2**-40 (max|W| over the
        row's coarse feet and its W0 + max|U| |x| + t (max|I| + max|U|
        max|H|)) a rounding allowance, thousands of times the few ulps by
        which the computed E, its foot, W(foot) and either bound may stray.
        Each row's window becomes the hull from its first to its last cell
        left; it reads only that row and the window, so a row's hull does
        not depend on the rows passed with it, nor on the block it is
        packed in later.  Scanned over that hull, the row gets the whole
        window's maximizer set bit for bit:

        * every grid value of a ruled-out cell lies below the floor, so
          below the band, and no run there makes a component or raises the
          best value.  Take a run whose middle g lies outside the hull, or
          on its edge, or one the edge cuts, whose values are the edge's,
          so E at g lies below the floor; g lies in some cell of the
          window, whose C', K' and dH' hold every grid point the run reads.
          Where t C' dH' is the smaller, it bounds the run's gloc, as its
          three grid points each have a dH of at most dH' and a |psi| of at
          most C': the keep filter drops the run.  Where K' dH'**2 / 8 is,
          the run's refined point lies in its bracket [g - 1, g + 1], which
          reaches at most one grid cell into the hull, and its neighbours'
          values do not exceed its middle's: E there lies at most K' dH'**2
          / 8 <= m above E at g.  Either way its refined value stays below
          Emax_c - 10 val_tol, below the keep threshold and the best grid
          value;
        * the hull holds at least three points, as ``_maximize_block``
          needs: its start is clipped to e - 2, which widens only a hull
          of the last cell when that is one grid cell, by points of a
          ruled-out cell;
        * a hull edge that is not the window's ends a ruled-out cell, so
          it reads below ``reach`` and never sets ``redo``;
        * the best grid value lies inside the hull;
        * every value of E the scan still computes is the same float.
        """
        S, e = COARSE_STEP, j + w - 1
        nc = -(-(w - 1) // S)           # cells, the last ending at index e
        pts = np.empty((len(xs), nc + 2))
        np.subtract(xs[:, None], t * self._Hs[j:e:S], out=pts[:, :nc])
        pts[:, nc] = xs - t * self._Hs[e]
        pts[:, nc + 1] = xs - t * self._H0
        Wp = self._W(pts.ravel()).reshape(pts.shape)
        Ec = Wp[:, -1:] - Wp[:, :-1]
        Ec[:, :nc] -= t * self._Is[j:e:S]
        Ec[:, nc] -= t * self._Is[e]
        C, slack, Umax, tmag, dH = self._lipschitz
        Ea, Eb = Ec[:, :-1], Ec[:, 1:]
        top = np.maximum(Ea, Eb)
        B = np.add(Ea, Eb)
        B *= 0.5
        B += t * slack[j:e:S]
        np.maximum(B, top, out=B)
        dH = dH[j:e:S]
        margin = t * C[j:e:S] * dH
        if self._semi is not None:
            rise, g, q, gn = self._semi
            c = t * (t * rise + g[j:e:S])   # inf where min f'' = 0
            top += c * q[j:e:S]
            np.minimum(B, top, out=B)
            np.minimum(margin, 0.125 * t * (t * rise + gn[j:e:S]) * dH * dH,
                       out=margin)
        R = 2.0 ** -40 * (np.abs(Wp).max(axis=1) + Umax * np.abs(xs)
                          + t * tmag)
        floor = Ec.max(axis=1) - 10.0 * self.val_tol - margin.max() - R
        # the first and last live cells; a NaN rules nothing out
        dead = B < floor[:, None]
        first = dead.argmin(axis=1)
        last = nc - 1 - dead[:, ::-1].argmin(axis=1)
        start = np.minimum(j + S * first, e - 2)
        return start, np.minimum(j + S * (last + 1), e) - start + 1

    @functools.cached_property
    def _lipschitz(self):
        """The tables of ``_coarse``, built on its first call, by the grid
        index i of a coarse cell's start: C' (``_near``) of C[i] = max|U|
        on the grid + max(|U(s_i)|, |U(s_k)|), k = min(i + COARSE_STEP,
        n - 1), which bounds |psi| on the coarse cell [s_i, s_k]; C[i] (H(s_k)
        - H(s_i)) / 2; max|U| on the grid; max|I| + max|U| max|H|, which
        with it scales the rounding allowance; and dH', ``_near`` of the
        largest ``_dH`` at the points s_i ... s_k."""
        Hs, n = self._Hs, len(self._s)
        aU = np.abs(np.asarray(self._U(self._s), dtype=float))
        Umax = float(aU.max())
        end = np.minimum(np.arange(n) + COARSE_STEP, n - 1)
        C = Umax + np.maximum(aU, aU[end])
        dH = self._dH.copy()
        for k in range(1, COARSE_STEP + 1):
            np.maximum(dH[:-k], self._dH[k:], out=dH[:-k])
        return (_near(C), 0.5 * C * (Hs[end] - Hs), Umax,
                float(np.abs(self._Is).max() + Umax * np.abs(Hs).max()),
                _near(dH))

    # the second-order tables of ``_coarse``; ``Problem`` builds them
    _semi = None

    def _flat(self, xs, t, start, width):
        """Rows of many u-windows end to end, for ``_maximize_block``.

        Ep is one row of a -inf, each row's cells and a -inf (Blelloch,
        *Vector Models for Data-Parallel Computing*, 1990).  Column c of
        ``Ep[:, 1:-1]`` from O[q] on is row q's grid index c - base[q].  The
        feet are one gather of H; the foot at row q's first -inf is x -
        t H(0), whose W is W0[q].  Returns Ep, W0, each row's best grid
        value, O and base.
        """
        k = width + 2
        O = np.cumsum(k) - k                    # the first -inf of row q
        base = O - start
        # the grid index of every entry of Ep, start - 1 and start + width
        # at the -infs, clipped to the grid
        gi = np.arange(O[-1] + k[-1]) - 1 - np.repeat(base, k)
        H = self._Hs.take(gi, mode="clip")
        H[O] = self._H0
        tr = t[0] if not np.count_nonzero(t != t[0]) else np.repeat(t, k)
        feet = np.repeat(xs, k) - tr * H
        Wf = self._W(feet)
        W0 = Wf[O]
        Ep = np.repeat(W0, k) - Wf
        Ep -= tr * self._Is.take(gi, mode="clip")
        Ep[O] = Ep[O + k - 1] = -np.inf
        return Ep[None], W0, np.maximum.reduceat(Ep, O), O, base

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
        # cells of it.  Where the k-th band reaches the k-th kept point, as
        # a band does its own run's, all are; else complex keys row + u i
        # compare as (row, u), in order
        near, open_ = (lo - 1.5 * h, hi + 1.5 * h), flat[:0]
        if not (len(pr) == len(br) and np.count_nonzero(
                (pr == br) & (near[0] <= pu) & (pu <= near[1])) == len(br)):
            key = np.empty(len(pr), dtype=complex)
            key.real, key.imag = pr, pu
            key.sort()
            reach = np.empty((2, len(br)), dtype=complex)
            reach.real, reach.imag = br, near
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
        if np.count_nonzero(count == _ONE_I) == rows:
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

    def _roots(self, xb, t, nb, carrier, d2):
        """Final ends of psi's sign-change brackets s[nb[0]], s[nb[2]].

        Column k serves the point xb[k] at the time t[k].  ``carrier``
        holds psi at the grid points nb, a run's middle and its neighbours
        clipped to the grid, and ``d2`` the second difference of psi at
        three distinct grid points around it (``_maximize_block``).  The
        middle value halves each bracket.  Where phi is piecewise constant,
        psi's roots are closed form: the preimage of a breakpoint its feet
        cross, or the value c of phi on the feet, where U(c) - U(u)
        vanishes.  So every half of sampled data, and a half of piece data
        whose feet hold a breakpoint, tries those roots first
        (``_exact_roots``).  Every other half, and every half whose
        closed-form root fails its check, goes to ``_refine_roots``: one
        ``secant_many`` call per block, the only psi call of the refine
        besides ``_exact_roots``' check.  Returns the two rows of ends.
        """
        # the half of each bracket where psi changes sign, ends (a, b)
        up = carrier[1] > _ZERO
        ie = np.where(up, nb[1:], nb[:2])
        ends = self._s[ie]
        vals = np.where(up, carrier[1:], carrier[:2])
        if self._jumps is not None:
            done = self._exact_roots(xb, t, ie, vals, ends)
            if np.count_nonzero(done):
                k = (~done).nonzero()[0]
                if len(k):
                    ends[:, k] = self._refine_roots(
                        xb[k], t[k], d2[k], ends[:, k], vals[:, k])
                return ends
        return self._refine_roots(xb, t, d2, ends, vals)

    def _refine_roots(self, xb, t, d2, ends, vals):
        """``secant_many`` on the halves ``ends`` of the brackets.

        ``vals`` holds psi at the ends; ``d2``, the second difference of
        psi at three distinct grid points, bounds psi''.  Where psi jumps,
        the difference is about the jump, and ``secant_many``'s test sends
        the bracket to the bisection.  Whatever the bound, a bracket ends
        only on evaluated signs of psi.
        """
        curv = self._curv * np.abs(d2)
        return secant_many(lambda u, i: self._psi(u, xb[i], t[i]),
                           ends[0], ends[1], vals[0], vals[1], curv,
                           self.tol_u)

    def _exact_roots(self, xb, t, ie, vals, ends):
        """Roots of psi in closed form: a jump's preimage, or the value of
        phi on the feet where phi is constant there.

        Bracket k is [a, b] = ends[:, k], the grid points ie[:, k], with
        psi > 0 at a and <= 0 at b (``vals``), for the point xb[k] at the
        time t[k].  Its feet sweep (x - t H(b), x - t H(a)], and each
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
        either side.  The root r is then, with no call of the data:

        * the preimage below, where psi <= 0 also just above it: psi jumps
          down there, a fan's maximizer (one inversion of H);
        * else the plateau value c, phi on the sub-bracket's feet as the
          breakpoint table reads it, where U(phi) - U(u) = U(c) - U(u)
          vanishes if phi is constant there.

        An exact root r stands as the bracket r -+ 0.45 tol_u.  One psi
        call checks every bracket: a <= r <= b, psi > 0 at its lower end,
        <= 0 at its upper end, width at most tol_u.  The check in [a, b]
        matters where phi is not constant on the feet: c may still be a
        root of psi elsewhere, where a characteristic from another point
        with phi = c passes through (x, t).  Brackets that pass are written
        into ``ends``, and the mask of them returned; the others, and the
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
        tg = t[g]
        v = (xr[g][own] - y[j]) / tg[own]
        j %= len(left)
        # the first preimage with psi <= 0 just below it ends the sub-bracket
        # that holds the sign change; m breakpoints lie below it
        m = np.minimum.reduceat(np.where(Hr[j] <= v, np.arange(n), n), off)
        m = np.minimum(m - off, c)
        el = off + m - 1                        # the preimage below it
        jump = (m > 0) & (Hl[j[el]] <= v[el])
        (ag, bg), xg = ends[:, g], xb[g]
        # phi on the sub-bracket's feet: right of breakpoint i - 1, or left
        # of the first one
        i = j1[g] - m
        r = np.where(i > 0, right[(i - 1) % len(right)], left[0])
        if np.count_nonzero(jump):
            r[jump] = self._preimage(v[el[jump]], ag[jump], bg[jump])
        d = 0.45 * self.tol_u
        lo, hi = r - d, r + d
        # the check, one psi call for every bracket
        k = len(g)
        pv = self._psi(np.concatenate([lo, hi]), np.concatenate([xg, xg]),
                       np.concatenate([tg, tg]))
        ok = ((ag <= r) & (r <= bg) & (pv[:k] > 0.0) & (pv[k:] <= 0.0)
              & (lo < hi) & (hi - lo <= self.tol_u))
        ends[:, g[ok]] = lo[ok], hi[ok]
        go[g[~ok]] = False
        return go

    def _sides(self, xs, t, mid=None, above=None):
        """The maximizer sets at the points xs and times t, as the ``_Rows``
        of one ``_maximize_block``, each row over the whole grid where mid
        is None, else over one side of mid: the grid indices [im, n) where
        ``above``, [0, im) elsewhere, with im the first grid index at or
        above mid.  None where a side holds fewer than three grid points,
        the fewest a window holds, or where a row's best value or band
        reaches mid (its ``redo``): the side's best may lie across it.
        """
        n, m = len(self._s), len(xs)
        if mid is None:
            return self._maximize_block(xs, t, np.zeros(m, dtype=np.intp),
                                        np.full(m, n))
        im = int(np.searchsorted(self._s, mid))
        above = np.full(m, above)
        width = np.where(above, n - im, im)
        if width.min() < 3:
            return None
        out = self._maximize_block(xs, t, np.where(above, im, 0), width)
        return None if out.redo.any() else out

    def branch_gap(self, x, t, mid):
        """The value gap between the maximizer branches of E(.; x, t) on each
        side of mid.

        One ``_sides`` read of two rows at x: branch u- is the largest
        maximizer of E at or above mid, and branch u+ the smallest below
        it.  Near the tie of the two, u+(x) > mid exactly when G >
        ``val_tol``, the bisection's own test.  Returns (G, dG/dx, u-, u+)
        with G = E(u-) - E(u+); by the envelope theorem dG/dx = U(u+) -
        U(u-) (Lax 1957).  None where ``_sides`` gives None: a side of mid
        holds fewer than three grid points, which needs a mid within two
        cells of -+(M + delta), so both traces lie near one bound, or a
        side's best value or band reaches mid.
        """
        if not (math.isfinite(x) and math.isfinite(mid)):
            raise ValueError("x, mid and t must be finite, with t positive")
        out = self._sides(np.full(2, float(x)), np.full(2, _checked_t(t)),
                          mid, np.array([True, False]))
        if out is None:
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

        Up to 128 points at the default n_scan (see ``_maximize_grid``)
        are one ``_blocks`` call over the whole u-grid; from 5 points on, it
        first rules out the cells whose bound on E cannot reach the keep
        threshold and scans only the hull of the others (``_coarse``: 288
        of 16 384 cells for 8 points of ``sin_wave()`` at t = 1.2, one
        block).  A longer grid is maximized in levels: such
        a call on 85 evenly spaced points, then each unsolved point over the
        u-window that its solved neighbours' characteristic feet leave it,
        rows packed in their order in blocks of at most ``BLOCK_ELEMS``
        cells, the sum of their windows' cells after the pass, and no row
        cap; a row whose best value or ``val_tol`` band reaches an inner
        window edge is scanned over the whole grid.  A grid before the
        breaking time ``t_one`` (``_blocks``) takes no coarse pass and no
        levels: its rows go to the one-root kernel, 3 rounds for 32 points
        of ``sin_wave()`` at t = 0.5, and only the rows it cannot bracket
        are scanned.  After it, the rows go to the kernel over their coarse
        hulls where ``_one_hull`` certifies psi to fall on every hull (32
        points of ``sin_wave()`` at t = 1.5 over [-3, 3]), and are scanned
        where some row's hull holds two branches of E, as on a shock.
        On periodic data after t_w = 2 P / (H(s_n) - H(s_0)) the whole grid
        is replaced by the window that the period mean allows
        (``_window``): 17 points of
        ``restart(0.5)`` of ``sin_wave()`` are one block from t = 0.6 to
        100, which takes the coarse pass up to t = 27.4.  A value of E the
        coarse pass rules out holds no kept run and no band, and every
        value scanned is the float the whole scan computes, so each sample
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
        # the breaking time t_one = 1 / (sup f'' sup(-phi')_+), 0 where phi
        # jumps down (Lax 1957): before it, t f''(u) (-phi'(y)) < 1, so psi'
        # = -t f'' phi' - 1 < 0 off the breakpoints and psi jumps down
        # across them, and psi falls across the u-grid.  f'' peaks at a
        # grid end for every named flux (``_one_hull``).  f'' on the grid
        # is kept for ``_one_hull``, but for sampled data, whose hulls hold
        # their knots' jumps
        self._f2 = None
        if flux.kind != "custom":
            f2 = np.asarray(flux.second(self._s), dtype=float)
            fall = data._descent() * np.max(f2[[0, -1]])
            self.t_one = math.inf if fall == 0.0 else float(1.0 / fall)
            if not data.is_sampled:
                self._f2 = f2

    def _one_hull(self, xs, t, start, width):
        """Whether psi falls on every row's window [s_a, s_b] at the time t
        (Lax 1957; Oleinik 1957): t max(f''(s_a), f''(s_b)) sup(-phi')_+ <
        1 over the feet [x - t H(s_b), x - t H(s_a)], with no down-jump of
        phi there (``InitialData._descent_on``).  f'' peaks at an end of
        every u-interval for every named flux: it is constant (Burgers),
        even and convex (``power2n``) or monotone (``exponential``).  So
        psi' = t f'' (-phi') - 1 < 0 off phi's breakpoints, psi jumps down
        across them, and E has at most one maximum in the window."""
        if self._f2 is None:
            return False
        ends = np.array([start + width - 1, start])
        fall = self.data._descent_on(xs - t * self._Hs[ends])
        return bool((t * self._f2[ends].max(axis=0) * fall < 1.0).all())

    @functools.cached_property
    def _semi(self):
        """The tables of ``_coarse``'s second-order bound, built on its
        first call: sup(phi')_+ (``_ascent``); 1 / min f'' over each coarse
        cell [s_i, s_k], k as in ``_lipschitz``, inf where f'' reaches 0;
        (H(s_k) - H(s_i))**2 / 8; and ``_near`` of the second.  f'' is
        least at a cell end, or at 0 inside it, for every named flux:
        constant, even and convex, or monotone.  None for a ``custom``
        flux, and where phi jumps up."""
        rise = self.data._ascent()
        if self.flux.kind == "custom" or rise == math.inf:
            return None
        s, n = self._s, len(self._s)
        end = np.minimum(np.arange(n) + COARSE_STEP, n - 1)
        f2 = np.asarray(self.flux.second(s), dtype=float)
        low = np.minimum(f2, f2[end])
        across = (s < 0.0) & (s[end] > 0.0)
        low[across] = np.minimum(low[across], float(self.flux.second(0.0)))
        with np.errstate(divide="ignore"):
            g = 1.0 / low
        return rise, g, 0.125 * (self._Hs[end] - self._Hs) ** 2, _near(g)

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
        ``solve_grid`` maximizes a grid, read as the u+ array of
        ``_maximize_grid`` with no MaximizerSet built.  Before the breaking
        time ``t_one`` every knot takes the one-root kernel, two halves of
        11 binary rounds each on ``sin_wave()`` at tau = 0.5, in about half
        the time of the scan's 9 blocks; from it on, most take the scan
        over a u-window of a few dozen cells that the neighbouring knots'
        feet leave them.
        Each equals ``solve(x, tau).u_plus`` bit for bit wherever the knot's
        kept runs and bands lie inside its window, as in every tested
        restart.  On periodic data the restarted problem is periodic too, so
        its solves after t_w = 2 P / (H(s_n) - H(s_0)) past tau scan only
        the window its period mean allows (``_window``): on ``sin_wave()``
        restarted at tau in [0.4, 0.6], a 17-point ``solve_grid`` slice at
        t - tau >= 6.69 scans at most 1 927 cells per row.  Up to t - tau =
        26.9 its rows take the coarse pass of ``_blocks`` and scan only the
        cells a Lipschitz bound on E cannot rule out, one block: 2 304 of
        their 15 147 cells at t = 15 (tau = 0.5).
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
    return GeneralFluxPair(_identity, None, F=flux.eval, H=flux.deriv)
