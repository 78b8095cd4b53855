"""Piecewise-analytic initial data with exact primitives.

The representable class is: pieces of constant / polynomial / a*sin(bx+c) /
a*cos(bx+c) / signed-power terms on contiguous intervals, closed off by
constant tails or by periodicity.  Everything the criteria consume (primitive,
Dini derivatives, tail invariants, local power expansions) is exact.
"""

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError

_EPS = 1e-12
_KMAX = 12
# the most zeros of phi'' that ``InitialData._falls`` lists for one sin or
# cos piece; a piece of more makes every interval read the whole line's sup
_BENDS = 4096
_FMAX = np.finfo(float).max


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    kind: str                 # const | poly | sin | cos | power
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DiniPack:
    x0: float
    upper_left: float          # limsup of left difference quotients of Phi
    lower_right: float         # liminf of right difference quotients of Phi


@dataclass(frozen=True)
class LocalExpansion:
    x0: float
    side: str
    c: float
    gamma: float
    C_gamma: float


@dataclass(frozen=True)
class TailInvariants:
    ubar_l: float
    ulow_l: float
    ubar_r: float
    ulow_r: float


def _terms(p):
    """The piece's term of phi and a raw antiderivative of it (additive
    constant free), as two functions of float points, its constants
    bound here once, as 0-d arrays: numpy takes those faster than Python
    floats, with the same float results."""
    q, kind = p.params, p.kind
    if kind == "const":
        c = np.array(q["c"], dtype=float)
        return (lambda x: np.full_like(x, c)), (lambda x: c * x)
    if kind == "poly":
        cs, pv = np.asarray(q["coeffs"], dtype=float), np.polynomial.polynomial
        ci = pv.polyint(cs)
        return (lambda x: pv.polyval(x, cs)), (lambda x: pv.polyval(x, ci))
    if kind in ("sin", "cos"):
        f, g = (np.sin, np.cos) if kind == "sin" else (np.cos, np.sin)
        ab = -q["a"] / q["b"] if kind == "sin" else q["a"] / q["b"]
        a, b, c, ab = (np.array(v, dtype=float)
                       for v in (q["a"], q["b"], q["c"], ab))
        return (lambda x: a * f(b * x + c)), (lambda x: ab * g(b * x + c))
    if kind == "power":
        # g stays a Python number: numpy's fast paths of ** read it so
        xr, a, b = (np.array(v, dtype=float)
                    for v in (q["x_ref"], q["a"], q.get("b", 0.0)))
        g = q["g"]
        return ((lambda x: a * np.sign(x - xr) * np.abs(x - xr) ** g + b),
                (lambda x: a * np.abs(x - xr) ** (1.0 + g) / (1.0 + g)
                 + b * x))
    raise ValueError(f"unknown piece kind {kind!r}")


def _pderivs(p, x0):
    """Derivatives (phi, phi', ..., phi^(_KMAX)) of the piece term at x0.

    Only valid where the term is smooth: ``local_expansion`` takes a power
    term's x_ref itself, and ``_terms`` has refused an unknown kind.
    """
    q = p.params
    out = []
    if p.kind == "const":
        return [float(q["c"])] + [0.0] * _KMAX
    if p.kind == "poly":
        cs = np.asarray(q["coeffs"], dtype=float)
        for k in range(_KMAX + 1):
            d = np.polynomial.polynomial.polyder(cs, k) if k else cs
            out.append(float(np.polynomial.polynomial.polyval(x0, d)) if len(d) else 0.0)
        return out
    if p.kind in ("sin", "cos"):
        a, b, c = q["a"], q["b"], q["c"]
        shift = 0.0 if p.kind == "sin" else math.pi / 2.0
        for k in range(_KMAX + 1):
            out.append(a * b ** k * math.sin(b * x0 + c + shift + k * math.pi / 2.0))
        return out
    # a power term, x0 off x_ref: h(s) = a*sgn(s)|s|^g, for s>0 a*s^g,
    # for s<0 -a*(-s)^g
    s0 = x0 - q["x_ref"]
    a, g = q["a"], q["g"]
    sgn = math.copysign(1.0, s0)
    coef = a * sgn
    for k in range(_KMAX + 1):
        fall = 1.0
        for i in range(k):
            fall *= (g - i)
        val = coef * fall * abs(s0) ** (g - k) * (sgn ** k)
        if k == 0:
            val += q.get("b", 0.0)
        out.append(val)
    return out


def _stationary(p, k, most=2):
    """Points of the piece, clipped to it, where the k-th derivative of its
    term can vanish, so that its (k - 1)-th can peak: the real parts of
    the roots of p^(k), a power term's x_ref, and for sin and cos the phase
    points where phi^(k) = 0, the first ``most`` of them from the piece's
    low end.  For sin and cos the (k - 1)-th derivative takes the same
    |value| at every one of them, so two consecutive ones, one maximum and
    one minimum, stand for all of them.
    """
    q = p.params
    z = []
    if p.kind in ("sin", "cos"):
        # b x + c = base + j pi where phi^(k) = 0
        base = math.pi / 2.0 * ((k + (p.kind == "cos")) % 2)
        lo, hi = sorted((q["b"] * e + q["c"] - base) / math.pi
                        for e in (p.lo, p.hi))
        js = np.arange(math.ceil(lo),
                       min(math.ceil(lo) + most - 1, math.floor(hi)) + 1)
        z = (base + js * math.pi - q["c"]) / q["b"]
    elif p.kind == "poly":
        pv = np.polynomial.polynomial
        d = pv.polytrim(pv.polyder(np.asarray(q["coeffs"], dtype=float), k))
        z = pv.polyroots(d).real if len(d) > 1 else []
    elif p.kind == "power":
        z = [q["x_ref"]]
    return np.clip(np.asarray(z, dtype=float), p.lo, p.hi)


def _slope(p):
    """phi' of the piece term, as ``_terms`` gives phi: a function of float
    points, its constants bound once.  A power term of 0 < g < 1 reads
    +-inf at x_ref, with the sign of a; one of g = 0 or a = 0 reads 0, its
    step at x_ref being a row of the side table."""
    q, kind = p.params, p.kind
    if kind == "poly":
        pv = np.polynomial.polynomial
        d = pv.polyder(np.asarray(q["coeffs"], dtype=float))
        return lambda x: pv.polyval(x, d)
    if kind in ("sin", "cos"):
        f = np.cos if kind == "sin" else (lambda v: -np.sin(v))
        ab, b, c = (np.array(v, dtype=float)
                    for v in (q["a"] * q["b"], q["b"], q["c"]))
        return lambda x: ab * f(b * x + c)
    if kind == "power" and q["a"] != 0 and q["g"] != 0:
        xr, ag, g = np.array(q["x_ref"], dtype=float), np.array(
            q["a"] * q["g"], dtype=float), q["g"] - 1.0

        def slope(x):
            with np.errstate(divide="ignore"):
                return ag * np.abs(x - xr) ** g
        return slope
    return np.zeros_like


def _end_limits(p, f):
    """phi(lo+) and phi(hi-) on the piece, f its term: a power term of
    g = 0 steps at x_ref, where sgn(0) reads 0, so an end at x_ref takes
    the value of the piece's side."""
    q, g0 = p.params, p.kind == "power" and p.params["g"] == 0
    return tuple(q.get("b", 0.0) + s * q["a"] if g0 and e == q["x_ref"]
                 else float(f(float(e))) for e, s in ((p.lo, 1), (p.hi, -1)))


def _interval(edges, x, last):
    """Index i of the interval [edges[i], edges[i + 1]) holding each x,
    clamped to 0..last."""
    idx = np.searchsorted(edges, x, side="right")
    idx -= 1
    np.maximum(idx, 0, out=idx)
    return np.minimum(idx, last, out=idx)


def _check_finite(what, *vals):
    if not np.all(np.isfinite(np.asarray(vals, dtype=float))):
        raise ValueError(f"{what} must be finite")


def _check_side(side):
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")


def _check_piece(p):
    """Reject an empty or reversed piece, or one the closed forms divide by."""
    _check_finite("piece ends", p.lo, p.hi)
    if not p.lo < p.hi:
        raise ValueError("a piece needs lo < hi")
    q = p.params
    if p.kind in ("sin", "cos") and q["b"] == 0:
        raise ValueError(f"a {p.kind} piece needs b != 0")
    if p.kind == "poly" and len(q["coeffs"]) == 0:
        raise ValueError("a poly piece needs coefficients")
    if p.kind == "power" and not q["g"] >= 0:
        raise ValueError("a power piece needs g >= 0")


def _tail_line(slope, d):
    """slope * d; a zero slope gives 0 also at d = +-inf, where 0 * inf is NaN."""
    if slope == 0.0:
        d = np.clip(d, -_FMAX, _FMAX)      # keeps the sign of the zero
    return slope * d


class _Extended:
    """Data on the window [w_lo, w_hi], extended to the whole line.

    Beyond the window the data tile periodically (``period``) or continue
    as the constants ``left_tail`` and ``right_tail``; ``_win`` is the
    integral of phi over the window.  ``phi``, ``primitive`` and
    ``tail_invariants`` follow from this one rule.  Subclasses set the
    window, the extension (``_set_extension`` validates it) and ``_win``,
    then call ``_build``; they evaluate in-window points through
    ``_inner_phi(r)`` and ``_inner_primitive(r)``, methods or functions
    set before ``_build``, which take a 1-D array, must not write to it,
    and return a new array.  ``_build`` makes each of ``phi`` and
    ``primitive`` one function, built once: a call runs the ufuncs of its
    branch, with no test of the data's kind.

    Evaluation contract of ``phi`` and ``primitive``:

    * An all-finite argument takes the direct path: no copy of it, no
      masks on periodic data or where no point (or every point) lies in a
      tail, and one inner call on the points the window holds.
    * An argument holding NaN or +-inf takes a branch that runs only then.
      NaN, and +-inf on periodic data, give NaN; +-inf on tailed data give
      the tail's limit.  No ``RuntimeWarning`` is raised.
    * Periodic data take finite x only within ``_x_max`` = max(|w_lo|,
      |w_hi|) + 2**32 periods, and raise ``ValueError`` past it: there the
      float spacing of x exceeds 2**-20 periods, so the reduction into the
      window would lose the phase (at 1e16 with period 2 pi, every x maps
      to w_lo).  The same test that finds NaN and inf finds such an x.
    * An element's value does not depend on the array around it: each one
      goes through the same ufunc sequence as the one-point call, so array
      and point calls agree bit for bit.  ``_maximize_block``'s bit-for-bit
      agreement between blocks and single solves rests on this.
    """

    left_tail = right_tail = None
    _norm = 0.0
    _x_max = np.inf
    # the right tail already holds at w_hi itself (a left-constant
    # interpolant takes its last value at the last knot)
    _tail_from_w_hi = False

    def _set_extension(self, period, left_tail, right_tail):
        """Tile [w_lo, w_hi] with the period, or continue it by the tails."""
        _check_finite("window", self.w_lo, self.w_hi)
        self.period = float(period) if period is not None else None
        if self.period is not None:
            if not (self.period > 0.0
                    and abs((self.w_hi - self.w_lo) - self.period) <= 1e-9):
                raise ValueError("the window must span exactly one period")
            self._x_max = (max(abs(self.w_lo), abs(self.w_hi))
                           + 2.0 ** 32 * self.period)
        else:
            self.left_tail, self.right_tail = float(left_tail), float(right_tail)
            _check_finite("tails", self.left_tail, self.right_tail)

    def _build(self):
        """Build ``phi`` and ``primitive``, the primitive's additive constant
        fixed so that Phi(0) = 0."""
        self._phi = self._evaluator(self._inner_phi, None)
        self._norm = float(self._evaluator(self._inner_primitive, 0.0)(0.0))
        self._prim = self._evaluator(self._inner_primitive, self._norm)

    def _tile(self, x, origin=None):
        """The tile k of periodic data, [o, o + P) + kP, that holds x: o is
        w_lo, or the origin given."""
        return np.floor((x - (self.w_lo if origin is None else origin))
                        / self.period)

    def _evaluator(self, inner, norm):
        """phi, or where norm is a number Phi - norm, on the whole line as
        one function of x; the in-window points go to inner."""
        lo, hi, win, nm = (np.array(v, dtype=float) for v in (
            self.w_lo, self.w_hi, self._win, 0.0 if norm is None else norm))
        integrated, x_max = norm is not None, self._x_max
        if self.period is not None:
            P = np.array(self.period, dtype=float)

            def core(x):
                # reduce into the window, clamp the float floor's 1-ulp
                # misses; bound first, so that a tie keeps r's signed zero
                # as np.clip does
                k = np.floor((x - lo) / P)
                r = x - k * P
                np.maximum(lo, r, out=r)
                np.minimum(hi, r, out=r)
                out = inner(r)
                if integrated:
                    out += k * win
                return out
        else:
            lt, rt = (np.array(v, dtype=float)
                      for v in (self.left_tail, self.right_tail))
            beyond = np.greater_equal if self._tail_from_w_hi else np.greater
            fl, fr = (((lambda x: lt * (x - lo)), (lambda x: win + rt * (x - hi)))
                      if integrated else ((lambda x: np.full_like(x, lt)),
                                          (lambda x: np.full_like(x, rt))))

            def core(x):
                left, right = x < lo, beyond(x, hi)
                n_left, n_right = np.count_nonzero(left), np.count_nonzero(right)
                # every point in one tail, or none in either: no masks
                if x.size in (n_left, n_right) or not n_left + n_right:
                    return (fl if n_left == x.size else
                            fr if n_right == x.size else inner)(x)
                out = np.empty_like(x)
                out[left], out[right] = fl(x[left]), fr(x[right])
                if n_left + n_right < x.size:
                    mid = ~(left | right)
                    out[mid] = inner(x[mid])
                return out

        def evaluate(x):
            x = np.asarray(x, dtype=float)
            if x.ndim == 0:
                return float(evaluate(x.reshape(1))[0])
            if x.size and not np.abs(x).max() < x_max:
                return self._nonfinite(x, evaluate, norm)
            out = core(x)
            if integrated:
                out -= nm
            return out
        return evaluate

    def _nonfinite(self, x, finite, norm):
        """``finite`` at the finite entries of x, which must lie below
        ``_x_max``, each one as its one-point call gives it; NaN has no
        value, nor has +-inf a phase in a period."""
        fin = np.isfinite(x)
        if not (np.abs(x[fin]) < self._x_max).all():
            raise ValueError(
                f"|x| must stay below {self._x_max:.6g} on periodic data")
        out = finite(np.where(fin, x, self.w_lo))
        out[~fin] = np.nan
        if self.period is None:
            out[x == -np.inf], out[x == np.inf] = (
                (self.left_tail, self.right_tail) if norm is None else
                (_tail_line(self.left_tail, -np.inf) - norm,
                 self._win + _tail_line(self.right_tail, np.inf) - norm))
        return out

    def _set_sides(self, y, left, right, brk):
        """Store the side table: the sorted points y of [w_lo, w_hi] where
        phi's one-sided limits are read off, not evaluated, with phi(y-)
        and phi(y+) there, and brk, whether a row is a breakpoint.  On
        periodic data the seam is a row at w_lo and one at w_hi, and only
        the first is a breakpoint."""
        self._sides = tuple(np.asarray(v, dtype=float)
                            for v in (y, left, right))
        self._brk = brk & ((self._sides[0] < self.w_hi)
                           | (self.period is None))

    def breakpoints(self):
        """The points of the window where phi is not smooth, and its limits.

        Returns sorted arrays ``(y, left, right)`` of the points and of
        phi(y-) and phi(y+) there: the rows of the side table that hold a
        jump, or a power piece's x_ref inside its piece.  Periodic data
        give the points of [w_lo, w_hi).
        """
        return tuple(v[self._brk] for v in self._sides)

    def _side(self, x0, side):
        """phi's one-sided limit at x0, and x0's point of the window: x0
        reduced as phi reduces it (on periodic data by the tile index
        ``_tile``, where |x0| < ``_x_max``, else ValueError), taken onto
        the side table's nearest point where that lies within 1e-14."""
        _check_side(side)
        if not math.isfinite(x0):
            raise ValueError("x0 must be finite")
        r = float(x0)
        if self.period is not None:
            if not abs(r) < self._x_max:        # as in phi
                raise ValueError(
                    f"|x| must stay below {self._x_max:.6g} on periodic data")
            r = min(max(float(r - self._tile(r) * self.period), self.w_lo),
                    self.w_hi)
        y = self._sides[0]
        i = bisect_left(y, r)       # on a scalar, faster than searchsorted
        if i and (i == len(y) or r - y[i - 1] < y[i] - r):
            i -= 1
        if i < len(y) and abs(y[i] - r) <= 1e-14:
            lim = self._sides[2 if side == "right" else 1][i]
            return float(lim), float(y[i])
        if self.period is None and not self.w_lo <= r <= self.w_hi:
            return (self.left_tail if r < self.w_lo else self.right_tail), r
        return float(self._inner_phi(np.array([r]))[0]), r

    def phi_side(self, x0, side):
        """phi(x0-) or phi(x0+), the one-sided limit of phi at x0.

        x0 is reduced as phi reduces it.  Within 1e-14 of a point of the
        side table the limit is the table's; anywhere else phi is
        continuous, and both limits are phi(x0), read from the window's
        pieces or knots, or from a tail.
        """
        return self._side(x0, side)[0]

    def dini(self, x0):
        """phi(x0-) and phi(x0+), as ``phi_side`` reads them."""
        return DiniPack(x0, self.phi_side(x0, "left"),
                        self.phi_side(x0, "right"))

    def phi(self, x):
        return self._phi(x)

    def primitive(self, x):
        """Phi(x) = int_0^x phi, continuity-stitched, Phi(0) = 0."""
        return self._prim(x)

    def tail_invariants(self):
        if self.period is not None:
            m = float(self._win / self.period)
            return TailInvariants(m, m, m, m)
        return TailInvariants(self.left_tail, self.left_tail,
                              self.right_tail, self.right_tail)


class InitialData(_Extended):
    """phi in L-infinity from the representable class; immutable."""

    is_sampled = False

    def __init__(self, pieces, left_tail=None, right_tail=None, period=None,
                 bound=None, window=None):
        for p in pieces:
            _check_piece(p)
        pieces = sorted(pieces, key=lambda p: p.lo)
        for a, b in zip(pieces, pieces[1:]):
            if abs(a.hi - b.lo) > 1e-9:
                raise ValueError("pieces must be contiguous")
        if pieces:
            self.w_lo, self.w_hi = pieces[0].lo, pieces[-1].hi
        elif window is not None:
            self.w_lo = self.w_hi = float(window[0])
        else:
            raise ValueError("empty data needs an explicit window point")
        self.pieces = tuple(pieces)
        if period is None and (left_tail is None or right_tail is None):
            raise ValueError("non-periodic data needs both constant tails")
        self._set_extension(period, left_tail, right_tail)

        # continuity-stitched primitive offsets
        self._terms = [_terms(p) for p in self.pieces]
        offs, run = [], 0.0
        for p, (_, F) in zip(self.pieces, self._terms):
            lo, hi = float(F(float(p.lo))), float(F(float(p.hi)))
            offs.append(run - lo)
            run = run + hi - lo
        # a sin or cos piece whose a / b overflows, say, has no primitive
        _check_finite("the primitive of the data", run, *offs)
        self._win = run
        self._breaks = np.asarray([p.lo for p in self.pieces] + [self.w_hi])
        self._inner_phi = self._inner([f for f, _ in self._terms])
        self._inner_primitive = self._inner([
            lambda r, F=F, c=np.array(c, dtype=float): F(r) + c
            for (_, F), c in zip(self._terms, offs)])
        self._build()
        self._side_table()
        self.bound = float(bound) if bound is not None else self._estimate_bound()
        _check_finite("bound", self.bound)

    # -- evaluation -------------------------------------------------------

    def _inner(self, fns):
        """phi, or the stitched primitive, piece by piece in the window, from
        each piece's function in fns: one function of r."""
        if len(fns) <= 1:
            return fns[0] if fns else np.zeros_like
        breaks, last = self._breaks, len(fns) - 1

        def inner(r):
            idx = _interval(breaks, r, last)
            out = np.empty_like(r)
            for i, f in enumerate(fns):
                m = idx == i
                if np.any(m):
                    out[m] = f(r[m])
            return out
        return inner

    def _side_table(self):
        """The side table of piece data: each piece end, the window's ends
        and the seam included, with phi's one-sided limits there as
        ``_end_limits`` reads them (the tails beyond a window end, the far
        end across the seam), and each power piece's x_ref inside its
        piece.  Its breakpoints are the x_refs and the ends where phi jumps
        by more than 1e-12 of its size there, so the seam of ``sin_wave``
        is none."""
        ends = [_end_limits(p, f)
                for p, (f, _) in zip(self.pieces, self._terms)]
        lims, seam = [v for e in ends for v in e], self.period is not None
        lims = ([lims[-1] if seam else self.left_tail] + lims
                + [lims[0] if seam else self.right_tail])
        rows = [(y, lv, rv, False) for y, lv, rv in
                zip(self._breaks.tolist(), lims[::2], lims[1::2])]
        for p in self.pieces:
            q = p.params
            if p.kind == "power" and p.lo < q["x_ref"] < p.hi:
                # a sgn(s) |s|^g + b: a jump of 2a for g = 0, else continuous
                jump = q["a"] if q["g"] == 0 else 0.0
                b = q.get("b", 0.0)
                rows.append((q["x_ref"], b - jump, b + jump, True))
        y, left, right, kink = (np.array(v) for v in zip(*sorted(rows)))
        brk = kink | (np.abs(left - right)
                      > 1e-12 * (1.0 + np.abs(left) + np.abs(right)))
        self._set_sides(y, left, right, brk)

    @functools.cached_property
    def _falls(self):
        """The tables of ``_descent_on``, built on first use.

        z holds the sorted points where (-phi')_+ can peak, each twice,
        and v its value there on one side after a 0: each piece's ends and
        its zeros of phi'' (``_stationary``) read by its own ``_slope``,
        and inf at the rows of the side table where phi jumps down, where
        it falls from its left limit to its value there, or on to its
        right limit, by more than 1e-12 of its size.  On periodic data z
        runs on over a second period, as the engine's jump table does.
        Then the sup of v, and phi' in the window.  z is None where a sin
        or cos piece holds more than ``_BENDS`` zeros of phi''; the two it
        lists still reach its sup.
        """
        slopes = [_slope(p) for p in self.pieces]
        z, v = [], []
        for p, f in zip(self.pieces, slopes):
            zs = np.concatenate([[p.lo, p.hi], _stationary(p, 2, _BENDS + 1)])
            z.append(zs)
            v.append(np.maximum(-f(zs), 0.0))
        dense = max(map(len, z), default=0) > _BENDS + 2
        y, left, right = self._sides
        mid = self.phi(y)
        z.append(y[np.maximum(left, mid) - np.minimum(mid, right)
                   > 1e-12 * (1.0 + np.abs(left) + np.abs(right))])
        v.append(np.full(len(z[-1]), math.inf))
        z, v = np.concatenate(z), np.concatenate(v)
        top = float(v.max(initial=0.0))
        if dense:
            return None, None, top, None
        if self.period is not None:
            z, v = np.concatenate([z, z + self.period]), np.tile(v, 2)
        k = np.argsort(z, kind="stable")
        # each point twice, its value after a 0: a range that holds no
        # point reads that 0 in ``reduceat``, and the last 0 closes the
        # last range
        vz = np.zeros(2 * len(k) + 1)
        vz[1::2] = v[k]
        return np.repeat(z[k], 2), vz, top, self._inner(slopes)

    def _descent(self):
        """sup of (-phi')_+ over the whole line, inf where phi jumps down
        (``_falls``); the tails are constant."""
        return self._falls[2]

    def _descent_on(self, ab):
        """An upper bound on sup (-phi')_+ over each interval [a, b], the
        columns of the (2, m) array ab, a <= b; inf where phi jumps down in
        it.

        -phi' is monotone between the points of ``_falls``, so its sup is
        the largest of (-phi')_+ at a, at b and at those points in [a, b],
        whose values hold both one-sided limits.  On periodic data a is
        reduced by ``_tile``, b by the same whole periods, onto the table
        of two periods, which holds every point of an interval of a period
        or more from a on.  Data whose table is None read the sup over the
        whole line.
        """
        z, v, top, slope = self._falls
        if z is None:
            return np.full(ab.shape[1], top)
        P = self.period
        if P is not None:
            k = self._tile(ab) * P
            r = ab - k
            a, b = r[0], ab[1] - k[0]
        else:
            a, b = ab
            r = np.minimum(np.maximum(ab, self.w_lo), self.w_hi)
        i, j = np.searchsorted(z, a, "left"), np.searchsorted(z, b, "right")
        inner = np.maximum.reduceat(v, np.array([i, j]).T.ravel())[::2]
        fall = -slope(r)
        if P is None:
            fall[r != ab] = 0.0             # phi' = 0 in the tails
        return np.maximum(fall.max(axis=0), inner)

    def _estimate_bound(self):
        vals = []
        for p, (f, _) in zip(self.pieces, self._terms):
            xs = np.concatenate([np.linspace(p.lo, p.hi, 4097),
                                 _stationary(p, 1)])
            vals.append(np.max(np.abs(f(xs))))
        if self.period is None:
            vals += [abs(self.left_tail), abs(self.right_tail)]
        return float(max(vals) if vals else 0.0) + 1e-12

    # -- one-sided structure ----------------------------------------------

    def local_expansion(self, x0, c, side):
        """phi(x0+l) - c = (C+o(1)) sgn(l)|l|^gamma on the given side.

        x0 is reduced as ``phi_side`` reduces it, and taken onto the point
        of the side table within 1e-14 of it.  The side's piece is the one
        that the evaluators' ``_interval`` search gives for x0 (right), or
        for the float below it (left); on periodic data the seam's left
        side is the last piece at w_hi.  A power piece's x_ref within 1e-12
        of x0 gives its own exponent, anywhere else the piece's Taylor
        coefficients give it.

        Raises FitError when phi is identically c on the side (gamma = inf
        sentinel semantics) or when the one-sided limit differs from c.
        """
        if not math.isfinite(c):
            raise ValueError("c must be finite")
        lim, r = self._side(x0, side)
        if abs(lim - c) > 1e-12:
            raise FitError("one-sided limit of phi differs from c")
        left = side == "left"
        if self.period is not None and r == (self.w_lo if left else self.w_hi):
            r = self.w_hi if left else self.w_lo        # across the seam
        s = math.nextafter(r, -math.inf) if left else r
        if not self.w_lo <= s < self.w_hi:      # a tail, constant
            raise FitError("phi is identically c on this side")
        p = self.pieces[_interval(self._breaks, np.array([s]),
                                  len(self.pieces) - 1)[0]]
        q = p.params
        if p.kind == "power" and abs(r - q["x_ref"]) <= _EPS:
            if q["a"] == 0 or q["g"] == 0:  # the term is constant on each side
                raise FitError("phi is identically c on this side")
            return LocalExpansion(x0, side, c, float(q["g"]), float(q["a"]))
        ders = _pderivs(p, r)
        scale = max(1.0, max(abs(d) for d in ders))
        for k in range(1, _KMAX + 1):
            ak = ders[k] / math.factorial(k)
            if abs(ak) > 1e-11 * scale:
                C = ak if side == "right" else ak * (-1.0) ** (k + 1)
                return LocalExpansion(x0, side, c, float(k), float(C))
        raise FitError("phi is identically c on this side")

    # -- serialization ------------------------------------------------------

    def to_descriptor(self):
        ps = []
        for p in self.pieces:
            d = {"lo": p.lo, "hi": p.hi, "kind": p.kind}
            d.update(p.params)
            ps.append(d)
        out = {"pieces": ps}
        if self.period is not None:
            out["period"] = self.period
        else:
            out["left_tail"] = self.left_tail
            out["right_tail"] = self.right_tail
        if not self.pieces:
            out["window"] = [self.w_lo, self.w_hi]
        return out


def from_descriptor(desc):
    if not isinstance(desc, dict):
        raise ValueError("a data descriptor must be an object")
    pieces = []
    ds = desc.get("pieces", [])
    if not (isinstance(ds, list) and all(isinstance(d, dict) for d in ds)):
        raise ValueError("data pieces must be a list of objects")
    for d in ds:
        params = {k: v for k, v in d.items() if k not in ("lo", "hi", "kind")}
        if d["kind"] == "poly":
            params["coeffs"] = list(params["coeffs"])
        pieces.append(Piece(float(d["lo"]), float(d["hi"]), d["kind"], params))
    window = desc.get("window")
    if window is not None and not (isinstance(window, list) and window):
        raise ValueError("window must be a non-empty list")
    return InitialData(pieces,
                       left_tail=desc.get("left_tail"),
                       right_tail=desc.get("right_tail"),
                       period=desc.get("period"),
                       bound=desc.get("bound"),
                       window=window)


def step(u_left, u_right, x0=0.0):
    """Riemann data: u_left for x < x0, u_right for x > x0."""
    return InitialData([], left_tail=u_left, right_tail=u_right, window=(x0, x0))


def sin_wave(a=-1.0, b=1.0, c=0.0):
    """Periodic phi(x) = a sin(bx + c) over one full period."""
    p = 2.0 * math.pi / abs(b)
    return InitialData([Piece(-p / 2.0, p / 2.0, "sin", {"a": a, "b": b, "c": c})],
                       period=p)


class SampledData(_Extended):
    """Sampled u-values on a grid; piecewise-linear primitive.

    ``xs`` are knot positions and ``us`` the sampled values; phi is the
    left-constant interpolant (so Phi is the piecewise-linear interpolant
    through the knots).  Supports constant tails or periodicity; the right
    tail starts at the last knot, so phi(w_hi) = us[-1] on tailed data.

    A point's knot interval is found in O(1) by a bucket table (address
    calculation search) built once here.  The window is cut into
    m = ceil(span / min gap) buckets; b(x) = int((x - w_lo) * scale) with
    scale = m / span is monotone in x, and each knot's bucket is computed
    by the same float operations as a query's.  So every knot of a bucket
    below b(r) lies below r, and every knot of a bucket above it lies above
    r: the answer lies between the last knot before bucket b(r), which the
    table stores, and the last knot in it.  At most k passes that step past
    the next knot while it is <= r reach it, k being the most knots in any
    bucket.  The proof uses monotonicity alone, no rounding bound, so
    ``_knot`` returns the binary search's index bit for bit; a point of the
    window lies in buckets 0 .. b(w_hi), and the table covers those.  A
    bucket is span / ceil(span / min gap) <= min gap wide, so it holds one
    knot, or two where rounding puts a knot on its far edge: k <= 2.
    Knots that would need m > 4 (n - 1) buckets (clustered knots, such as
    geometric gaps or [0, 1e-300, 1]) keep the binary search; uniform
    knots, such as the ones ``restart`` makes, take one pass.
    """

    is_sampled = True
    _tail_from_w_hi = True

    def __init__(self, xs, us, period=None):
        xs = np.asarray(xs, dtype=float)
        us = np.asarray(us, dtype=float)
        if xs.ndim != 1 or xs.shape != us.shape or len(xs) < 2:
            raise ValueError("need matching 1-D arrays with >= 2 samples")
        _check_finite("xs and us", xs, us)
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        self.xs = xs
        self.us = us
        self.w_lo, self.w_hi = float(xs[0]), float(xs[-1])
        self._set_extension(period, us[0], us[-1])
        # knot primitive values (left-constant phi between knots)
        self._P = np.concatenate([[0.0], np.cumsum(self.us[:-1] * np.diff(xs))])
        self._win = self._P[-1]
        self._build_buckets()
        self._build()
        self._side_table()
        self.bound = float(np.max(np.abs(us))) + 1e-12

    def _build_buckets(self):
        """The bucket table of ``_knot``, or ``_lut = None`` for clustered knots."""
        xs, n = self.xs, len(self.xs)
        self._lut = None
        span = self.w_hi - self.w_lo
        # a Python float, compared before any int(): [0, 1e-300, 1] gives
        # m = 1e300, and a subnormal gap m = inf, with no overflow warning
        m = span / float(np.diff(xs).min())
        if not m <= 4.0 * (n - 1):
            return
        self._scale = math.ceil(m) / span
        bx = self._bucket(xs)
        self._passes = int(np.bincount(bx).max())
        # b(r) <= bx[-1] = b(w_hi) for r in the window, by monotonicity
        lut = np.searchsorted(bx, np.arange(bx[-1] + 1)) - 1
        self._lut = np.clip(lut, 0, n - 2)
        # the last interval has no next knot to step past
        self._next = np.append(xs[1:-1], np.inf)

    def _bucket(self, r):
        """int((r - w_lo) * scale): monotone in r, 0 at w_lo."""
        f = r - self.w_lo
        f *= self._scale
        return f.astype(np.intp)

    def _knot(self, r):
        """Index of the knot interval [xs[i], xs[i+1]) holding r.

        ``_interval(xs, r, n - 2)`` bit for bit for r in the window: the
        bucket table gives a start at most ``_passes`` knots below the
        answer and never above it, and each pass steps past the next knot
        if it is <= r.
        """
        if self._lut is None:
            return _interval(self.xs, r, len(self.xs) - 2)
        idx = self._lut[self._bucket(r)]
        for _ in range(self._passes):
            idx += r >= self._next[idx]
        return idx

    def _inner_phi(self, r):
        return self.us[self._knot(r)]

    def _inner_primitive(self, r):
        idx = self._knot(r)
        return self._P[idx] + self.us[idx] * (r - self.xs[idx])

    def _side_table(self):
        """The side table of sampled data: the knots where phi jumps, with
        phi(y-) and phi(y+), each one a breakpoint; on periodic data us[-2]
        holds left of the seam and us[0] right of it."""
        us = self.us
        if self.period is None:
            left, right = np.concatenate([us[:1], us[:-1]]), us
        else:
            left = np.concatenate([us[-2:-1], us[:-1]])
            right = np.concatenate([us[:-1], us[:1]])
        jump = left != right
        self._set_sides(self.xs[jump], left[jump], right[jump], True)

    def _descent(self):
        """phi is constant between knots: sup (-phi')_+ is 0, inf where phi
        jumps down at a knot."""
        return math.inf if np.count_nonzero(
            self._sides[1] > self._sides[2]) else 0.0

    # -- one-sided structure ----------------------------------------------

    def local_expansion(self, x0, c, side):
        """phi is constant on each side of x0, so no power law applies.

        Raises the FitError of ``InitialData.local_expansion``: phi is
        identically c on the side, or its one-sided limit differs from c.
        """
        _check_finite("c", c)
        if abs(self.phi_side(x0, side) - c) <= 1e-12:
            raise FitError("phi is identically c on this side")
        raise FitError("one-sided limit of phi differs from c")
