"""Piecewise-analytic initial data with exact primitives.

The representable class is: pieces of constant / polynomial / a*sin(bx+c) /
a*cos(bx+c) / signed-power terms on contiguous intervals, closed off by
constant tails or by periodicity.  Everything the criteria consume (primitive,
Dini derivatives, tail invariants, local power expansions) is exact.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError

_EPS = 1e-12
_KMAX = 12
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

    Only valid where the term is smooth (power terms away from x_ref).
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
    if p.kind == "power":
        s0 = x0 - q["x_ref"]
        if abs(s0) <= _EPS:
            raise FitError("power piece is non-smooth at its reference point")
        a, g = q["a"], q["g"]
        sgn = math.copysign(1.0, s0)
        # h(s) = a*sgn(s)|s|^g: for s>0 a*s^g; for s<0 -a*(-s)^g
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
    raise ValueError(f"unknown piece kind {p.kind!r}")


def _critical_points(p):
    """Points where the piece term can peak inside the piece.

    For sin and cos every extremum has the same |value|, so one maximum
    and one minimum stand for all of them; points that fall outside
    [lo, hi] are clipped by the caller.
    """
    q = p.params
    if p.kind in ("sin", "cos"):
        # b x + c = base + k pi at an extremum
        base = math.pi / 2.0 if p.kind == "sin" else 0.0
        lo, hi = sorted(((q["b"] * p.lo + q["c"] - base) / math.pi,
                         (q["b"] * p.hi + q["c"] - base) / math.pi))
        ks = np.arange(math.ceil(lo), min(math.ceil(lo) + 1, math.floor(hi)) + 1)
        return (base + ks * math.pi - q["c"]) / q["b"]
    if p.kind == "poly":
        d = np.polynomial.polynomial.polyder(np.asarray(q["coeffs"], dtype=float))
        d = np.polynomial.polynomial.polytrim(d)
        return np.polynomial.polynomial.polyroots(d).real if len(d) > 1 else []
    if p.kind == "power":
        return [q["x_ref"]]
    return []


def _descent(p):
    """sup of (-phi')_+ on the piece in closed form: |a b| for sin and cos,
    -p' at the ends and at the roots of p'' for poly, 0 for const and for a
    power term a sgn(s) |s|^g + b with a >= 0 or g = 0, else |a| g times
    the farthest |s|^(g - 1) on the piece, or inf where g < 1."""
    q = p.params
    if p.kind in ("sin", "cos"):
        return abs(q["a"] * q["b"])
    if p.kind == "poly":
        pv = np.polynomial.polynomial
        d = pv.polyder(np.asarray(q["coeffs"], dtype=float))
        xs = np.concatenate([[p.lo, p.hi], np.clip(pv.polyroots(
            pv.polytrim(pv.polyder(d))).real, p.lo, p.hi)])
        return max(0.0, float(-pv.polyval(xs, d).min()))
    if p.kind == "power" and q["a"] < 0.0 and q["g"] > 0.0:
        g, s = q["g"], max(abs(p.lo - q["x_ref"]), abs(p.hi - q["x_ref"]))
        return -q["a"] * g * s ** (g - 1.0) if g >= 1.0 else math.inf
    return 0.0


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

    def _tile(self, x):
        """The tile k of periodic data, [w_lo, w_hi) + kP, that holds x."""
        return np.floor((x - self.w_lo) / self.period)

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

    def breakpoints(self):
        """The points of the window where phi is not smooth, and its limits.

        Returns sorted arrays ``(y, left, right)`` of the points and of
        phi(y-) and phi(y+) there: every piece end where phi jumps (a window
        end against a tail, and the seam of periodic data, included) and
        every power piece's x_ref inside its piece.  A piece end reads the
        piece's one-sided limit (``_end_limits``), so a g = 0 power piece
        whose x_ref is its end steps there.  A jump below 1e-12 of phi's
        size there counts as none, so the seam of ``sin_wave`` is no
        breakpoint.  Periodic data give the points of [w_lo, w_hi).
        """
        ps = self.pieces
        y = [p.lo for p in ps] + [self.w_hi]
        ends = [_end_limits(p, f) for p, (f, _) in zip(ps, self._terms)]
        right, left = [e[0] for e in ends], [e[1] for e in ends]
        if self.period is None:
            left, right = [self.left_tail] + left, right + [self.right_tail]
        else:
            y, left = y[:-1], left[-1:] + left[:-1]
        rows = [(b, lv, rv) for b, lv, rv in zip(y, left, right)
                if abs(lv - rv) > 1e-12 * (1.0 + abs(lv) + abs(rv))]
        for p in ps:
            q = p.params
            if p.kind == "power" and p.lo < q["x_ref"] < p.hi:
                # a sgn(s) |s|^g + b: a jump of 2a for g = 0, else continuous
                jump = q["a"] if q["g"] == 0 else 0.0
                b = q.get("b", 0.0)
                rows.append((q["x_ref"], b - jump, b + jump))
        rows.sort()
        return tuple(np.array(v, dtype=float).reshape(-1)
                     for v in (zip(*rows) if rows else ([], [], [])))

    def _descent(self):
        """sup of (-phi')_+ off the breakpoints, over every piece
        (``_descent``); the tails are constant.  A window of no pieces is
        one point where phi reads 0: inf where the tails do not straddle
        0, as phi falls and rises there."""
        return max([_descent(p) for p in self.pieces] or [
            0.0 if self.left_tail <= 0.0 <= self.right_tail else math.inf])

    def _estimate_bound(self):
        vals = []
        for p, (f, _) in zip(self.pieces, self._terms):
            xs = np.concatenate([np.linspace(p.lo, p.hi, 4097),
                                 np.clip(_critical_points(p), p.lo, p.hi)])
            vals.append(np.max(np.abs(f(xs))))
        if self.period is None:
            vals += [abs(self.left_tail), abs(self.right_tail)]
        return float(max(vals) if vals else 0.0) + 1e-12

    # -- one-sided structure ----------------------------------------------

    def _side_piece(self, x0, side):
        """Piece (or tail constant) governing phi just left/right of x0."""
        _check_finite("x0", x0)
        _check_side(side)
        if self.period is not None:
            if not abs(x0) < self._x_max:       # as in phi
                raise ValueError(
                    f"|x| must stay below {self._x_max:.6g} on periodic data")
            # % keeps r in [w_lo, w_lo + P); phi's floor can land 1 ulp below
            r = self.w_lo + (x0 - self.w_lo) % self.period
            if side == "left" and r - self.w_lo < 1e-12:
                r = self.w_hi
            elif side == "right" and r >= self.w_hi - 1e-14:
                r = self.w_lo
            x0 = r
        if side == "left":
            if x0 <= self.w_lo + 1e-14:
                return None, self.left_tail, x0
            for p in self.pieces:
                if p.lo < x0 <= p.hi + 1e-14:
                    return p, None, x0
            return None, self.right_tail, x0
        if x0 >= self.w_hi - 1e-14:
            return None, self.right_tail, x0
        for p in self.pieces:
            if p.lo - 1e-14 <= x0 < p.hi:
                return p, None, x0
        return None, self.left_tail, x0

    def phi_side(self, x0, side):
        """One-sided limit of phi at x0."""
        p, tail, xr = self._side_piece(x0, side)
        if p is None:
            return float(tail)
        return float(_terms(p)[0](np.asarray(xr, dtype=float)))

    def dini(self, x0):
        return DiniPack(x0, self.phi_side(x0, "left"), self.phi_side(x0, "right"))

    def local_expansion(self, x0, c, side):
        """phi(x0+l) - c = (C+o(1)) sgn(l)|l|^gamma on the given side.

        Raises FitError when phi is identically c on the side (gamma = inf
        sentinel semantics) or when the one-sided limit differs from c.
        """
        _check_finite("c", c)
        p, tail, xr = self._side_piece(x0, side)
        if p is None:
            if abs(tail - c) <= 1e-12:
                raise FitError("phi is identically c on this side")
            raise FitError("one-sided limit of phi differs from c")
        if abs(self.phi_side(x0, side) - c) > 1e-12:
            raise FitError("one-sided limit of phi differs from c")
        if p.kind == "power" and abs(xr - p.params["x_ref"]) <= _EPS:
            a, g = p.params["a"], p.params["g"]
            if a == 0 or g == 0:    # the term is constant on each side
                raise FitError("phi is identically c on this side")
            return LocalExpansion(x0, side, c, float(g), float(a))
        ders = _pderivs(p, xr)
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

    def breakpoints(self):
        """The knots where phi jumps, and its limits there.

        Returns sorted arrays ``(y, left, right)`` of the knots and of
        phi(y-) and phi(y+); periodic data give the knots of [w_lo, w_hi).
        """
        us = self.us
        if self.period is None:
            y, left, right = self.xs, np.concatenate([us[:1], us[:-1]]), us
        else:
            y, left = self.xs[:-1], np.concatenate([us[-2:-1], us[:-2]])
            right = us[:-1]
        jump = left != right
        return y[jump], left[jump], right[jump]

    def _descent(self):
        """phi is constant between knots: phi' = 0 off the breakpoints."""
        return 0.0

    # -- one-sided structure ----------------------------------------------

    def phi_side(self, x0, side):
        """One-sided limit of phi at x0 (phi is right-continuous)."""
        _check_finite("x0", x0)
        _check_side(side)
        if side == "left":
            x0 = np.nextafter(x0, -np.inf)
        return float(self.phi(x0))

    def local_expansion(self, x0, c, side):
        """phi is constant on each side of x0, so no power law applies.

        Raises the FitError of ``InitialData.local_expansion``: phi is
        identically c on the side, or its one-sided limit differs from c.
        """
        _check_finite("c", c)
        if abs(self.phi_side(x0, side) - c) <= 1e-12:
            raise FitError("phi is identically c on this side")
        raise FitError("one-sided limit of phi differs from c")
