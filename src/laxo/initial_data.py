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


def _pval(p, x):
    x = np.asarray(x, dtype=float)
    q = p.params
    if p.kind == "const":
        return np.full_like(x, q["c"])
    if p.kind == "poly":
        return np.polynomial.polynomial.polyval(x, np.asarray(q["coeffs"], dtype=float))
    if p.kind == "sin":
        return q["a"] * np.sin(q["b"] * x + q["c"])
    if p.kind == "cos":
        return q["a"] * np.cos(q["b"] * x + q["c"])
    if p.kind == "power":
        s = x - q["x_ref"]
        return q["a"] * np.sign(s) * np.abs(s) ** q["g"] + q.get("b", 0.0)
    raise ValueError(f"unknown piece kind {p.kind!r}")


def _pantideriv(p, x):
    """A raw antiderivative of the piece term (additive constant free)."""
    x = np.asarray(x, dtype=float)
    q = p.params
    if p.kind == "const":
        return q["c"] * x
    if p.kind == "poly":
        cs = np.polynomial.polynomial.polyint(np.asarray(q["coeffs"], dtype=float))
        return np.polynomial.polynomial.polyval(x, cs)
    if p.kind == "sin":
        return -q["a"] / q["b"] * np.cos(q["b"] * x + q["c"])
    if p.kind == "cos":
        return q["a"] / q["b"] * np.sin(q["b"] * x + q["c"])
    if p.kind == "power":
        s = x - q["x_ref"]
        return q["a"] * np.abs(s) ** (1.0 + q["g"]) / (1.0 + q["g"]) + q.get("b", 0.0) * x
    raise ValueError(f"unknown piece kind {p.kind!r}")


def _pderivs(p, x0, kmax=_KMAX):
    """Derivatives (phi, phi', ..., phi^(kmax)) of the piece term at x0.

    Only valid where the term is smooth (power terms away from x_ref).
    """
    q = p.params
    out = []
    if p.kind == "const":
        return [float(q["c"])] + [0.0] * kmax
    if p.kind == "poly":
        cs = np.asarray(q["coeffs"], dtype=float)
        for k in range(kmax + 1):
            d = np.polynomial.polynomial.polyder(cs, k) if k else cs
            out.append(float(np.polynomial.polynomial.polyval(x0, d)) if len(d) else 0.0)
        return out
    if p.kind in ("sin", "cos"):
        a, b, c = q["a"], q["b"], q["c"]
        shift = 0.0 if p.kind == "sin" else math.pi / 2.0
        for k in range(kmax + 1):
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
        for k in range(kmax + 1):
            fall = 1.0
            for i in range(k):
                fall *= (g - i)
            val = coef * fall * abs(s0) ** (g - k) * (sgn ** k)
            if k == 0:
                val += q.get("b", 0.0)
            out.append(val)
        return out
    raise ValueError(f"unknown piece kind {p.kind!r}")


def _check_finite(what, *vals):
    if not np.all(np.isfinite(np.asarray(vals, dtype=float))):
        raise ValueError(f"{what} must be finite")


class _Extended:
    """Data on the window [w_lo, w_hi], extended to the whole line.

    Beyond the window the data tile periodically (``period``) or continue
    as the constants ``left_tail`` and ``right_tail``; ``_win`` is the
    integral of phi over the window.  ``phi``, ``primitive`` and
    ``tail_invariants`` follow from this one rule.  Subclasses set the
    window, the extension (``_set_extension`` validates it) and ``_win``,
    then call ``_normalize``; they evaluate in-window points through
    ``_inner_phi(r)`` and ``_inner_primitive(r)``.
    """

    left_tail = right_tail = None
    _norm = 0.0
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
        else:
            self.left_tail, self.right_tail = float(left_tail), float(right_tail)
            _check_finite("tails", self.left_tail, self.right_tail)

    def _normalize(self):
        """Fix the additive constant of the primitive so that Phi(0) = 0."""
        self._norm = float(self.primitive(0.0))

    def _reduce(self, x):
        """Map x into the window for periodic data; return (r, k)."""
        k = np.floor((x - self.w_lo) / self.period)
        return x - k * self.period, k

    def _extend(self, x, inner, integrated):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x).astype(float)
        if self.period is not None:
            r, k = self._reduce(x)
            out = inner(np.clip(r, self.w_lo, self.w_hi))
            if integrated:
                out = out + k * self._win
        else:
            left = x < self.w_lo
            right = x >= self.w_hi if self._tail_from_w_hi else x > self.w_hi
            mid = ~(left | right)
            out = np.empty_like(x)
            if integrated:
                out[left] = self.left_tail * (x[left] - self.w_lo)
                out[right] = self._win + self.right_tail * (x[right] - self.w_hi)
            else:
                out[left] = self.left_tail
                out[right] = self.right_tail
            if np.any(mid):
                out[mid] = inner(x[mid])
        # a NaN point fell through to the window, where a piece or knot
        # claimed it
        out[np.isnan(x)] = np.nan
        if integrated:
            out = out - self._norm
        return float(out[0]) if scalar else out

    def phi(self, x):
        return self._extend(x, self._inner_phi, False)

    __call__ = phi

    def primitive(self, x):
        """Phi(x) = int_0^x phi, continuity-stitched, Phi(0) = 0."""
        return self._extend(x, self._inner_primitive, True)

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
        offs, run = [], 0.0
        for p in self.pieces:
            offs.append(run - float(_pantideriv(p, p.lo)))
            run = run + float(_pantideriv(p, p.hi)) - float(_pantideriv(p, p.lo))
        self._offsets = np.asarray(offs)
        self._win = run
        self._breaks = np.asarray([p.lo for p in self.pieces] + [self.w_hi])
        self._normalize()
        self.bound = float(bound) if bound is not None else self._estimate_bound()
        _check_finite("bound", self.bound)

    # -- evaluation -------------------------------------------------------

    def _window_eval(self, x, integrated):
        """phi (or its stitched antiderivative) piece by piece in the window."""
        if not self.pieces:
            return np.zeros_like(x)
        idx = np.clip(np.searchsorted(self._breaks, x, side="right") - 1,
                      0, len(self.pieces) - 1)
        out = np.empty_like(x)
        for i, p in enumerate(self.pieces):
            m = idx == i
            if np.any(m):
                out[m] = (_pantideriv(p, x[m]) + self._offsets[i] if integrated
                          else _pval(p, x[m]))
        return out

    def _inner_phi(self, r):
        return self._window_eval(r, False)

    def _inner_primitive(self, r):
        return self._window_eval(r, True)

    def _estimate_bound(self):
        vals = []
        for p in self.pieces:
            xs = np.linspace(p.lo, p.hi, 4097)
            vals.append(np.max(np.abs(_pval(p, xs))))
        if self.period is None:
            vals += [abs(self.left_tail), abs(self.right_tail)]
        return float(max(vals) if vals else 0.0) + 1e-12

    # -- one-sided structure ----------------------------------------------

    def _side_piece(self, x0, side):
        """Piece (or tail constant) governing phi just left/right of x0."""
        _check_finite("x0", x0)
        if self.period is not None:
            # % keeps r in [w_lo, w_lo + P); _reduce's floor can land 1 ulp below
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
        return float(_pval(p, np.asarray(xr, dtype=float)))

    def dini(self, x0):
        return DiniPack(x0, self.phi_side(x0, "left"), self.phi_side(x0, "right"))

    def local_expansion(self, x0, c, side):
        """phi(x0+l) - c = (C+o(1)) sgn(l)|l|^gamma on the given side.

        Raises FitError when phi is identically c on the side (gamma = inf
        sentinel semantics) or when the one-sided limit differs from c.
        """
        p, tail, xr = self._side_piece(x0, side)
        if p is None:
            if abs(tail - c) <= 1e-12:
                raise FitError("phi is identically c on this side")
            raise FitError("one-sided limit of phi differs from c")
        if abs(self.phi_side(x0, side) - c) > 1e-12:
            raise FitError("one-sided limit of phi differs from c")
        if p.kind == "power" and abs(xr - p.params["x_ref"]) <= _EPS:
            a, g = p.params["a"], p.params["g"]
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
    pieces = []
    for d in desc.get("pieces", []):
        params = {k: v for k, v in d.items() if k not in ("lo", "hi", "kind")}
        if d["kind"] == "poly":
            params["coeffs"] = list(params["coeffs"])
        pieces.append(Piece(float(d["lo"]), float(d["hi"]), d["kind"], params))
    window = desc.get("window")
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
        self._normalize()
        self.bound = float(np.max(np.abs(us))) + 1e-12

    def _knot(self, r):
        """Index of the knot interval [xs[i], xs[i+1]) holding r."""
        return np.clip(np.searchsorted(self.xs, r, side="right") - 1,
                       0, len(self.xs) - 2)

    def _inner_phi(self, r):
        return self.us[self._knot(r)]

    def _inner_primitive(self, r):
        idx = self._knot(r)
        return self._P[idx] + self.us[idx] * (r - self.xs[idx])

    # -- one-sided structure ----------------------------------------------

    def phi_side(self, x0, side):
        """One-sided limit of phi at x0 (phi is right-continuous)."""
        _check_finite("x0", x0)
        if side == "left":
            x0 = np.nextafter(x0, -np.inf)
        return float(self.phi(x0))

    def local_expansion(self, x0, c, side):
        """phi is constant on each side of x0, so no power law applies.

        Raises the FitError of ``InitialData.local_expansion``: phi is
        identically c on the side, or its one-sided limit differs from c.
        """
        if abs(self.phi_side(x0, side) - c) <= 1e-12:
            raise FitError("phi is identically c on this side")
        raise FitError("one-sided limit of phi differs from c")
