"""Convex flux functions and their local calculus.

A :class:`Flux` bundles f, f', f'' for a convex (possibly degenerate) flux
with f(0) = 0, together with the monotone inverse of f' and the local
degeneracy expansion f''(u) = (N + o(1))|u - c|^alpha.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._search import bisect_many
from .errors import BracketError, FitError

TOL_U = 1e-12
TOL_V = 1e-10
# default bracket of invert_deriv
DOMAIN = (-16.0, 16.0)
# below this width rho uses a Gauss-Legendre rule: the closed form cancels
RHO_QUAD_WIDTH = 0.2


@dataclass(frozen=True)
class DegeneracyExpansion:
    """f''(u) = (N + o(1)) |u - c|^alpha as u -> c on one side."""
    c: float
    side: str          # "left" | "right"
    alpha: float
    N: float


class Flux:
    """Convex flux with derivative, second derivative and inverse of f'.

    Construct through :func:`burgers`, :func:`power2n`, :func:`exponential`
    or :func:`custom`.
    """

    def __init__(self, f, fp, fpp, kind="custom", params=None):
        self._raw = f
        self._f0 = float(f(0.0))
        self.deriv = fp
        self.second = fpp
        self.kind = kind
        self.params = dict(params or {})

    def eval(self, u):
        return self._raw(u) - self._f0

    # -- inverse of f' ----------------------------------------------------

    def invert_deriv(self, v, bracket=DOMAIN):
        """Solve f'(u) = v on the bracket, in closed form for named kinds.

        A custom flux takes the midpoint of one lockstep bisection walk of
        f' - v for every v, which stops at ``TOL_U`` or the float floor.
        Accepts scalars or arrays; raises :class:`BracketError` when some v
        lies more than ``TOL_V`` outside the image of the bracket.
        """
        lo, hi = float(bracket[0]), float(bracket[1])
        v = np.asarray(v, dtype=float)
        scalar = v.ndim == 0
        v = np.atleast_1d(v)
        flo, fhi = self.deriv(lo), self.deriv(hi)
        # written so that NaN fails the check
        if not (np.all(v >= flo - TOL_V) and np.all(v <= fhi + TOL_V)):
            raise BracketError(
                f"value outside image of f' on [{lo}, {hi}]")
        # keep the tolerated overshoot out of the closed forms (log of v < 0)
        v = np.clip(v, flo, fhi)
        u = self.closed_inverse(v)
        if u is None:
            # bisection on the monotone residual f'(u) - v, every v in lockstep
            b, a = bisect_many(lambda m, i: self.deriv(m) >= v[i],
                               np.full(len(v), hi), np.full(len(v), lo), TOL_U)
            u = 0.5 * (a + b)
        u = np.clip(u, lo, hi)
        return float(u[0]) if scalar else u

    def closed_inverse(self, v):
        """(f')^-1 of an array v inside the image of f', in closed form.

        None for a custom flux.  No checks: ``invert_deriv`` adds them.
        """
        if self.kind == "burgers":
            return v
        if self.kind == "power2n":
            return np.sign(v) * np.abs(v) ** (1.0 / (2 * self.params["n"] - 1))
        if self.kind == "exponential":
            with np.errstate(divide="ignore"):   # f'(lo) may underflow to 0
                return np.log(v) / self.params["k"]
        return None

    def deriv_inverse(self, v):
        """The u with f'(u) = v for a number v: ``invert_deriv`` on
        ``DOMAIN``, for a named kind widened to twice the closed form,
        which holds it wherever f' takes v, so that u is the closed form.
        Raises :class:`BracketError` where no u is found: an exponential
        flux takes no v <= 0."""
        if self.kind == "exponential" and not v > 0.0:
            raise BracketError("f' of an exponential flux is positive")
        u = self.closed_inverse(np.array([v], dtype=float))
        w = 0.0 if u is None else 2.0 * float(u[0])
        return self.invert_deriv(v, (min(DOMAIN[0], w), max(DOMAIN[1], w)))

    # -- rho(u, v) --------------------------------------------------------

    def rho(self, u, v):
        """The flux mean rho(u,v) = int_v^u s f'' ds / int_v^u f'' ds.

        From int s f'' = [s f' - f] and int f'' = [f'] at widths of at least
        ``RHO_QUAD_WIDTH``; that form errs by about
        eps |u f'(u) - f(u)| / |f'(u) - f'(v)|, so narrower intervals take
        an 8-point Gauss-Legendre rule.  The mean is clamped to the
        interval between u and v, where it lies.  A non-finite u or v
        raises ValueError.
        """
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValueError("u and v must be finite")
        if abs(u - v) <= TOL_U:
            return float(v)
        lo, hi = (u, v) if u < v else (v, u)
        if hi - lo < RHO_QUAD_WIDTH:
            xg, wg = np.polynomial.legendre.leggauss(8)
            s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xg
            w = wg * self.second(s)
            num, den = float(w @ s), float(np.sum(w))
        else:
            fplo, fphi = self.deriv(lo), self.deriv(hi)
            num = hi * fphi - self.eval(hi) - (lo * fplo - self.eval(lo))
            den = fphi - fplo
        if den <= 0.0:
            raise FitError("f'' integrates to zero between the arguments")
        return float(min(max(num / den, lo), hi))

    # -- degeneracy expansion --------------------------------------------

    def fit_degeneracy(self, c, side="right"):
        """Expansion f'' = (N+o(1))|u-c|^alpha on the given side of c.

        (2n - 2, 2n - 1) for ``power2n`` within 1e-14 of 0, (0, f''(c))
        where f''(c) > 0, and a numeric fit only where f''(c) = 0.
        """
        c = float(c)
        if not (math.isfinite(c) and side in ("left", "right")):
            raise ValueError("c must be finite and side 'left' or 'right'")
        if self.kind == "power2n" and abs(c) <= 1e-14:
            n = self.params["n"]
            return DegeneracyExpansion(c, side, 2.0 * n - 2.0, 2.0 * n - 1.0)
        N = float(self.second(c))
        if N > 0.0:
            return DegeneracyExpansion(c, side, 0.0, N)
        return self._fit_numeric(c, side)

    def _fit_numeric(self, c, side):
        sgn = 1.0 if side == "right" else -1.0
        ls = 0.1 * 2.0 ** -np.arange(21.0)
        us = c + sgn * ls
        ys = np.array([self.second(u) for u in us])
        mask = ys > 0.0
        if not np.any(mask):
            raise FitError("f'' vanishes on the whole fit window")
        # fit on the smallest usable scales
        ls, ys = ls[mask][-10:], ys[mask][-10:]
        if len(ls) < 3:
            raise FitError("too few usable fit points")
        slope, intercept = np.polyfit(np.log(ls), np.log(ys), 1)
        return DegeneracyExpansion(c, side, float(slope), float(np.exp(intercept)))


class GeneralFluxPair:
    """General pair U(u)_t + F(u)_x = 0 with H = F'/U'.

    H must rise on every cell of the u-grid of a problem, and U must not
    fall there, which ``GeneralProblem`` checks: the engine reads H and U,
    and never a derivative of H.  H is required.  Without F,
    F(u) = int_0^u H U' ds by 24-point Gauss-Legendre quadrature at every
    call: pass F when it is known.  All three act elementwise on arrays, each element's value
    independent of the array it sits in, so a point solved within a block
    of ``solve_grid`` equals a point solved alone.
    """

    def __init__(self, U, Uprime, F=None, *, H):
        if F is None:
            nodes, weights = np.polynomial.legendre.leggauss(24)

            def F(u):
                # node by node: a matrix product's summation order depends
                # on the array's shape, so an element's F would too
                u = np.asarray(u, dtype=float)
                acc = 0.0
                for x, w in zip(nodes.tolist(), weights.tolist()):
                    s = 0.5 * u * (1.0 + x)
                    acc = acc + w * (H(s) * Uprime(s))
                return 0.5 * u * acc
        self.U = U
        self.F = F
        self.H = H


def burgers():
    """f(u) = u^2/2."""
    return Flux(lambda u: 0.5 * np.asarray(u, dtype=float) ** 2,
                lambda u: np.asarray(u, dtype=float),
                lambda u: np.ones_like(np.asarray(u, dtype=float)),
                kind="burgers")


def power2n(n):
    """f(u) = u^(2n)/(2n); degenerate at 0 with alpha = 2n-2.

    ``n`` is a whole number >= 1, given as an int or an integral float.
    """
    if (isinstance(n, bool) or not isinstance(n, numbers.Real)
            or not (math.isfinite(n) and n == int(n) and n >= 1)):
        raise ValueError("n must be a whole number >= 1")
    n = int(n)
    if n == 1:
        return burgers()
    return Flux(lambda u: np.asarray(u, dtype=float) ** (2 * n) / (2 * n),
                lambda u: np.asarray(u, dtype=float) ** (2 * n - 1),
                lambda u: (2 * n - 1) * np.asarray(u, dtype=float) ** (2 * n - 2),
                kind="power2n", params={"n": n})


def exponential(k=1.0):
    """f(u) = (e^(k u) - 1)/k after normalization; f' = e^(k u)... scaled.

    With f(u) = e^(k u)/k - 1/k one has f'(u) = e^(k u) and f'' = k e^(k u).
    For k = 1 this is the classical exponential flux with f'(u) = e^u.
    """
    k = float(k)
    if not 0.0 < k < np.inf:
        raise ValueError("k must be positive and finite")
    return Flux(lambda u: np.exp(k * np.asarray(u, dtype=float)) / k,
                lambda u: np.exp(k * np.asarray(u, dtype=float)),
                lambda u: k * np.exp(k * np.asarray(u, dtype=float)),
                kind="exponential", params={"k": k})


def custom(f, fp, fpp):
    return Flux(f, fp, fpp, kind="custom")


def from_descriptor(desc):
    """Build a flux from a JSON descriptor dict."""
    if not isinstance(desc, dict):
        raise ValueError("a flux descriptor must be an object")
    kind = desc.get("kind")
    if kind == "burgers":
        return burgers()
    if kind == "power2n":
        return power2n(desc["n"])
    if kind == "exponential":
        return exponential(desc.get("k", 1.0))
    raise ValueError(f"unknown flux kind: {kind!r}")


def to_descriptor(flux):
    if flux.kind == "burgers":
        return {"kind": "burgers"}
    if flux.kind == "power2n":
        return {"kind": "power2n", "n": flux.params["n"]}
    if flux.kind == "exponential":
        return {"kind": "exponential", "k": flux.params["k"]}
    raise ValueError("custom fluxes have no JSON descriptor")
