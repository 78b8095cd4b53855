"""Convex flux functions and their local calculus.

A :class:`Flux` bundles f, f', f'' for a convex (possibly degenerate) flux
with f(0) = 0, together with the monotone inverse of f' and the local
degeneracy expansion f''(u) = (N + o(1))|u - c|^alpha.
"""

from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_simpson
from ._search import bisect
from .errors import BracketError, FitError

TOL_U = 1e-12
TOL_V = 1e-10
QUAD_TOL = 1e-10


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

    def __init__(self, f, fp, fpp, kind="custom", params=None,
                 domain_hint=(-16.0, 16.0)):
        self._raw = f
        self._f0 = float(f(0.0))
        self.deriv = fp
        self.second = fpp
        self.kind = kind
        self.params = dict(params or {})
        self.domain_hint = tuple(domain_hint)

    def eval(self, u):
        return self._raw(u) - self._f0

    __call__ = eval

    # -- inverse of f' ----------------------------------------------------

    def invert_deriv(self, v, bracket=None):
        """Solve f'(u) = v on the bracket by bisection plus a Newton polish.

        Accepts scalars or arrays; raises :class:`BracketError` when some v
        lies outside the image of the bracket.
        """
        if bracket is None:
            bracket = self.domain_hint
        lo, hi = float(bracket[0]), float(bracket[1])
        v = np.asarray(v, dtype=float)
        scalar = v.ndim == 0
        v = np.atleast_1d(v)
        flo, fhi = self.deriv(lo), self.deriv(hi)
        # written so that NaN fails the check
        if not (np.all(v >= flo - TOL_V) and np.all(v <= fhi + TOL_V)):
            raise BracketError(
                f"value outside image of f' on [{lo}, {hi}]")
        a = np.empty_like(v)
        b = np.empty_like(v)
        # bisection on the monotone residual f'(u) - v, one value at a time
        for i, vi in enumerate(v):
            b[i], a[i] = bisect(lambda m: self.deriv(m) >= vi, hi, lo,
                                TOL_U, 64)
        u = 0.5 * (a + b)
        # one safeguarded Newton step where f'' is healthy
        fpp = self.second(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fpp > 0.0, (self.deriv(u) - v) / np.where(fpp > 0, fpp, 1.0), 0.0)
        un = u - step
        ok = (un >= a) & (un <= b)
        u = np.where(ok, un, u)
        return float(u[0]) if scalar else u

    # -- rho(u, v) --------------------------------------------------------

    def rho(self, u, v):
        """The flux mean rho(u,v) = int_v^u s f'' ds / int_v^u f'' ds."""
        if abs(u - v) <= TOL_U:
            return float(v)
        lo, hi = (u, v) if u < v else (v, u)
        num = adaptive_simpson(lambda s: s * self.second(s), lo, hi, QUAD_TOL)
        den = adaptive_simpson(self.second, lo, hi, QUAD_TOL)
        if den <= 0.0:
            raise FitError("f'' integrates to zero between the arguments")
        return num / den

    # -- degeneracy expansion --------------------------------------------

    def fit_degeneracy(self, c, side="right"):
        """Expansion f'' = (N+o(1))|u-c|^alpha on the given side of c."""
        c = float(c)
        if self.kind == "burgers":
            return DegeneracyExpansion(c, side, 0.0, 1.0)
        if self.kind == "power2n":
            n = self.params["n"]
            if abs(c) > 1e-14:
                return DegeneracyExpansion(
                    c, side, 0.0, (2 * n - 1) * abs(c) ** (2 * n - 2))
            return DegeneracyExpansion(c, side, 2.0 * n - 2.0, 2.0 * n - 1.0)
        if self.kind == "exponential":
            k = self.params["k"]
            return DegeneracyExpansion(c, side, 0.0, k * k * np.exp(k * c))
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
    """General pair U(u)_t + F(u)_x = 0 with H = F'/U' strictly increasing."""

    def __init__(self, U, Uprime, F=None, Fprime=None, H=None, Hprime=None,
                 domain_hint=(-16.0, 16.0)):
        if H is None:
            if Fprime is None:
                raise ValueError("need either H or Fprime")
            H = lambda u: Fprime(u) / Uprime(u)
        if Hprime is None:
            h = 1e-6
            Hprime = lambda u: (H(u + h) - H(u - h)) / (2.0 * h)
        self.U = U
        self.Uprime = Uprime
        self.F = F
        self.Fprime = Fprime
        self.H = H
        self.Hprime = Hprime
        self.domain_hint = tuple(domain_hint)


def burgers():
    """f(u) = u^2/2."""
    return Flux(lambda u: 0.5 * np.asarray(u, dtype=float) ** 2,
                lambda u: np.asarray(u, dtype=float),
                lambda u: np.ones_like(np.asarray(u, dtype=float)),
                kind="burgers")


def power2n(n):
    """f(u) = u^(2n)/(2n); degenerate at 0 with alpha = 2n-2."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
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
    if k <= 0:
        raise ValueError("k must be positive")
    return Flux(lambda u: np.exp(k * np.asarray(u, dtype=float)) / k,
                lambda u: np.exp(k * np.asarray(u, dtype=float)),
                lambda u: k * np.exp(k * np.asarray(u, dtype=float)),
                kind="exponential", params={"k": k})


def custom(f, fp, fpp, domain_hint=(-16.0, 16.0)):
    return Flux(f, fp, fpp, kind="custom", domain_hint=domain_hint)


def from_descriptor(desc):
    """Build a flux from a JSON descriptor dict."""
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
