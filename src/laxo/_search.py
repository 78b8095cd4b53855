"""One-dimensional search kernels shared by every layer.

Bisection on a predicate (one step per call, or several dyadic steps per
call of a vectorized predicate), golden-section minimization, and the
maximal runs of True in a boolean mask.  Both loops also stop once the
bracket can no longer shrink in floating point, so a tolerance finer than
the float spacing at the bracket ends cannot make them spin forever.
"""

import math

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# most bisection steps one call of a vectorized predicate pays for: it sees
# the 2**_BATCH - 1 midpoints those steps can reach
_BATCH = 8


def _dyadic(a, b, k):
    """The 2**k - 1 midpoints that k bisection steps of [a, b] can visit.

    Ordered from a to b.  Each is 0.5 * (c + d) for the bracket [c, d] the
    steps split there, so it is the very float a step computes.
    """
    n = 1 << k
    g = np.empty(n + 1)
    g[0], g[n] = a, b
    step = n
    while step > 1:
        h = step >> 1
        g[h::step] = 0.5 * (g[:n:step] + g[step::step])
        step = h
    return g[1:n]


def bisect(pred, a, b, tol, maxiter=None, vectorized=False):
    """Shrink the bracket keeping ``pred(a)`` true and ``pred(b)`` false.

    ``a`` may lie on either side of ``b``.  Stops when ``|b - a| <= tol``,
    when the midpoint equals an endpoint, or after ``maxiter`` steps, and
    returns the final ``(a, b)``.  A ``vectorized`` predicate maps an array
    of points to an array of booleans; it is called once for up to
    ``_BATCH`` steps, on every midpoint they can reach, and the steps then
    read their answers, so the result is the one-step result.
    """
    n = 0
    left = 0                # steps the current answers still cover
    while abs(b - a) > tol and (maxiter is None or n < maxiter):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if not left:
            if vectorized:
                left = _BATCH if maxiter is None else min(_BATCH, maxiter - n)
                if tol > 0.0:
                    # about the steps that remain until |b - a| <= tol
                    left = max(1, math.ceil(
                        min(left, math.log2(abs(b - a) / tol))))
                ans = pred(_dyadic(a, b, left)).tolist()
            else:
                left = 1
                ans = [pred(m)]
            lo, hi = 0, len(ans) + 1    # positions of a and b in the batch
        i = (lo + hi) >> 1
        if ans[i - 1]:
            a, lo = m, i
        else:
            b, hi = m, i
        left -= 1
        n += 1
    return a, b


def golden_min(f, a, b, tol):
    """Minimizer of a unimodal ``f`` on ``[a, b]`` by golden-section search.

    Stops when ``b - a <= tol`` or the bracket stops shrinking, and returns
    the midpoint of the final bracket.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        width = b - a
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        if b - a >= width:
            break
    return 0.5 * (a + b)


def runs(mask):
    """Maximal runs of True in a 1-D mask as a list of (first, last)."""
    d = np.diff(np.asarray(mask, dtype=np.int8), prepend=0, append=0)
    return list(zip(np.flatnonzero(d == 1).tolist(),
                    (np.flatnonzero(d == -1) - 1).tolist()))
