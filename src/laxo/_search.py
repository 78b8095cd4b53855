"""One-dimensional search kernels shared by every layer.

Scalar bisection on a predicate, golden-section minimization, and the
maximal runs of True in a boolean mask.  Both loops also stop once the
bracket can no longer shrink in floating point, so a tolerance finer than
the float spacing at the bracket ends cannot make them spin forever.
"""

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def bisect(pred, a, b, tol, maxiter=None):
    """Shrink the bracket keeping ``pred(a)`` true and ``pred(b)`` false.

    ``a`` may lie on either side of ``b``.  Stops when ``|b - a| <= tol``,
    when the midpoint equals an endpoint, or after ``maxiter`` steps, and
    returns the final ``(a, b)``.
    """
    n = 0
    while abs(b - a) > tol and (maxiter is None or n < maxiter):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if pred(m):
            a = m
        else:
            b = m
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
