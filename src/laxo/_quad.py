"""Adaptive Simpson quadrature for scalar integrands.

Used only by the numeric primitive of U(phi) for general pairs.
"""


def _simpson(fa, fm, fb, h):
    return h * (fa + 4.0 * fm + fb) / 6.0


def adaptive_simpson(f, a, b, tol, max_depth):
    """Adaptive Simpson integral of the scalar callable ``f`` over ``[a, b]``.

    Absolute tolerance ``tol``; recursion hard-capped at ``max_depth``.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, b - a)
    return _adapt(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_adapt(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _adapt(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))
