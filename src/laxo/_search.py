"""One-dimensional search kernels shared by every layer.

Bisection on a predicate (one step per call, or several dyadic steps per
call of a vectorized predicate, for one bracket or for many in lockstep),
golden-section minimization, and the maximal runs of True in a boolean
mask.  Both loops also stop once the bracket can no longer shrink in
floating point, so a tolerance finer than the float spacing at the bracket
ends cannot make them spin forever.
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
    steps split there, so it is the very float a step computes.  Arrays
    ``a`` and ``b`` give one column of midpoints per bracket.
    """
    n = 1 << k
    a = np.asarray(a, dtype=float)
    g = np.empty((n + 1,) + a.shape)
    g[0], g[n] = a, b
    step = n
    while step > 1:
        h = step >> 1
        g[h::step] = 0.5 * (g[:n:step] + g[step::step])
        step = h
    return g[1:n]


def _walk(a, b, tol, maxiter, batched):
    """The bisection of [a, b] as a generator of the answers it needs.

    Yields ``(a, b, k)`` when its next k steps need the predicate at the
    points ``_dyadic(a, b, k)``; a list of those answers is sent back.
    ``k`` is 1 unless ``batched``.  Returns the final ``(a, b)``.
    """
    n = 0
    left = 0                # steps the current answers still cover
    while abs(b - a) > tol and (maxiter is None or n < maxiter):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if not left:
            left = 1
            if batched:
                left = _BATCH if maxiter is None else min(_BATCH, maxiter - n)
                if tol > 0.0:
                    # about the steps that remain until |b - a| <= tol
                    left = max(1, math.ceil(
                        min(left, math.log2(abs(b - a) / tol))))
            ans = yield a, b, left
            lo, hi = 0, len(ans) + 1    # positions of a and b in the batch
        i = (lo + hi) >> 1
        if ans[i - 1]:
            a, lo = m, i
        else:
            b, hi = m, i
        left -= 1
        n += 1
    return a, b


def bisect(pred, a, b, tol, maxiter=None, vectorized=False):
    """Shrink the bracket keeping ``pred(a)`` true and ``pred(b)`` false.

    ``a`` may lie on either side of ``b``.  Stops when ``|b - a| <= tol``,
    when the midpoint equals an endpoint, or after ``maxiter`` steps, and
    returns the final ``(a, b)``.  A ``vectorized`` predicate maps an array
    of points to an array of booleans; it is called once for up to
    ``_BATCH`` steps, on every midpoint they can reach, and the steps then
    read their answers, so the result is the one-step result.
    """
    walk = _walk(a, b, tol, maxiter, vectorized)
    try:
        c, d, k = next(walk)
        while True:
            if vectorized:
                ans = pred(_dyadic(c, d, k)).tolist()
            else:
                ans = [pred(0.5 * (c + d))]
            c, d, k = walk.send(ans)
    except StopIteration as stop:
        return stop.value


def bisect_many(pred, a, b, tol, maxiter=None):
    """``bisect(..., vectorized=True)`` on many brackets in lockstep.

    ``a`` and ``b`` are arrays of bracket ends.  ``pred(points, owner)``
    maps points, and the index of the bracket each one serves, to booleans;
    it is called once per round, on the midpoints every live bracket's next
    steps can reach.  Each bracket keeps its own step, depth, float-floor
    and ``maxiter`` rules, so the returned arrays of final ends hold, per
    bracket, exactly what ``bisect`` returns for it.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    live = []                   # (bracket, walk, its request (a, b, k))
    for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
        walk = _walk(ai, bi, tol, maxiter, True)
        try:
            live.append((i, walk, next(walk)))
        except StopIteration as stop:
            a[i], b[i] = stop.value
    while live:
        groups = {}             # depth -> positions in live
        for j, (_, _, req) in enumerate(live):
            groups.setdefault(req[2], []).append(j)
        pts, owner = [], []
        for k, js in groups.items():
            ends = np.array([live[j][2] for j in js]).T
            # one column of midpoints per bracket
            g = _dyadic(ends[0], ends[1], k)
            pts.append(g.ravel())
            owner.append(np.repeat([[live[j][0] for j in js]], len(g),
                                   axis=0).ravel())
        ans = pred(np.concatenate(pts), np.concatenate(owner))
        nxt = []
        pos = 0
        for k, js in groups.items():
            m = ((1 << k) - 1) * len(js)
            cols = ans[pos:pos + m].reshape(-1, len(js)).T.tolist()
            pos += m
            for j, col in zip(js, cols):
                i, walk, _ = live[j]
                try:
                    nxt.append((i, walk, walk.send(col)))
                except StopIteration as stop:
                    a[i], b[i] = stop.value
        live = nxt
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
    _, first, last = row_runs(np.asarray(mask, dtype=bool)[None, :])
    return list(zip(first.tolist(), last.tolist()))


def row_runs(mask):
    """Maximal runs of True along each row of a 2-D mask.

    Returns index arrays ``(row, first, last)``, row by row and left to
    right within a row, so row r's pairs are ``runs(mask[r])``.
    """
    mask = np.asarray(mask, dtype=bool)
    rows, n = mask.shape
    pad = np.zeros((rows, n + 2), dtype=bool)
    pad[:, 1:-1] = mask
    # the value changes along a row, alternately a run's start and its end
    row, col = np.divmod(np.flatnonzero(pad[:, 1:] != pad[:, :-1]), n + 1)
    return row[0::2], col[0::2], col[1::2] - 1
