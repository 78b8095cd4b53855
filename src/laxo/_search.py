"""One-dimensional search kernels shared by every layer.

Bisection on a predicate and golden-section minimization are each one
step generator, which yields the points its next steps need and is sent
their answers, and one driver, ``bisect_many`` or ``golden_many``, which
runs many brackets in lockstep with one call per round; ``bisect`` and
``golden_min`` are those drivers on one bracket.  Both searches stop once
the bracket cannot shrink in floating point, whatever the tolerance.
``runs`` and ``row_runs`` give the maximal runs of True in a boolean mask.
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


def _walk(a, b, tol, maxiter, steps):
    """The bisection of [a, b] as a generator of the answers it needs.

    Yields ``(a, b, k)`` when its next k steps need the predicate at the
    points ``_dyadic(a, b, k)``; a list of those answers is sent back.
    ``k`` is at most ``steps``, fewer when ``maxiter`` or ``tol`` stops the
    walk sooner.  Returns the final ``(a, b)``.
    """
    n = 0
    left = 0                # steps the current answers still cover
    while abs(b - a) > tol and (maxiter is None or n < maxiter):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if not left:
            left = steps if maxiter is None else min(steps, maxiter - n)
            if tol > 0.0 and left > 1:
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


def bisect_many(pred, a, b, tol, maxiter=None, steps=_BATCH):
    """Shrink brackets [a, b] in lockstep, keeping ``pred`` true at each a.

    ``a`` and ``b`` are arrays of ends, a on either side of b.
    ``pred(points, owner)`` maps points, and the bracket each serves, to
    booleans; one call per round sees one dyadic tree per live bracket, as
    deep as the deepest request.  A walk that asked for fewer steps reads
    the top levels of its tree, the very floats a shallower tree holds.
    Each bracket stops on its own at ``|b - a| <= tol``, the float floor or
    ``maxiter`` steps, with the ends that one step per predicate call gives.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    live = []                   # (bracket, walk, its request (a, b, k))
    for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
        walk = _walk(ai, bi, tol, maxiter, steps)
        try:
            live.append((i, walk, next(walk)))
        except StopIteration as stop:
            a[i], b[i] = stop.value
    while live:
        ends = np.array([req for _, _, req in live]).T
        # one column of midpoints per bracket
        g = _dyadic(ends[0], ends[1], int(ends[2].max()))
        owner = np.repeat([[i for i, _, _ in live]], len(g), axis=0)
        cols = pred(g.ravel(), owner.ravel()).reshape(g.shape).T.tolist()
        nxt = []
        for (i, walk, _), col in zip(live, cols):
            try:
                nxt.append((i, walk, walk.send(col)))
            except StopIteration as stop:
                a[i], b[i] = stop.value
        live = nxt
    return a, b


def bisect(pred, a, b, tol, maxiter=None, vectorized=False):
    """``bisect_many`` on the one bracket [a, b]; returns its final ends.

    ``vectorized`` is the most steps one predicate call pays for: False or
    1 calls ``pred`` on each midpoint alone; k > 1 (True means ``_BATCH``)
    calls it on the array of every midpoint the next k steps can reach.
    """
    steps = _BATCH if vectorized is True else max(1, int(vectorized))
    many = ((lambda xs, _: pred(xs)) if steps > 1
            else (lambda xs, _: np.array([pred(xs.item())])))
    a, b = bisect_many(many, [a], [b], tol, maxiter, steps)
    return float(a[0]), float(b[0])


def _golden(a, b, tol):
    """Golden-section search of [a, b] as a generator of the values it needs.

    Yields the points whose values its next step needs, two at the start
    and one per step after, and is sent a list of those values.  Stops
    when ``b - a <= tol`` or the bracket stops shrinking, and returns the
    midpoint of the final bracket.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = yield c, d
    while b - a > tol:
        width = b - a
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            (fc,) = yield (c,)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            (fd,) = yield (d,)
        if b - a >= width:
            break
    return 0.5 * (a + b)


def golden_many(f, a, b, tol):
    """Minimizers of a unimodal ``f`` on many brackets, in lockstep.

    ``a`` and ``b`` are arrays of bracket ends.  ``f(points, owner)`` maps
    points, and the index of the bracket each one serves, to values; it is
    called once per round, on the points every live bracket's next step
    needs.  Each bracket stops on its own when ``b - a <= tol`` or the
    bracket stops shrinking, and the returned array holds the midpoint of
    each final bracket.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(len(a))
    live = []                   # (bracket, walk, the points it needs)
    for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
        walk = _golden(ai, bi, tol)
        live.append((i, walk, next(walk)))
    while live:
        pts = np.array([p for _, _, req in live for p in req])
        owner = np.array([i for i, _, req in live for _ in req])
        vals = f(pts, owner).tolist()
        nxt = []
        pos = 0
        for i, walk, req in live:
            try:
                nxt.append((i, walk, walk.send(vals[pos:pos + len(req)])))
            except StopIteration as stop:
                out[i] = stop.value
            pos += len(req)
        live = nxt
    return out


def golden_min(f, a, b, tol):
    """``golden_many`` on the one bracket [a, b] of a scalar ``f``."""
    return golden_many(lambda xs, _: np.array([f(x) for x in xs.tolist()]),
                       [a], [b], tol)[0]


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
