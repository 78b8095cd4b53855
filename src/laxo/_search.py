"""One-dimensional search kernels shared by every layer.

Three kernels each run many brackets in lockstep, with one call of a
vectorized function per round:

* ``bisect_many`` bisects on a predicate.  Each bracket is a step
  generator, ``_walk``, which yields the points its next steps need and is
  sent their answers; one call sees a dyadic tree of midpoints per live
  bracket, up to ``_BATCH`` steps deep.
* ``secant_many`` finds a root in each bracket with f(a) > 0 >= f(b).  Its
  brackets are arrays, and each round probes a pair c -+ e around each
  bracket's secant point c, sized by a bound on f'' so that the root lies
  between the two and the bracket collapses to width 2e (a safeguarded
  secant in the manner of Dekker, 1969, and Brent, *Algorithms for
  Minimization without Derivatives*, 1973, ch. 4).  A bracket whose pair
  would not pay, or misses, goes on as a ``bisect_many`` walk, in the
  same calls.
* ``golden_many`` minimizes a unimodal function by golden sections, one
  step generator per bracket.

``bisect`` and ``golden_min`` are ``bisect_many`` and ``golden_many`` on
one bracket.  Every search stops once the bracket cannot shrink in
floating point, whatever the tolerance.  ``runs`` and ``row_runs`` give
the maximal runs of True in a boolean mask.
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


def _start(live, idx, a, b, tol, maxiter, steps):
    """Start the bisection walk of each bracket i in idx onto ``live``.

    A walk with nothing to do writes its final ends into ``a`` and ``b``.
    """
    for i in idx:
        walk = _walk(float(a[i]), float(b[i]), tol, maxiter, steps)
        try:
            live.append((i, walk, next(walk)))
        except StopIteration as stop:
            a[i], b[i] = stop.value
    return live


def _lockstep(f, a, b, fa, fb, curv, tol, maxiter, steps):
    """The round loop of ``bisect_many`` and ``secant_many``.

    Brackets with f(a) > 0 >= f(b), room above tol and a first pair that
    pays (the test in the loop) start as probe pairs, the others as
    bisection walks; ``curv`` None starts every bracket as a walk.  The
    pairs' state (A, B, FA, FB, K) is kept for the live pairs ``sec``
    only, and a bracket's final ends are written into ``a`` and ``b`` when
    it leaves that state.
    """
    if curv is None:
        live = _start([], range(len(a)), a, b, tol, maxiter, steps)
        sec = ()
    else:
        w = np.abs(b - a)
        pair = (fa > 0.0) & (fb <= 0.0) & (w > tol)
        # the first pair's test, as in the loop (0 stands in for curv where
        # the bracket has no width, since inf * 0 is invalid)
        pair &= np.where(pair, curv, 0.0) * w * w < fa - fb
        live = _start([], (~pair).nonzero()[0].tolist(), a, b, tol, maxiter,
                      steps)
        sec = pair.nonzero()[0]
    if len(sec):
        A, B, FA, FB, K = a[sec], b[sec], fa[sec], fb[sec], curv[sec]
        D = B - A
        w = np.abs(D)
    while True:
        m = len(sec)
        if m:
            s = FA - FB                         # > 0
            # e = K |c - A| |B - c| / |f'| bounds the secant point c's
            # error; a pair is tried where e at the middle stays below w / 4
            cw2 = K * w * w
            ok = cw2 < s
            if not ok.all():
                _start(live, sec[~ok].tolist(), a, b, tol, maxiter, steps)
                sec, A, B, FA, FB, K, D, w, s, cw2 = (v[ok] for v in (
                    sec, A, B, FA, FB, K, D, w, s, cw2))
                m = len(sec)
        if m:
            th = FA / s                         # c = A + th D
            # e / w, at least tol / 4; the pair shifts inside the bracket
            # when c lies near an end
            eps = np.maximum(cw2 * th * (1.0 - th) / s, 0.25 * tol / w)
            th = np.minimum(np.maximum(th, eps), 1.0 - eps)
            c = A + th * D
            e = eps * D
            q = np.concatenate([c - e, c + e])
        if live:
            ends = np.array([req for _, _, req in live]).T
            # one column of midpoints per walk
            g = _dyadic(ends[0], ends[1], int(ends[2].max()))
            owner = np.repeat([[i for i, _, _ in live]], len(g), axis=0)
            if m:
                vals = f(np.concatenate([q, g.ravel()]),
                         np.concatenate([sec, sec, owner.ravel()]))
                ans = vals[2 * m:]
            else:
                vals = ans = f(g.ravel(), owner.ravel())
            if curv is not None:                # values, not answers
                ans = ans > 0.0
            cols = ans.reshape(g.shape).T.tolist()
            nxt = []
            for (i, walk, _), col in zip(live, cols):
                try:
                    nxt.append((i, walk, walk.send(col)))
                except StopIteration as stop:
                    a[i], b[i] = stop.value
            live = nxt
        elif m:
            vals = f(q, np.concatenate([sec, sec]))
        else:
            return a, b
        if m:
            q1, q2, v1, v2 = q[:m], q[m:], vals[:m], vals[m:2 * m]
            p1, p2 = v1 > 0.0, v2 > 0.0
            w2 = np.abs(q2 - q1)
            # a hit: f changes sign between the pair, which shrank the bracket
            hit = p1 & ~p2 & (w2 < w)
            if not hit.all():
                # the sign change lies in [A, q1], [q1, q2] or [q2, B]; a
                # missed pair leaves that bracket to the bisection
                miss = ~hit
                i = sec[miss]
                a[i] = np.where(p1, np.where(p2, q2, q1), A)[miss]
                b[i] = np.where(p1, np.where(p2, B, q2), q1)[miss]
                _start(live, i.tolist(), a, b, tol, maxiter, steps)
                sec, q1, q2, v1, v2, w2, K = (v[hit] for v in (
                    sec, q1, q2, v1, v2, w2, K))
            A, B, FA, FB, w = q1, q2, v1, v2, w2
            D = B - A
            done = w <= tol
            if done.any():
                a[sec[done]], b[sec[done]] = A[done], B[done]
                more = ~done
                sec, A, B, FA, FB, K, D, w = (v[more] for v in (
                    sec, A, B, FA, FB, K, D, w))


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
    return _lockstep(pred, a, b, None, None, None, tol, maxiter, steps)


def secant_many(f, a, b, fa, fb, curv, tol, maxiter=None):
    """Roots of ``f`` in brackets [a, b] with f(a) > 0 >= f(b), in lockstep.

    ``fa`` and ``fb`` are f at the ends, a on either side of b, and
    ``curv`` bounds |f''| / 2 on each bracket.  ``f(points, owner)`` maps
    points, and the bracket each serves, to values; it is called once per
    round.  A live bracket sends it the pair c -+ e around its secant point
    c, where e = curv |c - a| |b - c| / |f'| (f' the bracket's secant
    slope, e at least tol / 4) bounds the secant's error; when f changes
    sign between the two, the bracket collapses to them, and the next e is
    about curv e**2 / |f'|.  A bracket whose pair misses, or would not at
    least halve it, goes on as ``bisect_many``'s walk on f > 0 from its
    narrowed bracket, served in the same calls; so does every bracket whose
    ``curv`` is not finite or whose end values are not f(a) > 0 >= f(b).
    Each bracket ends with f(a) > 0 >= f(b) and ``|b - a| <= tol``, or at
    the float floor or ``maxiter`` bisection steps.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    fa, fb, curv = (np.asarray(v, dtype=float) for v in (fa, fb, curv))
    return _lockstep(f, a, b, fa, fb, curv, tol, maxiter, _BATCH)


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
