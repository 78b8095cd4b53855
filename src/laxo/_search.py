"""One-dimensional search kernels shared by every layer.

Three kernels each run many brackets in lockstep, with one call of a
vectorized function per round.  Each holds its brackets as numpy arrays,
one element per bracket, and drops a bracket from them once it stops:

* ``bisect_many`` bisects on a predicate.  A walk's state is its bracket
  index, its ends and the steps it has taken; each round evaluates one
  dyadic tree of midpoints per live walk, at most ``_DEPTH`` steps deep,
  and every walk then takes those steps at once.
* ``secant_many`` finds a root in each bracket with f(a) > 0 >= f(b).  Each
  round probes a pair c -+ e around each bracket's secant point c, sized
  by a bound on f'' so that the root lies between the two and the bracket
  collapses to width 2e (a safeguarded secant in the manner of Dekker,
  1969, and Brent, *Algorithms for Minimization without Derivatives*,
  1973, ch. 4).  A bracket whose pair would not pay, or misses, joins the
  ``bisect_many`` walks, served in the same calls.
* ``golden_many`` minimizes a unimodal function by golden sections.  Its
  state is each bracket's ends, inner points and their values, and each
  round evaluates the one new point of every live bracket.

``bisect`` is ``bisect_many`` on one bracket.  Every search stops once the
bracket cannot shrink in floating point, whatever the tolerance, and ends
on the floats that one step per function call gives.  ``runs`` and
``row_runs`` give the maximal runs of True in a boolean mask.
"""

import math

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# most bisection steps one round pays for: it evaluates the 2**_DEPTH - 1
# midpoints those steps can reach, a block of 7 rows for lifespan_exact
_DEPTH = 3


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


def _splits(A, B, n, tol, cap):
    """The midpoints of brackets [A, B], and which of them the next step
    splits: those with ``|B - A| > tol``, a midpoint that is neither end
    and fewer than ``cap`` steps n taken, the tests of the one-step loop.
    """
    m = 0.5 * (A + B)
    return m, (np.abs(B - A) > tol) & (m != A) & (m != B) & (n < cap)


def _lockstep(f, a, b, fa, fb, curv, tol, maxiter):
    """The round loop of ``bisect_many`` and ``secant_many``.

    Brackets with f(a) > 0 >= f(b), room above tol and a first pair that
    pays (the test in the loop) start as probe pairs, the others as
    bisection walks; ``curv`` None starts every bracket as a walk.  The
    pairs' state (A, B, FA, FB, K) is kept for the live pairs ``sec``
    only, and a pair's final ends are written into ``a`` and ``b`` when
    it leaves that state.  A walk keeps its ends in ``a`` and ``b``;
    ``walk`` and ``n`` hold the bracket and the steps taken of each.
    """
    cap = math.inf if maxiter is None else maxiter
    if curv is None:
        walk, sec = np.arange(len(a)), ()
    else:
        w = np.abs(b - a)
        pair = (fa > 0.0) & (fb <= 0.0) & (w > tol)
        # the first pair's test, as in the loop (0 stands in for curv where
        # the bracket has no width, since inf * 0 is invalid)
        pair &= np.where(pair, curv, 0.0) * w * w < fa - fb
        walk, sec = (~pair).nonzero()[0], pair.nonzero()[0]
    n = np.zeros(len(walk), dtype=int)
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
                walk = np.concatenate([walk, sec[~ok]])
                n = np.concatenate([n, np.zeros(m - ok.sum(), dtype=int)])
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
        if len(walk):
            WA, WB = a[walk], b[walk]
            _, go = _splits(WA, WB, n, tol, cap)
            if not go.all():                    # those walks are done
                walk, n, WA, WB = walk[go], n[go], WA[go], WB[go]
        if len(walk):
            # the steps each walk asks for, fewer than _DEPTH near maxiter
            # or about those left until |b - a| <= tol
            k = np.minimum(_DEPTH, cap - n)
            if tol > 0.0:
                k = np.maximum(1, np.ceil(np.minimum(
                    k, np.log2(np.abs(WB - WA) / tol))))
            k = int(k.max())
            # one column of midpoints per walk
            g = _dyadic(WA, WB, k)
            owner = np.repeat(walk[None], len(g), axis=0).ravel()
            if m:
                vals = f(np.concatenate([q, g.ravel()]),
                         np.concatenate([sec, sec, owner]))
                ans = vals[2 * m:]
            else:
                vals = ans = f(g.ravel(), owner)
            if curv is not None:                # values, not answers
                ans = ans > 0.0
            ans = ans.reshape(g.shape)
            # k steps down each walk's tree, from its root at position
            # half: a walk that stops keeps its ends for the rest
            cols = np.arange(len(walk))
            pos = half = 1 << (k - 1)
            for _ in range(k):
                mid, go = _splits(WA, WB, n, tol, cap)
                up = ans[pos - 1, cols]
                WA = np.where(go & up, mid, WA)
                WB = np.where(go & ~up, mid, WB)
                n = n + go
                half >>= 1
                pos = pos + np.where(up, half, -half)
            a[walk], b[walk] = WA, WB
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
                walk = np.concatenate([walk, i])
                n = np.concatenate([n, np.zeros(len(i), dtype=int)])
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


def bisect_many(pred, a, b, tol, maxiter=None):
    """Shrink brackets [a, b] in lockstep, keeping ``pred`` true at each a.

    ``a`` and ``b`` are arrays of ends, a on either side of b.
    ``pred(points, owner)`` maps points, and the bracket each serves, to
    booleans; one call per round sees one dyadic tree per live bracket, of
    the depth the deepest request asks, at most ``_DEPTH``.  Each bracket
    stops on its own at ``|b - a| <= tol``, the float floor or ``maxiter``
    steps, with the ends that one step per predicate call gives.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    return _lockstep(pred, a, b, None, None, None, tol, maxiter)


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
    return _lockstep(f, a, b, fa, fb, curv, tol, maxiter)


def bisect(pred, a, b, tol, maxiter=None):
    """``bisect_many`` on the one bracket [a, b]; returns its final ends.

    ``pred`` maps an array of points to an array of booleans.
    """
    a, b = bisect_many(lambda xs, _: pred(xs), [a], [b], tol, maxiter)
    return float(a[0]), float(b[0])


def golden_many(f, a, b, tol):
    """Minimizers of a unimodal ``f`` on many brackets, in lockstep.

    ``a`` and ``b`` are arrays of bracket ends.  ``f(points, owner)`` maps
    points, and the index of the bracket each one serves, to values; it is
    called once per round: on both inner points of every bracket first,
    then on the one new point of each live bracket.  Each bracket stops on
    its own when ``b - a <= tol`` or the bracket stops shrinking, and the
    returned array holds the midpoint of each final bracket.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(len(a))
    if not len(a):
        return out
    idx = np.arange(len(a))
    w = b - a
    c = b - _INVPHI * w
    d = a + _INVPHI * w
    fc, fd = np.split(f(np.concatenate([c, d]), np.tile(idx, 2)), 2)
    live = w > tol
    while True:
        if not live.all():
            out[idx[~live]] = 0.5 * (a + b)[~live]
            idx, a, b, c, d, fc, fd, w = (v[live] for v in (
                idx, a, b, c, d, fc, fd, w))
            if not len(idx):
                return out
        # keep [a, d] where f(c) <= f(d), else [c, b]; the kept inner point
        # and its value carry over, and the new point p takes the other's
        # place
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        width, w = w, b - a
        p = np.where(left, b - _INVPHI * w, a + _INVPHI * w)
        fp = f(p, idx)
        c, d = np.where(left, p, d), np.where(left, c, p)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
        live = (w > tol) & (w < width)


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
