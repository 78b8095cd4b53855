"""One-dimensional search kernels shared by every layer.

Three kernels each run many brackets in lockstep, each in a loop of its
own, with one call of a vectorized function per round.  Each holds its
brackets as numpy arrays, one element per bracket, and drops a bracket
from them once it stops:

* ``bisect_many`` bisects on a predicate.  A walk's state is its bracket
  index and its ends; each round evaluates one dyadic tree of midpoints
  per live walk, at most ``_DEPTH`` steps deep, tests all its nodes at
  once and takes its steps by index arithmetic.
* ``secant_many`` finds a root in each bracket with f(a) > 0 >= f(b).  Each
  round probes a pair c -+ e around each bracket's secant point c, sized
  by a bound on f'' so that the root lies between the two and the bracket
  collapses to width 2e (a safeguarded secant in the manner of Dekker,
  1969, and Brent, *Algorithms for Minimization without Derivatives*,
  1973, ch. 4).  Once the pairs are done, every bracket whose pair would
  not pay, or missed, is walked by one ``bisect_many`` call.
* ``golden_many`` minimizes a unimodal function by golden sections.  Its
  state is each bracket's ends, inner points and their values, and each
  round evaluates the one new point of every live bracket.

A fourth, ``tie``, finds where one predicate flips by safeguarded Newton
steps, one probe per step, on a gap whose slope its caller knows in closed
form, and hands the bracket they leave to one ``bisect_many`` walk: the
tie of two maximizer branches of E in t (``lifespan_exact``) and in x (a
tracked shock's node).

``bisect`` is ``bisect_many`` on one bracket.  Every bracket stops on one
rule and no other: at ``|b - a| <= tol``, or at the float floor, where a
midpoint equals an end, whatever the tolerance.  Each step halves a
bracket, so a walk takes at most about log2(|b - a| / tol) steps, and
never more than about 2 100 on a finite bracket of doubles; it ends on
the floats that one step per function call gives.  ``runs`` and
``padded_runs`` give the maximal runs of True in a mask.
"""

import functools
import math

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# most bisection steps one round pays for: it evaluates the 2**_DEPTH - 1
# midpoints those steps can reach, a block of 7 rows where a tie's walk
# solves them
_DEPTH = 3
# constants as 0-d arrays, which numpy takes faster than Python numbers
_ZERO, _ONE, _ONE_I = np.array(0.0), np.array(1.0), np.array(1)


def _dyadic(a, b, k):
    """Rows a, the 2**k - 1 midpoints k steps can visit, from a to b, and
    b; one column per bracket.  Each midpoint is 0.5 * (c + d) for the
    bracket [c, d] split there, the very float a step computes."""
    n = h = 1 << k
    g = np.empty((n + 1, len(a)))
    g[0], g[n] = a, b
    while h > 1:
        h >>= 1
        g[h::2 * h] = 0.5 * (g[:n:2 * h] + g[2 * h::2 * h])
    return g


def _tree(k):
    """Nodes of k steps in heap order (root 1, halves 2p and 2p + 1, node 0
    a copy of the root): the ``_dyadic(k)`` rows of their ends and
    midpoints, and the answer row of each split."""
    p = np.maximum(np.arange(2 << k), 1)
    depth = np.array([q.bit_length() - 1 for q in p.tolist()])
    span = 1 << (k - depth)
    lo = (p - (1 << depth)) * span
    ends = np.stack([lo, lo + span, lo + span // 2])
    return ends, ends[2, :1 << k] - 1


_TREES = [None] + [_tree(k) for k in range(1, _DEPTH + 1)]


@functools.lru_cache(maxsize=64)
def _nodes(k, nw):
    """Flat indices p nw + c of the nodes p < 2**k of nw walks' trees, and
    of their halves 2p and 2p + 1."""
    node = np.arange((1 << k) * nw).reshape(-1, nw)
    return node, 2 * node - node[0], 2 * node - node[0] + nw


def bisect_many(pred, a, b, tol):
    """Shrink brackets [a, b] in lockstep, keeping ``pred`` true at each a.

    ``a`` and ``b`` are arrays of ends, a on either side of b.
    ``pred(points, owner)`` maps points, and the bracket each serves, to
    booleans; one call per round sees one dyadic tree per live bracket, of
    the depth the deepest request asks, at most ``_DEPTH``.  Each bracket
    stops on its own at ``|b - a| <= tol`` or at the float floor (a
    midpoint equal to an end), after at most about log2(|b - a| / tol)
    steps, with the ends that one step per predicate call gives.

    A round tests every node of the walks' trees as the one-step loop tests
    a bracket (a walk whose root fails stops, and the others' trees are
    built anew); from a node that passes a walk goes to the half its answer
    picks, else it stays, so a table of next nodes takes its k steps in k
    gathers along its tree's path.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    walk, A, B = np.arange(len(a)), a, b
    owner = walk[:0]
    while len(walk):
        # the steps the widest walk asks for: _DEPTH, fewer near tol
        k = _DEPTH if tol <= 0.0 else max(1, math.ceil(min(_DEPTH, np.log2(
            np.maximum(np.abs(B - A), tol) / tol).max())))
        g = _dyadic(A, B, k)
        ends, row = _TREES[k]
        E = g[ends]
        lo, hi, mid = E[:, :1 << k]
        go = (np.abs(hi - lo) > tol) & (mid != lo) & (mid != hi)
        if np.count_nonzero(go[1]) < len(walk):
            i = ~go[1]                          # those walks are done
            a[walk[i]], b[walk[i]] = A[i], B[i]
            walk, A, B = (v[go[1]] for v in (walk, A, B))
            owner = walk[:0]
            continue
        nw, n = len(walk), 1 << k
        if len(owner) != nw * (n - 1):         # a walk left, or k changed
            owner = np.repeat(walk[None], n - 1, axis=0).ravel()
        ans = pred(g[1:n].ravel(), owner)
        node, lower, upper = _nodes(k, nw)
        nxt = np.where(go, np.where(ans.reshape(n - 1, nw)[row], upper,
                                    lower), node).ravel()
        at = node[1]                            # the roots
        for _ in range(k):
            at = nxt[at]
        A, B = E[0].ravel()[at], E[1].ravel()[at]
    return a, b


def secant_many(f, a, b, fa, fb, curv, tol):
    """Roots of ``f`` in brackets [a, b] with f(a) > 0 >= f(b), in lockstep.

    ``fa`` and ``fb`` are f at the ends, a on either side of b, and
    ``curv`` bounds |f''| / 2 on each bracket.  ``f(points, owner)`` maps
    points, and the bracket each serves, to values; it is called once per
    round.  A live bracket sends it the pair c -+ e around its secant point
    c, where e = curv |c - a| |b - c| / |f'| (f' the bracket's secant
    slope, e at least tol / 4) bounds the secant's error; when f changes
    sign between the two, the bracket collapses to them, and the next e is
    about curv e**2 / |f'|.  Once the pairs are done, one ``bisect_many``
    call on f > 0 walks every bracket they did not finish: from the
    bracket a pair narrowed it to where that pair missed, else from the
    given bracket, where a pair would not at least halve the bracket, or
    ``curv`` is not finite, or the end values are not f(a) > 0 >= f(b).
    Each bracket ends with f(a) > 0 >= f(b) and ``|b - a| <= tol``, or at
    the float floor, with no more bisection steps than ``bisect_many``
    takes from where its walk starts.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    fa, fb, K = (np.asarray(v, dtype=float) for v in (fa, fb, curv))
    z, tol4, tol0 = _ZERO, np.array(0.25 * tol), np.array(tol)
    w, s = np.abs(b - a), fa - fb
    pair = (fa > z) & (fb <= z) & (w > tol0)
    # the first pair's test, as in the loop (0 stands in for curv where
    # the bracket has no width, since inf * 0 is invalid)
    cw2 = np.where(pair, K, z) * w * w
    pair &= cw2 < s
    sec, walks = np.arange(len(a)), []
    A, B, FA, FB = a, b, fa, fb
    if np.count_nonzero(pair) < len(a):
        walks.append((~pair).nonzero()[0])
        sec = pair.nonzero()[0]
        A, B, FA, FB, K, w, s, cw2 = (v[sec] for v in (
            A, B, FA, FB, K, w, s, cw2))
    while len(sec):
        m, own = len(sec), np.concatenate([sec, sec])
        # e = K |c - A| |B - c| / |f'| bounds the error of the secant
        # point c = A + th D (below w / 4 at the middle by the pair's
        # test); e / w is at least tol / 4, and shifts c off an end
        th = FA / s
        eps = np.maximum(cw2 * th * (_ONE - th) / s, tol4 / w)
        th = np.minimum(np.maximum(th, eps), _ONE - eps)
        D = B - A
        c, e, q = A + th * D, eps * D, np.empty(2 * m)
        q1, q2 = np.subtract(c, e, out=q[:m]), np.add(c, e, out=q[m:])
        vals = f(q, own)
        v1, v2 = vals[:m], vals[m:]
        w2 = np.abs(q2 - q1)
        # a hit: f changes sign between the pair, which shrank the bracket
        p1, p2 = v1 > z, v2 > z
        hit = (p1 > p2) & (w2 < w)
        if np.count_nonzero(hit) < m:
            # a miss: the walk takes [A, q1], [q1, q2] or [q2, B]
            miss = ~hit
            i = sec[miss]
            a[i], b[i] = (np.where(p1, np.where(p2, q2, q1), A)[miss],
                          np.where(p1, np.where(p2, B, q2), q1)[miss])
            walks.append(i)
            sec, q1, q2, v1, v2, w2, K = (v[hit] for v in (
                sec, q1, q2, v1, v2, w2, K))
        A, B, FA, FB, w = q1, q2, v1, v2, w2
        done = w <= tol0
        if np.count_nonzero(done) == len(sec):
            a[sec], b[sec] = A, B
            break
        # where the next pair would not pay, walk from the first bracket
        s, cw2 = FA - FB, K * w * w
        more = (cw2 < s) > done                 # and not done
        if np.count_nonzero(more) < len(sec):
            a[sec[done]], b[sec[done]] = A[done], B[done]
            walks.append(sec[~(more | done)])
            sec, A, B, FA, FB, K, w, s, cw2 = (v[more] for v in (
                sec, A, B, FA, FB, K, w, s, cw2))
    if walks:
        i = np.concatenate(walks)
        a[i], b[i] = bisect_many(lambda u, j: f(u, i[j]) > 0.0, a[i], b[i],
                                 tol)
    return a, b


def bisect(pred, a, b, tol):
    """``bisect_many`` on the one bracket [a, b] of ``pred``, which maps an
    array of points to an array of booleans; returns the final ends, with
    ``|b - a| <= tol`` or b the float next to a."""
    a, b = bisect_many(lambda xs, _: pred(xs), [a], [b], tol)
    return float(a[0]), float(b[0])


def tie(probe, pred, certify, held, failed, z, dz, tol):
    """Where a monotone predicate flips between held, where it holds, and
    failed, where it fails: safeguarded Newton steps, and one
    ``bisect_many`` walk where they stop paying.

    ``probe(z)`` reads the predicate at z, True, False or None where the
    read decides nothing, and a Newton step from z toward the flip, or
    None; each decided read tightens the bracket.  The search starts from
    z with the step dz, or where dz is None by probing z.  In the manner of
    Dekker (1969) and Brent (1973, ch. 4), a step is taken where it lands
    strictly inside the bracket and is below half the longest of the last
    three moves; the first step that reaches or passes held probes held
    itself instead, once (on a concave gap a step from failed lands below
    the flip, and steps from held converge without overshoot); any other
    step, and a decided probe with no step, give way to the bracket's
    midpoint.

    A step of at most tol (1 + |z|) / 5 that lands in the bracket or on an
    end goes to ``certify(z)``, which returns the two points it read, on
    held's side of z and on failed's, the predicate at each ((None, None)
    where it reads nothing) and a payload.  Where the predicate holds at
    the first and fails at the second, the search returns (z, payload);
    else the reads tighten the bracket.  One ``bisect_many`` walk on
    ``pred(points, owner)`` takes the bracket to ``|failed - held| <= tol``
    or the float floor where a certificate fails, a probe neither decides
    nor steps, a midpoint decides nothing or the bracket is that narrow
    already, and the search returns (its final midpoint, None).  There is
    no step cap: the longest of three taken moves halves every third move,
    and each midpoint halves the bracket or ends the steps.
    """
    def inside(v):
        return min(held, failed) < v < max(held, failed)

    moves = [math.inf] * 3
    tried = False
    nz = z if dz is None else None
    while True:
        mid = False
        if nz is None:
            step = math.nan if dz is None else z - dz
            if dz is not None and abs(dz) <= 0.2 * tol * (1.0 + abs(step)) \
                    and (inside(step) or step in (held, failed)):
                points, holds, out = certify(step)
                if holds[0] and not holds[1]:
                    return step, out
                for q, h in zip(points, holds):
                    if h is not None and inside(q):
                        held, failed = (q, failed) if h else (held, q)
                break
            if inside(step) and abs(dz) < 0.5 * max(moves):
                nz = step
            elif not tried and (step - held) * (failed - held) <= 0.0:
                nz, tried = held, True
            else:
                nz, mid = 0.5 * (held + failed), True
                if abs(failed - held) <= tol or not inside(nz):
                    break
        holds, dz = probe(nz)
        moves = moves[1:] + [abs(nz - z)]
        z, nz = nz, None
        if holds is None and (dz is None or mid):
            break
        if holds is not None:
            held, failed = (z, failed) if holds else (held, z)
    a, b = bisect_many(pred, [held], [failed], tol)
    return 0.5 * (float(a[0]) + float(b[0])), None


def golden_many(f, a, b, tol):
    """Minimizers of a unimodal ``f`` on many brackets, in lockstep.

    ``a`` and ``b`` are arrays of bracket ends.  ``f(points, owner)`` maps
    points, and the index of the bracket each one serves, to values; it is
    called once per round: on both inner points of every bracket first,
    then on the one new point of each live bracket.  Each bracket stops on
    its own when ``b - a <= tol`` or the bracket stops shrinking, and the
    returned array holds the midpoint of each final bracket.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out, m = np.empty(len(a)), len(a)
    if not m:
        return out
    idx = np.arange(m)
    w = b - a
    x = _INVPHI * w
    c, d = b - x, a + x
    v = f(np.concatenate([c, d]), np.concatenate([idx, idx]))
    fc, fd = v[:m], v[m:]
    live = w > tol
    while True:
        m = np.count_nonzero(live)
        if m < len(idx):
            out[idx[~live]] = 0.5 * (a + b)[~live]
            if not m:
                return out
            idx, a, b, c, d, fc, fd, w = (v[live] for v in (
                idx, a, b, c, d, fc, fd, w))
        # keep [a, d] where f(c) <= f(d), else [c, b]; the kept inner point
        # and its value carry over, the new point p takes the other's place
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        width, w = w, b - a
        x = _INVPHI * w
        p = np.where(left, b - x, a + x)
        fp = f(p, idx)
        c, d = np.where(left, p, d), np.where(left, c, p)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
        live = (w > tol) & (w < width)


def runs(mask):
    """Maximal runs of True in a 1-D mask as a list of (first, last)."""
    _, first, last = padded_runs(np.pad(np.asarray(mask, dtype=bool), 1)[None])
    return list(zip(first.tolist(), last.tolist()))


def padded_runs(pad):
    """Maximal runs of True along each row of a C-ordered 2-D mask whose
    first and last columns are False.

    Returns index arrays ``(row, first, last)``, row by row and left to
    right within a row, with columns counted from ``pad[:, 1]``: row r's
    pairs are ``runs(pad[r, 1:-1])``.
    """
    f = pad.ravel()
    # a change of value starts or ends a run; rows meet at two Falses
    row, col = np.divmod((f[1:] != f[:-1]).nonzero()[0], pad.shape[1])
    return row[0::2], col[0::2], col[1::2] - _ONE_I
