import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laxo import (_search, characteristics, flux, initial_data as idata,
                  shock_analysis, variational_core as vc)
from laxo._search import (_DEPTH, bisect, bisect_many, golden_many,
                          padded_runs, runs, secant_many)
from laxo.characteristics import CharacteristicAnalyzer
from laxo.shock_analysis import ShockAnalyzer
from laxo.variational_core import Problem


def _runs_loop(mask):
    """Reference: the explicit scan for maximal runs of True."""
    out, i, n = [], 0, len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            out.append((i, j))
            i = j + 1
        else:
            i += 1
    return out


def _counted(f, limit=1000):
    """Wrap f so that a search that never stops fails instead of hanging."""
    calls = []

    def g(x):
        calls.append(x)
        assert len(calls) <= limit, "search did not terminate"
        return f(x)

    return g, calls


# -- runs --------------------------------------------------------------------

@pytest.mark.parametrize("mask, expected", [
    ([], []),
    ([False], []),
    ([True], [(0, 0)]),
    ([True] * 5, [(0, 4)]),
    ([True, True, False, True, False, False, True, True],
     [(0, 1), (3, 3), (6, 7)]),
])
def test_runs_cases(mask, expected):
    assert runs(np.array(mask, dtype=bool)) == expected


def test_runs_matches_loop():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 17, 2049):
        for p in (0.1, 0.5, 0.9):
            mask = rng.random(n) < p
            assert runs(mask) == _runs_loop(mask)


def test_padded_runs_matches_runs_per_row():
    rng = np.random.default_rng(8)
    for rows, n in ((1, 1), (1, 2049), (3, 1), (5, 2), (8, 17), (8, 2049)):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            mask = rng.random((rows, n)) < p
            pad = np.zeros((rows, n + 2), dtype=bool)
            pad[:, 1:-1] = mask
            row, first, last = padded_runs(pad)
            got = list(zip(row.tolist(), first.tolist(), last.tolist()))
            assert got == [(r, a, b) for r in range(rows)
                           for a, b in runs(mask[r])]


def test_maximize_flags_boundary_maxima_at_both_ends():
    # a declared bound below the data range puts E's maxima on both ends of
    # the u-grid: E = 2|u| - u^2/2 at x = 0, t = 1, equal at u = -1 and 1
    d = idata.InitialData([], left_tail=2.0, right_tail=-2.0,
                          window=(0.0, 0.0), bound=1.0)
    p = Problem(flux.burgers(), d)
    ms = p.maximize(0.0, 1.0)
    assert len(ms.components) == 2
    assert ms.u_plus == pytest.approx(p._s[0], abs=1e-9)
    assert ms.u_minus == pytest.approx(p._s[-1], abs=1e-9)


# -- bisect -------------------------------------------------------------------

def test_bisect_root():
    pred, _ = _counted(lambda x: x * x < 2.0)
    a, b = bisect(pred, 0.0, 2.0, 1e-12)
    assert a < np.sqrt(2.0) <= b and b - a <= 1e-12


def test_bisect_reversed_bracket():
    pred, _ = _counted(lambda x: x >= 0.3)
    a, b = bisect(pred, 1.0, 0.0, 1e-12)
    assert b < 0.3 <= a and a - b <= 1e-12


def _always(x):
    return np.ones(len(x), dtype=bool)


def test_bisect_too_narrow_to_split():
    a0 = 1e4
    b0 = np.nextafter(a0, np.inf)        # 1.8e-12 apart: above tol
    pred, calls = _counted(_always)
    assert bisect(pred, a0, b0, 1e-12) == (a0, b0)
    assert calls == []


def test_bisect_stops_at_tol():
    pred, calls = _counted(_always)
    assert bisect(pred, 0.0, 1e-13, 1e-12) == (0.0, 1e-13)
    assert calls == []
    # a true predicate moves a up by half the bracket at each step, so the
    # final width counts the steps taken: exactly 7 to a tol of 2**-7
    a, b = bisect(pred, 0.0, 1.0, 2.0 ** -7)
    assert (a, b) == (1.0 - 2.0 ** -7, 1.0)


def test_bisect_float_floor_far_from_origin():
    # the bracket stalls one ulp wide, above tol, and must still stop
    pred, _ = _counted(lambda x: x < 1e4 + 0.25)
    a, b = bisect(pred, 1e4, 1e4 + 1.0, 1e-12)
    assert a < 1e4 + 0.25 <= b
    assert b == np.nextafter(a, np.inf)


# -- batched bisection --------------------------------------------------------

def _bisect_loop(pred, a, b, tol):
    """Reference: the one-step loop, with the (point, answer) of each step."""
    steps = []
    while abs(b - a) > tol:
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        ok = bool(pred(m))
        steps.append((m, ok))
        if ok:
            a = m
        else:
            b = m
    return (a, b), steps


def _batched(pred, a, b, tol):
    """Run bisect, keeping every array it hands the predicate."""
    batches = []

    def vpred(xs):
        assert len(batches) <= 1000, "search did not terminate"
        batches.append(xs.copy())
        return pred(xs)

    return bisect(vpred, a, b, tol), batches


def _assert_same_walk(batches, steps):
    """Each batch is a full dyadic tree whose walk visits the next steps."""
    pos = 0
    for j, pts in enumerate(batches):
        k = len(pts).bit_length()
        assert len(pts) == 2 ** k - 1
        lo, hi = 0, len(pts) + 1
        chunk = steps[pos:pos + k]
        # only the last batch may end early, on a tol or float-floor stop
        assert chunk and (len(chunk) == k or j == len(batches) - 1)
        for m, ok in chunk:
            i = (lo + hi) // 2
            assert pts[i - 1] == m
            lo, hi = (i, hi) if ok else (lo, i)
        pos += len(chunk)
    assert pos == len(steps)


_MONOTONE = (lambda c: (lambda x: x < c), lambda c: (lambda x: x > c))


def _several_changes(c):
    # exact arithmetic only, so a point reads the same alone or in an array
    return lambda x: np.floor((x - c) * 7.3) % 2 == 0


def _check_against_loop(pred, a, b, tol):
    ref, steps = _bisect_loop(pred, a, b, tol)
    got, batches = _batched(pred, a, b, tol)
    assert got == ref
    _assert_same_walk(batches, steps)
    return steps, batches


def test_batched_bisect_matches_loop_on_random_brackets():
    rng = np.random.default_rng(21)
    for _ in range(300):
        a, b = rng.uniform(-5.0, 5.0, 2)       # either orientation
        c = float(rng.uniform(min(a, b), max(a, b)))
        tol = float(10.0 ** rng.uniform(-14.0, -1.0))
        for make in _MONOTONE + (_several_changes,):
            _check_against_loop(make(c), float(a), float(b), tol)


def test_batched_bisect_stops_mid_batch():
    # a bracket a few ulps wide far from the origin: rounded midpoints can
    # shrink it faster than halving, so the tol (or float-floor) stop falls
    # inside a batch sized from |b - a| / tol
    base = 1e4
    ulp = float(np.spacing(base))
    mid_batch = 0
    for w in range(3, 120):
        for tf in (1.5, 2.2, 3.7):
            for cf in (0.1, 0.37, 0.81):
                a, b = base, base + w * ulp
                steps, batches = _check_against_loop(
                    _MONOTONE[0](a + cf * (b - a)), a, b, tf * ulp)
                covered = sum(len(p).bit_length() for p in batches)
                mid_batch += covered > len(steps)
    assert mid_batch > 0


def test_batched_bisect_tol_stops_at_batch_end():
    # halving [0, 1] is exact, so a tol of 2**-k stops after k steps; the
    # batches are sized from |b - a| / tol, so this stop is a batch end
    for k in range(1, 25):
        for make in _MONOTONE + (_several_changes,):
            steps, batches = _check_against_loop(make(0.3), 0.0, 1.0,
                                                 2.0 ** -k)
            assert len(steps) == k
            assert sum(len(p).bit_length() for p in batches) == k


def test_batched_bisect_one_ulp_bracket():
    a0 = 1e4
    b0 = np.nextafter(a0, np.inf)
    got, batches = _batched(lambda x: x < a0, a0, b0, 1e-12)
    assert got == (a0, b0) and batches == []


def test_batched_bisect_call_budget():
    # a 60-step run pays for up to _DEPTH steps per predicate call
    steps, batches = _check_against_loop(_MONOTONE[0](1e-30), -1.0, 1.0,
                                         2.0 ** -59)
    assert len(steps) == 60
    assert len(batches) <= -(-60 // _DEPTH) + 1


# -- lockstep bisection of many brackets --------------------------------------

def _many_against_bisect(preds, a, b, tol):
    """bisect_many on all brackets against bisect on each, bit for bit."""
    calls = []

    def pred(xs, owner):
        assert len(calls) <= 1000, "search did not terminate"
        calls.append(owner.copy())
        out = np.empty(len(xs), dtype=bool)
        for i in set(owner.tolist()):
            sel = owner == i
            out[sel] = preds[i](xs[sel])
        return out

    got_a, got_b = bisect_many(pred, a, b, tol)
    for i, p in enumerate(preds):
        ref = bisect(p, float(a[i]), float(b[i]), tol)
        assert (got_a[i], got_b[i]) == ref
        assert got_a[i].tobytes() + got_b[i].tobytes() == (
            np.float64(ref[0]).tobytes() + np.float64(ref[1]).tobytes())
    return calls


def test_bisect_many_matches_bisect_on_mixed_brackets():
    # widths from 1e-11 to 10 take different depths k in the same round; one
    # bracket a few ulps wide at 1e6 stops on m == a; one predicate has
    # several sign changes; one bracket is reversed and one is already done
    rng = np.random.default_rng(34)
    base = 1e6
    ulp = float(np.spacing(base))
    a = [0.0, -1.0, 3.0, 0.25, base, 2.0, -4.0, 0.5]
    b = [10.0, -1.0 + 1e-11, 2.0, 0.25 + 3e-9, base + 5 * ulp, 2.5, 4.0,
         0.5 + 1e-13]
    cs = [float(rng.uniform(min(x, y), max(x, y))) for x, y in zip(a, b)]
    preds = [(lambda c: (lambda x: x < c))(c) for c in cs]
    preds[4] = lambda x: x < base + 0.3 * ulp
    preds[6] = _several_changes(0.1)
    # the float floor stops that bracket one ulp wide, above tol
    ref = bisect(preds[4], base, base + 5 * ulp, 1e-12)
    assert ref[1] - ref[0] == ulp
    a, b = np.array(a), np.array(b)
    # 1e-3 stops the widest brackets after 13-14 steps, and 1e-17 after up
    # to 60, the float floor stopping some first
    for tol in (1e-12, 1e-9, 1e-3, 1e-17):
        calls = _many_against_bisect(preds, a, b, tol)
        # one predicate call per round, never one per bracket and round
        assert len(calls) <= -(-64 // _DEPTH) + 1
        # each round is one dyadic tree per live bracket, all of one
        # depth K: 2**K - 1 points per bracket
        for owner in calls:
            _, per = np.unique(owner, return_counts=True)
            assert len(set(per.tolist())) == 1
            assert int(per[0]) & (int(per[0]) + 1) == 0


def test_bisect_many_random_brackets():
    rng = np.random.default_rng(55)
    for _ in range(20):
        m = int(rng.integers(1, 12))
        a = rng.uniform(-5.0, 5.0, m)
        b = a + rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-12, 1, m)
        preds = []
        for x, y in zip(a, b):
            c = float(rng.uniform(min(x, y), max(x, y)))
            make = (_MONOTONE + (_several_changes,))[int(rng.integers(3))]
            preds.append(make(c))
        tol = float(10.0 ** rng.uniform(-14.0, -3.0))
        _many_against_bisect(preds, a, b, tol)


def _first_false(pred, a, b, rounds):
    """The shortcut a monotone predicate allows: each round takes a depth-3
    tree's three steps at once, to the bracket around its first False."""
    for _ in range(rounds):
        g = {0: a, 8: b}
        for h in (4, 2, 1):
            for j in range(h, 8, 2 * h):
                g[j] = 0.5 * (g[j - h] + g[j + h])
        ok = [bool(pred(np.array([g[j]]))[0]) for j in range(1, 8)]
        j = ok.index(False) + 1 if False in ok else 8
        a, b = g[j - 1], g[j]
    return a, b


def test_bisect_many_follows_tree_path_not_first_false():
    # predicates with several sign changes per bracket: a walk's steps must
    # follow its tree's path, answer by answer, as the one-step loop does,
    # not jump to the first False of its tree, which only a monotone
    # predicate allows
    preds = [_several_changes(c) for c in (0.05, 0.11, 0.31, 0.6)]
    preds.append(lambda x: np.sin(37.0 * x) > 0.2)
    preds.append(lambda x: (np.floor(x * 64.0) % 3) != 1)
    a = np.array([0.0, -1.0, 2.0, 0.3, -0.7, 0.0])
    b = np.array([1.0, 1.5, -1.0, 0.9, 0.4, 1.0])
    # 1e-9 and 1e-2 stop the unit brackets after 30 and 7 steps
    for tol in (1e-12, 1e-6, 1e-9, 1e-2):
        _many_against_bisect(preds, a, b, tol)
        got = bisect_many(lambda xs, owner: np.array(
            [bool(preds[i](np.array([x]))[0])
             for x, i in zip(xs.tolist(), owner.tolist())]), a, b, tol)
        for i, pred in enumerate(preds):
            ref, _ = _bisect_loop(lambda u: bool(pred(np.array([u]))[0]),
                                  float(a[i]), float(b[i]), tol)
            assert (got[0][i], got[1][i]) == ref
    # 30 steps in 10 whole trees: the shortcut is the loop on monotone
    # predicates and ends elsewhere on these
    differs = 0
    for i, pred in enumerate(preds + [_MONOTONE[0](0.37)]):
        x, y = (float(a[i]), float(b[i])) if i < len(preds) else (0.0, 1.0)
        # a tol that the loop reaches in exactly 30 steps
        ref, steps = _bisect_loop(lambda u: bool(pred(np.array([u]))[0]),
                                  x, y, 1.5 * 2.0 ** -30 * abs(y - x))
        assert len(steps) == 30
        if i == len(preds):
            assert _first_false(pred, x, y, 10) == ref
        else:
            differs += _first_false(pred, x, y, 10) != ref
    assert differs > 0


def test_bisect_one_bracket_call_budget():
    # 40 steps to 1e-12 on [0, 1] at 3 steps per call: exactly 14 calls
    pred, calls = _counted(lambda x: x * x < 0.5)
    a, b = bisect(pred, 0.0, 1.0, 1e-12)
    assert a < math.sqrt(0.5) <= b and b - a <= 1e-12
    assert len(calls) == 14


def test_bisect_many_no_brackets():
    a, b = bisect_many(lambda xs, owner: xs > 0, np.empty(0), np.empty(0),
                       1e-12)
    assert a.shape == b.shape == (0,)


# -- lockstep secant probe pairs ----------------------------------------------

def _secant(fs, a, b, curv, tol=1e-12):
    """secant_many on brackets of the functions fs, with each call's owners."""
    calls = []

    def f(xs, owner):
        assert len(calls) <= 1000, "search did not terminate"
        calls.append(owner.copy())
        out = np.empty(len(xs))
        for i in set(owner.tolist()):
            sel = owner == i
            out[sel] = fs[i](xs[sel])
        return out

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fa = np.array([g(np.array([x]))[0] for g, x in zip(fs, a.tolist())])
    fb = np.array([g(np.array([x]))[0] for g, x in zip(fs, b.tolist())])
    got = secant_many(f, a, b, fa, fb, curv, tol)
    return got, calls


def _assert_certified(fs, got, tol):
    for g, x, y in zip(fs, *got):
        assert g(np.array([x]))[0] > 0.0 >= g(np.array([y]))[0]
        assert abs(y - x) <= tol


def _smooth_roots(rng, m):
    """m smooth functions with one simple root each, bracketed 1e-3 wide.

    Half decrease from a to b and half increase, so that half the brackets
    have a above b; |f''| / 2 <= 1.5 on every bracket.
    """
    fs, a, b = [], [], []
    for k in range(m):
        r = float(rng.uniform(-2.0, 2.0))
        sgn = 1.0 if k % 2 else -1.0
        # f = sgn (x - r) (1 + (x - r)^2 / 2 + sin(x) / 3): f'(r) = sgn
        fs.append(lambda x, r=r, sgn=sgn: sgn * (x - r) * (
            1.0 + 0.5 * (x - r) ** 2 + np.sin(x) / 3.0))
        lo = r - float(rng.uniform(0.0, 1e-3))
        a.append(lo + 1e-3 if sgn > 0 else lo)
        b.append(lo if sgn > 0 else lo + 1e-3)
    return fs, a, b


def test_secant_smooth_converges_in_three_calls():
    rng = np.random.default_rng(3)
    fs, a, b = _smooth_roots(rng, 9)
    got, calls = _secant(fs, a, b, np.full(9, 1.5))
    _assert_certified(fs, got, 1e-12)
    assert len(calls) <= 3
    # every call holds the probe pair of each live bracket, nothing else
    for owner in calls:
        _, per = np.unique(owner, return_counts=True)
        assert set(per.tolist()) == {2}


def test_secant_pairs_that_all_finish_walk_nothing(monkeypatch):
    # a round where some brackets finish and the rest pair again leaves no
    # bracket to walk, so no bisect_many call of zero brackets follows
    sizes, walk = [], _search.bisect_many

    def spy(pred, a, b, tol):
        sizes.append(len(a))
        return walk(pred, a, b, tol)

    monkeypatch.setattr(_search, "bisect_many", spy)
    for seed in range(10):
        fs, a, b = _smooth_roots(np.random.default_rng(seed), 9)
        got, _ = _secant(fs, a, b, np.full(9, 1.5))
        _assert_certified(fs, got, 1e-12)
    assert 0 not in sizes


def test_secant_certified_on_exit():
    rng = np.random.default_rng(4)
    for tol in (1e-12, 1e-9, 1e-6):
        fs, a, b = _smooth_roots(rng, 12)
        # a curvature bound too small for some brackets, so their pairs miss
        curv = rng.choice([0.0, 1e-3, 1.5, 40.0, np.inf], 12)
        got, _ = _secant(fs, a, b, curv, tol)
        _assert_certified(fs, got, tol)


def test_secant_step_falls_back_within_tol():
    # a jump inside each bracket: a claimed curvature of 0 sends the pair,
    # which misses, and the bisection ends the search from the narrowed
    # bracket; an infinite curvature bisects from the start
    cs = [0.3e-3, 0.77e-3, 0.5e-3]
    fs = [(lambda c: (lambda x: np.where(x < c, 1.0, -2.0)))(c) for c in cs]
    a, b = [0.0] * 3, [1e-3] * 3
    for curv, pairs in ((np.zeros(3), 1), (np.full(3, np.inf), 0)):
        got, calls = _secant(fs, a, b, curv)
        _assert_certified(fs, got, 1e-12)
        for c, x, y in zip(cs, *got):
            assert x < c <= y
        # one pair per bracket, if any, then one dyadic tree per bracket
        per = [set(np.unique(o, return_counts=True)[1].tolist())
               for o in calls]
        assert per[:pairs] == [{2}] * pairs
        for n, in per[pairs:]:
            assert n & (n + 1) == 0
    # the pairs come first, then the walks: a smooth bracket beside the
    # steps adds its pair calls before the calls the steps take alone
    sm, sa, sb = _smooth_roots(np.random.default_rng(5), 1)
    both, calls_both = _secant(fs + sm, a + sa, b + sb,
                               [np.inf] * 3 + [1.5])
    _assert_certified(fs + sm, both, 1e-12)
    steps, calls_steps = _secant(fs, a, b, np.full(3, np.inf))
    n = len(calls_both) - len(calls_steps)
    assert n > 0
    assert all(o.tolist() == [3, 3] for o in calls_both[:n])
    assert ([o.tolist() for o in calls_both[n:]]
            == [o.tolist() for o in calls_steps])
    assert both[0][:3].tolist() == steps[0].tolist()


def _pair_narrowed(pts, a, b):
    """The bracket a secant search leaves to the bisection, from its calls.

    ``pts`` holds the (points, values) of one bracket's probe pairs, in
    order.  Returns the bracket its first missed pair narrows it to, and
    the number of pairs it took.
    """
    pairs = 0
    for (q1, q2), (v1, v2) in pts:
        pairs += 1
        if v1 > 0.0 >= v2 and abs(q2 - q1) < abs(b - a):
            a, b = q1, q2
            continue
        if v1 > 0.0:
            return ((q2, b) if v2 > 0.0 else (q1, q2)), pairs
        return (a, q1), pairs
    raise AssertionError("no pair missed")


def test_secant_walks_join_mid_search():
    # one call holds brackets that start bisection walks at different
    # rounds: an infinite curvature and end values of the wrong signs at
    # the start, a pair missing a jump in the first round, and a pair that
    # hits in the first round and misses a jump 1e-10 from the root in the
    # second; each walk ends on the one-step loop's floats from the
    # bracket it starts on, and every walk runs in the calls after the pairs
    r = 0.3
    fs = [lambda x: np.where(x < r + 1e-4, 1.0, -2.0),        # curv inf
          lambda x: x - r,                                     # f(a) < 0
          lambda x: np.where(x < r + 2e-4, 1.0, -2.0),         # first miss
          lambda x: (r - x) + 1e-9 * (x < r + 1e-10),          # later miss
          lambda x: (r - x) * (1.0 + (x - r) ** 2)]            # pairs only
    a = [r - 5e-4] * 5
    b = [r + 5e-4] * 5
    curv = [np.inf, 1.5, 0.0, 1.5, 1.5]
    tol = 1e-12
    calls = []
    pts = [[] for _ in fs]

    def f(xs, owner):
        assert len(calls) <= 1000, "search did not terminate"
        # a pair call holds two points per bracket, a tree 1, 3 or 7
        calls.append(set(np.unique(owner, return_counts=True)[1].tolist()))
        out = np.empty(len(xs))
        for i in set(owner.tolist()):
            sel = owner == i
            out[sel] = fs[i](xs[sel])
            pts[i].append((xs[sel].tolist(), out[sel].tolist()))
        return out

    fa = np.array([g(np.array([x]))[0] for g, x in zip(fs, a)])
    fb = np.array([g(np.array([x]))[0] for g, x in zip(fs, b)])
    got = secant_many(f, np.array(a), np.array(b), fa, fb, np.array(curv),
                      tol)
    for i, g in enumerate(fs):
        if i < 2:
            start, pairs = (a[i], b[i]), 0
        elif i < 4:
            start, pairs = _pair_narrowed(
                [p for p in pts[i] if len(p[0]) == 2], a[i], b[i])
        else:
            _assert_certified([g], ([got[0][i]], [got[1][i]]), tol)
            continue
        assert pairs == (0, 0, 1, 2)[i]
        ref, steps = _bisect_loop(lambda x: g(np.array([x]))[0] > 0.0,
                                  *start, tol)
        assert (got[0][i], got[1][i]) == ref
        # the walk's calls evaluate full dyadic trees
        trees = [len(p) for p, _ in pts[i][pairs:]]
        assert all(n & (n + 1) == 0 for n in trees)
        assert sum(n.bit_length() for n in trees) >= len(steps)
    # the pair calls first, then the walks' calls, which all walks share
    pairs = [sum(len(p) == 2 for p, _ in q) for q in pts]
    n = max(pairs)
    assert all(c == {2} for c in calls[:n])
    assert all(2 not in c for c in calls[n:])
    assert len(calls) == n + max(len(q) - k for q, k in zip(pts, pairs))


def test_secant_all_pairs_end_in_one_round():
    # every bracket starts as a pair and every pair ends in the same round:
    # each bracket's ends are those of a call on it alone, bit for bit
    rng = np.random.default_rng(11)
    fs, a, b = _smooth_roots(rng, 7)
    curv = np.full(7, 1.5)
    got, calls = _secant(fs, a, b, curv, tol=1e-9)
    _assert_certified(fs, got, 1e-9)
    # two rounds of all seven pairs, the last ending every one
    assert [len(o) for o in calls] == [14, 14]
    alone = [_secant([g], [x], [y], curv[:1], tol=1e-9)
             for g, x, y in zip(fs, a, b)]
    assert all(len(c) == len(calls) for _, c in alone)
    for i, ((x, y), _) in enumerate(alone):
        assert got[0][i].tobytes() == x.tobytes()
        assert got[1][i].tobytes() == y.tobytes()


def test_secant_walks_stop_mid_round():
    # walks that start in different rounds share trees of the deepest
    # walk's depth, so some stop inside a tree, on tol or the float floor;
    # each ends as the one-step loop does from the bracket it starts on
    base = 1e4
    ulp = float(np.spacing(base))
    cs = (0.3e-3, 0.77e-3, 0.5e-3, 0.123e-3)
    fs = [(lambda c: (lambda x: np.where(x < c, 1.0, -2.0)))(c) for c in cs]
    fs.append(lambda x: np.where(x < base + 2.5 * ulp, 1.0, -1.0))
    a = [0.0, 0.0, 0.0, 0.0, base]
    b = [1e-3, 1e-3, 1e-3, 1e-3, base + 9 * ulp]
    # a claimed curvature of 0 sends a pair, which misses; inf bisects at once
    curv = np.array([0.0, np.inf, 0.0, np.inf, 0.0])
    mid_round = 0
    # 5e-5 and 1e-8 stop the 1e-3 brackets after about 5 and 17 steps
    for tol in (1e-12, 5e-5, 1e-8, 3e-7, 0.0):
        pts = [[] for _ in fs]

        def f(xs, owner):
            out = np.empty(len(xs))
            for i in set(owner.tolist()):
                sel = owner == i
                out[sel] = fs[i](xs[sel])
                pts[i].append((xs[sel].tolist(), out[sel].tolist()))
            return out

        fa = np.array([g(np.array([x]))[0] for g, x in zip(fs, a)])
        fb = np.array([g(np.array([x]))[0] for g, x in zip(fs, b)])
        got = secant_many(f, np.array(a), np.array(b), fa, fb, curv, tol)
        for i, g in enumerate(fs):
            start, pairs = (a[i], b[i]), 0
            if all(len(q[0]) == 2 for q in pts[i]):
                # the pairs alone ended this bracket
                _assert_certified([g], ([got[0][i]], [got[1][i]]),
                                  max(tol, ulp))
                continue
            if curv[i] == 0.0:
                start, pairs = _pair_narrowed(
                    [q for q in pts[i] if len(q[0]) == 2], a[i], b[i])
            ref, steps = _bisect_loop(lambda x: g(np.array([x]))[0] > 0.0,
                                      *start, tol)
            assert (got[0][i], got[1][i]) == ref
            trees = [len(q) for q, _ in pts[i][pairs:]]
            mid_round += sum(n.bit_length() for n in trees) > len(steps)
    assert mid_round > 0


def test_secant_far_from_origin_terminates():
    # near 1e5 the float spacing (1.5e-11) exceeds tol: the pair collapses
    # onto one float, and the bisection must stop at the float floor
    base = 1e5
    r = base + 0.123
    fs = [lambda x: r - x, lambda x: (r - x) * (1.0 + (x - base) ** 2),
          lambda x: np.where(x < r, 1.0, -1.0)]

    def hang(signum, frame):
        pytest.fail("secant_many did not terminate")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        for tol in (1e-12, 0.0):
            got, _ = _secant(fs, [base] * 3, [base + 1.0] * 3,
                             [0.0, 1.0, 0.0], tol)
            for g, x, y in zip(fs, *got):
                assert g(np.array([x]))[0] > 0.0 >= g(np.array([y]))[0]
                assert y == np.nextafter(x, np.inf)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_secant_many_no_brackets():
    def f(xs, owner):
        raise AssertionError("called without brackets")

    a, b = secant_many(f, np.empty(0), np.empty(0), np.empty(0),
                       np.empty(0), np.empty(0), 1e-12)
    assert a.shape == b.shape == (0,)


# -- the tie of two branches ---------------------------------------------------

def _tie(r, step, z, dz, tol=1e-8, held=0.0, failed=1.0,
         undecided=lambda z: False):
    """``tie`` on the predicate z < r, whose probes step by step(z) (None:
    no step) and decide nothing where undecided(z); the answer, its payload,
    and the points of the probes, of the certificates and of the walk's
    rounds."""
    seen = {"probes": [], "certs": [], "walk": []}

    def probe(q):
        seen["probes"].append(q)
        return None if undecided(q) else q < r, step(q)

    def pred(qs, _):
        seen["walk"].append(qs.copy())
        return qs < r

    def certify(q):
        seen["certs"].append(q)
        points = (q - 0.5 * tol, q + 0.5 * tol)
        return points, tuple(v < r for v in points), q

    def hang(signum, frame):
        pytest.fail("tie did not terminate")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        return _search.tie(probe, pred, certify, held, failed, z, dz,
                           tol) + (seen,)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_tie_linear_gap_takes_one_probe_and_one_certificate():
    # a Newton step on a linear gap lands on the flip: one probe there reads
    # a step below tol, and one certificate ends the search
    r = 0.3
    got, out, seen = _tie(r, lambda q: q - r, 1.0, 1.0 - r)
    assert len(seen["probes"]) == len(seen["certs"]) == 1
    assert seen["walk"] == []
    assert out == got and abs(got - r) <= 1e-15


def test_tie_certifies_a_step_onto_a_bracket_end():
    # the probe at r fails there, so r becomes failed; its zero step lands
    # on that end and is certified, not replaced by the midpoint
    r = 0.375
    got, out, seen = _tie(r, lambda q: q - r, 1.0, 1.0 - r)
    assert seen["probes"] == [r] and seen["certs"] == [r]
    assert got == out == r


@pytest.mark.parametrize("tol", [1e-8, 0.0])
def test_tie_probe_with_no_step_ends_in_one_walk(monkeypatch, tol):
    # a probe that neither decides nor steps hands the bracket to one
    # bisect_many walk, which ends at tol or at the float floor
    walks = []
    walk = _search.bisect_many

    def spy(pred, a, b, t):
        a, b = walk(pred, a, b, t)
        walks.append((float(a[0]), float(b[0])))
        return a, b

    monkeypatch.setattr(_search, "bisect_many", spy)
    r = 0.3
    got, out, seen = _tie(r, lambda q: None, 0.5, None, tol,
                          undecided=lambda q: True)
    assert seen["probes"] == [0.5] and seen["certs"] == [] and out is None
    (a, b), = walks
    assert a < r <= b
    assert b - a <= tol or np.nextafter(a, b) == b
    assert got == 0.5 * (a + b)


def test_tie_undecided_midpoint_ends_the_steps():
    # a step out of the bracket gives way to the midpoint; a midpoint that
    # decides nothing leaves the bracket unchanged, so the next midpoint
    # would be the same point: the walk takes over instead
    r = 0.3
    got, out, seen = _tie(r, lambda q: -10.0, 0.5, None,
                          undecided=lambda q: True)
    assert seen["probes"] == [0.5, 0.5]
    assert out is None and abs(got - r) <= 0.5e-8


@pytest.mark.parametrize("k", [1.9, 2.5, 3.0, 10.0, -1.0])
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_tie_overshooting_steps_end_within_two_log2_probes(k, tol):
    # steps k times the distance to the flip overshoot it (or, for k < 0,
    # go away from it); refused steps give way to midpoints, each decided
    # read tightens the bracket, and the search ends within about
    # 2 log2(width / tol) probes, each in [held, failed)
    r = 0.3
    got, out, seen = _tie(r, lambda q: k * (q - r), 1.0, k * (1.0 - r), tol)
    assert len(seen["probes"]) <= 2.0 * math.log2(1.0 / tol)
    assert all(0.0 <= q < 1.0 for q in seen["probes"])
    assert abs(got - r) <= 0.5 * tol + 1e-16


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([1e-8, 1e-12, 0.0]))
def test_tie_probes_stay_in_the_bracket(r, seed, tol):
    # whatever the probes step by, and wherever they decide nothing, every
    # probe and certificate lies in [held, failed], and the answer lies
    # within tol / 2 of the flip
    rng = np.random.default_rng(seed)

    def step(q):
        kind = rng.integers(5)
        if kind == 0:
            return None
        if kind == 1:
            return float(rng.normal(0.0, 10.0))
        return float(rng.uniform(0.5, 3.0) * (q - r))

    got, out, seen = _tie(r, step, 1.0, float(step(1.0) or 0.5), tol,
                          undecided=lambda q: rng.random() < 0.3)
    assert all(0.0 <= q <= 1.0 for q in seen["probes"] + seen["certs"])
    assert abs(got - r) <= 0.5 * tol + 2.0 * math.ulp(r)


# -- the stop rule -------------------------------------------------------------

def test_every_search_ends_on_tol_or_float_floor(monkeypatch):
    # every bracket refined from the package stops on |b - a| <= tol or
    # where no float lies strictly inside it, on each search path: psi
    # roots, flat-band edges, H preimages, f' inverses, lifespans, a shock
    # track and the case-I ratio at tol 0.  A tie that its certificate
    # ends brackets its answer by the certificate's two reads, tol / 2 to
    # each side (or an ulp, far from the origin), so they lie tol apart to
    # the rounding of those two points
    seen, ties = [], []

    def recorded(search):
        def run(*args):
            a, b = search(*args)
            seen.append((args[-1], a.copy(), b.copy()))
            return a, b
        return run

    def recorded_tie(probe, pred, certify, *args):
        reads = []

        def certified(z):
            points, holds, out = certify(z)
            reads.append(points)
            return points, holds, out

        z, out = _search.tie(probe, pred, certified, *args)
        ties.append(z)
        if out is not None:
            (lo, hi), tol = reads[-1], args[-1]
            seen.append((tol + math.ulp(z), np.array([lo]), np.array([hi])))
        return z, out

    for mod, name in ((_search, "bisect_many"), (flux, "bisect_many"),
                      (vc, "bisect_many"), (vc, "secant_many")):
        monkeypatch.setattr(mod, name, recorded(getattr(mod, name)))
    for mod in (characteristics, shock_analysis):
        monkeypatch.setattr(mod, "tie", recorded_tie)
    b = flux.burgers()
    twin = flux.custom(b.eval, b.deriv, b.second)
    # 17 knots: every root of Burgers is closed-form there, and only
    # power2n(2)'s fan root at the knot x = 1 reaches a search
    us = np.random.default_rng(17).uniform(-1.0, 1.0, 15)
    sampled = idata.SampledData(np.linspace(-2.0, 2.0, 17),
                                np.concatenate([[0.0], us, [0.0]]))
    flat = idata.InitialData(
        [idata.Piece(-1.0, 1.0, "poly", {"coeffs": [0.0, -1.0]})],
        left_tail=1.0, right_tail=-1.0)
    sin_sa = ShockAnalyzer(Problem(b, idata.sin_wave()))
    gp = sin_sa.generation_point(0.0, 0.0)
    paths = {
        "sine": lambda: [(p.solve(0.4, 1.3), p.solve_grid(
            np.linspace(-3.0, 3.0, 32), 1.3)) for p in (
            Problem(b, idata.sin_wave()),
            Problem(flux.power2n(2), idata.sin_wave()))],
        "track": lambda: ShockAnalyzer(Problem(b, idata.step(1.0, 0.0))
                                       ).track_forward(0.0, 0.0, 0.5, 0.1),
        "custom fan": lambda: Problem(twin, idata.step(-1.0, 1.0)).solve(
            0.3, 1.0),
        "custom f' inverse": lambda: twin.invert_deriv(
            np.linspace(-1.5, 1.5, 7)),
        "sampled": lambda: [Problem(fl, sampled).solve_grid(
            np.linspace(-3.0, 3.0, 67), 0.4) for fl in (b, flux.power2n(2))],
        "flat band": lambda: Problem(b, flat).solve(0.0, 1.0),
        "lifespan": lambda: [CharacteristicAnalyzer(
            Problem(b, idata.sin_wave())).lifespan_exact(x0, -math.sin(x0))
            for x0 in (0.0, 1.6)],
        "case I": lambda: sin_sa.development_asymptotics(
            gp, {"gamma": 1.0, "sigma": 2.0, "Cbar_sigma_plus": 2.0,
                 "Cbar_sigma_minus": 1.0}),
    }
    for name, run in paths.items():
        seen.clear()
        ties.clear()
        run()
        assert seen, name
        assert bool(ties) == (name in ("track", "lifespan")), name
        for tol, lo, hi in seen:
            assert ((np.abs(hi - lo) <= tol)
                    | (np.nextafter(lo, hi) == hi)).all(), name
    # the case-I ratio bisects at tol 0, so only the float floor ends it
    assert [tol for tol, _, _ in seen] == [0.0]


def test_bisect_many_ends_within_tol_on_a_wide_bracket():
    # 67 halvings take [0, 1e8] below 1e-12, more than a 60-step cap gave
    a, b = bisect_many(lambda xs, _: xs < 1e-5, [0.0], [1e8], 1e-12)
    assert a[0] < 1e-5 <= b[0] and b[0] - a[0] <= 1e-12


# -- golden-section search ----------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_loop(f, a, b, tol):
    """Reference: golden sections of [a, b] on a scalar f, one at a time.

    Returns the final midpoint and the points of each round: two in the
    first round and one per round after.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    rounds = [[c, d]]
    fc, fd = f(c), f(d)
    while b - a > tol:
        width = b - a
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            rounds.append([c])
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            rounds.append([d])
        if b - a >= width:
            break
    return 0.5 * (a + b), rounds


def _golden_one(f, a, b, tol):
    """golden_many on the one bracket [a, b] of an array function f."""
    return golden_many(lambda xs, _: f(xs), [a], [b], tol)[0]


def test_golden_one_bracket_parabola():
    f, _ = _counted(lambda x: (x - 0.3) ** 2 + 1.0)
    assert _golden_one(f, -1.0, 2.0, 1e-12) == pytest.approx(0.3, abs=1e-7)


def test_golden_one_bracket_stops_far_from_origin():
    c = 1e4 + 0.3
    f, _ = _counted(lambda x: (x - c) ** 2)
    assert _golden_one(f, 1e4 - 1.0, 1e4 + 2.0, 1e-12) == pytest.approx(
        c, abs=1e-6)


def test_golden_many_matches_scalar_loop():
    # exact arithmetic only, so a point reads the same alone or in an array
    def unimodal(c):
        return lambda x: (x - c) ** 2

    def multimodal(c):
        return lambda x: np.floor((x - c) * 7.3) % 3 + 1e-3 * (x - c) ** 2

    def double_well(c):
        return lambda x: ((x - c) ** 2 - 0.25) ** 2 + 0.01 * x

    makes = (unimodal, multimodal, double_well)
    rng = np.random.default_rng(89)
    base = 1e4
    ulp = float(np.spacing(base))
    for trial in range(12):
        m = int(rng.integers(1, 10))
        a = rng.uniform(-5.0, 5.0, m)
        b = a + 10.0 ** rng.uniform(-6.0, 1.0, m)
        fs = [makes[int(rng.integers(3))](float(rng.uniform(x, y)))
              for x, y in zip(a, b)]
        tol = float(10.0 ** rng.uniform(-13.0, -4.0))
        if trial % 2:
            # a bracket a few ulps wide near 1e4: tol is below the float
            # spacing there, so only the float-floor stop can end it,
            # while the other brackets of the call stop on tol
            a = np.append(a, base)
            b = np.append(b, base + 5 * ulp)
            fs.append(unimodal(base + 2.3 * ulp))
            tol = min(tol, 0.5 * ulp)
        calls = []
        seen = [[] for _ in fs]     # each bracket's points, call by call

        def f(xs, owner):
            assert len(calls) <= 1000, "search did not terminate"
            calls.append(len(xs))
            out = np.empty(len(xs))
            for i in set(owner.tolist()):
                sel = owner == i
                out[sel] = fs[i](xs[sel])
                seen[i].append(xs[sel].tolist())
            return out

        got = golden_many(f, a, b, tol)
        assert got.shape == (len(fs),)
        for i, fi in enumerate(fs):
            ref, rounds = _golden_loop(fi, float(a[i]), float(b[i]), tol)
            assert got[i].tobytes() == np.float64(ref).tobytes()
            # the very points of the loop, two in the first call, one in
            # each call after
            assert seen[i] == rounds
        assert len(calls) == max(len(r) for r in seen)
        if trial % 2:
            assert base <= got[-1] <= base + 5 * ulp


def test_golden_many_every_bracket_stops_at_once():
    # brackets of one width under one unimodal shape stop in the same
    # round; each is the scalar loop's midpoint, bit for bit
    cs = [0.1, 0.37, 0.5, 0.93]
    fs = [(lambda c: (lambda x: (x - c) ** 2))(c) for c in cs]
    a = np.array([0.0, 0.25, -1.0, 0.5])
    b = a + 1.0
    calls = []

    def f(xs, owner):
        calls.append(len(xs))
        out = np.empty(len(xs))
        for i in set(owner.tolist()):
            sel = owner == i
            out[sel] = fs[i](xs[sel])
        return out

    got = golden_many(f, a, b, 1e-9)
    rounds = set()
    for i, fi in enumerate(fs):
        ref, r = _golden_loop(fi, float(a[i]), float(b[i]), 1e-9)
        assert got[i].tobytes() == np.float64(ref).tobytes()
        rounds.add(len(r))
    assert len(rounds) == 1 and len(calls) == rounds.pop()
    assert calls[1:] == [len(fs)] * (len(calls) - 1)


def test_golden_many_no_brackets():
    def f(xs, owner):
        raise AssertionError("called without brackets")

    got = golden_many(f, np.empty(0), np.empty(0), 1e-12)
    assert got.shape == (0,)
