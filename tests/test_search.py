import numpy as np
import pytest

from laxo import flux, initial_data as idata
from laxo._search import bisect, golden_min, runs
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


def test_bisect_too_narrow_to_split():
    a0 = 1e4
    b0 = np.nextafter(a0, np.inf)        # 1.8e-12 apart: above tol
    pred, calls = _counted(lambda x: True)
    assert bisect(pred, a0, b0, 1e-12) == (a0, b0)
    assert calls == []


def test_bisect_stops_at_tol_and_maxiter():
    pred, calls = _counted(lambda x: True)
    assert bisect(pred, 0.0, 1e-13, 1e-12) == (0.0, 1e-13)
    assert calls == []
    bisect(pred, 0.0, 1.0, 0.0, maxiter=7)
    assert len(calls) == 7


def test_bisect_float_floor_far_from_origin():
    # the bracket stalls one ulp wide, above tol, and must still stop
    pred, _ = _counted(lambda x: x < 1e4 + 0.25)
    a, b = bisect(pred, 1e4, 1e4 + 1.0, 1e-12)
    assert a < 1e4 + 0.25 <= b
    assert b == np.nextafter(a, np.inf)


# -- golden_min ---------------------------------------------------------------

def test_golden_min_parabola():
    f, _ = _counted(lambda x: (x - 0.3) ** 2 + 1.0)
    assert golden_min(f, -1.0, 2.0, 1e-12) == pytest.approx(0.3, abs=1e-7)


def test_golden_min_stops_far_from_origin():
    c = 1e4 + 0.3
    f, _ = _counted(lambda x: (x - c) ** 2)
    assert golden_min(f, 1e4 - 1.0, 1e4 + 2.0, 1e-12) == pytest.approx(
        c, abs=1e-6)
