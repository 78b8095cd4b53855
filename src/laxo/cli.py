"""Command-line surface: CSV/JSON artifacts for plotting and CI.

Every command takes a problem file, a JSON object with a flux descriptor,
a data descriptor and optional tolerance overrides.  Exit codes: 0 on
success, 2 on parse errors, 3 on numerical sentinels; errors go to stderr
as single-line JSON.
"""

import functools
import json
import math
import sys

import click
import numpy as np

from . import flux as _flux
from . import initial_data as _idata
from .characteristics import CharacteristicAnalyzer
from .errors import LaxoError
from .global_structure import GlobalStructure
from .reference_oracle import FvGrid, compare as _compare
from .shock_analysis import ShockAnalyzer
from .variational_core import Problem


def _fmt(v):
    if isinstance(v, float) and not np.isfinite(v):
        return repr(v)
    return f"{v:.17g}"


def _fail(code, err):
    payload = {"error": type(err).__name__, "message": str(err)}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


def load_problem(path):
    try:
        with open(path) as fh:
            desc = json.load(fh)
        fl = _flux.from_descriptor(desc["flux"])
        data = _idata.from_descriptor(desc["data"])
        tols = desc.get("tolerances", {})
        if not isinstance(tols, dict):
            raise ValueError("tolerances must be an object")
        return Problem(fl, data, **tols)
    except (OSError, KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
        _fail(2, e)


def _parse_range(text):
    lo, hi = (float(v) for v in text.split(":"))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("range ends must be finite")
    return lo, hi


def _numerics(fn):
    @functools.wraps(fn)
    def wrapped(*a, **kw):
        try:
            # an overflow or invalid operation is a numerical sentinel, not
            # a warning line on stderr
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(*a, **kw)
        except (LaxoError, FloatingPointError) as e:
            _fail(3, e)
        except ValueError as e:
            _fail(2, e)
    return wrapped


class _Group(click.Group):
    def invoke(self, ctx):
        """Run a subcommand; a usage error exits 2 with one JSON line."""
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            _fail(2, ValueError(e.format_message()))


@click.group(cls=_Group)
def main():
    """Meshless solver for 1-D scalar conservation laws."""


@main.command()
@click.argument("problem_file")
@click.option("--t", type=float, required=True)
@click.option("--x-range", required=True, help="lo:hi")
@click.option("--n", type=int, default=101)
@_numerics
def solve(problem_file, t, x_range, n):
    """Sample u(x, t) on a uniform grid: CSV rows x,u_minus,u_plus."""
    p = load_problem(problem_file)
    lo, hi = _parse_range(x_range)
    sols = p.solve_grid(np.linspace(lo, hi, n), t)
    click.echo("x,u_minus,u_plus")
    for s in sols:
        click.echo(f"{_fmt(s.x)},{_fmt(s.u_minus)},{_fmt(s.u_plus)}")


@main.command()
@click.argument("problem_file")
@click.option("--x0", type=float, required=True)
@_numerics
def classify(problem_file, x0):
    """Initial-wave class and generation spectrum at x0, as JSON."""
    p = load_problem(problem_file)
    ca = CharacteristicAnalyzer(p)
    sp = ca.char_spectrum(x0)
    out = {
        "x0": x0,
        "wave_class": ca.classify_initial_wave(x0),
        "spectrum": {"kind": sp.kind, "a": sp.a, "b": sp.b,
                     "includes_a": sp.includes_a,
                     "includes_b": sp.includes_b},
        "lifespans": None,
    }
    if sp.kind == "singleton":
        ls = ca.lifespans(x0, sp.a)
        out["lifespans"] = {
            "t_p_minus": _inf_str(ls.t_p_minus),
            "t_p_plus": _inf_str(ls.t_p_plus),
            "t_p": _inf_str(ls.t_p),
            "t_star": _inf_str(ls.t_star),
        }
    click.echo(json.dumps(out, sort_keys=True))


def _inf_str(v):
    return "inf" if not np.isfinite(v) else v


@main.command()
@click.argument("problem_file")
@click.option("--seed", required=True, help="x0 or x0,t0")
@click.option("--t-end", type=float, required=True)
@click.option("--dt", type=float, default=1e-2)
@_numerics
def shock(problem_file, seed, t_end, dt):
    """Track a shock curve forward: CSV rows t,x,u_minus,u_plus,speed."""
    p = load_problem(problem_file)
    x0, *t0 = (float(v) for v in seed.split(","))
    if len(t0) > 1:
        raise ValueError(f"--seed takes x0 or x0,t0, not {seed!r}")
    curve = ShockAnalyzer(p).track_forward(x0, t0[0] if t0 else dt, t_end,
                                           dt)
    click.echo("t,x,u_minus,u_plus,speed")
    for nd in curve.nodes:
        click.echo(f"{_fmt(nd.t)},{_fmt(nd.x)},{_fmt(nd.u_minus)},"
                   f"{_fmt(nd.u_plus)},{_fmt(nd.speed_right)}")


@main.command()
@click.argument("problem_file")
@click.option("--window", type=float, default=None,
              help="half-width of the hull grid")
@_numerics
def divides(problem_file, window):
    """Convex envelope of the primitive and its contact set, as JSON."""
    p = load_problem(problem_file)
    h = GlobalStructure(p).convex_hull(N=window)
    out = {
        "finite": h.finite,
        "periodic": h.period is not None,
        "slope_left": h.slope_left,
        "slope_right": h.slope_right,
        "k0": [[lo, hi] for lo, hi in h.K0],
        "left_unbounded": bool(h.left_unbounded),
        "right_unbounded": bool(h.right_unbounded),
    }
    click.echo(json.dumps(out, sort_keys=True))


@main.command()
@click.argument("problem_file")
@click.option("--t", type=float, required=True)
@click.option("--x-range", required=True, help="lo:hi")
@click.option("--n", type=int, default=101)
@click.option("--kind", type=click.Choice(["utilde", "nwave"]),
              default="utilde")
@_numerics
def profile(problem_file, t, x_range, n, kind):
    """Asymptotic profile values: CSV rows x,value."""
    p = load_problem(problem_file)
    gs = GlobalStructure(p)
    lo, hi = _parse_range(x_range)
    xs = np.linspace(lo, hi, n)
    # every value before the first line, so a failed run prints none; an
    # empty grid reads no hull, as no point is asked for
    vals = ((gs._profile if kind == "utilde" else gs._nwave)(xs, t).tolist()
            if n else [])
    click.echo("x,value")
    for x, v in zip(xs.tolist(), vals):
        click.echo(f"{_fmt(x)},{_fmt(v)}")


@main.command()
@click.argument("problem_file")
@click.option("--norm", type=click.Choice(["sup", "l1", "l2"]), default="sup")
@click.option("--t-list", required=True, help="comma-separated times")
@click.option("--x-range", required=True, help="lo:hi")
@_numerics
def decay(problem_file, norm, t_list, x_range):
    """Decay of u toward the asymptotic profile: CSV plus a fit line."""
    p = load_problem(problem_file)
    gs = GlobalStructure(p)
    lo, hi = _parse_range(x_range)
    ts = [float(s) for s in t_list.split(",")]
    e, c, series = gs.measure_decay(norm, (lo, hi), ts)
    click.echo("t,value")
    for t, v in series:
        click.echo(f"{_fmt(t)},{_fmt(v)}")
    click.echo(json.dumps({"exponent": e, "constant": c}, sort_keys=True))


@main.command()
@click.argument("problem_file")
@click.option("--t", type=float, required=True)
@click.option("--n-cells", type=int, default=400)
@click.option("--x-range", required=True, help="lo:hi")
@_numerics
def compare(problem_file, t, n_cells, x_range):
    """Cross-check against the finite-volume oracle, JSON metrics."""
    p = load_problem(problem_file)
    lo, hi = _parse_range(x_range)
    boundary = "periodic" if p.data.period is not None else "constant"
    grid = FvGrid(lo, hi, n_cells, boundary=boundary)
    r = _compare(p, t, grid)
    out = {k: (None if isinstance(v, float) and np.isnan(v) else v)
           for k, v in r.items()}
    click.echo(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
