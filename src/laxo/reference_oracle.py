"""First-order Godunov finite-volume solver for cross-validation.

Independent of the variational machinery: a conservative update with the
exact Riemann flux for convex f, F(uL, uR) = min f on [uL, uR] when
uL <= uR and max f on [uR, uL] otherwise.  Used only on small instances
to sanity-check the closed-form solver.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BracketError, CflViolation

# most time steps one ``advance`` may take; a grid far finer than any
# check needs (an x range of 1e-300, say) would otherwise step for ever
MAX_STEPS = 100_000
# the Courant number of every step
CFL = 0.9


@dataclass(frozen=True)
class FvGrid:
    x_lo: float
    x_hi: float
    n_cells: int
    boundary: str = "constant"    # constant | periodic

    def __post_init__(self):
        if not float(self.n_cells).is_integer():
            raise ValueError("n_cells must be an integer")
        if self.n_cells < 4:
            raise ValueError("need at least 4 cells")
        if not self.x_lo < self.x_hi:     # written so that NaN fails
            raise ValueError("need x_lo < x_hi")
        if self.boundary not in ("constant", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def dx(self):
        return (self.x_hi - self.x_lo) / self.n_cells

    def centers(self):
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.dx


class GodunovSolver:
    """Explicit first-order scheme on a fixed grid."""

    def __init__(self, flux, data, grid):
        self.flux = flux
        self.data = data
        self.grid = grid
        self.u = np.asarray(data.phi(grid.centers()), dtype=float)
        self.t = 0.0
        try:
            c = flux.invert_deriv(0.0, (-data.bound - 1.0, data.bound + 1.0))
            self._sonic = float(c)
            self._f_sonic = flux.eval(self._sonic)
        except BracketError:
            self._sonic = None    # f monotone on the data range

    def _interface_flux(self, pad, fp):
        """The Godunov flux at every interface: pad is the state with one
        ghost cell at each end, fp = f(pad); interface i lies between
        pad[i] and pad[i + 1]."""
        ul, ur, fl, fr = pad[:-1], pad[1:], fp[:-1], fp[1:]
        lo = np.minimum(fl, fr)
        if self._sonic is not None:
            s = self._sonic
            lo = np.where((ul <= s) & (s <= ur), self._f_sonic, lo)
        return np.where(ul <= ur, lo, np.maximum(fl, fr))

    def max_speed(self):
        return float(np.max(np.abs(self.flux.deriv(self.u))))

    def step(self, dt):
        """One step of dt; raises CflViolation past the CFL limit of the
        present speed."""
        a = self.max_speed()
        if a > 0 and dt > CFL * self.grid.dx / a + 1e-15:
            raise CflViolation(
                f"dt={dt:g} exceeds cfl limit {CFL * self.grid.dx / a:g}")
        self._step(dt)

    def _step(self, dt):
        """One step of dt, which the caller has checked: f is evaluated
        once, on the state padded by its ghost cells."""
        u = self.u
        if self.grid.boundary == "periodic":
            pad = np.concatenate([u[-1:], u, u[:1]])
        else:
            pad = np.concatenate([u[:1], u, u[-1:]])
        F = self._interface_flux(pad, self.flux.eval(pad))
        self.u = u - dt / self.grid.dx * (F[1:] - F[:-1])
        self.t += dt

    def advance(self, t_end):
        """Step to t_end, each step of the CFL limit of the present speed,
        read once per step.  Raises ValueError, before any step, when the
        present speed would take more than ``MAX_STEPS`` steps there."""
        g = self.grid
        if not (t_end - self.t) * self.max_speed() <= MAX_STEPS * CFL * g.dx:
            raise ValueError(f"t={t_end:g} is more than {MAX_STEPS} time "
                             f"steps away on this grid")
        while self.t < t_end - 1e-14:
            a = self.max_speed()
            dt = CFL * g.dx / a if a > 0 else t_end - self.t
            self._step(min(dt, t_end - self.t))
        return self.u

    def mass(self):
        return float(np.sum(self.u) * self.grid.dx)


def _detect_jump(xs, us):
    """Location of the steepest downward step of at least 1e-2, or None."""
    d = np.diff(us)
    i = int(np.argmin(d))
    if d[i] > -1e-2:
        return None
    return 0.5 * (xs[i] + xs[i + 1])


def compare(problem, t, grid):
    """Godunov vs variational solve at time t on the given grid.

    Returns {"l1", "linf_smooth", "shock_offset"}; the L-infinity norm
    excludes a 3*dx buffer around each exact shock and shock_offset is nan
    when either side detects no jump.
    """
    solver = GodunovSolver(problem.flux, problem.data, grid)
    solver.advance(t)
    xs = grid.centers()
    exact = np.array(problem._u_minus_plus(xs, t)[1])
    diff = np.abs(solver.u - exact)
    l1 = float(np.sum(diff) * grid.dx)
    x_ex = _detect_jump(xs, exact)
    mask = np.ones_like(xs, dtype=bool)
    if x_ex is not None:
        mask &= np.abs(xs - x_ex) > 3.0 * grid.dx
    linf_smooth = float(np.max(diff[mask])) if np.any(mask) else 0.0
    x_num = _detect_jump(xs, solver.u)
    if x_num is None or x_ex is None:
        offset = np.nan
    else:
        offset = abs(x_num - x_ex)
    return {"l1": l1, "linf_smooth": linf_smooth, "shock_offset": offset}
