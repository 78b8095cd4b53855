"""Exception types shared across the package."""


class LaxoError(Exception):
    """Base class for all package-specific errors."""


class BracketError(LaxoError):
    """Requested value lies outside the image of f' on the given bracket."""


class FitError(LaxoError):
    """A local power-law fit is undefined or degenerate on its window."""


class ConditionFailed(LaxoError):
    """The shock-formation uniqueness condition fails at the candidate point."""


class RootNotBracketed(LaxoError):
    """The scalar root equation has no sign change on the search bracket."""


class LostCurve(LaxoError):
    """Shock tracking found no jump inside the per-step search window."""


class HullInfinite(LaxoError):
    """The global convex hull is identically -infinity (no divides exist)."""


class NoDivides(LaxoError):
    """The divide set is empty; no region partition is available."""


class CflViolation(LaxoError):
    """A finite-volume step was requested with dt above the CFL bound."""
