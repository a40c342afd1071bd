"""Exception hierarchy shared by all solver modules."""


class HJError(Exception):
    """Base class for all hj-neumann errors."""


class ConfigError(HJError):
    """A field expression string that fails to parse or uses a name or construct
    outside the allowed set."""


class NumericalError(HJError):
    """A numerical procedure failed (non-convergence, bracket failure, CFL violation)."""


class GeometryError(NumericalError):
    """Degenerate domain or failed boundary projection."""


class RadiusError(NumericalError):
    """A conjugate maximizer sat on the search-lattice edge; the sup is not certified."""


class CFLError(NumericalError):
    """Requested time step exceeds the monotonicity bound."""

    def __init__(self, dt: float, dt_max: float):
        super().__init__(f"dt={dt:g} violates the CFL bound; admissible dt <= {dt_max:g}")
        self.dt = dt
        self.dt_max = dt_max


class ConvergenceError(NumericalError):
    """Iteration cap reached before the tolerance; carries the residual history."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ObliquenessError(NumericalError):
    """The boundary model violates the obliqueness lower bound numerically."""


class NormalizationError(NumericalError):
    """Quantities that require the additive eigenvalue normalized to zero diverged."""
