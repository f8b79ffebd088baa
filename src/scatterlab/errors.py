"""Exception hierarchy shared across the package."""


class ScatterError(Exception):
    """Base class for all package errors."""


class GridError(ScatterError):
    """Invalid grid construction or grid/operator mismatch."""


class ClusterError(ScatterError):
    """Cluster decomposition used outside its valid scope."""


class PotentialError(ScatterError):
    """Potential family misuse or insufficient decay at the box boundary."""


class SolverError(ScatterError):
    """Eigensolver failed to converge; carries the best residual seen."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class SpectralWindowError(ScatterError):
    """Energy window not representable on the grid operator."""


class BoundaryConcentrationError(ScatterError):
    """State carries too much mass near the box boundary for X-weighted operators."""

    def __init__(self, message, boundary_mass=None):
        super().__init__(message)
        self.boundary_mass = boundary_mass


class BoundaryBreachError(ScatterError):
    """Propagation run aborted: mass reached the box boundary.

    Carries the partial traces accumulated up to the abort time.
    """

    def __init__(self, message, time=None, partial_traces=None):
        super().__init__(message)
        self.time = time
        self.partial_traces = partial_traces


class ChecksSkippedError(ScatterError):
    """Acceptance checks were skipped because their preconditions failed."""


class HypothesisError(ScatterError):
    """A dynamical estimate was requested outside its hypotheses."""


class QuadratureError(ScatterError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ConfigError(ScatterError):
    """Experiment configuration failed validation."""
