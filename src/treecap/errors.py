"""Exception types shared across the package."""


class TreecapError(Exception):
    """Base class for all library errors."""


class ResolutionError(TreecapError):
    """A construction would exceed the configured maximum trie resolution."""


class ToleranceError(TreecapError):
    """A construction could not reach the requested tolerance.

    ``bracket`` says how close it got.  From the cut search it is the window
    ``(lo, hi)`` of subtree capacities at the deepest cut vertex that would
    have put the root within tolerance; the root-split fallback passes on the
    plain search's window.  A final capacity check gives ``(None, capacity)``
    and the equal-split assembly ``(capacity, target)``.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class DegenerateSetError(TreecapError):
    """An operation that needs positive capacity was given a null set."""


class CalibrationError(TreecapError):
    """A random set could not be calibrated to the requested capacity."""


class MisalignedArcError(TreecapError):
    """Plate arcs do not tile whole angular cells of the solver grid."""


class ConvergenceError(TreecapError):
    """The iterative solver stopped before reaching its residual target."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SetSpecError(TreecapError):
    """A textual set specification could not be parsed."""
