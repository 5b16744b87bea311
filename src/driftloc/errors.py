"""Exception types shared across the package."""


class DriftlocError(Exception):
    """Base class for all package-specific errors."""


class CellIndexError(DriftlocError, IndexError):
    """A cell index or (row, col) pair lies outside the grid."""


class LandCellError(DriftlocError, ValueError):
    """An operation that requires a water cell was given a land cell."""


class NonAdjacentCellsError(DriftlocError, ValueError):
    """direction_between was asked about cells that are not Moore-adjacent."""


class ZeroProbabilityError(DriftlocError, ValueError):
    """The observation history has probability zero under the model.

    ``step`` is the 1-based index of the first observation that cannot be
    emitted from any state still reachable at that point.  ``run`` is the
    index of the infeasible history among those decoded together (0 for one
    history); ``run_experiment`` sets it to the run's index in its condition.
    """

    def __init__(self, step, message=None, run=0):
        self.step = step
        self.run = run
        super().__init__(message or f"observation history infeasible at step {step}")


class FieldParseError(DriftlocError, ValueError):
    """A field file failed to parse. ``line`` is the 1-based offending line."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ConfigError(DriftlocError, ValueError):
    """An experiment configuration failed validation."""
