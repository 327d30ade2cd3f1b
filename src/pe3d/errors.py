"""Exception types shared across the package."""


class Pe3dError(Exception):
    """Base class for all package errors."""


class ConfigError(Pe3dError):
    """Config file could not be parsed or is missing required data."""


class InvariantError(Pe3dError):
    """A named model constraint was violated.

    The message starts with the constraint itself (e.g. ``delta_z > 0``)
    so callers and tests can match on it.
    """

    def __init__(self, constraint, detail=""):
        self.constraint = constraint
        msg = constraint if not detail else f"{constraint}: {detail}"
        super().__init__(msg)


class DomainError(Pe3dError):
    """An operand is outside the mathematical domain of an operation."""


class ShapeError(Pe3dError):
    """Array arguments have inconsistent lengths or shapes."""


class SingularSystemError(Pe3dError):
    """A direct solve hit a zero or near-zero pivot.

    ``pivot_index`` is the elimination row.
    """

    def __init__(self, pivot_index, detail=""):
        self.pivot_index = pivot_index
        self.detail = detail
        msg = f"singular system: pivot {pivot_index}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class StepError(Pe3dError):
    """A range step failed; carries the range index and the sweep, which
    is None for a field found not finite after the step."""

    def __init__(self, range_index, sweep, cause=None):
        self.range_index = range_index
        self.sweep = sweep
        self.cause = cause
        where = f" in {sweep} sweep" if sweep is not None else ""
        super().__init__(f"range step {range_index} failed{where}: {cause}")
