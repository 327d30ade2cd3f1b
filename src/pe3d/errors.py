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

    ``pivot_index`` is the elimination row, ``member_index`` the position
    of the offending system inside a batch (0 for scalar solves).
    """

    def __init__(self, pivot_index, member_index=0, detail=""):
        self.pivot_index = pivot_index
        self.member_index = member_index
        self.detail = detail
        msg = f"singular system: pivot {pivot_index}, batch member {member_index}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class StepError(Pe3dError):
    """A range step failed; carries the step index and sweep location."""

    def __init__(self, range_index, sweep, member_index, cause=None):
        self.range_index = range_index
        self.sweep = sweep
        self.member_index = member_index
        self.cause = cause
        super().__init__(
            f"range step {range_index} failed in {sweep} sweep at index "
            f"{member_index}: {cause}"
        )
