"""Shared exception types.

The CLI maps these onto exit codes: usage problems exit 1, calibration
failures exit 2, detected invariant violations exit 3.
"""


class CompoundUQError(Exception):
    """Base class for all toolkit errors."""


class InputError(CompoundUQError, ValueError):
    """Input outside its declared domain (bad action, shape, condition, parameter or document)."""


class LifecycleError(CompoundUQError, RuntimeError):
    """Operation called in a state that forbids it (step after terminal, update after freeze)."""


class CalibrationError(CompoundUQError, RuntimeError):
    """Calibration could not be performed (buffer too small, no separating gap)."""


class InvariantViolation(CompoundUQError, RuntimeError):
    """A declared invariant was found broken at runtime."""
