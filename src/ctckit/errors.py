"""Exception types shared across the toolkit, and `writing`, which turns a
failed write into InvalidInputError.

The CLI maps these onto exit codes: InvalidInputError exits 1, while
CapacityError and InfeasibleTargetError exit 2.
"""

from contextlib import contextmanager


class CtcKitError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(CtcKitError):
    """Malformed or inconsistent caller input (shapes, ranges, formats)."""


class CapacityError(CtcKitError):
    """An exhaustive oracle was asked to enumerate beyond its size cap."""


class InfeasibleTargetError(CtcKitError):
    """The target sequence admits no alignment at the given frame count."""


@contextmanager
def writing(what: str, path):
    """Turn an OSError raised while writing ``path`` into an
    InvalidInputError that names it."""
    try:
        yield
    except OSError as exc:
        raise InvalidInputError(f"cannot write {what} {path}: {exc}") from exc
