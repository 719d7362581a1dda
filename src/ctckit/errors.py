"""Exception types shared across the toolkit, and `writing`, which turns a
failed write into InvalidInputError.

The CLI maps these onto exit codes: InvalidInputError exits 1 and
CapacityError exits 2. An infeasible CTC target is not an error: the losses
tag it in their result, and training skips and counts the sample.
"""

from contextlib import contextmanager


class CtcKitError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(CtcKitError):
    """Malformed or inconsistent caller input (shapes, ranges, formats)."""


class CapacityError(CtcKitError):
    """An exhaustive oracle was asked to enumerate beyond its size cap."""


@contextmanager
def writing(what: str, path):
    """Turn an OSError raised while writing ``path`` into an
    InvalidInputError that names it."""
    try:
        yield
    except OSError as exc:
        raise InvalidInputError(f"cannot write {what} {path}: {exc}") from exc
