"""Exception types shared across the toolkit, the file guards `writing` and
`reading`, and the npz container that checkpoints and datasets share.

The CLI maps these onto exit codes: InvalidInputError exits 1 and
CapacityError exits 2. An infeasible CTC target is not an error: the losses
tag it in their result, and training skips and counts the sample. Every
reader runs under `reading`, so an unreadable file exits 1 with one line.
"""

import json
import zipfile
import zlib
from contextlib import contextmanager

import numpy as np

# npz key of the JSON metadata stored beside the arrays
META_KEY = "config_json"


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


@contextmanager
def reading(what: str, path):
    """Turn a failure to open or decode ``path`` into an InvalidInputError
    that names it. The toolkit's own errors pass through unchanged."""
    try:
        yield
    except (
        OSError,
        ValueError,  # includes UnicodeDecodeError and JSONDecodeError
        KeyError,
        TypeError,
        EOFError,
        zipfile.BadZipFile,
        zlib.error,
        RuntimeError,  # zipfile: an encrypted or unsupported member
    ) as exc:
        reason = str(exc) or type(exc).__name__
        raise InvalidInputError(f"cannot read {what} {path}: {reason}") from exc


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write named arrays plus JSON metadata to one compressed npz file at
    exactly ``path``. Zip stores a CRC-32 of every member."""
    if META_KEY in arrays:
        raise InvalidInputError(f"array name {META_KEY!r} is reserved")
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload = {**arrays, META_KEY: np.frombuffer(blob, dtype=np.uint8)}
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **payload)


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read what `save_arrays` wrote. Pickled objects are refused; a damaged
    member fails its CRC check. Run it under `reading`."""
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays.pop(META_KEY)).decode("utf-8"))
    if not isinstance(meta, dict):
        raise ValueError("metadata is not a JSON object")
    return arrays, meta
