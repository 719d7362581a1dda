"""Core alignment-lattice types: vocabulary, label sequences, per-frame
probability lattices, the collapse map, and the text serialization used by
the CLI.

Layout convention: the blank symbol occupies column 0 of every lattice, so a
vocabulary of N tokens yields lattices with N + 1 columns. Label sequences
index the vocabulary (blank excluded); alignment paths index lattice columns.
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, InvalidInputError, writing
from .logspace import LOG_ZERO, log_of

ROW_SUM_TOL = 1e-9

BLANK = 0


@dataclass(frozen=True)
class Vocabulary:
    """Ordered inventory of non-blank tokens.

    The blank is not listed in ``tokens``; it is implicit and always occupies
    lattice column 0. Token i of the vocabulary occupies lattice column i + 1.
    """

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        tokens = tuple(str(t) for t in self.tokens)
        if len(set(tokens)) != len(tokens):
            raise InvalidInputError("vocabulary tokens must be distinct")
        if any(t == "" for t in tokens):
            raise InvalidInputError("vocabulary tokens must be non-empty")
        object.__setattr__(self, "tokens", tokens)

    @classmethod
    def generic(cls, size: int) -> "Vocabulary":
        """Vocabulary with placeholder token names t0..t{size-1}."""
        if size < 1:
            raise InvalidInputError("vocabulary size must be >= 1")
        return cls(tuple(f"t{i}" for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def extended_size(self) -> int:
        """Number of lattice columns: tokens plus the blank."""
        return len(self.tokens) + 1

    def lattice_index(self, label: int) -> int:
        """Lattice column of vocabulary token ``label``."""
        if not 0 <= label < self.size:
            raise InvalidInputError(f"label {label} outside vocabulary")
        return label + 1

    def token_of(self, label: int) -> str:
        if not 0 <= label < self.size:
            raise InvalidInputError(f"label {label} outside vocabulary")
        return self.tokens[label]


@dataclass(frozen=True)
class LabelSequence:
    """Target sequence of vocabulary indices; never contains the blank."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = tuple(int(v) for v in self.labels)
        if any(v < 0 for v in labels):
            raise InvalidInputError("labels must be non-negative")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def validate_against(self, vocab: Vocabulary) -> None:
        for v in self.labels:
            if v >= vocab.size:
                raise InvalidInputError(
                    f"label {v} outside vocabulary of size {vocab.size}"
                )

    def adjacent_repeats(self) -> int:
        """Number of positions where a label equals its predecessor."""
        return sum(
            1 for a, b in zip(self.labels, self.labels[1:]) if a == b
        )

    def min_frames(self) -> int:
        """Fewest frames any alignment of this sequence can occupy.

        Adjacent repeated labels force a separating blank, so the minimum is
        the length plus the number of adjacent repeats.
        """
        return len(self.labels) + self.adjacent_repeats()


@dataclass(frozen=True)
class Alignment:
    """Frame-level path of lattice column indices (blank included)."""

    path: tuple[int, ...]

    def __post_init__(self) -> None:
        path = tuple(int(v) for v in self.path)
        if any(v < 0 for v in path):
            raise InvalidInputError("alignment entries must be non-negative")
        object.__setattr__(self, "path", path)

    def __len__(self) -> int:
        return len(self.path)

    def __iter__(self):
        return iter(self.path)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def _check_lattice_shape(values: np.ndarray, what: str) -> None:
    if values.ndim != 2:
        raise InvalidInputError(f"{what} must be 2-dimensional")
    if values.shape[0] < 1 or values.shape[1] < 2:
        raise InvalidInputError(
            f"{what} needs at least 1 frame and 2 columns (blank + 1 token)"
        )


def _check_rows(probs: np.ndarray) -> None:
    if np.any(probs < 0.0) or np.any(probs > 1.0 + 1e-12):
        raise InvalidInputError("probabilities must lie in [0, 1]")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        worst = float(np.abs(sums - 1.0).max())
        raise InvalidInputError(
            f"rows must sum to 1 within {ROW_SUM_TOL}; worst |err| = {worst:g}"
        )


@dataclass(frozen=True)
class LogitLattice:
    """Unnormalized per-frame scores, one row per frame, blank in column 0."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        _check_lattice_shape(values, "logit lattice")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("logit lattice entries must be finite")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def extended_size(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DistributionLattice:
    """Per-frame probability distributions over blank + tokens.

    Both linear and log forms are stored; zeros are legal (one-hot rows,
    hand-written files) and carry LOG_ZERO in the log form. Rows must sum
    to 1 within ROW_SUM_TOL; ``from_probs`` and ``from_log_probs`` check
    that, while the constructor trusts its caller (``softmax_rows``) and
    only freezes both forms.
    """

    probs: np.ndarray
    log_probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _freeze(self.probs))
        object.__setattr__(self, "log_probs", _freeze(self.log_probs))

    @classmethod
    def from_probs(cls, probs: np.ndarray) -> "DistributionLattice":
        probs = np.asarray(probs, dtype=np.float64)
        _check_lattice_shape(probs, "distribution lattice")
        _check_rows(probs)
        return cls(probs, log_of(probs))

    @classmethod
    def from_log_probs(
        cls, log_probs: np.ndarray, *, normalize: bool = False
    ) -> "DistributionLattice":
        """Build from log probabilities.

        With ``normalize`` each row is shifted by its log-sum-exp first, so
        any finite rows become valid distributions (used when reading
        hand-written lattice files).
        """
        logp = np.array(log_probs, dtype=np.float64, copy=True)
        _check_lattice_shape(logp, "distribution lattice")
        if np.any(np.isnan(logp)) or np.any(logp == np.inf):
            raise InvalidInputError("log probabilities must be < +inf and not NaN")
        logp[logp == -np.inf] = LOG_ZERO
        if normalize:
            m = logp.max(axis=1, keepdims=True)
            if np.any(m <= LOG_ZERO):
                raise InvalidInputError("a row has no probability mass")
            logp = logp - (m + np.log(np.exp(logp - m).sum(axis=1, keepdims=True)))
            logp[logp < LOG_ZERO] = LOG_ZERO
        probs = np.exp(logp)
        _check_rows(probs)
        return cls(probs, logp)

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]

    @property
    def extended_size(self) -> int:
        return self.probs.shape[1]


def softmax_rows(logits: LogitLattice) -> DistributionLattice:
    """Row-wise softmax of a logit lattice, computed via the stable
    max-shifted form so extreme logits cannot overflow."""
    v = logits.values
    shifted = v - v.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    return DistributionLattice(np.exp(logp), logp)


def collapse(path: Alignment | Sequence[int], vocab: Vocabulary) -> LabelSequence:
    """Collapse an alignment: merge consecutive repeats, then drop blanks.

    Returns vocabulary indices. The output never contains the blank and its
    length never exceeds the path length.
    """
    out: list[int] = []
    prev = -1
    for idx in path:
        idx = int(idx)
        if not 0 <= idx < vocab.extended_size:
            raise InvalidInputError(f"path entry {idx} outside lattice columns")
        if idx != prev and idx != BLANK:
            out.append(idx - 1)
        prev = idx
    return LabelSequence(tuple(out))


def inverse_collapse_count(
    num_frames: int,
    y: LabelSequence,
    vocab: Vocabulary,
    *,
    max_frames: int = 8,
    max_extended: int = 4,
) -> int:
    """Count alignment paths of length ``num_frames`` that collapse to ``y``.

    Exhaustive enumeration over all extended-vocabulary paths; guarded by
    size caps because the path count grows as |V'|^T.
    """
    if num_frames < 0:
        raise InvalidInputError("frame count must be non-negative")
    if num_frames > max_frames or vocab.extended_size > max_extended:
        raise CapacityError(
            f"enumeration capped at T <= {max_frames}, |V'| <= {max_extended}"
        )
    y.validate_against(vocab)
    target = tuple(y)
    count = 0
    for path in itertools.product(range(vocab.extended_size), repeat=num_frames):
        if tuple(collapse(path, vocab)) == target:
            count += 1
    return count


def format_lattice_text(lattice: DistributionLattice) -> str:
    """Serialize to the text format: a ``T |V'|`` header line, then T rows
    of space-separated log probabilities with full float64 precision."""
    lines = [f"{lattice.num_frames} {lattice.extended_size}"]
    for row in lattice.log_probs:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_lattice_text(text: str, *, normalize: bool = True) -> DistributionLattice:
    """Parse the text format produced by :func:`format_lattice_text`.

    By default rows are renormalized in log space, so hand-written files
    with limited precision still load as valid distributions.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise InvalidInputError("empty lattice file")
    header = lines[0].split()
    if len(header) != 2:
        raise InvalidInputError("lattice header must be 'num_frames num_columns'")
    try:
        num_frames, num_cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InvalidInputError(f"bad lattice header: {exc}") from exc
    if len(lines) - 1 != num_frames:
        raise InvalidInputError(
            f"expected {num_frames} rows, found {len(lines) - 1}"
        )
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != num_cols:
            raise InvalidInputError(
                f"expected {num_cols} columns, found {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise InvalidInputError(f"bad lattice value: {exc}") from exc
    return DistributionLattice.from_log_probs(np.array(rows), normalize=normalize)


def save_lattice_text(lattice: DistributionLattice, path) -> None:
    with writing("lattice file", path), open(path, "w", encoding="utf-8") as fh:
        fh.write(format_lattice_text(lattice))


def load_lattice_text(path, *, normalize: bool = True) -> DistributionLattice:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_lattice_text(fh.read(), normalize=normalize)
    except OSError as exc:
        raise InvalidInputError(f"cannot read lattice file {path}: {exc}") from exc
