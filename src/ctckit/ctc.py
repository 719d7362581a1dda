"""CTC negative log-likelihood with its occupancy posteriors, the result
type every training objective returns, and an exhaustive enumeration oracle.

The loss is -log of the total probability of every alignment path that
collapses to the target. The dynamic program runs over the extended target
(blank, y1, blank, y2, ..., blank) in the log domain. Conventions:

  alpha[t, s]  log mass of paths that sit in extended state s at frame t,
               emissions for frames 0..t included.
  beta[t, s]   log mass of completing the path from state s at frame t,
               emissions for frames t+1..T-1 only (frame t excluded).

With these conventions alpha[t, s] + beta[t, s] is the log mass of all
complete paths passing through state s at frame t, so occupancy posteriors
need no division by the frame's emission probability.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError
from .lattice import (
    BLANK,
    DistributionLattice,
    LabelSequence,
    Vocabulary,
    collapse,
)
from .logspace import LOG_ZERO, log_add_scalar

@dataclass(frozen=True)
class CtcLossResult:
    """Tagged loss with its alpha/beta tables over the extended target, whose
    lattice columns (blank, y1, blank, ..., blank) are in ``extended``.
    ``feasible`` is False when no alignment exists, in which case ``loss``
    is +inf and the three arrays are None."""

    feasible: bool
    loss: float
    alpha: np.ndarray | None
    beta: np.ndarray | None
    extended: np.ndarray | None

    def __post_init__(self) -> None:
        for arr in (self.alpha, self.beta, self.extended):
            if arr is not None:
                arr.setflags(write=False)


@dataclass(frozen=True)
class ObjectiveResult:
    """One training objective at one sample: the total loss, one gradient
    with respect to the logits per view, and the component losses by name
    (``ctc``, ``sr``, ``ctc_a``, ``ctc_b``, ``cr``). An infeasible target is
    tagged rather than raised (``loss`` +inf, ``grads`` None, ``parts``
    empty) so training loops can skip and count."""

    feasible: bool
    loss: float
    grads: tuple[np.ndarray, ...] | None
    parts: dict[str, float]


def is_feasible(num_frames: int, y: LabelSequence) -> bool:
    """True when at least one alignment of ``y`` fits in ``num_frames``."""
    return num_frames >= y.min_frames()


def _skip_allowed(ext: np.ndarray) -> np.ndarray:
    """allow[s]: the s-2 -> s transition may skip the intervening blank."""
    allow = np.zeros(len(ext), dtype=bool)
    if len(ext) > 2:
        allow[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    return allow


def _shift(v: np.ndarray, by: int) -> np.ndarray:
    """v moved ``by`` states later (earlier when negative), LOG_ZERO-filled."""
    out = np.full_like(v, LOG_ZERO)
    if by > 0:
        out[by:] = v[:-by]
    else:
        out[:by] = v[-by:]
    return out


def _step(v: np.ndarray, allow: np.ndarray, by: int) -> np.ndarray:
    """One frame of the recursion in direction ``by`` (+1 forward, -1
    backward): stay, move one state, or skip a blank where ``allow``."""
    skip = np.where(allow, _shift(v, 2 * by), LOG_ZERO)
    return np.logaddexp(np.logaddexp(v, _shift(v, by)), skip)


def ctc_loss(
    dist: DistributionLattice, y: LabelSequence, vocab: Vocabulary
) -> CtcLossResult:
    """CTC negative log-likelihood via the forward-backward recursion.

    Returns a tagged result: structurally infeasible targets (too few frames
    for the labels plus forced blanks) yield ``feasible=False`` instead of a
    crash or an infinite loss, so callers can skip and count such samples.
    """
    y.validate_against(vocab)
    if dist.extended_size != vocab.extended_size:
        raise InvalidInputError("lattice width does not match vocabulary")
    T = dist.num_frames
    if not is_feasible(T, y):
        return CtcLossResult(False, math.inf, None, None, None)

    ext = np.full(2 * len(y) + 1, BLANK, dtype=np.int64)
    ext[1::2] = [vocab.lattice_index(label) for label in y]
    S = len(ext)
    emit = dist.log_probs[:, ext]  # T x S
    allow = _skip_allowed(ext)

    alpha = np.full((T, S), LOG_ZERO)
    alpha[0, 0] = emit[0, 0]
    if S > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, T):
        alpha[t] = _step(alpha[t - 1], allow, 1) + emit[t]

    ll_alpha = alpha[T - 1, S - 1]
    if S > 1:
        ll_alpha = log_add_scalar(ll_alpha, alpha[T - 1, S - 2])

    beta = np.full((T, S), LOG_ZERO)
    beta[T - 1, S - 1] = 0.0
    if S > 1:
        beta[T - 1, S - 2] = 0.0
    # allow_from[s]: the s -> s+2 skip is legal; same mask shifted by two.
    allow_from = np.zeros(S, dtype=bool)
    allow_from[: S - 2] = allow[2:]
    for t in range(T - 2, -1, -1):
        beta[t] = _step(beta[t + 1] + emit[t + 1], allow_from, -1)

    return CtcLossResult(True, float(-ll_alpha), alpha, beta, ext)


def occupancy_marginals(
    dist: DistributionLattice, res: CtcLossResult
) -> np.ndarray:
    """Posterior probability that frame t is aligned to lattice column k,
    a T x |V'| matrix with rows summing to 1. ``res`` must be feasible."""
    gamma_states = np.exp(res.alpha + res.beta + res.loss)
    out = np.zeros((dist.num_frames, dist.extended_size))
    for s, k in enumerate(res.extended):
        out[:, k] += gamma_states[:, s]
    return out


def ctc_loss_oracle(
    dist: DistributionLattice,
    y: LabelSequence,
    vocab: Vocabulary,
    *,
    max_frames: int = 8,
    max_extended: int = 4,
) -> float:
    """Literal-definition CTC loss: enumerate every path over the extended
    vocabulary, keep those collapsing to ``y``, and take -log of the summed
    path probabilities. Exponential in T, hence the size caps."""
    T = dist.num_frames
    if T > max_frames or vocab.extended_size > max_extended:
        raise CapacityError(
            f"oracle capped at T <= {max_frames}, |V'| <= {max_extended}"
        )
    y.validate_against(vocab)
    target = tuple(y)
    probs = dist.probs
    total = 0.0
    for path in itertools.product(range(vocab.extended_size), repeat=T):
        if tuple(collapse(path, vocab)) != target:
            continue
        p = 1.0
        for t, k in enumerate(path):
            p *= probs[t, k]
        total += p
    if total <= 0.0:
        return math.inf
    return -math.log(total)
