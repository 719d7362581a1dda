"""CTC negative log-likelihood, its analytic gradient, and an exhaustive
enumeration oracle.

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

from .errors import CapacityError, InfeasibleTargetError, InvalidInputError
from .lattice import (
    BLANK,
    DistributionLattice,
    LabelSequence,
    LogitLattice,
    Vocabulary,
    collapse,
    softmax_rows,
)
from .logspace import LOG_ZERO, log_add_scalar

ALPHA_BETA_TOL = 1e-8


@dataclass(frozen=True)
class ForwardBackwardTable:
    """Alpha/beta tables over the extended target, whose lattice columns
    (blank, y1, blank, ..., blank) are in ``extended``, plus the
    log-likelihood read out at the last frame."""

    alpha: np.ndarray
    beta: np.ndarray
    extended: np.ndarray
    log_likelihood: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "extended"):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class CtcLossResult:
    """Tagged loss: ``feasible`` is False when no alignment exists, in which
    case ``loss`` is +inf and ``table`` is None."""

    feasible: bool
    loss: float
    table: ForwardBackwardTable | None


@dataclass(frozen=True)
class LossBundle:
    """Scalar loss plus its gradient with respect to pre-softmax logits."""

    loss: float
    grad: np.ndarray

    def __post_init__(self) -> None:
        grad = np.asarray(self.grad, dtype=np.float64)
        grad.setflags(write=False)
        object.__setattr__(self, "grad", grad)


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
    out = np.full_like(v, LOG_ZERO)
    out[by:] = v[:-by]
    return out


def _log_add3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.logaddexp(np.logaddexp(a, b), c)


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
        return CtcLossResult(False, math.inf, None)

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
        prev = alpha[t - 1]
        skip = np.where(allow, _shift(prev, 2), LOG_ZERO)
        alpha[t] = _log_add3(prev, _shift(prev, 1), skip) + emit[t]

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
        nxt = beta[t + 1] + emit[t + 1]
        step = np.full(S, LOG_ZERO)
        step[:-1] = nxt[1:]
        skip = np.full(S, LOG_ZERO)
        if S > 2:
            skip[: S - 2] = np.where(allow_from[: S - 2], nxt[2:], LOG_ZERO)
        beta[t] = _log_add3(nxt, step, skip)

    table = ForwardBackwardTable(alpha, beta, ext, float(ll_alpha))
    return CtcLossResult(True, float(-ll_alpha), table)


def occupancy_marginals(
    dist: DistributionLattice, table: ForwardBackwardTable
) -> np.ndarray:
    """Posterior probability that frame t is aligned to lattice column k,
    a T x |V'| matrix with rows summing to 1."""
    gamma_states = np.exp(table.alpha + table.beta - table.log_likelihood)
    out = np.zeros((dist.num_frames, dist.extended_size))
    for s, k in enumerate(table.extended):
        out[:, k] += gamma_states[:, s]
    return out


def ctc_grad(
    logits: LogitLattice, y: LabelSequence, vocab: Vocabulary
) -> LossBundle:
    """Loss and exact gradient with respect to the logits.

    The gradient is softmax(logits) minus the occupancy posterior, so every
    row sums to zero. Raises InfeasibleTargetError when no alignment exists
    (the gradient is undefined there).
    """
    dist = softmax_rows(logits)
    result = ctc_loss(dist, y, vocab)
    if not result.feasible:
        raise InfeasibleTargetError(
            f"{len(y)} labels (+{y.adjacent_repeats()} forced blanks) need "
            f"more than {logits.num_frames} frames"
        )
    grad = dist.probs - occupancy_marginals(dist, result.table)
    return LossBundle(result.loss, grad)


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
