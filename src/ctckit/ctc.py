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
    LogitLattice,
    Vocabulary,
    collapse,
    softmax_rows,
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


@dataclass(frozen=True)
class _Tables:
    """alpha and beta of the feasible lattices of a group, time-major
    (T_max, n, S_max + 4), longest lattice first; ``index`` maps each
    column back to the caller's list.

    A lattice's states sit at columns 2 .. 2 + S, between two LOG_ZERO
    guard columns on each side, which the stay/move/skip transitions read
    as the states before the first and after the last. States past a
    shorter lattice's end emit log 1, which keeps their beta at exactly
    LOG_ZERO, so every lattice reads what it would read alone.
    """

    index: list[int]
    lengths: list[int]
    ext: np.ndarray  # (n, S_max) lattice columns, blank-padded
    alpha: np.ndarray
    beta: np.ndarray
    losses: list[float]


def _tables(
    dists: list[DistributionLattice], ys: list[LabelSequence], vocab: Vocabulary
) -> _Tables:
    for dist, y in zip(dists, ys, strict=True):
        y.validate_against(vocab)
        if dist.extended_size != vocab.extended_size:
            raise InvalidInputError("lattice width does not match vocabulary")
    feasible = [i for i, (d, y) in enumerate(zip(dists, ys)) if is_feasible(d.num_frames, y)]
    index = sorted(feasible, key=lambda i: -dists[i].num_frames)
    lengths = [dists[i].num_frames for i in index]
    exts = []
    for i in index:
        ext = np.full(2 * len(ys[i]) + 1, BLANK, dtype=np.int64)
        ext[1::2] = [vocab.lattice_index(label) for label in ys[i]]
        exts.append(ext)
    n = len(index)
    T_max = lengths[0] if n else 0
    S_max = max((len(e) for e in exts), default=1)
    ext = np.full((n, S_max), BLANK, dtype=np.int64)
    allow = np.zeros((n, S_max), dtype=bool)
    emit = np.zeros((T_max, n, S_max + 4))
    for c, (i, e) in enumerate(zip(index, exts)):
        ext[c, : len(e)] = e
        allow[c, : len(e)] = _skip_allowed(e)
        emit[: lengths[c], c, 2 : 2 + len(e)] = dists[i].log_probs[:, e]
    # allow_from[s]: the s -> s+2 skip is legal; same mask shifted by two.
    allow_from = np.zeros_like(allow)
    allow_from[:, : S_max - 2] = allow[:, 2:]
    # lattices are sorted longest first, so those still running at frame t
    # are the first active[t]
    active = [sum(1 for T in lengths if T > t) for t in range(T_max + 1)]

    # forward: stay, move one state, or skip a blank where allowed
    alpha = np.full((T_max, n, S_max + 4), LOG_ZERO)
    alpha[:1, :, 2:4] = emit[:1, :, 2:4]
    for t in range(1, T_max):
        m = active[t]
        a = alpha[t - 1, :m]
        skip = np.where(allow[:m], a[:, :-4], LOG_ZERO)
        stay_or_move = np.logaddexp(a[:, 2:-2], a[:, 1:-3])
        np.add(np.logaddexp(stay_or_move, skip), emit[t, :m, 2:-2], out=alpha[t, :m, 2:-2])

    losses = []
    for c, e in enumerate(exts):
        last = alpha[lengths[c] - 1, c, 2:]
        ll_alpha = last[len(e) - 1]
        if len(e) > 1:
            ll_alpha = log_add_scalar(ll_alpha, last[len(e) - 2])
        losses.append(float(-ll_alpha))

    # backward: the same moves in reverse, from each lattice's last frame
    beta = np.full((T_max, n, S_max + 4), LOG_ZERO)
    for c, e in enumerate(exts):
        beta[lengths[c] - 1, c, max(len(e), 2) : 2 + len(e)] = 0.0
    for t in range(T_max - 2, -1, -1):
        m = active[t + 1]
        v = beta[t + 1, :m] + emit[t + 1, :m]
        skip = np.where(allow_from[:m], v[:, 4:], LOG_ZERO)
        stay_or_move = np.logaddexp(v[:, 2:-2], v[:, 3:-1])
        np.logaddexp(stay_or_move, skip, out=beta[t, :m, 2:-2])
    return _Tables(index, lengths, ext, alpha[:, :, 2:-2], beta[:, :, 2:-2], losses)


def ctc_loss(
    dist: DistributionLattice, y: LabelSequence, vocab: Vocabulary
) -> CtcLossResult:
    """CTC negative log-likelihood via the forward-backward recursion.

    Returns a tagged result: structurally infeasible targets (too few frames
    for the labels plus forced blanks) yield ``feasible=False`` instead of a
    crash or an infinite loss, so callers can skip and count such samples.
    This is the group recursion of :func:`ctc_objective_group` run over one
    lattice.
    """
    tables = _tables([dist], [y], vocab)
    if not tables.index:
        return CtcLossResult(False, math.inf, None, None, None)
    return CtcLossResult(
        True, tables.losses[0], tables.alpha[:, 0], tables.beta[:, 0], tables.ext[0]
    )


def _occupancy(
    alpha: np.ndarray,
    beta: np.ndarray,
    ext: np.ndarray,
    losses: list[float],
    num_columns: int,
) -> np.ndarray:
    """Occupancy posteriors (T, n, num_columns) from time-major tables,
    one state at a time so no third table is held."""
    losses = np.asarray(losses)
    out = np.zeros(alpha.shape[:2] + (num_columns,))
    cols = np.arange(alpha.shape[1])
    for s in range(alpha.shape[2]):
        out[:, cols, ext[:, s]] += np.exp(alpha[:, :, s] + beta[:, :, s] + losses)
    return out


def occupancy_marginals(
    dist: DistributionLattice, res: CtcLossResult
) -> np.ndarray:
    """Posterior probability that frame t is aligned to lattice column k,
    a T x |V'| matrix with rows summing to 1. ``res`` must be feasible."""
    return _occupancy(
        res.alpha[:, None], res.beta[:, None], res.extended[None],
        [res.loss], dist.extended_size,
    )[:, 0]


def ctc_objective_group(
    dists: list[DistributionLattice], ys: list[LabelSequence], vocab: Vocabulary
) -> list[ObjectiveResult]:
    """Plain CTC objective of each lattice; its one part is ``ctc``.

    The gradient with respect to the logits behind each lattice is its
    probabilities minus the occupancy posterior, so every row sums to zero.
    """
    tables = _tables(dists, ys, vocab)
    occupancy = _occupancy(
        tables.alpha, tables.beta, tables.ext, tables.losses, vocab.extended_size
    )
    results = [ObjectiveResult(False, math.inf, None, {})] * len(dists)
    for c, i in enumerate(tables.index):
        grad = dists[i].probs - occupancy[: tables.lengths[c], c]
        loss = tables.losses[c]
        results[i] = ObjectiveResult(True, loss, (grad,), {"ctc": loss})
    return results


def ctc_loss_from_logits(
    logits: LogitLattice, y: LabelSequence, vocab: Vocabulary
) -> ObjectiveResult:
    """Plain CTC objective on raw logits (:func:`ctc_objective_group` of
    one lattice)."""
    return ctc_objective_group([softmax_rows(logits)], [y], vocab)[0]


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
