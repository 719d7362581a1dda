"""Smoothness regularization: pull each frame's distribution toward a
temporally smoothed copy of itself.

The smoothed lattice convolves the probability rows along time with the
fixed taps (0.25, 0.5, 0.25); at the sequence boundaries the taps are
truncated and renormalized, so a single-frame lattice smooths to itself.
The penalty is the per-frame sum of KL(sg(smoothed) || actual); the smoothed
target is detached, so the gradient only flows through the prediction side:

    total = ctc + beta * sum_t KL(sg(smooth(z)_t) || z_t)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctc import ObjectiveResult, ctc_loss, occupancy_marginals
from .errors import InvalidInputError
from .lattice import (
    DistributionLattice,
    LabelSequence,
    LogitLattice,
    Vocabulary,
    softmax_rows,
)

# smoothing taps over (previous, current, next) frame
SR_TAPS = (0.25, 0.5, 0.25)


@dataclass(frozen=True)
class SrConfig:
    """Weight beta of the smoothness penalty."""

    beta: float = 0.2

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise InvalidInputError("beta must be non-negative")


def smooth_lattice(z: DistributionLattice) -> DistributionLattice:
    """Convolve the rows along time with ``SR_TAPS``.

    Interior frames mix (previous, current, next); boundary frames use the
    truncated taps renormalized to unit mass, which keeps every row a
    distribution.
    """
    k0, k1, k2 = SR_TAPS
    p = z.probs
    T = p.shape[0]
    if T == 1:
        return DistributionLattice.from_probs(p.copy())
    out = np.empty_like(p)
    out[1 : T - 1] = k0 * p[: T - 2] + k1 * p[1 : T - 1] + k2 * p[2:]
    out[0] = (k1 * p[0] + k2 * p[1]) / (k1 + k2)
    out[T - 1] = (k0 * p[T - 2] + k1 * p[T - 1]) / (k0 + k1)
    return DistributionLattice.from_probs(out)


def sr_penalty(z: DistributionLattice) -> tuple[float, np.ndarray]:
    """Smoothness penalty and its gradient with respect to the logits that
    produced ``z``. The smoothed target is treated as a constant."""
    smoothed = smooth_lattice(z)
    ps, p = smoothed.probs, z.probs
    ls, l = smoothed.log_probs, z.log_probs
    value = float(np.where(ps > 0.0, ps * (ls - l), 0.0).sum())
    grad = p - ps
    return value, grad


def sr_loss_from_logits(
    logits: LogitLattice, y: LabelSequence, vocab: Vocabulary, cfg: SrConfig
) -> ObjectiveResult:
    """Smoothness-regularized objective evaluated on raw logits; its parts
    are ``ctc`` and ``sr``."""
    z = softmax_rows(logits)
    res = ctc_loss(z, y, vocab)
    if not res.feasible:
        return ObjectiveResult(False, math.inf, None, {})
    penalty, pen_grad = sr_penalty(z)
    ctc_grad = z.probs - occupancy_marginals(z, res)
    loss = res.loss + cfg.beta * penalty
    grad = ctc_grad + cfg.beta * pen_grad
    return ObjectiveResult(True, loss, (grad,), {"ctc": res.loss, "sr": penalty})
