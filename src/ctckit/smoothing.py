"""Smoothness regularization: pull each frame's distribution toward a
temporally smoothed copy of itself.

The smoothed lattice convolves the probability rows along time with a short
non-negative kernel that sums to one; at the sequence boundaries the kernel
is truncated and renormalized, so a single-frame lattice smooths to itself.
The penalty is the per-frame sum of KL(sg(smoothed) || actual); the smoothed
target is detached, so the gradient only flows through the prediction side:

    total = ctc + beta * sum_t KL(sg(smooth(z)_t) || z_t)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctc import ctc_loss, occupancy_marginals
from .errors import InvalidInputError
from .lattice import (
    DistributionLattice,
    LabelSequence,
    LogitLattice,
    Vocabulary,
    softmax_rows,
)

DEFAULT_KERNEL = (0.25, 0.5, 0.25)


@dataclass(frozen=True)
class SrConfig:
    """Smoothing kernel (previous, current, next frame weights) and the
    penalty weight beta."""

    kernel: tuple[float, float, float] = DEFAULT_KERNEL
    beta: float = 0.2

    def __post_init__(self) -> None:
        k = tuple(float(v) for v in self.kernel)
        if len(k) != 3:
            raise InvalidInputError("kernel must have exactly three taps")
        if any(v < 0 for v in k):
            raise InvalidInputError("kernel weights must be non-negative")
        if abs(sum(k) - 1.0) > 1e-12:
            raise InvalidInputError("kernel weights must sum to 1")
        if self.beta < 0:
            raise InvalidInputError("beta must be non-negative")
        object.__setattr__(self, "kernel", k)


def smooth_lattice(z: DistributionLattice, cfg: SrConfig) -> DistributionLattice:
    """Convolve the rows along time with the kernel.

    Interior frames mix (previous, current, next); boundary frames use the
    truncated kernel renormalized to unit mass, which keeps every row a
    distribution. If a truncated kernel has zero mass the frame is left
    unchanged.
    """
    k0, k1, k2 = cfg.kernel
    p = z.probs
    T = p.shape[0]
    if T == 1:
        return DistributionLattice.from_probs(p.copy())
    out = np.empty_like(p)
    out[1 : T - 1] = k0 * p[: T - 2] + k1 * p[1 : T - 1] + k2 * p[2:]
    head_mass = k1 + k2
    if head_mass > 0:
        out[0] = (k1 * p[0] + k2 * p[1]) / head_mass
    else:
        out[0] = p[0]
    tail_mass = k0 + k1
    if tail_mass > 0:
        out[T - 1] = (k0 * p[T - 2] + k1 * p[T - 1]) / tail_mass
    else:
        out[T - 1] = p[T - 1]
    return DistributionLattice.from_probs(out)


def sr_penalty(z: DistributionLattice, cfg: SrConfig) -> tuple[float, np.ndarray]:
    """Smoothness penalty and its gradient with respect to the logits that
    produced ``z``. The smoothed target is treated as a constant."""
    smoothed = smooth_lattice(z, cfg)
    ps, p = smoothed.probs, z.probs
    ls, l = smoothed.log_probs, z.log_probs
    value = float(np.where(ps > 0.0, ps * (ls - l), 0.0).sum())
    grad = p - ps
    return value, grad


@dataclass(frozen=True)
class SrLossResult:
    """Smoothness-regularized objective with its logit gradient; infeasible
    targets are tagged rather than raised."""

    feasible: bool
    loss: float
    ctc: float
    sr: float
    grad: np.ndarray | None


def sr_loss_from_logits(
    logits: LogitLattice, y: LabelSequence, vocab: Vocabulary, cfg: SrConfig
) -> SrLossResult:
    """Smoothness-regularized objective evaluated on raw logits."""
    z = softmax_rows(logits)
    res = ctc_loss(z, y, vocab)
    if not res.feasible:
        return SrLossResult(False, math.inf, math.inf, 0.0, None)
    penalty, pen_grad = sr_penalty(z, cfg)
    ctc_grad = z.probs - occupancy_marginals(z, res.table)
    loss = res.loss + cfg.beta * penalty
    grad = ctc_grad + cfg.beta * pen_grad
    return SrLossResult(True, loss, res.loss, penalty, grad)
