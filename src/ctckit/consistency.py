"""Consistency regularization between two augmented views.

The paired objective is

    total = (ctc_a + ctc_b) / 2 + alpha * cr

where cr sums, over frames, half of the two directed KL divergences between
the branch distributions, each computed against a stop-gradient copy of the
other branch:

    cr = 1/2 * sum_t [ KL(sg(zb_t) || za_t) + KL(sg(za_t) || zb_t) ]

Under stop_gradient (the default) a KL term propagates only into its
prediction branch; the target branch receives literally nothing, not even a
zero-valued add. flow_gradient is the ablation that lets the target side
flow too. hard_label_ce swaps the KL for cross-entropy against the other
branch's argmax token. Frame filters drop a branch's terms on the frames
that branch itself masked (or the complement), which needs the per-view
time-mask bookkeeping.
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

TARGET_MODES = ("stop_gradient", "flow_gradient")
DISTANCES = ("bidirectional_kl", "hard_label_ce")
FRAME_FILTERS = ("all", "exclude_self_masked", "exclude_self_unmasked")


@dataclass(frozen=True)
class CrConfig:
    """Consistency-loss settings.

    alpha weighs the consistency term, a literal per-frame sum, against
    the averaged CTC losses.
    """

    alpha: float = 0.2
    target_mode: str = "stop_gradient"
    distance: str = "bidirectional_kl"
    frame_filter: str = "all"

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise InvalidInputError("alpha must be non-negative")
        if self.target_mode not in TARGET_MODES:
            raise InvalidInputError(f"target_mode must be one of {TARGET_MODES}")
        if self.distance not in DISTANCES:
            raise InvalidInputError(f"distance must be one of {DISTANCES}")
        if self.frame_filter not in FRAME_FILTERS:
            raise InvalidInputError(f"frame_filter must be one of {FRAME_FILTERS}")


@dataclass(frozen=True)
class CrLossResult:
    """Consistency loss with gradients for both branches' logits."""

    loss: float
    grad_a: np.ndarray
    grad_b: np.ndarray

    def __post_init__(self) -> None:
        for name in ("grad_a", "grad_b"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _frame_weights(
    mask: np.ndarray | None, frame_filter: str, num_frames: int
) -> np.ndarray:
    if frame_filter == "all":
        return np.ones(num_frames)
    if mask is None:
        raise InvalidInputError(
            f"frame_filter '{frame_filter}' needs the view's time-mask vector"
        )
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (num_frames,):
        raise InvalidInputError("time mask must have one entry per frame")
    if frame_filter == "exclude_self_masked":
        return (~mask).astype(np.float64)
    return mask.astype(np.float64)


def cr_loss(
    za: DistributionLattice,
    zb: DistributionLattice,
    masks_a: np.ndarray | None,
    masks_b: np.ndarray | None,
    cfg: CrConfig,
) -> CrLossResult:
    """Consistency loss between two branch distributions.

    A frame contributes to branch a's term (the one whose prediction is za)
    only if it passes branch a's own filter, and symmetrically for b.
    Target-side zero probabilities contribute zero by convention; softmax
    outputs are strictly positive, but serialized lattices may carry zeros.

    hard_label_ce pushes each branch toward the other branch's per-frame
    argmax token (ties to the lowest index). Its targets are always
    detached; target_mode does not apply to it.
    """
    if za.probs.shape != zb.probs.shape:
        raise InvalidInputError("branch lattices must share one shape")
    T = za.num_frames
    wa = _frame_weights(masks_a, cfg.frame_filter, T)
    wb = _frame_weights(masks_b, cfg.frame_filter, T)
    pa, pb = za.probs, zb.probs

    if cfg.distance == "hard_label_ce":
        rows = np.arange(T)
        tgt_for_a = np.argmax(pb, axis=1)
        tgt_for_b = np.argmax(pa, axis=1)
        ce_a = -za.log_probs[rows, tgt_for_a]
        ce_b = -zb.log_probs[rows, tgt_for_b]
        loss = 0.5 * (float(wa @ ce_a) + float(wb @ ce_b))

        onehot_for_a = np.zeros_like(pa)
        onehot_for_a[rows, tgt_for_a] = 1.0
        onehot_for_b = np.zeros_like(pb)
        onehot_for_b[rows, tgt_for_b] = 1.0
        grad_a = 0.5 * wa[:, None] * (pa - onehot_for_a)
        grad_b = 0.5 * wb[:, None] * (pb - onehot_for_b)
    else:
        diff = zb.log_probs - za.log_probs
        kl_b_to_a = np.where(pb > 0.0, pb * diff, 0.0).sum(axis=1)
        kl_a_to_b = np.where(pa > 0.0, pa * -diff, 0.0).sum(axis=1)
        loss = 0.5 * (float(wa @ kl_b_to_a) + float(wb @ kl_a_to_b))

        grad_a = 0.5 * wa[:, None] * (pa - pb)
        grad_b = 0.5 * wb[:, None] * (pb - pa)
        if cfg.target_mode == "flow_gradient":
            # target-side term of KL(p || q) wrt p's logits: p * (log(p/q) - KL)
            grad_b = grad_b + 0.5 * wa[:, None] * pb * (diff - kl_b_to_a[:, None])
            grad_a = grad_a + 0.5 * wb[:, None] * pa * (-diff - kl_a_to_b[:, None])
    return CrLossResult(loss, grad_a, grad_b)


@dataclass(frozen=True)
class TotalLossResult:
    """Paired objective value with per-branch logit gradients and the
    component losses. Infeasible targets tag the result instead of raising
    so training loops can skip and count."""

    feasible: bool
    loss: float
    ctc_a: float
    ctc_b: float
    cr: float
    grad_a: np.ndarray | None
    grad_b: np.ndarray | None


def paired_loss_from_logits(
    logits_a: LogitLattice,
    logits_b: LogitLattice,
    y: LabelSequence,
    vocab: Vocabulary,
    masks_a: np.ndarray | None,
    masks_b: np.ndarray | None,
    cfg: CrConfig,
) -> TotalLossResult:
    """Paired objective evaluated directly on branch logits."""
    if logits_a.values.shape != logits_b.values.shape:
        raise InvalidInputError("branch logits must share one shape")
    za = softmax_rows(logits_a)
    zb = softmax_rows(logits_b)
    res_a = ctc_loss(za, y, vocab)
    res_b = ctc_loss(zb, y, vocab)
    if not (res_a.feasible and res_b.feasible):
        return TotalLossResult(False, math.inf, math.inf, math.inf, 0.0, None, None)
    cr = cr_loss(za, zb, masks_a, masks_b, cfg)
    ctc_grad_a = za.probs - occupancy_marginals(za, res_a.table)
    ctc_grad_b = zb.probs - occupancy_marginals(zb, res_b.table)
    loss = 0.5 * (res_a.loss + res_b.loss) + cfg.alpha * cr.loss
    grad_a = 0.5 * ctc_grad_a + cfg.alpha * cr.grad_a
    grad_b = 0.5 * ctc_grad_b + cfg.alpha * cr.grad_b
    return TotalLossResult(
        True, loss, res_a.loss, res_b.loss, cr.loss, grad_a, grad_b
    )
