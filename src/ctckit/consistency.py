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

# ctc_loss and occupancy_marginals are not called here; perfbench/tracing.py
# probes them where this module imports them.
from .ctc import ObjectiveResult, ctc_loss, ctc_objective_group, occupancy_marginals
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
) -> tuple[float, np.ndarray, np.ndarray]:
    """Consistency loss between two branch distributions, with its
    gradients with respect to branch a's and branch b's logits.

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
    return loss, grad_a, grad_b


def paired_objective_group(
    logits_a: list[LogitLattice],
    logits_b: list[LogitLattice],
    ys: list[LabelSequence],
    vocab: Vocabulary,
    masks_a: list[np.ndarray | None],
    masks_b: list[np.ndarray | None],
    cfg: CrConfig,
) -> list[ObjectiveResult]:
    """Paired objective of each sample, evaluated directly on its branch
    logits; its parts are ``ctc_a``, ``ctc_b`` and ``cr``. The CTC terms of
    every branch run as one group."""
    for la, lb in zip(logits_a, logits_b, strict=True):
        if la.values.shape != lb.values.shape:
            raise InvalidInputError("branch logits must share one shape")
    za = [softmax_rows(la) for la in logits_a]
    zb = [softmax_rows(lb) for lb in logits_b]
    ctc = ctc_objective_group(
        [z for pair in zip(za, zb) for z in pair], [y for y in ys for _ in "ab"], vocab
    )
    results = []
    for i, (res_a, res_b) in enumerate(zip(ctc[0::2], ctc[1::2])):
        if not (res_a.feasible and res_b.feasible):
            results.append(ObjectiveResult(False, math.inf, None, {}))
            continue
        cr, cr_grad_a, cr_grad_b = cr_loss(za[i], zb[i], masks_a[i], masks_b[i], cfg)
        loss = 0.5 * (res_a.loss + res_b.loss) + cfg.alpha * cr
        grad_a = 0.5 * res_a.grads[0] + cfg.alpha * cr_grad_a
        grad_b = 0.5 * res_b.grads[0] + cfg.alpha * cr_grad_b
        parts = {"ctc_a": res_a.loss, "ctc_b": res_b.loss, "cr": cr}
        results.append(ObjectiveResult(True, loss, (grad_a, grad_b), parts))
    return results


def paired_loss_from_logits(
    logits_a: LogitLattice,
    logits_b: LogitLattice,
    y: LabelSequence,
    vocab: Vocabulary,
    masks_a: np.ndarray | None,
    masks_b: np.ndarray | None,
    cfg: CrConfig,
) -> ObjectiveResult:
    """Paired objective of one sample (:func:`paired_objective_group` of
    one)."""
    return paired_objective_group(
        [logits_a], [logits_b], [y], vocab, [masks_a], [masks_b], cfg
    )[0]
