"""SpecAugment-style feature augmentation and paired-view construction.

The consistency objective trains on two differently augmented copies of one
utterance. Time warping is applied once, before the copies are made, so both
views share the same warp; frequency and time masking are then drawn
independently per view. Time-mask positions are recorded per view because
frame-filter ablations need to know which frames a branch masked for itself;
frequency masks are not tracked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class SpecAugmentConfig:
    """Augmentation policy.

    Defaults follow the standard large-corpus recipe (warp 80, two frequency
    masks of width up to 27, ten time masks of width up to 100 capped at 15%
    of the frames). ``time_scale_ratio`` multiplies the number of time masks
    and the total masked-fraction cap, not the per-mask width; 1.0 is the
    plain-CTC baseline and 2.5 the consistency-training setting.
    ``freq_scale_ratio`` scales the frequency-mask count and width cap the
    same way, as an ablation axis. Masked cells are set to 0, which assumes
    roughly mean-normalized features.
    """

    warp_factor: int = 80
    num_freq_masks: int = 2
    max_freq_mask_width: int = 27
    num_time_masks: int = 10
    max_time_mask_width: int = 100
    max_time_mask_fraction: float = 0.15
    time_scale_ratio: float = 1.0
    freq_scale_ratio: float = 1.0

    def __post_init__(self) -> None:
        if (
            self.warp_factor < 0
            or self.num_freq_masks < 0
            or self.max_freq_mask_width < 0
            or self.num_time_masks < 0
            or self.max_time_mask_width < 0
        ):
            raise InvalidInputError("augmentation sizes must be non-negative")
        if not 0.0 <= self.max_time_mask_fraction <= 1.0:
            raise InvalidInputError("max_time_mask_fraction must lie in [0, 1]")
        if self.time_scale_ratio < 0 or self.freq_scale_ratio < 0:
            raise InvalidInputError("scale ratios must be non-negative")

    @property
    def effective_num_time_masks(self) -> int:
        return int(round(self.num_time_masks * self.time_scale_ratio))

    @property
    def effective_time_mask_fraction(self) -> float:
        return min(1.0, self.max_time_mask_fraction * self.time_scale_ratio)

    @property
    def effective_num_freq_masks(self) -> int:
        return int(round(self.num_freq_masks * self.freq_scale_ratio))

    @property
    def effective_max_freq_mask_width(self) -> int:
        return int(round(self.max_freq_mask_width * self.freq_scale_ratio))


@dataclass(frozen=True)
class AugmentedView:
    """Augmented features plus per-frame bookkeeping of self time masks."""

    features: np.ndarray
    time_masked: np.ndarray

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64, copy=True)
        mask = np.array(self.time_masked, dtype=bool, copy=True)
        if feats.ndim != 2:
            raise InvalidInputError("features must be a frames x dims matrix")
        if mask.shape != (feats.shape[0],):
            raise InvalidInputError("time mask must have one entry per frame")
        feats.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "time_masked", mask)

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]


def time_warp(x: np.ndarray, warp_factor: int, rng: np.random.Generator) -> np.ndarray:
    """Warp the time axis around a random pivot.

    A pivot frame c is drawn uniformly from [w, T - w) and displaced by
    d ~ Uniform[-w, w]; the two segments are linearly re-interpolated to
    keep the frame count unchanged. Inputs too short to host a pivot
    (T <= 2w, or w == 0) pass through unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidInputError("features must be a frames x dims matrix")
    T = x.shape[0]
    w = int(warp_factor)
    if w <= 0 or T <= 2 * w or T < 3:
        return x.copy()
    pivot = int(rng.integers(w, T - w))
    shift = int(rng.integers(-w, w + 1))
    target = min(max(pivot + shift, 1), T - 2)
    src = np.empty(T, dtype=np.float64)
    src[: target + 1] = np.linspace(0.0, pivot, target + 1)
    src[target:] = np.linspace(pivot, T - 1, T - target)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, T - 1)
    frac = (src - lo)[:, None]
    return (1.0 - frac) * x[lo] + frac * x[hi]


def _apply_freq_masks(
    feats: np.ndarray, cfg: SpecAugmentConfig, rng: np.random.Generator
) -> None:
    F = feats.shape[1]
    width_cap = min(cfg.effective_max_freq_mask_width, F)
    for _ in range(cfg.effective_num_freq_masks):
        width = int(rng.integers(0, width_cap + 1))
        start = int(rng.integers(0, F - width + 1))
        feats[:, start : start + width] = 0.0


def _apply_time_masks(
    feats: np.ndarray, cfg: SpecAugmentConfig, rng: np.random.Generator
) -> np.ndarray:
    """Mask random time stretches in place; returns the boolean mask vector.

    Widths are sampled first and then clipped frame-by-frame so the running
    count of distinct masked frames never exceeds the effective-fraction
    budget; masks drawn after the budget is exhausted are skipped.
    """
    T = feats.shape[0]
    budget = int(np.floor(cfg.effective_time_mask_fraction * T))
    masked = np.zeros(T, dtype=bool)
    count = 0
    width_cap = min(cfg.max_time_mask_width, T)
    for _ in range(cfg.effective_num_time_masks):
        width = int(rng.integers(0, width_cap + 1))
        start = int(rng.integers(0, T - width + 1))
        if count >= budget:
            continue
        for t in range(start, start + width):
            if masked[t]:
                continue
            if count >= budget:
                break
            masked[t] = True
            count += 1
    feats[masked] = 0.0
    return masked


def _masked_view(
    warped: np.ndarray, cfg: SpecAugmentConfig, rng: np.random.Generator
) -> AugmentedView:
    """Copy of the warped features with frequency, then time, masks drawn."""
    feats = warped.copy()
    _apply_freq_masks(feats, cfg, rng)
    masked = _apply_time_masks(feats, cfg, rng)
    return AugmentedView(feats, masked)


def augment(
    x: np.ndarray, cfg: SpecAugmentConfig, rng: np.random.Generator
) -> AugmentedView:
    """Single augmented view: warp, then frequency and time masks."""
    return _masked_view(time_warp(x, cfg.warp_factor, rng), cfg, rng)


def make_views(
    x: np.ndarray, cfg: SpecAugmentConfig, rng: np.random.Generator
) -> tuple[AugmentedView, AugmentedView]:
    """Two views for consistency training: one shared time warp, then
    independently drawn frequency and time masks per view."""
    warped = time_warp(x, cfg.warp_factor, rng)
    first = _masked_view(warped, cfg, rng)
    return first, _masked_view(warped, cfg, rng)


def pool_mask_any(mask: np.ndarray, factor: int) -> np.ndarray:
    """Downsample a frame mask: a pooled frame is masked when any of its
    constituent input frames was masked. Matches ceil-mode average pooling
    of the features."""
    mask = np.asarray(mask, dtype=bool)
    if factor < 1:
        raise InvalidInputError("downsample factor must be >= 1")
    if factor == 1:
        return mask.copy()
    return np.logical_or.reduceat(mask, np.arange(0, mask.shape[0], factor))
