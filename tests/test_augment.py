import numpy as np
import pytest

from ctckit.augment import (
    AugmentedView,
    SpecAugmentConfig,
    augment,
    make_views,
    pool_mask_any,
    time_warp,
)
from ctckit.encoder import _downsample
from ctckit.errors import InvalidInputError

DESK = SpecAugmentConfig(
    warp_factor=4,
    num_freq_masks=2,
    max_freq_mask_width=3,
    num_time_masks=4,
    max_time_mask_width=6,
    max_time_mask_fraction=0.15,
    time_scale_ratio=2.5,
)


def test_defaults_match_baseline_at_unit_ratio():
    cfg = SpecAugmentConfig(time_scale_ratio=1.0)
    assert cfg.effective_num_time_masks == 10
    assert cfg.effective_time_mask_fraction == pytest.approx(0.15)
    assert cfg.effective_num_freq_masks == 2
    assert cfg.effective_max_freq_mask_width == 27


def test_effective_scaling():
    cfg = SpecAugmentConfig(time_scale_ratio=2.5)
    assert cfg.effective_num_time_masks == 25
    assert cfg.effective_time_mask_fraction == pytest.approx(0.375)
    big = SpecAugmentConfig(time_scale_ratio=10.0)
    assert big.effective_time_mask_fraction == 1.0


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SpecAugmentConfig(max_time_mask_fraction=1.5)
    with pytest.raises(InvalidInputError):
        SpecAugmentConfig(num_time_masks=-1)


def test_time_warp_preserves_frame_count_and_constants():
    rng = np.random.default_rng(0)
    x = np.ones((50, 8)) * 3.25
    out = time_warp(x, 4, rng)
    assert out.shape == x.shape
    assert np.allclose(out, 3.25, atol=1e-12)


def test_time_warp_degenerate_inputs_identity():
    rng = np.random.default_rng(0)
    x = np.arange(12.0).reshape(6, 2)
    assert np.array_equal(time_warp(x, 0, rng), x)
    assert np.array_equal(time_warp(x, 3, rng), x)  # T == 2w
    assert np.array_equal(time_warp(x, 80, rng), x)


def test_time_warp_moves_content():
    rng = np.random.default_rng(3)
    x = np.zeros((40, 1))
    x[20] = 1.0
    moved = False
    for _ in range(20):
        out = time_warp(x, 5, rng)
        if not np.allclose(out, x):
            moved = True
            break
    assert moved


def test_make_views_deterministic_per_seed():
    x = np.random.default_rng(5).normal(size=(60, 16))
    a1, b1 = make_views(x, DESK, np.random.default_rng(99))
    a2, b2 = make_views(x, DESK, np.random.default_rng(99))
    assert np.array_equal(a1.features, a2.features)
    assert np.array_equal(b1.features, b2.features)
    assert np.array_equal(a1.time_masked, a2.time_masked)
    assert np.array_equal(b1.time_masked, b2.time_masked)


def test_views_differ_across_seeds():
    x = np.random.default_rng(5).normal(size=(60, 16))
    a1, _ = make_views(x, DESK, np.random.default_rng(1))
    a2, _ = make_views(x, DESK, np.random.default_rng(2))
    assert not np.array_equal(a1.features, a2.features)


def test_view_time_masks_are_independent():
    x = np.random.default_rng(5).normal(size=(80, 16))
    identical = 0
    trials = 300
    for seed in range(trials):
        a, b = make_views(x, DESK, np.random.default_rng(seed))
        if np.array_equal(a.time_masked, b.time_masked):
            identical += 1
    assert identical / trials < 0.01


def test_masked_fraction_bounded():
    x = np.random.default_rng(5).normal(size=(64, 16))
    for seed in range(200):
        a, b = make_views(x, DESK, np.random.default_rng(seed))
        cap = np.floor(DESK.effective_time_mask_fraction * 64)
        assert a.time_masked.sum() <= cap
        assert b.time_masked.sum() <= cap
        assert a.num_frames == 64 and b.num_frames == 64


def test_masked_frames_carry_mask_value():
    # masked cells are 0.0; the +100 offset keeps real features away from it
    cfg = SpecAugmentConfig(
        warp_factor=0,
        num_freq_masks=0,
        max_freq_mask_width=0,
        num_time_masks=3,
        max_time_mask_width=10,
        max_time_mask_fraction=0.5,
        time_scale_ratio=1.0,
    )
    x = np.random.default_rng(0).normal(size=(30, 4)) + 100.0
    view = augment(x, cfg, np.random.default_rng(1))
    assert view.time_masked.any()
    assert np.all(view.features[view.time_masked] == 0.0)
    assert np.all(view.features[~view.time_masked] == x[~view.time_masked])


def test_zero_mask_counts_leave_warped_input():
    cfg = SpecAugmentConfig(
        warp_factor=0,
        num_freq_masks=0,
        num_time_masks=0,
        time_scale_ratio=1.0,
    )
    x = np.random.default_rng(2).normal(size=(25, 6))
    a, b = make_views(x, cfg, np.random.default_rng(0))
    assert np.array_equal(a.features, x)
    assert np.array_equal(b.features, x)
    assert not a.time_masked.any()


def test_freq_mask_zeroes_columns():
    cfg = SpecAugmentConfig(
        warp_factor=0,
        num_freq_masks=1,
        max_freq_mask_width=4,
        num_time_masks=0,
        time_scale_ratio=1.0,
    )
    x = np.ones((20, 10))
    hit = False
    for seed in range(30):
        view = augment(x, cfg, np.random.default_rng(seed))
        zero_cols = np.all(view.features == 0.0, axis=0)
        if zero_cols.any():
            hit = True
            width = int(zero_cols.sum())
            assert width <= 4
            # the masked band is contiguous
            idx = np.flatnonzero(zero_cols)
            assert np.all(np.diff(idx) == 1)
    assert hit


def test_augmented_view_validation():
    with pytest.raises(InvalidInputError):
        AugmentedView(np.zeros((4, 2)), np.zeros(3, dtype=bool))


def test_pool_mask_any():
    mask = np.array([0, 0, 1, 0, 0, 0, 0, 1, 0], dtype=bool)
    out = pool_mask_any(mask, 4)
    assert out.tolist() == [True, True, False]
    assert pool_mask_any(mask, 1).tolist() == mask.tolist()
    # frame filters pair pooled mask entries with downsampled encoder frames
    rng = np.random.default_rng(0)
    for T in range(1, 13):
        for factor in range(1, 5):
            mask = rng.random(T) < 0.3
            out = pool_mask_any(mask, factor)
            assert out.dtype == bool
            assert len(out) == _downsample(np.zeros((T, 1)), factor).shape[0]
            for i, pooled in enumerate(out):
                assert pooled == mask[i * factor : (i + 1) * factor].any()
