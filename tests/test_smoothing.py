import math

import numpy as np
import pytest

from ctckit import (
    DistributionLattice,
    LabelSequence,
    LogitLattice,
    Vocabulary,
    ctc_loss,
    ctc_loss_from_logits,
    softmax_rows,
)
from ctckit.errors import InvalidInputError
from ctckit.smoothing import (
    SrConfig,
    smooth_lattice,
    sr_loss_from_logits,
    sr_penalty,
)

from conftest import random_distribution

VAB = Vocabulary(("a", "b"))
RNG = np.random.default_rng(17)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SrConfig(beta=-1.0)


def test_interior_frames_use_full_kernel():
    d = random_distribution(RNG, 5, 3)
    s = smooth_lattice(d)
    expected = 0.25 * d.probs[1] + 0.5 * d.probs[2] + 0.25 * d.probs[3]
    assert np.allclose(s.probs[2], expected, atol=1e-15)


def test_boundary_frames_renormalize():
    d = random_distribution(RNG, 4, 3)
    s = smooth_lattice(d)
    # head: weights (0.5, 0.25) / 0.75
    expected0 = (0.5 * d.probs[0] + 0.25 * d.probs[1]) / 0.75
    expectedT = (0.25 * d.probs[2] + 0.5 * d.probs[3]) / 0.75
    assert np.allclose(s.probs[0], expected0, atol=1e-15)
    assert np.allclose(s.probs[3], expectedT, atol=1e-15)


def test_single_frame_identity():
    d = random_distribution(RNG, 1, 3)
    s = smooth_lattice(d)
    assert np.allclose(s.probs, d.probs, atol=1e-15)


def test_smoothing_preserves_row_normalization():
    for seed in range(10):
        d = random_distribution(np.random.default_rng(seed), 7, 4)
        s = smooth_lattice(d)
        assert np.allclose(s.probs.sum(axis=1), 1.0, atol=1e-12)


def test_constant_lattice_is_fixed_point():
    row = np.array([0.2, 0.5, 0.3])
    d = DistributionLattice.from_probs(np.tile(row, (6, 1)))
    s = smooth_lattice(d)
    assert np.allclose(s.probs, d.probs, atol=1e-15)


def test_interior_shift_equivariance():
    rng = np.random.default_rng(4)
    base = random_distribution(rng, 9, 3)
    shifted = DistributionLattice.from_probs(np.roll(base.probs, 1, axis=0))
    s_base = smooth_lattice(base)
    s_shift = smooth_lattice(shifted)
    # rows away from both boundaries and the roll seam agree after shifting
    assert np.allclose(s_shift.probs[3:8], s_base.probs[2:7], atol=1e-15)


def test_penalty_zero_iff_locally_constant():
    row = np.array([0.25, 0.25, 0.5])
    const = DistributionLattice.from_probs(np.tile(row, (5, 1)))
    value, grad = sr_penalty(const)
    assert value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(grad, 0.0, atol=1e-12)
    varied = random_distribution(RNG, 5, 3)
    value2, _ = sr_penalty(varied)
    assert value2 > 0.0


def test_sr_total_loss_components():
    rng = np.random.default_rng(6)
    logits = LogitLattice(rng.normal(size=(6, 3)))
    y = LabelSequence((0, 1))
    res = sr_loss_from_logits(logits, y, VAB, SrConfig(beta=0.2))
    plain = ctc_loss(softmax_rows(logits), y, VAB).loss
    assert res.feasible
    assert res.parts["ctc"] == pytest.approx(plain, abs=1e-12)
    assert res.loss == pytest.approx(
        res.parts["ctc"] + 0.2 * res.parts["sr"], abs=1e-12
    )
    assert res.parts["sr"] >= 0.0


def test_beta_zero_reduces_to_ctc():
    rng = np.random.default_rng(7)
    logits = LogitLattice(rng.normal(size=(5, 3)))
    y = LabelSequence((1,))
    res = sr_loss_from_logits(logits, y, VAB, SrConfig(beta=0.0))
    plain = ctc_loss_from_logits(logits, y, VAB)
    assert res.loss == pytest.approx(plain.loss, abs=1e-12)
    assert np.allclose(res.grads[0], plain.grads[0], atol=1e-12)


def test_infeasible_tagged():
    res = sr_loss_from_logits(
        LogitLattice(np.zeros((1, 3))), LabelSequence((0, 0)), VAB, SrConfig()
    )
    assert not res.feasible
    assert res.loss == math.inf
    assert res.grads is None


def test_grad_finite_difference_with_frozen_target():
    # the smoothed target is detached: the fd oracle freezes it at the base
    # point and differentiates only the prediction side
    rng = np.random.default_rng(8)
    base = rng.normal(size=(6, 3))
    y = LabelSequence((0, 1))
    cfg = SrConfig(beta=0.3)
    res = sr_loss_from_logits(LogitLattice(base), y, VAB, cfg)
    frozen = smooth_lattice(softmax_rows(LogitLattice(base)))

    def surrogate(logits):
        z = softmax_rows(LogitLattice(logits))
        kl = (frozen.probs * (frozen.log_probs - z.log_probs)).sum()
        return ctc_loss(z, y, VAB).loss + cfg.beta * float(kl)

    h = 1e-5
    for _ in range(12):
        t = int(rng.integers(0, 6))
        k = int(rng.integers(0, 3))
        up = base.copy()
        up[t, k] += h
        down = base.copy()
        down[t, k] -= h
        fd = (surrogate(up) - surrogate(down)) / (2 * h)
        an = res.grads[0][t, k]
        assert abs(fd - an) <= 1e-4 * max(1.0, abs(an), abs(fd))


def test_sr_total_loss_through_model_forward():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 4))
    W = rng.normal(size=(4, 3))
    res = sr_loss_from_logits(LogitLattice(x @ W), LabelSequence((0,)), VAB, SrConfig())
    assert res.feasible
    assert res.grads[0].shape == (6, 3)
