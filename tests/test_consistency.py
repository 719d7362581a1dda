import math

import numpy as np
import pytest

from ctckit import (
    DistributionLattice,
    LabelSequence,
    LogitLattice,
    Vocabulary,
    ctc_loss,
    softmax_rows,
)
from ctckit.consistency import (
    CrConfig,
    cr_loss,
    paired_loss_from_logits,
)
from ctckit.errors import InvalidInputError

from conftest import random_distribution

VAB = Vocabulary(("a", "b"))
RNG = np.random.default_rng(11)


def dist_of(rows):
    return DistributionLattice.from_probs(np.array(rows, dtype=np.float64))


def test_identical_branches_zero_loss_zero_grads():
    z = random_distribution(RNG, 6, 3)
    res = cr_loss(z, z, None, None, CrConfig())
    assert res.loss == 0.0
    assert np.all(res.grad_a == 0.0)
    assert np.all(res.grad_b == 0.0)
    flow = cr_loss(z, z, None, None, CrConfig(target_mode="flow_gradient"))
    assert flow.loss == 0.0
    assert np.all(flow.grad_a == 0.0)


def test_frozen_single_frame_value():
    # 1/2 * [KL((.5,.5)||(.75,.25)) + KL((.75,.25)||(.5,.5))], by hand:
    za = dist_of([[0.75, 0.25]])
    zb = dist_of([[0.5, 0.5]])
    kl_ba = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    kl_ab = 0.75 * math.log(0.75 / 0.5) + 0.25 * math.log(0.25 / 0.5)
    expected = 0.5 * (kl_ba + kl_ab)
    res = cr_loss(za, zb, None, None, CrConfig())
    assert res.loss == pytest.approx(expected, abs=1e-14)
    assert res.loss == pytest.approx(0.13732653608351372, abs=1e-12)
    # stop-gradient prediction-side gradients
    assert np.allclose(res.grad_a, 0.5 * (za.probs - zb.probs), atol=1e-15)
    assert np.allclose(res.grad_b, 0.5 * (zb.probs - za.probs), atol=1e-15)


def test_loss_nonnegative_and_symmetric():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        za = random_distribution(rng, 5, 3)
        zb = random_distribution(rng, 5, 3)
        r1 = cr_loss(za, zb, None, None, CrConfig())
        r2 = cr_loss(zb, za, None, None, CrConfig())
        assert r1.loss >= 0.0
        assert r1.loss == pytest.approx(r2.loss, abs=1e-12)


def test_one_hot_target_reduces_to_neg_log_prob():
    # when zb is one-hot at token k, branch a's term is -log za[t, k]
    za = dist_of([[0.6, 0.3, 0.1]])
    zb = dist_of([[0.0, 1.0, 0.0]])
    cfg = CrConfig()
    masks_b_all = np.ones(1, dtype=bool)
    # isolate branch a's term by excluding b's frames via its filter
    iso = CrConfig(frame_filter="exclude_self_masked")
    res = cr_loss(za, zb, np.zeros(1, dtype=bool), masks_b_all, iso)
    assert res.loss == pytest.approx(0.5 * -math.log(0.3), abs=1e-12)
    # target-side zeros contribute zero, so branch a's term stays moderate;
    # branch b's own prediction term hits log(0) on its zero entries, which
    # the sentinel turns into a huge finite penalty instead of NaN
    full = cr_loss(za, zb, None, None, cfg)
    assert not math.isnan(full.loss)
    assert full.loss > 1e20


def test_stop_gradient_target_branch_bitwise_zero():
    # only branch a's term is active; under stop_gradient branch b must
    # accumulate exactly nothing
    rng = np.random.default_rng(3)
    za = random_distribution(rng, 8, 3)
    zb = random_distribution(rng, 8, 3)
    cfg = CrConfig(frame_filter="exclude_self_masked")
    masks_a = np.zeros(8, dtype=bool)  # a keeps all frames
    masks_b = np.ones(8, dtype=bool)  # b drops all of its own term
    res = cr_loss(za, zb, masks_a, masks_b, cfg)
    assert res.loss > 0.0
    assert np.all(res.grad_b == 0.0)
    assert np.any(res.grad_a != 0.0)


def test_flow_gradient_target_branch_nonzero():
    rng = np.random.default_rng(3)
    za = random_distribution(rng, 8, 3)
    zb = random_distribution(rng, 8, 3)
    cfg = CrConfig(frame_filter="exclude_self_masked", target_mode="flow_gradient")
    masks_a = np.zeros(8, dtype=bool)
    masks_b = np.ones(8, dtype=bool)
    res = cr_loss(za, zb, masks_a, masks_b, cfg)
    assert np.any(res.grad_b != 0.0)


def fd_check(loss_fn, grad, base_logits, coords, h=1e-5, tol=1e-4):
    for t, k in coords:
        up = base_logits.copy()
        up[t, k] += h
        down = base_logits.copy()
        down[t, k] -= h
        fd = (loss_fn(up) - loss_fn(down)) / (2 * h)
        an = grad[t, k]
        assert abs(fd - an) <= tol * max(1.0, abs(an), abs(fd))


def test_grad_a_finite_difference_stop_gradient():
    # under stop_gradient the reported grad_a differentiates only the term
    # where za is the prediction; the fd oracle must therefore hold the
    # other term's target frozen, which this hand-written surrogate does
    rng = np.random.default_rng(7)
    la = rng.normal(size=(5, 3))
    lb = rng.normal(size=(5, 3))
    zb = softmax_rows(LogitLattice(lb))
    cfg = CrConfig()
    res = cr_loss(softmax_rows(LogitLattice(la)), zb, None, None, cfg)

    def surrogate(logits_a):
        za = softmax_rows(LogitLattice(logits_a))
        kl = (zb.probs * (zb.log_probs - za.log_probs)).sum()
        return 0.5 * float(kl)

    coords = [(int(rng.integers(5)), int(rng.integers(3))) for _ in range(12)]
    fd_check(surrogate, res.grad_a, la, coords)
    # and symmetrically for branch b
    za = softmax_rows(LogitLattice(la))
    res_b = cr_loss(za, zb, None, None, cfg)

    def surrogate_b(logits_b):
        z = softmax_rows(LogitLattice(logits_b))
        kl = (za.probs * (za.log_probs - z.log_probs)).sum()
        return 0.5 * float(kl)

    fd_check(surrogate_b, res_b.grad_b, lb, coords)


def test_both_grads_finite_difference_flow_gradient():
    rng = np.random.default_rng(8)
    la = rng.normal(size=(4, 3))
    lb = rng.normal(size=(4, 3))
    cfg = CrConfig(target_mode="flow_gradient")

    def loss_at(a, b):
        return cr_loss(
            softmax_rows(LogitLattice(a)), softmax_rows(LogitLattice(b)), None, None, cfg
        ).loss

    res = cr_loss(
        softmax_rows(LogitLattice(la)), softmax_rows(LogitLattice(lb)), None, None, cfg
    )
    coords = [(int(rng.integers(4)), int(rng.integers(3))) for _ in range(10)]
    fd_check(lambda a: loss_at(a, lb), res.grad_a, la, coords)
    fd_check(lambda b: loss_at(la, b), res.grad_b, lb, coords)


def test_frame_filter_partition():
    rng = np.random.default_rng(9)
    za = random_distribution(rng, 10, 3)
    zb = random_distribution(rng, 10, 3)
    masks_a = rng.random(10) < 0.4
    masks_b = rng.random(10) < 0.4
    full = cr_loss(za, zb, masks_a, masks_b, CrConfig(frame_filter="all"))
    on_masked = cr_loss(
        za, zb, masks_a, masks_b, CrConfig(frame_filter="exclude_self_unmasked")
    )
    on_unmasked = cr_loss(
        za, zb, masks_a, masks_b, CrConfig(frame_filter="exclude_self_masked")
    )
    assert full.loss == pytest.approx(on_masked.loss + on_unmasked.loss, abs=1e-12)
    assert np.allclose(
        full.grad_a, on_masked.grad_a + on_unmasked.grad_a, atol=1e-15
    )


def test_filter_requires_masks():
    z = random_distribution(RNG, 4, 3)
    with pytest.raises(InvalidInputError):
        cr_loss(z, z, None, None, CrConfig(frame_filter="exclude_self_masked"))


def test_hard_label_matches_argmax_ce():
    rng = np.random.default_rng(21)
    za = random_distribution(rng, 6, 3)
    zb = random_distribution(rng, 6, 3)
    res = cr_loss(za, zb, None, None, CrConfig(distance="hard_label_ce"))
    expected = 0.0
    for t in range(6):
        expected += -0.5 * za.log_probs[t, int(np.argmax(zb.probs[t]))]
        expected += -0.5 * zb.log_probs[t, int(np.argmax(za.probs[t]))]
    assert res.loss == pytest.approx(float(expected), abs=1e-12)


def test_hard_label_near_one_hot_small_loss():
    delta = 1e-3
    za = dist_of([[1 - delta, delta]])
    res = cr_loss(za, za, None, None, CrConfig(distance="hard_label_ce"))
    assert res.loss == pytest.approx(-math.log(1 - delta), abs=1e-12)
    assert res.loss == pytest.approx(delta, rel=1e-2)


def test_hard_label_grad_finite_difference():
    rng = np.random.default_rng(22)
    la = rng.normal(size=(5, 3))
    lb = rng.normal(size=(5, 3))
    zb = softmax_rows(LogitLattice(lb))
    cfg = CrConfig(distance="hard_label_ce")
    res = cr_loss(softmax_rows(LogitLattice(la)), zb, None, None, cfg)

    def loss_at(logits_a):
        return cr_loss(softmax_rows(LogitLattice(logits_a)), zb, None, None, cfg).loss

    coords = [(int(rng.integers(5)), int(rng.integers(3))) for _ in range(10)]
    fd_check(loss_at, res.grad_a, la, coords)


def test_paired_loss_identical_views_reduces_to_ctc():
    rng = np.random.default_rng(30)
    logits = LogitLattice(rng.normal(size=(7, 3)))
    y = LabelSequence((0, 1))
    single = ctc_loss(softmax_rows(logits), y, VAB).loss
    for alpha in (0.0, 0.2, 5.0):
        res = paired_loss_from_logits(
            logits, logits, y, VAB, None, None, CrConfig(alpha=alpha)
        )
        assert res.feasible
        assert abs(res.loss - single) <= 1e-12
        assert res.cr == 0.0


def test_paired_loss_infeasible_tagged():
    logits = LogitLattice(np.zeros((1, 3)))
    res = paired_loss_from_logits(
        logits, logits, LabelSequence((0, 0)), VAB, None, None, CrConfig()
    )
    assert not res.feasible
    assert res.loss == math.inf
    assert res.grad_a is None


def test_paired_loss_grads_finite_difference_flow_mode():
    # in flow_gradient mode the full paired loss is differentiable in both
    # branches, so plain fd on the public entry point applies
    rng = np.random.default_rng(31)
    la = rng.normal(size=(6, 3))
    lb = rng.normal(size=(6, 3))
    y = LabelSequence((1, 0))
    cfg = CrConfig(alpha=0.3, target_mode="flow_gradient")
    res = paired_loss_from_logits(
        LogitLattice(la), LogitLattice(lb), y, VAB, None, None, cfg
    )

    def loss_at_a(a):
        return paired_loss_from_logits(
            LogitLattice(a), LogitLattice(lb), y, VAB, None, None, cfg
        ).loss

    def loss_at_b(b):
        return paired_loss_from_logits(
            LogitLattice(la), LogitLattice(b), y, VAB, None, None, cfg
        ).loss

    coords = [(int(rng.integers(6)), int(rng.integers(3))) for _ in range(10)]
    fd_check(loss_at_a, res.grad_a, la, coords)
    fd_check(loss_at_b, res.grad_b, lb, coords)


def test_paired_loss_grads_finite_difference_stop_mode():
    # stop_gradient surrogate: per-branch CTC plus the branch's own
    # prediction-side KL with the other branch's distribution frozen
    rng = np.random.default_rng(31)
    la = rng.normal(size=(6, 3))
    lb = rng.normal(size=(6, 3))
    y = LabelSequence((1, 0))
    cfg = CrConfig(alpha=0.3)
    res = paired_loss_from_logits(
        LogitLattice(la), LogitLattice(lb), y, VAB, None, None, cfg
    )
    zb_frozen = softmax_rows(LogitLattice(lb))
    za_frozen = softmax_rows(LogitLattice(la))

    def surrogate_a(a):
        za = softmax_rows(LogitLattice(a))
        kl = (zb_frozen.probs * (zb_frozen.log_probs - za.log_probs)).sum()
        return 0.5 * ctc_loss(za, y, VAB).loss + cfg.alpha * 0.5 * float(kl)

    def surrogate_b(b):
        zb = softmax_rows(LogitLattice(b))
        kl = (za_frozen.probs * (za_frozen.log_probs - zb.log_probs)).sum()
        return 0.5 * ctc_loss(zb, y, VAB).loss + cfg.alpha * 0.5 * float(kl)

    coords = [(int(rng.integers(6)), int(rng.integers(3))) for _ in range(10)]
    fd_check(surrogate_a, res.grad_a, la, coords)
    fd_check(surrogate_b, res.grad_b, lb, coords)


def test_total_loss_through_model_forward():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(6, 4))
    W = rng.normal(size=(4, 3))
    mask = np.zeros(6, dtype=bool)
    res = paired_loss_from_logits(
        LogitLattice(x @ W), LogitLattice((x + 0.1) @ W), LabelSequence((0,)),
        VAB, mask, mask, CrConfig(),
    )
    assert res.feasible
    assert res.loss > 0
    assert res.grad_a.shape == (6, 3)


def test_total_loss_frame_count_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        paired_loss_from_logits(
            LogitLattice(np.zeros((6, 3))), LogitLattice(np.zeros((5, 3))),
            LabelSequence((0,)), VAB, None, None, CrConfig(),
        )
