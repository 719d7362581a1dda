import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctckit import (
    CapacityError,
    CrConfig,
    LabelSequence,
    LogitLattice,
    SrConfig,
    Vocabulary,
    ctc_loss,
    ctc_loss_from_logits,
    ctc_loss_oracle,
    is_feasible,
    occupancy_marginals,
    paired_loss_from_logits,
    softmax_rows,
    sr_loss_from_logits,
)
from ctckit.logspace import log_add_scalar

from conftest import one_hot_distribution, random_distribution

VA = Vocabulary(("a",))
VAB = Vocabulary(("a", "b"))
RNG = np.random.default_rng(42)
ALPHA_BETA_TOL = 1e-8


def uniform_dist(num_frames, extended_size):
    from ctckit import DistributionLattice

    return DistributionLattice.from_probs(
        np.full((num_frames, extended_size), 1.0 / extended_size)
    )


def test_single_frame_single_label():
    d = uniform_dist(1, 2)
    res = ctc_loss(d, LabelSequence((0,)), VA)
    assert res.feasible
    assert res.loss == pytest.approx(-math.log(0.5), abs=1e-12)


def test_two_frames_uniform_three_paths():
    # paths (a,blank), (blank,a), (a,a) each carry 0.25
    d = uniform_dist(2, 2)
    res = ctc_loss(d, LabelSequence((0,)), VA)
    assert res.loss == pytest.approx(-math.log(0.75), abs=1e-12)


def test_all_blank_target():
    d = random_distribution(RNG, 4, 3)
    res = ctc_loss(d, LabelSequence(()), VAB)
    expected = -float(np.sum(d.log_probs[:, 0]))
    assert res.loss == pytest.approx(expected, abs=1e-12)


def test_infeasible_is_tagged_not_raised():
    d = uniform_dist(2, 2)
    res = ctc_loss(d, LabelSequence((0, 0)), VA)
    assert not res.feasible
    assert res.loss == math.inf
    assert res.alpha is None and res.beta is None and res.extended is None


def test_feasibility_rule():
    assert is_feasible(3, LabelSequence((0, 0)))
    assert not is_feasible(2, LabelSequence((0, 0)))
    assert is_feasible(2, LabelSequence((0, 1)))


def test_oracle_frozen_values():
    d = uniform_dist(2, 2)
    assert ctc_loss_oracle(d, LabelSequence((0,)), VA) == pytest.approx(
        -math.log(0.75), abs=1e-14
    )
    assert ctc_loss_oracle(d, LabelSequence((0, 0)), VA) == math.inf


def test_oracle_capacity_guard():
    with pytest.raises(CapacityError):
        ctc_loss_oracle(uniform_dist(9, 2), LabelSequence((0,)), VA)
    wide = Vocabulary(("a", "b", "c", "d"))
    with pytest.raises(CapacityError):
        ctc_loss_oracle(uniform_dist(2, 5), LabelSequence((0,)), wide)


@pytest.mark.parametrize("seed", range(25))
def test_dp_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 7))
    vocab = VAB if rng.integers(2) else VA
    d = random_distribution(rng, T, vocab.extended_size)
    while True:
        U = int(rng.integers(0, 4))
        y = LabelSequence(tuple(rng.integers(0, vocab.size, size=U)))
        if is_feasible(T, y):
            break
    dp = ctc_loss(d, y, vocab)
    oracle = ctc_loss_oracle(d, y, vocab)
    assert abs(dp.loss - oracle) <= 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_alpha_beta_consistency(seed):
    rng = np.random.default_rng(100 + seed)
    d = random_distribution(rng, 6, 3)
    res = ctc_loss(d, LabelSequence((0, 1, 0)), VAB)
    # read the likelihood out of beta at frame 0 instead of alpha at T-1
    emit0 = d.log_probs[0, res.extended]
    from_beta = log_add_scalar(
        res.beta[0, 0] + emit0[0], res.beta[0, 1] + emit0[1]
    )
    assert abs(-res.loss - from_beta) <= ALPHA_BETA_TOL


def test_occupancy_rows_sum_to_one():
    d = random_distribution(RNG, 5, 3)
    res = ctc_loss(d, LabelSequence((1, 0)), VAB)
    gamma = occupancy_marginals(d, res)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(gamma >= 0.0)


def test_grad_frozen_single_frame():
    # symmetric logits, single label: posterior puts all mass on the label
    res = ctc_loss_from_logits(
        LogitLattice(np.zeros((1, 2))), LabelSequence((0,)), VA
    )
    assert res.grads[0][0, 0] == pytest.approx(0.5, abs=1e-12)
    assert res.grads[0][0, 1] == pytest.approx(-0.5, abs=1e-12)


def test_grad_rows_sum_to_zero():
    logits = LogitLattice(RNG.normal(size=(6, 3)))
    (grad,) = ctc_loss_from_logits(logits, LabelSequence((0, 1)), VAB).grads
    assert np.all(np.abs(grad.sum(axis=1)) <= 1e-9)


SR = SrConfig(beta=0.3)
CR = CrConfig(alpha=0.2)

# objective -> (its loss from its parts, number of views)
OBJECTIVE_PARTS = {
    "ctc": (lambda p: p["ctc"], 1),
    "sr_ctc": (lambda p: p["ctc"] + SR.beta * p["sr"], 1),
    "cr_ctc": (lambda p: 0.5 * (p["ctc_a"] + p["ctc_b"]) + CR.alpha * p["cr"], 2),
}


@pytest.mark.parametrize("feasible", [True, False], ids=["feasible", "infeasible"])
@pytest.mark.parametrize("objective", sorted(OBJECTIVE_PARTS))
def test_objective_parts_add_up(objective, feasible):
    # (0, 0) needs a forced blank, so 2 frames cannot hold it
    y, T = (LabelSequence((0, 1)), 6) if feasible else (LabelSequence((0, 0)), 2)
    rng = np.random.default_rng(12)
    la = LogitLattice(rng.normal(size=(T, 3)))
    lb = LogitLattice(rng.normal(size=(T, 3)))
    if objective == "ctc":
        res = ctc_loss_from_logits(la, y, VAB)
    elif objective == "sr_ctc":
        res = sr_loss_from_logits(la, y, VAB, SR)
    else:
        res = paired_loss_from_logits(la, lb, y, VAB, None, None, CR)
    if not feasible:
        assert not res.feasible
        assert res.loss == math.inf
        assert res.grads is None
        assert res.parts == {}
        return
    total_of, views = OBJECTIVE_PARTS[objective]
    assert res.feasible
    assert res.loss == total_of(res.parts)
    assert all(math.isfinite(v) for v in res.parts.values())
    assert len(res.grads) == views
    assert all(g.shape == (T, 3) for g in res.grads)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(5, 3))
    y = LabelSequence((1, 0))
    (grad,) = ctc_loss_from_logits(LogitLattice(base), y, VAB).grads
    h = 1e-5
    for _ in range(12):
        t = int(rng.integers(0, base.shape[0]))
        k = int(rng.integers(0, base.shape[1]))
        up = base.copy()
        up[t, k] += h
        down = base.copy()
        down[t, k] -= h
        fd = (
            ctc_loss(softmax_rows(LogitLattice(up)), y, VAB).loss
            - ctc_loss(softmax_rows(LogitLattice(down)), y, VAB).loss
        ) / (2 * h)
        an = grad[t, k]
        assert abs(fd - an) <= 1e-4 * max(1.0, abs(an))


@settings(max_examples=30)
@given(st.integers(0, 10**9))
def test_loss_direction_under_target_token_boost(seed):
    # Boosting the target label's probability at one frame (renormalizing
    # the row) moves the loss down exactly when the alignment posterior of
    # that label exceeds its prior at the frame, and up when it falls below.
    # A universal "never increases" claim is false: e.g. seed 41382 yields a
    # frame where the posterior (0.042) sits under the prior (0.089) and the
    # enumerated loss rises from 4.47119 to 4.49395 under a 1.5x boost.
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 6))
    d = random_distribution(rng, T, 3)
    y = LabelSequence((0,))
    base = ctc_loss(d, y, VAB)
    t = int(rng.integers(0, T))
    col = VAB.lattice_index(0)
    gamma = occupancy_marginals(d, base)
    margin = gamma[t, col] - d.probs[t, col]
    probs = d.probs.copy()
    probs[t, col] *= 1.0001  # small boost keeps the first-order sign valid
    probs[t] /= probs[t].sum()
    from ctckit import DistributionLattice

    boosted = ctc_loss(DistributionLattice.from_probs(probs), y, VAB).loss
    if margin > 1e-6:
        assert boosted < base.loss
    elif margin < -1e-6:
        assert boosted > base.loss


def test_counterexample_to_universal_boost_monotonicity():
    # frozen instance where the boost raises the loss; the enumeration
    # oracle agrees with the DP on both sides, so this is real behavior
    rng = np.random.default_rng(41382)
    T = int(rng.integers(1, 6))
    d = random_distribution(rng, T, 3)
    y = LabelSequence((0,))
    t = int(rng.integers(0, T))
    probs = d.probs.copy()
    col = VAB.lattice_index(0)
    probs[t, col] *= 1.5
    probs[t] /= probs[t].sum()
    from ctckit import DistributionLattice

    boosted_lat = DistributionLattice.from_probs(probs)
    base = ctc_loss(d, y, VAB).loss
    boosted = ctc_loss(boosted_lat, y, VAB).loss
    assert boosted > base
    assert abs(base - ctc_loss_oracle(d, y, VAB)) <= 1e-9
    assert abs(boosted - ctc_loss_oracle(boosted_lat, y, VAB)) <= 1e-9


def test_one_hot_lattice_scores_its_own_path():
    # lattice pinned to (a, a, blank, b): that label sequence has loss 0
    d = one_hot_distribution((1, 1, 0, 2), 3)
    res = ctc_loss(d, LabelSequence((0, 1)), VAB)
    assert res.feasible
    assert res.loss == pytest.approx(0.0, abs=1e-12)
    # any other sequence gets (numerically) zero probability
    other = ctc_loss(d, LabelSequence((1,)), VAB)
    assert other.loss > 1e20


def test_loss_finite_for_feasible_soft_lattices():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        d = random_distribution(rng, 7, 3)
        res = ctc_loss(d, LabelSequence((0, 1, 1)), VAB)
        assert res.feasible and math.isfinite(res.loss)
        assert res.loss >= 0.0
