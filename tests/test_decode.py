import numpy as np
import pytest

from ctckit import (
    CapacityError,
    DistributionLattice,
    LabelSequence,
    Vocabulary,
    ctc_loss,
)
from ctckit.decode import (
    decode_oracle,
    greedy_decode,
    prefix_beam_decode,
)

from conftest import one_hot_distribution, random_distribution

VA = Vocabulary(("a",))
VAB = Vocabulary(("a", "b"))


def test_greedy_one_hot_path():
    d = one_hot_distribution((1, 1, 0, 2), 3)
    y, path = greedy_decode(d, VAB)
    assert tuple(path) == (1, 1, 0, 2)
    assert tuple(y) == (0, 1)


def test_greedy_uniform_ties_to_blank():
    d = DistributionLattice.from_probs(np.full((4, 3), 1.0 / 3.0))
    y, path = greedy_decode(d, VAB)
    assert tuple(path) == (0, 0, 0, 0)
    assert tuple(y) == ()


def test_greedy_output_has_no_blanks():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = random_distribution(rng, 6, 3)
        y, _ = greedy_decode(d, VAB)
        assert all(0 <= v < VAB.size for v in y)


def test_blank_dominant_lattice_decodes_empty():
    probs = np.tile(np.array([0.9, 0.06, 0.04]), (5, 1))
    d = DistributionLattice.from_probs(probs)
    assert tuple(decode_oracle(d, VAB)) == ()
    assert tuple(prefix_beam_decode(d, VAB, beam=4)) == ()
    assert tuple(greedy_decode(d, VAB)[0]) == ()


def test_prefix_beam_validates_args():
    d = one_hot_distribution((0,), 2)
    with pytest.raises(Exception):
        prefix_beam_decode(d, VA, beam=0)


def test_oracle_capacity_guard():
    rng = np.random.default_rng(1)
    with pytest.raises(CapacityError):
        decode_oracle(random_distribution(rng, 6, 2), VA)
    with pytest.raises(CapacityError):
        decode_oracle(random_distribution(rng, 3, 4), Vocabulary(("a", "b", "c")))


@pytest.mark.parametrize("seed", range(40))
def test_saturating_beam_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 6))
    vocab = VAB if rng.integers(2) else VA
    d = random_distribution(rng, T, vocab.extended_size)
    exact = decode_oracle(d, vocab)
    beam = prefix_beam_decode(d, vocab, beam=4096)
    assert tuple(beam) == tuple(exact)


@pytest.mark.parametrize("seed", range(15))
def test_one_hot_agreement_all_decoders(seed):
    rng = np.random.default_rng(100 + seed)
    T = int(rng.integers(1, 6))
    path = tuple(int(v) for v in rng.integers(0, 3, size=T))
    d = one_hot_distribution(path, 3)
    greedy_y, _ = greedy_decode(d, VAB)
    assert tuple(prefix_beam_decode(d, VAB, beam=4)) == tuple(greedy_y)
    if T <= 5:
        assert tuple(decode_oracle(d, VAB)) == tuple(greedy_y)


@pytest.mark.parametrize("seed", range(20))
def test_wider_beam_never_hurts_posterior(seed):
    rng = np.random.default_rng(200 + seed)
    T = int(rng.integers(2, 8))
    d = random_distribution(rng, T, 3)
    prev = -np.inf
    for beam in (1, 2, 4, 8, 64):
        y = prefix_beam_decode(d, VAB, beam=beam)
        score = -ctc_loss(d, y, VAB).loss
        assert score >= prev - 1e-9
        prev = score


def test_beam_one_is_still_sound():
    rng = np.random.default_rng(9)
    d = random_distribution(rng, 5, 3)
    y = prefix_beam_decode(d, VAB, beam=1)
    assert all(0 <= v < VAB.size for v in y)
