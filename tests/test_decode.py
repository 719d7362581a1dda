from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ctckit.logspace import LOG_ZERO, LOG_ZERO_THRESHOLD, log_add_scalar

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


# The prefix beam search as it was written before it moved to Python floats
# and (blank, nonblank) tuples: the reference the rewrite must match.
@dataclass
class _PrefixMass:
    blank: float = LOG_ZERO
    nonblank: float = LOG_ZERO

    def total(self) -> float:
        return log_add_scalar(self.blank, self.nonblank)


def _reference_prefix_beam(dist, vocab, beam):
    logp = dist.log_probs
    beams = {(): _PrefixMass(blank=0.0)}
    for t in range(dist.num_frames):
        nxt = {}

        def bucket(prefix):
            entry = nxt.get(prefix)
            if entry is None:
                entry = _PrefixMass()
                nxt[prefix] = entry
            return entry

        for prefix, mass in beams.items():
            total = mass.total()
            lp_blank = logp[t, 0]
            if lp_blank > LOG_ZERO_THRESHOLD and total > LOG_ZERO_THRESHOLD:
                entry = bucket(prefix)
                entry.blank = log_add_scalar(entry.blank, total + lp_blank)
            for label in range(vocab.size):
                lp = logp[t, label + 1]
                if lp <= LOG_ZERO_THRESHOLD:
                    continue
                if prefix and prefix[-1] == label:
                    if mass.nonblank > LOG_ZERO_THRESHOLD:
                        entry = bucket(prefix)
                        entry.nonblank = log_add_scalar(entry.nonblank, mass.nonblank + lp)
                    if mass.blank > LOG_ZERO_THRESHOLD:
                        entry = bucket(prefix + (label,))
                        entry.nonblank = log_add_scalar(entry.nonblank, mass.blank + lp)
                elif total > LOG_ZERO_THRESHOLD:
                    entry = bucket(prefix + (label,))
                    entry.nonblank = log_add_scalar(entry.nonblank, total + lp)
        if not nxt:
            nxt = beams
        ranked = sorted(nxt.items(), key=lambda kv: (-kv[1].total(), kv[0]))
        beams = dict(ranked[:beam])
    best = min(beams.items(), key=lambda kv: (-kv[1].total(), kv[0]))
    return LabelSequence(best[0])


@settings(max_examples=150)
@given(
    frames=st.integers(1, 12),
    vocab_size=st.integers(1, 4),
    beam=st.integers(1, 6),
    zero_share=st.sampled_from([0.0, 0.3, 0.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_beam_matches_the_reference(frames, vocab_size, beam, zero_share, seed):
    gen = np.random.default_rng(seed)
    raw = gen.gamma(0.5, 1.0, size=(frames, vocab_size + 1))
    raw[gen.random(raw.shape) < zero_share] = 0.0
    raw[raw.sum(axis=1) == 0.0, gen.integers(vocab_size + 1)] = 1.0
    dist = DistributionLattice.from_probs(raw / raw.sum(axis=1, keepdims=True))
    vocab = Vocabulary.generic(vocab_size)
    assert prefix_beam_decode(dist, vocab, beam) == _reference_prefix_beam(dist, vocab, beam)
