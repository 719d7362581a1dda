"""Decoders over distribution lattices: greedy best-path, prefix beam
search, and an exhaustive oracle for small instances.

All ties break toward the lowest token index (greedy) or the
lexicographically smallest label sequence (beam search and oracle), so
results are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ctc import ctc_loss
from .errors import CapacityError, InvalidInputError
from .lattice import (
    Alignment,
    DistributionLattice,
    LabelSequence,
    Vocabulary,
    collapse,
)
from .logspace import LOG_ZERO, LOG_ZERO_THRESHOLD, log_add_scalar


def greedy_decode(
    dist: DistributionLattice, vocab: Vocabulary
) -> tuple[LabelSequence, Alignment]:
    """Best-path decoding: per-frame argmax, then collapse.

    numpy's argmax resolves ties toward the lowest column index, which makes
    the all-uniform lattice decode to the empty sequence (blank wins).
    """
    _check(dist, vocab)
    path = tuple(int(v) for v in np.argmax(dist.probs, axis=1))
    alignment = Alignment(path)
    return collapse(alignment, vocab), alignment


@dataclass
class _PrefixMass:
    # log mass of paths ending in blank / ending in the prefix's last token
    blank: float = LOG_ZERO
    nonblank: float = LOG_ZERO

    def total(self) -> float:
        return log_add_scalar(self.blank, self.nonblank)


def prefix_beam_decode(
    dist: DistributionLattice, vocab: Vocabulary, beam: int = 4
) -> LabelSequence:
    """CTC prefix beam search.

    Each surviving prefix carries two log masses, for paths ending in blank
    and paths ending in the prefix's final token; the split is what lets a
    repeated token either extend the last emission or start a new one. After
    every frame the hypothesis set is pruned to ``beam`` prefixes by total
    mass, ties broken lexicographically. With a beam at least as large as
    the number of reachable prefixes the search is exact.
    """
    _check(dist, vocab)
    if beam < 1:
        raise InvalidInputError("beam width must be >= 1")
    logp = dist.log_probs
    beams: dict[tuple[int, ...], _PrefixMass] = {(): _PrefixMass(blank=0.0)}
    for t in range(dist.num_frames):
        nxt: dict[tuple[int, ...], _PrefixMass] = {}

        def bucket(prefix: tuple[int, ...]) -> _PrefixMass:
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
                    # same token again: without a blank it merges into the
                    # existing emission; after a blank it starts a new one
                    if mass.nonblank > LOG_ZERO_THRESHOLD:
                        entry = bucket(prefix)
                        entry.nonblank = log_add_scalar(
                            entry.nonblank, mass.nonblank + lp
                        )
                    if mass.blank > LOG_ZERO_THRESHOLD:
                        entry = bucket(prefix + (label,))
                        entry.nonblank = log_add_scalar(
                            entry.nonblank, mass.blank + lp
                        )
                elif total > LOG_ZERO_THRESHOLD:
                    entry = bucket(prefix + (label,))
                    entry.nonblank = log_add_scalar(entry.nonblank, total + lp)
        if not nxt:
            # every extension had zero probability; keep the old set alive
            nxt = beams
        ranked = sorted(nxt.items(), key=lambda kv: (-kv[1].total(), kv[0]))
        beams = dict(ranked[:beam])
    best = min(beams.items(), key=lambda kv: (-kv[1].total(), kv[0]))
    return LabelSequence(best[0])


def decode_oracle(
    dist: DistributionLattice,
    vocab: Vocabulary,
    *,
    max_frames: int = 5,
    max_vocab: int = 2,
) -> LabelSequence:
    """Exact maximum-posterior label sequence by scoring every candidate up
    to the frame-count length bound. Exponential in T, hence the caps."""
    T = dist.num_frames
    if T > max_frames or vocab.size > max_vocab:
        raise CapacityError(
            f"decode oracle capped at T <= {max_frames}, |V| <= {max_vocab}"
        )
    best_y: tuple[int, ...] | None = None
    best_score = -np.inf
    for length in range(T + 1):
        for labels in itertools.product(range(vocab.size), repeat=length):
            y = LabelSequence(labels)
            result = ctc_loss(dist, y, vocab)
            if not result.feasible:
                continue
            score = -result.loss
            if (
                score > best_score
                or (score == best_score and best_y is not None and labels < best_y)
            ):
                best_score = score
                best_y = labels
    assert best_y is not None  # the empty sequence is always feasible
    return LabelSequence(best_y)


def sequence_log_posterior(
    dist: DistributionLattice, y: LabelSequence, vocab: Vocabulary
) -> float:
    """log p(y | lattice); LOG_ZERO-scale for infeasible sequences."""
    result = ctc_loss(dist, y, vocab)
    if not result.feasible:
        return LOG_ZERO
    return -result.loss


def _check(dist: DistributionLattice, vocab: Vocabulary) -> None:
    if dist.extended_size != vocab.extended_size:
        raise InvalidInputError("lattice width does not match vocabulary")
