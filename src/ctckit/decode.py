"""Decoders over distribution lattices: greedy best-path, prefix beam
search, and an exhaustive oracle for small instances.

All ties break toward the lowest token index (greedy) or the
lexicographically smallest label sequence (beam search and oracle), so
results are deterministic.
"""

from __future__ import annotations

import itertools

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


def prefix_beam_decode(
    dist: DistributionLattice, vocab: Vocabulary, beam: int = 4
) -> LabelSequence:
    """CTC prefix beam search.

    Each surviving prefix carries two log masses, (blank, nonblank), for
    paths ending in blank and paths ending in the prefix's final token; the
    split is what lets a repeated token either extend the last emission or
    start a new one. After every frame the hypothesis set is pruned to
    ``beam`` prefixes by total mass, ties broken lexicographically. With a
    beam at least as large as the number of reachable prefixes the search
    is exact.
    """
    _check(dist, vocab)
    if beam < 1:
        raise InvalidInputError("beam width must be >= 1")
    empty = (LOG_ZERO, LOG_ZERO)
    beams: dict[tuple[int, ...], tuple[float, float]] = {(): (0.0, LOG_ZERO)}
    for row in dist.log_probs.tolist():
        lp_blank = row[0]
        nxt: dict[tuple[int, ...], tuple[float, float]] = {}
        for prefix, (blank, nonblank) in beams.items():
            total = log_add_scalar(blank, nonblank)
            if lp_blank > LOG_ZERO_THRESHOLD and total > LOG_ZERO_THRESHOLD:
                b, nb = nxt.get(prefix, empty)
                nxt[prefix] = (log_add_scalar(b, total + lp_blank), nb)
            last = prefix[-1] if prefix else -1
            for label, lp in enumerate(row[1:]):
                if lp <= LOG_ZERO_THRESHOLD:
                    continue
                if label == last:
                    # same token again: without a blank it merges into the
                    # existing emission; after a blank it starts a new one
                    if nonblank > LOG_ZERO_THRESHOLD:
                        b, nb = nxt.get(prefix, empty)
                        nxt[prefix] = (b, log_add_scalar(nb, nonblank + lp))
                    if blank > LOG_ZERO_THRESHOLD:
                        longer = prefix + (label,)
                        b, nb = nxt.get(longer, empty)
                        nxt[longer] = (b, log_add_scalar(nb, blank + lp))
                elif total > LOG_ZERO_THRESHOLD:
                    longer = prefix + (label,)
                    b, nb = nxt.get(longer, empty)
                    nxt[longer] = (b, log_add_scalar(nb, total + lp))
        if not nxt:
            # every extension had zero probability; keep the old set alive
            nxt = beams
        ranked = sorted(nxt.items(), key=lambda kv: (-log_add_scalar(*kv[1]), kv[0]))
        beams = dict(ranked[:beam])
    best = min(beams.items(), key=lambda kv: (-log_add_scalar(*kv[1]), kv[0]))
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


def _check(dist: DistributionLattice, vocab: Vocabulary) -> None:
    if dist.extended_size != vocab.extended_size:
        raise InvalidInputError("lattice width does not match vocabulary")
