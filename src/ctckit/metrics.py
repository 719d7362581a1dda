"""Edit-distance evaluation.

Token error rate divides by max(1, reference length), so an empty
reference with a nonempty hypothesis counts every inserted token
(e.g. a 2-token hypothesis against an empty reference scores 2.0).
Corpus rate pools distances and reference lengths before dividing,
weighting long references more than a mean of per-utterance rates would.
"""

from __future__ import annotations

from collections.abc import Sequence


def levenshtein(a: Sequence, b: Sequence) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def corpus_token_error_rate(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Pooled rate over (hyp, ref) pairs."""
    total_dist = sum(levenshtein(tuple(h), tuple(r)) for h, r in pairs)
    total_ref = sum(len(r) for _, r in pairs)
    return total_dist / max(1, total_ref)
