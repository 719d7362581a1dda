"""Log-domain arithmetic with a finite log-zero sentinel.

Probabilities of exactly zero are carried as LOG_ZERO instead of -inf so
that sums and differences of log values never produce NaN. Anything below
LOG_ZERO_THRESHOLD is treated as zero probability.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = -1.0e30
LOG_ZERO_THRESHOLD = -0.5e30


def log_of(p: np.ndarray) -> np.ndarray:
    """Elementwise log with zeros mapped to LOG_ZERO instead of -inf."""
    p = np.asarray(p, dtype=np.float64)
    out = np.full(p.shape, LOG_ZERO, dtype=np.float64)
    np.log(p, out=out, where=p > 0.0)
    return out


def log_add_scalar(a: float, b: float) -> float:
    """Scalar log-add; faster than the numpy ufunc inside tight loops."""
    if a <= LOG_ZERO_THRESHOLD:
        return b
    if b <= LOG_ZERO_THRESHOLD:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))
