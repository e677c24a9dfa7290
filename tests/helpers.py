"""Small references that only the tests need."""

import numpy as np

from cmvkit.series import CONTRACTIVITY_GRID


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal direct sum of square matrices."""
    mats = [np.asarray(b, dtype=np.complex128) for b in blocks]
    for b in mats:
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("direct_sum expects square blocks")
    n = sum(b.shape[0] for b in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b in mats:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def grid_max_norm(f) -> float:
    """Largest operator norm of the series' truncated sum on the
    contractivity sample grid."""
    return float(np.linalg.norm(f.values_at(CONTRACTIVITY_GRID), ord=2, axis=(1, 2)).max())
