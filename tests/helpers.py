"""Small references that only the tests need."""

import numpy as np

from cmvkit.series import CONTRACTIVITY_GRID, MatrixPowerSeries


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


def loop_inverse(f):
    """Series inverse by its own coefficient recursion,
    g_k = -f_0^(-1) sum_{i=1..k} f_i g_{k-i}, kept apart from the library's
    division kernel so that it can check it."""
    inv0 = np.linalg.inv(f.coeffs[0])
    out = np.zeros_like(f.coeffs)
    out[0] = inv0
    for k in range(1, f.order + 1):
        acc = np.einsum("iab,ibc->ac", f.coeffs[1 : k + 1], out[:k][::-1])
        out[k] = -inv0 @ acc
    return MatrixPowerSeries(out)
