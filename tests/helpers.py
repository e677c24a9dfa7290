"""Small references that only the tests need."""

import numpy as np

from cmvkit.series import CONTRACTIVITY_GRID, CONTRACTIVITY_TOL, MatrixPowerSeries


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


def direct_sum_series(*parts: MatrixPowerSeries) -> MatrixPowerSeries:
    """Block-diagonal direct sum of series; the order is the shortest one
    involved."""
    if not parts:
        raise ValueError("need at least one part")
    n = min(p.order for p in parts)
    d = sum(p.block_dim for p in parts)
    out = np.zeros((n + 1, d, d), dtype=np.complex128)
    at = 0
    for p in parts:
        k = p.block_dim
        out[:, at : at + k, at : at + k] = p.coeffs[: n + 1]
        at += k
    return MatrixPowerSeries(out)


def column_selector(dim: int, indices) -> np.ndarray:
    """dim x len(indices) matrix whose k-th column is the basis vector e_{indices[k]}."""
    b = np.zeros((dim, len(indices)), dtype=np.complex128)
    for col, i in enumerate(indices):
        b[i, col] = 1.0
    return b


def selector_recursion(u, idx, horizon: int) -> np.ndarray:
    """a_n = P U (Q U)^{n-1} P in the original basis, with P = B B^dagger
    for the selector B: apply U, compress, subtract the V part, repeat."""
    b = column_selector(u.shape[0], idx)
    amps = np.empty((horizon, len(idx), len(idx)), dtype=np.complex128)
    x = b
    for n in range(horizon):
        y = u @ x
        amps[n] = b.conj().T @ y
        x = y - b @ amps[n]
    return amps


def grid_max_norm(f) -> float:
    """Largest operator norm of the series' truncated sum on the
    contractivity sample grid."""
    return float(np.linalg.norm(f.values_at(CONTRACTIVITY_GRID), ord=2, axis=(1, 2)).max())


def loop_product(a, b) -> np.ndarray:
    """Coefficients of the product of coefficient stacks (m, p, q) and
    (m, q, r), truncated at m terms, by one broadcast product per
    coefficient of a: the reference for the library's one-GEMM kernel."""
    m = len(a)
    out = np.zeros((m, a.shape[1], b.shape[2]), dtype=np.complex128)
    for i in range(m):
        # broadcasts (p, q) @ (m-i, q, r) over the coefficient axis
        out[i:] += a[i] @ b[: m - i]
    return out


def mark_schur_by_svd(f, tol: float = CONTRACTIVITY_TOL):
    """The contractivity check of MatrixPowerSeries.mark_schur with an SVD
    norm for every coefficient and grid value, no Frobenius pre-screen."""
    coeff_worst = float(np.linalg.norm(f.coeffs, ord=2, axis=(1, 2)).max())
    if coeff_worst > 1.0 + tol:
        raise ValueError(
            f"series has a coefficient of norm {coeff_worst:.6f}; "
            "a Schur function's coefficients are contractions"
        )
    radii = np.repeat((0.45, 0.9), 8)
    values = np.linalg.norm(f.values_at(CONTRACTIVITY_GRID), ord=2, axis=(1, 2))
    failing = np.flatnonzero(values > 1.0 + tol + radii ** (f.order + 1) / (1.0 - radii))
    if failing.size:
        raise ValueError(
            f"series is not contractive on the sample grid "
            f"({values[failing[0]]:.6f} at |z| = {radii[failing[0]]})"
        )
    return f


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


def draw_contraction(d: int, rng) -> np.ndarray:
    """One random contraction drawn and scaled on its own: a complex
    Gaussian matrix (real part, then imaginary part), then r ~ U(0,1), then
    a rescale to operator norm 0.9 r; a zero matrix stays zero.  The
    per-draw reference for the library's batched draw."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    target = 0.9 * rng.uniform(0.0, 1.0)
    norm = float(np.linalg.norm(g, 2))
    if norm == 0.0:
        return np.zeros((d, d), dtype=np.complex128)
    return np.asarray(g, dtype=np.complex128) * (target / norm)
