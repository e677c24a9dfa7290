"""Small references that only the tests need."""

import numpy as np

from cmvkit.linalg import as_matrix, certify, index_tuple
from cmvkit.pathcount import N_CAP, PRUNE_FLOOR
from cmvkit.schur import GROWTH_BOUND, _random_contractions, rho_left, rho_right
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


def theta(alpha) -> np.ndarray:
    """The 2d x 2d unitary rotation [[alpha^dagger, rho^L], [rho^R, -alpha]]
    of one parameter, from the public defects."""
    a = as_matrix(alpha)
    return np.block([[a.conj().T, rho_left(a)], [rho_right(a), -a]])


def cmv_factors(spec) -> tuple[np.ndarray, np.ndarray]:
    """The dense block-diagonal band factors L and M of a five-diagonal
    spec, C = L M and Chat = M L: L holds the even rotations and M the odd
    ones behind an identity block, and the one whose rotations stop short
    of the last block closes it with the boundary adjoint."""
    p, d, m = spec.params, spec.block_dim, spec.n_blocks - 1
    thetas = [theta(p.alpha(i)) for i in range(m)]
    closing = (p.terminal if p.finite else np.eye(d)).conj().T
    lf = direct_sum(*thetas[0::2], *[closing] * (m % 2 == 0))
    mf = direct_sum(np.eye(d), *thetas[1::2], *[closing] * (m % 2 == 1))
    return lf, mf


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


def stepwise_mobius_run(run, f, defects, norms, order: int) -> MatrixPowerSeries:
    """The backward Schur steps of a validated run, one parameter at a
    time on the fraction's two (order+1, d, d) stacks D and N, each
    product broadcast over the coefficient axis, and divided at the same
    growth points as the library's packed run.  Each division is
    loop_inverse(D) times N by loop_product, apart from the library's
    kernels: the reference for schur.mobius_step."""
    d = f.block_dim
    one = MatrixPowerSeries.one(d, order).coeffs
    den, num = one, np.zeros_like(one)
    num[: f.order + 1] = f.coeffs[: order + 1]

    def divided(den, num):
        return loop_product(loop_inverse(MatrixPowerSeries(den)).coeffs, num)

    growth = 1.0
    _, _, rl_invs, rr_invs = defects
    for a, rl_inv, rr_inv, norm in zip(run[::-1], rl_invs[::-1], rr_invs[::-1], norms[::-1]):
        kappa = (1.0 + norm) / np.sqrt(1.0 - norm * norm)
        if growth > 1.0 and growth * kappa > GROWTH_BOUND:
            den, num, growth = one, divided(den, num), 1.0
        tail = num[:-1]
        den, num = den @ rr_inv, den @ (rr_inv @ a)
        den[1:] += tail @ (rl_inv @ a.conj().T)
        num[1:] += tail @ rl_inv
        growth *= kappa
    return MatrixPowerSeries(divided(den, num))


def random_contraction(d: int, rng) -> np.ndarray:
    """Complex Gaussian matrix rescaled to operator norm 0.9 r, r ~ U(0,1):
    the one-parameter case of the library's batched draw."""
    return _random_contractions(d, 1, rng)[0]


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


def scalar_first_return(U, v, horizon: int) -> np.ndarray:
    """First-return amplitudes a_1..a_horizon by enumerating paths over
    scalar coordinates, one depth-first pass for every length: the
    reference for the site-path oracle.  Each time the walk steps onto v
    it adds to the entry of its depth; steps of modulus below PRUNE_FLOOR
    are skipped."""
    u = certify(U).matrix
    if not 1 <= horizon <= N_CAP:
        raise ValueError(f"horizon {horizon} outside 1..{N_CAP}")
    idx = index_tuple(u.shape[0], v)
    interior = [s for s in range(u.shape[0]) if s not in idx]
    entries = u.tolist()

    def steps(cur, rows):
        return [(k, entries[s][cur]) for k, s in enumerate(rows)
                if abs(entries[s][cur]) >= PRUNE_FLOOR]

    # successor lists, built once, by position in v and in `interior`
    ends = {s: steps(s, idx) for s in (*idx, *interior)}
    inner = {s: steps(s, interior) for s in (*idx, *interior)}
    out = np.zeros((horizon, len(idx), len(idx)), dtype=np.complex128)

    def walk(c: int, cur: int, depth: int, amp: complex) -> None:
        for r, step in ends[cur]:
            out[depth, r, c] += step * amp
        if depth + 1 < horizon:
            for k, step in inner[cur]:
                walk(c, interior[k], depth + 1, amp * step)

    for c, s in enumerate(idx):
        walk(c, s, 0, 1.0 + 0.0j)
    return out
