"""Small references that only the tests need."""

import numpy as np

from cmvkit.linalg import UNITARY_TOL, as_matrix, certify, index_tuple, is_unitary, op_norm
from cmvkit.pathcount import N_CAP, PRUNE_FLOOR
from cmvkit.schur import (
    GROWTH_BOUND,
    TERMINAL_DETECT,
    TERMINAL_GUARD,
    SchurParameters,
    _random_contractions,
    random_unitary,
    rho_left,
    rho_right,
    synthesize,
)
from cmvkit.series import CONTRACTIVITY_GRID, CONTRACTIVITY_TOL, MatrixPowerSeries
from cmvkit.spectral import _CHUNK, RESOLVENT_SAMPLES, _takes_stages


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


def embed(m, positions, total_dim: int) -> np.ndarray:
    """Place a small square matrix at the given index positions of an
    identity of size total_dim; the positions pass index_tuple.  The dense
    reference for ``OverlapFactorization.product``."""
    a = as_matrix(m)
    pos = index_tuple(total_dim, positions)
    if a.shape != (len(pos), len(pos)):
        raise ValueError("matrix size does not match the position list")
    out = np.eye(total_dim, dtype=np.complex128)
    out[np.ix_(pos, pos)] = a
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


def stepwise_first_return(U, v, horizon: int) -> np.ndarray:
    """a_n = P U (Q U)^{n-1} P one product per step in the V-first order:
    the columns of U outside V, read in that order, act on the block of
    vectors outside V, and a_n is the head of the result.  The reference
    for the staged kernel of spectral.first_return_amplitudes."""
    u = certify(U).matrix
    idx = np.array(index_tuple(u.shape[0], v), dtype=np.intp)
    rest = np.setdiff1d(np.arange(u.shape[0]), idx)
    k = idx.size
    perm = np.concatenate((idx, rest))
    amps = np.empty((horizon, k, k), dtype=np.complex128)
    if horizon == 0:
        return amps
    m = u[np.ix_(perm, rest)]
    x = u[np.ix_(perm, idx)]
    y = np.empty_like(x)
    amps[0] = x[:k]
    for step in range(1, horizon):
        np.matmul(m, x[k:], out=y)
        amps[step] = y[:k]
        x, y = y, x
    return amps


def ring_first_return(U, v, horizon: int) -> np.ndarray:
    """spectral.first_return_amplitudes on a ring of Krylov blocks: two
    for one-block steps, _CHUNK where stages follow, each step one
    product into a contiguous n x k block and its head copied out at
    once; the first stage's input is the ring's tails transposed side by
    side, and each stage's heads are copied out as it ends.  The same
    GEMMs on the same operands as the one-buffer kernel, which must
    match it bit for bit."""
    u = certify(U).matrix
    n = u.shape[0]
    idx = np.array(index_tuple(n, v), dtype=np.intp)
    rest = np.setdiff1d(np.arange(n), idx)
    k = idx.size
    perm = np.concatenate((idx, rest))[:, None]
    m = u[perm, rest]
    staged = horizon > _CHUNK and _takes_stages(n, k)
    amps = np.empty((horizon, k, k), dtype=np.complex128)
    ring = np.empty((_CHUNK if staged else 2, n, k), dtype=np.complex128)
    ring[0] = u[perm, idx]
    blocks = list(ring)
    heads, tails = [b[:k] for b in blocks], [b[k:] for b in blocks]
    amps[:1] = heads[0]
    for step in range(1, _CHUNK if staged else horizon):
        np.matmul(m, tails[(step - 1) % len(ring)], out=blocks[step % len(ring)])
        amps[step] = heads[step % len(ring)]
    if not staged:
        return amps
    for _ in range(_CHUNK.bit_length() - 1):
        m = m @ m[k:]
    last = ring[:, k:].transpose(1, 0, 2).reshape(n - k, _CHUNK * k)
    for done in range(_CHUNK, horizon, _CHUNK):
        wide = m @ last
        heads = wide[:k].reshape(k, _CHUNK, k)[:, : horizon - done]
        amps[done : done + _CHUNK] = heads.transpose(1, 0, 2)
        last = wide[k:]
    return amps


def projector_resolvent(U, v, z) -> np.ndarray:
    """P (U - z Q)^{-1} P in the original basis, ``z`` one point or a
    sequence (stacked along a leading axis), every point in one stacked
    solve.  The reference for spectral.resolvent_compression's ring."""
    u = certify(U).matrix
    n = u.shape[0]
    idx = np.array(index_tuple(n, v), dtype=np.intp)
    rest = np.setdiff1d(np.arange(n), idx)
    k = idx.size
    points = np.asarray(z, dtype=np.complex128)
    zs = points.reshape(-1)
    # U - z Q differs from U only on the diagonal outside V
    shifted = np.repeat(u[None], zs.size, axis=0)
    shifted.reshape(zs.size, n * n)[:, rest * (n + 1)] -= zs[:, None]
    b = np.zeros((n, k), dtype=np.complex128)
    b[idx, np.arange(k)] = 1.0
    values = np.linalg.solve(shifted, np.broadcast_to(b, (zs.size, n, k)))[:, idx]
    return values.reshape(points.shape + (k, k))


def ring_less_tail_by_solve(U, v, horizon: int) -> np.ndarray:
    """f_V less its tail past a_h at the eight RESOLVENT_SAMPLES, h = 8q + 1,
    from one solve of (1 - r^8 E^8) X = (1 - r^{8q} E^{8q}) B^dagger, E^{8q}
    B^dagger being q thin products with E^8: the form that
    spectral.resolvent_compression's finite geometric sum replaces."""
    u = certify(U).matrix
    n = u.shape[0]
    idx = np.array(index_tuple(n, v), dtype=np.intp)
    rest = np.setdiff1d(np.arange(n), idx)
    k = idx.size
    perm = np.concatenate((idx, rest))
    adj = u[np.ix_(perm, perm)].conj().T  # [[A^dagger, C^dagger], [B^dagger, E]]
    krylov = adj[:, k:]
    for p in (1, 2, 4):
        krylov = np.concatenate((krylov[: p * k], krylov @ krylov[p * k :]))
    e8, rhs = krylov[8 * k :], adj[k:, :k]
    tail = rhs
    for _ in range(horizon // 8):
        tail = e8 @ tail
    r = abs(RESOLVENT_SAMPLES[0])
    x = np.linalg.solve(np.eye(n - k) - r**8 * e8, rhs - r ** (horizon - 1) * tail)
    terms = (krylov[: 8 * k] @ x).reshape(8, k * k)
    powers = np.vander(np.array(RESOLVENT_SAMPLES), 9, increasing=True)[:, 1:]
    return adj[:k, :k] + (powers @ terms).reshape(8, k, k)


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


def series_forward(f, steps: int) -> SchurParameters:
    """The forward Schur algorithm in series algebra, one series quotient
    per parameter,

        f' = z^(-1) rR^(-1) (f - a)(1 - a†f)^(-1) rL,

    with the same terminal detection as the library, a terminal read off
    the unit sphere within the forward error taken as its polar factor:
    the reference for schur.schur_forward, which steps a packed fraction
    instead."""
    d = f.block_dim
    const = MatrixPowerSeries.constant
    alphas = []
    cur = f
    for _ in range(steps):
        a = np.array(cur.coeff(0))
        if op_norm(a) > TERMINAL_DETECT:
            guard = TERMINAL_GUARD * np.finfo(float).eps / np.prod([1.0 - op_norm(b) ** 2 for b in alphas])
            u, sigma, vh = np.linalg.svd(a)
            if is_unitary(a).residual > UNITARY_TOL and np.abs(sigma - 1.0).max() <= guard:
                a = u @ vh
            return SchurParameters(d, tuple(alphas), a)
        alphas.append(a)
        # the quotient vanishes at 0; dropping that coefficient divides by z
        quotient = (cur - a) / (1 - const(a.conj().T, cur.order) * cur)
        nxt = MatrixPowerSeries(quotient.coeffs[1:])
        cur = const(np.linalg.inv(rho_right(a)), nxt.order) * nxt * const(rho_left(a), nxt.order)
    return SchurParameters(d, tuple(alphas), None)


def lost_terminal_series() -> MatrixPowerSeries:
    """Order-64 series of 14 scalar parameters, one of norm 0.99 and the
    others of norm 0.99 U(0, 1), closed by a unimodular terminal.  Their
    defects amplify rounding so much that the forward algorithm reads the
    terminal's coefficient at norm below TERMINAL_DETECT."""
    rng = np.random.default_rng([1, 14, 4])
    g = rng.standard_normal((14, 1, 1)) + 1j * rng.standard_normal((14, 1, 1))
    r = 0.99 * rng.uniform(0, 1, 14)
    r[rng.integers(14)] = 0.99
    g *= (r / np.linalg.norm(g, 2, axis=(1, 2)))[:, None, None]
    return synthesize(SchurParameters(1, g, random_unitary(1, rng)), 64)


def two_sided_unitary_residual(m) -> float:
    """max(||M^dagger M - 1||_F, ||M M^dagger - 1||_F), the reference for
    linalg.is_unitary and linalg.unitary_residuals, which form only M^dagger M."""
    a = as_matrix(m)
    adj, eye = a.conj().T, np.eye(len(a))
    return max(float(np.linalg.norm(adj @ a - eye)), float(np.linalg.norm(a @ adj - eye)))


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
