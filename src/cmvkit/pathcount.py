"""First-return amplitudes by explicit path enumeration.

A unitary matrix doubles as the one-step evolution of a quantum walk on
its index set: entry U[j, k] is the amplitude for hopping from state k
to state j.  Summing, over every index path of length n that avoids a
forbidden set at its intermediate states, the product of the one-step
amplitudes along the path reproduces the n-step first-return amplitude
of a subspace.

Enumeration is exponential in n and exists purely as an independent
check on the amplitude recursion in `spectral`; the two share nothing
beyond entry lookup.  Amplitude products are taken in time order, i.e.
the step taken last is multiplied on the left.
"""

from __future__ import annotations

import numpy as np

from .linalg import certify, index_tuple

N_CAP = 8
PRUNE_FLOOR = 1e-14


def oracle_first_return(U, v, horizon: int) -> np.ndarray:
    """First-return amplitudes a_1..a_horizon of a subspace, by path
    enumeration, as a (horizon, k, k) stack whose entry n - 1 is a_n.

    Entry [n - 1][r, c] sums the amplitudes of all n-step paths from the
    c-th to the r-th spanning index of v that stay outside v in between.
    One depth-first pass serves every length: each time the walk steps
    onto v it adds to the entry of its depth.  Steps of modulus below
    PRUNE_FLOOR are skipped.  Agrees with spectral.first_return_amplitudes,
    which computes the same stack from powers of the sliced operator.
    """
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
