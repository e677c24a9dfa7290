"""First-return amplitudes by explicit path enumeration.

A unitary matrix doubles as the one-step evolution of a quantum walk on
its index set: entry U[j, k] is the amplitude for hopping from state k
to state j.  Summing, over every index path of length n that avoids a
forbidden set at its intermediate states, the product of the one-step
amplitudes along the path reproduces the n-step first-return amplitude
of a subspace.

Enumeration is exponential in n and exists purely as an independent
check on the resolvent route in `spectral`; the two share nothing
beyond entry lookup.  Amplitude products are taken in time order, i.e.
the step taken last is multiplied on the left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, certify
from .spectral import index_tuple

N_CAP = 8
PRUNE_FLOOR = 1e-14


@dataclass(frozen=True)
class PathSum:
    """Sum of amplitudes over all admissible paths between two states.

    `amplitude` is a complex number for scalar enumeration and a d x d
    array for block enumeration.  `n_paths` counts the scalar index
    paths actually summed; for blocks these run between the d indices
    of each end block.  With pruning enabled, zero-amplitude steps are
    skipped, so the count may shrink while the sum stays put.
    """

    source: int
    target: int
    avoided: tuple[int, ...]
    length: int
    amplitude: complex | np.ndarray
    n_paths: int


def _check_length(n: int) -> None:
    if n < 1:
        raise ValueError("paths have at least one step")
    if n > N_CAP:
        raise ValueError(f"path length {n} exceeds the enumeration cap {N_CAP}")


def _enumerate(u, sources, targets, interior, n, prune):
    """Sum step-amplitude products over n-step index paths.

    Entry (r, c) of the returned len(targets) x len(sources) matrix sums
    every path from sources[c] to targets[r] whose intermediate states
    all lie in `interior`; the second return value counts the paths
    summed.  Successor lists are built once, with their steps pruned.
    """
    entries = u.tolist()

    def steps(cur, rows):
        return [(k, entries[s][cur]) for k, s in enumerate(rows)
                if not (prune and abs(entries[s][cur]) < PRUNE_FLOOR)]

    inner = {s: steps(s, interior) for s in (*sources, *interior)}
    ends = {s: steps(s, targets) for s in (*sources, *interior)}
    out = np.zeros((len(targets), len(sources)), dtype=np.complex128)
    count = 0

    def extend(c: int, cur: int, remaining: int, amp: complex) -> None:
        nonlocal count
        if remaining == 1:
            for r, step in ends[cur]:
                out[r, c] += step * amp
                count += 1
            return
        for k, step in inner[cur]:
            extend(c, interior[k], remaining - 1, amp * step)

    for c, s in enumerate(sources):
        extend(c, s, n, 1.0 + 0.0j)
    return out, count


def path_amplitude_sum(U, source: int, target: int, avoid, n: int,
                       block_dim: int = 1, prune: bool = True) -> PathSum:
    """Sum amplitudes of n-step paths source -> target avoiding `avoid`.

    `avoid` constrains intermediate states only; the endpoints may or
    may not belong to it.  With block_dim = d > 1 the matrix is read as
    a block matrix, states are block indices, and the amplitude is the
    d x d product of one-step blocks, later steps multiplied on the
    left; it is summed as the scalar paths between the end blocks'
    indices through the indices of every state not avoided.
    """
    u = as_matrix(U)
    _check_length(n)
    d = block_dim
    if d < 1 or u.shape[0] % d:
        raise ValueError("matrix size is not a multiple of the block dimension")
    n_states = u.shape[0] // d
    avoided = tuple(sorted({int(s) for s in avoid}))
    for s in (source, target, *avoided):
        if not 0 <= s < n_states:
            raise ValueError(f"state {s} outside 0..{n_states - 1}")
    blocked = set(avoided)
    interior = [i for s in range(n_states) if s not in blocked
                for i in range(s * d, (s + 1) * d)]
    amp, count = _enumerate(u, range(source * d, (source + 1) * d),
                            range(target * d, (target + 1) * d),
                            interior, n, prune)
    return PathSum(source=int(source), target=int(target), avoided=avoided,
                   length=n, amplitude=amp[0, 0] if d == 1 else amp,
                   n_paths=count)


def oracle_first_return(U, v, n: int, prune: bool = True) -> np.ndarray:
    """n-step first-return amplitude of a subspace, by path enumeration.

    Entry (r, c) sums the amplitudes of all length-n paths from the
    c-th to the r-th spanning index of v that stay outside v in
    between.  Agrees with spectral.first_return_amplitudes, which
    computes the same matrix from powers of the sliced operator.
    """
    u = certify(U).matrix
    _check_length(n)
    idx = index_tuple(u.shape[0], v)
    blocked = set(idx)
    interior = [s for s in range(u.shape[0]) if s not in blocked]
    return _enumerate(u, idx, idx, interior, n, prune)[0]
