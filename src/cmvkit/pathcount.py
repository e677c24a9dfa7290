"""First-return amplitudes by explicit path enumeration over sites.

A unitary matrix doubles as the one-step evolution of a quantum walk on
its index set: entry U[j, k] is the amplitude for hopping from state k
to state j.  Group the indices into sites, runs of ``block_dim``
consecutive indices, so that each step of the walk is one d x d block
U[t, s] from site s to site t.  Summing, over every site path of length
n that avoids the sites of a subspace V at its intermediate steps, the
ordered product of the blocks along the path reproduces the n-step
first-return amplitude of V.  These are the diagrams of a CMV walk: the
sites are its blocks, and a step is one block of the operator.

Enumeration is exponential in n and exists purely as an independent
check on the amplitude recursion in `spectral`; the two share nothing
beyond entry lookup.  Paths are never merged by (site, depth), since that
would turn the enumeration into the recursion it checks: only the
amplitudes of complete paths, those that have stepped back onto V, are
summed.  Amplitude products are taken in time order, i.e. the block of
the step taken last is multiplied on the left.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_integer, certify, index_tuple

N_CAP = 8
PRUNE_FLOOR = 1e-14
# Matrix entries of the largest path frontier expanded at once: the live
# paths of one depth are cut into pieces whose expansion makes at most
# FRONTIER_CAP entries of amplitude, so the depth-first pass holds at most
# N_CAP such pieces (about 1 MiB each) at a time.
FRONTIER_CAP = 1 << 16


def _expand(first, count, site, made):
    """(parent, edge) of every step out of the paths at ``site``, grouped
    by parent, where the steps out of site s are edges first[s] ..
    first[s] + count[s] - 1 and ``made`` is the running total of the
    paths' step counts."""
    n = count[site]
    parent = np.arange(len(site)).repeat(n)
    return parent, (first[site] - made + n).repeat(n) + np.arange(len(parent))


def _product(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """b @ a for a (d, d, P) and a (d, w, P) stack whose last axis runs over
    the paths, as d broadcast products that each sweep all P paths.
    (numpy's matmul over a (P, d, d) stack makes one small product per
    path: 300-450 us for 1000 2 x 2 paths, against 20-25 us here, on a
    2-CPU Xeon with one BLAS thread.)"""
    out = b[:, 0, None] * a[None, 0]
    for i in range(1, len(b)):
        out += b[:, i, None] * a[None, i]
    return out


def oracle_first_return(U, v, horizon: int, block_dim: int = 1) -> np.ndarray:
    """First-return amplitudes a_1..a_horizon of a subspace, by path
    enumeration over sites, as a (horizon, k, k) stack whose entry n - 1
    is a_n.

    A site is a run of ``block_dim`` consecutive indices, and v must be a
    union of whole sites; entry [n - 1][r, c] is indexed by v's order.  It
    sums, over all n-step site paths from the site of v[c] to the site of
    v[r] that stay outside v in between, the ordered product of the d x d
    blocks they step through.  A path is enumerated by the sites it visits
    outside v and carries its amplitude from every start in v at once, as
    a d x k matrix.  The live paths of one depth form one stack, and each
    step multiplies it by the gathered blocks in one batched product; the
    paths of a depth land on v in one product with v's rows, which adds to
    the entry of that depth.  A step whose whole block is below
    PRUNE_FLOOR is skipped (its block is zero), so at block_dim 1 the
    pruning is entrywise.  Agrees with spectral.first_return_amplitudes,
    which computes the same stack from powers of the sliced operator.
    """
    u, horizon = certify(U).matrix, as_integer(horizon, "horizon")
    if not 1 <= horizon <= N_CAP:
        raise ValueError(f"horizon {horizon} outside 1..{N_CAP}")
    d = as_integer(block_dim, "block_dim")
    n = u.shape[0]
    if d < 1 or n % d:
        raise ValueError(f"block_dim {d} does not divide the dimension {n}")
    idx = index_tuple(n, v)
    sites = sorted({i // d for i in idx})
    k, m = len(idx), n // d
    if len(sites) * d != k:
        raise ValueError(f"v is not a union of whole sites of {d} indices")
    out = np.zeros((horizon, k, k), dtype=np.complex128)
    if not k:
        return out
    # blocks[t, s] is the step from site s to site t, zero when skipped
    blocks = u.reshape(m, d, m, d).swapaxes(1, 2)
    live = np.abs(blocks).max(axis=(2, 3)) >= PRUNE_FLOOR
    blocks = np.where(live[:, :, None, None], blocks, 0.0)
    outside = np.ones(m, dtype=bool)
    outside[sites] = False
    # per site s, the (k, d) rows that step onto v and the (d, k) columns
    # that step off it, paths last
    onto = blocks[sites].transpose(0, 2, 3, 1).reshape(k, d, m)
    off = blocks[:, sites].transpose(2, 1, 3, 0).reshape(d, k, m)
    out[0] = onto[:, :, sites].transpose(0, 2, 1).reshape(k, k)
    # the steps between sites outside v, by source site: site s steps
    # along edges first[s] .. first[s] + count[s] - 1
    source, target = np.nonzero((live & outside & outside[:, None]).T)
    count = np.bincount(source, minlength=m)
    first = np.cumsum(count) - count
    step = blocks[target, source].transpose(1, 2, 0)
    cap = FRONTIER_CAP // (d * k)

    # a pending frontier is (depth, site, amp): per path, the site it is at
    # after depth steps and its (d, k) amplitude from v's coordinates,
    # stacked paths last so that every elementwise pass runs over the paths
    start = np.flatnonzero(outside & live[:, sites].any(axis=1))
    pending = [(1, start, off[:, :, start])] if horizon > 1 and len(start) else []
    while pending:
        depth, site, amp = pending.pop()
        if depth + 1 < horizon:
            made = count[site].cumsum()
            if made[-1] > cap:
                # expand a head that makes at most cap paths; the rest waits
                cut = max(1, int(np.searchsorted(made, cap, side="right")))
                pending.append((depth, site[cut:], amp[..., cut:]))
                site, amp, made = site[:cut], amp[..., :cut], made[:cut]
            parent, edge = _expand(first, count, site, made)
            if len(edge):
                amps = _product(step[..., edge], amp[..., parent])
                pending.append((depth + 1, target[edge], amps))
        # each path's step onto v (a skipped one has a zero block): the sum
        # over the paths of onto[:, :, path] @ amp[:, :, path], as one
        # (k, d P) @ (d P, k) product
        out[depth] += onto[:, :, site].reshape(k, -1) @ amp.transpose(0, 2, 1).reshape(-1, k)
    # rows and columns are in site order; put them in v's
    order = np.argsort(np.argsort(idx))
    return out[:, order][:, :, order]
