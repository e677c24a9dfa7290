"""Block CMV and Hessenberg unitaries built from Verblunsky coefficients.

Block index j is 0-based and V_j spans coordinates jd..jd+d-1.  A
coefficient sequence of length N together with a terminal unitary builds
the exact finite operator on N+1 blocks.  Without a terminal the builder
returns a window: the first out-of-window coefficient is replaced by the
identity, which preserves unitarity but perturbs the last two block rows,
so consumers must keep their horizon away from the edge (see
exact_horizon).

Family names: "C" and "Chat" are the two five-diagonal orderings LM and
ML of the same Theta factors; "H" and "Hhat" are the Hessenberg products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Subspace, as_matrix, direct_sum, embed, require_unitary
from .overlap import OverlapFactorization, SubspacePartition
from .schur import SchurParameters, rho_left, rho_right

CMV_FAMILIES = ("C", "Chat")
HESSENBERG_FAMILIES = ("H", "Hhat")
FAMILIES = CMV_FAMILIES + HESSENBERG_FAMILIES


def theta(alpha, defects: tuple | None = None) -> np.ndarray:
    """The 2d x 2d unitary rotation [[alpha^dagger, rho^L], [rho^R, -alpha]].

    ``defects`` is alpha's (rho_L, rho_R, ...) from SchurParameters.defects
    when already computed.
    """
    a = as_matrix(alpha)
    rl, rr = (rho_left(a), rho_right(a)) if defects is None else defects[:2]
    top = np.hstack([a.conj().T, rl])
    bottom = np.hstack([rr, -a])
    return np.vstack([top, bottom])


@dataclass(frozen=True)
class BlockOperatorSpec:
    """Recipe for one finite block operator.

    With a terminal, n_blocks is pinned to len(params)+1 and the build is
    exact.  Without one, the window uses the first n_blocks-1 coefficients
    and pads the edge, so the sequence must be at least that long.
    """

    params: SchurParameters
    family: str
    n_blocks: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be positive")
        if self.params.finite:
            if self.n_blocks != len(self.params) + 1:
                raise ValueError(
                    "terminal sequences build exactly len+1 blocks "
                    f"({len(self.params) + 1}), got n_blocks={self.n_blocks}"
                )
        elif len(self.params) < self.n_blocks - 1:
            raise ValueError(
                f"need at least {self.n_blocks - 1} coefficients for "
                f"{self.n_blocks} blocks, have {len(self.params)}"
            )

    @property
    def block_dim(self) -> int:
        return self.params.block_dim

    @property
    def dim(self) -> int:
        return self.n_blocks * self.block_dim

    @property
    def padded(self) -> bool:
        """True when the window edge carries an artificial identity coefficient."""
        return not self.params.finite


def exact_horizon(spec: BlockOperatorSpec, last_block: int) -> int | None:
    """Largest first-return horizon unaffected by the window edge.

    One application of a five-diagonal operator moves at most two block
    indices, so a window of M blocks keeps horizons up to
    (M - last_block - 2) / 2 honest.  Terminal builds are exact at every
    horizon (None).
    """
    if not spec.padded:
        return None
    return max(0, (spec.n_blocks - last_block - 2) // 2)


def _boundary(spec: BlockOperatorSpec) -> np.ndarray:
    """The unitary closing the window: the terminal, or the identity."""
    if spec.params.finite:
        return spec.params.terminal
    return np.eye(spec.block_dim, dtype=np.complex128)


def _window(spec: BlockOperatorSpec) -> tuple[list[np.ndarray], np.ndarray]:
    """Theta blocks of alpha_0..alpha_{M-1}, from the defects stored on
    the parameter set, plus the boundary unitary."""
    p = spec.params
    thetas = [theta(p.alpha(i), p.defects(i)) for i in range(spec.n_blocks - 1)]
    return thetas, _boundary(spec)


def _l_factor(thetas, boundary) -> np.ndarray:
    """Direct sum of Theta blocks at even offsets; the boundary adjoint
    closes the last block when the count is even."""
    pieces = list(thetas[0::2])
    if len(thetas) % 2 == 0:
        pieces.append(boundary.conj().T)
    return direct_sum(*pieces)


def _m_factor(thetas, boundary) -> np.ndarray:
    """Identity on block zero, Theta blocks at odd offsets, boundary
    adjoint closing when the count is odd."""
    d = boundary.shape[0]
    pieces = [np.eye(d, dtype=np.complex128)]
    pieces.extend(thetas[1::2])
    if len(thetas) % 2 == 1:
        pieces.append(boundary.conj().T)
    return direct_sum(*pieces)


def cmv_factors(spec: BlockOperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """The two block-diagonal band factors whose products give the two
    five-diagonal orderings."""
    thetas, boundary = _window(spec)
    return _l_factor(thetas, boundary), _m_factor(thetas, boundary)


def build_cmv(spec: BlockOperatorSpec) -> np.ndarray:
    if spec.family not in CMV_FAMILIES:
        raise ValueError(f"build_cmv expects a CMV family, got {spec.family!r}")
    lf, mf = cmv_factors(spec)
    out = lf @ mf if spec.family == "C" else mf @ lf
    return require_unitary(out, what="built CMV matrix")


def build_hessenberg(spec: BlockOperatorSpec) -> np.ndarray:
    if spec.family not in HESSENBERG_FAMILIES:
        raise ValueError(f"build_hessenberg expects a Hessenberg family, got {spec.family!r}")
    if spec.padded:
        raise ValueError(
            "Hessenberg matrices are full above the subdiagonal; only "
            "terminal (finitely supported) sequences build one exactly"
        )
    thetas, boundary = _window(spec)
    d = spec.block_dim
    n = len(thetas)
    dim = spec.dim
    closing = np.eye(dim, dtype=np.complex128)
    closing[n * d :, n * d :] = boundary.conj().T
    rotations = [embed(t, range(i * d, (i + 2) * d), dim) for i, t in enumerate(thetas)]
    out = np.eye(dim, dtype=np.complex128)
    if spec.family == "H":
        for r in rotations:
            out = out @ r
        out = out @ closing
    else:
        out = closing
        for r in reversed(rotations):
            out = out @ r
    return require_unitary(out, what="built Hessenberg matrix")


def build(spec: BlockOperatorSpec) -> np.ndarray:
    return build_cmv(spec) if spec.family in CMV_FAMILIES else build_hessenberg(spec)


def block_subspace(spec: BlockOperatorSpec, blocks) -> Subspace:
    """Coordinate subspace spanned by the listed block indices."""
    d = spec.block_dim
    wanted = sorted({int(b) for b in blocks})
    for b in wanted:
        if not 0 <= b < spec.n_blocks:
            raise ValueError(f"block {b} outside 0..{spec.n_blocks - 1}")
    idx = tuple(b * d + t for b in wanted for t in range(d))
    return Subspace(spec.dim, idx)


def submatrix_range(spec: BlockOperatorSpec, j: int, k: int) -> np.ndarray:
    """Principal submatrix on blocks j..k of the built operator."""
    if not 0 <= j <= k < spec.n_blocks:
        raise ValueError(f"block range {j}..{k} outside the {spec.n_blocks}-block window")
    d = spec.block_dim
    sel = np.arange(j * d, (k + 1) * d)
    return build(spec)[np.ix_(sel, sel)]


def _segment(spec: BlockOperatorSpec, start: int, stop: int, terminal: np.ndarray) -> SchurParameters:
    """Coefficients alpha_start..alpha_{stop-1} with an explicit terminal."""
    inner = [spec.params.alpha(i) for i in range(start, stop)]
    return SchurParameters(spec.block_dim, inner, terminal=terminal)


def unitary_truncation(spec: BlockOperatorSpec, j: int, k: int) -> np.ndarray:
    """Unitary closure of the blocks j..k: the boundary coefficients are
    replaced by -1 (below) and +1 (above), which decouples the range.

    The result is itself a finite operator of the inner coefficients; for
    the five-diagonal families which of the two orderings appears depends
    on the parity of j, while the Hessenberg families keep their own.
    """
    if not 0 <= j < k < spec.n_blocks:
        raise ValueError(f"need 0 <= j < k < n_blocks, got ({j}, {k})")
    d = spec.block_dim
    segment = _segment(spec, j, k, np.eye(d, dtype=np.complex128))
    if spec.family in CMV_FAMILIES:
        swap = j % 2 == 1
        family = spec.family
        if swap:
            family = "Chat" if family == "C" else "C"
    else:
        family = spec.family
    return build(BlockOperatorSpec(segment, family, k - j + 1))


def standard_overlap(spec: BlockOperatorSpec, j: int) -> OverlapFactorization:
    """The built-in overlapping factorization across the single block V_j.

    The head factor carries coefficients alpha_0..alpha_{j-1} closed by an
    identity; the tail factor carries alpha_j.. together with the window
    boundary.  Which side is "left" and which finite family each factor
    uses follow the parity rules of the family; the product always
    reconstructs the full operator, which is asserted here.
    """
    if not 1 <= j <= spec.n_blocks - 2:
        raise ValueError(f"overlap site must satisfy 1 <= j <= {spec.n_blocks - 2}")
    d = spec.block_dim
    m = spec.n_blocks - 1
    head = SchurParameters(d, spec.params.alphas[:j], terminal=np.eye(d, dtype=np.complex128))
    tail = SchurParameters(d, spec.params.alphas[j:m], terminal=_boundary(spec))
    head_blocks = range(0, j + 1)
    tail_blocks = range(j, m + 1)

    def finite(params, family):
        return build(BlockOperatorSpec(params, family, len(params) + 1))

    even = j % 2 == 0
    if spec.family == "C":
        if even:
            u_lc, lc_blocks = finite(tail, "C"), tail_blocks
            u_cr, cr_blocks = finite(head, "C"), head_blocks
        else:
            u_lc, lc_blocks = finite(head, "C"), head_blocks
            u_cr, cr_blocks = finite(tail, "Chat"), tail_blocks
    elif spec.family == "Chat":
        if even:
            u_lc, lc_blocks = finite(head, "Chat"), head_blocks
            u_cr, cr_blocks = finite(tail, "Chat"), tail_blocks
        else:
            u_lc, lc_blocks = finite(tail, "C"), tail_blocks
            u_cr, cr_blocks = finite(head, "Chat"), head_blocks
    elif spec.family == "H":
        u_lc, lc_blocks = finite(head, "H"), head_blocks
        u_cr, cr_blocks = finite(tail, "H"), tail_blocks
    else:
        u_lc, lc_blocks = finite(tail, "Hhat"), tail_blocks
        u_cr, cr_blocks = finite(head, "Hhat"), head_blocks

    def coords(blocks):
        return tuple(b * d + t for b in blocks for t in range(d))

    left_blocks = [b for b in lc_blocks if b != j]
    right_blocks = [b for b in cr_blocks if b != j]
    partition = SubspacePartition(
        spec.dim, coords(left_blocks), coords([j]), coords(right_blocks)
    )
    fact = OverlapFactorization(partition, u_lc, u_cr)
    resid = fact.reconstruction_residual(build(spec))
    if resid > 1e-10 * max(1.0, np.sqrt(spec.dim)):
        raise ArithmeticError(
            f"standard overlap factors miss the source by {resid:.3e}"
        )
    return fact
