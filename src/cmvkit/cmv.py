"""Block CMV and Hessenberg unitaries built from Verblunsky coefficients.

Block index j is 0-based and V_j spans coordinates jd..jd+d-1.  A
coefficient sequence of length N together with a terminal unitary builds
the exact finite operator on N+1 blocks.  Without a terminal the builder
returns a window: the first out-of-window coefficient is replaced by the
identity, which preserves unitarity but perturbs the last two block rows.
Consumers keep their horizon away from that edge by reach: each factor of
L M or M L moves a vector by at most one block, so a length-n return path
(2n factor steps, out and back) never gets more than n blocks past where
it starts (see window_spec).

Every built operator comes with a unitarity certificate bounded from its
Theta blocks (see _assemble), so no caller re-checks the dense matrix.
The Theta blocks of a parameter set and their residuals are computed once
per set and kept on it; every build slices them, and the boundary's
residual is read off its certificate.

Family names: "C" and "Chat" are the two five-diagonal orderings LM and
ML of the same Theta factors; "H" and "Hhat" are the Hessenberg products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    UNITARY_TOL,
    Unitary,
    as_integer,
    as_matrix,
    certified_identity,
    unitary_residuals,
)
from .overlap import OverlapFactorization, SubspacePartition
from .schur import SchurParameters, rho_left, rho_right

CMV_FAMILIES = ("C", "Chat")
HESSENBERG_FAMILIES = ("H", "Hhat")
FAMILIES = CMV_FAMILIES + HESSENBERG_FAMILIES


def _fill_thetas(alphas, rls, rrs) -> np.ndarray:
    """(m, 2d, 2d) stack of [[alpha^dagger, rho^L], [rho^R, -alpha]] from
    (m, d, d) stacks of alphas and their defects."""
    m, d, _ = alphas.shape
    out = np.empty((m, 2 * d, 2 * d), dtype=np.complex128)
    out[:, :d, :d] = alphas.conj().swapaxes(1, 2)
    out[:, :d, d:] = rls
    out[:, d:, :d] = rrs
    out[:, d:, d:] = -alphas
    return out


def theta(alpha) -> np.ndarray:
    """The 2d x 2d unitary rotation [[alpha^dagger, rho^L], [rho^R, -alpha]]."""
    a = as_matrix(alpha)
    return _fill_thetas(a[None], rho_left(a)[None], rho_right(a)[None])[0]


def _theta_blocks(p: SchurParameters) -> tuple[np.ndarray, np.ndarray]:
    """Theta blocks of every parameter of p as one read-only stack, with
    their unitary_residuals: computed on first use from the parameter and
    defect stacks and kept on p, so every operator built from p slices
    them.  Filling the stack only copies, conjugates and negates the
    stored defects, so the operator route shares only those values with
    the formula route."""
    if not p._thetas:
        alphas, rl, rr, _, _ = p.stacks()
        thetas = _fill_thetas(alphas, rl, rr)
        residuals = unitary_residuals(thetas)
        thetas.setflags(write=False)
        residuals.setflags(write=False)
        object.__setattr__(p, "_thetas", (thetas, residuals))
    return p._thetas


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


def window_spec(params: SchurParameters, family: str, last_block: int, order: int) -> BlockOperatorSpec:
    """Spec whose first-return amplitudes through last_block are exact at
    horizon order+1: the terminal build, or a window padded far enough
    that the edge is out of reach.

    Reach: C = L M and Chat = M L apply two block-diagonal factors per
    step, each moving a vector by at most one block.  A return path of
    length n takes 2n factor steps and must come back, so it never gets
    more than n blocks past its start, and a window of
    last_block + order + 2 blocks already reproduces a_1..a_{order+1}
    (a probe over d 1-3, both families, last block 0-5 and order 0-21
    finds errors of 1e-16 there and of order one with a block fewer).
    The rule keeps one block of margin: last_block + order + 3.
    """
    if params.finite:
        if last_block > len(params):
            raise ValueError(
                f"block {last_block} does not exist for {len(params)} "
                "coefficients with a terminal"
            )
        return BlockOperatorSpec(params, family, len(params) + 1)
    n_blocks = last_block + order + 3
    if len(params) < n_blocks - 1:
        raise ValueError(
            f"window of {n_blocks} blocks needs {n_blocks - 1} coefficients "
            f"for exact horizon {order + 1}; have {len(params)}"
        )
    return BlockOperatorSpec(params, family, n_blocks)


def _boundary(spec: BlockOperatorSpec) -> Unitary:
    """The unitary closing the window with its certificate: the
    terminal's, or the identity's."""
    if spec.params.finite:
        return spec.params._certificate
    return certified_identity(spec.block_dim)


def _band_factor(thetas: np.ndarray, boundary: np.ndarray, first: int) -> np.ndarray:
    """Block-diagonal band factor on len(thetas)+1 blocks: the Theta blocks
    thetas[first::2] at their own block offsets, the identity on block 0
    when first is 1, and the boundary adjoint on a last block no Theta
    covers.  first = 0 gives L, first = 1 gives M."""
    m = len(thetas)
    d = boundary.shape[0]
    out = np.zeros(((m + 1) * d, (m + 1) * d), dtype=np.complex128)
    if first:
        out[:d, :d] = np.eye(d)
    for i in range(first, m, 2):
        out[i * d : (i + 2) * d, i * d : (i + 2) * d] = thetas[i]
    if (m - first) % 2 == 0:
        out[m * d :, m * d :] = boundary.conj().T
    return out


def cmv_factors(spec: BlockOperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """The two block-diagonal band factors whose products give the two
    five-diagonal orderings."""
    thetas = _theta_blocks(spec.params)[0][: spec.n_blocks - 1]
    boundary = _boundary(spec).matrix
    return _band_factor(thetas, boundary, 0), _band_factor(thetas, boundary, 1)


def _assemble(family: str, p: SchurParameters, lo: int, hi: int, closure: Unitary) -> Unitary:
    """The finite operator of the given family on the Theta blocks of
    alpha_lo..alpha_{hi-1}, closed by the certified boundary unitary: the
    band factor products L M / M L, or the Hessenberg product of the
    rotations.

    The certificate bounds the dense residual without forming U^dagger U:
    L and M are block diagonal, so ||L^dagger L - 1||_F is the
    root-sum-square of their blocks' residuals (both product orders), and
    the residual of a product is at most the sum of its factors' to first
    order.  The Hessenberg product uses the plain sum of the Theta
    residuals.  Both add the boundary's residual, read off its
    certificate.  The Theta blocks and their residuals are slices of the
    ones kept on p.
    """
    thetas, res = (a[lo:hi] for a in _theta_blocks(p))
    boundary, closing = closure.matrix, closure.residual
    if family in CMV_FAMILIES:
        lf, mf = _band_factor(thetas, boundary, 0), _band_factor(thetas, boundary, 1)
        out = lf @ mf if family == "C" else mf @ lf
        bound = float(np.sqrt(np.sum(res[0::2] ** 2)) + np.sqrt(np.sum(res[1::2] ** 2)))
        what = "built CMV matrix"
    else:
        m, d = len(thetas), boundary.shape[0]
        out = np.eye((m + 1) * d, dtype=np.complex128)
        # a rotation on blocks i, i+1 multiplying from the right changes
        # only their 2d columns, so it is applied to those in place
        if family == "H":
            for i in range(m):
                out[:, i * d : (i + 2) * d] = out[:, i * d : (i + 2) * d] @ thetas[i]
            out[:, m * d :] = out[:, m * d :] @ boundary.conj().T
        else:
            out[m * d :, m * d :] = boundary.conj().T
            for i in reversed(range(m)):
                out[:, i * d : (i + 2) * d] = out[:, i * d : (i + 2) * d] @ thetas[i]
        bound = float(np.sum(res))
        what = "built Hessenberg matrix"
    bound += closing
    if bound > UNITARY_TOL:
        if res.size and res.max() >= closing:
            worst = f"the Theta block of alpha_{lo + int(res.argmax())}, residual {res.max():.3e}"
        else:
            worst = f"the boundary unitary, residual {closing:.3e}"
        raise ValueError(f"{what} is not unitary (certificate {bound:.3e}; worst is {worst})")
    out.flags.writeable = False
    return Unitary(out, bound)


def build_unitary(spec: BlockOperatorSpec) -> Unitary:
    """The spec's operator with its Theta-block unitarity certificate."""
    if spec.family in HESSENBERG_FAMILIES and spec.padded:
        raise ValueError(
            "Hessenberg matrices are full above the subdiagonal; only "
            "terminal (finitely supported) sequences build one exactly"
        )
    return _assemble(spec.family, spec.params, 0, spec.n_blocks - 1, _boundary(spec))


def build(spec: BlockOperatorSpec) -> np.ndarray:
    return build_unitary(spec).matrix


def block_subspace(spec: BlockOperatorSpec, blocks) -> tuple[int, ...]:
    """Ascending coordinate indices of the listed blocks."""
    d = spec.block_dim
    wanted = sorted({as_integer(b, "block") for b in blocks})
    for b in wanted:
        if not 0 <= b < spec.n_blocks:
            raise ValueError(f"block {b} outside 0..{spec.n_blocks - 1}")
    return tuple(b * d + t for b in wanted for t in range(d))


def unitary_truncation(spec: BlockOperatorSpec, j: int, k: int) -> np.ndarray:
    """Unitary closure of the blocks j..k: the boundary coefficients are
    replaced by -1 (below) and +1 (above), which decouples the range.  The
    result is the finite operator of the inner coefficients, of the family
    the operator has from alpha_j on."""
    if not 0 <= j < k < spec.n_blocks:
        raise ValueError(f"need 0 <= j < k < n_blocks, got ({j}, {k})")
    eye = certified_identity(spec.block_dim)
    return _assemble(_family_from(spec.family, j), spec.params, j, k, eye).matrix


def _family_from(family: str, j: int) -> str:
    """Family on the coefficients from alpha_j on: the five-diagonal
    orderings swap at odd j, the Hessenberg ones stay."""
    if family in CMV_FAMILIES and j % 2 == 1:
        return "Chat" if family == "C" else "C"
    return family


def head_is_left(family: str, j: int) -> bool:
    """Whether the head factor across V_j is the left-center factor U_LC.

    The head carries alpha_0..alpha_{j-1} closed by the identity and has
    V_j Schur function b_j; the tail carries the rest and has f_j.  With
    V = V_j the overlap rule reads f_V = f^R f^L, so this one rule orders
    the factors of every site and range formula.  It holds for C at odd
    j, for Chat at even j, always for H and never for Hhat.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family in HESSENBERG_FAMILIES:
        return family == "H"
    return (j % 2 == 1) == (family == "C")


def standard_overlap(spec: BlockOperatorSpec, j: int) -> OverlapFactorization:
    """The built-in overlapping factorization across the single block V_j.

    The head factor (alpha_0..alpha_{j-1} closed by an identity, in the
    spec's family) and the tail factor (alpha_j.. with the window
    boundary) take the sides head_is_left gives them.  The product always
    reconstructs the full operator, which is asserted here.
    """
    if not 1 <= j <= spec.n_blocks - 2:
        raise ValueError(f"overlap site must satisfy 1 <= j <= {spec.n_blocks - 2}")
    p, n, eye = spec.params, spec.n_blocks, certified_identity(spec.block_dim)
    head = _assemble(spec.family, p, 0, j, eye), range(0, j + 1)
    tail = _assemble(_family_from(spec.family, j), p, j, n - 1, _boundary(spec)), range(j, n)
    head_lc = head_is_left(spec.family, j)
    (u_lc, lc_blocks), (u_cr, cr_blocks) = (head, tail) if head_lc else (tail, head)

    partition = SubspacePartition(
        spec.dim,
        block_subspace(spec, set(lc_blocks) - {j}),
        block_subspace(spec, [j]),
        block_subspace(spec, set(cr_blocks) - {j}),
    )
    fact = OverlapFactorization.of_certified(partition, u_lc, u_cr)
    resid = fact.reconstruction_residual(build(spec))
    if resid > 1e-10 * max(1.0, np.sqrt(spec.dim)):
        raise ArithmeticError(
            f"standard overlap factors miss the source by {resid:.3e}"
        )
    return fact
