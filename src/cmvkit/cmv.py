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
per set and kept in its memo under "thetas"; every build slices them, and
the boundary's residual is read off its certificate.  build_unitary keeps
the exact operator of a terminal set per family, under ("operator",
family); windows, unitary truncations and overlap factors are assembled
on every call.

Every family is the same Theta rotations multiplied in its own order, and
_rank states that order once: "C" = L M puts the even rotations first and
"Chat" = M L the odd ones (the five-diagonal orderings), "H" multiplies
them in index order and "Hhat" in reverse (the Hessenberg products).  The
builder, the truncations, the standard overlap and head_is_left all read
the order from _rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    UNITARY_TOL,
    Unitary,
    as_integer,
    certified_identity,
    unitary_residuals,
)
from .overlap import OverlapFactorization, SubspacePartition
from .schur import SchurParameters

CMV_FAMILIES = ("C", "Chat")
HESSENBERG_FAMILIES = ("H", "Hhat")
FAMILIES = CMV_FAMILIES + HESSENBERG_FAMILIES


def _theta_blocks(p: SchurParameters) -> tuple[np.ndarray, np.ndarray]:
    """Theta blocks [[alpha^dagger, rho^L], [rho^R, -alpha]] of every
    parameter of p as one read-only (len, 2d, 2d) stack, with their
    unitary_residuals: computed on first use from the parameter and defect
    stacks and kept on p, so every operator built from p slices them.
    Filling the stack only copies, conjugates and negates the stored
    defects, so the operator route shares only those values with the
    formula route."""
    blocks = p._memo.get("thetas")
    if blocks is None:
        alphas, rl, rr, _, _ = p.stacks()
        d = p.block_dim
        thetas = np.empty((len(alphas), 2 * d, 2 * d), dtype=np.complex128)
        thetas[:, :d, :d] = alphas.conj().swapaxes(1, 2)
        thetas[:, :d, d:] = rl
        thetas[:, d:, :d] = rr
        thetas[:, d:, d:] = -alphas
        residuals = unitary_residuals(thetas)
        thetas.setflags(write=False)
        residuals.setflags(write=False)
        blocks = p._memo["thetas"] = (thetas, residuals)
    return blocks


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
        object.__setattr__(self, "n_blocks", as_integer(self.n_blocks, "n_blocks"))
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
    last_block, order = as_integer(last_block, "last_block"), as_integer(order, "order")
    if last_block < 0 or order < 0:
        raise ValueError(f"last_block and order must be nonnegative, got {last_block}, {order}")
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


def _rank(family: str, i: int) -> int:
    """Where Theta_i stands in the family's product of rotations, read at
    the absolute index i; at the last block, where the boundary stands.
    Lower ranks stand further left.  C = L M puts the even rotations
    first and Chat = M L the odd ones; H multiplies them in index order
    and Hhat in reverse."""
    if family == "C":
        return i % 2
    if family == "Chat":
        return (i + 1) % 2
    return i if family == "H" else -i


def _assemble(family: str, p: SchurParameters, lo: int, hi: int, closure: Unitary) -> Unitary:
    """The finite operator of the given family on the Theta blocks of
    alpha_lo..alpha_{hi-1}, closed by the certified boundary unitary on
    the last block: the identity multiplied from the right, in place, by
    the rotations in _rank order.  Ranks are read at absolute indices, so
    a range from alpha_lo on has the order the full operator has there.
    A five-diagonal family applies each parity as one layer, with the
    boundary in the layer whose rank it shares; a Hessenberg family
    applies one rotation at a time.

    The certificate bounds the dense residual ||U^dagger U - 1||_F (equal
    to ||U U^dagger - 1||_F, both being ||S^2 - 1||_F for U = W S V^dagger)
    without forming U^dagger U: a parity layer is block diagonal, so its
    residual is the root-sum-square of its blocks' residuals, and the
    residual of a product is at most the sum of its factors' to first
    order.  The Hessenberg product uses the plain sum of the Theta
    residuals.  Both add the boundary's residual, read off its
    certificate, and a bound that is not at most UNITARY_TOL, NaN
    included, is refused.  The Theta blocks and their residuals are
    slices of the ones kept on p.
    """
    thetas, res = (a[lo:hi] for a in _theta_blocks(p))
    m, d, closing = len(thetas), closure.matrix.shape[0], closure.residual
    last = closure.matrix.conj().T
    out = np.eye((m + 1) * d, dtype=np.complex128)
    forward = _rank(family, lo) < _rank(family, lo + 1)
    if family in CMV_FAMILIES:
        for first in (0, 1) if forward else (1, 0):
            # a parity's rotations tile their 2d-column pairs without
            # overlap, so the layer is one batched product
            layer = thetas[first::2]
            cols = out[:, first * d : (first + 2 * len(layer)) * d]
            pairs = cols.reshape(len(out), len(layer), 2 * d).swapaxes(0, 1)
            cols[...] = (pairs @ layer).swapaxes(0, 1).reshape(cols.shape)
            if _rank(family, lo + first) == _rank(family, hi):
                out[:, m * d :] = out[:, m * d :] @ last
        bound = float(np.sqrt(np.sum(res[0::2] ** 2)) + np.sqrt(np.sum(res[1::2] ** 2)))
        what = "built CMV matrix"
    else:
        # Hessenberg ranks are monotone in i, so the boundary, ranked at
        # hi, comes after every rotation when they rise and first, on the
        # identity, when they fall; each rotation changes only its own
        # 2d columns
        if not forward:
            out[m * d :, m * d :] = last
        for i in range(m) if forward else reversed(range(m)):
            out[:, i * d : (i + 2) * d] = out[:, i * d : (i + 2) * d] @ thetas[i]
        if forward:
            out[:, m * d :] = out[:, m * d :] @ last
        bound = float(np.sum(res))
        what = "built Hessenberg matrix"
    bound += closing
    if not bound <= UNITARY_TOL:
        if res.size and res.max() >= closing:
            worst = f"the Theta block of alpha_{lo + int(res.argmax())}, residual {res.max():.3e}"
        else:
            worst = f"the boundary unitary, residual {closing:.3e}"
        raise ValueError(f"{what} is not unitary (certificate {bound:.3e}; worst is {worst})")
    out.flags.writeable = False
    return Unitary(out, bound)


def build_unitary(spec: BlockOperatorSpec) -> Unitary:
    """The spec's operator with its Theta-block unitarity certificate.

    An exact build (a terminal set, always on len + 1 blocks) is assembled
    once per family and kept on the set, so every later build of it
    returns the same read-only Unitary.  A padded window is assembled
    afresh on every call and never kept."""
    if spec.family in HESSENBERG_FAMILIES and spec.padded:
        raise ValueError(
            "Hessenberg matrices are full above the subdiagonal; only "
            "terminal (finitely supported) sequences build one exactly"
        )
    p, hi = spec.params, spec.n_blocks - 1
    if spec.padded:
        return _assemble(spec.family, p, 0, hi, _boundary(spec))
    key = ("operator", spec.family)
    op = p._memo.get(key)
    if op is None:
        op = p._memo[key] = _assemble(spec.family, p, 0, hi, _boundary(spec))
    return op


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
    result is the finite operator of the inner coefficients, with the
    factor order the operator has from alpha_j on."""
    j, k = as_integer(j, "j"), as_integer(k, "k")
    if not 0 <= j < k < spec.n_blocks:
        raise ValueError(f"need 0 <= j < k < n_blocks, got ({j}, {k})")
    eye = certified_identity(spec.block_dim)
    return _assemble(spec.family, spec.params, j, k, eye).matrix


def head_is_left(family: str, j: int) -> bool:
    """Whether the head factor across V_j is the left-center factor U_LC.

    The head carries alpha_0..alpha_{j-1} closed by the identity and has
    V_j Schur function b_j; the tail carries the rest and has f_j.  With
    V = V_j the overlap rule reads f_V = f^R f^L, so this one rule orders
    the factors of every site and range formula.  The head is U_LC when
    Theta_{j-1} stands left of Theta_j in the family's product: for C at
    odd j, for Chat at even j, always for H and never for Hhat.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return _rank(family, j - 1) < _rank(family, j)


def standard_overlap(spec: BlockOperatorSpec, j: int) -> OverlapFactorization:
    """The built-in overlapping factorization across the single block V_j.

    The head factor (alpha_0..alpha_{j-1} closed by an identity, in the
    spec's family) and the tail factor (alpha_j.. with the window
    boundary) take the sides head_is_left gives them.  The product always
    reconstructs the full operator, which is asserted here.
    """
    j = as_integer(j, "j")
    if not 1 <= j <= spec.n_blocks - 2:
        raise ValueError(f"overlap site must satisfy 1 <= j <= {spec.n_blocks - 2}")
    p, n, eye = spec.params, spec.n_blocks, certified_identity(spec.block_dim)
    head = _assemble(spec.family, p, 0, j, eye), range(0, j + 1)
    tail = _assemble(spec.family, p, j, n - 1, _boundary(spec)), range(j, n)
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
