"""Closed-form fixtures: small unitaries with known overlapping
factorizations and the rational Schur functions attached to them.

Three families live here.

* Products of two Grover-style diffusion reflections (2/n J - 1)
  overlapping in one or two states; their subspace Schur functions are
  products of degree-one rationals.
* A six-state coined walk mixing amplitudes 1/2 and 1/sqrt(2), which
  admits two different overlapping factorizations of the same matrix.
* The 2x2 Hadamard coin, whose square is the identity: the standing
  counterexample showing that an arbitrary factorization of a unitary
  does not factor its Schur functions, and that it fails the corner
  test for every nontrivial partition.

Everything is exact data, kept in one place so tests and the bundled
campaign agree on it.  A factored fixture is an OverlapFactorization,
whose product() is the unitary.  The worked examples that factor
across an overlap are also listed as `SPLIT_CASES` rows, which the
campaign checks through one factorization runner.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .overlap import OverlapFactorization, SubspacePartition
from .series import MatrixPowerSeries

SQ2 = float(np.sqrt(2.0))


def rational_series(numerator, denominator, order: int) -> MatrixPowerSeries:
    """Taylor expansion of a scalar rational p(z)/q(z), q(0) != 0.

    Arguments are coefficient sequences in ascending powers of z.
    """
    num = np.asarray(numerator, dtype=np.complex128)
    den = np.asarray(denominator, dtype=np.complex128)
    if den[0] == 0:
        raise ValueError("denominator vanishes at the origin")
    coeffs = np.zeros(order + 1, dtype=np.complex128)
    for n in range(order + 1):
        acc = num[n] if n < num.size else 0.0
        lo = max(0, n - den.size + 1)
        for k in range(lo, n):
            acc -= coeffs[k] * den[n - k]
        coeffs[n] = acc / den[0]
    return MatrixPowerSeries(coeffs.reshape(-1, 1, 1))


def series_matrix(entries, order: int) -> MatrixPowerSeries:
    """Assemble a matrix series from a grid of (numerator, denominator) pairs."""
    d = len(entries)
    coeffs = np.zeros((order + 1, d, d), dtype=np.complex128)
    for r, row in enumerate(entries):
        if len(row) != d:
            raise ValueError("entry grid must be square")
        for c, (num, den) in enumerate(row):
            coeffs[:, r, c] = rational_series(num, den, order).scalar_coeffs()
    return MatrixPowerSeries(coeffs)


def grover_diffusion(n: int) -> np.ndarray:
    """The reflection 2/n J - 1 about the uniform superposition of n states."""
    return (2.0 / n) * np.ones((n, n)) - np.eye(n)


def double_diffusion_six() -> OverlapFactorization:
    """Six states: 3-state and 4-state diffusions overlapping in state 2."""
    part = SubspacePartition(6, left=(0, 1), center=(2,), right=(3, 4, 5))
    return OverlapFactorization(part, grover_diffusion(3), grover_diffusion(4))


def double_diffusion_five() -> OverlapFactorization:
    """Five states: the same diffusion factors overlapping in states 1, 2."""
    part = SubspacePartition(5, left=(0,), center=(1, 2), right=(3, 4))
    return OverlapFactorization(part, grover_diffusion(3), grover_diffusion(4))


# Coined-walk amplitudes: balanced coin entries a = c = 1/2 and
# Hadamard-style entries b = d = 1/sqrt(2).
_A = 0.5
_B = 1.0 / SQ2


def coined_walk_six() -> OverlapFactorization:
    """Six-state coined walk: two 3-level cells chained through state 2."""
    a, b, c, d = _A, _B, _A, _B
    u_lc = np.array([
        [a, -a, b],
        [b, b, 0.0],
        [-a, a, b],
    ])
    u_cr = np.array([
        [d, d, 0.0, 0.0],
        [c, -c, c, c],
        [0.0, 0.0, d, -d],
        [-c, c, c, c],
    ])
    part = SubspacePartition(6, left=(0, 1), center=(2,), right=(3, 4, 5))
    return OverlapFactorization(part, u_lc, u_cr)


def coined_walk_six_alternate() -> OverlapFactorization:
    """The same six-state walk factored through state 3 instead.

    Here the left group sits at the high indices and the right group at
    the low ones, so the center still blocks every left-to-right
    transition.
    """
    a, b, c, d = _A, _B, _A, _B
    u_lc = np.array([
        [d, c, c],
        [0.0, d, -d],
        [-d, c, c],
    ])
    u_cr = np.array([
        [a, -a, a, a],
        [b, b, 0.0, 0.0],
        [-a, a, a, a],
        [0.0, 0.0, b, -b],
    ])
    part = SubspacePartition(6, left=(4, 5), center=(3,), right=(0, 1, 2))
    return OverlapFactorization(part, u_lc, u_cr)


def hadamard_coin() -> np.ndarray:
    """The 2x2 Hadamard matrix; squares to the identity."""
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / SQ2


def hadamard_coin_schur(order: int) -> MatrixPowerSeries:
    """Schur function of the first coordinate under the Hadamard coin.

    Equals (1 + sqrt(2) z)/(sqrt(2) + z).  Its square differs from the
    constant function 1 produced by the squared coin, which is why a
    plain product of unitaries does not factor Schur functions.
    """
    return rational_series((1.0, SQ2), (SQ2, 1.0), order)


# ---------------------------------------------------------------------------
# Rational Schur functions of the diffusion products.

def diffusion_left_schur(order: int) -> MatrixPowerSeries:
    """(3z - 1)/(3 - z): center-state Schur function of the 4-state diffusion."""
    return rational_series((-1.0, 3.0), (3.0, -1.0), order)


def diffusion_right_schur(order: int) -> MatrixPowerSeries:
    """(2z - 1)/(2 - z): center-state Schur function of the 3-state diffusion."""
    return rational_series((-1.0, 2.0), (2.0, -1.0), order)


def diffusion_center_schur(order: int) -> MatrixPowerSeries:
    """(2z-1)(3z-1) / ((2-z)(3-z)) for the center state of the 6-state product."""
    return rational_series((1.0, -5.0, 6.0), (6.0, -5.0, 1.0), order)


def diffusion_pair_schur(order: int) -> MatrixPowerSeries:
    """Schur function of states (2, 3) of the 6-state product, in that basis.

    Factored form: a polynomial right factor times diag of the left
    rational and 1.
    """
    one = ((1.0,), (1.0,))
    zero = ((0.0,), (1.0,))
    half_minus = ((-0.5, 0.5), (1.0,))   # (z-1)/2
    half_plus = ((0.5, 0.5), (1.0,))     # (z+1)/2
    left = ((-1.0, 3.0), (3.0, -1.0))
    right_factor = series_matrix([[half_minus, half_plus],
                                  [half_plus, half_minus]], order)
    left_factor = series_matrix([[left, zero], [zero, one]], order)
    return right_factor * left_factor


def diffusion_five_center_schur(order: int) -> MatrixPowerSeries:
    """Schur function of the two-state center (1, 2) of the 5-state product."""
    half_minus = ((-0.5, 0.5), (1.0,))
    half_plus = ((0.5, 0.5), (1.0,))
    diag = ((-1.0, 1.0), (3.0, 1.0))     # (z-1)/(z+3)
    off = ((2.0, 2.0), (3.0, 1.0))       # 2(z+1)/(z+3)
    right_factor = series_matrix([[half_minus, half_plus],
                                  [half_plus, half_minus]], order)
    left_factor = series_matrix([[diag, off], [off, diag]], order)
    return right_factor * left_factor


# ---------------------------------------------------------------------------
# Rational Schur functions of the coined walk.

def walk_left_schur(order: int) -> MatrixPowerSeries:
    """Center-state Schur function of the walk's left factor.

    (2z^2 - (1+sqrt2) z + sqrt2) / (sqrt2 z^2 - (1+sqrt2) z + 2).
    """
    return rational_series((SQ2, -(1.0 + SQ2), 2.0),
                           (2.0, -(1.0 + SQ2), SQ2), order)


def walk_right_schur(order: int) -> MatrixPowerSeries:
    """Center-state Schur function of the walk's right factor.

    (2 sqrt2 z^3 - 2z^2 - (sqrt2 - 1) z + 2) /
    (2z^3 - (sqrt2 - 1) z^2 - 2z + 2 sqrt2).
    """
    return rational_series((2.0, -(SQ2 - 1.0), -2.0, 2.0 * SQ2),
                           (2.0 * SQ2, -2.0, -(SQ2 - 1.0), 2.0), order)


def walk_center_schur(order: int) -> MatrixPowerSeries:
    """Schur function of state 2 of the full walk: the product of the factors."""
    return walk_right_schur(order) * walk_left_schur(order)


def walk_pair_right_schur(order: int) -> MatrixPowerSeries:
    """Right-factor Schur function of states (2, 4), in that basis.

    1/(sqrt2 (z^2 - 2)) [[2z^2 - z - 2, -z], [-z, 2z^2 + z - 2]].
    """
    den = (-2.0 * SQ2, 0.0, SQ2)
    return series_matrix([
        [((-2.0, -1.0, 2.0), den), ((0.0, -1.0, 0.0), den)],
        [((0.0, -1.0, 0.0), den), ((-2.0, 1.0, 2.0), den)],
    ], order)


# ---------------------------------------------------------------------------
# Worked examples checked through the overlap factorization rule.

SeriesMaker = Callable[[int], MatrixPowerSeries]


@dataclass(frozen=True)
class SplitCase:
    """A closed-form campaign case that factors across an overlap.

    The runner computes f_V on V = v_left + center + v_right of the
    unitary, f^L and f^R from the known factor pair, checks
    f_V = (1 + f^R)(f^L + 1), and compares each of the three series
    with its closed form here; `None` claims no closed form.
    """

    maker: Callable[[], OverlapFactorization]
    v_left: tuple[int, ...]
    v_right: tuple[int, ...]
    f_v: SeriesMaker | None
    f_left: SeriesMaker | None
    f_right: SeriesMaker | None
    left_provenance: str
    right_provenance: str


SPLIT_CASES = {
    "diffusion-center": SplitCase(
        double_diffusion_six, (), (), diffusion_center_schur, None, None,
        "first-return series of the product unitary",
        "rational (2z-1)(3z-1)/((2-z)(3-z)) and factor split"),
    "diffusion-pair": SplitCase(
        double_diffusion_six, (), (3,), diffusion_pair_schur, None, None,
        "first-return series of states (2,3)",
        "displayed 2x2 factored form"),
    "diffusion-five-center": SplitCase(
        double_diffusion_five, (), (), diffusion_five_center_schur, None, None,
        "first-return series of the two-state center",
        "displayed 2x2 factored form"),
    "walk-factors": SplitCase(
        coined_walk_six, (), (), walk_center_schur, walk_left_schur,
        walk_right_schur,
        "first-return series of the walk and its two factors",
        "degree-2 and degree-3 rational closed forms"),
    "walk-pair": SplitCase(
        coined_walk_six, (), (4,), None, None, walk_pair_right_schur,
        "first-return series of states (2,4)",
        "displayed right factor times (left rational + 1)"),
}
