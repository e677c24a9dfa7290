"""Verifiers for the Schur-function factorization identities.

Every identity is checked by computing its two sides along genuinely
different routes.  The formula side assembles synthesized coefficient
series (iterates, inverse iterates, constants from unitary truncations);
the operator side extracts the same function from first-return amplitudes
of an actually built matrix and never sees the formula.  A report records
the residual together with everything needed to replay the case.

Conventions verified against the operator oracle before being frozen
here:

* site formula: the V_j Schur function of family C is b_j f_j for even j
  and f_j b_j for odd j; family Chat swaps the parities.
* range formula: substituting b_j and f_k into the adjoint of the unitary
  truncation on blocks j..k, with the factor placement depending on the
  parities of j and k; family Chat uses the table with both parities
  inverted.  The Hessenberg families use one fixed placement each, no
  parity involved.
* scalar superposition: for the state beta e_j + gamma e_{j+1}, the
  closed form and its binary-transform rewriting take conjugated
  (beta, gamma) at odd j; the Hessenberg analog does not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cmv import (
    CMV_FAMILIES,
    FAMILIES,
    HESSENBERG_FAMILIES,
    BlockOperatorSpec,
    build,
    unitary_truncation,
)
# synthesize is not called here; it stays a name of this module because
# perfbench's tracer test checks that the tracer wraps this alias
from .schur import (  # noqa: F401
    SchurParameters,
    binary_transform,
    inverse_iterate_series,
    iterate_series,
    synthesize,
)
from .series import (
    MatrixPowerSeries,
    caratheodory_to_schur,
    coeff_distance,
    direct_sum_series,
    schur_to_caratheodory,
)
from .spectral import schur_of_subspace

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check, with replay information."""

    theorem: str
    params: dict
    residual: float
    tolerance: float
    left_provenance: str
    right_provenance: str

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": dict(sorted(self.params.items())),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.ok),
            "left": self.left_provenance,
            "right": self.right_provenance,
        }

    def summary(self) -> str:
        verdict = "pass" if self.ok else "FAIL"
        return (
            f"[{verdict}] {self.theorem} "
            f"{json.dumps(dict(sorted(self.params.items())))} "
            f"residual {self.residual:.3e} (tol {self.tolerance:.1e})"
        )


def _window_spec(params: SchurParameters, family: str, last_block: int, order: int) -> BlockOperatorSpec:
    """Spec whose first-return amplitudes through last_block are exact at
    horizon order+1: either the terminal build, or a window padded far
    enough that the edge is out of reach."""
    if params.finite:
        if last_block > len(params):
            raise ValueError(
                f"block {last_block} does not exist for {len(params)} "
                "coefficients with a terminal"
            )
        return BlockOperatorSpec(params, family, len(params) + 1)
    n_blocks = last_block + 2 * (order + 1) + 2
    if len(params) < n_blocks - 1:
        raise ValueError(
            f"window of {n_blocks} blocks needs {n_blocks - 1} coefficients "
            f"for exact horizon {order + 1}; have {len(params)}"
        )
    return BlockOperatorSpec(params, family, n_blocks)


def _block_range(spec: BlockOperatorSpec, j: int, k: int) -> tuple[int, ...]:
    d = spec.block_dim
    return tuple(range(j * d, (k + 1) * d))


def verify_site_formula(
    params: SchurParameters,
    family: str,
    j: int,
    order: int,
    tolerance: float = DEFAULT_TOL,
    context: dict | None = None,
) -> VerificationReport:
    """V_j Schur function of a five-diagonal family against b_j f_j / f_j b_j."""
    if family not in CMV_FAMILIES:
        raise ValueError(f"site formula covers families {CMV_FAMILIES}, got {family!r}")
    if j < 0:
        raise ValueError("site index must be nonnegative")
    spec = _window_spec(params, family, j, order)
    operator_side = schur_of_subspace(build(spec), _block_range(spec, j, j), order)
    f_j = iterate_series(params, j, order)
    b_j = inverse_iterate_series(params, j, order)
    b_first = (j % 2 == 0) == (family == "C")
    formula_side = b_j * f_j if b_first else f_j * b_j
    residual = coeff_distance(operator_side, formula_side)
    detail = {"d": params.block_dim, "family": family, "j": j, "order": order}
    detail.update(context or {})
    return VerificationReport(
        "site-schur-function",
        detail,
        residual,
        tolerance,
        "first-return amplitudes of the built matrix",
        "product of synthesized iterate and inverse iterate",
    )


def substitute_into_truncation(
    params: SchurParameters, family: str, j: int, k: int, order: int
) -> MatrixPowerSeries:
    """Series-valued substitution into the adjoint of the unitary
    truncation on blocks j..k: the inverse iterate b_j replaces the lower
    closing coefficient and the iterate f_k the upper one.

    Placement table (validated against the operator route): with
    effective parities (j, k) - inverted for family Chat, fixed for the
    Hessenberg families -

        even j, even k:  (b_j + 1) T (1 + f_k)
        odd j,  odd k:   (1 + f_k) T (b_j + 1)
        even j, odd k:   (b_j + 1 + f_k) T
        odd j,  even k:  T (b_j + 1 + f_k)

    where T is the constant adjoint-truncation series, family H uses the
    odd/odd placement and family Hhat the even/even one.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not 0 <= j < k:
        raise ValueError("need 0 <= j < k")
    if k > len(params):
        raise ValueError(f"block {k} does not exist for {len(params)} coefficients")
    d = params.block_dim
    n_blocks = len(params) + 1 if params.finite else k + 1
    trunc = unitary_truncation(BlockOperatorSpec(params, family, n_blocks), j, k)
    mid = MatrixPowerSeries.constant(trunc.conj().T, order)
    f_k = iterate_series(params, k, order)
    b_j = inverse_iterate_series(params, j, order)
    one = MatrixPowerSeries.one
    w = (k - j) * d

    if family in CMV_FAMILIES:
        j_even, k_even = j % 2 == 0, k % 2 == 0
        if family == "Chat":
            j_even, k_even = not j_even, not k_even
    else:
        j_even = k_even = family == "Hhat"

    if j_even and k_even:
        return direct_sum_series(b_j, one(w, order)) * mid * direct_sum_series(one(w, order), f_k)
    if not j_even and not k_even:
        return direct_sum_series(one(w, order), f_k) * mid * direct_sum_series(b_j, one(w, order))
    ends = direct_sum_series(b_j, one(w - d, order), f_k)
    return ends * mid if j_even else mid * ends


def verify_range_formula(
    params: SchurParameters,
    family: str,
    j: int,
    k: int,
    order: int,
    tolerance: float = DEFAULT_TOL,
    context: dict | None = None,
) -> VerificationReport:
    """Blocks j..k of a five-diagonal family against the substitution series."""
    if family not in CMV_FAMILIES:
        raise ValueError(f"range formula covers families {CMV_FAMILIES}, got {family!r}")
    spec = _window_spec(params, family, k, order)
    operator_side = schur_of_subspace(build(spec), _block_range(spec, j, k), order)
    formula_side = substitute_into_truncation(params, family, j, k, order)
    residual = coeff_distance(operator_side, formula_side)
    detail = {"d": params.block_dim, "family": family, "j": j, "k": k, "order": order}
    detail.update(context or {})
    return VerificationReport(
        "range-schur-function",
        detail,
        residual,
        tolerance,
        "first-return amplitudes of the built matrix",
        "substitution into the adjoint unitary truncation",
    )


def verify_hessenberg_formula(
    params: SchurParameters,
    family: str,
    j: int,
    k: int,
    order: int,
    tolerance: float = DEFAULT_TOL,
    context: dict | None = None,
) -> VerificationReport:
    """Blocks j..k of a Hessenberg family against its substitution series.

    Only terminal sequences build an exact Hessenberg matrix, so the
    terminal is required here.
    """
    if family not in HESSENBERG_FAMILIES:
        raise ValueError(
            f"hessenberg formula covers families {HESSENBERG_FAMILIES}, got {family!r}"
        )
    if not params.finite:
        raise ValueError("Hessenberg verification needs a terminal sequence")
    spec = _window_spec(params, family, k, order)
    operator_side = schur_of_subspace(build(spec), _block_range(spec, j, k), order)
    formula_side = substitute_into_truncation(params, family, j, k, order)
    residual = coeff_distance(operator_side, formula_side)
    detail = {"d": params.block_dim, "family": family, "j": j, "k": k, "order": order}
    detail.update(context or {})
    return VerificationReport(
        "hessenberg-range-schur-function",
        detail,
        residual,
        tolerance,
        "first-return amplitudes of the built matrix",
        "substitution into the adjoint unitary truncation",
    )


def compress_to_vector(f_v: MatrixPowerSeries, psi) -> MatrixPowerSeries:
    """Scalar Schur function of the state psi inside the subspace of f_V.

    Route: Cayley transform to the moment-generating side, compress the
    quadratic form <psi|F psi>, transform back.
    """
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized (|psi| = {norm:.6f})")
    if psi.size != f_v.block_dim:
        raise ValueError("state length does not match the series block dimension")
    big = schur_to_caratheodory(f_v)
    vals = np.einsum("i,nij,j->n", psi.conj(), big.coeffs, psi)
    scalar = MatrixPowerSeries(vals.reshape(-1, 1, 1))
    return caratheodory_to_schur(scalar)


def _superposition_uv(alpha: complex, beta: complex, gamma: complex) -> tuple[complex, complex]:
    """Coefficients of the binary transform for the two-site superposition."""
    rho = float(np.sqrt(max(0.0, 1.0 - abs(alpha) ** 2)))
    beta_out = beta * alpha + gamma * rho
    gamma_out = beta * rho - gamma * np.conj(alpha)
    return np.conj(beta) * beta_out, np.conj(gamma) * gamma_out


def _check_state(beta: complex, gamma: complex) -> tuple[complex, complex]:
    beta, gamma = complex(beta), complex(gamma)
    if abs(abs(beta) ** 2 + abs(gamma) ** 2 - 1.0) > 1e-8:
        raise ValueError("superposition weights must satisfy |beta|^2 + |gamma|^2 = 1")
    return beta, gamma


SUPERPOSITION_ROUTES = ("formula", "binary_transform", "operator_compress")


def scalar_superposition_schur(
    params: SchurParameters,
    j: int,
    beta: complex,
    gamma: complex,
    order: int,
    route: str = "formula",
) -> MatrixPowerSeries:
    """Scalar Schur function of the state beta e_j + gamma e_{j+1} of a
    scalar five-diagonal matrix, by one of three routes.

    The closed form and its binary-transform version use conjugated
    weights at odd j; the operator route computes on the built matrix and
    involves no such rule, which is exactly what makes it an oracle for
    the other two.
    """
    if params.block_dim != 1:
        raise ValueError("superposition formulas are scalar (d = 1) only")
    if route not in SUPERPOSITION_ROUTES:
        raise ValueError(f"route must be one of {SUPERPOSITION_ROUTES}")
    beta, gamma = _check_state(beta, gamma)

    if route == "operator_compress":
        spec = _window_spec(params, "C", j + 1, order)
        f_pair = schur_of_subspace(build(spec), _block_range(spec, j, j + 1), order)
        return compress_to_vector(f_pair, [beta, gamma])

    b = inverse_iterate_series(params, j, order)
    f = iterate_series(params, j + 1, order)
    alpha = complex(params.alpha(j)[0, 0])
    bb, gg = (beta, gamma) if j % 2 == 0 else (np.conj(beta), np.conj(gamma))
    u, v = _superposition_uv(alpha, bb, gg)
    if route == "binary_transform":
        return binary_transform(u, v, b, f)
    num = (b * f).shift() + u * b + v * f
    den = 1 + np.conj(v) * b.shift() + np.conj(u) * f.shift()
    return (num * den.inverse()).truncate(order).mark_schur()


def hessenberg_superposition(
    params: SchurParameters,
    j: int,
    beta: complex,
    gamma: complex,
    order: int,
    route: str = "formula",
) -> MatrixPowerSeries:
    """Scalar Schur function of beta e_j + gamma e_{j+1} for the Hessenberg
    family, formula route or operator route.

    Unlike the five-diagonal case the closed form holds for every j as
    displayed; the inverse iterate rides inside the rotation entries:

        h = [z b f + bc(beta a b + gamma r) + gc(beta r b - gamma ac) f]
            / [1 + z gamma (bc r - gc a b) + z beta (bc ac + gc r b) f]

    with a = alpha_j, r = rho_j, bc/gc/ac the conjugates.
    """
    if params.block_dim != 1:
        raise ValueError("superposition formulas are scalar (d = 1) only")
    if not params.finite:
        raise ValueError("Hessenberg superposition needs a terminal sequence")
    if not 0 <= j < len(params):
        raise ValueError(f"need 0 <= j < {len(params)} so that blocks j, j+1 exist")
    beta, gamma = _check_state(beta, gamma)
    if route == "operator_compress":
        spec = _window_spec(params, "H", j + 1, order)
        h_pair = schur_of_subspace(build(spec), _block_range(spec, j, j + 1), order)
        return compress_to_vector(h_pair, [beta, gamma])
    if route != "formula":
        raise ValueError("routes here are 'formula' and 'operator_compress'")

    b = inverse_iterate_series(params, j, order)
    f = iterate_series(params, j + 1, order)
    a = complex(params.alpha(j)[0, 0])
    r = float(np.sqrt(max(0.0, 1.0 - abs(a) ** 2)))
    bc, gc, ac = np.conj(beta), np.conj(gamma), np.conj(a)
    num = (b * f).shift() + bc * (beta * a * b + gamma * r) + (gc * ((beta * r) * b - gamma * ac)) * f
    den = 1 + (gamma * (bc * r - gc * a * b)).shift() + ((beta * (bc * ac + gc * r * b)).shift() * f)
    return (num * den.inverse()).truncate(order).mark_schur()
