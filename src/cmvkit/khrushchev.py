"""Verifiers for the Schur-function factorization identities.

Every identity is checked by computing its two sides along genuinely
different routes.  The formula side assembles synthesized coefficient
series (iterates, inverse iterates, constants from unitary truncations);
the operator side extracts the same function from first-return amplitudes
of an actually built matrix and never sees the formula.  A report records
the residual together with everything needed to replay the case.

Every report is made here: the formula verifiers, the path-count and
superposition cross-checks, and `CLOSED_FORM_CASES`, one table from each
bundled worked example to its check, whose factor splits are read from
the `catalog.SPLIT_CASES` data when they run.  The command line only
parses jobs into calls of these functions.

Conventions verified against the operator oracle before being frozen
here:

* site and range formulas: b_j and f_k take the sides that
  cmv.head_is_left gives the head and tail factors across V_j and V_k.
* scalar superposition: for the state beta e_j + gamma e_{j+1}, the
  closed form is the binary transform of (b_j, f_{j+1}) and takes
  conjugated (beta, gamma) at odd j; the Hessenberg analog does not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import catalog
from .cmv import (
    CMV_FAMILIES,
    FAMILIES,
    HESSENBERG_FAMILIES,
    BlockOperatorSpec,
    block_subspace,
    build_unitary,
    head_is_left,
    unitary_truncation,
    window_spec,
)
from .linalg import Unitary, is_unitary, unit_vector
from .overlap import (
    SubspacePartition,
    abstract_khrushchev_check,
    check_overlap,
    construct_overlap,
    verify_gauge,
)
from .pathcount import N_CAP, oracle_first_return
# synthesize is not called here; it stays a name of this module because
# perfbench's tracer test checks that the tracer wraps this alias
from .schur import (  # noqa: F401
    SchurParameters,
    binary_transform,
    inverse_iterate_series,
    iterate_series,
    random_parameters,
    synthesize,
)
from .series import (
    MatrixPowerSeries,
    caratheodory_to_schur,
    coeff_distance,
    convolve,
    schur_to_caratheodory,
)
from .spectral import first_return_amplitudes, schur_of_subspace

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


def _operator_side(
    params: SchurParameters, family: str, j: int, k: int, order: int
) -> MatrixPowerSeries:
    """Schur function of blocks j..k read off the built operator, which
    carries its unitarity certificate from the Theta blocks."""
    spec = window_spec(params, family, k, order)
    return schur_of_subspace(build_unitary(spec), block_subspace(spec, range(j, k + 1)), order)


def verify_site_formula(
    params: SchurParameters,
    family: str,
    j: int,
    order: int,
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """V_j Schur function of a five-diagonal family against b_j f_j / f_j b_j."""
    if family not in CMV_FAMILIES:
        raise ValueError(f"site formula covers families {CMV_FAMILIES}, got {family!r}")
    if j < 0:
        raise ValueError("site index must be nonnegative")
    operator_side = _operator_side(params, family, j, j, order)
    f_j = iterate_series(params, j, order)
    b_j = inverse_iterate_series(params, j, order)
    formula_side = f_j * b_j if head_is_left(family, j) else b_j * f_j
    return VerificationReport(
        "site-schur-function",
        {"d": params.block_dim, "family": family, "j": j, "order": order},
        coeff_distance(operator_side, formula_side),
        tolerance,
        "first-return amplitudes of the built matrix",
        "product of synthesized iterate and inverse iterate",
    )


def verify_path_count(params: SchurParameters, family: str, j: int, order: int,
                      tolerance: float = DEFAULT_TOL) -> VerificationReport:
    """Path-enumeration cross-check of the first-return amplitudes at V_j.

    An order-N Schur function consumes a_1..a_{N+1}; the horizon covers
    them up to the enumeration's affordable length, and the window is the
    one exact at that horizon (window_spec's order is horizon - 1).  The
    paths run over the operator's d x d blocks.  The operator is certified
    once, at its assembly.
    """
    horizon = min(order + 1, 6, N_CAP)
    spec = window_spec(params, family, j, horizon - 1)
    op = build_unitary(spec)
    v = block_subspace(spec, [j])
    residual = float(np.abs(oracle_first_return(op, v, horizon, params.block_dim)
                            - first_return_amplitudes(op, v, horizon)).max())
    return VerificationReport(
        "path-count",
        {"d": params.block_dim, "dim": spec.dim, "family": family, "horizon": horizon, "j": j},
        residual, tolerance, "explicit path enumeration", "sliced-operator powers")


def substitute_into_truncation(
    params: SchurParameters, family: str, j: int, k: int, order: int
) -> MatrixPowerSeries:
    """Series-valued substitution into the adjoint of the unitary
    truncation T on blocks j..k: the inverse iterate b_j replaces the lower
    closing coefficient and the iterate f_k the upper one.  b_j multiplies
    T from the left when the head across V_j is the center-right factor,
    and f_k from the left when the head across V_k is the left-center
    factor (cmv.head_is_left).

    The result is D_L T^dagger D_R, where D_L and D_R are the identity but
    for the series on their first (b_j) or last (f_k) block.  So only the
    rows of a left end and the columns of a right end carry series, each a
    series times a constant, and the one entry where a left end's rows meet
    a right end's columns is a d x d product of two series.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not 0 <= j < k:
        raise ValueError("need 0 <= j < k")
    if k > len(params):
        raise ValueError(f"block {k} does not exist for {len(params)} coefficients")
    d, m = params.block_dim, order + 1
    n_blocks = len(params) + 1 if params.finite else k + 1
    adj = unitary_truncation(BlockOperatorSpec(params, family, n_blocks), j, k).conj().T
    w = adj.shape[0]
    ends = (
        (inverse_iterate_series(params, j, order).coeffs, slice(0, d), not head_is_left(family, j)),
        (iterate_series(params, k, order).coeffs, slice(w - d, w), head_is_left(family, k)),
    )
    out = np.zeros((m, w, w), dtype=np.complex128)
    out[0] = adj
    for s, rows, on_left in ends:
        if on_left:
            out[:, rows] = (s.reshape(m * d, d) @ adj[rows]).reshape(m, d, w)
    for t, cols, on_left in ends:
        if not on_left:
            # where a left end's rows meet these columns, the one product
            # of two series: (s T^dagger)[rows, cols] times t
            corners = [(rows, convolve(out[:, rows, cols], t)) for _, rows, left in ends if left]
            by_t = adj[:, cols] @ t.transpose(1, 0, 2).reshape(d, m * d)
            out[:, :, cols] = by_t.reshape(w, m, d).transpose(1, 0, 2)
            for rows, corner in corners:
                out[:, rows, cols] = corner
    return MatrixPowerSeries(out)


def _range_report(
    theorem: str,
    params: SchurParameters,
    family: str,
    j: int,
    k: int,
    order: int,
    tolerance: float,
) -> VerificationReport:
    """Blocks j..k of the built operator against the substitution series."""
    operator_side = _operator_side(params, family, j, k, order)
    formula_side = substitute_into_truncation(params, family, j, k, order)
    return VerificationReport(
        theorem,
        {"d": params.block_dim, "family": family, "j": j, "k": k, "order": order},
        coeff_distance(operator_side, formula_side),
        tolerance,
        "first-return amplitudes of the built matrix",
        "substitution into the adjoint unitary truncation",
    )


def verify_range_formula(
    params: SchurParameters,
    family: str,
    j: int,
    k: int,
    order: int,
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """Blocks j..k of a five-diagonal family against the substitution series."""
    if family not in CMV_FAMILIES:
        raise ValueError(f"range formula covers families {CMV_FAMILIES}, got {family!r}")
    return _range_report("range-schur-function", params, family, j, k, order, tolerance)


def verify_hessenberg_formula(
    params: SchurParameters,
    family: str,
    j: int,
    k: int,
    order: int,
    tolerance: float = DEFAULT_TOL,
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
    return _range_report(
        "hessenberg-range-schur-function", params, family, j, k, order, tolerance
    )


def compress_to_vector(f_v: MatrixPowerSeries, psi) -> MatrixPowerSeries:
    """Scalar Schur function of the state psi inside the subspace of f_V.

    Route: Cayley transform to the moment-generating side, compress the
    quadratic form <psi|F psi>, transform back.  It is the Cayley
    reference that the superposition checks' operator route, which reads
    the state's own first returns, is tested against.
    """
    psi = unit_vector(psi)
    if psi.size != f_v.block_dim:
        raise ValueError("state length does not match the series block dimension")
    big = schur_to_caratheodory(f_v)
    vals = np.einsum("i,nij,j->n", psi.conj(), big.coeffs, psi)
    scalar = MatrixPowerSeries(vals.reshape(-1, 1, 1))
    return caratheodory_to_schur(scalar)


def _state_schur(params: SchurParameters, family: str, j: int, beta: complex, gamma: complex,
                 order: int) -> MatrixPowerSeries:
    """Schur function of the unit state psi = beta e_j + gamma e_{j+1}
    (d = 1) read off the built operator: the generating function of psi's
    own first returns.  A copy of the operator, whose kept exact build is
    read-only, is rotated on coordinates j, j+1 by the unitary
    W = [[beta, -conj(gamma)], [gamma, conj(beta)]], so that coordinate j
    of W^dagger U W is psi; its Schur function is f_psi, with no series
    divided.  schur_of_subspace runs the ring cross-check on the rotated
    matrix, handed over as a Unitary: W^dagger U W is a product of three
    unitaries, so to first order its residual is at most U's certificate
    plus W's residual twice (W^dagger's equals W's), as cmv._assemble
    bounds a product, and no n x n Gram product is formed."""
    spec = window_spec(params, family, j + 1, order)
    v = list(block_subspace(spec, (j, j + 1)))  # d = 1: the coordinates j, j + 1
    kept = build_unitary(spec)
    u = kept.matrix.copy()
    w = np.array([[beta, -np.conj(gamma)], [gamma, np.conj(beta)]])
    u[:, v] = u[:, v] @ w
    u[v] = w.conj().T @ u[v]
    u.flags.writeable = False
    return schur_of_subspace(Unitary(u, kept.residual + 2.0 * is_unitary(w).residual), v[:1], order)


def _superposition_uv(alpha: complex, beta: complex, gamma: complex) -> tuple[complex, complex]:
    """Coefficients of the binary transform for the two-site superposition."""
    rho = float(np.sqrt(max(0.0, 1.0 - abs(alpha) ** 2)))
    beta_out = beta * alpha + gamma * rho
    gamma_out = beta * rho - gamma * np.conj(alpha)
    return np.conj(beta) * beta_out, np.conj(gamma) * gamma_out


def check_superposition(
    params: SchurParameters, beta: complex, gamma: complex, hessenberg: bool = False
) -> tuple[complex, complex]:
    """The weights of beta e_j + gamma e_{j+1} as complex numbers, once the
    case is one the superposition formulas cover: scalar parameters,
    |beta|^2 + |gamma|^2 = 1, and a terminal for the Hessenberg family."""
    if params.block_dim != 1:
        raise ValueError("superposition formulas are scalar (d = 1) only")
    if hessenberg and not params.finite:
        raise ValueError("Hessenberg superposition needs a terminal sequence")
    beta, gamma = complex(beta), complex(gamma)
    if not abs(abs(beta) ** 2 + abs(gamma) ** 2 - 1.0) <= 1e-8:  # NaN fails too
        raise ValueError("superposition weights must satisfy |beta|^2 + |gamma|^2 = 1, "
                         f"got beta = {beta}, gamma = {gamma}")
    return beta, gamma


def _unit_weights(params: SchurParameters, beta: complex, gamma: complex,
                  hessenberg: bool = False) -> tuple[complex, complex]:
    """check_superposition's weights scaled to the unit state psi / |psi|.
    The check admits a norm within 1e-8 of 1; both routes compute on this
    one unit state, so that defect never shows as a residual."""
    beta, gamma = check_superposition(params, beta, gamma, hessenberg)
    norm = float(np.hypot(abs(beta), abs(gamma)))
    return beta / norm, gamma / norm


SUPERPOSITION_ROUTES = ("formula", "operator_compress")


def scalar_superposition_schur(
    params: SchurParameters,
    j: int,
    beta: complex,
    gamma: complex,
    order: int,
    route: str = "formula",
) -> MatrixPowerSeries:
    """Scalar Schur function of the state beta e_j + gamma e_{j+1} of a
    scalar five-diagonal matrix, formula route or operator route.

    Both routes compute on the unit state psi / |psi|.  The formula route
    is the binary transform T_{u,v}(b_j, f_{j+1}) and uses conjugated
    weights at odd j; the operator route reads psi's own first returns
    off the built matrix (_state_schur) and involves no such rule, which
    is exactly what makes it an oracle for the formula.
    """
    beta, gamma = _unit_weights(params, beta, gamma)
    if route not in SUPERPOSITION_ROUTES:
        raise ValueError(f"route must be one of {SUPERPOSITION_ROUTES}")

    if route == "operator_compress":
        return _state_schur(params, "C", j, beta, gamma, order)

    b = inverse_iterate_series(params, j, order)
    f = iterate_series(params, j + 1, order)
    alpha = complex(params.alpha(j)[0, 0])
    bb, gg = (beta, gamma) if j % 2 == 0 else (np.conj(beta), np.conj(gamma))
    return binary_transform(*_superposition_uv(alpha, bb, gg), b, f)


def hessenberg_superposition(
    params: SchurParameters,
    j: int,
    beta: complex,
    gamma: complex,
    order: int,
    route: str = "formula",
) -> MatrixPowerSeries:
    """Scalar Schur function of beta e_j + gamma e_{j+1} for the Hessenberg
    family, formula route or operator route, both on the unit state
    psi / |psi|.  The operator route reads psi's own first returns off
    the built matrix (_state_schur).

    Unlike the five-diagonal case the closed form holds for every j as
    displayed; the inverse iterate rides inside the rotation entries:

        h = [z b f + bc(beta a b + gamma r) + gc(beta r b - gamma ac) f]
            / [1 + z gamma (bc r - gc a b) + z beta (bc ac + gc r b) f]

    with a = alpha_j, r = rho_j, bc/gc/ac the conjugates.  It is computed
    expanded over 1, b, f and b f, so b f is its one series product.
    """
    beta, gamma = _unit_weights(params, beta, gamma, hessenberg=True)
    if not 0 <= j < len(params):
        raise ValueError(f"need 0 <= j < {len(params)} so that blocks j, j+1 exist")
    if route not in SUPERPOSITION_ROUTES:
        raise ValueError(f"route must be one of {SUPERPOSITION_ROUTES}")
    if route == "operator_compress":
        return _state_schur(params, "H", j, beta, gamma, order)

    b = inverse_iterate_series(params, j, order)
    f = iterate_series(params, j + 1, order)
    bf = b * f
    a = complex(params.alpha(j)[0, 0])
    r = float(np.sqrt(max(0.0, 1.0 - abs(a) ** 2)))
    bc, gc, ac = np.conj(beta), np.conj(gamma), np.conj(a)
    # each side's weights on 1, b, f and b f, applied in one product
    basis = np.stack([np.eye(1, order + 1)[0], b.coeffs[:, 0, 0], f.coeffs[:, 0, 0], bf.coeffs[:, 0, 0]])
    num, den = np.array([[bc * gamma * r, bc * beta * a, -gc * gamma * ac, gc * beta * r],
                         [bc * gamma * r, -gc * gamma * a, bc * beta * ac, gc * beta * r]]) @ basis
    num[1:] += basis[3, :-1]  # + z b f
    den = np.concatenate(([1.0], den[:-1]))  # 1 + z (...)
    return (MatrixPowerSeries(num) / MatrixPowerSeries(den)).mark_schur()


def verify_superposition(params: SchurParameters, j: int, beta: complex, gamma: complex,
                         order: int, tolerance: float = DEFAULT_TOL,
                         hessenberg: bool = False) -> VerificationReport:
    """Formula route against operator route for the state beta e_j +
    gamma e_{j+1} of the scalar five-diagonal or Hessenberg family."""
    beta, gamma = check_superposition(params, beta, gamma, hessenberg)
    schur_fn = hessenberg_superposition if hessenberg else scalar_superposition_schur
    formula, operator = (schur_fn(params, j, beta, gamma, order, route=r)
                         for r in SUPERPOSITION_ROUTES)
    return VerificationReport(
        "hessenberg-superposition" if hessenberg else "superposition",
        {"beta": [beta.real, beta.imag], "d": params.block_dim, "gamma": [gamma.real, gamma.imag],
         "j": j, "order": order, "routes": list(SUPERPOSITION_ROUTES)},
        coeff_distance(formula, operator), tolerance,
        "route " + SUPERPOSITION_ROUTES[0], "routes " + SUPERPOSITION_ROUTES[1])


# ---------------------------------------------------------------------------
# closed-form cases: the bundled worked examples


def _closed_form_report(case, residual, tolerance, left, right) -> VerificationReport:
    return VerificationReport("closed-form", {"case": case}, float(residual),
                              tolerance, left, right)


def _check_split_case(case, order, tol) -> VerificationReport:
    """A catalog split row, read when run: the factorization rule plus the
    row's closed forms."""
    row = catalog.SPLIT_CASES[case]
    fact = row.maker()
    res = abstract_khrushchev_check(fact.product(), fact.partition, row.v_left,
                                    row.v_right, order, factorization=fact)
    resid = res.residual
    for computed, closed in ((res.f_v, row.f_v), (res.f_left, row.f_left),
                             (res.f_right, row.f_right)):
        if closed is not None:
            resid = max(resid, coeff_distance(computed, closed(order)))
    return _closed_form_report(case, resid, tol, row.left_provenance,
                               row.right_provenance)


def _check_walk_alternate(order, tol) -> VerificationReport:
    wa = catalog.coined_walk_six_alternate()
    u = wa.product()
    chk = check_overlap(u, wa.partition)
    if not chk.ok:
        return _closed_form_report("walk-alternate", float("inf"), tol,
                                   "corner/rank test", "known second factorization")
    fact = construct_overlap(u, wa.partition)
    resid = float(fact.reconstruction_residual(u))
    try:
        verify_gauge(fact, wa)
    except ValueError:
        resid = float("inf")
    return _closed_form_report("walk-alternate", resid, tol,
                               "factors rebuilt from the matrix",
                               "known second factorization, up to center gauge")


def _check_hadamard(order, tol) -> VerificationReport:
    h = catalog.hadamard_coin()
    f = schur_of_subspace(h, (0,), order)
    resid = coeff_distance(f, catalog.hadamard_coin_schur(order))
    chk = check_overlap(h, SubspacePartition(2, (0,), (), (1,)))
    if chk.ok:
        resid = float("inf")  # the corner test must reject this split
    f_sq = schur_of_subspace(h @ h, (0,), order)
    resid = max(resid, coeff_distance(f_sq, MatrixPowerSeries.one(1, order)))
    if coeff_distance(f * f, f_sq) <= tol:
        resid = float("inf")  # f^2 must NOT reproduce the squared coin
    return _closed_form_report("hadamard-no-overlap", resid, tol,
                               "first-return series of the coin and its square",
                               "rational (1+sqrt2 z)/(sqrt2+z); corner test rejection")


def _check_superposition_extremes(order, tol) -> VerificationReport:
    rng = np.random.default_rng(17)
    params = random_parameters(1, 6, rng)
    resid = 0.0
    for j in (1, 2):
        b_j = inverse_iterate_series(params, j, order)
        f_j = iterate_series(params, j, order)
        b_n = inverse_iterate_series(params, j + 1, order)
        f_n = iterate_series(params, j + 1, order)
        pure_j = scalar_superposition_schur(params, j, 1.0, 0.0, order)
        pure_next = scalar_superposition_schur(params, j, 0.0, 1.0, order)
        resid = max(resid,
                    coeff_distance(pure_j, b_j * f_j),
                    coeff_distance(pure_next, f_n * b_n))
    return _closed_form_report("superposition-extremes", resid, tol,
                               "two-state transform at (1,0) and (0,1)",
                               "single-site products b_j f_j and f_{j+1} b_{j+1}")


# closed-form case -> check(order, tol); the factor splits are
# catalog.SPLIT_CASES rows, looked up when they run
CLOSED_FORM_CASES = {
    **{case: partial(_check_split_case, case) for case in catalog.SPLIT_CASES},
    "walk-alternate": _check_walk_alternate,
    "hadamard-no-overlap": _check_hadamard,
    "superposition-extremes": _check_superposition_extremes,
}
