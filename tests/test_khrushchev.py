"""Formula-vs-oracle verifiers: single-site, block-range, Hessenberg, and
two-site superposition Schur functions."""

import json

import numpy as np
import pytest

from cmvkit import khrushchev
from cmvkit.cmv import BlockOperatorSpec, build, unitary_truncation
from cmvkit.khrushchev import (
    SUPERPOSITION_ROUTES,
    VerificationReport,
    check_superposition,
    compress_to_vector,
    hessenberg_superposition,
    scalar_superposition_schur,
    substitute_into_truncation,
    verify_hessenberg_formula,
    verify_range_formula,
    verify_site_formula,
)
from cmvkit.schur import (
    SchurParameters,
    inverse_iterate,
    iterate,
    random_parameters,
    synthesize,
)
from cmvkit.series import (
    MatrixPowerSeries,
    coeff_distance,
)
from helpers import direct_sum_series, grid_max_norm, theta


def scalar_params(values, terminal=None):
    alphas = tuple(np.array([[v]], dtype=complex) for v in values)
    term = None if terminal is None else np.array([[terminal]], dtype=complex)
    return SchurParameters(1, alphas, term)


class TestReport:
    def test_pass_is_residual_within_tolerance(self):
        rep = VerificationReport("t", {"j": 0}, 1e-9, 1e-8, "a", "b")
        assert rep.ok
        assert not VerificationReport("t", {}, 1e-7, 1e-8, "a", "b").ok

    def test_json_payload_fields(self):
        rep = verify_site_formula(scalar_params([0.2, -0.3, 0.1] * 10), "C", 0, 6)
        body = rep.to_json()
        assert body["pass"] is True
        assert set(body) >= {"theorem", "params", "residual", "tolerance", "left", "right"}
        json.dumps(body)

    def test_summary_line_shape(self):
        rep = VerificationReport("demo", {"j": 1}, 2e-3, 1e-8, "a", "b")
        line = rep.summary()
        assert line.startswith("[FAIL] demo")
        assert "residual" in line


class TestSiteFormula:
    def test_scalar_j0_round_trip(self):
        rep = verify_site_formula(scalar_params([0.3, -0.2, 0.4] * 10), "C", 0, 10)
        assert rep.ok, rep.residual

    def test_free_sequence_both_sides_vanish(self):
        p = scalar_params([0.0] * 30)
        for j in (0, 1, 2):
            rep = verify_site_formula(p, "C", j, 8)
            assert rep.ok
            f = synthesize(iterate(p, j), 8)
            assert np.abs(f.coeffs).max() < 1e-14

    def test_block_parameters_all_sites_both_families(self, rng):
        p = random_parameters(2, 36, rng)
        for family in ("C", "Chat"):
            for j in range(6):
                rep = verify_site_formula(p, family, j, 12)
                assert rep.ok, (family, j, rep.residual)

    def test_window_too_small_is_refused(self):
        with pytest.raises(ValueError, match="window"):
            verify_site_formula(scalar_params([0.1, 0.2]), "C", 1, 12)


class TestSubstitution:
    def test_adjacent_pair_is_rotation_sandwich(self, rng):
        # f_[j,j+1] at even j is (b_j + f_{j+1}) theta(a_j)^dagger
        p = random_parameters(1, 30, rng)
        got = substitute_into_truncation(p, "C", 0, 1, 10)
        b0 = synthesize(inverse_iterate(p, 0), 10)
        f1 = synthesize(iterate(p, 1), 10)
        mid = MatrixPowerSeries.constant(theta(p.alpha(0)).conj().T, 10)
        want = direct_sum_series(b0, f1) * mid
        assert coeff_distance(got, want) < 1e-12

    def test_free_sequence_gives_monomials(self):
        p = scalar_params([0.0] * 12)
        s = substitute_into_truncation(p, "C", 1, 3, 8)
        b1 = synthesize(inverse_iterate(p, 1), 8)
        assert np.abs(b1.scalar_coeffs() - np.eye(9)[1]).max() < 1e-14
        f3 = synthesize(iterate(p, 3), 8)
        assert np.abs(f3.coeffs).max() < 1e-14
        # with b_1 = z and f_3 = 0 every entry of the substitution is a
        # monomial: nothing beyond degree 1 survives
        assert np.abs(s.coeffs[2:]).max() < 1e-14

    def test_constant_term_recovers_adjoint_submatrix(self, rng):
        # at z = 0 the substituted series collapses back to the adjoint of
        # the plain submatrix, because b_j(0) is the closing coefficient
        # -a_{j-1}^dagger and f_k(0) = a_k
        d = 2
        p = random_parameters(d, 30, rng)
        j, k = 1, 3
        s = substitute_into_truncation(p, "C", j, k, 6)
        spec = BlockOperatorSpec(p, "C", len(p))
        want = build(spec)[j * d : (k + 1) * d, j * d : (k + 1) * d].conj().T
        assert np.abs(s.coeff(0) - want).max() < 1e-12

    def test_rejects_bad_ranges(self, rng):
        p = random_parameters(1, 8, rng)
        with pytest.raises(ValueError):
            substitute_into_truncation(p, "C", 2, 2, 6)
        with pytest.raises(ValueError):
            substitute_into_truncation(p, "C", 1, 9, 6)


class TestRangeFormula:
    def test_scalar_all_four_parities(self, rng):
        p = random_parameters(1, 34, rng)
        for j, k in [(1, 3), (1, 4), (2, 4), (2, 5)]:
            rep = verify_range_formula(p, "C", j, k, 12)
            assert rep.ok, (j, k, rep.residual)

    def test_hat_family_parity_flip(self, rng):
        p = random_parameters(1, 34, rng)
        rep = verify_range_formula(p, "Chat", 1, 4, 12)
        assert rep.ok, rep.residual

    def test_block_parameters(self, rng):
        p = random_parameters(2, 32, rng)
        rep = verify_range_formula(p, "C", 1, 3, 12)
        assert rep.ok, rep.residual

    def test_substitution_series_is_contractive(self, rng):
        p = random_parameters(1, 30, rng)
        s = substitute_into_truncation(p, "C", 1, 3, 10)
        assert grid_max_norm(s) <= 1.0 + 1e-6


class TestHessenbergFormula:
    def test_single_coefficient_pair(self):
        rep = verify_hessenberg_formula(scalar_params([0.4], 1.0), "H", 0, 1, 12)
        assert rep.ok, rep.residual

    def test_block_parameters_with_terminal(self, rng):
        p = random_parameters(2, 4, rng, terminal=True)
        rep = verify_hessenberg_formula(p, "H", 1, 3, 12)
        assert rep.ok, rep.residual

    def test_hat_family(self, rng):
        p = random_parameters(2, 4, rng, terminal=True)
        rep = verify_hessenberg_formula(p, "Hhat", 1, 3, 12)
        assert rep.ok, rep.residual

    def test_j0_reduces_to_one_sided_sandwich(self, rng):
        # b_0 is the constant 1, so only the f_k side remains
        p = random_parameters(1, 4, rng, terminal=True)
        k = 2
        got = substitute_into_truncation(p, "H", 0, k, 10)
        f_k = synthesize(iterate(p, k), 10)
        spec = BlockOperatorSpec(p, "H", 5)
        mid = MatrixPowerSeries.constant(unitary_truncation(spec, 0, k).conj().T, 10)
        want = direct_sum_series(MatrixPowerSeries.one(k, 10), f_k) * mid
        assert coeff_distance(got, want) < 1e-12

    def test_needs_terminal(self, rng):
        p = random_parameters(1, 30, rng)
        with pytest.raises(ValueError, match="terminal"):
            verify_hessenberg_formula(p, "H", 0, 2, 8)


class TestFactorOrderRule:
    """The operator route does not read cmv.head_is_left, so it checks
    the rule: with the rule negated every site and range formula fails."""

    RANGES = [(1, 2), (1, 3), (2, 3), (2, 4)]

    def _reports(self, rng):
        # d = 2: scalar b_j and f_j commute, which would hide the site order
        open_p = random_parameters(2, 24, rng)
        finite_p = random_parameters(2, 5, rng, terminal=True)
        for family in ("C", "Chat"):
            for j in (1, 2):
                yield verify_site_formula(open_p, family, j, 8)
            for j, k in self.RANGES:
                yield verify_range_formula(open_p, family, j, k, 8)
        for family in ("H", "Hhat"):
            for j, k in self.RANGES:
                yield verify_hessenberg_formula(finite_p, family, j, k, 8)

    def test_formulas_pass_with_the_rule(self, rng):
        assert all(rep.ok for rep in self._reports(rng))

    def test_formulas_fail_with_the_rule_negated(self, rng, monkeypatch):
        rule = khrushchev.head_is_left
        monkeypatch.setattr(khrushchev, "head_is_left", lambda family, j: not rule(family, j))
        failed = [not rep.ok for rep in self._reports(rng)]
        assert len(failed) == 20 and all(failed)


class TestTransposeCovariance:
    def test_hat_residual_matches_transposed_parameters(self, rng):
        p = random_parameters(2, 32, rng)
        pt = SchurParameters(2, tuple(a.T for a in p.alphas))
        for j in (1, 2):
            a = verify_site_formula(p, "Chat", j, 10)
            b = verify_site_formula(pt, "C", j, 10)
            assert a.ok and b.ok


class TestScalarSuperposition:
    def test_extreme_beta_is_site_at_j(self, rng):
        p = random_parameters(1, 32, rng)
        j = 2
        f = scalar_superposition_schur(p, j, 1.0, 0.0, 10)
        b = synthesize(inverse_iterate(p, j), 10)
        g = synthesize(iterate(p, j), 10)
        assert coeff_distance(f, b * g) < 1e-10

    def test_extreme_gamma_is_site_at_next(self, rng):
        p = random_parameters(1, 32, rng)
        j = 2
        f = scalar_superposition_schur(p, j, 0.0, 1.0, 10)
        b = synthesize(inverse_iterate(p, j + 1), 10)
        g = synthesize(iterate(p, j + 1), 10)
        assert coeff_distance(f, g * b) < 1e-10

    @pytest.mark.parametrize("j", [1, 2])
    def test_routes_agree(self, rng, j):
        p = random_parameters(1, 32, rng)
        beta, gamma = 0.6, 0.8j
        outs = [
            scalar_superposition_schur(p, j, beta, gamma, 12, route)
            for route in SUPERPOSITION_ROUTES
        ]
        for a in outs[1:]:
            assert coeff_distance(outs[0], a) < 1e-8

    def test_rejects_unnormalized_weights(self, rng):
        p = random_parameters(1, 32, rng)
        with pytest.raises(ValueError, match="weights"):
            scalar_superposition_schur(p, 1, 1.0, 1.0, 8)

    def test_rejects_block_parameters(self, rng):
        p = random_parameters(2, 32, rng)
        with pytest.raises(ValueError, match="scalar"):
            scalar_superposition_schur(p, 1, 1.0, 0.0, 8)

    @pytest.mark.parametrize("beta, gamma", [(float("nan"), 0.0), (1.0, complex("nan"))])
    def test_rejects_weights_that_are_not_finite(self, rng, beta, gamma):
        p = random_parameters(1, 32, rng)
        with pytest.raises(ValueError, match="superposition weights must satisfy"):
            check_superposition(p, beta, gamma)


class TestCompressToVector:
    def test_block_diagonal_picks_first_block(self, rng):
        f = synthesize(random_parameters(1, 5, rng), 10)
        g = synthesize(random_parameters(1, 5, rng), 10)
        got = compress_to_vector(direct_sum_series(f, g), [1.0, 0.0])
        assert coeff_distance(got, f) < 1e-10

    def test_basis_vector_on_pair_matches_site(self, rng):
        # e_1 inside the two-block subspace reproduces the single-site
        # scalar formula: the superposition machinery at (1, 0)
        p = random_parameters(1, 32, rng)
        j = 2
        via_pair = scalar_superposition_schur(p, j, 1.0, 0.0, 10, "operator_compress")
        b = synthesize(inverse_iterate(p, j), 10)
        g = synthesize(iterate(p, j), 10)
        assert coeff_distance(via_pair, b * g) < 1e-8

    def test_rejects_unnormalized_state(self, rng):
        f = synthesize(random_parameters(1, 4, rng), 6)
        with pytest.raises(ValueError, match="normalized"):
            compress_to_vector(direct_sum_series(f, f), [1.0, 1.0])


class TestHessenbergSuperposition:
    def test_formula_matches_operator_route(self, rng):
        p = random_parameters(1, 6, rng, terminal=True)
        for j in (0, 1):
            a = hessenberg_superposition(p, j, 0.6, 0.8j, 12, "formula")
            b = hessenberg_superposition(p, j, 0.6, 0.8j, 12, "operator_compress")
            assert coeff_distance(a, b) < 1e-8, j

    def test_gamma_zero_generic_alpha(self, rng):
        p = random_parameters(1, 6, rng, terminal=True)
        a = hessenberg_superposition(p, 1, 1.0, 0.0, 12, "formula")
        b = hessenberg_superposition(p, 1, 1.0, 0.0, 12, "operator_compress")
        assert coeff_distance(a, b) < 1e-8

    def test_needs_terminal(self, rng):
        p = random_parameters(1, 30, rng)
        with pytest.raises(ValueError, match="terminal"):
            hessenberg_superposition(p, 0, 1.0, 0.0, 8)

    def test_j_must_leave_next_block(self):
        p = scalar_params([0.3], 1.0)
        with pytest.raises(ValueError):
            hessenberg_superposition(p, 1, 1.0, 0.0, 8)
