"""Formula-vs-oracle verifiers: single-site, block-range, Hessenberg, and
two-site superposition Schur functions."""

import json
from unittest import mock

import numpy as np
import pytest

from cmvkit import khrushchev, linalg, series
from cmvkit.cmv import BlockOperatorSpec, build, build_unitary, unitary_truncation
from cmvkit.khrushchev import (
    SUPERPOSITION_ROUTES,
    VerificationReport,
    check_superposition,
    compress_to_vector,
    hessenberg_superposition,
    scalar_superposition_schur,
    substitute_into_truncation,
    verify_hessenberg_formula,
    verify_path_count,
    verify_range_formula,
    verify_site_formula,
    verify_superposition,
)
from cmvkit.schur import (
    SchurParameters,
    inverse_iterate,
    inverse_iterate_series,
    iterate,
    iterate_series,
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


SUPERPOSITION_FUNCTIONS = {"C": scalar_superposition_schur, "H": hessenberg_superposition}
FIXED_WEIGHTS = ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j))


def cayley_reference(p, family, j, beta, gamma, order):
    """The operator route the rotation replaced: the two-block Schur
    function of the built operator compressed to the state through two
    Caratheodory transforms."""
    return compress_to_vector(khrushchev._operator_side(p, family, j, j + 1, order), [beta, gamma])


def random_phase_weights(rng):
    t, phases = rng.uniform(0.0, np.pi / 2), np.exp(2j * np.pi * rng.random(2))
    return np.cos(t) * phases[0], np.sin(t) * phases[1]


class TestStateSchur:
    """The operator route of both superposition checks, psi's own first
    returns off the rotated operator, against the Cayley round trip."""

    @pytest.mark.parametrize("order", [0, 1, 12, 64])
    @pytest.mark.parametrize("family, terminal", [("C", False), ("C", True), ("H", True)])
    def test_matches_the_cayley_reference_at_every_j(self, family, terminal, order):
        worst = 0.0
        for seed in range(3):
            rng = np.random.default_rng([seed, order, terminal])
            # an open set has a window for j = 0..6; a terminal set builds
            # every pair of blocks j, j + 1
            p = random_parameters(1, order + 9 if not terminal else seed + 2, rng, terminal=terminal)
            for j in range(7 if not terminal else len(p)):
                for beta, gamma in (*FIXED_WEIGHTS, random_phase_weights(rng)):
                    got = SUPERPOSITION_FUNCTIONS[family](p, j, beta, gamma, order, route="operator_compress")
                    assert got.order == order
                    worst = max(worst, coeff_distance(got, cayley_reference(p, family, j, beta, gamma, order)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("family, terminal", [("C", False), ("C", True), ("H", True)])
    def test_the_rotated_certificate_bounds_its_dense_residual(self, family, terminal, monkeypatch):
        handed = []
        original = khrushchev.schur_of_subspace
        monkeypatch.setattr(khrushchev, "schur_of_subspace",
                            lambda u, v, order: handed.append(u) or original(u, v, order))
        for seed in range(4):
            rng = np.random.default_rng([seed, terminal, 7])
            p = random_parameters(1, 21 if not terminal else seed + 2, rng, terminal=terminal)
            for j in range(7 if not terminal else len(p)):
                for beta, gamma in (*FIXED_WEIGHTS, random_phase_weights(rng)):
                    handed.clear()
                    SUPERPOSITION_FUNCTIONS[family](p, j, beta, gamma, 12, route="operator_compress")
                    (u,) = handed
                    assert isinstance(u, linalg.Unitary) and not u.matrix.flags.writeable
                    # a first-order bound, as the assembler's: rounding of
                    # the matrix itself sits far below UNITARY_TOL
                    assert linalg.is_unitary(u.matrix).residual <= u.residual + 1e-13, (j, u.residual)

    @pytest.mark.parametrize("family", ["C", "H"])
    def test_leaves_the_kept_operator_unchanged(self, rng, family):
        p = random_parameters(1, 5, rng, terminal=True)
        kept = build_unitary(BlockOperatorSpec(p, family, 6))
        before = kept.matrix.copy()
        for j in range(5):
            SUPERPOSITION_FUNCTIONS[family](p, j, 0.6, 0.8j, 12, route="operator_compress")
        if family == "H":
            assert verify_superposition(p, 2, 0.6, 0.8j, 12, hessenberg=True).ok
        assert build_unitary(BlockOperatorSpec(p, family, 6)) is kept
        assert np.array_equal(kept.matrix, before) and not kept.matrix.flags.writeable


class TestWeightsOffTheUnitSphere:
    """check_superposition admits |beta|^2 + |gamma|^2 within 1e-8 of 1;
    both routes compute on psi / |psi|, so the defect is no residual."""

    S = np.sqrt(1 + 9e-9)

    @pytest.mark.parametrize("hessenberg, p, j, beta, gamma", [
        (True, random_parameters(1, 6, np.random.default_rng(0), terminal=True), 2, 0.6 * S, 0.8j * S),
        (False, random_parameters(1, 33, np.random.default_rng(4)), 0, S, 0.0),
    ])
    def test_routes_agree_on_the_normalized_state(self, hessenberg, p, j, beta, gamma):
        report = verify_superposition(p, j, beta, gamma, 12, hessenberg=hessenberg)
        assert report.ok and report.residual <= 1e-13
        # the report keeps the weights as given
        assert report.params["beta"] == [complex(beta).real, complex(beta).imag]
        assert report.params["gamma"] == [complex(gamma).real, complex(gamma).imag]
        fn = hessenberg_superposition if hessenberg else scalar_superposition_schur
        for route in SUPERPOSITION_ROUTES:
            scaled = fn(p, j, beta, gamma, 12, route=route)
            unit = fn(p, j, beta / self.S, gamma / self.S, 12, route=route)
            assert coeff_distance(scaled, unit) <= 1e-15


def displayed_hessenberg_form(p, j, beta, gamma, order):
    """The Hessenberg closed form as displayed, with three series products."""
    b = inverse_iterate_series(p, j, order)
    f = iterate_series(p, j + 1, order)
    a = complex(p.alpha(j)[0, 0])
    r = float(np.sqrt(max(0.0, 1.0 - abs(a) ** 2)))
    bc, gc, ac = np.conj(beta), np.conj(gamma), np.conj(a)
    num = (b * f).shift() + bc * (beta * a * b + gamma * r) + (gc * ((beta * r) * b - gamma * ac)) * f
    den = 1 + (gamma * (bc * r - gc * a * b)).shift() + ((beta * (bc * ac + gc * r * b)).shift() * f)
    return num / den


class TestHessenbergExpandedForm:
    @pytest.mark.parametrize("order", [0, 1, 12, 64])
    def test_matches_the_displayed_form(self, order):
        worst = 0.0
        for seed in range(6):
            rng = np.random.default_rng([seed, order])
            p = random_parameters(1, seed + 1, rng, terminal=True)
            for j in range(len(p)):
                for beta, gamma in (*FIXED_WEIGHTS, random_phase_weights(rng)):
                    got = hessenberg_superposition(p, j, beta, gamma, order)
                    assert got.order == order
                    worst = max(worst, coeff_distance(got, displayed_hessenberg_form(p, j, beta, gamma, order)))
        assert worst <= 1e-13

    def test_forms_one_series_product(self, rng):
        p = random_parameters(1, 5, rng, terminal=True)
        hessenberg_superposition(p, 1, 0.6, 0.8j, 16)  # the iterates are kept on p
        with mock.patch.object(series, "convolve", wraps=series.convolve) as spy:
            hessenberg_superposition(p, 1, 0.6, 0.8j, 16)
        assert spy.call_count == 1


REFUSALS = {
    "site formula on H": (lambda p: verify_site_formula(p, "H", 0, 4),
                          r"^site formula covers families \('C', 'Chat'\), got 'H'$"),
    "site formula at j = -1": (lambda p: verify_site_formula(p, "C", -1, 4),
                               "^site index must be nonnegative$"),
    "range formula on H": (lambda p: verify_range_formula(p, "H", 0, 2, 4),
                           r"^range formula covers families \('C', 'Chat'\), got 'H'$"),
    "hessenberg formula on C": (lambda p: verify_hessenberg_formula(p, "C", 0, 2, 4),
                                r"^hessenberg formula covers families \('H', 'Hhat'\), got 'C'$"),
    "substitution into an unknown family": (lambda p: substitute_into_truncation(p, "X", 0, 2, 4),
                                            "^unknown family 'X'$"),
    "state of the wrong length": (lambda p: compress_to_vector(synthesize(p, 4), [1.0, 0.0]),
                                  "^state length does not match the series block dimension$"),
    "scalar superposition route": (
        lambda p: scalar_superposition_schur(p, 0, 0.6, 0.8, 4, route="bogus"),
        r"^route must be one of \('formula', 'operator_compress'\)$"),
    "hessenberg superposition route": (
        lambda p: hessenberg_superposition(p, 0, 0.6, 0.8, 4, route="bogus"),
        r"^route must be one of \('formula', 'operator_compress'\)$"),
}


@pytest.mark.parametrize("call", REFUSALS)
def test_verifiers_and_inputs_refuse_what_they_do_not_cover(call):
    run, message = REFUSALS[call]
    with pytest.raises(ValueError, match=message):
        run(scalar_params([0.3, -0.2j, 0.5], terminal=1j))


OPEN = scalar_params([0.3, -0.2j, 0.5, 0.1] * 6)
TERMINAL = scalar_params([0.3, -0.2j, 0.5], terminal=1j)
# each verifier, and the index arguments of one call that passes
INDEXED = {
    "site formula": (lambda j, order: verify_site_formula(OPEN, "C", j, order), {"j": 1, "order": 4}),
    "range formula": (lambda j, k, order: verify_range_formula(OPEN, "C", j, k, order),
                      {"j": 1, "k": 2, "order": 4}),
    "hessenberg formula": (lambda j, k, order: verify_hessenberg_formula(TERMINAL, "H", j, k, order),
                           {"j": 1, "k": 2, "order": 4}),
    "path count": (lambda j, order: verify_path_count(OPEN, "Chat", j, order), {"j": 1, "order": 4}),
    "superposition": (lambda j, order: verify_superposition(TERMINAL, j, 0.6, 0.8j, order, hessenberg=True),
                      {"j": 1, "order": 4}),
}


@pytest.mark.parametrize("name, index", [(name, i) for name, (_, args) in INDEXED.items() for i in args])
def test_verifiers_take_integer_indices_only(name, index):
    run, args = INDEXED[name]
    want = run(**args)
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match=f"^{index} must be an integer, got {bad!r}$"):
            run(**{**args, index: bad})
    # a numpy integer is the Python int in the report
    got = run(**{**args, index: np.int64(args[index])})
    assert got.summary() == want.summary()
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
