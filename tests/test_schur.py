"""Schur algorithm tests: parameter extraction, synthesis, iterates."""

import numpy as np
import pytest

from cmvkit import schur
from cmvkit.catalog import diffusion_center_schur, rational_series
from cmvkit.schur import (
    SchurParameters,
    binary_transform,
    inverse_iterate,
    inverse_iterate_series,
    iterate,
    iterate_series,
    mobius_step,
    parameters_to_json,
    random_parameters,
    rho_left,
    rho_right,
    schur_forward,
    synthesize,
)
from cmvkit.series import MatrixPowerSeries, coeff_distance


def scalar_params(values, terminal=None):
    alphas = tuple(np.array([[v]], dtype=complex) for v in values)
    term = None if terminal is None else np.array([[terminal]], dtype=complex)
    return SchurParameters(1, alphas, term)


class TestParameterValidation:
    def test_rejects_non_contraction(self):
        with pytest.raises(ValueError, match="strict contraction"):
            scalar_params([1.0])

    def test_rejects_norm_one_rotation(self):
        with pytest.raises(ValueError):
            SchurParameters(2, (np.array([[0, 1], [-1, 0]], dtype=complex),))

    def test_rejects_non_unitary_terminal(self):
        with pytest.raises(ValueError, match="terminal"):
            scalar_params([0.5], terminal=0.5)

    def test_accepts_contraction_with_unitary_terminal(self):
        p = scalar_params([0.5, -0.25j], terminal=1j)
        assert len(p) == 2 and p.finite


class TestForward:
    def test_zero_series_gives_zero_parameters(self):
        p = schur_forward(MatrixPowerSeries.zero(1, 8), 5)
        assert len(p) == 5 and p.terminal is None
        assert all(abs(a[0, 0]) == 0.0 for a in p.alphas)

    def test_unimodular_constant_is_a_terminal(self):
        f = MatrixPowerSeries.constant([[1j]], 6)
        p = schur_forward(f, 6)
        assert len(p) == 0 and p.finite
        assert p.terminal[0, 0] == 1j

    def test_diffusion_center_leading_parameter(self):
        # the rational vanishes to f(0) = 1/6, which is the first parameter
        p = schur_forward(diffusion_center_schur(10), 1)
        assert abs(p.alpha(0)[0, 0] - 1.0 / 6.0) < 1e-12

    def test_rejects_too_many_steps(self):
        with pytest.raises(ValueError):
            schur_forward(MatrixPowerSeries.zero(1, 3), 4)


class TestSynthesize:
    def test_terminal_only_is_constant(self):
        f = synthesize(scalar_params([], terminal=-1.0), 5)
        assert np.allclose(f.scalar_coeffs(), [-1, 0, 0, 0, 0, 0])

    def test_zero_parameter_with_unit_terminal_gives_z(self):
        f = synthesize(scalar_params([0.0], terminal=1.0), 5)
        assert np.abs(f.scalar_coeffs() - [0, 1, 0, 0, 0, 0]).max() < 1e-14

    def test_round_trip_scalar_rational(self):
        f = diffusion_center_schur(12)
        p = schur_forward(f, 6)
        assert coeff_distance(synthesize(p, 12), f, order=6) < 1e-10

    def test_round_trip_matrix_parameters(self, rng):
        p = random_parameters(2, 5, rng)
        f = synthesize(p, 16)
        back = schur_forward(f, 5)
        worst = max(
            np.abs(back.alpha(j) - p.alpha(j)).max() for j in range(5)
        )
        assert worst < 1e-9

    def test_needs_something_to_synthesize(self):
        with pytest.raises(ValueError):
            synthesize(SchurParameters(1, ()), 4)

    def test_low_order_truncation_overshoot_is_tolerated(self):
        # parameters near the contraction boundary give a function whose
        # order-8 truncation exceeds 1 on the outer sample ring; that is
        # truncation tail, not a contractivity failure, and synthesis
        # must not reject its own output
        p = random_parameters(1, 20, np.random.default_rng(4))
        f = synthesize(inverse_iterate(p, 1), 8)
        assert f.schur
        assert f.max_disk_norm() > 1.0


class TestIterates:
    def test_zeroth_iterate_is_identity(self, rng):
        p = random_parameters(2, 4, rng)
        q = iterate(p, 0)
        assert q.alphas == p.alphas and q.terminal is p.terminal

    def test_iterate_drops_leading_parameters(self):
        p = scalar_params([0.1, 0.2, 0.3])
        q = iterate(p, 2)
        assert len(q) == 1 and q.alpha(0)[0, 0] == pytest.approx(0.3)

    def test_iterate_matches_forward_recursion(self, rng):
        # peeling j parameters off the synthesized series must land on the
        # synthesized iterate
        p = random_parameters(1, 5, rng)
        f = synthesize(p, 14)
        peeled = schur_forward(f, 3)
        f3 = synthesize(iterate(p, 3), 10)
        # rebuild the remainder series after three forward steps
        g = f
        for j in range(3):
            g = _forward_step(g, p.alpha(j))
        assert coeff_distance(g, f3, order=8) < 1e-9

    def test_inverse_iterate_zero_is_constant_one(self):
        p = scalar_params([0.4, 0.2])
        b0 = synthesize(inverse_iterate(p, 0), 6)
        assert np.abs(b0.scalar_coeffs() - [1, 0, 0, 0, 0, 0, 0]).max() < 1e-14

    def test_first_inverse_iterate_is_elementary_blaschke(self):
        # b_1 = (z - a)/(1 - a z) for a single real parameter a
        a = 0.37
        p = scalar_params([a, 0.1])
        b1 = synthesize(inverse_iterate(p, 1), 10)
        want = rational_series((-a, 1.0), (1.0, -a), 10)
        assert coeff_distance(b1, want) < 1e-12

    def test_inverse_iterate_of_zero_sequence_is_monomial(self):
        p = scalar_params([0.0, 0.0, 0.0])
        b3 = synthesize(inverse_iterate(p, 3), 6)
        assert np.abs(b3.scalar_coeffs() - [0, 0, 0, 1, 0, 0, 0]).max() < 1e-14

    def test_inverse_iterate_reverses_and_negates(self, rng):
        p = random_parameters(2, 3, rng)
        b = inverse_iterate(p, 3)
        assert np.allclose(b.alpha(0), -p.alpha(2).conj().T)
        assert np.allclose(b.alpha(2), -p.alpha(0).conj().T)
        assert np.allclose(b.terminal, np.eye(2))


class TestParameterMemo:
    def test_memo_leaves_equality_repr_and_json_alone(self):
        p = scalar_params([0.3, -0.2j, 0.5], terminal=1j)
        fresh = scalar_params([0.3, -0.2j, 0.5], terminal=1j)
        before = (repr(p), parameters_to_json(p))
        p.defects(1)
        iterate_series(p, 1, 6)
        inverse_iterate_series(p, 2, 6)
        assert p._defects and p._series
        assert p == fresh
        assert (repr(p), parameters_to_json(p)) == before

    def test_defects_are_the_public_defect_matrices(self, rng):
        p = random_parameters(3, 4, rng)
        rl, rr, rl_inv, rr_inv = p.defects(2)
        assert np.array_equal(rl, rho_left(p.alpha(2)))
        assert np.array_equal(rr, rho_right(p.alpha(2)))
        assert np.array_equal(rl_inv, np.linalg.inv(rl))
        assert np.array_equal(rr_inv, np.linalg.inv(rr))
        assert p.defects(2) is p.defects(2)

    def test_caller_arrays_are_copied_read_only(self):
        a = np.array([[0.5]], dtype=np.complex128)
        t = np.array([[1.0]], dtype=np.complex128)
        p = SchurParameters(1, (a, 0.2 * a), terminal=t)
        series = iterate_series(p, 0, 4)
        a[0, 0] = 0.99999999999
        t[0, 0] = 1j
        assert p.alpha(0)[0, 0] == 0.5 and p.alpha(1)[0, 0] == 0.1
        assert p.terminal[0, 0] == 1.0
        fresh = scalar_params([0.5, 0.1], terminal=1.0)
        assert np.array_equal(series.coeffs, iterate_series(fresh, 0, 4).coeffs)
        for m in (p.alpha(0), p.terminal):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.0
        # a set built from another set's parameters shares them
        assert iterate(p, 1).alpha(0) is p.alpha(1)

    @pytest.mark.parametrize("d, length", [(1, 1), (2, 6), (3, 4)])
    def test_every_iterate_and_inverse_iterate_takes_two_roots_per_parameter(
        self, d, length, rng, monkeypatch
    ):
        p = random_parameters(d, length, rng, terminal=True)
        calls = []
        original = schur.hermitian_psd_sqrt

        def counting(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(schur, "hermitian_psd_sqrt", counting)
        for j in range(length + 1):
            iterate_series(p, j, 7)
            inverse_iterate_series(p, j, 7)
        assert len(calls) == 2 * length

    def test_shared_series_reject_out_of_range_indices(self):
        p = scalar_params([0.3, 0.2])
        for fn in (iterate_series, inverse_iterate_series):
            with pytest.raises(ValueError):
                fn(p, 3, 4)
            with pytest.raises(ValueError):
                fn(p, -1, 4)
            with pytest.raises(ValueError):
                fn(p, 0, -1)
        with pytest.raises(ValueError, match="terminal"):
            iterate_series(p, 2, 4)


def _forward_step(f, alpha):
    """One forward Schur step, written out locally as an oracle."""
    d = f.block_dim
    one = MatrixPowerSeries.one(d, f.order)
    num = f - MatrixPowerSeries.constant(alpha, f.order)
    den = (one - f.lmul_const(alpha.conj().T)).inverse()
    g = (num * den).unshift(1, tol=1e-8)
    return g.lmul_const(np.linalg.inv(rho_right(alpha))).rmul_const(rho_left(alpha))


class TestMobiusStep:
    def test_zero_parameter_multiplies_by_z(self, rng):
        f = MatrixPowerSeries(0.3 * rng.standard_normal((6, 2, 2)))
        out = mobius_step(np.zeros((2, 2)), f)
        assert coeff_distance(out, f.shift(), order=6) < 1e-12

    def test_value_at_origin_is_the_parameter(self, rng):
        a = 0.3 * rng.standard_normal((2, 2))
        out = mobius_step(a, MatrixPowerSeries.one(2, 5))
        assert np.abs(out.coeff(0) - a).max() < 1e-12

    def test_forward_step_inverts_it(self, rng):
        a = np.array([[0.2 + 0.1j]])
        f = MatrixPowerSeries(0.4 * rng.standard_normal((8, 1, 1)))
        back = _forward_step(mobius_step(a, f), a)
        assert coeff_distance(back, f, order=7) < 1e-10

    def test_rejects_unitary_parameter(self):
        with pytest.raises(ValueError):
            mobius_step(np.array([[1.0]]), MatrixPowerSeries.zero(1, 4))


class TestBinaryTransform:
    def test_zero_weights_give_z_g_h(self, rng):
        g = synthesize(random_parameters(1, 5, rng), 7)
        h = synthesize(random_parameters(1, 5, rng), 7)
        out = binary_transform(0.0, 0.0, g, h)
        assert coeff_distance(out, (g * h).shift()) < 1e-12

    def test_reduces_to_single_step_when_first_slot_is_one(self, rng):
        a = 0.35 - 0.2j
        f = synthesize(random_parameters(1, 5, rng), 8)
        one = MatrixPowerSeries.one(1, 8)
        got = binary_transform(a, 0.0, one, f)
        want = mobius_step(np.array([[a]]), f)
        assert coeff_distance(got, want) < 1e-12

    def test_output_is_contractive_on_samples(self, rng):
        g = synthesize(random_parameters(1, 4, rng), 12)
        h = synthesize(random_parameters(1, 4, rng), 12)
        out = binary_transform(0.3, 0.6j, g, h)
        assert out.max_disk_norm() <= 1.0 + 1e-6

    def test_rejects_overweight_pair(self):
        one = MatrixPowerSeries.one(1, 4)
        with pytest.raises(ValueError):
            binary_transform(0.8, 0.4, one, one)

    def test_rejects_matrix_series(self):
        one = MatrixPowerSeries.one(2, 4)
        with pytest.raises(ValueError):
            binary_transform(0.1, 0.1, one, one)


class TestRoundTripProperty:
    @pytest.mark.parametrize("d,length", [(1, 8), (2, 6), (3, 4)])
    def test_forward_backward_round_trip(self, d, length):
        rng = np.random.default_rng(100 + 10 * d + length)
        p = random_parameters(d, length, rng)
        f = synthesize(p, 16)
        back = schur_forward(f, length)
        worst = max(
            np.abs(back.alpha(j) - p.alpha(j)).max() for j in range(length)
        )
        assert worst < 1e-8
