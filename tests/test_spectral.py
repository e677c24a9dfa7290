"""First-return amplitudes, moments, subspace Schur functions, statistics."""

import numpy as np
import pytest

from cmvkit.catalog import (
    diffusion_center_schur,
    double_diffusion_six,
    hadamard_coin,
    hadamard_coin_schur,
)
from cmvkit.cmv import block_subspace, build, window_spec
from cmvkit.linalg import column_selector
from cmvkit.pathcount import oracle_first_return
from cmvkit.schur import SchurParameters, random_parameters, random_unitary
from cmvkit.series import MatrixPowerSeries, coeff_distance
from cmvkit import spectral
from cmvkit.spectral import (
    RESOLVENT_SAMPLES,
    ReturnAmplitudes,
    amplitudes_to_schur,
    caratheodory_of_subspace,
    first_return_amplitudes,
    index_tuple,
    resolvent_compression,
    return_statistics,
    schur_of_subspace,
    spectral_moments,
)


class TestIndexHandling:
    def test_explicit_order_is_kept(self):
        assert index_tuple(6, (4, 1)) == (4, 1)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            index_tuple(4, (1, 1))

    @pytest.mark.parametrize("bad", [1.7, True, "1"])
    def test_rejects_indices_that_are_not_integers(self, bad):
        with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}"):
            index_tuple(4, (0, bad))

    def test_numpy_integers_are_indices(self):
        assert index_tuple(4, np.arange(3)[::-1]) == (2, 1, 0)

    def test_reordering_the_basis_permutes_amplitudes(self, rng):
        u = random_unitary(5, rng)
        a = first_return_amplitudes(u, (1, 3), 4).amplitudes
        b = first_return_amplitudes(u, (3, 1), 4).amplitudes
        p = np.array([[0, 1], [1, 0]], dtype=float)
        for x, y in zip(a, b):
            assert np.abs(p @ x @ p - y).max() < 1e-14


class TestSpectralMoments:
    def test_zeroth_moment_is_identity(self, rng):
        u = random_unitary(5, rng)
        assert np.abs(spectral_moments(u, (0, 2), 0) - np.eye(2)).max() < 1e-14

    def test_negative_moment_is_adjoint(self, rng):
        u = random_unitary(6, rng)
        for n in (1, 2, 5):
            mu = spectral_moments(u, (1, 4), n)
            nu = spectral_moments(u, (1, 4), -n)
            assert np.abs(nu - mu.conj().T).max() < 1e-12

    def test_against_repeated_application(self, rng):
        u = random_unitary(6, rng)
        v = (0, 3, 5)
        b = np.zeros((6, 3))
        for col, i in enumerate(v):
            b[i, col] = 1.0
        x = b.astype(complex)
        for n in range(1, 7):
            x = u @ x
            assert np.abs(spectral_moments(u, v, n) - b.T @ x).max() < 1e-12


class TestFirstReturn:
    def test_identity_returns_immediately(self):
        ra = first_return_amplitudes(np.eye(4), (1, 2), 5)
        assert np.abs(ra.amplitude(1) - np.eye(2)).max() < 1e-14
        for n in range(2, 6):
            assert np.abs(ra.amplitude(n)).max() < 1e-14

    def test_coined_walk_center_first_step(self):
        fact = double_diffusion_six()
        # not the diffusion walk itself, but the same check works for any of
        # the catalog factorizations; the coined walk value is pinned below
        ra = first_return_amplitudes(fact.unitary, fact.partition.center, 3)
        assert ra.dim == 1

    def test_coined_walk_center_amplitude_value(self):
        from cmvkit.catalog import coined_walk_six

        fact = coined_walk_six()
        ra = first_return_amplitudes(fact.unitary, fact.partition.center, 1)
        assert abs(ra.amplitude(1)[0, 0] - 0.5) < 1e-12

    def test_matches_path_enumeration(self, rng):
        u = random_unitary(5, rng)
        v = (1, 3)
        ra = first_return_amplitudes(u, v, 5)
        for n in range(1, 6):
            want = oracle_first_return(u, v, n)
            assert np.abs(ra.amplitude(n) - want).max() < 1e-10, n

    @pytest.mark.parametrize("d", [1, 2])
    def test_indexed_recursion_matches_the_selector_recursion(self, d, rng):
        def selector_recursion(u, idx, horizon):
            b = column_selector(u.shape[0], idx)
            amps, x = [], b
            for _ in range(horizon):
                y = u @ x
                a = b.conj().T @ y
                amps.append(a)
                x = y - b @ a
            return amps

        p = random_parameters(d, 30, rng)
        for family in ("C", "Chat"):
            spec = window_spec(p, family, 5, 20)
            u = build(spec)
            n = u.shape[0]
            for idx in [(0,), (3 * d, d, 4 * d), tuple(rng.permutation(n)[:4]),
                        tuple(range(2 * d, 4 * d))]:
                got = first_return_amplitudes(u, idx, 24).amplitudes
                want = selector_recursion(u, idx, 24)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), (family, idx)
        u = random_unitary(9, rng)
        got = first_return_amplitudes(u, (7, 2, 4), 30).amplitudes
        assert all(np.array_equal(g, w) for g, w in zip(got, selector_recursion(u, (7, 2, 4), 30)))

    def test_resolvent_matches_the_projector_form(self, rng):
        u = random_unitary(8, rng)
        for idx in [(2,), (6, 1, 3)]:
            b = column_selector(8, idx)
            q = np.eye(8) - b @ b.conj().T
            for z in RESOLVENT_SAMPLES:
                want = b.conj().T @ np.linalg.solve(u - z * q, b)
                assert np.array_equal(resolvent_compression(u, idx, z), want), (idx, z)

    def test_amplitude_index_bounds(self):
        ra = first_return_amplitudes(np.eye(3), (0,), 2)
        with pytest.raises(ValueError):
            ra.amplitude(0)
        with pytest.raises(ValueError):
            ra.amplitude(3)


class TestSchurOfSubspace:
    def test_whole_space_gives_constant_adjoint(self, rng):
        u = random_unitary(4, rng)
        f = schur_of_subspace(u, tuple(range(4)), 4)
        assert np.abs(f.coeff(0) - u.conj().T).max() < 1e-12
        for n in range(1, 5):
            assert np.abs(f.coeff(n)).max() < 1e-12

    def test_hadamard_coin_closed_form(self):
        f = schur_of_subspace(hadamard_coin(), (0,), 12)
        assert coeff_distance(f, hadamard_coin_schur(12)) < 1e-10

    def test_diffusion_center_closed_form(self):
        fact = double_diffusion_six()
        f = schur_of_subspace(fact.unitary, fact.partition.center, 16)
        assert coeff_distance(f, diffusion_center_schur(16)) < 1e-10

    def test_resolvent_matches_series_pointwise(self, rng):
        u = random_unitary(6, rng)
        v = (2, 4)
        ra = first_return_amplitudes(u, v, 60)
        f = amplitudes_to_schur(ra, 59)
        z = 0.4 * np.exp(0.7j)
        gap = np.abs(f.evaluate(z) - resolvent_compression(u, v, z)).max()
        assert gap < 1e-9

    def test_resolvent_at_a_sequence_stacks_the_pointwise_values(self, rng):
        u = random_unitary(6, rng)
        stacked = resolvent_compression(u, (1, 3), RESOLVENT_SAMPLES)
        assert stacked.shape == (len(RESOLVENT_SAMPLES), 2, 2)
        for z, value in zip(RESOLVENT_SAMPLES, stacked):
            assert np.array_equal(value, resolvent_compression(u, (1, 3), z))

    def test_cross_check_catches_a_perturbed_amplitude(self, rng, monkeypatch):
        u = random_unitary(6, rng)
        schur_of_subspace(u, (1, 3), 8)
        honest = spectral.first_return_amplitudes

        def perturbed(*args, **kwargs):
            ra = honest(*args, **kwargs)
            amps = list(ra.amplitudes)
            amps[3] = amps[3] + 1e-6
            return ReturnAmplitudes(ra.basis_indices, ra.horizon, tuple(amps))

        monkeypatch.setattr(spectral, "first_return_amplitudes", perturbed)
        with pytest.raises(ArithmeticError, match="disagree"):
            schur_of_subspace(u, (1, 3), 8)

    def test_non_unitary_matrix_is_refused(self, rng):
        u = random_unitary(5, rng)
        u[0, 0] += 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            schur_of_subspace(u, (0, 2), 6)
        with pytest.raises(ValueError, match="not unitary"):
            resolvent_compression(u, (0, 2), RESOLVENT_SAMPLES)

    def test_order_needs_enough_horizon(self):
        ra = first_return_amplitudes(np.eye(3), (0,), 4)
        with pytest.raises(ValueError):
            amplitudes_to_schur(ra, 4)

    def test_result_is_marked_schur(self, rng):
        u = random_unitary(5, rng)
        f = schur_of_subspace(u, (0, 1), 8)
        assert f.schur


class TestCaratheodoryPairing:
    def test_moment_series_pairs_with_schur_series(self, rng):
        # (1 - z f)(F + 1) = 2, the standard correspondence between the
        # return series and the moment series of the same subspace
        u = random_unitary(7, rng)
        v = (1, 2, 5)
        n = 10
        f = schur_of_subspace(u, v, n)
        cf = caratheodory_of_subspace(u, v, n + 1)
        one = MatrixPowerSeries.one(3, n + 1)
        lhs = (one - f.shift()) * (cf + one)
        assert coeff_distance(lhs, one + one) < 1e-10

    def test_caratheodory_constant_term(self, rng):
        u = random_unitary(4, rng)
        cf = caratheodory_of_subspace(u, (0, 3), 5)
        assert np.abs(cf.coeff(0) - np.eye(2)).max() < 1e-14


class TestReturnStatistics:
    def test_identity_returns_at_step_one(self):
        st = return_statistics(np.eye(3), (1,), [1.0], 6)
        assert abs(st.probabilities[0] - 1.0) < 1e-14
        assert max(st.probabilities[1:]) < 1e-14
        assert abs(st.cumulative - 1.0) < 1e-12
        assert abs(st.partial_expected_time - 1.0) < 1e-12

    def test_free_sequence_never_returns_inside_horizon(self):
        zeros = tuple(np.zeros((1, 1)) for _ in range(15))
        spec = window_spec(SchurParameters(1, zeros), "C", 0, 6)
        u = build(spec)
        st = return_statistics(u, block_subspace(spec, [0]), [1.0], 6 + 1)
        assert max(st.probabilities) < 1e-14

    def test_hadamard_first_probability(self):
        st = return_statistics(hadamard_coin(), (0,), [1.0], 8)
        assert abs(st.probabilities[0] - 0.5) < 1e-12

    def test_cumulative_never_exceeds_one(self, rng):
        u = random_unitary(8, rng)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        st = return_statistics(u, (2, 6), psi, 30)
        assert st.cumulative <= 1.0 + 1e-10

    def test_rows_are_one_indexed(self):
        st = return_statistics(np.eye(2), (0,), [1.0], 3)
        assert [n for n, _ in st.rows()] == [1, 2, 3]

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            return_statistics(np.eye(2), (0,), [2.0], 3)

    def test_rejects_wrong_state_length(self):
        with pytest.raises(ValueError, match="length"):
            return_statistics(np.eye(3), (0, 1), [1.0], 3)
