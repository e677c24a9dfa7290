"""First-return amplitudes, moments, subspace Schur functions, statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmvkit.catalog import (
    diffusion_center_schur,
    double_diffusion_six,
    hadamard_coin,
    hadamard_coin_schur,
)
from cmvkit.cmv import block_subspace, build, window_spec
from cmvkit.pathcount import oracle_first_return
from cmvkit.schur import SchurParameters, random_parameters, random_unitary
from cmvkit.series import MatrixPowerSeries, coeff_distance
from cmvkit import spectral
from helpers import column_selector, selector_recursion
from cmvkit.spectral import (
    RESOLVENT_SAMPLES,
    caratheodory_of_subspace,
    first_return_amplitudes,
    index_tuple,
    resolvent_compression,
    return_statistics,
    schur_of_subspace,
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
        a = first_return_amplitudes(u, (1, 3), 4)
        b = first_return_amplitudes(u, (3, 1), 4)
        p = np.array([[0, 1], [1, 0]], dtype=float)
        for x, y in zip(a, b):
            assert np.abs(p @ x @ p - y).max() < 1e-14


class TestFirstReturn:
    def test_identity_returns_immediately(self):
        amps = first_return_amplitudes(np.eye(4), (1, 2), 5)
        assert np.abs(amps[0] - np.eye(2)).max() < 1e-14
        assert np.abs(amps[1:]).max() < 1e-14

    def test_coined_walk_center_first_step(self):
        fact = double_diffusion_six()
        # not the diffusion walk itself, but the same check works for any of
        # the catalog factorizations; the coined walk value is pinned below
        amps = first_return_amplitudes(fact.product(), fact.partition.center, 3)
        assert amps.shape == (3, 1, 1)

    def test_coined_walk_center_amplitude_value(self):
        from cmvkit.catalog import coined_walk_six

        fact = coined_walk_six()
        amps = first_return_amplitudes(fact.product(), fact.partition.center, 1)
        assert abs(amps[0][0, 0] - 0.5) < 1e-12

    def test_matches_path_enumeration(self, rng):
        u = random_unitary(5, rng)
        v = (1, 3)
        amps = first_return_amplitudes(u, v, 5)
        assert np.abs(amps - oracle_first_return(u, v, 5)).max() < 1e-10

    @pytest.mark.parametrize("d", [1, 2])
    def test_indexed_recursion_matches_the_selector_recursion(self, d, rng):
        p = random_parameters(d, 30, rng)
        for family in ("C", "Chat"):
            spec = window_spec(p, family, 5, 20)
            u = build(spec)
            n = u.shape[0]
            for idx in [(0,), (3 * d, d, 4 * d), tuple(rng.permutation(n)[:4]),
                        tuple(range(2 * d, 4 * d))]:
                got = first_return_amplitudes(u, idx, 24)
                want = selector_recursion(u, idx, 24)
                assert np.array_equal(got, want), (family, idx)
        u = random_unitary(9, rng)
        got = first_return_amplitudes(u, (7, 2, 4), 30)
        assert np.array_equal(got, selector_recursion(u, (7, 2, 4), 30))

    def test_resolvent_matches_the_projector_form(self, rng):
        u = random_unitary(8, rng)
        for idx in [(2,), (6, 1, 3)]:
            b = column_selector(8, idx)
            q = np.eye(8) - b @ b.conj().T
            for z in RESOLVENT_SAMPLES:
                want = b.conj().T @ np.linalg.solve(u - z * q, b)
                assert np.array_equal(resolvent_compression(u, idx, z), want), (idx, z)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), k=st.integers(1, 8),
           horizon=st.integers(0, 80), shuffled=st.booleans())
    def test_v_first_kernel_matches_the_selector_recursion(self, seed, n, k, horizon, shuffled):
        rng = np.random.default_rng(seed)
        u = random_unitary(n, rng)
        k = min(k, n)
        # shuffled: any k indices in a random order; otherwise k indices
        # in descending order, so neither is the ascending basis order
        if shuffled:
            idx = tuple(int(i) for i in rng.permutation(n)[:k])
        else:
            idx = tuple(sorted((int(i) for i in rng.choice(n, k, replace=False)), reverse=True))
        got = first_return_amplitudes(u, idx, horizon)
        want = selector_recursion(u, idx, horizon)
        assert got.shape == want.shape == (horizon, k, k)
        assert np.abs(got - want).max(initial=0.0) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 100), k=st.integers(1, 6))
    def test_stacked_resolvent_matches_the_projector_form(self, seed, n, k):
        rng = np.random.default_rng(seed)
        u = random_unitary(n, rng)
        idx = tuple(int(i) for i in rng.permutation(n)[: min(k, n)])
        b = column_selector(n, idx)
        q = np.eye(n) - b @ b.conj().T
        stacked = resolvent_compression(u, idx, RESOLVENT_SAMPLES)
        for z, value in zip(RESOLVENT_SAMPLES, stacked):
            assert np.array_equal(value, b.conj().T @ np.linalg.solve(u - z * q, b)), z

    def test_whole_space_and_empty_subspace(self, rng):
        u = random_unitary(5, rng)
        amps = first_return_amplitudes(u, (3, 0, 4, 1, 2), 3)
        p = u[np.ix_((3, 0, 4, 1, 2), (3, 0, 4, 1, 2))]
        assert np.array_equal(amps[0], p) and not amps[1:].any()
        assert first_return_amplitudes(u, (), 4).shape == (4, 0, 0)
        assert resolvent_compression(u, (), RESOLVENT_SAMPLES).shape == (8, 0, 0)

    def test_amplitude_index_bounds(self):
        # entry n - 1 is a_n: a horizon h stack holds a_1..a_h, no more
        assert first_return_amplitudes(np.eye(3), (0, 2), 2).shape == (2, 2, 2)
        assert first_return_amplitudes(np.eye(3), (0, 2), 0).shape == (0, 2, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            first_return_amplitudes(np.eye(3), (0,), -1)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_horizon_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match=f"^horizon must be an integer, got {bad!r}"):
            first_return_amplitudes(np.eye(3), (0,), bad)


class TestSchurOfSubspace:
    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_order_must_be_an_integer(self, bad):
        # True would otherwise give an order-1 series
        with pytest.raises(ValueError, match=f"^order must be an integer, got {bad!r}"):
            schur_of_subspace(np.eye(3), (0,), bad)

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
        f = schur_of_subspace(fact.product(), fact.partition.center, 16)
        assert coeff_distance(f, diffusion_center_schur(16)) < 1e-10

    def test_resolvent_matches_series_pointwise(self, rng):
        u = random_unitary(6, rng)
        v = (2, 4)
        f = MatrixPowerSeries(first_return_amplitudes(u, v, 60).transpose(0, 2, 1).conj())
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
            amps = honest(*args, **kwargs)
            amps[3] += 1e-6
            return amps

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

    def test_series_are_contiguous_and_share_no_memory(self, rng):
        u = random_unitary(6, rng)
        f = schur_of_subspace(u, (4, 1), 3)
        assert f.coeffs.flags.c_contiguous and f.coeffs.flags.owndata
        amps = first_return_amplitudes(u, (4, 1), 4)
        assert np.array_equal(f.coeffs, amps.transpose(0, 2, 1).conj())

    def test_result_is_marked_schur(self, rng):
        u = random_unitary(5, rng)
        f = schur_of_subspace(u, (0, 1), 8)
        assert f.mark_schur() is f


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

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            return_statistics(np.eye(2), (0,), [2.0], 3)

    def test_rejects_wrong_state_length(self):
        with pytest.raises(ValueError, match="length"):
            return_statistics(np.eye(3), (0, 1), [1.0], 3)
