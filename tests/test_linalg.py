"""Dense-matrix helper tests: index subspaces, PSD square roots, rank,
unitarity, and the JSON wire format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmvkit import cmv, linalg
from cmvkit.catalog import double_diffusion_six
from cmvkit.linalg import (
    UNITARY_TOL,
    Unitary,
    as_matrix,
    certify,
    hermitian_psd_sqrt,
    index_tuple,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    numerical_rank,
    op_norm,
    unit_vector,
    unitary_residuals,
)
from cmvkit.schur import random_parameters, random_unitary, rho_left, rho_right
from helpers import column_selector, direct_sum, embed, random_contraction, two_sided_unitary_residual


class TestSubspace:
    # a subspace is a sequence of distinct indices; its order is the basis order

    def test_indices_must_fit(self):
        with pytest.raises(ValueError, match="out of range"):
            index_tuple(3, (0, 3))
        with pytest.raises(ValueError, match="out of range"):
            index_tuple(3, (-1,))

    def test_basis_columns(self):
        b = column_selector(4, (1, 3))
        assert b.shape == (4, 2)
        assert b[1, 0] == 1.0 and b[3, 1] == 1.0
        assert np.count_nonzero(b) == 2
        assert np.array_equal(column_selector(4, (3, 1)), b[:, ::-1])


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(hermitian_psd_sqrt(np.eye(3)), np.eye(3))

    def test_scalar_three_quarters(self):
        s = hermitian_psd_sqrt([[0.75]])
        assert abs(s[0, 0] - np.sqrt(3.0) / 2.0) < 1e-15

    def test_round_trip_on_random_psd(self, rng):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = g @ g.conj().T
        s = hermitian_psd_sqrt(m)
        assert np.abs(s @ s - m).max() < 1e-12 * max(1.0, np.abs(m).max())

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_psd_sqrt([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            hermitian_psd_sqrt([[-1.0]])

    def test_clamps_tiny_negative_eigenvalues(self):
        # defect matrices of near-unit contractions can dip below zero by
        # roundoff; the clamp must absorb that
        s = hermitian_psd_sqrt([[-1e-13]])
        assert s[0, 0] == 0.0


class TestPsdSqrtStack:
    def test_each_member_is_its_own_root_bit_for_bit(self, rng):
        g = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        stack = g @ g.conj().swapaxes(1, 2)
        stack[4] = 0.0
        got = hermitian_psd_sqrt(stack)
        assert got.shape == (6, 3, 3)
        assert all(np.array_equal(got[i], hermitian_psd_sqrt(stack[i])) for i in range(6))
        assert hermitian_psd_sqrt(stack[:0]).shape == (0, 3, 3)

    def test_a_non_hermitian_member_is_named(self):
        stack = np.stack([np.eye(2), np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[1.0, 2.0], [3.0, 1.0]]])
        with pytest.raises(ValueError, match=r"^matrix 2 is not Hermitian"):
            hermitian_psd_sqrt(stack)

    def test_a_member_below_the_clamp_is_named(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1e-13]), np.diag([1.0, -1e-3]), -np.eye(2)])
        with pytest.raises(ValueError, match=r"^eigenvalue -1\.000e-03 of matrix 2 below -EIG_CLAMP"):
            hermitian_psd_sqrt(stack)
        # a dip inside the clamp is absorbed, as for a single matrix
        assert hermitian_psd_sqrt(stack[:2])[1, 1, 1] == 0.0

    def test_a_lone_matrix_names_no_member(self):
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian"):
            hermitian_psd_sqrt([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^eigenvalue -1\.000e\+00 below -EIG_CLAMP"):
            hermitian_psd_sqrt([[-1.0]])


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 4))) == 0

    def test_projector_rank(self):
        assert numerical_rank(np.diag([0.0, 1.0, 0.0, 1.0, 0.0])) == 2

    def test_diffusion_product_corner_has_rank_one(self):
        # the lc x cr corner of the six-state double diffusion: exactly the
        # one-dimensional overlap survives
        dd = double_diffusion_six()
        corner = dd.product()[np.ix_(dd.partition.lc, dd.partition.cr)]
        assert numerical_rank(corner) == 1

    def test_invariant_under_unitaries(self, rng):
        m = rng.standard_normal((6, 6)) @ np.diag([1, 1, 1, 0, 0, 0.0])
        u = random_unitary(6, rng)
        w = random_unitary(6, rng)
        assert numerical_rank(u @ m @ w) == numerical_rank(m)


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4)).ok

    def test_diffusion_product(self):
        assert is_unitary(double_diffusion_six().product()).ok

    def test_rejects_scaled_identity(self):
        chk = is_unitary(1.1 * np.eye(3))
        assert not chk.ok and chk.residual > 0.1

    def test_certify_raises_with_residual(self):
        with pytest.raises(ValueError, match=r"not unitary \(residual 3\.162e\+00\)"):
            certify(np.ones((2, 2)))

    def test_batched_residuals_match_is_unitary(self, rng):
        stack = np.stack([random_unitary(3, rng), 1.1 * np.eye(3), random_unitary(3, rng)])
        got = unitary_residuals(stack)
        want = [is_unitary(m).residual for m in stack]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_single_matrix_path_matches_the_batched_residual(self, n, rng):
        # is_unitary evaluates the 2-d formula directly; unitary_residuals
        # keeps the stacked one for the Theta blocks
        for m in (random_unitary(n, rng), random_unitary(n, rng) + 1e-6 * np.eye(n)):
            single = is_unitary(m).residual
            assert abs(single - unitary_residuals(m[None])[0]) <= 1e-15 * max(1.0, single)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), kind=st.sampled_from(["haar", "near", "scaled", "ones", "gaussian"]),
           seed=st.integers(0, 2**32 - 1))
    def test_one_gram_product_matches_the_two_sided_residual(self, n, kind, seed):
        # ||M^dagger M - 1||_F = ||M M^dagger - 1||_F = ||S^2 - 1||_F for square M = W S V^dagger
        rng = np.random.default_rng(seed)
        m = {"haar": lambda: random_unitary(n, rng), "near": lambda: random_unitary(n, rng) + 1e-6 * np.eye(n),
             "scaled": lambda: 1.1 * np.eye(n), "ones": lambda: np.ones((n, n)),
             "gaussian": lambda: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))}[kind]()
        want = two_sided_unitary_residual(m)
        check = is_unitary(m)
        for got in (check.residual, unitary_residuals(m[None])[0]):
            assert abs(got - want) <= 1e-14 * max(1.0, want), (got, want)
        assert check.ok == (want <= UNITARY_TOL)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3, 1), (1, 3), (0, 2)])
    def test_a_non_square_matrix_raises(self, shape):
        for residual in (is_unitary, lambda m: unitary_residuals(m[None])):
            with pytest.raises(ValueError, match="only defined for square matrices"):
                residual(np.ones(shape))

    def test_theta_stacks_take_the_batched_path(self, rng, monkeypatch):
        # the build certifies its Theta blocks as one stack and reads the
        # boundary's residual off its certificate, never through is_unitary
        calls = []
        original = linalg.unitary_residuals

        def recording(stack):
            calls.append(np.shape(stack))
            return original(stack)

        monkeypatch.setattr(linalg, "is_unitary", lambda *a, **k: calls.append("is_unitary"))
        monkeypatch.setattr(cmv, "unitary_residuals", recording)
        cmv.build_unitary(cmv.BlockOperatorSpec(random_parameters(2, 9, rng), "C", 10))
        assert calls == [(9, 4, 4)]


class TestCertify:
    def test_certificate_is_a_read_only_copy(self, rng):
        u = random_unitary(4, rng)
        cert = certify(u)
        assert cert.residual == is_unitary(u).residual
        assert np.array_equal(cert.matrix, u) and cert.matrix is not u
        assert not cert.matrix.flags.writeable and u.flags.writeable

    def test_a_certificate_is_not_checked_again(self, rng, monkeypatch):
        cert = certify(random_unitary(4, rng))
        calls = []
        monkeypatch.setattr(linalg, "is_unitary", lambda *a, **k: calls.append(a))
        assert certify(cert) is cert
        assert calls == []

    def test_a_certificate_above_the_tolerance_is_refused(self, rng):
        cert = certify(random_unitary(4, rng))
        with pytest.raises(ValueError, match="^gauge is not unitary"):
            certify(Unitary(cert.matrix, 2 * UNITARY_TOL), what="gauge")
        with pytest.raises(ValueError, match="^matrix is not unitary"):
            certify(1.01 * cert.matrix)

    def test_a_nan_certificate_is_refused(self):
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(residual nan\)"):
            certify(Unitary(np.eye(2), float("nan")))


class TestIntertwining:
    def test_defects_intertwine_with_parameter(self, rng):
        # a (1 - a'a)^(1/2) = (1 - aa')^(1/2) a for every contraction
        for d in (1, 2, 3):
            a = random_contraction(d, rng)
            gap = np.abs(a @ rho_left(a) - rho_right(a) @ a).max()
            assert gap < 1e-10


class TestJsonWire:
    def test_round_trip(self, rng):
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_rejects_short_data(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    def test_rejects_malformed_pair(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "data": ["oops"]})


class TestAssembly:
    def test_direct_sum_layout(self):
        out = direct_sum(np.eye(1), 2 * np.eye(2))
        assert out.shape == (3, 3)
        assert out[0, 0] == 1.0 and out[1, 1] == 2.0 and out[1, 0] == 0.0

    def test_embed_places_block(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = embed(m, (0, 2), 3)
        assert out[0, 2] == 1.0 and out[2, 0] == 1.0 and out[1, 1] == 1.0
        assert out[0, 0] == 0.0

    def test_embed_checks_positions(self):
        with pytest.raises(ValueError):
            embed(np.eye(2), (0, 5), 3)

    @pytest.mark.parametrize("positions", [(0.7, 1.9), (True, 2), (1, 1), (0, 3), (-1, 0)])
    def test_embed_positions_follow_the_index_rule(self, positions):
        # floats and bools are not truncated, a repeat is not a singular
        # embedding, and every position lies in 0..total_dim-1
        with pytest.raises(ValueError):
            embed(np.eye(2), positions, 3)

    def test_embed_accepts_numpy_integers(self):
        out = embed(2 * np.eye(1), (np.int64(1),), 3)
        assert np.array_equal(out, np.diag([1.0, 2.0, 1.0]))

    def test_unit_vector_flattens_a_normalized_state(self):
        assert np.array_equal(unit_vector([[0.6], [0.8j]]), np.array([0.6, 0.8j]))
        with pytest.raises(ValueError, match="state must be normalized"):
            unit_vector([1.0, 1.0])

    @pytest.mark.parametrize("psi", [[np.nan, 0.0], [complex(0.0, np.nan)], [np.inf, 1.0]])
    def test_unit_vector_rejects_a_state_that_is_not_finite(self, psi):
        with pytest.raises(ValueError, match="state must be normalized"):
            unit_vector(psi)

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_op_norm_is_spectral(self):
        assert abs(op_norm(np.diag([3.0, 1.0])) - 3.0) < 1e-14
