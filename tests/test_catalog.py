"""The closed-form fixtures themselves: every catalog matrix must be
unitary, every factorization must reconstruct its matrix, and every
stored rational must match the amplitudes computed from the matrix."""

import numpy as np
import pytest

from cmvkit.catalog import (
    coined_walk_six,
    coined_walk_six_alternate,
    diffusion_center_schur,
    diffusion_five_center_schur,
    diffusion_left_schur,
    diffusion_pair_schur,
    diffusion_right_schur,
    double_diffusion_five,
    double_diffusion_six,
    grover_diffusion,
    hadamard_coin,
    hadamard_coin_schur,
    rational_series,
    series_matrix,
    walk_center_schur,
    walk_left_schur,
    walk_pair_right_schur,
    walk_right_schur,
)
from cmvkit.linalg import is_unitary
from cmvkit.overlap import check_overlap, construct_overlap, verify_gauge
from cmvkit.series import MatrixPowerSeries, coeff_distance
from cmvkit.spectral import schur_of_subspace
from helpers import direct_sum_series

ALL_FACTORED = [
    double_diffusion_six,
    double_diffusion_five,
    coined_walk_six,
    coined_walk_six_alternate,
]


class TestMatrices:
    def test_grover_diffusion_is_a_reflection(self):
        for n in (2, 3, 4, 5):
            d = grover_diffusion(n)
            assert is_unitary(d).ok
            assert np.abs(d @ d - np.eye(n)).max() < 1e-12

    @pytest.mark.parametrize("make", ALL_FACTORED)
    def test_factored_unitaries_are_unitary(self, make):
        cat = make()
        assert is_unitary(cat.product()).ok
        assert is_unitary(cat.u_lc).ok
        assert is_unitary(cat.u_cr).ok

    @pytest.mark.parametrize("make", ALL_FACTORED)
    def test_factorizations_reconstruct(self, make):
        # the factors rebuilt from the product reconstruct it and differ
        # from the catalog's pair by a center gauge only
        cat = make()
        u = cat.product()
        assert check_overlap(u, cat.partition).ok
        built = construct_overlap(u, cat.partition)
        assert built.reconstruction_residual(u) < 1e-12
        verify_gauge(cat, built)

    def test_both_walk_factorizations_share_one_matrix(self):
        a = coined_walk_six()
        b = coined_walk_six_alternate()
        assert np.abs(a.product() - b.product()).max() < 1e-12
        assert a.partition != b.partition

    def test_hadamard_squares_to_identity(self):
        h = hadamard_coin()
        assert np.abs(h @ h - np.eye(2)).max() < 1e-14


class TestDiffusionRationals:
    def test_center_is_the_product_of_the_factors(self):
        n = 20
        prod = diffusion_right_schur(n) * diffusion_left_schur(n)
        assert coeff_distance(prod, diffusion_center_schur(n)) < 1e-12

    def test_left_factor_matches_its_matrix(self):
        cat = double_diffusion_six()
        f = schur_of_subspace(cat.u_lc, (2,), 16)
        assert coeff_distance(f, diffusion_left_schur(16)) < 1e-10

    def test_right_factor_matches_its_matrix(self):
        cat = double_diffusion_six()
        f = schur_of_subspace(cat.u_cr, (0,), 16)
        assert coeff_distance(f, diffusion_right_schur(16)) < 1e-10

    def test_pair_matches_the_two_state_subspace(self):
        cat = double_diffusion_six()
        f = schur_of_subspace(cat.product(), (2, 3), 14)
        assert coeff_distance(f, diffusion_pair_schur(14)) < 1e-10

    def test_five_state_center_matches(self):
        cat = double_diffusion_five()
        f = schur_of_subspace(cat.product(), (1, 2), 14)
        assert coeff_distance(f, diffusion_five_center_schur(14)) < 1e-10


class TestWalkRationals:
    def test_center_is_the_product_of_the_factors(self):
        n = 20
        prod = walk_right_schur(n) * walk_left_schur(n)
        assert coeff_distance(prod, walk_center_schur(n)) < 1e-12

    def test_left_factor_matches_its_matrix(self):
        cat = coined_walk_six()
        f = schur_of_subspace(cat.u_lc, (2,), 16)
        assert coeff_distance(f, walk_left_schur(16)) < 1e-10

    def test_right_factor_matches_its_matrix(self):
        cat = coined_walk_six()
        f = schur_of_subspace(cat.u_cr, (0,), 16)
        assert coeff_distance(f, walk_right_schur(16)) < 1e-10

    def test_center_matches_the_full_matrix(self):
        cat = coined_walk_six()
        f = schur_of_subspace(cat.product(), (2,), 16)
        assert coeff_distance(f, walk_center_schur(16)) < 1e-10

    def test_pair_right_factor_matches_its_matrix(self):
        cat = coined_walk_six()
        f = schur_of_subspace(cat.u_cr, (0, 2), 14)
        assert coeff_distance(f, walk_pair_right_schur(14)) < 1e-10

    def test_skip_state_subspace_factorizes(self):
        # V = {2, 4}: the two-state Schur function is the pair right
        # factor times the left factor padded by 1
        cat = coined_walk_six()
        n = 14
        f = schur_of_subspace(cat.product(), (2, 4), n)
        left = diag_pad(walk_left_schur(n))
        assert coeff_distance(f, walk_pair_right_schur(n) * left) < 1e-10


def diag_pad(f):
    """f + 1 as a 2x2 diagonal series."""
    return direct_sum_series(f, MatrixPowerSeries.one(1, f.order))


class TestHadamardRational:
    def test_matches_its_matrix(self):
        f = schur_of_subspace(hadamard_coin(), (0,), 12)
        assert coeff_distance(f, hadamard_coin_schur(12)) < 1e-10

    def test_product_of_trivial_factors_disagrees(self):
        # the same matrix with the empty-center split: the would-be
        # factor functions are constants whose product misses the true
        # Schur function, which is why the corner test exists
        h = hadamard_coin()
        f = schur_of_subspace(h, (0,), 8)
        const = f.coeff(0)[0, 0]
        assert abs(const - 1 / np.sqrt(2)) < 1e-12
        assert np.abs(f.coeffs[1:]).max() > 0.01


class TestRationalHelpers:
    def test_series_matrix_lays_out_entries(self):
        m = series_matrix(
            [
                [((1.0,), (1.0,)), ((0.0,), (1.0,))],
                [((0.0, 1.0), (1.0,)), ((1.0,), (1.0, -0.5))],
            ],
            4,
        )
        assert np.abs(m.coeff(0) - [[1, 0], [0, 1]]).max() < 1e-14
        assert np.abs(m.coeff(1) - [[0, 0], [1, 0.5]]).max() < 1e-14

    def test_series_matrix_rejects_ragged_grid(self):
        with pytest.raises(ValueError):
            series_matrix([[((1.0,), (1.0,))], []], 3)

    def test_rational_series_expansion(self):
        f = rational_series((1.0, 1.0), (1.0, -1.0), 5)
        # (1+z)/(1-z) = 1 + 2z + 2z^2 + ...
        assert np.abs(f.scalar_coeffs() - [1, 2, 2, 2, 2, 2]).max() < 1e-14
