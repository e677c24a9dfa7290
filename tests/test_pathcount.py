"""Path-enumeration oracle tests.

The enumeration is deliberately naive: it never touches the amplitude
recursion it is meant to check.
"""

import numpy as np
import pytest

from cmvkit.catalog import coined_walk_six, diffusion_center_schur, double_diffusion_six
from cmvkit.cmv import BlockOperatorSpec, build
from cmvkit.linalg import embed
from cmvkit.pathcount import N_CAP, oracle_first_return, path_amplitude_sum
from cmvkit.schur import random_parameters, random_unitary
from cmvkit.spectral import first_return_amplitudes


class TestPathAmplitudeSum:
    def test_single_step_is_the_entry(self, rng):
        u = random_unitary(5, rng)
        ps = path_amplitude_sum(u, 3, 1, (), 1)
        assert abs(ps.amplitude - u[1, 3]) < 1e-15
        assert ps.n_paths == 1

    def test_no_intermediate_room_gives_zero(self, rng):
        u = random_unitary(4, rng)
        ps = path_amplitude_sum(u, 0, 1, (0, 1, 2, 3), 2)
        assert ps.amplitude == 0
        assert ps.n_paths == 0

    def test_two_step_sum_over_allowed_midpoints(self, rng):
        u = random_unitary(6, rng)
        avoid = (0, 2)
        ps = path_amplitude_sum(u, 0, 2, avoid, 2)
        want = sum(u[2, m] * u[m, 0] for m in (1, 3, 4, 5))
        assert abs(ps.amplitude - want) < 1e-14

    def test_endpoints_may_sit_inside_the_avoided_set(self, rng):
        u = random_unitary(4, rng)
        ps = path_amplitude_sum(u, 2, 2, (2,), 1)
        assert abs(ps.amplitude - u[2, 2]) < 1e-15

    def test_block_steps_multiply_later_on_the_left(self, rng):
        d = 2
        u = random_unitary(6, rng)

        def block(r, c):
            return u[r * d : (r + 1) * d, c * d : (c + 1) * d]

        ps = path_amplitude_sum(u, 0, 2, (0, 2), 2, block_dim=d)
        want = block(2, 1) @ block(1, 0)
        assert np.abs(ps.amplitude - want).max() < 1e-14

    def test_length_bounds(self, rng):
        u = random_unitary(3, rng)
        with pytest.raises(ValueError):
            path_amplitude_sum(u, 0, 1, (), 0)
        with pytest.raises(ValueError):
            path_amplitude_sum(u, 0, 1, (), N_CAP + 1)

    def test_state_bounds(self, rng):
        u = random_unitary(3, rng)
        with pytest.raises(ValueError):
            path_amplitude_sum(u, 0, 3, (), 1)


class TestSplitDiagrams:
    def test_walk_loop_starts_with_the_right_factor_step(self):
        # one-step loop at the overlap state: the product of the two
        # factor steps through it, b on the left factor times d on the
        # right, equals the loop amplitude on the full walk
        cat = coined_walk_six()
        u = cat.unitary
        fact = cat.factorization()
        lc = embed(fact.u_lc, fact.partition.lc, 6)
        cr = embed(fact.u_cr, fact.partition.cr, 6)
        loop = path_amplitude_sum(u, 2, 2, (2,), 1).amplitude
        left = path_amplitude_sum(lc, 2, 2, (), 1).amplitude
        right = path_amplitude_sum(cr, 2, 2, (), 1).amplitude
        assert abs(left * right - loop) < 1e-14
        assert abs(loop - 0.5) < 1e-14

    def test_two_step_loops_split_through_the_factors(self):
        # a length-2 first-return loop decomposes as one step in each
        # factor diagram joined at an intermediate state
        cat = coined_walk_six()
        u = cat.unitary
        fact = cat.factorization()
        lc = embed(fact.u_lc, fact.partition.lc, 6)
        cr = embed(fact.u_cr, fact.partition.cr, 6)
        loop = path_amplitude_sum(u, 2, 2, (2,), 2).amplitude
        byparts = sum(
            sum(lc[2, i] * cr[i, m] for i in range(6))
            * sum(lc[m, i] * cr[i, 2] for i in range(6))
            for m in range(6)
            if m != 2
        )
        assert abs(loop - byparts) < 1e-13


class TestOracleFirstReturn:
    def test_identity_case(self):
        a1 = oracle_first_return(np.eye(5), (1, 3), 1)
        assert np.abs(a1 - np.eye(2)).max() < 1e-15
        for n in (2, 3):
            assert np.abs(oracle_first_return(np.eye(5), (1, 3), n)).max() < 1e-15

    def test_diffusion_first_amplitude_is_one_sixth(self):
        cat = double_diffusion_six()
        a1 = oracle_first_return(cat.unitary, cat.partition.center, 1)
        assert abs(a1[0, 0] - 1.0 / 6.0) < 1e-14
        assert abs(a1[0, 0] - diffusion_center_schur(0).coeff(0)[0, 0]) < 1e-14

    def test_matches_operator_route_on_random_unitary(self, rng):
        u = random_unitary(6, rng)
        v = (0, 4)
        ra = first_return_amplitudes(u, v, 5)
        for n in range(1, 6):
            assert np.abs(oracle_first_return(u, v, n) - ra.amplitude(n)).max() < 1e-10

    def test_block_paths_match_block_amplitudes(self, rng):
        d = 2
        p = random_parameters(d, 9, rng)
        u = build(BlockOperatorSpec(p, "C", 9))
        ra = first_return_amplitudes(u, (4, 5), 4)
        for n in range(1, 5):
            ps = path_amplitude_sum(u, 2, 2, (2,), n, block_dim=d)
            assert np.abs(ps.amplitude - ra.amplitude(n)).max() < 1e-10, n


class TestPruning:
    def test_skipping_zero_steps_changes_nothing(self, rng):
        p = random_parameters(1, 9, rng)
        u = build(BlockOperatorSpec(p, "C", 9))
        for n in (2, 3, 4):
            a = path_amplitude_sum(u, 2, 2, (2,), n, prune=True)
            b = path_amplitude_sum(u, 2, 2, (2,), n, prune=False)
            assert abs(a.amplitude - b.amplitude) < 1e-12
            assert a.n_paths <= b.n_paths

    def test_pruning_cuts_the_path_count_on_sparse_matrices(self, rng):
        p = random_parameters(1, 9, rng)
        u = build(BlockOperatorSpec(p, "C", 9))
        a = path_amplitude_sum(u, 2, 2, (2,), 4, prune=True)
        b = path_amplitude_sum(u, 2, 2, (2,), 4, prune=False)
        assert a.n_paths < b.n_paths
