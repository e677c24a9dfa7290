"""First-return amplitudes, moments, subspace Schur functions, statistics."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cmvkit.catalog import (
    diffusion_center_schur,
    double_diffusion_six,
    hadamard_coin,
    hadamard_coin_schur,
)
from cmvkit.cmv import BlockOperatorSpec, block_subspace, build, build_unitary, window_spec
from cmvkit.linalg import UNITARY_TOL, certify, is_unitary
from cmvkit.pathcount import oracle_first_return
from cmvkit.schur import SchurParameters, random_parameters, random_unitary
from cmvkit.series import MatrixPowerSeries, coeff_distance
from cmvkit import spectral
from helpers import (
    column_selector,
    projector_resolvent,
    ring_first_return,
    ring_less_tail_by_solve,
    selector_recursion,
    stepwise_first_return,
)
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
        # one-block steps give the selector recursion's bits; stages that
        # apply powers of D reassociate the products, so they agree to
        # roundoff, and bit for bit over the first _CHUNK steps, which
        # every shape takes one block at a time
        def check(u, idx, horizon):
            staged = spectral._takes_stages(u.shape[0], len(idx))
            got = first_return_amplitudes(u, idx, horizon)
            want = selector_recursion(u, idx, horizon)
            if staged:
                assert np.abs(got - want).max() <= 1e-14, idx
                assert np.array_equal(got[: spectral._CHUNK], want[: spectral._CHUNK]), idx
            else:
                assert np.array_equal(got, want), idx
            return staged

        p = random_parameters(d, 30, rng)
        kinds = set()
        for family in ("C", "Chat"):
            spec = window_spec(p, family, 5, 20)
            u = build(spec)
            n = u.shape[0]
            for idx in [(0,), (3 * d, d, 4 * d), tuple(rng.permutation(n)[:4]),
                        tuple(range(2 * d, 4 * d))]:
                kinds.add(check(u, idx, 24))
        kinds.add(check(random_unitary(9, rng), (7, 2, 4), 30))
        kinds.add(check(random_unitary(80, rng), (70, 2, 41), 30))
        assert kinds == {False, True}

    def test_resolvent_matches_the_projector_form(self, rng):
        # the reference's stacked solve, one point at a time, against the
        # dense projector form
        u = random_unitary(8, rng)
        for idx in [(2,), (6, 1, 3)]:
            b = column_selector(8, idx)
            q = np.eye(8) - b @ b.conj().T
            for z in RESOLVENT_SAMPLES:
                want = b.conj().T @ np.linalg.solve(u - z * q, b)
                assert np.array_equal(projector_resolvent(u, idx, z), want), (idx, z)

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

    # the edges: V the whole space (with and without stages) and V empty,
    # horizons 0, 1, 8 and 9, and the shapes on each side of the bound of
    # _takes_stages
    @example(seed=1, n=5, k=None, horizon=3, extra=1)
    @example(seed=11, n=5, k=None, horizon=20, extra=5)
    @example(seed=2, n=5, k=0, horizon=2, extra=9)
    @example(seed=3, n=6, k=1, horizon=0, extra=17)
    @example(seed=4, n=6, k=2, horizon=1, extra=20)
    @example(seed=5, n=14, k=1, horizon=17, extra=3)
    @example(seed=6, n=15, k=1, horizon=17, extra=3)
    @example(seed=7, n=14, k=2, horizon=33, extra=8)
    @example(seed=8, n=15, k=2, horizon=33, extra=8)
    @example(seed=9, n=30, k=3, horizon=8, extra=1)
    @example(seed=10, n=30, k=3, horizon=9, extra=7)
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           k=st.one_of(st.integers(1, 6), st.just(0), st.just(None)),
           horizon=st.integers(0, 80), extra=st.integers(1, 40))
    def test_staged_kernel_matches_the_stepwise_recursion(self, seed, n, k, horizon, extra):
        # k None is V the whole space, k 0 is V empty
        rng = np.random.default_rng(seed)
        u = random_unitary(n, rng)
        k = n if k is None else min(k, n)
        idx = tuple(int(i) for i in rng.permutation(n)[:k])
        got = first_return_amplitudes(u, idx, horizon)
        want = stepwise_first_return(u, idx, horizon)
        assert got.shape == want.shape == (horizon, k, k) and got.flags.c_contiguous
        # a_n does not depend on the horizon it is asked with
        assert np.array_equal(first_return_amplitudes(u, idx, horizon + extra)[:horizon], got)
        if not spectral._takes_stages(n, k) or horizon <= spectral._CHUNK:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("horizon", [0, 1, 7, 8, 9, 13, 48, 65, 70])
    def test_one_buffer_kernel_matches_the_ring_of_blocks(self, horizon):
        # the same GEMMs on the same operands as the ring it replaces, so the
        # same bits: staged and unstaged shapes on each side of the bound
        # of _takes_stages, V empty to V the whole space
        rng = np.random.default_rng(horizon)
        for n in (2, 3, 5, 8, 14, 15, 24, 49, 50, 72, 73, 80):
            u = random_unitary(n, rng)
            for k in sorted({min(k, n) for k in (0, 1, 2, 4)} | {n // 2, n - 1, n}):
                idx = tuple(int(i) for i in rng.permutation(n)[:k])
                got, want = first_return_amplitudes(u, idx, horizon), ring_first_return(u, idx, horizon)
                assert got.shape == want.shape == (horizon, k, k) and got.flags.c_contiguous
                # bytes also tell 0.0 from -0.0
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), (n, k)

    # the edges: V empty (E = U^dagger), V the whole space (E is 0 x 0),
    # k = n - 1, and n = 1
    @example(seed=1, n=7, k=0)
    @example(seed=2, n=7, k=7)
    @example(seed=3, n=7, k=6)
    @example(seed=4, n=1, k=1)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150), k=st.integers(0, 150))
    def test_stacked_resolvent_matches_the_projector_form(self, seed, n, k):
        # the ring from one solve against the eight solves it replaces: the
        # worst of 300 draws over n 1-150, k 0..n was 6.4e-15
        rng = np.random.default_rng(seed)
        u = random_unitary(n, rng)
        idx = tuple(int(i) for i in rng.permutation(n)[: min(k, n)])
        got = resolvent_compression(u, idx)
        want = projector_resolvent(u, idx, RESOLVENT_SAMPLES)
        assert got.shape == want.shape == (8, len(idx), len(idx))
        assert np.abs(got - want).max(initial=0.0) <= 1e-13

    @pytest.mark.parametrize("k", [0, 2, 5, 6])
    def test_resolvent_of_a_barely_certified_input(self, rng, k):
        # residual 0.9 UNITARY_TOL: the ring is the Taylor sum of this very
        # matrix, while the projector form equals it only for a unitary, so
        # the two differ by at most about the residual (0.08-0.4 of it measured)
        u = random_unitary(6, rng)
        g = 1e-6 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        near = certify(u + g * (0.9 * UNITARY_TOL / is_unitary(u + g).residual))
        assert 0.8 * UNITARY_TOL < near.residual <= UNITARY_TOL
        idx = tuple(int(i) for i in rng.permutation(6)[:k])
        got = resolvent_compression(near, idx)
        assert np.abs(got - projector_resolvent(near, idx, RESOLVENT_SAMPLES)).max(initial=0.0) <= near.residual
        f = MatrixPowerSeries(first_return_amplitudes(near, idx, 200).transpose(0, 2, 1).conj())
        assert np.abs(got - f.values_at(RESOLVENT_SAMPLES)).max(initial=0.0) <= 1e-13

    # the edges: V empty, V the whole space, n = 1
    @example(seed=1, n=7, k=0)
    @example(seed=2, n=7, k=7)
    @example(seed=3, n=1, k=1)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.integers(0, 40))
    def test_ring_less_its_tail_is_the_taylor_sum(self, seed, n, k):
        # f_V less its tail past a_h against the Taylor sum of a_1..a_h
        rng = np.random.default_rng(seed)
        u = random_unitary(n, rng)
        idx = tuple(int(i) for i in rng.permutation(n)[: min(k, n)])
        for h in (1, 9, 17, 25, 41, 49, 65):
            got = resolvent_compression(u, idx, h)
            taylor = MatrixPowerSeries(first_return_amplitudes(u, idx, h).transpose(0, 2, 1).conj())
            assert got.shape == (8, len(idx), len(idx))
            assert np.abs(got - taylor.values_at(RESOLVENT_SAMPLES)).max(initial=0.0) <= 1e-13, h

    @pytest.mark.parametrize("family", ["C", "Chat", "H", "Hhat"])
    def test_ring_less_its_tail_on_built_operators(self, family):
        # every block range of seeded terminal builds, V empty and V the
        # whole space among them, against the Taylor sum and against the
        # solve that the finite geometric sum replaces
        rng = np.random.default_rng(len(family))
        for d in (1, 2):
            p = random_parameters(d, 5, rng, terminal=True)
            u = build_unitary(BlockOperatorSpec(p, family, 6))
            n = u.matrix.shape[0]
            ranges = [()] + [tuple(range(j * d, (k + 1) * d)) for j in range(6) for k in range(j, 6)]
            assert tuple(range(n)) in ranges
            for v in ranges:
                for h in (1, 9, 17, 25, 41, 49, 65):
                    taylor = MatrixPowerSeries(first_return_amplitudes(u, v, h).transpose(0, 2, 1).conj())
                    got = resolvent_compression(u, v, h)
                    assert np.abs(got - taylor.values_at(RESOLVENT_SAMPLES)).max(initial=0.0) <= 1e-13, (v, h)
                    assert np.abs(got - ring_less_tail_by_solve(u, v, h)).max(initial=0.0) <= 1e-13, (v, h)

    @pytest.mark.parametrize("bad", [0, 2, 8, 10, 48, -7])
    def test_ring_horizon_must_be_one_past_a_multiple_of_eight(self, bad):
        with pytest.raises(ValueError, match=f"^horizon must be 8q \\+ 1 for an integer q >= 0, got {bad}$"):
            resolvent_compression(np.eye(3), (0,), bad)

    @pytest.mark.parametrize("bad", [True, 9.0, "9"])
    def test_ring_horizon_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match=f"^horizon must be an integer, got {bad!r}"):
            resolvent_compression(np.eye(3), (0,), bad)

    # the edges: V empty, V the whole space, n = 1
    @example(seed=1, n=7, k=0)
    @example(seed=2, n=7, k=7)
    @example(seed=3, n=1, k=1)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.integers(0, 40))
    def test_geometric_sum_matches_the_solve_it_replaces(self, seed, n, k):
        # sum_{j<q} (r^8 E^8)^j B^dagger against the solve of
        # (1 - r^8 E^8) X = (1 - r^{8q} E^{8q}) B^dagger
        rng = np.random.default_rng(seed)
        u = random_unitary(n, rng)
        idx = tuple(int(i) for i in rng.permutation(n)[: min(k, n)])
        for h in (1, 9, 17, 25, 41, 49, 65):
            got, want = resolvent_compression(u, idx, h), ring_less_tail_by_solve(u, idx, h)
            assert got.shape == want.shape == (8, len(idx), len(idx))
            assert np.abs(got - want).max(initial=0.0) <= 1e-13, h

    @pytest.mark.parametrize("n, v", [(1, (0,)), (1, ()), (6, ()), (6, (4, 1)), (6, (5, 0, 3, 1, 2, 4))])
    def test_ring_at_horizon_one_is_a_dagger(self, n, v, rng):
        # q = 0: no amplitude past a_1, so f_V less its tail is A^dagger at every point
        u = random_unitary(n, rng)
        a = u[np.ix_(v, v)]
        assert np.array_equal(resolvent_compression(u, v, 1), np.broadcast_to(a.conj().T, (8, len(v), len(v))))

    def test_whole_space_and_empty_subspace(self, rng):
        u = random_unitary(5, rng)
        amps = first_return_amplitudes(u, (3, 0, 4, 1, 2), 3)
        p = u[np.ix_((3, 0, 4, 1, 2), (3, 0, 4, 1, 2))]
        assert np.array_equal(amps[0], p) and not amps[1:].any()
        assert first_return_amplitudes(u, (), 4).shape == (4, 0, 0)
        assert resolvent_compression(u, ()).shape == (8, 0, 0)
        # V the whole space: f_V is the constant U^dagger, in V's order
        ring = resolvent_compression(u, (3, 0, 4, 1, 2))
        assert np.array_equal(ring, np.broadcast_to(p.conj().T, (8, 5, 5)))

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

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            schur_of_subspace(np.eye(3), (0,), -1)

    @pytest.mark.parametrize("order", [0, 1, 12, 64])
    def test_empty_subspace_gives_an_empty_series(self, order, rng):
        f = schur_of_subspace(random_unitary(4, rng), (), order)
        assert f.coeffs.shape == (order + 1, 0, 0)

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
        gap = np.abs(f.evaluate(z) - projector_resolvent(u, v, z)).max()
        assert gap < 1e-9

    @pytest.mark.parametrize("family", ["C", "Chat", "H", "Hhat"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ring_matches_the_taylor_sum_on_built_operators(self, family, d):
        # two routes: the ring from one solve, and the Taylor sum of
        # horizon-200 amplitudes (tail below 2^-199), on every block range
        # of seeded terminal builds, one of them with every norm 0.999
        rng = np.random.default_rng([d, len(family)])
        sets = [random_parameters(d, length, rng, terminal=True) for length in (0, 3, 6)]
        g = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
        sets.append(SchurParameters(d, 0.999 * g / np.linalg.norm(g, 2, axis=(1, 2))[:, None, None],
                                    random_unitary(d, rng)))
        assert np.linalg.norm(sets[-1].alphas, 2, axis=(1, 2)) == pytest.approx([0.999] * 6)
        for p in sets:
            u = build_unitary(BlockOperatorSpec(p, family, len(p) + 1))
            for j in range(len(p) + 1):
                for k in range(j, len(p) + 1):
                    v = tuple(range(j * d, (k + 1) * d))
                    amps = first_return_amplitudes(u, v, 200)
                    taylor = MatrixPowerSeries(amps.transpose(0, 2, 1).conj()).values_at(RESOLVENT_SAMPLES)
                    assert np.abs(resolvent_compression(u, v) - taylor).max() <= 1e-13, (len(p), j, k)

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

    def test_cross_check_catches_a_perturbed_ring_value(self, rng, monkeypatch):
        u = random_unitary(6, rng)
        schur_of_subspace(u, (1, 3), 8)
        honest = spectral.resolvent_compression

        def perturbed(*args, **kwargs):
            ring = honest(*args, **kwargs)
            ring[5, 1, 0] += 1e-6
            return ring

        monkeypatch.setattr(spectral, "resolvent_compression", perturbed)
        with pytest.raises(ArithmeticError, match="disagree"):
            schur_of_subspace(u, (1, 3), 8)

    @pytest.mark.parametrize("order", [0, 1, 7, 8, 9, 12, 16, 40, 41, 64])
    def test_cross_check_sees_every_returned_amplitude(self, order, rng, monkeypatch):
        # 1e-6 2^{n-1} at a_n weighs 1e-6 at |z| = 0.5 wherever n falls,
        # for each of the order + 1 amplitudes the call returns
        u = random_unitary(7, rng)
        schur_of_subspace(u, (5, 2), order)
        honest = spectral.first_return_amplitudes
        for n in range(1, order + 2):
            def perturbed(*args, n=n, **kwargs):
                amps = honest(*args, **kwargs)
                amps[n - 1] += 1e-6 * 2.0 ** (n - 1)
                return amps

            monkeypatch.setattr(spectral, "first_return_amplitudes", perturbed)
            with pytest.raises(ArithmeticError, match="disagree"):
                schur_of_subspace(u, (5, 2), order)

    @pytest.mark.parametrize("order, horizon", [(0, 9), (8, 9), (9, 17), (12, 17), (40, 41), (41, 49), (48, 49),
                                                (64, 65)])
    def test_check_horizon_and_tail(self, order, horizon, rng, monkeypatch):
        # at every order the stack runs to the first 8q + 1 past the order
        # and the ring drops its tail past it
        seen = []
        amps, ring = spectral.first_return_amplitudes, spectral.resolvent_compression
        monkeypatch.setattr(spectral, "first_return_amplitudes",
                            lambda U, v, h: seen.append(("amps", h)) or amps(U, v, h))
        monkeypatch.setattr(spectral, "resolvent_compression",
                            lambda U, v, h=None: seen.append(("ring", h)) or ring(U, v, h))
        schur_of_subspace(random_unitary(6, rng), (4, 1), order)
        assert seen == [("amps", horizon), ("ring", horizon)]

    def test_only_the_whole_ring_solves(self, rng, monkeypatch):
        # the hot path inverts nothing: the horizon form is a finite sum
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
        u = random_unitary(9, rng)
        for order in (0, 12, 64):
            schur_of_subspace(u, (4, 1), order)
        for h in (1, 9, 17, 65):
            resolvent_compression(u, (4, 1), h)
        assert solves == []
        resolvent_compression(u, (4, 1))
        assert solves == [1]

    def test_v_is_validated_once(self, rng, monkeypatch):
        u = random_unitary(6, rng)
        calls = []
        real = spectral.index_tuple
        monkeypatch.setattr(spectral, "index_tuple", lambda n, v: calls.append(v) or real(n, v))
        for order in (0, 12, 64):
            calls.clear()
            schur_of_subspace(u, (4, 1), order)
            assert calls == [(4, 1)]

    @pytest.mark.parametrize("bad", [(1, 1), (0, 6), (0, -1), (0, 1.5), (True,)])
    def test_v_errors_are_those_of_index_tuple(self, bad, rng):
        u = random_unitary(6, rng)
        with pytest.raises(ValueError) as want:
            index_tuple(6, bad)
        for call in (lambda: schur_of_subspace(u, bad, 12), lambda: first_return_amplitudes(u, bad, 9),
                     lambda: resolvent_compression(u, bad, 9)):
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                call()

    def test_non_unitary_matrix_is_refused(self, rng):
        u = random_unitary(5, rng)
        u[0, 0] += 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            schur_of_subspace(u, (0, 2), 6)
        with pytest.raises(ValueError, match="not unitary"):
            resolvent_compression(u, (0, 2))

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

    @pytest.mark.parametrize("bad", [True, 1.5, 2.0, "2"])
    def test_order_must_be_an_integer(self, bad):
        # True would otherwise give an order-1 series
        with pytest.raises(ValueError, match=f"^order must be an integer, got {bad!r}"):
            caratheodory_of_subspace(np.eye(3), (0,), bad)

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            caratheodory_of_subspace(np.eye(3), (0,), -1)


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
