"""Overlapping factorizations: corner characterization, construction,
gauge freedom, and the abstract Schur-function factorization."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cmvkit import linalg
from cmvkit.catalog import (
    coined_walk_six,
    coined_walk_six_alternate,
    diffusion_center_schur,
    double_diffusion_five,
    double_diffusion_six,
    grover_diffusion,
    hadamard_coin,
)
from cmvkit.cmv import standard_overlap, window_spec
from cmvkit.linalg import certify, is_unitary
from cmvkit.overlap import (
    TIE_REL_TOL,
    OverlapFactorization,
    SubspacePartition,
    abstract_khrushchev_check,
    check_overlap,
    construct_overlap,
    overlap_product,
    verify_gauge,
)
from cmvkit.schur import random_parameters, random_unitary
from cmvkit.series import MatrixPowerSeries, coeff_distance
from cmvkit.spectral import schur_of_subspace
from helpers import direct_sum, embed


def random_overlapping(rng, nl, nc, nr):
    """Unitary assembled to overlap across the middle nc indices."""
    n = nl + nc + nr
    a = random_unitary(nl + nc, rng)
    b = random_unitary(nc + nr, rng)
    part = SubspacePartition(
        n, tuple(range(nl)), tuple(range(nl, nl + nc)), tuple(range(nl + nc, n))
    )
    u = direct_sum(a, np.eye(nr)) @ direct_sum(np.eye(nl), b)
    return u, part, a, b


def projection(n, indices):
    """The n x n orthogonal projection onto the listed coordinates."""
    p = np.zeros((n, n), dtype=np.complex128)
    p[list(indices), list(indices)] = 1.0
    return p


class TestPartition:
    def test_groups_are_sorted_and_described(self):
        p = SubspacePartition(5, (1, 0), (3,), (4, 2))
        assert p.left == (0, 1)
        assert p.right == (2, 4)
        assert p.lc == (0, 1, 3)

    def test_empty_center_is_allowed(self):
        p = SubspacePartition(2, (0,), (), (1,))
        assert p.center == ()

    def test_rejects_overlap_between_groups(self):
        with pytest.raises(ValueError, match="disjoint"):
            SubspacePartition(4, (0, 1), (1,), (2, 3))

    def test_rejects_missing_index(self):
        with pytest.raises(ValueError, match="cover"):
            SubspacePartition(4, (0,), (1,), (2,))

    @pytest.mark.parametrize("bad", [1.7, True, "1"])
    def test_rejects_indices_that_are_not_integers(self, bad):
        with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}"):
            SubspacePartition(3, (0,), (bad,), (2,))

    def test_numpy_integers_are_indices(self):
        p = SubspacePartition(5, np.arange(2), np.arange(2, 3), np.arange(3, 5))
        assert (p.left, p.center, p.right) == ((0, 1), (2,), (3, 4))

    @pytest.mark.parametrize("bad", [True, 3.0, "3"])
    def test_rejects_an_ambient_dim_that_is_not_an_integer(self, bad):
        with pytest.raises(ValueError, match=f"ambient_dim must be an integer, got {bad!r}"):
            SubspacePartition(bad, (0,), (1,), (2,))

    def test_rejects_a_negative_ambient_dim(self):
        with pytest.raises(ValueError, match="ambient_dim must be nonnegative, got -1"):
            SubspacePartition(-1, (), (), ())

    def test_a_numpy_ambient_dim_is_stored_as_an_int(self):
        p = SubspacePartition(np.int64(3), (0,), (1,), (2,))
        assert p.ambient_dim == 3 and type(p.ambient_dim) is int


class TestFactorization:
    @pytest.mark.parametrize("sizes", [(4, 4), (3, 3), (3, 5)])
    def test_rejects_factors_that_do_not_fit_their_groups(self, sizes):
        # double_diffusion_six has |lc| = 3 and |cr| = 4; the (4, 4) pair
        # used to reach abstract_khrushchev_check as a failing residual
        part = double_diffusion_six().partition
        with pytest.raises(ValueError, match="like its index group"):
            OverlapFactorization(part, *(grover_diffusion(s) for s in sizes))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nl=st.integers(0, 11), nc=st.integers(0, 11),
           nr=st.integers(0, 11))
    @example(seed=0, nl=0, nc=0, nr=0)
    @example(seed=1, nl=0, nc=3, nr=0)
    @example(seed=2, nl=4, nc=0, nr=5)
    @example(seed=3, nl=11, nc=11, nr=11)
    def test_product_matches_the_dense_embedded_product(self, seed, nl, nc, nr):
        rng = np.random.default_rng(seed)
        n = nl + nc + nr
        order = rng.permutation(n)
        part = SubspacePartition(n, order[:nl], order[nl : nl + nc], order[nl + nc :])
        u_lc, u_cr = random_unitary(nl + nc, rng), random_unitary(nc + nr, rng)
        fact = OverlapFactorization(part, u_lc, u_cr)
        dense = embed(u_lc, part.lc, n) @ embed(u_cr, part.cr, n)
        assert np.abs(fact.product() - dense).max(initial=0.0) <= 1e-15


class TestCheckOverlap:
    def test_six_state_diffusion_passes(self):
        fact = double_diffusion_six()
        chk = check_overlap(fact.product(), fact.partition)
        assert chk.ok
        assert chk.rank == 1

    def test_five_state_diffusion_passes(self):
        fact = double_diffusion_five()
        chk = check_overlap(fact.product(), fact.partition)
        assert chk.ok
        assert chk.rank == 2

    def test_walk_alternate_partition_passes(self):
        fact = coined_walk_six_alternate()
        assert check_overlap(fact.product(), fact.partition).ok

    def test_hadamard_with_empty_center_fails(self):
        part = SubspacePartition(2, (0,), (), (1,))
        chk = check_overlap(hadamard_coin(), part)
        assert not chk.ok
        assert chk.corner_norm > chk.corner_tol

    def test_rank_matches_center_whenever_corner_vanishes(self, rng):
        for nl, nc, nr in [(2, 1, 3), (3, 2, 2), (1, 3, 4)]:
            u, part, _, _ = random_overlapping(rng, nl, nc, nr)
            chk = check_overlap(u, part)
            assert chk.ok
            assert chk.rank == nc

    def test_projection_identities_when_corner_vanishes(self, rng):
        u, part, _, _ = random_overlapping(rng, 2, 2, 3)
        n = part.ambient_dim
        p_l = projection(n, part.left)
        p_r = projection(n, part.right)
        p_lc = projection(n, part.lc)
        p_cr = projection(n, part.cr)
        k = p_lc @ u @ p_cr
        assert np.abs(k.conj().T @ k - (p_cr - u.conj().T @ p_r @ u)).max() < 1e-10
        assert np.abs(k @ k.conj().T - (p_lc - u @ p_l @ u.conj().T)).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_overlap(np.eye(3), SubspacePartition(4, (0,), (1,), (2, 3)))


class TestConstructOverlap:
    def test_reconstructs_built_unitary(self, rng):
        u, part, _, _ = random_overlapping(rng, 3, 2, 4)
        fact = construct_overlap(u, part)
        assert fact.reconstruction_residual(u) < 1e-12
        assert is_unitary(fact.u_lc).ok
        assert is_unitary(fact.u_cr).ok

    def test_identity_with_any_partition(self):
        part = SubspacePartition(5, (0, 1), (2,), (3, 4))
        fact = construct_overlap(np.eye(5), part)
        assert np.abs(fact.product() - np.eye(5)).max() < 1e-12

    def test_diffusion_is_gauge_equivalent_to_catalog_factors(self):
        cat = double_diffusion_six()
        built = construct_overlap(cat.product(), cat.partition)
        uc = verify_gauge(cat, built)
        assert uc.shape == (1, 1)
        assert abs(abs(uc[0, 0]) - 1.0) < 1e-10

    def test_refuses_non_overlapping_input(self):
        part = SubspacePartition(2, (0,), (), (1,))
        with pytest.raises(ValueError, match="no overlapping factorization"):
            construct_overlap(hadamard_coin(), part)

    def test_empty_center_splits_block_diagonal(self, rng):
        a = random_unitary(2, rng)
        b = random_unitary(3, rng)
        u = direct_sum(a, b)
        part = SubspacePartition(5, (0, 1), (), (2, 3, 4))
        fact = construct_overlap(u, part)
        assert np.abs(fact.u_lc - a).max() < 1e-12
        assert np.abs(fact.u_cr - b).max() < 1e-12


def projector_factors(u, part):
    """construct_overlap's algebra on n x n projections, as it was before
    the factors were read off index slices; pivots use the same tie rule."""
    n = part.ambient_dim
    p_l, p_c, p_r = (projection(n, g) for g in (part.left, part.center, part.right))
    k = (p_l + p_c) @ u @ (p_c + p_r)
    kdk = k.conj().T @ k
    cols = kdk.copy()
    basis = []
    for _ in part.center:
        norms = np.linalg.norm(cols, axis=0)
        w = cols[:, np.flatnonzero(norms >= (1.0 - TIE_REL_TOL) * norms.max())[0]].copy()
        for b in basis:
            w -= b * (b.conj() @ w)
        w /= np.linalg.norm(w)
        basis.append(w)
        cols -= np.outer(w, w.conj() @ cols)
    w_op = np.zeros((n, n), dtype=np.complex128)
    for t, c in enumerate(part.center):
        w_op[c, :] = basis[t].conj()
    one_ucr = p_l + w_op @ kdk + p_r @ u
    ulc_one = u @ p_l + k @ w_op.conj().T @ p_c + p_r
    return ulc_one[np.ix_(part.lc, part.lc)], one_ucr[np.ix_(part.cr, part.cr)]


class TestSliceConstruction:
    def test_matches_the_projector_form_on_every_small_shape(self, rng):
        for nl in range(5):
            for nc in range(5):
                for nr in range(5):
                    u, part, _, _ = random_overlapping(rng, nl, nc, nr)
                    fact = construct_overlap(u, part)
                    u_lc, u_cr = projector_factors(u, part)
                    assert np.abs(fact.u_lc - u_lc).max(initial=0.0) < 1e-13, (nl, nc, nr)
                    assert np.abs(fact.u_cr - u_cr).max(initial=0.0) < 1e-13, (nl, nc, nr)

    @pytest.mark.parametrize("case", [double_diffusion_six, double_diffusion_five,
                                      coined_walk_six, coined_walk_six_alternate])
    def test_catalog_factors_match_the_projector_form_bit_for_bit(self, case):
        cat = case()
        fact = construct_overlap(cat.product(), cat.partition)
        u_lc, u_cr = projector_factors(cat.product(), cat.partition)
        assert np.array_equal(fact.u_lc, u_lc)
        assert np.array_equal(fact.u_cr, u_cr)

    def test_tied_pivots_go_to_the_lowest_index(self):
        # with no right group K^dagger K is the identity on the center up to
        # rounding, so every column norm ties and the gauge must be 1
        rng = np.random.default_rng(5)
        for nl in (1, 3):
            for nc in (2, 3, 4):
                n = nl + nc
                u = random_unitary(n, rng)
                part = SubspacePartition(n, tuple(range(nl)), tuple(range(nl, n)), ())
                fact = construct_overlap(u, part)
                assert np.linalg.norm(fact.u_cr - np.eye(nc)) < 1e-12, (nl, nc)


class TestVerifyGauge:
    def test_identical_factorizations_give_identity(self):
        fact = coined_walk_six()
        uc = verify_gauge(fact, fact)
        assert np.abs(uc - np.eye(1)).max() < 1e-12

    def test_recovers_applied_gauge(self, rng):
        u, part, _, _ = random_overlapping(rng, 2, 2, 2)
        f1 = construct_overlap(u, part)
        g = random_unitary(2, rng)
        nl, nr = len(part.left), len(part.right)
        f2 = OverlapFactorization(
            part,
            f1.u_lc @ direct_sum(np.eye(nl), g),
            direct_sum(g.conj().T, np.eye(nr)) @ f1.u_cr,
        )
        assert f2.reconstruction_residual(u) < 1e-12
        assert np.abs(verify_gauge(f1, f2) - g).max() < 1e-10

    def test_unrelated_factorizations_are_flagged(self, rng):
        u, part, _, _ = random_overlapping(rng, 2, 1, 2)
        f1 = construct_overlap(u, part)
        v, _, _, _ = random_overlapping(rng, 2, 1, 2)
        f2 = construct_overlap(v, part)
        with pytest.raises(ValueError):
            verify_gauge(f1, f2)

    def test_partition_must_match(self, rng):
        u, part, _, _ = random_overlapping(rng, 2, 1, 2)
        f1 = construct_overlap(u, part)
        other = SubspacePartition(5, (0,), (1, 2), (3, 4))
        v, _, _, _ = random_overlapping(rng, 1, 2, 2)
        f2 = construct_overlap(v, other)
        with pytest.raises(ValueError):
            verify_gauge(f1, f2)


class TestAbstractKhrushchev:
    def test_scalar_center_product(self):
        cat = double_diffusion_six()
        rep = abstract_khrushchev_check(
            cat.product(), cat.partition, (), (), 16, cat
        )
        assert rep.ok, rep.residual
        f = schur_of_subspace(cat.product(), cat.partition.center, 16)
        assert coeff_distance(f, diffusion_center_schur(16)) < 1e-10

    def test_pair_with_one_right_state(self):
        cat = double_diffusion_six()
        rep = abstract_khrushchev_check(
            cat.product(), cat.partition, (), (3,), 14, cat
        )
        assert rep.ok, rep.residual

    def test_walk_with_skipped_right_state(self):
        cat = coined_walk_six()
        rep = abstract_khrushchev_check(
            cat.product(), cat.partition, (), (4,), 14, cat
        )
        assert rep.ok, rep.residual

    def test_rejects_a_factorization_of_another_partition(self):
        # the walk's second factorization splits through another center;
        # read against the first partition it would report a false failure
        cat = coined_walk_six()
        other = coined_walk_six_alternate()
        with pytest.raises(ValueError, match="different partition"):
            abstract_khrushchev_check(cat.product(), cat.partition, (), (), 8, other)

    def test_constructed_factors_on_center_only(self, rng):
        # the center-only product is gauge invariant, so it holds for the
        # deterministic construction too
        u, part, _, _ = random_overlapping(rng, 3, 2, 3)
        rep = abstract_khrushchev_check(u, part, (), (), 12)
        assert rep.ok, rep.residual

    def test_full_subspaces_on_both_sides(self, rng):
        u, part, a, b = random_overlapping(rng, 2, 1, 2)
        fact = OverlapFactorization(part, a, b)
        rep = abstract_khrushchev_check(u, part, part.left, part.right, 12, fact)
        assert rep.ok, rep.residual

    @pytest.mark.parametrize("bad", [1.7, True, "1"])
    def test_rejects_subspace_indices_that_are_not_integers(self, bad):
        cat = double_diffusion_six()
        left, right = cat.partition.left[0], cat.partition.right[0]
        for v_l, v_r in (((bad,), ()), ((), (bad,)), ((left,), (right, bad))):
            with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}"):
                abstract_khrushchev_check(cat.product(), cat.partition, v_l, v_r, 4)

    def test_numpy_subspace_indices_are_accepted(self):
        cat = double_diffusion_six()
        v_r = np.array(cat.partition.right[:1])
        rep = abstract_khrushchev_check(cat.product(), cat.partition, np.arange(0), v_r, 8)
        assert rep.ok, rep.residual

    def test_rejects_indices_outside_groups(self):
        cat = double_diffusion_six()
        with pytest.raises(ValueError, match="left group"):
            abstract_khrushchev_check(cat.product(), cat.partition, (3,), (), 8)

    @pytest.mark.parametrize("n_left", [-1, 4])
    def test_overlap_product_rejects_a_center_the_factors_do_not_share(self, n_left):
        # f^L on 3 indices and f^R on 2 share a center of 0..2 indices
        f_left, f_right = MatrixPowerSeries.one(3, 4), MatrixPowerSeries.one(2, 4)
        with pytest.raises(ValueError, match="center"):
            overlap_product(f_left, f_right, n_left)
        assert overlap_product(f_left, f_right, 1).block_dim == 3


class TestUnitarityCertificate:
    @pytest.mark.parametrize("call", ["construct", "check", "check with factors"])
    def test_non_unitary_input_is_rejected(self, rng, call):
        u, part, a, b = random_overlapping(rng, 2, 1, 2)
        bad = 1.01 * u
        with pytest.raises(ValueError, match="^matrix is not unitary"):
            if call == "construct":
                construct_overlap(bad, part)
            elif call == "check":
                abstract_khrushchev_check(bad, part, (), (), 8)
            else:
                abstract_khrushchev_check(bad, part, (), (), 8, OverlapFactorization(part, a, b))

    def test_construction_certifies_the_source_once(self, rng, monkeypatch):
        u, part, _, _ = random_overlapping(rng, 2, 1, 2)
        seen = []
        original = linalg.is_unitary

        def counting(m, *args, **kwargs):
            seen.append(np.array_equal(m, u))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "is_unitary", counting)
        construct_overlap(u, part)
        assert seen.count(True) == 1

    def _count_checks(self, monkeypatch):
        shapes = []
        original = linalg.is_unitary

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "is_unitary", counting)
        return shapes

    def test_constructed_factors_are_not_certified_again(self, rng, monkeypatch):
        u, part, _, _ = random_overlapping(rng, 2, 2, 3)
        fact = construct_overlap(u, part)
        shapes = self._count_checks(monkeypatch)
        assert abstract_khrushchev_check(u, part, (0,), (4,), 10, fact).ok
        assert shapes == [(7, 7)]

    def test_a_certified_source_and_constructed_factors_need_no_check(self, rng, monkeypatch):
        u, part, _, _ = random_overlapping(rng, 2, 2, 3)
        cert = certify(u)
        fact = construct_overlap(cert, part)
        shapes = self._count_checks(monkeypatch)
        assert abstract_khrushchev_check(cert, part, (0,), (4,), 10, fact).ok
        assert shapes == []

    def test_hand_made_factors_are_certified_on_first_use_only(self, rng, monkeypatch):
        u, part, a, b = random_overlapping(rng, 2, 1, 2)
        cert = certify(u)
        fact = OverlapFactorization(part, a, b)
        shapes = self._count_checks(monkeypatch)
        for _ in range(2):
            assert abstract_khrushchev_check(cert, part, (), (), 8, fact).ok
        assert shapes == [(3, 3), (3, 3)]

    def test_standard_overlap_hands_over_its_certificates(self, rng, monkeypatch):
        spec = window_spec(random_parameters(2, 12, rng), "C", 0, 6)
        fact = standard_overlap(spec, 3)
        shapes = self._count_checks(monkeypatch)
        fact.certified()
        assert shapes == []

    @pytest.mark.parametrize("side", ["u_lc", "u_cr"])
    def test_a_perturbed_hand_made_factor_is_refused(self, rng, side):
        u, part, a, b = random_overlapping(rng, 2, 1, 2)
        factors = {"u_lc": a.copy(), "u_cr": b.copy()}
        factors[side][0, 0] += 1e-6
        fact = OverlapFactorization(part, **factors)
        with pytest.raises(ValueError, match="factor is not unitary"):
            abstract_khrushchev_check(certify(u), part, (), (), 8, fact)

    def test_the_certificate_memo_is_invisible_to_eq_and_repr(self, rng):
        u, part, a, b = random_overlapping(rng, 2, 1, 2)
        plain = OverlapFactorization(part, a, b)
        used = OverlapFactorization(part, a, b)
        text = repr(used)
        abstract_khrushchev_check(u, part, (), (), 8, used)
        assert used.certified() and not plain._certs
        assert used == plain and repr(used) == repr(plain) == text
