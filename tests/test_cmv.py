"""Construction tests for the five-diagonal and Hessenberg families:
rotation blocks, band factors, submatrices, truncations, and the built-in
single-block overlapping factorization."""

import numpy as np
import pytest

from cmvkit.cmv import (
    BlockOperatorSpec,
    build,
    build_cmv,
    build_hessenberg,
    cmv_factors,
    exact_horizon,
    standard_overlap,
    submatrix_range,
    theta,
    unitary_truncation,
)
from cmvkit.linalg import direct_sum, embed, is_unitary
from cmvkit.overlap import check_overlap
from cmvkit.schur import (
    SchurParameters,
    random_contraction,
    random_parameters,
    random_unitary,
    rho_left,
    rho_right,
)
from cmvkit.spectral import schur_of_subspace

SQ3 = float(np.sqrt(3.0))


def scalar_params(values, terminal=None):
    alphas = tuple(np.array([[v]], dtype=complex) for v in values)
    term = None if terminal is None else np.array([[terminal]], dtype=complex)
    return SchurParameters(1, alphas, term)


def spec_of(values, family="C", blocks=None, terminal=None):
    p = scalar_params(values, terminal)
    if blocks is None:
        blocks = len(p) + 1 if p.finite else len(p)
    return BlockOperatorSpec(p, family, blocks)


class TestTheta:
    def test_zero_parameter_swaps(self):
        assert np.allclose(theta(np.zeros((1, 1))), [[0, 1], [1, 0]])

    def test_half_parameter(self):
        want = np.array([[0.5, SQ3 / 2], [SQ3 / 2, -0.5]])
        assert np.abs(theta([[0.5]]) - want).max() < 1e-15

    def test_unitary_for_random_block_parameter(self, rng):
        t = theta(random_contraction(3, rng))
        chk = is_unitary(t)
        assert chk.ok, chk.residual

    def test_block_layout(self, rng):
        a = random_contraction(2, rng)
        t = theta(a)
        assert np.allclose(t[:2, :2], a.conj().T)
        assert np.allclose(t[:2, 2:], rho_left(a))
        assert np.allclose(t[2:, :2], rho_right(a))
        assert np.allclose(t[2:, 2:], -a)


class TestSpecValidation:
    def test_terminal_pins_block_count(self):
        with pytest.raises(ValueError, match="len"):
            BlockOperatorSpec(scalar_params([0.1], terminal=1.0), "C", 5)

    def test_open_sequence_needs_enough_coefficients(self):
        with pytest.raises(ValueError, match="coefficients"):
            BlockOperatorSpec(scalar_params([0.1]), "C", 4)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            BlockOperatorSpec(scalar_params([0.1]), "X", 2)

    def test_exact_horizon_window_rule(self):
        spec = spec_of([0.0] * 12, blocks=12)
        assert spec.padded
        assert exact_horizon(spec, 2) == (12 - 2 - 2) // 2
        term = spec_of([0.1, 0.2], terminal=1.0)
        assert not term.padded
        assert exact_horizon(term, 1) is None


class TestBuildFiveDiagonal:
    def test_free_case_is_a_permutation(self):
        # all-zero coefficients: every rotation is a swap, so the operator
        # permutes the basis
        c = build_cmv(spec_of([0, 0, 0], blocks=4))
        want = np.zeros((4, 4))
        want[0, 2] = want[1, 0] = want[2, 3] = want[3, 1] = 1.0
        assert np.abs(c - want).max() < 1e-15

    def test_unitary_for_random_blocks(self, rng):
        p = random_parameters(2, 6, rng)
        for fam in ("C", "Chat"):
            chk = is_unitary(build_cmv(BlockOperatorSpec(p, fam, 6)))
            assert chk.ok, (fam, chk.residual)

    def test_product_of_band_factors(self, rng):
        spec = BlockOperatorSpec(random_parameters(2, 7, rng), "C", 7)
        lf, mf = cmv_factors(spec)
        assert np.abs(lf @ mf - build_cmv(spec)).max() < 1e-14
        hat = BlockOperatorSpec(spec.params, "Chat", 7)
        assert np.abs(mf @ lf - build_cmv(hat)).max() < 1e-14

    def test_hat_family_is_transpose_of_transposed_parameters(self, rng):
        p = random_parameters(2, 6, rng)
        pt = SchurParameters(2, tuple(a.T for a in p.alphas))
        chat = build_cmv(BlockOperatorSpec(p, "Chat", 6))
        c_t = build_cmv(BlockOperatorSpec(pt, "C", 6)).T
        assert np.abs(chat - c_t).max() < 1e-12

    def test_band_and_parity_zero_pattern(self, rng):
        # rows 2i, 2i+1 live on block columns 2i-1..2i+2: bandwidth two with
        # the staircase tied to the even index
        d = 2
        n = 7
        spec = BlockOperatorSpec(random_parameters(d, n, rng), "C", n)
        c = build_cmv(spec)
        for j in range(n):
            lo = 2 * (j // 2) - 1
            hi = 2 * (j // 2) + 2
            for k in range(n):
                blk = c[j * d : (j + 1) * d, k * d : (k + 1) * d]
                if lo <= k <= hi:
                    continue
                assert np.abs(blk).max() < 1e-14, (j, k)

    def test_terminal_build_is_exact_finite_case(self):
        c = build_cmv(spec_of([0.25, -0.4], terminal=-1.0))
        assert c.shape == (3, 3)
        assert is_unitary(c).ok


class TestBuildHessenberg:
    def test_two_block_top_row(self):
        a0, a1 = 0.3, -0.5
        h = build_hessenberg(spec_of([a0, a1], "H", terminal=1.0))
        r0 = np.sqrt(1 - a0 * a0)
        r1 = np.sqrt(1 - a1 * a1)
        assert np.abs(h[0] - [a0, r0 * a1, r0 * r1]).max() < 1e-14

    def test_entry_closed_form(self, rng):
        # block (j, k) with j <= k is -a_{j-1} rL_j ... rL_{k-1} a_k^dagger,
        # with a_{-1} = -1 and the terminal in place of the last column's
        # parameter; the first subdiagonal carries rR_k and below is zero
        d = 2
        p = random_parameters(d, 4, rng, terminal=True)
        h = build_hessenberg(BlockOperatorSpec(p, "H", 5))
        alphas = list(p.alphas) + [None]
        n = 4

        def blk(j, k):
            return h[j * d : (j + 1) * d, k * d : (k + 1) * d]

        for k in range(n + 1):
            tail = p.terminal.conj().T if k == n else alphas[k].conj().T
            for j in range(k + 1):
                head = -alphas[j - 1] if j >= 1 else np.eye(d)
                body = np.eye(d)
                for i in range(j, k):
                    body = body @ rho_left(alphas[i])
                assert np.abs(blk(j, k) - head @ body @ tail).max() < 1e-12
            if k < n:
                assert np.abs(blk(k + 1, k) - rho_right(alphas[k])).max() < 1e-12
            for j in range(k + 2, n + 1):
                assert np.abs(blk(j, k)).max() < 1e-14

    def test_unitary_for_random_blocks(self, rng):
        p = random_parameters(2, 5, rng, terminal=True)
        for fam in ("H", "Hhat"):
            chk = is_unitary(build_hessenberg(BlockOperatorSpec(p, fam, 6)))
            assert chk.ok, (fam, chk.residual)

    def test_hat_family_transpose_relation(self, rng):
        p = random_parameters(2, 4, rng, terminal=True)
        pt = SchurParameters(2, tuple(a.T for a in p.alphas), p.terminal.T)
        hhat = build_hessenberg(BlockOperatorSpec(p, "Hhat", 5))
        h_t = build_hessenberg(BlockOperatorSpec(pt, "H", 5)).T
        assert np.abs(hhat - h_t).max() < 1e-12

    def test_refuses_padded_window(self):
        with pytest.raises(ValueError, match="terminal"):
            build_hessenberg(spec_of([0.1, 0.2, 0.3], "H", blocks=3))


def _from_public_theta(spec):
    """The operator assembled from public theta(alpha) calls, without the
    defects stored on the parameter set."""
    p, d, m = spec.params, spec.block_dim, spec.n_blocks - 1
    thetas = [theta(p.alpha(i)) for i in range(m)]
    closing = (p.terminal if p.finite else np.eye(d)).conj().T
    if spec.family in ("C", "Chat"):
        lf = direct_sum(*thetas[0::2], *[closing] * (m % 2 == 0))
        mf = direct_sum(np.eye(d), *thetas[1::2], *[closing] * (m % 2 == 1))
        return lf @ mf if spec.family == "C" else mf @ lf
    rotations = [embed(t, range(i * d, (i + 2) * d), spec.dim) for i, t in enumerate(thetas)]
    last = embed(closing, range(m * d, spec.dim), spec.dim)
    if spec.family == "H":
        out = np.eye(spec.dim)
        for r in rotations + [last]:
            out = out @ r
        return out
    out = last
    for r in reversed(rotations):
        out = out @ r
    return out


class TestStoredDefects:
    @pytest.mark.parametrize(
        "family, n_blocks, terminal",
        [("C", 6, False), ("C", 7, False), ("C", 7, True),
         ("Chat", 6, False), ("Chat", 7, False), ("Chat", 7, True),
         ("H", 7, True), ("Hhat", 7, True)],
    )
    def test_build_matches_public_theta(self, family, n_blocks, terminal, rng):
        for d in (1, 3):
            p = random_parameters(d, 6, rng, terminal=terminal)
            spec = BlockOperatorSpec(p, family, n_blocks)
            want = _from_public_theta(spec)
            assert np.array_equal(build(spec), want)
            assert p._defects
            assert np.array_equal(build(spec), want)

    def test_operator_route_reads_no_series(self, rng):
        p = random_parameters(2, 12, rng)
        for family in ("C", "Chat"):
            u = build(BlockOperatorSpec(p, family, 12))
            schur_of_subspace(u, range(2, 6), 4)
        q = random_parameters(1, 4, rng, terminal=True)
        for family in ("H", "Hhat"):
            schur_of_subspace(build(BlockOperatorSpec(q, family, 5)), (1, 2), 4)
        assert p._defects and q._defects
        assert p._series == {} and q._series == {}


class TestSubmatrixRange:
    def test_top_left_block_is_first_parameter(self, rng):
        p = random_parameters(2, 6, rng)
        spec = BlockOperatorSpec(p, "C", 6)
        assert np.abs(submatrix_range(spec, 0, 0) - p.alpha(0).conj().T).max() < 1e-14

    def test_five_diagonal_staircase_corners(self, rng):
        # blocks 1..4: the first block row reaches only blocks 1, 2 and the
        # last only blocks 3, 4
        d = 2
        spec = BlockOperatorSpec(random_parameters(d, 7, rng), "C", 7)
        sub = submatrix_range(spec, 1, 4)

        def blk(r, c):
            return sub[r * d : (r + 1) * d, c * d : (c + 1) * d]

        for r, c in [(0, 2), (0, 3), (3, 0), (3, 1)]:
            assert np.abs(blk(r, c)).max() < 1e-14, (r, c)
        for r, c in [(0, 0), (0, 1), (1, 0), (2, 0), (2, 3), (3, 2)]:
            assert np.abs(blk(r, c)).max() > 1e-8, (r, c)

    def test_hessenberg_window_entries(self, rng):
        # blocks 1..3 of the lower-Hessenberg family: entries are the
        # products -a_{j-1} (defects) a_k^dagger of the neighbouring
        # coefficients, with one defect subdiagonal
        d = 2
        p = random_parameters(d, 5, rng, terminal=True)
        spec = BlockOperatorSpec(p, "H", 6)
        sub = submatrix_range(spec, 1, 3)
        a = p.alphas

        def blk(r, c):
            return sub[r * d : (r + 1) * d, c * d : (c + 1) * d]

        assert np.abs(blk(0, 0) + a[0] @ a[1].conj().T).max() < 1e-12
        assert np.abs(blk(0, 1) + a[0] @ rho_left(a[1]) @ a[2].conj().T).max() < 1e-12
        assert np.abs(blk(0, 2) + a[0] @ rho_left(a[1]) @ rho_left(a[2]) @ a[3].conj().T).max() < 1e-12
        assert np.abs(blk(1, 0) - rho_right(a[1])).max() < 1e-12
        assert np.abs(blk(2, 0)).max() < 1e-14
        assert np.abs(blk(2, 1) - rho_right(a[2])).max() < 1e-12
        assert np.abs(blk(2, 2) + a[2] @ a[3].conj().T).max() < 1e-12

    def test_range_must_fit_window(self, rng):
        spec = BlockOperatorSpec(random_parameters(1, 4, rng), "C", 4)
        with pytest.raises(ValueError):
            submatrix_range(spec, 2, 4)


class TestUnitaryTruncation:
    def test_odd_start_swaps_to_hat_family(self, rng):
        p = random_parameters(2, 6, rng)
        spec = BlockOperatorSpec(p, "C", 6)
        got = unitary_truncation(spec, 1, 4)
        inner = SchurParameters(2, p.alphas[1:4], np.eye(2))
        want = build(BlockOperatorSpec(inner, "Chat", 4))
        assert np.abs(got - want).max() < 1e-13

    def test_even_start_keeps_family(self, rng):
        p = random_parameters(2, 6, rng)
        spec = BlockOperatorSpec(p, "C", 6)
        got = unitary_truncation(spec, 2, 5)
        inner = SchurParameters(2, p.alphas[2:5], np.eye(2))
        want = build(BlockOperatorSpec(inner, "C", 4))
        assert np.abs(got - want).max() < 1e-13

    def test_corner_entries_after_closure(self, rng):
        # closing blocks 1..4 puts a_1^dagger, rL_1 on top and rR_3, -a_3
        # at the bottom
        d = 2
        p = random_parameters(d, 6, rng)
        spec = BlockOperatorSpec(p, "C", 6)
        t = unitary_truncation(spec, 1, 4)
        assert np.abs(t[:d, :d] - p.alpha(1).conj().T).max() < 1e-13
        assert np.abs(t[:d, d : 2 * d] - rho_left(p.alpha(1))).max() < 1e-13
        assert np.abs(t[3 * d :, 3 * d :] + p.alpha(3)).max() < 1e-13
        assert np.abs(t[3 * d :, 2 * d : 3 * d] - rho_right(p.alpha(3))).max() < 1e-13

    def test_unitary_for_all_four_parities(self, rng):
        p = random_parameters(2, 7, rng)
        for fam in ("C", "Chat"):
            spec = BlockOperatorSpec(p, fam, 7)
            for j, k in [(1, 3), (1, 4), (2, 4), (2, 5)]:
                chk = is_unitary(unitary_truncation(spec, j, k))
                assert chk.ok, (fam, j, k, chk.residual)

    def test_hessenberg_truncation_matches_inner_build(self, rng):
        p = random_parameters(1, 5, rng, terminal=True)
        spec = BlockOperatorSpec(p, "H", 6)
        got = unitary_truncation(spec, 1, 3)
        inner = SchurParameters(1, p.alphas[1:3], np.eye(1))
        want = build(BlockOperatorSpec(inner, "H", 3))
        assert np.abs(got - want).max() < 1e-13

    def test_hessenberg_submatrix_truncation_relation(self, rng):
        # H_[j,k] = (-a_{j-1} + 1) H_(j,k) (1 + a_k^dagger)
        d = 2
        p = random_parameters(d, 5, rng, terminal=True)
        spec = BlockOperatorSpec(p, "H", 6)
        j, k = 1, 3
        sub = submatrix_range(spec, j, k)
        trunc = unitary_truncation(spec, j, k)
        head = direct_sum(-p.alpha(j - 1), np.eye((k - j) * d))
        tail = direct_sum(np.eye((k - j) * d), p.alpha(k).conj().T)
        assert np.abs(sub - head @ trunc @ tail).max() < 1e-12

    def test_degenerate_range_rejected(self, rng):
        spec = BlockOperatorSpec(random_parameters(1, 4, rng), "C", 4)
        with pytest.raises(ValueError):
            unitary_truncation(spec, 2, 2)


class TestStandardOverlap:
    def test_even_site_factors_are_head_and_tail_builds(self, rng):
        p = random_parameters(1, 8, rng)
        spec = BlockOperatorSpec(p, "C", 8)
        fact = standard_overlap(spec, 2)
        head = SchurParameters(1, p.alphas[:2], np.eye(1))
        tail = SchurParameters(1, p.alphas[2:7], np.eye(1))
        assert np.abs(fact.u_cr - build(BlockOperatorSpec(head, "C", 3))).max() < 1e-13
        assert np.abs(fact.u_lc - build(BlockOperatorSpec(tail, "C", 6))).max() < 1e-13
        # even site of the LM ordering: the head factor acts on the low
        # blocks as the center-right piece
        assert fact.partition.center == (2,)
        assert fact.partition.right == (0, 1)

    def test_odd_site_factors(self, rng):
        p = random_parameters(1, 8, rng)
        spec = BlockOperatorSpec(p, "C", 8)
        fact = standard_overlap(spec, 3)
        head = SchurParameters(1, p.alphas[:3], np.eye(1))
        tail = SchurParameters(1, p.alphas[3:7], np.eye(1))
        assert np.abs(fact.u_lc - build(BlockOperatorSpec(head, "C", 4))).max() < 1e-13
        assert np.abs(fact.u_cr - build(BlockOperatorSpec(tail, "Chat", 5))).max() < 1e-13
        assert fact.partition.left == (0, 1, 2)

    def test_product_reconstructs_for_block_parameters(self, rng):
        p = random_parameters(2, 7, rng)
        for fam in ("C", "Chat", "H", "Hhat"):
            if fam in ("H", "Hhat"):
                q = SchurParameters(2, p.alphas[:5], random_unitary(2, rng))
                spec = BlockOperatorSpec(q, fam, 6)
            else:
                spec = BlockOperatorSpec(p, fam, 7)
            u = build(spec)
            for j in range(1, spec.n_blocks - 1):
                fact = standard_overlap(spec, j)
                assert fact.reconstruction_residual(u) < 1e-10, (fam, j)

    def test_partition_passes_corner_and_rank_test(self, rng):
        p = random_parameters(2, 7, rng)
        spec = BlockOperatorSpec(p, "Chat", 7)
        u = build(spec)
        for j in (1, 2, 3, 4):
            fact = standard_overlap(spec, j)
            assert check_overlap(u, fact.partition).ok, j

    def test_site_must_leave_room_on_both_sides(self, rng):
        spec = BlockOperatorSpec(random_parameters(1, 5, rng), "C", 5)
        with pytest.raises(ValueError):
            standard_overlap(spec, 0)
        with pytest.raises(ValueError):
            standard_overlap(spec, 4)
