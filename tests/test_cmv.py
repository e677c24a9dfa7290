"""Construction tests for the five-diagonal and Hessenberg families:
rotation blocks, band factors, submatrices, truncations, and the built-in
single-block overlapping factorization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmvkit import cmv, khrushchev, linalg
from cmvkit.cmv import (
    FAMILIES,
    BlockOperatorSpec,
    block_subspace,
    build,
    build_unitary,
    head_is_left,
    standard_overlap,
    unitary_truncation,
    window_spec,
)
from cmvkit.khrushchev import substitute_into_truncation
from cmvkit.linalg import is_unitary
from cmvkit.overlap import check_overlap
from cmvkit.schur import (
    SchurParameters,
    inverse_iterate_series,
    iterate_series,
    parameters_to_json,
    random_parameters,
    random_unitary,
    rho_left,
    rho_right,
)
from cmvkit.series import coeff_distance
from cmvkit.spectral import first_return_amplitudes, schur_of_subspace
from helpers import cmv_factors, direct_sum, embed, random_contraction, theta

SQ3 = float(np.sqrt(3.0))


def scalar_params(values, terminal=None):
    alphas = tuple(np.array([[v]], dtype=complex) for v in values)
    term = None if terminal is None else np.array([[terminal]], dtype=complex)
    return SchurParameters(1, alphas, term)


def block_range(spec, j, k):
    """Principal submatrix of the built operator on blocks j..k."""
    d = spec.block_dim
    return build(spec)[j * d : (k + 1) * d, j * d : (k + 1) * d]


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

    @pytest.mark.parametrize("bad", [True, 2.5, 3.0, "3"])
    def test_block_count_must_be_an_integer(self, bad):
        p = scalar_params([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match=f"n_blocks must be an integer, got {bad!r}"):
            BlockOperatorSpec(p, "C", bad)
        spec = BlockOperatorSpec(p, "C", np.int64(3))
        assert type(spec.n_blocks) is int and spec.dim == 3

    def test_block_subspace_is_the_ascending_index_tuple(self, rng):
        spec = BlockOperatorSpec(random_parameters(2, 6, rng), "C", 5)
        assert block_subspace(spec, [3, 0, 3]) == (0, 1, 6, 7)
        with pytest.raises(ValueError, match="block 5"):
            block_subspace(spec, [5])

    @pytest.mark.parametrize("bad", [1.7, True, "1"])
    def test_block_subspace_rejects_blocks_that_are_not_integers(self, bad, rng):
        spec = BlockOperatorSpec(random_parameters(2, 6, rng), "C", 5)
        with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}"):
            block_subspace(spec, [0, bad])
        assert block_subspace(spec, np.arange(2)) == (0, 1, 2, 3)

    def test_exact_horizon_window_rule(self):
        # a return path of order + 1 steps reaches at most order + 1 blocks
        # past the last block; one more block closes it and one is margin
        p = scalar_params([0.0] * 7)
        spec = window_spec(p, "C", 2, 3)
        assert spec.padded
        assert spec.n_blocks == 2 + 3 + 3
        with pytest.raises(ValueError, match="coefficients"):
            window_spec(p, "C", 2, 4)

    @pytest.mark.parametrize("last_block, order", [(-1, 2), (2, -4)])
    def test_window_rejects_a_negative_block_or_order(self, last_block, order):
        for p in (scalar_params([0.0] * 7), scalar_params([0.0] * 3, terminal=1.0)):
            with pytest.raises(ValueError, match=f"must be nonnegative, got {last_block}, {order}"):
                window_spec(p, "C", last_block, order)
        with pytest.raises(ValueError, match="order must be an integer, got 2.5"):
            window_spec(scalar_params([0.0] * 7), "C", 0, 2.5)


def _amplitudes(spec, blocks, horizon):
    return first_return_amplitudes(build(spec), block_subspace(spec, blocks), horizon)


def _in_column_order(a, b):
    # a @ b summed over the inner index one term at a time: entries away
    # from a window's edge then round the same in every window size, which
    # a BLAS product, blocked by the matrix size, does not promise
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def _amplitudes_in_column_order(spec, block, horizon):
    # the recursion of first_return_amplitudes on the band factor product
    lf, mf = cmv_factors(spec)
    u = _in_column_order(lf, mf) if spec.family == "C" else _in_column_order(mf, lf)
    rows = np.array(block_subspace(spec, [block]))
    x = np.eye(u.shape[0], dtype=np.complex128)[:, rows]
    amps = []
    for _ in range(horizon):
        x = _in_column_order(u, x)
        amps.append(x[rows].copy())
        x[rows] = 0.0
    return np.stack(amps)


class TestWindowSpec:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family", ["C", "Chat"])
    def test_open_window_matches_a_window_two_blocks_longer(self, family, d, rng):
        # exact to the bit once the arithmetic does not depend on the size
        p = random_parameters(d, 24, rng)
        for last_block in range(4):
            for order in (0, 1, 4, 7):
                spec = window_spec(p, family, last_block, order)
                longer = BlockOperatorSpec(p, family, spec.n_blocks + 2)
                assert np.array_equal(
                    _amplitudes_in_column_order(spec, last_block, order + 1),
                    _amplitudes_in_column_order(longer, last_block, order + 1),
                ), (last_block, order)

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 3),
        family=st.sampled_from(["C", "Chat"]),
        k=st.integers(0, 6),
        j_back=st.integers(0, 6),
        order=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_open_window_matches_a_much_longer_window(self, d, family, k, j_back, order, seed):
        # the longer window pads for twice the reach, the old rule
        j = max(0, k - j_back)
        spec = window_spec(
            random_parameters(d, k + 3 * order + 7, np.random.default_rng(seed)), family, k, order
        )
        longer = BlockOperatorSpec(spec.params, family, spec.n_blocks + 2 * (order + 1) + 2)
        got = _amplitudes(spec, range(j, k + 1), order + 1)
        want = _amplitudes(longer, range(j, k + 1), order + 1)
        assert np.abs(got - want).max() <= 1e-14

    def test_one_block_short_of_the_reach_misses(self, rng):
        # last_block + order + 2 blocks is the least that is exact, so the
        # rule's last_block + order + 3 keeps one block of margin
        worst = 0.0
        for d in (1, 2):
            p = random_parameters(d, 20, rng)
            for family in ("C", "Chat"):
                for last_block in range(3):
                    for order in range(4):
                        exact = window_spec(p, family, last_block, order)
                        short = BlockOperatorSpec(p, family, last_block + order + 1)
                        miss = np.abs(
                            _amplitudes(short, [last_block], order + 1)
                            - _amplitudes(exact, [last_block], order + 1)
                        ).max()
                        worst = max(worst, miss)
        assert worst > 1e-6

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family", ["C", "Chat"])
    def test_terminal_sequence_gets_its_exact_build(self, family, d, rng):
        # a terminal build has no edge, so there is no longer window to
        # compare with: the rule must pick the exact build at every order
        p = random_parameters(d, 5, rng, terminal=True)
        for last_block in range(len(p) + 1):
            for order in (0, 7, 40):
                spec = window_spec(p, family, last_block, order)
                assert spec.n_blocks == len(p) + 1 and not spec.padded
        with pytest.raises(ValueError, match="does not exist"):
            window_spec(p, family, len(p) + 1, 0)


class TestBuildFiveDiagonal:
    def test_free_case_is_a_permutation(self):
        # all-zero coefficients: every rotation is a swap, so the operator
        # permutes the basis
        c = build(spec_of([0, 0, 0], blocks=4))
        want = np.zeros((4, 4))
        want[0, 2] = want[1, 0] = want[2, 3] = want[3, 1] = 1.0
        assert np.abs(c - want).max() < 1e-15

    def test_unitary_for_random_blocks(self, rng):
        p = random_parameters(2, 6, rng)
        for fam in ("C", "Chat"):
            chk = is_unitary(build(BlockOperatorSpec(p, fam, 6)))
            assert chk.ok, (fam, chk.residual)

    def test_product_of_band_factors(self, rng):
        # the in-place rotation layers against the dense products L M and
        # M L, on open and terminal sets and one order-64 window
        specs = []
        for d in (1, 2, 3, 4):
            open_p = random_parameters(d, 8, rng)
            for n_blocks in range(1, 10):
                closed_p = random_parameters(d, n_blocks - 1, rng, terminal=True)
                specs += [(closed_p, n_blocks), (open_p, n_blocks)]
        window = window_spec(random_parameters(3, 70, rng), "C", 2, 64)
        specs.append((window.params, window.n_blocks))
        for p, n_blocks in specs:
            spec = BlockOperatorSpec(p, "C", n_blocks)
            lf, mf = cmv_factors(spec)
            assert np.abs(lf @ mf - build(spec)).max() < 1e-14, (p.block_dim, n_blocks)
            hat = BlockOperatorSpec(p, "Chat", n_blocks)
            assert np.abs(mf @ lf - build(hat)).max() < 1e-14, (p.block_dim, n_blocks)

    def test_hat_family_is_transpose_of_transposed_parameters(self, rng):
        p = random_parameters(2, 6, rng)
        pt = SchurParameters(2, tuple(a.T for a in p.alphas))
        chat = build(BlockOperatorSpec(p, "Chat", 6))
        c_t = build(BlockOperatorSpec(pt, "C", 6)).T
        assert np.abs(chat - c_t).max() < 1e-12

    def test_band_and_parity_zero_pattern(self, rng):
        # rows 2i, 2i+1 live on block columns 2i-1..2i+2: bandwidth two with
        # the staircase tied to the even index
        d = 2
        n = 7
        spec = BlockOperatorSpec(random_parameters(d, n, rng), "C", n)
        c = build(spec)
        for j in range(n):
            lo = 2 * (j // 2) - 1
            hi = 2 * (j // 2) + 2
            for k in range(n):
                blk = c[j * d : (j + 1) * d, k * d : (k + 1) * d]
                if lo <= k <= hi:
                    continue
                assert np.abs(blk).max() < 1e-14, (j, k)

    def test_terminal_build_is_exact_finite_case(self):
        c = build(spec_of([0.25, -0.4], terminal=-1.0))
        assert c.shape == (3, 3)
        assert is_unitary(c).ok


class TestBuildHessenberg:
    def test_two_block_top_row(self):
        a0, a1 = 0.3, -0.5
        h = build(spec_of([a0, a1], "H", terminal=1.0))
        r0 = np.sqrt(1 - a0 * a0)
        r1 = np.sqrt(1 - a1 * a1)
        assert np.abs(h[0] - [a0, r0 * a1, r0 * r1]).max() < 1e-14

    def test_entry_closed_form(self, rng):
        # block (j, k) with j <= k is -a_{j-1} rL_j ... rL_{k-1} a_k^dagger,
        # with a_{-1} = -1 and the terminal in place of the last column's
        # parameter; the first subdiagonal carries rR_k and below is zero
        d = 2
        p = random_parameters(d, 4, rng, terminal=True)
        h = build(BlockOperatorSpec(p, "H", 5))
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
            chk = is_unitary(build(BlockOperatorSpec(p, fam, 6)))
            assert chk.ok, (fam, chk.residual)

    def test_hat_family_transpose_relation(self, rng):
        p = random_parameters(2, 4, rng, terminal=True)
        pt = SchurParameters(2, tuple(a.T for a in p.alphas), p.terminal.T)
        hhat = build(BlockOperatorSpec(p, "Hhat", 5))
        h_t = build(BlockOperatorSpec(pt, "H", 5)).T
        assert np.abs(hhat - h_t).max() < 1e-12

    def test_refuses_padded_window(self):
        with pytest.raises(ValueError, match="terminal"):
            build(spec_of([0.1, 0.2, 0.3], "H", blocks=3))

    @pytest.mark.parametrize("family", ["H", "Hhat"])
    def test_column_build_matches_dense_embedded_product(self, family, rng):
        for d in (1, 2, 3):
            for length in range(9):
                p = random_parameters(d, length, rng, terminal=True)
                spec = BlockOperatorSpec(p, family, length + 1)
                assert np.abs(build(spec) - _dense_hessenberg(spec)).max() <= 1e-14


def _from_public_theta(spec):
    """The operator assembled from public theta(alpha) calls, without the
    defects stored on the parameter set."""
    p, d, m = spec.params, spec.block_dim, spec.n_blocks - 1
    closing = (p.terminal if p.finite else np.eye(d)).conj().T
    steps = [(i * d, theta(p.alpha(i))) for i in range(m)] + [(m * d, closing)]
    # C = L M applies the even rotations first, Chat = M L the odd ones;
    # the boundary on block m goes with the rotations of m's parity
    if spec.family == "C":
        steps = steps[0::2] + steps[1::2]
    elif spec.family == "Chat":
        steps = steps[1::2] + steps[0::2]
    elif spec.family == "Hhat":
        steps = steps[::-1]
    # each rotation acts on its own 2d columns, as the library applies it
    out = np.eye(spec.dim, dtype=np.complex128)
    for at, block in steps:
        out[:, at : at + len(block)] = out[:, at : at + len(block)] @ block
    return out


def _dense_hessenberg(spec):
    """The Hessenberg product of dense embedded rotations, dim x dim each."""
    p, d, m = spec.params, spec.block_dim, spec.n_blocks - 1
    rotations = [embed(theta(p.alpha(i)), range(i * d, (i + 2) * d), spec.dim) for i in range(m)]
    last = embed(p.terminal.conj().T, range(m * d, spec.dim), spec.dim)
    factors = rotations + [last] if spec.family == "H" else [last] + rotations[::-1]
    out = np.eye(spec.dim, dtype=np.complex128)
    for r in factors:
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
            assert p._memo["defects"]
            assert np.array_equal(build(spec), want)

    def test_operator_route_reads_no_series(self, rng):
        p = random_parameters(2, 12, rng)
        for family in ("C", "Chat"):
            u = build(BlockOperatorSpec(p, family, 12))
            schur_of_subspace(u, range(2, 6), 4)
        q = random_parameters(1, 4, rng, terminal=True)
        for family in ("H", "Hhat"):
            schur_of_subspace(build(BlockOperatorSpec(q, family, 5)), (1, 2), 4)
        assert p._memo["defects"] and q._memo["defects"]
        assert not any(k[0] == "iterate" for k in p._memo) and not any(k[0] == "iterate" for k in q._memo)

    def test_theta_residuals_are_evaluated_once_per_set(self, rng, monkeypatch):
        # every (family, j <= 5) window of one set, one truncation and one
        # overlap slice the Theta blocks and residuals kept on the set
        calls = []
        original = cmv.unitary_residuals

        def counting(stack):
            calls.append(np.shape(stack))
            return original(stack)

        monkeypatch.setattr(cmv, "unitary_residuals", counting)
        d = 2
        open_p = random_parameters(d, 20, rng)
        finite_p = random_parameters(d, 8, rng, terminal=True)
        for p, families in ((open_p, ("C", "Chat")), (finite_p, FAMILIES)):
            for family in families:
                for j in range(6):
                    build_unitary(window_spec(p, family, j, 6))
            spec = window_spec(p, families[0], 5, 6)
            unitary_truncation(spec, 1, 4)
            standard_overlap(spec, 3)
        assert calls == [(20, 2 * d, 2 * d), (8, 2 * d, 2 * d)]

    def test_slices_build_no_parameter_sets(self, rng, monkeypatch):
        p = random_parameters(2, 8, rng, terminal=True)
        built = []
        original = SchurParameters.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(SchurParameters, "__post_init__", counting)
        for family in FAMILIES:
            spec = BlockOperatorSpec(p, family, 9)
            unitary_truncation(spec, 1, 4)
            standard_overlap(spec, 3)
            substitute_into_truncation(p, family, 1, 4, 3)
        assert built == []


class TestOperatorMemo:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_an_exact_build_is_assembled_once_per_family(self, d):
        for length in range(9):
            p = random_parameters(d, length, np.random.default_rng([d, length]), terminal=True)
            for family in FAMILIES:
                spec = BlockOperatorSpec(p, family, length + 1)
                first = build_unitary(spec)
                assert build_unitary(BlockOperatorSpec(p, family, length + 1)) is first
                assert not first.matrix.flags.writeable
                fresh = cmv._assemble(family, p, 0, length, p._certificate)
                assert np.array_equal(first.matrix, fresh.matrix) and first.residual == fresh.residual
            assert [k[1] for k in p._memo if k[0] == "operator"] == list(FAMILIES)

    def test_windows_are_never_kept(self, rng):
        p = random_parameters(2, 12, rng)
        for family in ("C", "Chat"):
            spec = window_spec(p, family, 2, 6)
            first = build_unitary(spec)
            again = build_unitary(spec)
            assert again is not first and np.array_equal(again.matrix, first.matrix)
        assert not any(k[0] == "operator" for k in p._memo)

    def test_the_formula_side_neither_reads_nor_fills_the_memo(self, rng):
        # a poisoned memo would raise if a truncation or substitution read it
        p = random_parameters(2, 6, rng, terminal=True)
        q = SchurParameters(2, p.alphas, p.terminal)
        p._memo.update(dict.fromkeys([("operator", family) for family in FAMILIES], "poisoned"))
        for family in FAMILIES:
            assert np.array_equal(unitary_truncation(BlockOperatorSpec(p, family, 7), 1, 4),
                                  unitary_truncation(BlockOperatorSpec(q, family, 7), 1, 4))
            assert np.array_equal(substitute_into_truncation(p, family, 1, 4, 3).coeffs,
                                  substitute_into_truncation(q, family, 1, 4, 3).coeffs)
        assert not any(k[0] == "operator" for k in q._memo)

    def test_equality_repr_and_json_ignore_the_memo(self, rng):
        p = random_parameters(2, 4, rng, terminal=True)
        q = SchurParameters(2, p.alphas, p.terminal)
        before = (repr(p), parameters_to_json(p))
        for family in FAMILIES:
            build_unitary(BlockOperatorSpec(p, family, 5))
        assert sum(k[0] == "operator" for k in p._memo) == 4 and not any(k[0] == "operator" for k in q._memo)
        assert p == q and q == p
        assert (repr(p), parameters_to_json(p)) == before == (repr(q), parameters_to_json(q))

    @pytest.mark.parametrize("d", [1, 2])
    def test_shuffled_hessenberg_checks_read_the_same_bits_as_fresh_sets(self, d):
        rng = np.random.default_rng([30, d])
        p = random_parameters(d, 5, rng, terminal=True)
        cases = [(family, j, k) for family in ("H", "Hhat") for j in range(5) for k in range(j + 1, 6)]
        for i in rng.permutation(len(cases)):
            family, j, k = cases[i]
            kept = khrushchev.verify_hessenberg_formula(p, family, j, k, 16).residual
            fresh = SchurParameters(d, p.alphas, p.terminal)
            assert kept == khrushchev.verify_hessenberg_formula(fresh, family, j, k, 16).residual
        assert sorted(k[1] for k in p._memo if k[0] == "operator") == ["H", "Hhat"]


class TestSubmatrixRange:
    def test_top_left_block_is_first_parameter(self, rng):
        p = random_parameters(2, 6, rng)
        spec = BlockOperatorSpec(p, "C", 6)
        assert np.abs(block_range(spec, 0, 0) - p.alpha(0).conj().T).max() < 1e-14

    def test_five_diagonal_staircase_corners(self, rng):
        # blocks 1..4: the first block row reaches only blocks 1, 2 and the
        # last only blocks 3, 4
        d = 2
        spec = BlockOperatorSpec(random_parameters(d, 7, rng), "C", 7)
        sub = block_range(spec, 1, 4)

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
        sub = block_range(spec, 1, 3)
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


class TestUnitaryTruncation:
    def test_odd_start_swaps_to_hat_family(self, rng):
        for d in (2, 3):
            p = random_parameters(d, 6, rng)
            spec = BlockOperatorSpec(p, "C", 6)
            got = unitary_truncation(spec, 1, 4)
            inner = SchurParameters(d, p.alphas[1:4], np.eye(d))
            want = build(BlockOperatorSpec(inner, "Chat", 4))
            assert np.array_equal(got, want), d

    def test_even_start_keeps_family(self, rng):
        for d in (2, 3):
            p = random_parameters(d, 6, rng)
            spec = BlockOperatorSpec(p, "C", 6)
            got = unitary_truncation(spec, 2, 5)
            inner = SchurParameters(d, p.alphas[2:5], np.eye(d))
            want = build(BlockOperatorSpec(inner, "C", 4))
            assert np.array_equal(got, want), d

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
        for family in ("H", "Hhat"):
            for d in (1, 3):
                p = random_parameters(d, 5, rng, terminal=True)
                spec = BlockOperatorSpec(p, family, 6)
                got = unitary_truncation(spec, 1, 3)
                inner = SchurParameters(d, p.alphas[1:3], np.eye(d))
                want = build(BlockOperatorSpec(inner, family, 3))
                assert np.array_equal(got, want), (family, d)

    def test_hessenberg_submatrix_truncation_relation(self, rng):
        # H_[j,k] = (-a_{j-1} + 1) H_(j,k) (1 + a_k^dagger)
        d = 2
        p = random_parameters(d, 5, rng, terminal=True)
        spec = BlockOperatorSpec(p, "H", 6)
        j, k = 1, 3
        sub = block_range(spec, j, k)
        trunc = unitary_truncation(spec, j, k)
        head = direct_sum(-p.alpha(j - 1), np.eye((k - j) * d))
        tail = direct_sum(np.eye((k - j) * d), p.alpha(k).conj().T)
        assert np.abs(sub - head @ trunc @ tail).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        d=st.integers(1, 3),
        terminal=st.booleans(),
        data=st.data(),
    )
    def test_truncation_is_the_build_of_its_inner_coefficients(self, family, d, terminal, data):
        # the reference is the parity table the ranks replace: the
        # five-diagonal orderings swap at odd j, the Hessenberg ones stay
        terminal = terminal or family in ("H", "Hhat")
        n_blocks = data.draw(st.integers(2, 9), label="n_blocks")
        k = data.draw(st.integers(1, n_blocks - 1), label="k")
        j = data.draw(st.integers(0, k - 1), label="j")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        p = random_parameters(d, n_blocks - 1 if terminal else n_blocks, rng, terminal=terminal)
        inner_family = family
        if family in ("C", "Chat") and j % 2 == 1:
            inner_family = "Chat" if family == "C" else "C"
        inner = SchurParameters(d, p.alphas[j:k], np.eye(d))
        want = build(BlockOperatorSpec(inner, inner_family, k - j + 1))
        got = unitary_truncation(BlockOperatorSpec(p, family, n_blocks), j, k)
        assert np.array_equal(got, want), (j, k)

    def test_degenerate_range_rejected(self, rng):
        spec = BlockOperatorSpec(random_parameters(1, 4, rng), "C", 4)
        with pytest.raises(ValueError):
            unitary_truncation(spec, 2, 2)

    @pytest.mark.parametrize("bad", [True, 1.0, "1"])
    def test_range_ends_must_be_integers(self, bad, rng):
        # True would otherwise slice as 1 and 1.0 fail inside the slicing
        spec = BlockOperatorSpec(random_parameters(1, 6, rng), "C", 6)
        with pytest.raises(ValueError, match=f"^j must be an integer, got {bad!r}"):
            unitary_truncation(spec, bad, 3)
        with pytest.raises(ValueError, match=f"^k must be an integer, got {bad!r}"):
            unitary_truncation(spec, 0, bad)
        want = unitary_truncation(spec, 1, 3)
        assert np.array_equal(unitary_truncation(spec, np.int64(1), np.int64(3)), want)


class TestStandardOverlap:
    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_site_must_be_an_integer(self, bad, rng):
        spec = BlockOperatorSpec(random_parameters(1, 6, rng), "C", 6)
        with pytest.raises(ValueError, match=f"^j must be an integer, got {bad!r}"):
            standard_overlap(spec, bad)

    def test_even_site_factors_are_head_and_tail_builds(self, rng):
        for d in (1, 3):
            p = random_parameters(d, 8, rng)
            spec = BlockOperatorSpec(p, "C", 8)
            fact = standard_overlap(spec, 2)
            head = SchurParameters(d, p.alphas[:2], np.eye(d))
            tail = SchurParameters(d, p.alphas[2:7], np.eye(d))
            assert np.array_equal(fact.u_cr, build(BlockOperatorSpec(head, "C", 3)))
            assert np.array_equal(fact.u_lc, build(BlockOperatorSpec(tail, "C", 6)))
            # even site of the LM ordering: the head factor acts on the low
            # blocks as the center-right piece
            assert fact.partition.center == tuple(range(2 * d, 3 * d))
            assert fact.partition.right == tuple(range(2 * d))

    def test_odd_site_factors(self, rng):
        for d in (1, 3):
            p = random_parameters(d, 8, rng)
            spec = BlockOperatorSpec(p, "C", 8)
            fact = standard_overlap(spec, 3)
            head = SchurParameters(d, p.alphas[:3], np.eye(d))
            tail = SchurParameters(d, p.alphas[3:7], np.eye(d))
            assert np.array_equal(fact.u_lc, build(BlockOperatorSpec(head, "C", 4)))
            assert np.array_equal(fact.u_cr, build(BlockOperatorSpec(tail, "Chat", 5)))
            assert fact.partition.left == tuple(range(3 * d))

    @pytest.mark.parametrize(
        "family, j, head_is_lc, lc_family, cr_family",
        [("Chat", 2, True, "Chat", "Chat"), ("Chat", 3, False, "C", "Chat"),
         ("H", 2, True, "H", "H"), ("Hhat", 3, False, "Hhat", "Hhat")],
    )
    @pytest.mark.parametrize("d", [1, 3])
    def test_terminal_factors_are_head_and_tail_builds(
        self, family, j, head_is_lc, lc_family, cr_family, d, rng
    ):
        p = random_parameters(d, 6, rng, terminal=True)
        fact = standard_overlap(BlockOperatorSpec(p, family, 7), j)
        head = SchurParameters(d, p.alphas[:j], np.eye(d)), range(0, j + 1)
        tail = SchurParameters(d, p.alphas[j:], p.terminal), range(j, 7)
        (lc, lc_blocks), (cr, cr_blocks) = (head, tail) if head_is_lc else (tail, head)
        assert np.array_equal(fact.u_lc, build(BlockOperatorSpec(lc, lc_family, len(lc) + 1)))
        assert np.array_equal(fact.u_cr, build(BlockOperatorSpec(cr, cr_family, len(cr) + 1)))
        assert fact.partition.lc == tuple(b * d + t for b in lc_blocks for t in range(d))
        assert fact.partition.cr == tuple(b * d + t for b in cr_blocks for t in range(d))

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


class TestHeadIsLeft:
    """The factor-order rule against the operator: the head factor across
    V_j is U_LC exactly when head_is_left says so, its V_j Schur function
    read off the factor matrix is b_j, and the tail factor's is f_j."""

    ORDER = 12

    @pytest.mark.parametrize(
        "family, terminal",
        [("C", False), ("C", True), ("Chat", False), ("Chat", True),
         ("H", True), ("Hhat", True)],
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_head_factor_carries_b_j_and_tail_factor_f_j(self, family, terminal, d, rng):
        p = random_parameters(d, 6 if terminal else 20, rng, terminal=terminal)
        for j in range(1, 5):
            spec = window_spec(p, family, j, self.ORDER)
            fact = standard_overlap(spec, j)
            part = fact.partition
            head_lc = part.left == block_subspace(spec, range(j))
            assert head_lc == head_is_left(family, j), (j, part)
            assert head_lc != (part.right == block_subspace(spec, range(j)))

            def site_function(u, indices):
                local = [indices.index(i) for i in part.center]
                return schur_of_subspace(u, local, self.ORDER)

            f_lc, f_cr = site_function(fact.u_lc, part.lc), site_function(fact.u_cr, part.cr)
            f_head, f_tail = (f_lc, f_cr) if head_lc else (f_cr, f_lc)
            b_want = inverse_iterate_series(p, j, self.ORDER)
            f_want = iterate_series(p, j, self.ORDER)
            assert coeff_distance(f_head, b_want) <= 1e-12, j
            assert coeff_distance(f_tail, f_want) <= 1e-12, j

    def test_rule_table(self):
        assert [head_is_left("C", j) for j in range(4)] == [False, True, False, True]
        assert [head_is_left("Chat", j) for j in range(4)] == [True, False, True, False]
        assert all(head_is_left("H", j) for j in range(4))
        assert not any(head_is_left("Hhat", j) for j in range(4))
        with pytest.raises(ValueError, match="unknown family"):
            head_is_left("D", 1)


class TestCertificate:
    # Hessenberg families build terminal sequences only
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "family, terminal",
        [("C", False), ("Chat", False), ("C", True), ("Chat", True), ("H", True), ("Hhat", True)],
    )
    def test_certificate_bounds_the_dense_residual(self, family, d, terminal, rng):
        for length in (0, 1, 2, 5, 8):
            p = random_parameters(d, length, rng, terminal=terminal)
            n_blocks = length + 1 if terminal else max(1, length)
            spec = BlockOperatorSpec(p, family, n_blocks)
            u = build_unitary(spec)
            assert not u.matrix.flags.writeable
            assert np.array_equal(u.matrix, build(spec))
            assert is_unitary(u.matrix).residual <= u.residual + 1e-13, (length, u.residual)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_corrupted_defects_name_their_block(self, family, rng):
        p = random_parameters(2, 6, rng, terminal=True)
        _, rl, *rest = p.stacks()
        rl = rl.copy()
        rl[3] *= 1.01
        p._memo["defects"] = (rl, *rest)
        with pytest.raises(ValueError, match="not unitary.*alpha_3"):
            build(BlockOperatorSpec(p, family, 7))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_nan_boundary_certificate_is_refused(self, family, rng):
        # a NaN bound is not at most UNITARY_TOL, so it fails like a large one
        p = random_parameters(1, 3, rng)
        with pytest.raises(ValueError, match="not unitary.*the boundary unitary, residual nan"):
            cmv._assemble(family, p, 0, 3, linalg.Unitary(np.eye(1), float("nan")))

    def test_verifiers_make_no_dense_unitarity_check(self, rng, monkeypatch):
        shapes = []
        original = linalg.is_unitary

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "is_unitary", counting)
        d = 2
        open_p = random_parameters(d, 30, rng)
        finite_p = random_parameters(d, 5, rng, terminal=True)
        assert khrushchev.verify_site_formula(open_p, "C", 2, 6).ok
        assert khrushchev.verify_range_formula(open_p, "Chat", 1, 3, 6).ok
        assert khrushchev.verify_hessenberg_formula(finite_p, "H", 1, 3, 6).ok
        assert all(shape[0] <= d for shape in shapes), shapes

    def test_raw_input_is_certified_once(self, rng, monkeypatch):
        shapes = []
        original = linalg.is_unitary

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "is_unitary", counting)
        schur_of_subspace(random_unitary(7, rng), (1, 4), 8)
        assert shapes == [(7, 7)]
