"""Top-level acceptance checks.

Each test is one numbered end-to-end claim about the library: a closed
form reproduced from the worked examples, a randomized identity suite
against an operator oracle, or a bundle of structural invariants.  Every
test asserts its own wall-clock budget so a performance regression fails
as loudly as a numerical one.  The per-identity mechanics are covered in
the module test files; here everything runs through the public API the
way a user would drive it.
"""

import time

import numpy as np
import pytest

from cmvkit.catalog import (
    coined_walk_six,
    coined_walk_six_alternate,
    diffusion_five_center_schur,
    diffusion_pair_schur,
    double_diffusion_five,
    double_diffusion_six,
    rational_series,
    walk_left_schur,
    walk_pair_right_schur,
    walk_right_schur,
)
from cmvkit.cmv import (
    BlockOperatorSpec,
    build,
    window_spec,
)
from cmvkit.khrushchev import (
    compress_to_vector,
    hessenberg_superposition,
    scalar_superposition_schur,
    substitute_into_truncation,
    verify_hessenberg_formula,
    verify_range_formula,
    verify_site_formula,
)
from cmvkit.overlap import (
    OverlapFactorization,
    SubspacePartition,
    abstract_khrushchev_check,
    check_overlap,
    construct_overlap,
    verify_gauge,
)
from cmvkit.pathcount import oracle_first_return
from cmvkit.schur import (
    SchurParameters,
    inverse_iterate_series,
    iterate_series,
    random_parameters,
    random_unitary,
    rho_left,
    rho_right,
    schur_forward,
    synthesize,
)
from cmvkit.series import (
    MatrixPowerSeries,
    caratheodory_to_schur,
    coeff_distance,
    schur_to_caratheodory,
)
from cmvkit.spectral import (
    caratheodory_of_subspace,
    first_return_amplitudes,
    schur_of_subspace,
)
from helpers import cmv_factors, direct_sum_series, random_contraction, theta


@pytest.mark.criterion(
    1, "center-state Schur function of the six-state double diffusion matches its rational form"
)
def test_six_state_center_rational():
    t0 = time.perf_counter()
    u = double_diffusion_six().product()
    f = schur_of_subspace(u, (2,), 19)
    want = rational_series((1.0, -5.0, 6.0), (6.0, -5.0, 1.0), 19)
    assert coeff_distance(f, want) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(
    2, "two-state Schur functions of both diffusion products match their factored forms"
)
def test_diffusion_matrix_cases():
    t0 = time.perf_counter()
    six = double_diffusion_six()
    pair = schur_of_subspace(six.product(), (2, 3), 16)
    assert coeff_distance(pair, diffusion_pair_schur(16)) <= 1e-10

    five = double_diffusion_five()
    center = schur_of_subspace(five.product(), (1, 2), 16)
    assert coeff_distance(center, diffusion_five_center_schur(16)) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(
    3, "coined-walk factor functions, their product identity, and the alternate factorization"
)
def test_coined_walk_example():
    t0 = time.perf_counter()
    order = 16
    walk = coined_walk_six()
    # center state 2 sits at local index 2 of the left-center factor and
    # local index 0 of the center-right factor
    f_left = schur_of_subspace(walk.u_lc, (2,), order)
    f_right = schur_of_subspace(walk.u_cr, (0,), order)
    assert coeff_distance(f_left, walk_left_schur(order)) <= 1e-10
    assert coeff_distance(f_right, walk_right_schur(order)) <= 1e-10

    f_center = schur_of_subspace(walk.product(), (2,), order)
    assert coeff_distance(f_center, walk_right_schur(order) * walk_left_schur(order)) <= 1e-10

    pair_right = schur_of_subspace(walk.u_cr, (0, 2), order)
    assert coeff_distance(pair_right, walk_pair_right_schur(order)) <= 1e-10

    alt = coined_walk_six_alternate()
    assert np.linalg.norm(alt.product() - walk.product()) <= 1e-12
    assert check_overlap(alt.product(), alt.partition).ok
    refactored = construct_overlap(alt.product(), alt.partition)
    assert refactored.reconstruction_residual(walk.product()) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(
    4, "random overlapping unitaries: characterization, construction, gauge, factorization identity"
)
def test_overlap_property_suite():
    t0 = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        nl = int(rng.integers(1, 11))
        nc = int(rng.integers(0, 5))
        nr = int(rng.integers(1, 11))
        n = nl + nc + nr

        a = random_unitary(nl + nc, rng)
        b = random_unitary(nc + nr, rng)
        u = np.eye(n, dtype=np.complex128)
        u[: nl + nc, : nl + nc] = a
        rhs = np.eye(n, dtype=np.complex128)
        rhs[nl:, nl:] = b
        u = u @ rhs

        part = SubspacePartition(
            n, tuple(range(nl)), tuple(range(nl, nl + nc)), tuple(range(nl + nc, n))
        )
        assert check_overlap(u, part).ok
        fact = construct_overlap(u, part)
        assert fact.reconstruction_residual(u) <= 1e-12

        # the construction must land in the gauge orbit of the pair it
        # was assembled from; verify_gauge raises when it does not
        gauge = verify_gauge(fact, OverlapFactorization(part, a, b))
        assert gauge.shape == (nc, nc)

        v_l = tuple(range(min(2, nl)))
        v_r = tuple(range(nl + nc, nl + nc + min(2, nr)))
        res = abstract_khrushchev_check(u, part, v_l, v_r, 12, factorization=fact)
        assert res.residual <= 1e-8

        if seed % 4 == 0:
            # a generic unitary has a nonvanishing right-to-left corner,
            # so the characterization and the construction must both say no
            bad = random_unitary(n, rng)
            assert not check_overlap(bad, part).ok
            with pytest.raises(ValueError):
                construct_overlap(bad, part)
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(
    5, "single-site Schur formula across block sizes and both five-diagonal orderings"
)
def test_site_formula_suite():
    t0 = time.perf_counter()
    order = 12
    for d in (1, 2, 3):
        for seed in range(50):
            p = random_parameters(d, 33, np.random.default_rng(1000 * d + seed))
            for family in ("C", "Chat"):
                for j in range(6):
                    report = verify_site_formula(p, family, j, order)
                    assert report.ok, report.summary()
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(6, "block-range substitution formula across all four index parities")
def test_range_formula_suite():
    t0 = time.perf_counter()
    order = 12
    parities = ((1, 3), (1, 4), (2, 4), (2, 5))
    for d in (1, 2):
        for seed in range(25):
            p = random_parameters(d, 33, np.random.default_rng(2000 * d + seed))
            for family in ("C", "Chat"):
                for j, k in parities:
                    report = verify_range_formula(p, family, j, k, order)
                    assert report.ok, report.summary()

    # adjacent scalar ranges starting at an even site have the closed
    # display (b_j + f_{j+1}) theta(a_j)^dagger with entries
    # [[a b_j, r b_j], [r f_{j+1}, -conj(a) f_{j+1}]]
    for seed in range(5):
        p = random_parameters(1, 20, np.random.default_rng(seed))
        for j in (0, 2):
            sub = substitute_into_truncation(p, "C", j, j + 1, order)
            b = inverse_iterate_series(p, j, order)
            f = iterate_series(p, j + 1, order)
            rotation = MatrixPowerSeries.constant(theta(p.alpha(j)).conj().T, order)
            assert coeff_distance(sub, direct_sum_series(b, f) * rotation) <= 1e-12

            a = complex(p.alpha(j)[0, 0])
            r = float(np.sqrt(1.0 - abs(a) ** 2))
            entries = np.zeros((order + 1, 2, 2), dtype=np.complex128)
            entries[:, 0, 0] = (a * b).scalar_coeffs()
            entries[:, 0, 1] = (r * b).scalar_coeffs()
            entries[:, 1, 0] = (r * f).scalar_coeffs()
            entries[:, 1, 1] = (-np.conj(a) * f).scalar_coeffs()
            assert coeff_distance(sub, MatrixPowerSeries(entries)) <= 1e-12
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(
    7, "Hessenberg block ranges on finitely supported sequences, with unitary finite builds"
)
def test_hessenberg_range_suite():
    t0 = time.perf_counter()
    order = 12
    for d in (1, 2):
        for seed, length in ((0, 5), (1, 4), (2, 3), (3, 2), (4, 5)):
            p = random_parameters(d, length, np.random.default_rng(3000 * d + seed), terminal=True)
            for family in ("H", "Hhat"):
                h = build(BlockOperatorSpec(p, family, length + 1))
                assert np.linalg.norm(h @ h.conj().T - np.eye(h.shape[0])) <= 1e-10
                for j in range(length):
                    for k in range(j + 1, length + 1):
                        report = verify_hessenberg_formula(p, family, j, k, order)
                        assert report.ok, report.summary()
    assert time.perf_counter() - t0 < 30.0


SUPERPOSITION_STATES = (
    (1.0, 0.0),
    (0.0, 1.0),
    (0.6, 0.8),
    (0.6, 0.8j),
    (0.28, 0.96),
    (-0.8, 0.6),
    (0.6j, 0.8),
    (0.96, 0.28j),
)


@pytest.mark.criterion(
    8, "two-site superposition functions agree across all routes and reduce to site products at the extremes"
)
def test_superposition_suite():
    t0 = time.perf_counter()
    order = 12
    for seed in range(25):
        rng = np.random.default_rng(4000 + seed)
        p = random_parameters(1, 33, rng)
        p_fin = random_parameters(1, 6, rng, terminal=True)
        for j in range(4):
            # the pair function is state independent, so the operator
            # route shares one first-return computation per (seed, j)
            window = window_spec(p, "C", j + 1, order)
            f_pair = schur_of_subspace(build(window), (j, j + 1), order)
            b_j = inverse_iterate_series(p, j, order)
            f_j = iterate_series(p, j, order)
            b_next = inverse_iterate_series(p, j + 1, order)
            f_next = iterate_series(p, j + 1, order)

            for beta, gamma in SUPERPOSITION_STATES:
                formula = scalar_superposition_schur(p, j, beta, gamma, order, route="formula")
                operator = compress_to_vector(f_pair, [beta, gamma])
                assert coeff_distance(formula, operator) <= 1e-8
                if (beta, gamma) == (1.0, 0.0):
                    assert coeff_distance(formula, b_j * f_j) <= 1e-8
                if (beta, gamma) == (0.0, 1.0):
                    assert coeff_distance(formula, f_next * b_next) <= 1e-8

                h_formula = hessenberg_superposition(p_fin, j, beta, gamma, order, route="formula")
                h_operator = hessenberg_superposition(
                    p_fin, j, beta, gamma, order, route="operator_compress"
                )
                assert coeff_distance(h_formula, h_operator) <= 1e-8
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(9, "path-counted return amplitudes equal the operator amplitudes")
def test_path_count_oracle_equivalence():
    t0 = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 13))
        u = random_unitary(dim, rng)
        size = int(rng.integers(1, min(3, dim) + 1))
        v = tuple(sorted(rng.choice(dim, size=size, replace=False).tolist()))
        amps = first_return_amplitudes(u, v, 6)
        assert np.abs(oracle_first_return(u, v, 6) - amps).max() <= 1e-10
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(10, "structural invariants of built operators and series transforms")
def test_structural_invariants():
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        d = 1 + seed % 3
        p = random_parameters(d, 12, rng)

        spec = BlockOperatorSpec(p, "C", 12)
        c = build(spec)
        n = c.shape[0]
        assert np.linalg.norm(c @ c.conj().T - np.eye(n)) <= 1e-10

        lf, mf = cmv_factors(spec)
        assert np.abs(lf @ mf - c).max() <= 1e-12

        # five-diagonal support: block row i vanishes outside block
        # columns 2*floor(i/2) - 1 .. 2*floor(i/2) + 2
        blocks = n // d
        for i in range(blocks):
            lo, hi = 2 * (i // 2) - 1, 2 * (i // 2) + 2
            rows = slice(i * d, (i + 1) * d)
            for col in range(blocks):
                if not lo <= col <= hi:
                    assert np.abs(c[rows, col * d : (col + 1) * d]).max() <= 1e-14

        p_t = SchurParameters(d, tuple(a.T for a in p.alphas))
        chat = build(BlockOperatorSpec(p, "Chat", 12))
        assert np.abs(chat - build(BlockOperatorSpec(p_t, "C", 12)).T).max() <= 1e-12

        p_fin = random_parameters(d, 5, rng, terminal=True)
        h = build(BlockOperatorSpec(p_fin, "H", 6))
        assert np.linalg.norm(h @ h.conj().T - np.eye(h.shape[0])) <= 1e-10
        p_fin_t = SchurParameters(d, tuple(a.T for a in p_fin.alphas), p_fin.terminal.T)
        h_t = build(BlockOperatorSpec(p_fin_t, "H", 6)).T
        assert np.abs(h_t - build(BlockOperatorSpec(p_fin, "Hhat", 6))).max() <= 1e-12

        a = random_contraction(d, rng)
        assert np.abs(a @ rho_left(a) - rho_right(a) @ a).max() <= 1e-12

        f = synthesize(p, 2 * len(p) + 6)
        back = schur_forward(f, len(p))
        worst = max(np.abs(back.alpha(j) - p.alpha(j)).max() for j in range(len(p)))
        assert worst <= 1e-8

        g = synthesize(p, 12)
        assert coeff_distance(caratheodory_to_schur(schur_to_caratheodory(g)), g) <= 1e-10

        u = random_unitary(6 + seed % 5, rng)
        v = (0, 3)
        fv = schur_of_subspace(u, v, 10)
        cf = caratheodory_of_subspace(u, v, 11)
        one = MatrixPowerSeries.one(2, 11)
        pairing = (one - fv.shift()) * (cf + one)
        assert coeff_distance(pairing, 2.0 * one) <= 1e-10
    assert time.perf_counter() - t0 < 30.0
