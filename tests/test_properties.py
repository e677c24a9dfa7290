"""Property tests over randomized inputs.

Most strategies draw an integer seed and derive matrices from it, which
keeps hypothesis shrinking useful while staying in valid input space.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmvkit.cmv import BlockOperatorSpec, build, standard_overlap, theta
from cmvkit.linalg import is_unitary
from cmvkit.overlap import check_overlap, construct_overlap
from cmvkit.pathcount import oracle_first_return
from cmvkit.schur import (
    SchurParameters,
    inverse_iterate,
    inverse_iterate_series,
    iterate,
    iterate_series,
    mobius_step,
    random_parameters,
    random_unitary,
    rho_left,
    rho_right,
    schur_forward,
    synthesize,
)
from cmvkit.series import (
    CONTRACTIVITY_GRID,
    MatrixPowerSeries,
    caratheodory_to_schur,
    coeff_distance,
    schur_to_caratheodory,
)
from cmvkit.spectral import first_return_amplitudes, return_statistics

seeds = st.integers(min_value=0, max_value=2**32 - 1)
contractions = st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False)


@given(alpha=contractions)
def test_theta_is_always_unitary(alpha):
    chk = is_unitary(theta(np.array([[alpha]])))
    assert chk.ok, chk.residual


@given(alpha=contractions)
def test_defect_intertwining(alpha):
    a = np.array([[alpha]])
    assert np.abs(a @ rho_left(a) - rho_right(a) @ a).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=seeds, d=st.integers(1, 3))
def test_block_defect_intertwining(seed, d):
    rng = np.random.default_rng(seed)
    a = 0.95 * random_unitary(d, rng) * rng.uniform(0, 1)
    assert np.abs(a @ rho_left(a) - rho_right(a) @ a).max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=seeds, d=st.integers(1, 2), family=st.sampled_from(["C", "Chat"]))
def test_built_operators_are_unitary(seed, d, family):
    rng = np.random.default_rng(seed)
    p = random_parameters(d, 6, rng)
    chk = is_unitary(build(BlockOperatorSpec(p, family, 6)))
    assert chk.ok, chk.residual


@settings(max_examples=20, deadline=None)
@given(seed=seeds, family=st.sampled_from(["H", "Hhat"]))
def test_built_hessenberg_operators_are_unitary(seed, family):
    rng = np.random.default_rng(seed)
    p = random_parameters(2, 4, rng, terminal=True)
    chk = is_unitary(build(BlockOperatorSpec(p, family, 5)))
    assert chk.ok, chk.residual


@settings(max_examples=15, deadline=None)
@given(seed=seeds, d=st.integers(1, 2), length=st.integers(1, 6))
def test_parameter_round_trip(seed, d, length):
    rng = np.random.default_rng(seed)
    p = random_parameters(d, length, rng)
    back = schur_forward(synthesize(p, 2 * length + 6), length)
    worst = max(np.abs(back.alpha(j) - p.alpha(j)).max() for j in range(length))
    assert worst < 1e-8


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_mobius_step_value_matches_parameter(seed):
    rng = np.random.default_rng(seed)
    a = np.array([[0.9 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())]])
    f = synthesize(random_parameters(1, 3, rng), 8)
    assert np.abs(mobius_step(a, f).coeff(0) - a).max() < 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=seeds, d=st.integers(1, 2))
def test_cayley_round_trip(seed, d):
    rng = np.random.default_rng(seed)
    f = synthesize(random_parameters(d, 4, rng), 8)
    back = caratheodory_to_schur(schur_to_caratheodory(f))
    assert coeff_distance(back, f, order=7) < 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_caratheodory_has_positive_real_part_at_samples(seed):
    rng = np.random.default_rng(seed)
    f = synthesize(random_parameters(1, 4, rng), 24)
    cf = schur_to_caratheodory(f)
    for k in range(6):
        z = 0.4 * np.exp(2j * np.pi * k / 6)
        assert cf.evaluate(z)[0, 0].real > -1e-6


@settings(max_examples=12, deadline=None)
@given(seed=seeds, n=st.integers(2, 8))
def test_return_probabilities_are_subnormalized(seed, n):
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    st_out = return_statistics(u, (0,), [1.0], 20)
    assert all(p >= -1e-14 for p in st_out.probabilities)
    assert st_out.cumulative <= 1.0 + 1e-10


@settings(max_examples=10, deadline=None)
@given(seed=seeds, n=st.integers(3, 8), steps=st.integers(1, 4))
def test_path_enumeration_equals_operator_amplitudes(seed, n, steps):
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    v = (0, n - 1)
    ra = first_return_amplitudes(u, v, steps)
    assert np.abs(oracle_first_return(u, v, steps) - ra.amplitude(steps)).max() < 1e-10


@settings(max_examples=12, deadline=None)
@given(seed=seeds, nl=st.integers(1, 3), nc=st.integers(1, 3), nr=st.integers(1, 3))
def test_constructed_overlaps_always_reconstruct(seed, nl, nc, nr):
    rng = np.random.default_rng(seed)
    from cmvkit.linalg import direct_sum

    n = nl + nc + nr
    u = direct_sum(random_unitary(nl + nc, rng), np.eye(nr)) @ direct_sum(
        np.eye(nl), random_unitary(nc + nr, rng)
    )
    from cmvkit.overlap import SubspacePartition

    part = SubspacePartition(
        n, tuple(range(nl)), tuple(range(nl, nl + nc)), tuple(range(nl + nc, n))
    )
    assert check_overlap(u, part).ok
    fact = construct_overlap(u, part)
    assert fact.reconstruction_residual(u) < 1e-12


@settings(max_examples=10, deadline=None)
@given(seed=seeds, j=st.integers(1, 4))
def test_standard_overlap_passes_corner_test(seed, j):
    rng = np.random.default_rng(seed)
    p = random_parameters(1, 8, rng)
    spec = BlockOperatorSpec(p, "C", 8)
    u = build(spec)
    fact = standard_overlap(spec, j)
    assert check_overlap(u, fact.partition).ok
    assert fact.reconstruction_residual(u) < 1e-10


def _synthesize_stepping_every_parameter(p, order):
    """Reference backward recursion: seed with the terminal or with zero,
    then step through every parameter, whether or not the order reaches it."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(p) == 0 and p.terminal is None:
        raise ValueError("need at least one parameter or a terminal")
    if p.terminal is not None:
        f = MatrixPowerSeries.constant(p.terminal, order)
    else:
        f = MatrixPowerSeries.zero(p.block_dim, order)
    for j in range(len(p) - 1, -1, -1):
        f = mobius_step(p.alphas[j], f).truncate(order)
    return f.mark_schur()


def _parameters_of_norm(seed, d, length, top, terminal):
    """Random parameters, each scaled to operator norm ``top``."""
    rng = np.random.default_rng(seed)
    alphas = []
    for _ in range(length):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        alphas.append(g * (top / np.linalg.norm(g, 2)))
    return SchurParameters(d, tuple(alphas), random_unitary(d, rng) if terminal else None)


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    d=st.integers(1, 4),
    order=st.integers(0, 40),
    top=st.floats(0.0, 0.999),
    terminal=st.booleans(),
    data=st.data(),
)
def test_synthesize_matches_the_full_length_loop(seed, d, order, top, terminal, data):
    length = data.draw(st.one_of(st.integers(0, 45), st.integers(order, order + 2)))
    p = _parameters_of_norm(seed, d, length, top, terminal)
    try:
        want = _synthesize_stepping_every_parameter(p, order)
    except Exception as exc:
        with pytest.raises(type(exc)):
            synthesize(p, order)
        return
    assert np.array_equal(synthesize(p, order).coeffs, want.coeffs)


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    d=st.integers(1, 4),
    top=st.floats(0.0, 0.999),
    terminal=st.booleans(),
    data=st.data(),
)
def test_shared_series_match_fresh_synthesis_in_any_request_order(seed, d, top, terminal, data):
    length = data.draw(st.integers(0, 8), label="length")
    p = _parameters_of_norm(seed, d, length, top, terminal)
    orders = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=2), label="orders")
    sweep = data.draw(st.sampled_from(["ascending", "descending", "shuffled"]), label="sweep")
    js = list(range(length + 1))
    if sweep == "descending":
        js.reverse()
    elif sweep == "shuffled":
        js = data.draw(st.permutations(js), label="js")
    # the first two requests come again at the end: they must hit the memo;
    # requests for the whole series of p are interleaved with them
    for j in js + js[:2]:
        for order in orders:
            if data.draw(st.booleans(), label="whole series first"):
                try:
                    whole = synthesize(p, order)
                except ValueError:
                    with pytest.raises(ValueError):
                        iterate_series(p, 0, order)
                else:
                    assert whole is iterate_series(p, 0, order)
            for shared, parameters_of in ((iterate_series, iterate), (inverse_iterate_series, inverse_iterate)):
                try:
                    want = synthesize(parameters_of(p, j), order)
                except ValueError:
                    with pytest.raises(ValueError):
                        shared(p, j, order)
                    continue
                got = shared(p, j, order)
                assert np.array_equal(got.coeffs, want.coeffs), (shared.__name__, j, order)
                assert got.schur and shared(p, j, order) is got
                with pytest.raises(ValueError, match="read-only"):
                    got.coeffs[0, 0, 0] = 0.0


@settings(max_examples=100, deadline=None)
@given(seed=seeds, d=st.integers(1, 4), top=st.floats(0.0, 0.999))
def test_reflected_defects_are_read_off_the_parameter_bit_for_bit(seed, d, top):
    # an inverse-iterate step uses -a† with a's own defects swapped:
    # rho_L(-a†) = rho_R(a) and rho_R(-a†) = rho_L(a), to the last bit
    p = _parameters_of_norm(seed, d, 1, top, False)
    rl, rr, rl_inv, rr_inv = p.defects(0)
    b = -p.alpha(0).conj().T
    for got, want in ((rr, rho_left(b)), (rl, rho_right(b)),
                      (rr_inv, np.linalg.inv(rho_left(b))), (rl_inv, np.linalg.inv(rho_right(b)))):
        assert np.array_equal(got, want)
    reflected = inverse_iterate(p, 1)
    assert all(np.array_equal(x, y) for x, y in zip(reflected.defects(0), (rr, rl, rr_inv, rl_inv)))


@settings(max_examples=25, deadline=None)
@given(seed=seeds, d=st.integers(1, 4), order=st.integers(0, 64))
def test_grid_norms_match_pointwise_evaluation(seed, d, order):
    rng = np.random.default_rng(seed)
    f = synthesize(random_parameters(d, 5, rng, terminal=True), order)
    pointwise = max(np.linalg.norm(f.evaluate(z), 2) for z in CONTRACTIVITY_GRID)
    assert abs(f.max_disk_norm() - pointwise) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=seeds, d=st.integers(1, 2))
def test_synthesized_series_are_contractive_coefficientwise(seed, d):
    rng = np.random.default_rng(seed)
    f = synthesize(random_parameters(d, 5, rng), 10)
    for c in f.coeffs:
        assert np.linalg.norm(c, 2) <= 1.0 + 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_series_product_distributes(seed):
    rng = np.random.default_rng(seed)
    shape = (6, 2, 2)
    mk = lambda: MatrixPowerSeries(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    f, g, h = mk(), mk(), mk()
    assert coeff_distance((f + g) * h, f * h + g * h) < 1e-10


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_series_inverse_is_two_sided(seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    c[0] += 4 * np.eye(2)
    f = MatrixPowerSeries(c)
    one = MatrixPowerSeries.one(2, 4)
    assert coeff_distance(f * f.inverse(), one) < 1e-9
    assert coeff_distance(f.inverse() * f, one) < 1e-9


@settings(max_examples=8, deadline=None)
@given(seed=seeds, d=st.integers(1, 2))
def test_transpose_relation_between_families(seed, d):
    rng = np.random.default_rng(seed)
    p = random_parameters(d, 5, rng)
    pt = SchurParameters(d, tuple(a.T for a in p.alphas))
    chat = build(BlockOperatorSpec(p, "Chat", 5))
    c_t = build(BlockOperatorSpec(pt, "C", 5)).T
    assert np.abs(chat - c_t).max() < 1e-12
