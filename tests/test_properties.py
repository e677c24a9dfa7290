"""Property tests over randomized inputs.

Most strategies draw an integer seed and derive matrices from it, which
keeps hypothesis shrinking useful while staying in valid input space.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmvkit.cmv import (
    FAMILIES,
    BlockOperatorSpec,
    build,
    head_is_left,
    standard_overlap,
    theta,
    unitary_truncation,
)
from cmvkit.khrushchev import substitute_into_truncation
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
    parameters_from_json,
    random_contraction,
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
    convolve,
    direct_sum_series,
    schur_to_caratheodory,
)
from cmvkit.spectral import first_return_amplitudes, return_statistics
from helpers import direct_sum, draw_contraction, loop_inverse, loop_product, mark_schur_by_svd

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
    amps = first_return_amplitudes(u, v, steps)
    assert np.abs(oracle_first_return(u, v, steps) - amps).max() < 1e-10


@settings(max_examples=12, deadline=None)
@given(seed=seeds, nl=st.integers(1, 3), nc=st.integers(1, 3), nr=st.integers(1, 3))
def test_constructed_overlaps_always_reconstruct(seed, nl, nc, nr):
    rng = np.random.default_rng(seed)
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


def _inverse_product_step(alpha, f):
    """The backward step as one series inverse and one product,
    (1 + g a†)^(-1) (a + g) with g = z rho_R f rho_L^(-1)."""
    const = MatrixPowerSeries.constant
    g = (const(rho_right(alpha), f.order) * f * const(np.linalg.inv(rho_left(alpha)), f.order)).shift()
    return loop_inverse(1 + g * const(alpha.conj().T, g.order)) * (g + const(alpha, g.order))


def _synthesize_stepping_every_parameter(p, order):
    """Reference backward recursion: seed with the terminal or with zero,
    then take an inverse-product step through every parameter, whether or
    not the order reaches it."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(p) == 0 and p.terminal is None:
        raise ValueError("need at least one parameter or a terminal")
    if p.terminal is not None:
        f = MatrixPowerSeries.constant(p.terminal, order)
    else:
        f = MatrixPowerSeries.zero(p.block_dim, order)
    for j in range(len(p) - 1, -1, -1):
        f = _inverse_product_step(p.alphas[j], f).truncate(order)
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
    # the step loop's own rounding error grows near the unit sphere
    assert coeff_distance(synthesize(p, order), want) <= (1e-13 if top < 0.99 else 1e-11)


REFERENCE = json.loads((Path(__file__).parent / "data" / "schur_reference.json").read_text())


@pytest.mark.parametrize("case", REFERENCE["cases"], ids=lambda case: f"norm {case['norm']}")
def test_synthesize_is_as_close_to_a_40_digit_reference_as_the_step_loop(case):
    # tests/data/make_schur_reference.py wrote the fixture with mpmath
    order = REFERENCE["order"]
    p = parameters_from_json(case["parameters"])
    want = np.array([[complex(float(re), float(im)) for re, im in c] for c in case["reference"]])
    want = want.reshape(order + 1, p.block_dim, p.block_dim)
    got = np.abs(synthesize(p, order).coeffs - want).max()
    loop = np.abs(_synthesize_stepping_every_parameter(p, order).coeffs - want).max()
    # below 1e-15 both are a few rounding errors of coefficients of size 1
    assert got <= max(loop, 1e-15) and got <= 1e-13, (got, loop)


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
                assert shared(p, j, order) is got
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


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    d=st.integers(1, 4),
    length=st.integers(0, 40),
    top=st.floats(0.0, 1.0 - 1e-9),
    zero_at=st.integers(0, 40),
)
def test_stacked_defects_are_the_per_parameter_defects_bit_for_bit(seed, d, length, top, zero_at):
    # one batched pass over the set gives every parameter the bits of its
    # own roots and inverses, near the unit sphere and at an exact zero
    p = _parameters_of_norm(seed, d, length, top, False)
    if zero_at < length:
        alphas = list(p.alphas)
        alphas[zero_at] = np.zeros((d, d))
        p = SchurParameters(d, tuple(alphas))
    stacks = p.stacks()
    assert [m.shape for m in stacks] == [(length, d, d)] * 5
    assert not any(m.flags.writeable for m in stacks)
    for j, a in enumerate(p.alphas):
        rl, rr = rho_left(a), rho_right(a)
        want = (rl, rr, np.linalg.inv(rl), np.linalg.inv(rr))
        assert all(np.array_equal(m[j], w) for m, w in zip(stacks[1:], want)), j
        assert all(np.array_equal(x, w) for x, w in zip(p.defects(j), want)), j


@settings(max_examples=100, deadline=None)
@given(seed=seeds, d=st.integers(1, 4), length=st.integers(0, 40), terminal=st.booleans())
def test_random_parameters_are_the_per_draw_loop_bit_for_bit(seed, d, length, terminal):
    # the batched draw keeps the per-parameter order (real part, imaginary
    # part, radius) and then the terminal, so seeded sets keep their bits
    rng = np.random.default_rng(seed)
    p = random_parameters(d, length, rng, terminal)
    loop = np.random.default_rng(seed)
    want = [draw_contraction(d, loop) for _ in range(length)]
    assert len(p) == length
    assert all(np.array_equal(a, w) for a, w in zip(p.alphas, want))
    if terminal:
        assert np.array_equal(p.terminal, random_unitary(d, loop))
    else:
        assert p.terminal is None
    assert np.array_equal(random_contraction(d, rng), draw_contraction(d, loop))
    assert rng.bit_generator.state == loop.bit_generator.state


class _ZeroDraws:
    """Stand-in generator whose Gaussian draws are all exactly zero."""

    def standard_normal(self, shape, out=None):
        if out is None:
            return np.zeros(shape)
        out[...] = 0.0
        return out

    def random(self):
        return 0.5

    def uniform(self, low, high):
        return low + (high - low) * self.random()


def test_a_zero_draw_stays_zero():
    assert np.array_equal(random_contraction(3, _ZeroDraws()), draw_contraction(3, _ZeroDraws()))
    p = random_parameters(2, 4, _ZeroDraws())
    assert all(np.array_equal(a, np.zeros((2, 2))) for a in p.alphas)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, d=st.integers(1, 4), order=st.integers(0, 64))
def test_grid_norms_match_pointwise_evaluation(seed, d, order):
    rng = np.random.default_rng(seed)
    f = synthesize(random_parameters(d, 5, rng, terminal=True), order)
    horner = np.stack([f.evaluate(z) for z in CONTRACTIVITY_GRID])
    assert np.abs(f.values_at(CONTRACTIVITY_GRID) - horner).max() <= 1e-12


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


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, m=st.integers(1, 193), p=st.integers(1, 6), q=st.integers(1, 6),
       r=st.integers(1, 6))
def test_convolve_matches_the_loop_product(seed, m, p, q, r):
    rng = np.random.default_rng(seed)
    a, b = _complex_stack(rng, (m, p, q)), _complex_stack(rng, (m, q, r))
    got, want = convolve(a, b), loop_product(a, b)
    # the scale of every sum is the convolution of the magnitudes
    scale = loop_product(np.abs(a), np.abs(b)).real.max()
    assert got.shape == (m, p, r)
    assert np.abs(got - want).max() <= 1e-13 * scale


def _substitution_by_direct_sums(params, family, j, k, order):
    """The substitution as products of (k-j+1)d-wide direct-sum series,
    every series product by the loop reference."""
    d = params.block_dim
    n_blocks = len(params) + 1 if params.finite else k + 1
    trunc = unitary_truncation(BlockOperatorSpec(params, family, n_blocks), j, k)
    mid = MatrixPowerSeries.constant(trunc.conj().T, order)
    f_k = iterate_series(params, k, order)
    b_j = inverse_iterate_series(params, j, order)

    def one(n):
        return MatrixPowerSeries.one(n, order)

    def times(*factors):
        out = factors[0]
        for f in factors[1:]:
            out = MatrixPowerSeries(loop_product(out.coeffs, f.coeffs))
        return out

    w = (k - j) * d
    b_left, f_left = not head_is_left(family, j), head_is_left(family, k)
    if b_left == f_left:
        ends = direct_sum_series(b_j, one(w - d), f_k)
        return times(ends, mid) if b_left else times(mid, ends)
    b_end, f_end = direct_sum_series(b_j, one(w)), direct_sum_series(one(w), f_k)
    return times(b_end, mid, f_end) if b_left else times(f_end, mid, b_end)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, family=st.sampled_from(FAMILIES), d=st.integers(1, 3),
       length=st.integers(2, 5), order=st.integers(0, 16), terminal=st.booleans())
def test_substitution_matches_the_direct_sum_formula(seed, family, d, length, order, terminal):
    p = random_parameters(d, length, np.random.default_rng(seed), terminal=terminal)
    # without a terminal the last iterate is f_{len-1}
    last = length if terminal else length - 1
    sides = set()
    for k in range(1, last + 1):
        for j in range(k):
            got = substitute_into_truncation(p, family, j, k, order)
            want = _substitution_by_direct_sums(p, family, j, k, order)
            assert coeff_distance(got, want) <= 1e-13, (j, k)
            sides.add((not head_is_left(family, j), head_is_left(family, k)))
    if family in ("C", "Chat") and last >= 3:
        # (0, 1), (0, 2), (1, 2) and (1, 3) place b_j and f_k all four ways
        assert len(sides) == 4


def _outcome(check, f, tol):
    try:
        check(f, tol)
    except ValueError as exc:
        return str(exc)
    return "pass"


@settings(max_examples=150, deadline=None)
@given(seed=seeds, d=st.integers(1, 3), order=st.integers(0, 20),
       at=st.sampled_from(["coefficient", "grid"]), rank_one=st.booleans(),
       offset=st.floats(-1e-9, 1e-9), tol=st.sampled_from([1e-6, 0.0]))
def test_mark_schur_decides_as_the_svd_check(seed, d, order, at, rank_one, offset, tol):
    # series scaled to within 1e-9 of a limit, where the Frobenius
    # pre-screen cannot clear the largest member
    rng = np.random.default_rng(seed)
    decay = 0.8 ** np.arange(order + 1)
    if rank_one:
        c = np.einsum("n,i,j->nij", _complex_stack(rng, order + 1),
                      _complex_stack(rng, d), _complex_stack(rng, d).conj())
    else:
        c = _complex_stack(rng, (order + 1, d, d))
    c = c * decay[:, None, None]
    f = MatrixPowerSeries(c)
    if at == "coefficient":
        scale = (1.0 + tol) / np.linalg.norm(c, ord=2, axis=(1, 2)).max()
    else:
        radii = np.repeat((0.45, 0.9), 8)
        limits = 1.0 + tol + radii ** (order + 1) / (1.0 - radii)
        values = np.linalg.norm(f.values_at(CONTRACTIVITY_GRID), ord=2, axis=(1, 2))
        scale = (limits / values).min()
    f = MatrixPowerSeries(c * (scale * (1.0 + offset)))
    assert (_outcome(MatrixPowerSeries.mark_schur, f, tol)
            == _outcome(mark_schur_by_svd, f, tol))
