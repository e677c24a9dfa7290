"""Schur algorithm tests: parameter extraction, synthesis, iterates."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cmvkit import linalg, schur
from cmvkit.catalog import diffusion_center_schur, rational_series
from cmvkit.schur import (
    SchurParameters,
    binary_transform,
    inverse_iterate,
    inverse_iterate_series,
    iterate,
    iterate_series,
    mobius_step,
    parameters_from_json,
    parameters_to_json,
    random_parameters,
    random_unitary,
    rho_left,
    rho_right,
    schur_forward,
    synthesize,
)
from cmvkit.series import MatrixPowerSeries, coeff_distance
from helpers import (
    grid_max_norm,
    lost_terminal_series,
    loop_inverse,
    series_forward,
    stepwise_mobius_run,
)


def scalar_params(values, terminal=None):
    alphas = tuple(np.array([[v]], dtype=complex) for v in values)
    term = None if terminal is None else np.array([[terminal]], dtype=complex)
    return SchurParameters(1, alphas, term)


class TestParameterValidation:
    def test_rejects_non_contraction(self):
        with pytest.raises(ValueError, match="strict contraction"):
            scalar_params([1.0])

    def test_rejects_norm_one_rotation(self):
        with pytest.raises(ValueError):
            SchurParameters(2, (np.array([[0, 1], [-1, 0]], dtype=complex),))

    def test_rejects_non_unitary_terminal(self):
        with pytest.raises(ValueError, match="terminal"):
            scalar_params([0.5], terminal=0.5)

    def test_accepts_contraction_with_unitary_terminal(self):
        p = scalar_params([0.5, -0.25j], terminal=1j)
        assert len(p) == 2 and p.finite

    def test_several_bad_parameters_name_the_first(self):
        with pytest.raises(
            ValueError, match=r"^parameter 1 has norm 1\.500000000000; need a strict contraction$"
        ):
            scalar_params([0.5, 1.5, 0.2, 2.0, 1.0])

    def test_shape_is_checked_before_any_norm(self):
        # parameter 0 is no contraction, but parameter 2's shape is
        # refused first
        alphas = (2 * np.eye(2), np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"^parameter 2 is not 2x2$"):
            SchurParameters(2, alphas)

    @pytest.mark.parametrize("terminal", [None, 1j * np.eye(2)])
    def test_empty_sets_build(self, terminal):
        p = SchurParameters(2, (), terminal)
        assert len(p) == 0 and p._norms == ()
        assert [m.shape for m in p.stacks()] == [(0, 2, 2)] * 5
        if terminal is not None:
            assert np.array_equal(synthesize(p, 3).coeff(0), terminal)

    def test_random_parameters_reject_a_negative_length(self, rng):
        with pytest.raises(ValueError, match="'length' must be nonnegative, got -3"):
            random_parameters(1, -3, rng)
        assert len(random_parameters(1, 0, rng)) == 0

    @pytest.mark.parametrize("bad", [True, np.True_, 1.0, "1"])
    def test_block_dim_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="^block_dim must be an integer"):
            SchurParameters(bad, (np.array([[0.5]]),))

    @pytest.mark.parametrize("d", [1, np.int64(1), np.int32(1), np.uint8(1)])
    def test_every_accepted_block_dim_round_trips_through_json(self, d):
        p = SchurParameters(d, (np.array([[0.5]]),), np.array([[1j]]))
        assert type(p.block_dim) is int
        text = json.dumps(parameters_to_json(p))
        assert parameters_from_json(json.loads(text)) == p


class TestParameterEquality:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("terminal", [False, True])
    def test_equal_sets_compare_equal(self, d, terminal):
        p = random_parameters(d, 3, np.random.default_rng(1), terminal)
        q = random_parameters(d, 3, np.random.default_rng(1), terminal)
        assert p == q and not p != q
        assert SchurParameters(d, [a.tolist() for a in p.alphas], q.terminal) == p

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_ulp_or_a_missing_terminal_compares_unequal(self, d):
        p = random_parameters(d, 3, np.random.default_rng(1), terminal=True)
        stack = np.array(p.stacks()[0])
        stack[1, -1, 0] = np.nextafter(stack[1, -1, 0].real, 1.0) + 1j * stack[1, -1, 0].imag
        assert SchurParameters(d, stack, p.terminal) != p
        term = np.array(p.terminal)
        term[0, 0] = term[0, 0].real + 1j * np.nextafter(term[0, 0].imag, 2.0)
        assert SchurParameters(d, p.alphas, term) != p
        assert SchurParameters(d, p.alphas) != p and p != SchurParameters(d, p.alphas)
        assert SchurParameters(d, (), None) != SchurParameters(d + 1, (), None)
        assert p != parameters_to_json(p)

    def test_sets_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(random_parameters(2, 3, np.random.default_rng(1)))


class TestForward:
    def test_zero_series_gives_zero_parameters(self):
        p = schur_forward(MatrixPowerSeries.zero(1, 8), 5)
        assert len(p) == 5 and p.terminal is None
        assert all(abs(a[0, 0]) == 0.0 for a in p.alphas)

    def test_unimodular_constant_is_a_terminal(self):
        f = MatrixPowerSeries.constant([[1j]], 6)
        p = schur_forward(f, 6)
        assert len(p) == 0 and p.finite
        assert p.terminal[0, 0] == 1j

    def test_diffusion_center_leading_parameter(self):
        # the rational vanishes to f(0) = 1/6, which is the first parameter
        p = schur_forward(diffusion_center_schur(10), 1)
        assert abs(p.alpha(0)[0, 0] - 1.0 / 6.0) < 1e-12

    def test_rejects_too_many_steps(self):
        with pytest.raises(ValueError):
            schur_forward(MatrixPowerSeries.zero(1, 3), 4)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_rejects_steps_that_are_not_an_integer(self, bad):
        with pytest.raises(ValueError, match=f"^steps must be an integer, got {bad!r}$"):
            schur_forward(MatrixPowerSeries.zero(1, 3), bad)

    @pytest.mark.parametrize("coeff", [[[2.0]], [[1.0, 0.0], [0.0, 0.5]]])
    def test_rejects_a_coefficient_that_is_not_a_contraction_or_unitary(self, coeff):
        # a coefficient at the unit sphere is read as the terminal, which
        # must then be unitary
        with pytest.raises(ValueError, match="terminal is not unitary"):
            schur_forward(MatrixPowerSeries.constant(coeff, 3), 2)

    def test_a_terminal_lost_to_rounding_raises(self):
        # read as a 15th strict contraction, the terminal would be lost
        with pytest.raises(ArithmeticError, match=r"^Schur coefficient 14 .* cannot tell it from a terminal$"):
            schur_forward(lost_terminal_series(), 15)


class TestSynthesize:
    def test_terminal_only_is_constant(self):
        f = synthesize(scalar_params([], terminal=-1.0), 5)
        assert np.allclose(f.scalar_coeffs(), [-1, 0, 0, 0, 0, 0])

    def test_zero_parameter_with_unit_terminal_gives_z(self):
        f = synthesize(scalar_params([0.0], terminal=1.0), 5)
        assert np.abs(f.scalar_coeffs() - [0, 1, 0, 0, 0, 0]).max() < 1e-14

    def test_round_trip_scalar_rational(self):
        f = diffusion_center_schur(12)
        p = schur_forward(f, 6)
        assert coeff_distance(synthesize(p, 12).truncate(6), f) < 1e-10

    def test_round_trip_matrix_parameters(self, rng):
        p = random_parameters(2, 5, rng)
        f = synthesize(p, 16)
        back = schur_forward(f, 5)
        worst = max(
            np.abs(back.alpha(j) - p.alpha(j)).max() for j in range(5)
        )
        assert worst < 1e-9

    def test_needs_something_to_synthesize(self):
        with pytest.raises(ValueError):
            synthesize(SchurParameters(1, ()), 4)

    def test_low_order_truncation_overshoot_is_tolerated(self):
        # parameters near the contraction boundary give a function whose
        # order-8 truncation exceeds 1 on the outer sample ring; that is
        # truncation tail, not a contractivity failure, and synthesis
        # must not reject its own output
        p = random_parameters(1, 20, np.random.default_rng(4))
        f = synthesize(inverse_iterate(p, 1), 8)
        assert grid_max_norm(f) > 1.0


class TestIterates:
    def test_zeroth_iterate_is_identity(self, rng):
        p = random_parameters(2, 4, rng)
        q = iterate(p, 0)
        assert np.array_equal(q.stacks()[0], p.stacks()[0]) and q.terminal is None
        assert q == p

    def test_iterate_drops_leading_parameters(self):
        p = scalar_params([0.1, 0.2, 0.3])
        q = iterate(p, 2)
        assert len(q) == 1 and q.alpha(0)[0, 0] == pytest.approx(0.3)

    def test_iterate_matches_forward_recursion(self, rng):
        # peeling j parameters off the synthesized series must land on the
        # synthesized iterate
        p = random_parameters(1, 5, rng)
        f = synthesize(p, 14)
        peeled = schur_forward(f, 3)
        f3 = synthesize(iterate(p, 3), 10)
        # rebuild the remainder series after three forward steps
        g = f
        for j in range(3):
            g = _forward_step(g, p.alpha(j))
        assert coeff_distance(g.truncate(8), f3) < 1e-9

    def test_inverse_iterate_zero_is_constant_one(self):
        p = scalar_params([0.4, 0.2])
        b0 = synthesize(inverse_iterate(p, 0), 6)
        assert np.abs(b0.scalar_coeffs() - [1, 0, 0, 0, 0, 0, 0]).max() < 1e-14

    def test_first_inverse_iterate_is_elementary_blaschke(self):
        # b_1 = (z - a)/(1 - a z) for a single real parameter a
        a = 0.37
        p = scalar_params([a, 0.1])
        b1 = synthesize(inverse_iterate(p, 1), 10)
        want = rational_series((-a, 1.0), (1.0, -a), 10)
        assert coeff_distance(b1, want) < 1e-12

    def test_inverse_iterate_of_zero_sequence_is_monomial(self):
        p = scalar_params([0.0, 0.0, 0.0])
        b3 = synthesize(inverse_iterate(p, 3), 6)
        assert np.abs(b3.scalar_coeffs() - [0, 0, 0, 1, 0, 0, 0]).max() < 1e-14

    def test_inverse_iterate_reverses_and_negates(self, rng):
        p = random_parameters(2, 3, rng)
        b = inverse_iterate(p, 3)
        assert np.allclose(b.alpha(0), -p.alpha(2).conj().T)
        assert np.allclose(b.alpha(2), -p.alpha(0).conj().T)
        assert np.allclose(b.terminal, np.eye(2))


    def test_inverse_iterates_hand_on_the_identity_certificate(self, rng, monkeypatch):
        p = random_parameters(2, 5, rng, terminal=True)
        calls = []
        checked = linalg.is_unitary
        monkeypatch.setattr(linalg, "is_unitary", lambda *a, **kw: calls.append(a) or checked(*a, **kw))
        inverses = [inverse_iterate(p, j) for j in range(len(p) + 1)]
        assert not calls
        monkeypatch.undo()
        for j, q in enumerate(inverses):
            fresh = SchurParameters(2, -p._stack[:j][::-1].conj().swapaxes(1, 2), np.eye(2))
            assert q == fresh and np.array_equal(q.terminal, np.eye(2))
            assert q.terminal.dtype == fresh.terminal.dtype
            assert repr(q) == repr(fresh)
            assert parameters_to_json(q) == parameters_to_json(fresh)

    def test_iterates_hand_on_the_terminal_certificate(self, rng, monkeypatch):
        p = random_parameters(2, 5, rng, terminal=True)
        calls = []
        checked = linalg.is_unitary
        monkeypatch.setattr(linalg, "is_unitary", lambda *a, **kw: calls.append(a) or checked(*a, **kw))
        iterates = [iterate(p, j) for j in range(len(p) + 1)]
        assert not calls
        monkeypatch.undo()
        for j, q in enumerate(iterates):
            fresh = SchurParameters(2, p.alphas[j:], p.terminal)
            assert q == fresh and q.terminal is p.terminal
            assert repr(q) == repr(fresh)
            assert parameters_to_json(q) == parameters_to_json(fresh)


class TestParameterMemo:
    def test_memo_leaves_equality_repr_and_json_alone(self):
        p = scalar_params([0.3, -0.2j, 0.5], terminal=1j)
        fresh = scalar_params([0.3, -0.2j, 0.5], terminal=1j)
        before = (repr(p), parameters_to_json(p))
        p.stacks()
        iterate_series(p, 1, 6)
        inverse_iterate_series(p, 2, 6)
        assert p._defects and p._series
        assert p == fresh
        assert (repr(p), parameters_to_json(p)) == before

    def test_defects_are_the_public_defect_matrices(self, rng):
        p = random_parameters(3, 4, rng)
        rl, rr, rl_inv, rr_inv = (m[2] for m in p.stacks()[1:])
        assert np.array_equal(rl, rho_left(p.alpha(2)))
        assert np.array_equal(rr, rho_right(p.alpha(2)))
        assert np.array_equal(rl_inv, np.linalg.inv(rl))
        assert np.array_equal(rr_inv, np.linalg.inv(rr))

    def test_caller_arrays_are_copied_read_only(self):
        a = np.array([[0.5]], dtype=np.complex128)
        t = np.array([[1.0]], dtype=np.complex128)
        p = SchurParameters(1, (a, 0.2 * a), terminal=t)
        series = iterate_series(p, 0, 4)
        a[0, 0] = 0.99999999999
        t[0, 0] = 1j
        assert p.alpha(0)[0, 0] == 0.5 and p.alpha(1)[0, 0] == 0.1
        assert p.terminal[0, 0] == 1.0
        fresh = scalar_params([0.5, 0.1], terminal=1.0)
        assert np.array_equal(series.coeffs, iterate_series(fresh, 0, 4).coeffs)
        for m in (p.alpha(0), p.terminal):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.0
        # a set built from another set's parameters copies them
        q = iterate(p, 1)
        assert np.array_equal(q.alpha(0), p.alpha(1))
        assert not np.shares_memory(q.stacks()[0], p.stacks()[0])

    @pytest.mark.parametrize("d, length", [(1, 1), (2, 6), (3, 4)])
    def test_every_iterate_and_inverse_iterate_takes_two_roots_per_parameter(
        self, d, length, rng, monkeypatch
    ):
        # every parameter's two roots are taken once, in one batched root
        # of both sides over the whole set, and never again
        p = random_parameters(d, length, rng, terminal=True)
        calls = []
        original = schur.hermitian_psd_sqrt

        def counting(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(schur, "hermitian_psd_sqrt", counting)
        iterate_series(p, 0, 7)
        assert calls == [(2 * length, d, d)]
        for j in range(length + 1):
            iterate_series(p, j, 7)
            inverse_iterate_series(p, j, 7)
            [m[j % length] for m in p.stacks()[1:]]
        assert calls == [(2 * length, d, d)]

    def test_shared_series_reject_out_of_range_indices(self):
        p = scalar_params([0.3, 0.2])
        for fn in (iterate_series, inverse_iterate_series):
            with pytest.raises(ValueError):
                fn(p, 3, 4)
            with pytest.raises(ValueError):
                fn(p, -1, 4)
            with pytest.raises(ValueError):
                fn(p, 0, -1)
        with pytest.raises(ValueError, match="terminal"):
            iterate_series(p, 2, 4)


def _forward_step(f, alpha):
    """One forward Schur step, written out locally as an oracle."""
    const = MatrixPowerSeries.constant
    num = f - const(alpha, f.order)
    den = loop_inverse(1 - const(alpha.conj().T, f.order) * f)
    g = num * den
    head = float(np.abs(g.coeff(0)).max())
    assert head <= 1e-8, f"the quotient does not vanish at 0: {head:.3e}"
    g = MatrixPowerSeries(g.coeffs[1:])
    return const(np.linalg.inv(rho_right(alpha)), g.order) * g * const(rho_left(alpha), g.order)


class TestMobiusStep:
    def test_zero_parameter_multiplies_by_z(self, rng):
        f = MatrixPowerSeries(0.3 * rng.standard_normal((6, 2, 2)))
        out = mobius_step(np.zeros((2, 2)), f)
        assert coeff_distance(out.truncate(6), f.shift()) < 1e-12

    def test_value_at_origin_is_the_parameter(self, rng):
        a = 0.3 * rng.standard_normal((2, 2))
        out = mobius_step(a, MatrixPowerSeries.one(2, 5))
        assert np.abs(out.coeff(0) - a).max() < 1e-12

    def test_forward_step_inverts_it(self, rng):
        a = np.array([[0.2 + 0.1j]])
        f = MatrixPowerSeries(0.4 * rng.standard_normal((8, 1, 1)))
        back = _forward_step(mobius_step(a, f), a)
        assert coeff_distance(back.truncate(7), f) < 1e-10

    def test_rejects_unitary_parameter(self):
        with pytest.raises(ValueError):
            mobius_step(np.array([[1.0]]), MatrixPowerSeries.zero(1, 4))
        with pytest.raises(ValueError):
            mobius_step([np.zeros((1, 1)), np.array([[1.0]])], MatrixPowerSeries.zero(1, 4))

    def test_rejects_a_negative_order(self):
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            mobius_step(np.array([[0.3]]), MatrixPowerSeries.zero(1, 4), order=-1)
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            mobius_step([np.array([[0.3]])] * 2, MatrixPowerSeries.zero(1, 4), order=-2)

    @pytest.mark.parametrize("top", [0.3, 0.95])
    def test_a_run_is_its_single_steps_in_turn(self, rng, top):
        # at norm 0.95 the growth bound divides the run every three steps
        alphas = []
        for _ in range(7):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            alphas.append(g * (top / np.linalg.norm(g, 2)))
        p = SchurParameters(2, tuple(alphas))
        f = synthesize(random_parameters(2, 3, rng), 5)
        want = f
        for a in reversed(p.alphas):
            want = mobius_step(a, want)
        got = mobius_step(p.alphas, f)
        assert got.order == want.order == 12
        assert coeff_distance(got, want) < 1e-13
        validated = mobius_step(p.alphas, f, p.stacks()[1:], p._norms)
        assert np.array_equal(validated.coeffs, got.coeffs)
        assert mobius_step(p.alphas, f, order=3).order == 3
        with pytest.raises(ValueError, match="determines coefficients 0..12"):
            mobius_step(p.alphas, f, order=13)


class TestEmptyRun:
    """A run of no parameters returns its seed, the quotient its packed
    fraction [1 | f] would divide out, without dividing."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [0, 1, 12, 64])
    def test_seed_is_the_divided_fraction_bit_for_bit(self, rng, d, order):
        seeds = [MatrixPowerSeries.constant(random_unitary(d, rng), order), MatrixPowerSeries.one(d, order),
                 MatrixPowerSeries.zero(d, order), synthesize(random_parameters(d, 3, rng), order)]
        for f in seeds:
            divided = schur._quotient(schur._fraction(f.coeffs, order, d), d)
            got = mobius_step(np.empty((0, d, d)), f)
            # bytes also tell 0.0 from -0.0
            assert got.coeffs.tobytes() == divided.tobytes() == f.coeffs.tobytes()
            assert not np.shares_memory(got.coeffs, f.coeffs)
            assert mobius_step(np.empty((0, d, d)), f, order=order // 2).coeffs.tobytes() == \
                f.coeffs[: order // 2 + 1].tobytes()
        with pytest.raises(ValueError, match="determines coefficients 0..%d" % order):
            mobius_step(np.empty((0, d, d)), f, order=order + 1)

    @pytest.mark.parametrize("d, length", [(1, 0), (1, 4), (2, 3), (3, 6)])
    def test_terminal_iterates_make_no_division(self, rng, monkeypatch, d, length):
        p = random_parameters(d, length, rng, terminal=True)
        divisions, marks = [], []
        divide, mark = schur.left_divide, MatrixPowerSeries.mark_schur
        monkeypatch.setattr(schur, "left_divide", lambda *a: divisions.append(a) or divide(*a))
        monkeypatch.setattr(MatrixPowerSeries, "mark_schur", lambda f: marks.append(f) or mark(f))
        for order in (0, 12, 64):
            b_0, f_n = inverse_iterate_series(p, 0, order), iterate_series(p, length, order)
            assert np.array_equal(b_0.coeffs, MatrixPowerSeries.one(d, order).coeffs)
            assert np.array_equal(f_n.coeffs, MatrixPowerSeries.constant(p.terminal, order).coeffs)
            assert marks[-2:] == [b_0, f_n]
        assert divisions == []
        iterate_series(p, 0, 12)
        assert bool(divisions) == (length > 0)


class TestPackedRun:
    """The packed run [D | N] of mobius_step against the stepwise
    broadcast reference, divisions included."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        length=st.integers(0, 14),
        top=st.sampled_from([0.3, 0.9, 0.99, 0.999]),
        order=st.integers(0, 64),
        terminal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_run_matches_the_stepwise_reference(self, d, length, top, order, terminal, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((length, d, d)) + 1j * rng.standard_normal((length, d, d))
        # norms spread over [0, top], the largest exactly top: near 0.999
        # the growth bound divides the fraction every step or two
        norms = top * rng.uniform(0.0, 1.0, length)
        if length:
            norms[rng.integers(length)] = top
        p = SchurParameters(d, g * (norms / np.linalg.norm(g, 2, axis=(1, 2)))[:, None, None])
        if terminal:
            f = MatrixPowerSeries.constant(random_unitary(d, rng), order)
        else:
            f = synthesize(random_parameters(d, 3, rng), order)
        args = (p.stacks()[0], f, p.stacks()[1:], p._norms, order)
        got, want = mobius_step(*args), stepwise_mobius_run(*args)
        assert got.order == want.order == order
        scale = max(1.0, float(np.abs(want.coeffs).max()))
        assert coeff_distance(got, want) <= 1e-12 * scale


def _run_reference(q, seed):
    """The per-iterate run: synthesize(q, seed.order) as one mobius_step
    over every parameter of q, from the given seed."""
    return mobius_step(q.stacks()[0], seed, q.stacks()[1:], q._norms, seed.order)


class TestOneRun:
    """A set of n <= order + 1 parameters synthesizes every f_m and b_j of
    one kind and order from one backward run and one stacked quotient."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        length=st.integers(0, 14),
        top=st.sampled_from([0.3, 0.9, 0.99, 0.999]),
        extra=st.integers(0, 50),
        terminal=st.booleans(),
        sense=st.sampled_from(["ascending", "descending", "shuffled"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_iterate_is_its_own_run_bit_for_bit(self, d, length, top, extra, terminal, sense, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((length, d, d)) + 1j * rng.standard_normal((length, d, d))
        norms = top * rng.uniform(0.0, 1.0, length)
        if length:
            norms[rng.integers(length)] = top
        term = random_unitary(d, rng) if terminal else None
        p = SchurParameters(d, g * (norms / np.linalg.norm(g, 2, axis=(1, 2)))[:, None, None], term)
        order = max(0, length - 1) + extra
        requests = [(kind, j) for j in range(length + 1) for kind in "fb" if terminal or kind == "b" or j < length]
        if sense == "descending":
            requests.reverse()
        elif sense == "shuffled":
            rng.shuffle(requests)
        for kind, j in requests:
            if kind == "f":
                got = iterate_series(p, j, order)
                q = iterate(p, j)
                seed_series = MatrixPowerSeries.constant(term, order) if terminal else MatrixPowerSeries.zero(d, order)
            else:
                got = inverse_iterate_series(p, j, order)
                q = inverse_iterate(p, j)
                seed_series = MatrixPowerSeries.one(d, order)
            # bytes also tell 0.0 from -0.0
            assert got.coeffs.tobytes() == _run_reference(q, seed_series).coeffs.tobytes(), (kind, j)

    @pytest.mark.parametrize("d, length, terminal", [(1, 1, True), (1, 6, False), (2, 5, True), (3, 13, True)])
    def test_one_stacked_division_per_kind_and_order(self, rng, monkeypatch, d, length, terminal):
        # norms at most 0.3 keep the product of kappas under GROWTH_BOUND
        # over 13 steps, so no run divides early
        p = SchurParameters(d, 0.3 * random_parameters(d, length, rng)._stack / 0.9,
                            random_unitary(d, rng) if terminal else None)
        divisions = []
        divide = schur.left_divide
        monkeypatch.setattr(schur, "left_divide", lambda *a: divisions.append(a[0].shape) or divide(*a))
        for order in (12, 64):
            for j in range(length + 1):
                if terminal or j < length:
                    iterate_series(p, j, order)
                inverse_iterate_series(p, j, order)
        assert divisions == [(length, 13, d, d)] * 2 + [(length, 65, d, d)] * 2

    def test_each_handed_out_iterate_is_marked_once(self, rng, monkeypatch):
        p = random_parameters(2, 6, rng, terminal=True)
        marks = []
        mark = MatrixPowerSeries.mark_schur
        monkeypatch.setattr(MatrixPowerSeries, "mark_schur", lambda f: marks.append(f) or mark(f))
        asked = [iterate_series(p, 2, 12), inverse_iterate_series(p, 4, 12), iterate_series(p, 0, 12)]
        assert [iterate_series(p, 2, 12), inverse_iterate_series(p, 4, 12), iterate_series(p, 0, 12)] == asked
        # the run made all six of each kind it was asked for; three were handed out
        assert marks == asked
        assert [len(p._runs[key]) for key in (("f", 12), ("b", 12))] == [6, 6]

    def test_a_long_set_keeps_one_run_per_iterate(self, rng, monkeypatch):
        p = random_parameters(2, 14, rng, terminal=True)
        divisions = []
        divide = schur.left_divide
        monkeypatch.setattr(schur, "left_divide", lambda *a: divisions.append(a[0].shape) or divide(*a))
        for j in range(15):
            iterate_series(p, j, 12)
        assert not p._runs
        assert all(len(shape) == 3 for shape in divisions) and len(divisions) >= 14


def _recovered(p):
    """The parameters of a set followed by its terminal, if it has one."""
    return p.alphas + ((p.terminal,) if p.finite else ())


class TestPackedForward:
    """schur_forward's packed fraction [D; N] against the truth and the
    series-algebra reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 4),
        length=st.integers(0, 12),
        terminal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # terminals read just off the unit sphere (residuals 1.2e-10 and
    # 4.6e-10, above UNITARY_TOL and within the forward error)
    @example(d=1, length=12, terminal=True, seed=113)
    @example(d=1, length=12, terminal=True, seed=315)
    def test_recovers_every_parameter(self, d, length, terminal, seed):
        assume(length or terminal)
        p = random_parameters(d, length, np.random.default_rng(seed), terminal)
        f = synthesize(p, 64)
        steps = length + terminal
        got, ref = schur_forward(f, steps), series_forward(f, steps)
        # the error grows with the condition of the defects
        bound = 1e3 * np.finfo(float).eps / np.prod(1.0 - np.square(p._norms))
        for back in (got, ref):
            assert len(back) == length and back.finite == terminal
        for ours, theirs, want in zip(_recovered(got), _recovered(ref), _recovered(p)):
            assert np.abs(ours - want).max() <= bound
            assert np.abs(ours - theirs).max() <= bound


class TestTerminalReadBack:
    """schur_forward reads a terminal to within the forward error, as it
    reads every parameter: over the seeded grid of terminal sets (seeds
    0-399, d 1-2, lengths 8, 12, 16 and 20), where 121 of 3200 terminals
    come back off the unit sphere by more than UNITARY_TOL, none raises."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 2), length=st.sampled_from([8, 12, 16, 20]), seed=st.integers(0, 399))
    # terminals read with residuals 1.45e-9 and 2.85e-10
    @example(d=1, length=20, seed=1)
    @example(d=2, length=20, seed=32)
    def test_the_terminal_grid_reads_back_within_the_bound(self, d, length, seed):
        p = random_parameters(d, length, np.random.default_rng(seed), terminal=True)
        back = schur_forward(synthesize(p, 64), 64)
        bound = 1e3 * np.finfo(float).eps / np.prod(1.0 - np.square(p._norms))
        assert len(back) == length and back.finite
        for ours, want in zip(_recovered(back), _recovered(p)):
            assert np.abs(ours - want).max() <= bound

    def test_a_terminal_within_the_error_is_its_polar_factor(self, monkeypatch):
        checked = []
        original = schur.is_unitary
        monkeypatch.setattr(schur, "is_unitary", lambda m: checked.append(m.copy()) or original(m))
        p = random_parameters(1, 12, np.random.default_rng(113), terminal=True)
        back = schur_forward(synthesize(p, 64), 13)
        # the coefficient read as the terminal is off the unit sphere by
        # more than UNITARY_TOL; its polar factor, checked once, is kept
        read, polar = checked
        assert original(read).residual > linalg.UNITARY_TOL
        u, _, vh = np.linalg.svd(read)
        assert np.array_equal(polar, u @ vh) and np.array_equal(back.terminal, polar)
        assert back._certificate.residual == original(polar).residual <= 1e-15


class TestBinaryTransform:
    def test_zero_weights_give_z_g_h(self, rng):
        g = synthesize(random_parameters(1, 5, rng), 7)
        h = synthesize(random_parameters(1, 5, rng), 7)
        out = binary_transform(0.0, 0.0, g, h)
        assert coeff_distance(out, (g * h).shift()) < 1e-12

    def test_reduces_to_single_step_when_first_slot_is_one(self, rng):
        a = 0.35 - 0.2j
        f = synthesize(random_parameters(1, 5, rng), 8)
        one = MatrixPowerSeries.one(1, 8)
        got = binary_transform(a, 0.0, one, f)
        want = mobius_step(np.array([[a]]), f)
        assert coeff_distance(got, want) < 1e-12

    def test_output_is_contractive_on_samples(self, rng):
        g = synthesize(random_parameters(1, 4, rng), 12)
        h = synthesize(random_parameters(1, 4, rng), 12)
        out = binary_transform(0.3, 0.6j, g, h)
        assert grid_max_norm(out) <= 1.0 + 1e-6

    def test_inputs_of_unequal_order_give_the_shorter_order(self, rng):
        g = synthesize(random_parameters(1, 5, rng), 9)
        h = synthesize(random_parameters(1, 5, rng), 6)
        for first, second in ((g, h), (h, g)):
            out = binary_transform(0.3, 0.6j, first, second)
            want = binary_transform(0.3, 0.6j, first.truncate(6), second.truncate(6))
            assert out.order == 6 and np.array_equal(out.coeffs, want.coeffs)

    def test_rejects_overweight_pair(self):
        one = MatrixPowerSeries.one(1, 4)
        with pytest.raises(ValueError):
            binary_transform(0.8, 0.4, one, one)

    def test_rejects_matrix_series(self):
        one = MatrixPowerSeries.one(2, 4)
        with pytest.raises(ValueError):
            binary_transform(0.1, 0.1, one, one)


class TestRoundTripProperty:
    @pytest.mark.parametrize("d,length", [(1, 8), (2, 6), (3, 4)])
    def test_forward_backward_round_trip(self, d, length):
        rng = np.random.default_rng(100 + 10 * d + length)
        p = random_parameters(d, length, rng)
        f = synthesize(p, 16)
        back = schur_forward(f, length)
        worst = max(
            np.abs(back.alpha(j) - p.alpha(j)).max() for j in range(length)
        )
        assert worst < 1e-8
