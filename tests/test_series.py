"""Truncated matrix power series: arithmetic, transforms, CSV format."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmvkit.catalog import diffusion_center_schur, rational_series
from cmvkit.series import (
    MatrixPowerSeries,
    caratheodory_to_schur,
    coeff_distance,
    convolve,
    left_divide,
    schur_to_caratheodory,
)
from helpers import direct_sum_series, loop_inverse


def scalar(values):
    return MatrixPowerSeries(values)


class TestArithmetic:
    def test_one_is_multiplicative_identity(self, rng):
        f = MatrixPowerSeries(rng.standard_normal((7, 2, 2)))
        one = MatrixPowerSeries.one(2, 6)
        assert coeff_distance(one * f, f) == 0.0
        assert coeff_distance(f * one, f) == 0.0

    def test_z_times_z(self):
        z = scalar([0.0, 1.0, 0.0])
        zz = z * z
        assert np.allclose(zz.scalar_coeffs(), [0.0, 0.0, 1.0])

    def test_product_matches_polynomial_convolution(self, rng):
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        got = (scalar(a) * scalar(b)).scalar_coeffs()
        want = np.polymul(a[::-1], b[::-1])[::-1][:8]
        assert np.abs(got - want).max() < 1e-12

    def test_matrix_product_is_noncommutative(self, rng):
        f = MatrixPowerSeries(rng.standard_normal((4, 2, 2)))
        g = MatrixPowerSeries(rng.standard_normal((4, 2, 2)))
        assert coeff_distance(f * g, g * f) > 1e-8

    def test_scalar_promotion(self):
        f = scalar([1.0, 2.0])
        assert np.allclose((2 * f).scalar_coeffs(), [2.0, 4.0])
        assert np.allclose((f + 1).scalar_coeffs(), [2.0, 2.0])
        assert np.allclose((1 - f).scalar_coeffs(), [0.0, -2.0])

    def test_truncation_to_shorter_factor(self):
        f = scalar([1.0, 1.0, 1.0, 1.0])
        g = scalar([1.0, 1.0])
        assert (f * g).order == 1

    def test_constant_factor_products_equal_convolve(self, rng):
        # a constant factor is one GEMM with the other factor's coefficients
        # side by side: within rounding of the convolution, exact with an
        # identity or zero constant
        for d in range(1, 5):
            for order in range(65):
                f = MatrixPowerSeries(rng.standard_normal((order + 1, d, d))
                                      + 1j * rng.standard_normal((order + 1, d, d)))
                c = MatrixPowerSeries.constant(rng.standard_normal((d, d)) - 1j, order + order % 3)
                for left, right in ((f, c), (c, f), (c, c)):
                    n = min(left.order, right.order)
                    got = (left * right).coeffs
                    want = convolve(left.coeffs[: n + 1], right.coeffs[: n + 1])
                    assert got.flags.c_contiguous and np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
                one, zero = MatrixPowerSeries.one(d, order + 1), MatrixPowerSeries.zero(d, order)
                # bytes also tell 0.0 from -0.0
                for left, right, want in ((f, one, f.coeffs), (one, f, f.coeffs), (f, zero, zero.coeffs),
                                          (zero, f, zero.coeffs), (zero, zero, zero.coeffs)):
                    got = (left * right).coeffs
                    assert got.tobytes() == (want + 0.0).tobytes(), (d, order)


class TestInverse:
    def test_constant(self):
        inv = MatrixPowerSeries.constant(2 * np.eye(1), 4).inverse()
        assert np.allclose(inv.scalar_coeffs(), [0.5, 0, 0, 0, 0])

    def test_geometric(self):
        # 1/(1 - z) = 1 + z + z^2 + ...
        inv = scalar([1.0, -1.0, 0.0, 0.0, 0.0]).inverse()
        assert np.allclose(inv.scalar_coeffs(), np.ones(5))

    def test_round_trip(self, rng):
        c = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        c[0] += 4 * np.eye(3)  # keep the constant term well conditioned
        f = MatrixPowerSeries(c)
        assert coeff_distance(f * f.inverse(), MatrixPowerSeries.one(3, 5)) < 1e-10

    def test_requires_invertible_constant_term(self):
        with pytest.raises(ValueError):
            scalar([0.0, 1.0]).inverse()

    def test_requires_invertible_matrix_constant_term(self):
        c = np.zeros((3, 2, 2), dtype=complex)
        c[0] = [[1.0, 2.0], [2.0, 4.0]]  # exactly singular
        c[1] = np.eye(2)
        den = MatrixPowerSeries(c)
        # inverse(), / and the kernel itself raise the one message
        for divide in (den.inverse, lambda: MatrixPowerSeries.one(2, 2) / den,
                       lambda: left_divide(den.coeffs, den.coeffs)):
            with pytest.raises(ValueError) as err:
                divide()
            assert str(err.value) == "constant term is singular; series has no inverse"


class TestDivision:
    """Every quotient runs through series.left_divide; loop_inverse times a
    product is the independent reference."""

    @staticmethod
    def _pair(rng, d, order):
        def draw():
            return (rng.standard_normal((order + 1, d, d))
                    + 1j * rng.standard_normal((order + 1, d, d)))
        den = 0.3 * draw()
        den[0] += 3 * np.eye(d)  # keep the constant term well conditioned
        return MatrixPowerSeries(draw()), MatrixPowerSeries(den)

    def test_quotients_match_the_inverse_product_reference(self, rng):
        for d in range(1, 5):
            for order in range(65):
                num, den = self._pair(rng, d, order)
                inv = loop_inverse(den)
                scale = 1.0 + np.abs(inv.coeffs).max() * (1.0 + np.abs(num.coeffs).max())
                for got, want in (
                    (den.inverse(), inv),
                    (num / den, num * inv),
                    (MatrixPowerSeries(left_divide(den.coeffs, num.coeffs)), inv * num),
                ):
                    assert got.order == order
                    assert coeff_distance(got, want) <= 1e-12 * scale, (d, order)

    def test_slash_is_the_right_quotient(self, rng):
        for d in range(2, 5):
            num, den = self._pair(rng, d, 12)
            inv = loop_inverse(den)
            got = num / den
            assert coeff_distance(got, num * inv) < 1e-10
            assert coeff_distance(got, inv * num) > 1e-3
            assert coeff_distance(got * den, num) < 1e-10

    def test_slash_truncates_to_the_shorter_order(self, rng):
        num, den = self._pair(rng, 2, 9)
        assert (num / den.truncate(4)).order == 4
        assert (num.truncate(3) / den).order == 3
        with pytest.raises(ValueError, match="block dimension"):
            num / MatrixPowerSeries.one(3, 9)

    def test_slash_takes_a_series_only(self):
        f = scalar([1.0, 2.0])
        for bad in (2, 2.0, np.eye(1)):
            with pytest.raises(TypeError):
                f / bad
        with pytest.raises(TypeError):
            2 / f


class TestStackedDivision:
    """left_divide on a (members, n+1, d, d) stack: one causal loop for
    every member, each member's quotient the bits of its own call."""

    @settings(max_examples=60, deadline=None)
    @given(
        members=st.integers(1, 8),
        d=st.integers(1, 4),
        length=st.integers(1, 65),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_member_is_its_own_quotient_bit_for_bit(self, members, d, length, seed):
        rng = np.random.default_rng(seed)
        shape = (members, length, d, d)
        den = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        den[:, 0] += 3 * np.eye(d)
        num = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = left_divide(den, num)
        assert got.shape == shape and got.flags.c_contiguous
        for member in range(members):
            # bytes also tell 0.0 from -0.0
            assert got[member].tobytes() == left_divide(den[member], num[member]).tobytes()

    @pytest.mark.parametrize("members, singular", [(1, 0), (3, 0), (3, 2), (8, 5)])
    def test_a_singular_member_raises(self, rng, members, singular):
        den = rng.standard_normal((members, 5, 2, 2)) + 0j
        den[:, 0] += 3 * np.eye(2)
        den[singular, 0] = [[1.0, 2.0], [2.0, 4.0]]  # exactly singular
        with pytest.raises(ValueError, match="constant term is singular"):
            left_divide(den, den)

    def test_a_single_quotient_keeps_its_shape(self, rng):
        den = rng.standard_normal((7, 3, 3)) + 3 * np.eye(3)
        got = left_divide(den, den[::-1])
        assert got.shape == (7, 3, 3) and got.flags.c_contiguous
        assert got.tobytes() == left_divide(den[None], den[None, ::-1])[0].tobytes()


class TestTransforms:
    def test_shift_unshift_round_trip(self, rng):
        f = MatrixPowerSeries(rng.standard_normal((4, 2, 2)))
        shifted = f.shift().shift()
        assert shifted.order == f.order + 2 and not shifted.coeffs[:2].any()
        assert np.array_equal(shifted.coeffs[2:], f.coeffs)

    def test_evaluate_at_zero_gives_constant_term(self, rng):
        f = MatrixPowerSeries(rng.standard_normal((5, 2, 2)))
        assert np.array_equal(f.evaluate(0.0), f.coeff(0))

    def test_diffusion_center_vanishes_at_half(self):
        # (2z-1)(3z-1)/((2-z)(3-z)) has a zero at z = 1/2; the truncation
        # tail at order 30 is far below the tolerance
        f = diffusion_center_schur(30)
        assert abs(f.evaluate(0.5)[0, 0]) < 1e-12

    def test_mark_schur_accepts_contraction(self):
        f = scalar([0.3, 0.2])
        assert f.mark_schur() is f

    def test_mark_schur_rejects_expansion(self):
        with pytest.raises(ValueError):
            scalar([2.0]).mark_schur()

    def test_mark_schur_rejects_geometric_growth(self):
        # truncation of 1/(1-z): every coefficient passes the norm bound,
        # but the inner sample ring exceeds 1 beyond any truncation tail
        with pytest.raises(ValueError, match="not contractive"):
            scalar(np.ones(9)).mark_schur()

    def test_mark_schur_names_the_outer_ring(self):
        # 0.6 + 0.6 z stays below 0.87 on |z| = 0.45 but reaches 1.14 on
        # |z| = 0.9, above the order-64 tail allowance 0.9^65 / 0.1 ~ 0.01
        f = scalar(np.r_[0.6, 0.6, np.zeros(63)])
        with pytest.raises(ValueError, match=r"not contractive .*\(1\.140000 at \|z\| = 0\.9\)"):
            f.mark_schur()



class TestCayleyPair:
    def test_schur_caratheodory_round_trip(self, rng):
        d = 2
        c = 0.3 * (rng.standard_normal((7, d, d)) + 1j * rng.standard_normal((7, d, d)))
        f = MatrixPowerSeries(c)
        back = caratheodory_to_schur(schur_to_caratheodory(f))
        assert coeff_distance(f.truncate(6), back) < 1e-10

    def test_caratheodory_normalization(self, rng):
        f = MatrixPowerSeries(0.4 * rng.standard_normal((5, 2, 2)))
        big = schur_to_caratheodory(f)
        assert np.abs(big.coeff(0) - np.eye(2)).max() < 1e-14

    def test_defining_identity(self, rng):
        # (1 - z f) (F + 1) = 2 as truncated series
        f = MatrixPowerSeries(0.4 * rng.standard_normal((6, 2, 2)))
        big = schur_to_caratheodory(f)
        one = MatrixPowerSeries.one(2, big.order)
        lhs = (one - f.shift()) * (big + one)
        assert coeff_distance(lhs, 2 * one) < 1e-12

    def test_recovery_needs_unit_constant_term(self):
        with pytest.raises(ValueError):
            caratheodory_to_schur(scalar([0.5, 1.0]))


class TestAssembly:
    def test_direct_sum_blocks(self):
        f = scalar([1.0, 2.0])
        g = scalar([3.0, 4.0])
        s = direct_sum_series(f, g)
        assert s.block_dim == 2
        assert s.coeff(1)[0, 0] == 2.0 and s.coeff(1)[1, 1] == 4.0
        assert s.coeff(1)[0, 1] == 0.0

    def test_coeff_distance_requires_matching_dims(self):
        with pytest.raises(ValueError):
            coeff_distance(scalar([1.0]), MatrixPowerSeries.one(2, 0))


class TestCsv:
    def test_round_trip_through_buffer(self, rng):
        f = MatrixPowerSeries(
            rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        )
        buf = io.StringIO()
        f.to_csv(buf)
        back = MatrixPowerSeries.from_csv(io.StringIO(buf.getvalue()))
        assert coeff_distance(f, back) == 0.0

    def test_round_trip_through_file(self, tmp_path, rng):
        f = scalar(rng.standard_normal(6))
        path = str(tmp_path / "series.csv")
        f.to_csv(path)
        assert coeff_distance(MatrixPowerSeries.from_csv(path), f) == 0.0

    def test_rejects_wrong_header(self):
        with pytest.raises(ValueError):
            MatrixPowerSeries.from_csv(io.StringIO("a,b,c\n"))

    @pytest.mark.parametrize("bad_row", [
        "-1,0,0,0.9,0",  # negative n would land on the last coefficient
        "0,0,0,0.9,0",  # repeats the first row
        "1,0,-1,0.9,0",  # negative col would land on the last column
        "2,0,0",  # short row
        "2,0,0,0.9,0,7",  # extra field
        "2,0,x,0.9,0",  # index that is not an integer
        "2,0,0,0.9,i",  # value that is not a number
    ])
    def test_rejects_bad_indices_naming_the_line(self, bad_row):
        text = "n,row,col,re,im\n0,0,0,0.1,0\n1,0,0,0.2,0\n" + bad_row + "\n"
        with pytest.raises(ValueError, match="line 4"):
            MatrixPowerSeries.from_csv(io.StringIO(text))


class TestRationalSeries:
    def test_geometric_expansion(self):
        f = rational_series((1.0,), (1.0, -0.5), 6)
        assert np.abs(f.scalar_coeffs() - 0.5 ** np.arange(7)).max() < 1e-14

    def test_matches_multiplied_back(self, rng):
        num = rng.standard_normal(3)
        den = np.concatenate([[1.0], rng.standard_normal(2) * 0.3])
        f = rational_series(num, den, 10)
        prod = f * scalar(np.concatenate([den, np.zeros(8)]))
        want = np.zeros(11)
        want[:3] = num
        assert np.abs(prod.scalar_coeffs() - want).max() < 1e-12

    def test_rejects_denominator_zero_at_origin(self):
        with pytest.raises(ValueError):
            rational_series((1.0,), (0.0, 1.0), 4)
