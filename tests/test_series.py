import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opalg.series import (FormalSeries, ShapeMismatchError, _cauchy, _positive_columns,
                          _roundtrip_defects, is_positive, series_add, series_mul,
                          series_star)

from oracles import is_positive_reference, series_mul_reference, series_product_coeffs


def make(coeffs):
    return FormalSeries(coeffs)


class TestProduct:
    def test_identity(self):
        one = make([1, 0, 0])
        np.testing.assert_allclose(series_mul(one, one).coeffs, [1, 0, 0])

    def test_one_plus_g_squared(self):
        a = make([1, 1, 0])
        got = series_mul(a, a)
        expected = series_product_coeffs([1, 1, 0], [1, 1, 0], 2)
        np.testing.assert_allclose(got.coeffs, expected)
        np.testing.assert_allclose(got.coeffs, [1, 2, 1])

    def test_truncation_drops_high_orders(self):
        g = make([0, 1])
        got = series_mul(g, g)
        assert got.order == 1
        np.testing.assert_allclose(got.coeffs, [0, 0])

    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.normal(size=6) + 1j * rng.normal(size=6)
            b = rng.normal(size=6) + 1j * rng.normal(size=6)
            got = series_mul(make(a), make(b))
            np.testing.assert_allclose(got.coeffs,
                                       series_product_coeffs(a, b, 5),
                                       atol=1e-12)

    def test_associative_distributive(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b, c = (make(rng.normal(size=5) + 1j * rng.normal(size=5))
                       for _ in range(3))
            left = series_mul(series_mul(a, b), c)
            right = series_mul(a, series_mul(b, c))
            np.testing.assert_allclose(left.coeffs, right.coeffs, rtol=0, atol=1e-12)
            dist = series_mul(a, series_add(b, c))
            np.testing.assert_allclose(
                dist.coeffs, series_add(series_mul(a, b), series_mul(a, c)).coeffs,
                rtol=0, atol=1e-12)

    def test_matrix_series_product_shapes(self):
        rng = np.random.default_rng(2)
        a = make([rng.normal(size=(2, 3)) for _ in range(3)])
        b = make([rng.normal(size=(3, 2)) for _ in range(3)])
        assert series_mul(a, b).shape == (2, 2)
        with pytest.raises(ShapeMismatchError):
            series_mul(a, a)

    def test_vector_coefficients_rejected(self):
        # only scalars and matrices multiply; a vector has no product of
        # its own shape
        vec, mat = make([np.ones(2)] * 3), make([np.eye(2)] * 3)
        for a, b in ((vec, vec), (vec, mat), (mat, vec), (vec, make([1, 2, 3]))):
            with pytest.raises(ShapeMismatchError, match="incompatible"):
                series_mul(a, b)

    def test_scalar_times_matrix_series(self):
        rng = np.random.default_rng(5)
        s = make(rng.normal(size=4) + 1j * rng.normal(size=4))
        m = make(rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2)))
        for a, b in ((s, m), (m, s)):
            got = series_mul(a, b)
            assert got.shape == (2, 2)
            np.testing.assert_allclose(got.coeffs, series_mul_reference(a.coeffs, b.coeffs),
                                       rtol=0, atol=1e-12)

    def test_mixed_scalar_matrix_coeffs_rejected(self):
        for ragged in ([1.0, np.eye(2)], [np.eye(2), np.eye(3)]):
            with pytest.raises(ShapeMismatchError, match="coefficient shapes differ"):
                FormalSeries(ragged)

    def test_sum_of_different_shapes_rejected(self):
        # a scalar series of order 1 would broadcast against 2x2 coefficients
        with pytest.raises(ShapeMismatchError):
            series_add(make([1.0, 2.0]), make([np.eye(2), np.eye(2)]))


class TestStorage:
    def test_one_read_only_stack_and_the_input_stays_writeable(self):
        a = np.eye(2, dtype=complex)
        s = FormalSeries([a, a])
        assert a.flags.writeable
        assert isinstance(s.coeffs, np.ndarray) and s.coeffs.dtype == complex
        assert s.coeffs.shape == (2, 2, 2) and s.shape == (2, 2)
        assert not s.coeffs.flags.writeable
        scalar = FormalSeries([1, 2j, 3.5])
        assert scalar.coeffs.shape == (3,) and scalar.shape == () and scalar.is_scalar


class TestStar:
    def test_scalar_conjugation(self):
        np.testing.assert_allclose(series_star(make([1j, 0])).coeffs, [-1j, 0])

    def test_real_series_fixed(self):
        a = make([1.5, -2.0, 3.0])
        np.testing.assert_array_equal(series_star(a).coeffs, a.coeffs)

    def test_involutive(self):
        rng = np.random.default_rng(3)
        a = make(rng.normal(size=4) + 1j * rng.normal(size=4))
        np.testing.assert_array_equal(series_star(series_star(a)).coeffs, a.coeffs)

    def test_antimultiplicative_on_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = make([rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                      for _ in range(4)])
            b = make([rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                      for _ in range(4)])
            lhs = series_star(series_mul(a, b))
            rhs = series_mul(series_star(b), series_star(a))
            np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=0, atol=1e-12)


class TestPositivity:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_coefficient_refused(self, bad):
        # inf once read as positive: the scale tol * max|b| was inf
        with pytest.raises(ValueError, match=r"non-finite entry .* at \(1,\)"):
            is_positive(make([1, bad, 0.5]))

    def test_constant_one(self):
        verdict = is_positive(make([1, 0, 0]))
        assert verdict.positive
        np.testing.assert_allclose(verdict.witness.coeffs, [1, 0, 0])

    def test_pure_first_order_not_positive(self):
        verdict = is_positive(make([0, 1, 0]))
        assert not verdict.positive
        assert verdict.failure_order == 1

    def test_two_two_zero(self):
        b = make([2, 2, 0])
        verdict = is_positive(b)
        assert verdict.positive
        np.testing.assert_allclose(
            verdict.witness.coeffs,
            [np.sqrt(2), 1 / np.sqrt(2), -1 / (4 * np.sqrt(2))])
        redone = series_mul(series_star(verdict.witness), verdict.witness)
        np.testing.assert_allclose(redone.coeffs, b.coeffs, rtol=0, atol=1e-10)

    def test_imaginary_coefficient_rejected(self):
        verdict = is_positive(make([1, 1j]))
        assert not verdict.positive
        assert verdict.failure_order == 1

    def test_negative_leading_rejected(self):
        verdict = is_positive(make([-1, 0, 0]))
        assert not verdict.positive
        assert verdict.failure_order == 0

    def test_shifted_square(self):
        # g^2 * (1 + g)^2 = (0, 0, 1, 2, 1)
        verdict = is_positive(make([0, 0, 1, 2, 1]))
        assert verdict.positive
        redone = series_mul(series_star(verdict.witness), verdict.witness)
        np.testing.assert_allclose(redone.coeffs, [0, 0, 1, 2, 1], rtol=0, atol=1e-10)

    def test_zero_series_positive(self):
        verdict = is_positive(make([0, 0, 0]))
        assert verdict.positive

    def test_random_squares_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = rng.normal(size=9) + 1j * rng.normal(size=9)
            c[0] += 3.0  # keep the leading coefficient away from zero
            b = series_mul(series_star(make(c)), make(c))
            verdict = is_positive(b)
            assert verdict.positive
            redone = series_mul(series_star(verdict.witness), verdict.witness)
            np.testing.assert_allclose(redone.coeffs, b.coeffs, rtol=0, atol=1e-10)

    def test_matrix_series_rejected(self):
        with pytest.raises(ValueError):
            is_positive(make([np.eye(2), np.eye(2)]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                    min_size=1, max_size=9))
    def test_hypothesis_squares_positive(self, pairs):
        c = np.array([complex(re, im) for re, im in pairs])
        if abs(c[0]) < 1.0:
            c[0] = 2.0
        b = series_mul(series_star(make(c)), make(c))
        assert is_positive(b).positive

    def test_tiny_negative_head_rejected(self):
        verdict = is_positive(make([-1e-11, 0, 0]))
        assert not verdict.positive
        assert verdict.failure_order == 0

    def test_tiny_square_keeps_its_witness(self):
        verdict = is_positive(make(1e-12 * np.array([4, 2, 1])))
        assert verdict.positive
        np.testing.assert_allclose(verdict.witness.coeffs,
                                   1e-6 * np.array([2, 0.5, 0.1875]), rtol=1e-12)


# coefficients that reach every branch of the decision: zero and sub-tol
# values (shifts), nonzero values after a vanishing head (b1 != 0),
# negative heads and imaginary parts above and below tol
COEFFS = st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 1.0, -1.0, 2.5, 0.25,
                          1e-12j, 0.5j, 1.0 + 1e-3j])


class TestStackedPositivity:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(st.lists(COEFFS, min_size=n, max_size=n),
                           min_size=1, max_size=12)))
    @example([[0, 0, 0], [0, 0, 1], [0, 1, 0], [-1, 0, 0]])
    @example([[1, 1j], [1e-12, 0], [0, 0], [0.25, -1]])
    @example([[0, 0, 1e-12, 0, 4], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0],
              [1e-12j, 0, 0, 0, -1], [2.5, 0.5j, 0, 0, 0]])
    def test_columns_equal_scalar_decision(self, rows):
        b = np.array(rows, dtype=complex).T  # one series per column
        positive, witness, failure = _positive_columns(b, tol=1e-10)
        for row, pos, wit, fail in zip(b.T, positive, witness.T, failure):
            ref_pos, ref_wit, ref_fail = is_positive_reference(row, 1e-10)
            assert pos == ref_pos
            if pos:
                assert fail == -1
                np.testing.assert_array_equal(wit, ref_wit)
            else:
                assert fail == ref_fail
                assert not wit.any()
            # is_positive decides at tol relative to the scale of its input
            scalar = is_positive(FormalSeries(row), tol=1e-10)
            ref_pos, ref_wit, ref_fail = is_positive_reference(
                row, 1e-10 * np.max(np.abs(row)))
            assert scalar.positive == ref_pos
            if ref_pos:
                np.testing.assert_array_equal(np.array(scalar.witness.coeffs), ref_wit)
            else:
                assert scalar.failure_order == ref_fail

    # a NaN real part is not within tol, so it decides; a NaN at an even
    # order fails there (is_positive refuses NaN before deciding)
    @pytest.mark.parametrize("column, order", [
        ([0, 0, np.nan, 0, 1], 2), ([np.nan, 0, 1], 0), ([0, np.nan, 0, 1], 1)])
    def test_nan_decides_where_it_stands(self, column, order):
        b = np.array(column, dtype=complex)[:, None]
        positive, witness, failure = _positive_columns(b, tol=1e-10)
        assert not positive[0] and failure[0] == order
        assert not witness.any()

    # a power of four scales b and its witness exactly, so the bits agree
    @pytest.mark.parametrize("mu, same_bits", [
        (4.0 ** -12, True), (4.0 ** 12, True), (1e-9, False), (3e9, False)])
    def test_roundtrip_ratio_independent_of_the_units(self, mu, same_bits):
        c = np.random.default_rng(3).normal(size=(17, 30, 2)) @ np.array([1.0, 1j])
        c[0] += 2.0
        b = _cauchy(c.conj(), c)
        ratios = [_roundtrip_defects(_positive_columns(x, 1e-10 * np.max(np.abs(x)))[1], x)
                  for x in (b, mu * b)]
        if same_bits:
            np.testing.assert_array_equal(ratios[1], ratios[0])
        assert np.max(ratios) < 1e-15

    def test_star_square_rows_equal_reference(self):
        c = np.random.default_rng(11).normal(size=(20, 9, 2)) @ np.array([1.0, 1j])
        for row, got in zip(c, _cauchy(c.conj().T, c.T).T):
            np.testing.assert_array_equal(got, series_mul_reference(row.conj(), row))


def draw_stack(seed, length, shape, zeros):
    """Complex normal coefficients, a share `zeros` of the entries set to
    +0 or -0, so that signed zeros and exact cancellations occur."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(length, *shape)) + 1j * rng.normal(size=(length, *shape))
    z.real[rng.random(z.shape) < zeros] = 0.0
    z.imag[rng.random(z.shape) < zeros] = -0.0
    return z


class TestCauchyTwin:
    """The one Cauchy product, series._cauchy, equals the double loop of
    tests/oracles.py bit for bit, signed zeros included: through series_mul
    on scalar, square-matrix and 2x3 by 3x2 coefficients, on matrix
    coefficients against (n, S) columns, and on rows of conjugate
    products, as the sampled positivity checks form them."""

    @settings(max_examples=80, deadline=None)
    @given(shapes=st.sampled_from([((), ()), ((3, 3), (3, 3)), ((2, 3), (3, 2)),
                                   ((4, 4), (4, 5))]),
           order=st.integers(0, 16), seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.sampled_from([0.0, 0.3, 0.9]))
    @example(shapes=((6, 6), (6, 6)), order=400, seed=1, zeros=0.0)
    def test_series_mul_is_the_double_loop(self, shapes, order, seed, zeros):
        a = draw_stack(seed, order + 1, shapes[0], zeros)
        b = draw_stack(seed + 1, order + 1, shapes[1], zeros)
        got = series_mul(make(a), make(b)).coeffs
        assert got.tobytes() == series_mul_reference(a, b).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 12), order=st.integers(0, 16),
           seed=st.integers(0, 2 ** 32 - 1), zeros=st.sampled_from([0.0, 0.3, 0.9]))
    def test_conjugate_rows_are_the_double_loop(self, rows, order, seed, zeros):
        c = draw_stack(seed, rows, (order + 1,), zeros)
        got = np.ascontiguousarray(_cauchy(c.conj().T, c.T).T)
        want = np.array([series_mul_reference(row.conj(), row) for row in c])
        assert got.tobytes() == want.tobytes()

    def test_a_may_stop_early(self):
        a, b = draw_stack(0, 2, (3, 3), 0.0), draw_stack(1, 6, (3, 1), 0.0)
        padded = np.concatenate([a, np.zeros((4, 3, 3))])
        np.testing.assert_array_equal(_cauchy(a, b), series_mul_reference(padded, b))


def assert_squares_back(witness, b):
    """star(w)*w equals b within 1e-10 of the scale of the Cauchy sums: the
    witness coefficients can outgrow b, as in series.witness_roundtrip."""
    redone = series_mul(series_star(witness), witness)
    scale = max(b.max_abs(), witness.max_abs() ** 2)
    assert (redone - b).max_abs() <= 1e-10 * scale


class TestPositivityScaleInvariance:
    """b and 10^e b get one verdict, and its witness squares back to b."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                    min_size=1, max_size=9), st.integers(-12, 6))
    def test_scaled_squares(self, pairs, e):
        c = np.array([complex(re, im) for re, im in pairs])
        if abs(c[0]) < 1.0:
            c[0] = 2.0
        b = FormalSeries(10.0 ** e * series_mul(series_star(make(c)), make(c)).coeffs)
        verdict = is_positive(b)
        assert verdict.positive
        assert_squares_back(verdict.witness, b)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(COEFFS, min_size=n, max_size=n)), st.integers(-12, 6))
    @example([-1e-12, 0, 1e-12j], -6)
    def test_scaled_branches(self, row, e):
        b, scaled = FormalSeries(row), FormalSeries(10.0 ** e * np.array(row, dtype=complex))
        base = is_positive(b)
        verdict = is_positive(scaled)
        assert verdict.positive == base.positive
        assert verdict.failure_order == base.failure_order
        if verdict.positive:
            assert_squares_back(verdict.witness, scaled)
