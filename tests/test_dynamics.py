from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknet.dynamics import (
    MAX_BINOMIAL_N,
    BlockMatrix,
    alternating_binomial_row,
    alternating_binomial_sum,
    backward_diff_power,
    binomial,
    binomial_invert,
    build_ck_matrices,
    build_dense_matrices,
    lagged_sum,
)
from cknet.tensor import ShapeError
from helpers import block_apply, expand, pascal_triangle_row


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6

    def test_choose_zero_is_one(self):
        for k in range(0, 65):
            assert binomial(k, 0) == 1

    def test_beyond_n_is_zero(self):
        assert binomial(3, 5) == 0

    def test_against_pascal_triangle_oracle(self):
        row = pascal_triangle_row(50)
        assert binomial(50, 25) == row[25]
        for r in range(51):
            assert binomial(50, r) == row[r]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    def test_cap_is_enforced(self):
        with pytest.raises(ValueError, match="capped"):
            binomial(MAX_BINOMIAL_N + 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 64))
    def test_pascal_identity(self, n, r):
        if not 1 <= r <= n:
            return
        assert binomial(n, r) == binomial(n - 1, r - 1) + binomial(n - 1, r)


def forward_diff(seq, l):
    """x[l+1] - x[l] through the order-1 mixed stencil sum_j c[j] x[l+1-j]."""
    c = alternating_binomial_row(1)
    return c[0] * seq[l + 1] + c[1] * seq[l]


class TestDifferenceOperators:
    def test_forward_diff_constant_sequence(self):
        seq = [np.full(3, 2.5)] * 4
        assert np.array_equal(forward_diff(seq, 1), np.zeros(3))

    def test_forward_diff_arithmetic(self):
        seq = [np.array([0.0]), np.array([1.0]), np.array([4.0])]
        assert forward_diff(seq, 1) == np.array([3.0])

    def test_forward_equals_shifted_backward(self):
        rng = np.random.default_rng(3)
        seq = [rng.standard_normal(4) for _ in range(6)]
        for l in range(5):
            assert np.array_equal(forward_diff(seq, l), backward_diff_power(seq, l + 1, 2))

    def test_bounds_errors(self):
        seq = [np.zeros(2)] * 3
        with pytest.raises(IndexError):
            backward_diff_power(seq, 3, 1)
        with pytest.raises(IndexError):
            backward_diff_power(seq, 0, 2)

    def test_backward_power_order_one_is_identity(self):
        seq = [np.array([1.0]), np.array([5.0])]
        assert backward_diff_power(seq, 1, 1) == np.array([5.0])

    def test_backward_power_order_two(self):
        seq = [np.array([1.0]), np.array([3.0])]
        assert backward_diff_power(seq, 1, 2) == np.array([2.0])

    def test_backward_power_matches_iterated_oracle(self):
        rng = np.random.default_rng(11)
        seq = [rng.standard_normal(3) for _ in range(8)]
        # oracle: apply the single backward difference iteratively
        iterated = list(seq)
        for _ in range(3):
            iterated = [iterated[i] - iterated[i - 1] for i in range(1, len(iterated))]
        # iterated[j] is the 3-fold difference at original position j+3
        for l in range(3, 8):
            assert np.allclose(
                backward_diff_power(seq, l, 4), iterated[l - 3], rtol=0, atol=1e-12
            )

    def test_insufficient_history_names_lag(self):
        seq = [np.zeros(1)] * 3
        with pytest.raises(IndexError, match="lag 3"):
            backward_diff_power(seq, 2, 4)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-1000, 1000), min_size=5, max_size=10),
        st.integers(1, 5),
    )
    def test_exact_on_integer_sequences(self, values, n):
        seq = [np.array([v], dtype=np.int64) for v in values]
        iterated = list(seq)
        for _ in range(n - 1):
            iterated = [iterated[i] - iterated[i - 1] for i in range(1, len(iterated))]
        l = len(seq) - 1
        assert backward_diff_power(seq, l, n)[0] == iterated[-1][0]


class TestLaggedSum:
    @staticmethod
    def chained(row, lags):
        """The nonzero terms c·x of the row added one after another, left to right."""
        total = None
        for c, x in zip(row, lags):
            if c:
                total = c * x if total is None else total + c * x
        return total

    def test_bitwise_the_chained_sum_on_floats(self):
        rng = np.random.default_rng(3)
        lags = [rng.standard_normal(6) * 10.0**e for e in (-8, 0, 8, 3)]
        lags[1][:3] = (np.nan, 0.0, -0.0)
        lags[2][:3] = (1.0, -0.0, -0.0)
        for row in ([1, -3, 3, -1], [2, 0, -1, 5], [-1, 1, 0, 0], [0, 0, 7, -2], [1, 1, 1, 1]):
            assert lagged_sum(row, lags).tobytes() == self.chained(row, lags).tobytes()

    def test_keeps_the_sign_of_a_zero_sum(self):
        zero = np.array([-0.0])
        assert np.signbit(lagged_sum([1, 0, 1], [zero, np.ones(1), zero]))

    def test_exact_on_integers_and_fractions(self):
        ints = [np.array([2**62 + 1, -7]), np.array([2**61, 3]), np.array([1, 1])]
        assert lagged_sum([1, -2, 1], ints).tolist() == [2, -12]
        fractions = [Fraction(1, 3), Fraction(-5, 7), Fraction(2, 9)]
        assert lagged_sum([1, -2, 1], fractions) == Fraction(1, 3) + Fraction(10, 7) + Fraction(2, 9)

    def test_a_lone_unit_term_comes_back_unchanged(self):
        lags = [np.ones(2), np.arange(2.0), np.zeros(2)]
        assert lagged_sum([0, 1, 0], lags) is lags[1]

    def test_a_zero_coefficient_hides_a_nan_lag(self):
        total = lagged_sum([1, 0, -1], [np.ones(2), np.full(2, np.nan), np.arange(2.0)])
        assert total.tolist() == [1.0, 0.0]

    def test_an_all_zero_row_sums_to_zero(self):
        assert lagged_sum([0, 0], [np.ones(2), np.ones(2)]) == 0

    def test_a_row_and_lags_of_different_lengths_rejected(self):
        with pytest.raises(ValueError):
            lagged_sum([1, -1], [np.ones(2)])


class TestPlainNumbers:
    """The sequence operators take plain ints and ``Fraction``s, exactly."""

    def test_backward_difference_of_ints(self):
        assert backward_diff_power([1, 2, 4], 2, 3) == 1

    def test_invert_fractions(self):
        states = [Fraction(1), Fraction(2), Fraction(-3, 2)]
        assert binomial_invert(states) == [1, -1, Fraction(-9, 2)]
        seq = list(reversed(binomial_invert(states)))
        assert [backward_diff_power(seq, 2, m) for m in (1, 2, 3)] == states

    def test_a_number_among_arrays_is_a_shape_mismatch(self):
        with pytest.raises(ShapeError):
            binomial_invert([1.0, np.zeros(2)])


class TestMixedDiffCoefficients:
    """The stencil of one forward then k-1 backward differences, c[j] on
    x[l + 1 - j], is the alternating binomial row k."""

    def test_first_order(self):
        assert alternating_binomial_row(1) == [1, -1]

    def test_second_order(self):
        assert alternating_binomial_row(2) == [1, -2, 1]

    def test_fifth_order_matches_convolution_oracle(self):
        # one forward and four backward differences each convolve by (1, -1)
        stencil = np.array([1])
        for _ in range(5):
            stencil = np.convolve(stencil, [1, -1])
        assert alternating_binomial_row(5) == stencil.tolist()


class TestAlternatingSum:
    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_examples_are_zero(self, n):
        assert alternating_binomial_sum(n) == 0

    def test_zero_for_all_n_up_to_64(self):
        for n in range(1, 65):
            assert alternating_binomial_sum(n) == 0


class TestBinomialInvert:
    def test_single_state_is_identity(self):
        q1 = np.array([4.0, 5.0])
        (x,) = binomial_invert([q1])
        assert np.array_equal(x, q1)

    def test_third_lag_combination(self):
        q = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        lags = binomial_invert(q)
        # oldest reconstructed lag combines q1 - 2 q2 + q3
        assert lags[2] == q[0] - 2 * q[1] + q[2]

    def test_roundtrip_float_n6(self):
        rng = np.random.default_rng(19)
        states = [rng.standard_normal(5) for _ in range(6)]
        lags = binomial_invert(states)
        seq = list(reversed(lags))
        for m in range(1, 7):
            back = backward_diff_power(seq, 5, m)
            assert np.allclose(back, states[m - 1], rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**31))
    def test_roundtrip_exact_on_integers(self, n, seed):
        rng = np.random.default_rng(seed)
        states = [rng.integers(-10**6, 10**6, size=3) for _ in range(n)]
        lags = binomial_invert(states)
        seq = list(reversed(lags))
        for m in range(1, n + 1):
            assert np.array_equal(backward_diff_power(seq, n - 1, m), states[m - 1])

    def test_self_inverse_matrix_property(self):
        for k in range(1, 9):
            _, forcing = build_dense_matrices(k)
            m = expand(forcing, 1)
            assert np.array_equal(m @ m, np.eye(k))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            binomial_invert([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            binomial_invert([np.zeros(2), np.zeros(3)])


class TestBlockMatrices:
    def test_ck_k1_residual_case(self):
        transition, coupling = build_ck_matrices(1)
        assert transition.block == ((1,),)
        assert coupling.block == ((1,),)

    def test_ck_k3_transition_pattern(self):
        transition, coupling = build_ck_matrices(3)
        assert transition.block == ((1, 1, 1), (0, 1, 1), (0, 0, 1))
        assert coupling.block == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_ck_transition_determinant_one(self):
        for k in range(1, 9):
            transition, _ = build_ck_matrices(k)
            assert transition.determinant() == 1

    def test_dense_k1_collapses_to_residual(self):
        _, forcing = build_dense_matrices(1)
        assert forcing.block == ((1,),)

    def test_dense_k3_rows(self):
        _, forcing = build_dense_matrices(3)
        assert forcing.block == ((1, 0, 0), (1, -1, 0), (1, -2, 1))

    def test_dense_forcing_full_rank_up_to_8(self):
        for k in range(1, 9):
            transition, forcing = build_dense_matrices(k)
            assert transition.determinant() in (1, -1)
            assert forcing.determinant() in (1, -1)

    def test_expand_matches_block_apply(self):
        rng = np.random.default_rng(5)
        for k, d in [(1, 3), (3, 2), (5, 4)]:
            matrix = build_ck_matrices(k)[0]
            parts = [rng.standard_normal(d) for _ in range(k)]
            via_apply = np.concatenate(block_apply(matrix, parts))
            via_dense = expand(matrix, d) @ np.concatenate(parts)
            assert np.allclose(via_apply, via_dense, rtol=0, atol=1e-12)

    def test_apply_with_input_matrix_matches_expanded_form(self):
        rng = np.random.default_rng(6)
        k, d, scale = 3, 2, 0.25
        transition, forcing = build_dense_matrices(k)
        parts = [rng.standard_normal(d) for _ in range(k)]
        inputs = [rng.standard_normal(d) for _ in range(k - 1)] + [None]
        out = block_apply(transition, parts, forcing, inputs, scale)
        pushed = np.concatenate(inputs[:-1] + [np.zeros(d)])
        expected = expand(transition, d) @ np.concatenate(parts) + scale * (expand(forcing, d) @ pushed)
        assert np.allclose(np.concatenate(out), expected, rtol=0, atol=1e-12)
        # a row with one unit term is that part itself, not a new array
        assert block_apply(forcing, parts)[0] is parts[0]

    def test_determinant_matches_numpy_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            grid = tuple(
                tuple(int(v) for v in rng.integers(-4, 5, size=k)) for _ in range(k)
            )
            matrix = BlockMatrix(k, grid)
            oracle = int(round(np.linalg.det(np.array(grid, dtype=float)))) if k else 1
            assert matrix.determinant() == oracle

    def test_bad_grid_rejected(self):
        with pytest.raises(ShapeError):
            BlockMatrix(2, ((1, 0),))
        with pytest.raises(ValueError):
            BlockMatrix(0, ())
