import itertools
import math
import re
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cknet import architectures, tensor, verify
from cknet.architectures import (
    Network,
    NetworkConfig,
    Trace,
    c1_step,
    parameter_count,
    unroll,
    weight_matrix_ratio,
)
from cknet.dynamics import alternating_binomial_row, backward_diff_power, build_ck_matrices
from cknet.tensor import GraphError, ShapeError, affine
from cknet.data import Dataset
from cknet.training import TrainConfig, evaluate, softmax_cross_entropy, train
from helpers import (
    LayerHistory,
    Layer,
    ONE_ROW_ENTRIES,
    StateVector,
    central_difference,
    ck_direct_step,
    ck_state_step,
    dense_direct_step,
    dense_state_step,
    expand,
    gradient_close,
    identity_gap,
    identity_holds,
    initialize_state,
    matrix_states,
    stacked,
    state_adjoint,
    table_adjoint,
    unrolled,
    with_nans,
)


def make_forcing(d, weight, bias, activation="tanh"):
    return Layer(
        np.full((d, d), float(weight)) * np.eye(d) if np.isscalar(weight) else weight,
        np.full(d, float(bias)) if np.isscalar(bias) else bias,
        activation,
    )


def zero_forcing(d=1):
    return make_forcing(d, 0.0, 0.0)


def const_forcing(value, d=1):
    # zero weight and a bias chosen so tanh lands exactly on the target
    return make_forcing(d, 0.0, np.arctanh(value))


def random_forcing(d, seed, activation="tanh"):
    rng = np.random.default_rng(seed)
    return Layer(rng.uniform(-1, 1, size=(d, d)) / np.sqrt(d), rng.uniform(-0.5, 0.5, size=d), activation)


def one_layer(f, x, family, k, dl, mode="direct"):
    """The layer after the input ``x`` (ghost start), as ``unroll`` steps it."""
    return list(unroll(*stacked([f]), x, family, k, dl, mode))[-1].x


def c0_step(f, x):
    """One plain (c0) layer, as ``unroll`` steps it."""
    return one_layer(f, x, "c0", 1, 1.0)


class TestSingleSteps:
    def test_c0_zero_forcing_maps_to_zero(self):
        out = c0_step(zero_forcing(3), np.ones(3))
        assert np.array_equal(out, np.zeros(3))

    def test_c0_sigmoid_of_bias_at_zero_input(self):
        f = make_forcing(2, 1.0, 0.3, activation="sigmoid")
        out = c0_step(f, np.zeros(2))
        assert np.allclose(out, 1 / (1 + np.exp(-0.3)), rtol=0, atol=1e-15)

    def test_c0_matches_direct_evaluation(self):
        f = random_forcing(4, seed=9)
        x = np.random.default_rng(1).standard_normal(4)
        expected = np.tanh(f.weight @ x + f.bias)
        assert np.allclose(c0_step(f, x), expected, rtol=0, atol=1e-15)

    def test_c1_identity_flow_with_zero_forcing(self):
        x = np.array([1.5, -2.0])
        out = c1_step(*zero_forcing(2), x, dl=1.0)
        assert np.array_equal(out, x)

    def test_c1_perturbation_vanishes_with_dl(self):
        f = random_forcing(3, seed=2)
        x = np.array([0.4, -0.1, 2.0])
        for dl in (1e-3, 1e-6, 1e-9):
            out = c1_step(*f, x, dl)
            assert np.max(np.abs(out - x)) <= 1.1 * dl

    def test_c1_equals_order_one_direct_step_bitwise(self):
        f = random_forcing(2, seed=3)
        x = np.array([0.7, -0.2])
        via_c1 = c1_step(*f, x, dl=0.3)
        via_ck = one_layer(f, x, "ck", 1, dl=0.3)
        assert via_c1.tobytes() == via_ck.tobytes()

    def test_ck_direct_free_motion_extrapolates(self):
        history = LayerHistory([np.array([1.0]), np.array([0.0])])
        out = ck_direct_step(zero_forcing(1), history, 2, dl=1.0)
        assert out[0] == 2.0  # 2 x_l - x_{l-1}

    def test_ck_direct_hand_expansion_order_two(self):
        history = LayerHistory([np.array([1.0]), np.array([1.0])])
        out = ck_direct_step(const_forcing(0.5), history, 2, dl=1.0)
        assert out[0] == pytest.approx(1.5, abs=1e-15)

    def test_ck_direct_requires_full_history(self):
        with pytest.raises(ValueError, match="2 activations"):
            ck_direct_step(zero_forcing(1), LayerHistory([np.zeros(1)]), 2, 1.0)

    def test_ck_state_hand_evaluation_order_two(self):
        q = StateVector([np.array([1.0]), np.array([0.0])])
        out = ck_state_step(const_forcing(0.5), q, 2, dl=1.0)
        assert out.parts[0][0] == pytest.approx(1.5, abs=1e-15)
        assert out.parts[1][0] == pytest.approx(0.5, abs=1e-15)

    def test_ck_state_zero_forcing_drift(self):
        q = StateVector([np.array([0.0]), np.array([2.0]), np.array([3.0])])
        out = ck_state_step(zero_forcing(1), q, 3, dl=1.0)
        assert out.parts[0][0] == 5.0  # q1 + q2 + q3
        assert out.parts[1][0] == 5.0  # q2 + q3
        assert out.parts[2][0] == 3.0  # q3 unchanged

    def test_ck_state_matches_dense_matrix_oracle(self):
        k, d = 4, 3
        rng = np.random.default_rng(12)
        f = random_forcing(d, seed=21)
        dl = 0.5
        parts = [rng.standard_normal(d) for _ in range(k)]
        stepped = ck_state_step(f, StateVector(parts), k, dl)

        transition, coupling = build_ck_matrices(k)
        force = np.tanh(f.weight @ parts[0] + f.bias) * dl**k
        expected = expand(transition, d) @ np.concatenate(parts) + expand(coupling, d) @ np.tile(force, k)
        assert np.allclose(np.concatenate(stepped.parts), expected, rtol=0, atol=1e-12)

    def test_ck_state_part_count_checked(self):
        q = initialize_state(np.zeros(2), 2)
        with pytest.raises(ValueError, match="parts"):
            ck_state_step(zero_forcing(2), q, 3, 1.0)


class TestInitialization:
    def test_order_one_state_is_input(self):
        q = initialize_state(np.array([2.0, 3.0]), 1)
        assert q.order == 1 and np.array_equal(q.parts[0], [2.0, 3.0])

    def test_order_two_velocity_zero(self):
        q = initialize_state(np.array([2.0]), 2)
        assert np.array_equal(q.parts[1], [0.0])

    def test_constant_ghost_history_has_zero_higher_differences(self):
        x0 = np.array([1.3, -0.4])
        extended = [x0] * 5
        for n in range(2, 5):
            assert np.allclose(backward_diff_power(extended, 4, n), 0.0, rtol=0, atol=1e-12)
        # exact cancellation on integer-valued history
        exact = [np.array([7, -3])] * 5
        for n in range(2, 5):
            assert np.array_equal(backward_diff_power(exact, 4, n), np.zeros(2, dtype=int))

    def test_state_vector_embedding_dimension(self):
        q = initialize_state(np.zeros(7), 4)
        assert q.embedding_dim == 4 * 7


class TestDenseSteps:
    def test_order_one_reduces_to_residual_bitwise(self):
        f = random_forcing(3, seed=5)
        x = np.array([0.2, -0.8, 1.1])
        via_c1 = c1_step(*f, x, dl=0.7)
        via_dense = one_layer(f, x, "dense", 1, dl=0.7)
        assert via_c1.tobytes() == via_dense.tobytes()

    def test_zero_forcing_is_pure_lag_copy(self):
        entries = [np.array([float(v)]) for v in (5.0, 7.0, 9.0)]
        history = LayerHistory(entries)
        out, advanced = dense_direct_step([zero_forcing(1)] * 3, history, dl=1.0)
        assert out[0] == 9.0  # x_{l+1-k}
        assert advanced[0] is out and advanced[1] is entries[0]

    def test_forcing_count_must_match_window(self):
        history = LayerHistory.ghost(np.zeros(1), 3)
        with pytest.raises(ValueError, match="forcing functions"):
            dense_direct_step([zero_forcing(1)] * 2, history, dl=1.0)

    def test_state_order_one_matches_residual(self):
        f = random_forcing(2, seed=6)
        x = np.array([0.4, 0.9])
        stepped = one_layer(f, x, "dense", 1, dl=0.25, mode="state")
        assert stepped.tobytes() == c1_step(*f, x, 0.25).tobytes()

    def test_state_order_two_velocity_gets_forcing_difference(self):
        f0, f1 = random_forcing(2, seed=7), random_forcing(2, seed=8)
        rng = np.random.default_rng(9)
        q_parts = [rng.standard_normal(2), rng.standard_normal(2)]
        dl = 0.5
        f_prev = np.tanh(f1.weight @ (q_parts[0] - q_parts[1]) + f1.bias) * dl
        stepped, differences = dense_state_step(f0, StateVector(q_parts), (f_prev, None), dl)
        f_now = np.tanh(f0.weight @ q_parts[0] + f0.bias) * dl
        assert np.allclose(stepped.parts[1] - q_parts[1], f_now - f_prev, rtol=0, atol=1e-15)
        assert differences[0].tobytes() == f_now.tobytes()
        assert differences[1].tobytes() == (f_now - f_prev).tobytes()

    def test_state_step_matches_dense_matrix_oracle(self):
        # evaluate the block-matrix form explicitly on the expanded state
        from cknet.dynamics import build_dense_matrices

        k, d, dl = 4, 3, 0.5
        f = random_forcing(d, seed=300)
        rng = np.random.default_rng(33)
        parts = [rng.standard_normal(d) for _ in range(k)]
        outputs = [rng.standard_normal(d) for _ in range(k)]  # the layers before's, newest first
        before = [backward_diff_power(outputs[::-1], k - 1, m + 1) for m in range(k)]
        stepped, differences = dense_state_step(f, StateVector(parts), before, dl)

        transition, forcing = build_dense_matrices(k)
        pushes = np.concatenate([np.tanh(f.weight @ parts[0] + f.bias) * dl, *outputs[:-1]])
        expected = expand(transition, d) @ np.concatenate(parts) + expand(forcing, d) @ pushes
        assert np.allclose(np.concatenate(stepped.parts), expected, rtol=0, atol=1e-12)
        assert np.allclose(np.concatenate(differences), expand(forcing, d) @ pushes, rtol=0, atol=1e-12)

    def test_window_length_must_match_order(self):
        q = initialize_state(np.zeros(1), 3)
        with pytest.raises(ValueError, match="got 2 differences for order 3"):
            dense_state_step(zero_forcing(1), q, (None,) * 2, 1.0)

    def test_order_three_state_equals_direct_recurrence(self):
        k, d, depth = 3, 4, 9
        fs = [random_forcing(d, seed=100 + i) for i in range(depth)]
        x0 = np.random.default_rng(31).standard_normal(d)
        xs_direct, _, _ = unrolled(fs, x0, "dense", k, 0.5, "direct")
        xs_state, _, states = unrolled(fs, x0, "dense", k, 0.5, "state")
        for a, b in zip(xs_direct, xs_state):
            assert np.allclose(a, b, rtol=0, atol=1e-9)
        extended = [xs_direct[0]] * (k - 1) + xs_direct
        for l, parts in enumerate(states):
            for n in range(1, k + 1):
                expected = backward_diff_power(extended, l + k - 1, n)
                assert np.allclose(parts[n - 1], expected, rtol=0, atol=1e-9)


class TestDenseDifferenceIdentity:
    def test_order_zero_is_residual_identity(self):
        fs = [random_forcing(2, seed=40 + i) for i in range(5)]
        x0 = np.array([0.3, -0.6])
        xs, forcing, _ = unrolled(fs, x0, "dense", 1, 0.8, "direct")
        assert identity_holds(xs, forcing, 0, dl=0.8)

    def test_holds_for_random_dense_networks(self):
        for seed in range(5):
            fs = [random_forcing(3, seed=60 + seed * 10 + i) for i in range(8)]
            x0 = np.random.default_rng(seed).standard_normal(3)
            xs, forcing, _ = unrolled(fs, x0, "dense", 2, 0.5, "direct")
            assert identity_holds(xs, forcing, 1, dl=0.5)

    def test_discriminates_smooth_from_dense_families(self):
        # the identity is a dense-family property; an order-2 smooth network
        # violates it for n=1 on generic forcing
        found_counterexample = False
        for seed in range(10):
            fs = [random_forcing(3, seed=90 + seed * 10 + i) for i in range(8)]
            x0 = np.random.default_rng(200 + seed).standard_normal(3)
            xs = unrolled(fs, x0, "ck", 2, 0.5, "direct")[0]
            forcing = [
                np.tanh(f.weight @ x + f.bias) for f, x in zip(fs, xs[:-1])
            ]
            if not identity_holds(xs, forcing, 1, dl=0.5):
                found_counterexample = True
                break
        assert found_counterexample

    def test_a_nan_residual_fails_the_identity(self):
        fs = [random_forcing(2, seed=40 + i) for i in range(5)]
        xs, forcing, _ = unrolled(fs, np.array([0.3, -0.6]), "dense", 1, 0.8, "direct")
        xs[-1] = np.full(2, np.nan)
        assert np.isnan(identity_gap(xs, forcing, 0, 0.8))
        assert not identity_holds(xs, forcing, 0, dl=0.8)

    @pytest.mark.parametrize("family", ["dense", "ck"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(3,), (4, 3)])
    def test_verdict_matches_per_layer_loop_at_the_tolerance(self, family, k, shape):
        # the battery's identity row, on the lags it reads, against the per-layer loop
        fs = [random_forcing(3, seed=300 + 10 * k + i, activation="sigmoid") for i in range(7)]
        x0 = np.random.default_rng(k).standard_normal(shape)
        xs, forcing, _ = unrolled(fs, x0, family, k, 0.5, "direct")
        x_lags = verify._lags(np.stack(xs), xs[0], k + 1)
        f_lags = verify._lags(np.stack(forcing), 0.0, k)
        for n in range(k):
            worst = identity_gap(xs, forcing, n, 0.5)
            gap = np.max(verify._identity_deviation(x_lags, f_lags, n, 0.5))
            assert gap <= worst and not gap <= np.nextafter(worst, -np.inf)


class TestParameterAccounting:
    def test_order_two_width_three(self):
        assert parameter_count("ck", 2, 3, 1) == 9 + 3
        assert parameter_count("first_order_equiv", 2, 3, 1) == 36 + 6
        assert weight_matrix_ratio(2, 3) == 0.25

    def test_order_one_ratio_is_one(self):
        assert weight_matrix_ratio(1, 16) == 1

    def test_order_four_width_64(self):
        assert parameter_count("ck", 4, 64, 1) - 64 == 4096
        assert parameter_count("first_order_equiv", 4, 64, 1) - 256 == 65536

    def test_ratio_is_inverse_square_exactly(self):
        from fractions import Fraction

        for k in range(1, 9):
            for d in (1, 3, 64):
                assert weight_matrix_ratio(k, d) == Fraction(1, k * k)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parameter_count("resnet", 1, 1, 1)

    @pytest.mark.parametrize("k,d,depth,message", [
        (0, 3, 1, "k must be >= 1, got 0"),
        (-1, 2, 1, "k must be >= 1, got -1"),
        (2, 0, 1, "d must be >= 1, got 0"),
        (2, -3, 4, "d must be >= 1, got -3"),
        (2, 3, -1, "depth must be >= 0, got -1"),
    ])
    def test_sizes_out_of_range_are_value_errors(self, k, d, depth, message):
        for kind in ("ck", "first_order_equiv"):
            with pytest.raises(ValueError, match=f"^{message}$"):
                parameter_count(kind, k, d, depth)
        if depth >= 0:
            with pytest.raises(ValueError, match=f"^{message}$"):
                weight_matrix_ratio(k, d)

    @pytest.mark.parametrize("name", ["k", "d", "depth"])
    @pytest.mark.parametrize("value", [2.0, "2", None, True, np.True_], ids=["whole-float", "str", "none", "bool", "numpy-bool"])
    def test_non_integer_sizes_are_type_errors(self, name, value):
        sizes = {"k": 2, "d": 3, "depth": 1, name: value}
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            parameter_count("ck", sizes["k"], sizes["d"], sizes["depth"])
        if name != "depth":
            with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
                weight_matrix_ratio(sizes["k"], sizes["d"])

    def test_zero_depth_and_numpy_integer_sizes_are_accepted(self):
        assert parameter_count("ck", 2, 3, 0) == parameter_count("first_order_equiv", 2, 3, 0) == 0
        assert weight_matrix_ratio(np.int64(2), np.int32(3)) == Fraction(1, 4)


class TestNetworkForward:
    def test_depth_zero_is_embedding_plus_head(self):
        net = Network(NetworkConfig("ck", k=2, depth=0, width=4, input_dim=3, num_classes=2, seed=1))
        x = np.random.default_rng(0).standard_normal((5, 3))
        logits = net.forward(x).data
        hidden = x @ net.embed_weight.data.T + net.embed_bias.data
        expected = hidden @ net.head_weight.data.T + net.head_bias.data
        assert np.array_equal(logits, expected)

    @pytest.mark.parametrize("family", ["ck", "dense"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_direct_and_state_logits_agree(self, family, k):
        net = Network(
            NetworkConfig(family, k=k, depth=6, width=5, input_dim=4, num_classes=3, dl=0.5, seed=k)
        )
        x = np.random.default_rng(5).standard_normal((6, 4))
        direct = net.forward(x, mode="direct").data
        state = net.forward(x, mode="state").data
        assert np.max(np.abs(direct - state)) <= 1e-9

    def test_batch_equals_per_sample_loop(self):
        net = Network(NetworkConfig("dense", k=2, depth=4, width=4, input_dim=3, num_classes=3, seed=2))
        x = np.random.default_rng(6).standard_normal((4, 3))
        batched = net.forward(x).data
        for i in range(4):
            single = net.forward(x[i]).data
            assert np.allclose(batched[i], single, rtol=0, atol=1e-12)

    def test_input_width_checked(self):
        net = Network(NetworkConfig("ck", k=1, depth=1, width=2, input_dim=3, num_classes=2))
        with pytest.raises(ShapeError):
            net.forward(np.zeros((2, 4)))

    def test_unknown_mode_rejected(self):
        net = Network(NetworkConfig("ck", k=1, depth=1, width=2, input_dim=2, num_classes=2))
        with pytest.raises(ValueError, match="mode"):
            net.forward(np.zeros((1, 2)), mode="magic")

    def test_skipless_family_is_plain_composition(self):
        net = Network(NetworkConfig("c0", k=1, depth=3, width=4, input_dim=3, num_classes=2, seed=9))
        x = np.random.default_rng(9).standard_normal((2, 3))
        h = x @ net.embed_weight.data.T + net.embed_bias.data
        for weight, bias in zip(net.block_weight.data, net.block_bias.data):
            h = np.tanh(h @ weight.T + bias)
        expected = h @ net.head_weight.data.T + net.head_bias.data
        assert np.allclose(net.forward(x).data, expected, rtol=0, atol=1e-14)
        assert np.array_equal(net.forward(x).data, net.forward(x, mode="state").data)

    def test_skipless_family_requires_order_one(self):
        with pytest.raises(ValueError, match="order"):
            NetworkConfig("c0", k=2, depth=1, width=2, input_dim=2, num_classes=2)

    def test_trace_records_full_trajectory(self):
        net = Network(NetworkConfig("ck", k=2, depth=5, width=3, input_dim=2, num_classes=2, seed=3))
        x = np.random.default_rng(7).standard_normal((4, 2))
        trace = Trace.from_layers(net.layers(x, mode="state"))
        assert len(trace.activations) == 6
        assert len(trace.forcing) == 5
        assert len(trace.states) == 6
        assert all(len(parts) == 2 for parts in trace.states)

    def test_gradients_flow_in_both_modes(self):
        net = Network(NetworkConfig("ck", k=3, depth=3, width=3, input_dim=2, num_classes=2, dl=0.5, seed=4))
        x = np.random.default_rng(8).standard_normal((3, 2))
        y = np.array([0, 1, 0])

        def loss_value():
            return softmax_cross_entropy(net.forward(x, mode="direct"), y).item()

        loss = softmax_cross_entropy(net.forward(x, mode="direct"), y)
        net.zero_grad()
        loss.backward()
        params = net.parameters()
        fds = central_difference(loss_value, [p.data for p in params])
        for p, fd in zip(params, fds):
            assert gradient_close(p.grad, fd), p.name


class TestEquivalenceGrid:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 3])
    def test_smooth_family_direct_vs_state(self, k, d):
        for seed in range(3):
            fs = [random_forcing(d, seed=1000 + seed * 50 + i) for i in range(6)]
            x0 = np.random.default_rng(seed).standard_normal(d)
            xs_direct = unrolled(fs, x0, "ck", k, 1.0, "direct")[0]
            xs_state, _, states = unrolled(fs, x0, "ck", k, 1.0, "state")
            for a, b in zip(xs_direct, xs_state):
                assert np.max(np.abs(a - b)) <= 1e-9
            extended = [xs_direct[0]] * (k - 1) + xs_direct
            for l, parts in enumerate(states):
                for n in range(1, k + 1):
                    assert np.max(
                        np.abs(parts[n - 1] - backward_diff_power(extended, l + k - 1, n))
                    ) <= 1e-9

    def test_order_one_collapse_is_bitwise(self):
        fs = [random_forcing(4, seed=2000 + i) for i in range(7)]
        x0 = np.random.default_rng(77).standard_normal(4)
        dl = 0.75
        xs_ck = unrolled(fs, x0, "ck", 1, dl, "direct")[0]
        xs_ck_state, _, _ = unrolled(fs, x0, "ck", 1, dl, "state")
        xs_dd, _, _ = unrolled(fs, x0, "dense", 1, dl, "direct")
        xs_ds, _, _ = unrolled(fs, x0, "dense", 1, dl, "state")
        xs_c1 = [x0]
        for f in fs:
            xs_c1.append(c1_step(*f, xs_c1[-1], dl))
        for variants in zip(xs_c1, xs_ck, xs_ck_state, xs_dd, xs_ds):
            reference = variants[0].tobytes()
            assert all(v.tobytes() == reference for v in variants[1:])


class TestScaling:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_perturbation_scales_exactly_as_dl_power(self, k):
        # zero history isolates the forcing term; powers of two keep float
        # multiplication exact, so the s^k scaling law holds bitwise
        f = random_forcing(3, seed=99)
        x = np.zeros(3)
        dl, s = 0.25, 2.0
        small = one_layer(f, x, "ck", k, dl)
        large = one_layer(f, x, "ck", k, s * dl)
        assert np.array_equal(large, s**k * small)


def chained_ck_direct(f, history, k, dl):
    """The order-k step as chained ``+`` and ``*``."""
    coeffs = [(-1) ** j * math.comb(k, j) for j in range(k + 1)]
    out = f(history[0]) * (dl**k)
    for j in range(1, k + 1):
        c = -coeffs[j]
        out = out + (history[j - 1] if c == 1 else c * history[j - 1])
    return out


def chained_ck_state(f, parts, k, dl):
    """The ck state step as chained ``+`` and ``*``, from q_k up."""
    acc = parts[k - 1] + f(parts[0]) * (dl**k)
    new_parts = [acc]
    for n in reversed(range(k - 1)):
        acc = parts[n] + acc
        new_parts.insert(0, acc)
    return new_parts


def chained_dense_direct(fs, history, dl):
    k = len(history)
    out = history[k - 1]
    for j in reversed(range(k)):
        if fs[j] is not None:
            out = out + fs[j](history[j]) * dl
    return out


def chained_dense_state(f, parts, differences, dl):
    """The dense state step as chained ``*``, ``-`` and ``+``: D_0 = dl·f(q_1),
    D_m = D_{m-1} - the layer before's D_{m-1} from ``differences`` (``None``
    before the input), then q_n gains D_{n-1}. Returns the parts and the
    differences the next layer reads."""
    current = [f(parts[0]) * dl]
    for before in differences[:-1]:
        current.append(current[-1] if before is None else current[-1] - before)
    return [part + difference for part, difference in zip(parts, current)], current


class TestFusedSteps:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_dense_steps_bitwise_equal_chained_formula(self, k):
        fs = [random_forcing(3, seed=70 + i) for i in range(6)]
        x0 = np.random.default_rng(k).standard_normal((2, 3))
        history, q, differences = LayerHistory.ghost(x0, k), initialize_state(x0, k), (None,) * k
        for layer, f in enumerate(fs):
            window = [fs[layer - j] if layer - j >= 0 else None for j in range(k)]
            expected = chained_dense_direct(window, history, 0.5)
            x, history = dense_direct_step(window, history, 0.5)
            assert x.tobytes() == expected.tobytes()
            expected_parts, _ = chained_dense_state(f, q.parts, differences, 0.5)
            q, differences = dense_state_step(f, q, differences, 0.5)
            for a, b in zip(q.parts, expected_parts):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ck_steps_bitwise_equal_chained_formula(self, k):
        rng = np.random.default_rng(40 + k)
        f = random_forcing(3, seed=k)
        for dl in (1.0, 0.5, 0.2):
            entries = [rng.standard_normal((2, 3)) for _ in range(k)]
            fused = ck_direct_step(f, LayerHistory(entries), k, dl)
            assert fused.tobytes() == chained_ck_direct(f, entries, k, dl).tobytes()
            stepped = ck_state_step(f, StateVector(entries), k, dl)
            for a, b in zip(stepped.parts, chained_ck_state(f, entries, k, dl)):
                assert a.tobytes() == b.tobytes()


def reference_forward(net, inputs, mode):
    """Logits and trace arrays of ``net`` from the chained reference steps."""
    cfg = net.config
    k, dl = cfg.k, cfg.dl
    blocks = [Layer(w, b, cfg.activation) for w, b in zip(net.block_weight.data, net.block_bias.data)]
    x = affine(inputs, net.embed_weight.data, net.embed_bias.data)
    history = [x] * k
    parts, differences = [x] + [np.zeros_like(x) for _ in range(k - 1)], [None] * k
    activations, forcing, states = [x], [], [parts]
    for layer, f in enumerate(blocks):
        window = [f] + [blocks[layer - j] if layer >= j else None for j in range(1, k)]
        forcing.append(f(parts[0] if mode == "state" else history[0]))
        if cfg.family == "c0":
            parts = [f(parts[0])]
        elif mode == "direct" and cfg.family == "ck":
            parts = [chained_ck_direct(f, history, k, dl)]
        elif mode == "direct":
            parts = [chained_dense_direct(window, history, dl)]
        elif cfg.family == "ck":
            parts = chained_ck_state(f, parts, k, dl)
        else:
            parts, differences = chained_dense_state(f, parts, differences, dl)
        history = [parts[0]] + history[:-1]
        activations.append(parts[0])
        states.append(parts)
    logits = affine(parts[0], net.head_weight.data, net.head_bias.data)
    return logits, activations, forcing, states if mode == "state" else None


class TestWholeNetworkBitwise:
    @pytest.mark.parametrize(
        "family,k", [("c0", 1)] + [("ck", k) for k in (1, 2, 3, 4)] + [("dense", k) for k in (2, 3, 4)]
    )
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_forward_and_trace_equal_chained_reference(self, family, k, mode):
        net = Network(NetworkConfig(family, k, depth=6, width=3, input_dim=2, num_classes=3, dl=0.5, seed=k))
        x = np.random.default_rng(k).standard_normal((4, 2))
        logits, trace = net.forward(x, mode=mode), Trace.from_layers(net.layers(x, mode))
        ref_logits, activations, forcing, states = reference_forward(net, x, mode)

        def same(a, b):
            return len(a) == len(b) and all(u.tobytes() == v.tobytes() for u, v in zip(a, b))

        assert logits.data.tobytes() == ref_logits.tobytes()
        assert same(trace.activations, activations)
        assert same(trace.forcing, forcing)
        if mode == "direct":
            assert trace.states is None
        else:
            assert len(trace.states) == len(states)
            assert all(same(a, b) for a, b in zip(trace.states, states))


class TestRecordedTrace:
    @pytest.mark.parametrize("family,k", [("c0", 1), ("ck", 3), ("dense", 3)])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_record_at_depth_zero(self, family, k, mode):
        net = Network(NetworkConfig(family, k, depth=0, width=3, input_dim=2, num_classes=2, seed=1))
        x = np.random.default_rng(1).standard_normal((4, 2))
        trace = Trace.from_layers(net.layers(x, mode))
        x0 = affine(x, net.embed_weight.data, net.embed_bias.data)
        assert len(trace.activations) == 1 and trace.activations[0].tobytes() == x0.tobytes()
        assert len(trace.forcing) == 0
        if mode == "direct":
            assert trace.states is None
        else:
            assert len(trace.states) == 1 and len(trace.states[0]) == k
            assert trace.states[0][0].tobytes() == x0.tobytes()
            assert all(not np.any(part) for part in trace.states[0][1:])

    @pytest.mark.parametrize("depth", [0, 5])
    @pytest.mark.parametrize("batch", [(), (4,)])
    def test_fields_are_stacked_arrays(self, depth, batch):
        k, width = 3, 2
        net = Network(NetworkConfig("dense", k, depth=depth, width=width, input_dim=2, num_classes=2, seed=2))
        x = np.random.default_rng(2).standard_normal((*batch, 2))
        direct, state = (Trace.from_layers(net.layers(x, mode)) for mode in ("direct", "state"))
        for trace in (direct, state):
            assert trace.activations.shape == (depth + 1, *batch, width)
            assert trace.forcing.shape == (depth, *batch, width)
            assert trace.activations.dtype == trace.forcing.dtype == np.float64
        assert direct.states is None
        assert state.states.shape == (depth + 1, k, *batch, width)

    def test_trace_keeps_no_unroll_array(self):
        fs = [random_forcing(3, seed=70 + i) for i in range(4)]
        layers = list(unroll(*stacked(fs), np.ones(3), "ck", 2, 0.5, "state"))
        trace = Trace.from_layers(layers)
        arrays = [r.x for r in layers] + [r.force for r in layers[1:]] + [p for r in layers for p in r.state]
        for field in (trace.activations, trace.forcing, trace.states):
            assert not any(np.shares_memory(field, a) for a in arrays)


class TestStateStepAccuracy:
    """``unroll``'s per-family state steps against the general block action
    ``helpers.block_apply`` and against an exact recurrence."""

    @pytest.mark.parametrize("family", ["ck", "dense"])
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("activation,dl", [("tanh", 1.0), ("sigmoid", 0.5), ("leaky_relu", 0.5)])
    def test_matches_the_matrix_step(self, family, k, d, activation, dl):
        rng = np.random.default_rng([k, d])
        fs = [random_forcing(d, seed=int(s), activation=activation) for s in rng.integers(1 << 30, size=10)]
        x0 = rng.standard_normal((4, d))
        states = Trace.from_layers(unroll(*stacked(fs), x0, family, k, dl, "state")).states
        expected = matrix_states(fs, x0, family, k, dl)
        if k == 1:
            assert states.tobytes() == expected.tobytes()
        assert np.max(np.abs(states - expected)) <= 1e-12 * np.max(np.abs(expected))

    @staticmethod
    def exact_ck_case(k):
        """Six width-1 forcings, x_0, and the ck state recurrence over them in
        Fractions, each layer's forcing evaluated in float on the exact q_1
        rounded."""
        fs = [random_forcing(1, seed=10 * k + i) for i in range(6)]
        x0 = np.random.default_rng(k).standard_normal(1)
        q = [Fraction(x0[0])] + [Fraction(0)] * (k - 1)
        exact = [q]
        for f in fs:
            suffix = [q[-1] + Fraction(f(np.array([float(q[0])]))[0])]
            for part in reversed(q[:-1]):
                suffix.append(part + suffix[-1])
            q = suffix[::-1]
            exact.append(q)
        return fs, x0, exact

    @pytest.mark.parametrize("k", [4, 16, 32, 64])
    def test_ck_state_is_accurate_at_every_order(self, k):
        # the gap is at most 5.1e-16 of the largest state for these k
        fs, x0, exact = self.exact_ck_case(k)
        states = [r.state for r in unroll(*stacked(fs), x0, "ck", k, 1.0, "state")]
        gap = max(abs(Fraction(p[0]) - e) for parts, row in zip(states, exact) for p, e in zip(parts, row))
        assert gap <= Fraction(1e-15) * max(abs(e) for row in exact for e in row)

    @pytest.mark.parametrize("k", [4, 16, 32, 64])
    def test_ck_direct_form_error_grows_at_most_like_2_to_the_k(self, k):
        # the direct form sums k lags with coefficients up to C(k, k/2), so its
        # x_l is off by up to about 2^k·ε of the largest state. On these cases
        # it is 1.8e-12 of it at k=16, 1.4e-7 at 32 and 2.6e2 at 64 (at most
        # 0.15·2^k·ε); over four draws at every k in 1..64, at most 1.54·2^k·ε
        fs, x0, exact = self.exact_ck_case(k)
        xs = [r.x for r in unroll(*stacked(fs), x0, "ck", k, 1.0, "direct")]
        gap = max(abs(Fraction(x[0]) - row[0]) for x, row in zip(xs, exact, strict=True))
        assert gap <= 4 * 2**k * Fraction(np.finfo(float).eps) * max(abs(e) for row in exact for e in row)

    @pytest.mark.parametrize("k", [4, 16, 32, 64])
    def test_dense_state_is_accurate_at_every_order(self, k):
        # the closed form q_n' = q_n + Σ_j (-1)^j C(n-1, j)·dl·f_{l-j} in
        # Fractions, each layer's forcing evaluated in float on the exact q_1
        # rounded. The gap is at most 6.8e-16 of the largest state for these k
        fs = [random_forcing(1, seed=10 * k + i) for i in range(8)]
        x0 = np.random.default_rng(k).standard_normal(1)
        states = [r.state for r in unroll(*stacked(fs), x0, "dense", k, 1.0, "state")]
        q = [Fraction(x0[0])] + [Fraction(0)] * (k - 1)
        exact, outputs = [q], []
        for f in fs:
            outputs.insert(0, Fraction(f(np.array([float(q[0])]))[0]))
            q = [part + sum(c * u for c, u in zip(alternating_binomial_row(n), outputs)) for n, part in enumerate(q)]
            exact.append(q)
        gap = max(abs(Fraction(p[0]) - e) for parts, row in zip(states, exact) for p, e in zip(parts, row))
        assert gap <= Fraction(1e-15) * max(abs(e) for row in exact for e in row)


FORMS = [("c0", 1), *(("ck", k) for k in (1, 2, 3, 4)), *(("dense", k) for k in (1, 2, 3, 4))]


class TestStepReferences:
    """The single-layer steps of ``helpers`` give ``unroll``'s values."""

    @pytest.mark.parametrize("family,k", [("ck", 3), ("dense", 3)])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_step_references_give_the_unroll_values_bitwise(self, family, k, mode):
        fs = [random_forcing(3, seed=50 + i) for i in range(6)]
        x0 = np.random.default_rng(k).standard_normal((2, 3))
        xs = [r.x for r in unroll(*stacked(fs), x0, family, k, 0.5, mode)]
        history, q, expected = LayerHistory.ghost(x0, k), initialize_state(x0, k), [x0]
        differences = (None,) * k
        for layer, f in enumerate(fs):
            window = [fs[layer - j] if layer >= j else None for j in range(k)]
            if mode == "state":
                if family == "ck":
                    q = ck_state_step(f, q, k, 0.5)
                else:
                    q, differences = dense_state_step(f, q, differences, 0.5)
                expected.append(q.parts[0])
            elif family == "ck":
                history = history.advanced(ck_direct_step(f, history, k, 0.5))
                expected.append(history[0])
            else:
                history = dense_direct_step(window, history, 0.5)[1]
                expected.append(history[0])
        assert [x.tobytes() for x in xs] == [x.tobytes() for x in expected]


ACTIVATIONS = ["tanh", "sigmoid", "leaky_relu"]


class TestInfer:
    """``Network.infer`` gives ``forward``'s logits and keeps no record."""

    @staticmethod
    def network(family, k, activation="tanh", depth=5, seed=0):
        return Network(NetworkConfig(family, k, depth=depth, width=3, input_dim=2, num_classes=3, dl=0.5,
                                     activation=activation, seed=seed))

    @pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("mode", ["direct", "state"])
    @pytest.mark.parametrize("depth", [0, 5])
    @pytest.mark.parametrize("x_shape", [(2,), (4, 2)], ids=["vector", "batch"])
    def test_logits_are_forward_and_reference_bitwise(self, family, k, activation, mode, depth, x_shape):
        net = self.network(family, k, activation, depth, seed=k)
        x = np.random.default_rng(depth).standard_normal(x_shape)
        logits = net.infer(x, mode=mode)
        assert type(logits) is np.ndarray
        assert logits.tobytes() == net.forward(x, mode=mode).data.tobytes()
        assert logits.tobytes() == reference_forward(net, x, mode)[0].tobytes()

    @pytest.mark.parametrize("family,k", [("c0", 1), ("ck", 1), ("ck", 3), ("dense", 3)])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_earlier_layers_are_freed(self, monkeypatch, family, k, mode):
        net = self.network(family, k, depth=10)
        alive, refs = [], []
        original = architectures.unroll

        def watched(*args):
            layers = original(*args)
            del args  # x_0 is then unroll's own, to drop once the lag window or state does
            for layer in layers:
                refs.append(weakref.ref(layer.x))
                alive.append(sum(r() is not None for r in refs))
                yield layer

        monkeypatch.setattr(architectures, "unroll", watched)
        net.infer(np.ones((4, 2)), mode)
        assert len(alive) == 11 and max(alive) <= k + 1  # the lag window, and the record before
        assert refs[0]() is None

    def test_input_width_checked(self):
        net = Network(NetworkConfig("ck", k=1, depth=1, width=2, input_dim=3, num_classes=2))
        with pytest.raises(ShapeError, match="input_dim=3"):
            net.infer(np.zeros((2, 4)))
        with pytest.raises(ShapeError, match="input_dim=3"):
            net.forward(np.zeros(2))

    def test_unknown_mode_rejected(self):
        net = Network(NetworkConfig("ck", k=1, depth=1, width=2, input_dim=2, num_classes=2))
        with pytest.raises(ValueError, match="mode"):
            net.infer(np.zeros((1, 2)), mode="magic")

    def test_reads_the_current_parameters(self):
        net = self.network("ck", 2)
        x = np.random.default_rng(1).standard_normal((4, 2))
        before = net.infer(x)
        weight = net.block_weight.data.copy()
        weight[0] *= 2.0
        net.block_weight.data = weight
        after = net.infer(x)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == net.forward(x).data.tobytes()


class TestLayers:
    """``Network.layers`` streams the records ``infer`` reads out, bitwise
    those of the chained reference steps."""

    @pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    @pytest.mark.parametrize("x_shape", [(2,), (4, 2)], ids=["vector", "batch"])
    def test_records_are_the_reference_layers_bitwise(self, family, k, mode, x_shape):
        net = TestInfer.network(family, k, "sigmoid", depth=6, seed=k)
        x = np.random.default_rng(k).standard_normal(x_shape)
        records = list(net.layers(x, mode))
        _, activations, forcing, states = reference_forward(net, x, mode)
        assert len(records) == len(activations) == 7 and records[0].force is None
        for layer, (x_l, force, state) in enumerate(records):
            assert type(x_l) is np.ndarray and x_l.tobytes() == activations[layer].tobytes()
            if layer:
                assert type(force) is np.ndarray and force.tobytes() == forcing[layer - 1].tobytes()
            if mode == "direct":
                assert state is None
            else:
                assert len(state) == k
                assert all(p.tobytes() == row.tobytes() for p, row in zip(state, states[layer]))

    def test_input_width_checked_on_call(self):
        net = TestInfer.network("ck", 2)
        with pytest.raises(ShapeError, match="input_dim=2"):
            net.layers(np.zeros((2, 3)))

    @pytest.mark.parametrize("inputs", [5.0, np.full((1, 4, 2), 5.0)], ids=["0-d", "3-D"])
    @pytest.mark.parametrize("call", ["forward", "infer", "layers"])
    def test_input_that_is_not_a_row_or_a_batch_is_rejected(self, inputs, call):
        net = TestInfer.network("ck", 2)
        with pytest.raises(ShapeError, match=r"is not \[input_dim\] or \[batch, input_dim\], input_dim=2$"):
            getattr(net, call)(inputs)


class TestRecordsStayAsYielded:
    """``unroll`` writes no array it has yielded: once the pass ends, every
    record's ``x``, ``force`` and state parts hold the bytes they were yielded
    with, at width 1 (one element or more), wider, and stacked on a member axis."""

    STACKS = [((6, 1, 1), (1,)), ((6, 1, 1), (1, 1)), ((6, 1, 1), (7, 1)), ((6, 3, 3), (5, 3)),
              ((6, 2, 3, 3), (2, 1, 3)), ((6, 2, 3, 3), (2, 4, 3))]

    @pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    @pytest.mark.parametrize("dl", [1.0, 0.5])  # at 1.0, ck's leading coefficient is a unit one
    @pytest.mark.parametrize("w_shape,x_shape", STACKS, ids=[f"{w}-{x}" for w, x in STACKS])
    def test_yielded_arrays_are_never_written(self, family, k, mode, dl, w_shape, x_shape):
        rng = np.random.default_rng(k)
        weights = architectures._init_weight(rng, w_shape)
        biases = rng.uniform(-0.5, 0.5, size=w_shape[:-1])
        yielded, snapshots = [], []
        for record in unroll(weights, biases, "tanh", rng.standard_normal(x_shape), family, k, dl, mode):
            arrays = [record.x, *([] if record.force is None else [record.force]), *(record.state or ())]
            yielded.append(arrays)
            snapshots.append([a.tobytes() for a in arrays])
        assert len(yielded) == 7
        assert [[a.tobytes() for a in arrays] for arrays in yielded] == snapshots


class TestAdjoint:
    """``forward``'s pullback, the layer adjoint, against central differences."""

    @pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_gradients_match_central_differences(self, family, k, mode, activation, depth):
        net = Network(NetworkConfig(family, k, depth=depth, width=2, input_dim=2, num_classes=2, dl=0.5,
                                    activation=activation, seed=10 * depth + k))
        rng = np.random.default_rng(depth)
        x, y = rng.standard_normal((3, 2)), np.array([0, 1, 1])
        loss = softmax_cross_entropy(net.forward(x, mode), y)
        loss.backward()
        with pytest.raises(GraphError, match="already ran"):
            loss.backward()
        params = net.parameters()
        fds = central_difference(lambda: evaluate(net, x, y, mode)[0], [p.data for p in params])
        for p, fd in zip(params, fds):
            assert gradient_close(p.grad, fd), p.name

    def test_gradients_are_taken_at_the_forward_pass(self):
        def gradients(update_before_backward):
            net = Network(NetworkConfig("ck", 2, depth=3, width=2, input_dim=2, num_classes=2, dl=0.5, seed=1))
            loss = softmax_cross_entropy(net.forward(np.ones((3, 2))), np.array([0, 1, 1]))
            if update_before_backward:  # as ``Adam.step`` does: fresh arrays
                for p in net.parameters():
                    p.data = p.data * 3.0
            loss.backward()
            return [p.grad.tobytes() for p in net.parameters()]

        assert gradients(True) == gradients(False)

    @staticmethod
    def network(family, k, activation="sigmoid", depth=3, dl=0.5, seed=0):
        return Network(NetworkConfig(family, k, depth=depth, width=2, input_dim=2, num_classes=2, dl=dl,
                                     activation=activation, seed=seed))

    @staticmethod
    def gradients(net, x, y, mode="direct"):
        """Every parameter's gradient of the loss on (x, y), from cleared grads."""
        net.zero_grad()
        softmax_cross_entropy(net.forward(x, mode), y).backward()
        return [p.grad for p in net.parameters()]

    @pytest.mark.parametrize("mode", ["direct", "state"])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_order_eight_gradients_match_central_differences(self, mode, activation):
        # below the top layer every one of the prefix adjoint's k-1 = 7 unit adds a layer runs
        self.test_gradients_match_central_differences("ck", 8, mode, activation, 3)

    @pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    @pytest.mark.parametrize("dl", [1.0, 0.3, 1.5])
    def test_mesh_step_enters_the_gradient(self, family, k, mode, dl):
        # dl=1 takes the unit-coefficient path, which passes a gradient on without a multiply
        net = self.network(family, k, dl=dl, seed=k)
        x, y = np.random.default_rng(k).standard_normal((3, 2)), np.array([1, 0, 1])
        got = self.gradients(net, x, y, mode)
        params = net.parameters()
        fds = central_difference(lambda: evaluate(net, x, y, mode)[0], [p.data for p in params])
        for p, g, fd in zip(params, got, fds):
            assert gradient_close(g, fd), p.name

    @pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("depth", [1, 4])
    def test_direct_and_state_gradients_agree(self, family, k, activation, depth):
        net = self.network(family, k, activation, depth, seed=depth + k)
        x, y = np.random.default_rng(depth).standard_normal((4, 2)), np.array([0, 1, 1, 0])
        direct, state = self.gradients(net, x, y, "direct"), self.gradients(net, x, y, "state")
        for p, a, b in zip(net.parameters(), direct, state):
            assert np.allclose(a, b, rtol=1e-9, atol=1e-13), p.name

    @pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_batch_gradient_is_the_mean_of_sample_gradients(self, family, k, mode):
        net = self.network(family, k, "tanh", depth=4, seed=k)
        x, y = np.random.default_rng(k).standard_normal((4, 2)), np.array([1, 1, 0, 1])
        batch = self.gradients(net, x, y, mode)
        samples = [self.gradients(net, x[i : i + 1], y[i : i + 1], mode) for i in range(4)]
        for j, p in enumerate(net.parameters()):
            mean = sum(s[j] for s in samples) / 4
            assert np.allclose(batch[j], mean, rtol=1e-10, atol=1e-15), p.name

    @pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
    def test_gradients_accumulate_until_zero_grad(self, family, k):
        net = self.network(family, k, seed=k)
        rng = np.random.default_rng(k)
        (xa, xb), y = rng.standard_normal((2, 3, 2)), np.array([0, 1, 1])
        first, second = self.gradients(net, xa, y), self.gradients(net, xb, y)
        net.zero_grad()
        for x in (xa, xb):  # no zero_grad in between
            softmax_cross_entropy(net.forward(x), y).backward()
        for p, a, b in zip(net.parameters(), first, second):
            assert p.grad.tobytes() == (a + b).tobytes(), p.name
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    @pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_backward_writes_into_no_array_it_reads(self, family, k, mode):
        net = self.network(family, k, seed=k)
        x = np.random.default_rng(k).standard_normal((3, 2))
        logits = net.forward(x, mode)
        held = [x, logits.data] + [p.data for p in net.parameters()]
        before = [a.tobytes() for a in held]
        softmax_cross_entropy(logits, np.array([1, 0, 0])).backward()
        assert [a.tobytes() for a in held] == before
        assert all(p.data is a for p, a in zip(net.parameters(), held[2:]))


class TestDirectTerms:
    """``_direct_terms`` states each family's direct recurrence once; ``unroll``
    and the tests' reference adjoint, ``table_adjoint``, read it."""

    def test_c0_is_its_forcing(self):
        assert architectures._direct_terms("c0", 1, 0.5) == ((1, 0, True),)

    @pytest.mark.parametrize("k,stencil", [(1, (1,)), (2, (2, -1)), (3, (3, -3, 1)), (4, (4, -6, 4, -1))])
    @pytest.mark.parametrize("dl", [1.0, 0.5])
    def test_ck_is_the_scaled_forcing_then_the_stencil(self, k, stencil, dl):
        terms = architectures._direct_terms("ck", k, dl)
        assert terms == ((dl**k, 0, True), *((c, j, False) for j, c in enumerate(stencil)))
        assert [-c for c, _, _ in terms[1:]] == alternating_binomial_row(k)[1:]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("dl", [1.0, 0.5])
    def test_dense_is_the_oldest_lag_then_every_output_oldest_first(self, k, dl):
        expected = ((1, k - 1, False), *((dl, j, True) for j in range(k - 1, -1, -1)))
        assert architectures._direct_terms("dense", k, dl) == expected

    MADE_UP = [
        # x_{l+1} = 0.6·x_l + 0.3·f_l + 1.2·f_{l-1} - 0.4·x_{l-2}: no family's recurrence
        ((0.6, 0, False), (0.3, 0, True), (1.2, 1, True), (-0.4, 2, False)),
        # x_{l+1} = f_{l-2} + 0.5·x_l + f_l - 0.25·x_{l-1}: the leading unit forcing is
        # absent in layers 0 and 1, so their sums start at a later term
        ((1, 2, True), (0.5, 0, False), (1, 0, True), (-0.25, 1, False)),
    ]

    @pytest.mark.parametrize("table", MADE_UP, ids=["made-up", "late-first-term"])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_forward_and_adjoint_read_one_table(self, monkeypatch, activation, table):
        monkeypatch.setattr(architectures, "_direct_terms", lambda family, k, dl: table)
        net = TestAdjoint.network("dense", 3, activation, depth=5, seed=3)
        x, y = np.random.default_rng(3).standard_normal((3, 2)), np.array([1, 0, 1])
        trace = Trace.from_layers(net.layers(x))
        xs, fs = trace.activations, trace.forcing
        for l in range(5):  # the ghost start: a lag before the input is x_0, a forcing adds nothing
            value = None
            for c, j, forcing in table:
                if forcing and l < j:
                    continue
                term = c * (fs[l - j] if forcing else xs[max(l - j, 0)])
                value = term if value is None else value + term
            assert xs[l + 1].tobytes() == value.tobytes()
        # the gradient half: the reference walk over the made-up table, on this pass's records
        monkeypatch.setattr(architectures, "_layer_adjoint", table_adjoint)
        got = TestAdjoint.gradients(net, x, y)
        params = net.parameters()
        fds = central_difference(lambda: evaluate(net, x, y)[0], [p.data for p in params])
        for p, g, fd in zip(params, got, fds):
            assert gradient_close(g, fd), p.name


class TestPrefixAdjoint:
    """ck's layer adjoint, the prefix sum of its state step, against the
    reference walk over ck's own ``_direct_terms``, ``table_adjoint``, on the
    records of one pass."""

    @staticmethod
    def walks(k, width, activation, depth, mode, dl=0.5, batch=3, seed=0):
        rng = np.random.default_rng(seed)
        weights = architectures._init_weight(rng, (depth, width, width))
        biases = rng.uniform(-0.5, 0.5, size=(depth, width))
        records = list(unroll(weights, biases, activation, rng.standard_normal((batch, width)), "ck", k, dl, mode))
        xs, forces = [r.x for r in records], [r.force for r in records[1:]]
        xbar = rng.standard_normal((batch, width))
        table = table_adjoint(xbar, list(xs), list(forces), weights, activation, "ck", k, dl)
        prefix = architectures._layer_adjoint(xbar, list(xs), list(forces), weights, activation, "ck", k, dl)
        return table, prefix

    @pytest.mark.parametrize("width", [1, 2, 64])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("depth", [0, 1, 16])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_order_one_is_the_table_walk_bitwise(self, width, activation, depth, mode):
        for dl in (1.0, 0.5):
            table, prefix = self.walks(1, width, activation, depth, mode, dl, seed=depth + width)
            assert [a.tobytes() for a in prefix] == [a.tobytes() for a in table]

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("width", [1, 2, 64])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("depth", [0, 1, 16])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_higher_orders_agree_with_the_table_walk(self, k, width, activation, depth, mode):
        # rtol 1e-9 and an atol of 2^k·1e-13 in units of the largest entry (at least 1):
        # the table walk sums binomial multiples of gradients that reach 1e3 at depth
        # 16, so its error grows like 2^k against them, not against a small entry
        # they cancel to (the next test holds the prefix walk to a few ε)
        table, prefix = self.walks(k, width, activation, depth, mode, seed=depth + width + k)
        for name, a, b in zip(("x_0", "weights", "biases"), prefix, table):
            assert np.allclose(a, b, rtol=1e-9, atol=2**k * 1e-13 * np.max(np.abs(b), initial=1.0)), name

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps, reason="no extended long double")
    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_prefix_walk_is_within_a_few_ulp_of_its_long_double_run(self, k, activation, mode):
        rng = np.random.default_rng(k)
        weights = architectures._init_weight(rng, (16, 64, 64))
        biases = rng.uniform(-0.5, 0.5, size=(16, 64))
        records = list(unroll(weights, biases, activation, rng.standard_normal((3, 64)), "ck", k, 0.5, mode))
        xs, forces = [r.x for r in records], [r.force for r in records[1:]]
        xbar = rng.standard_normal((3, 64))
        got = architectures._layer_adjoint(xbar, xs, forces, weights, activation, "ck", k, 0.5)
        wide = [np.asarray(a, dtype=np.longdouble) for a in (xbar, weights)]
        exact = architectures._layer_adjoint(wide[0], [r.x.astype(np.longdouble) for r in records],
                                             [r.force.astype(np.longdouble) for r in records[1:]],
                                             wide[1], activation, "ck", k, 0.5)
        for name, a, b in zip(("x_0", "weights", "biases"), got, exact):  # measured at most 2.1·ε
            assert np.max(np.abs(a - b)) <= 8 * np.finfo(np.float64).eps * np.max(np.abs(b)), name

    @pytest.mark.parametrize("family,k", [("c0", 1), ("ck", 3), ("dense", 3)])
    def test_walks_free_the_records_they_read(self, family, k):
        xs, forces = [np.ones((2, 1))] * 4, [np.ones((2, 1))] * 3
        held = list(xs), list(forces)
        architectures._layer_adjoint(np.ones((2, 1)), *held, np.full((3, 1, 1), 0.5), "tanh", family, k, 0.5)
        assert held == ([None] * 3 + [xs[-1]], [None] * 3)


class TestGradientsAfterTheWalk:
    """``_layer_adjoint``, which at width 1 forms W̄ and b̄ of all layers in one
    stacked product and reduction after the walk, against the tests' per-layer
    walk ``state_adjoint`` on float64 scalars: bitwise."""

    GRID = [("c0", 1), *(("ck", k) for k in (1, 2, 3, 4)), ("dense", 2), ("dense", 3)]

    @pytest.mark.parametrize("family,k", GRID, ids=[f"{f}{k}" for f, k in GRID])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_is_the_per_layer_walk_bitwise(self, family, k, activation):
        for width, batch, depth, mode, dl in itertools.product((1, 2, 64), (1, 7, 160), (0, 1, 16),
                                                               ("direct", "state"), (1.0, 0.5)):
            rng = np.random.default_rng([width, batch, depth])
            weights = architectures._init_weight(rng, (depth, width, width))
            biases = rng.uniform(-0.5, 0.5, size=(depth, width))
            records = list(unroll(weights, biases, activation, rng.standard_normal((batch, width)), family, k, dl, mode))
            xs, forces = [r.x for r in records], [r.force for r in records[1:]]
            xbar = rng.standard_normal((batch, width))
            got = architectures._layer_adjoint(xbar, list(xs), list(forces), weights, activation, family, k, dl)
            want = state_adjoint(xbar, list(xs), list(forces), weights, activation, family, k, dl)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (width, batch, depth, mode, dl)

    @pytest.mark.parametrize("family,k", [("c0", 1), ("ck", 1), ("ck", 3), ("dense", 2)])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("batch", [1, 160])
    def test_width_one_on_special_values(self, family, k, activation, batch):
        """Records, weights and x̄_L on ``ONE_ROW_ENTRIES``, odd seeds with NaNs
        of distinct payloads in each: -0.0 products, NaNs on both sides of a
        sum, and a one-element batch, whose sums stay out of place."""
        for seed in range(24):
            rng = np.random.default_rng(seed)
            shapes = [((batch, 1), 0x11)] * 6 + [((batch, 1), 0x22)] * 5 + [((5, 1, 1), 0x33), ((batch, 1), 0x44)]
            if seed % 2:
                arrays = [with_nans(rng, shape, payload) for shape, payload in shapes]
            else:
                arrays = [rng.choice(ONE_ROW_ENTRIES, size=shape) for shape, _ in shapes]
            xs, forces, (weights, xbar) = arrays[:6], arrays[6:11], arrays[11:]
            with np.errstate(all="ignore"):
                got = architectures._layer_adjoint(xbar, list(xs), list(forces), weights, activation, family, k, 0.5)
                want = state_adjoint(xbar, list(xs), list(forces), weights, activation, family, k, 0.5)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], seed


class TestDenseIsResidual:
    """Under the ghost start the additive dense family is the residual network:
    y_l = x_{l+1} - x_l - dl·f_l has period k and starts at zero."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("mode", ["state", "direct"])
    def test_dense_logits_are_ck1_logits_bitwise(self, k, activation, mode):
        def build(family, order):
            return Network(NetworkConfig(family, order, depth=8, width=6, input_dim=4, num_classes=3, dl=0.5,
                                         activation=activation, seed=11))

        dense, residual = build("dense", k), build("ck", 1)
        x = np.random.default_rng(k).standard_normal((5, 4))
        expected = residual.forward(x, mode=mode).data.tobytes()
        assert dense.forward(x, mode=mode).data.tobytes() == expected
        assert dense.infer(x, mode=mode).tobytes() == expected
        assert residual.infer(x, mode=mode).tobytes() == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("mode", ["state", "direct"])
    @pytest.mark.parametrize("width", [1, 3, 64])
    def test_dense_gradients_are_ck1_gradients(self, k, activation, mode, width):
        # the two networks are one function of the parameters, and dense's
        # adjoint is ck k=1's order-1 walk with scale dl, so the gradients are
        # the same bits
        x, y = np.random.default_rng(k).standard_normal((5, 4)), np.array([0, 2, 1, 1, 0])
        dense, residual = (
            Network(NetworkConfig(family, order, depth=6, width=width, input_dim=4, num_classes=3, dl=0.5,
                                  activation=activation, seed=12))
            for family, order in (("dense", k), ("ck", 1))
        )
        for p, a, b in zip(dense.parameters(), TestAdjoint.gradients(dense, x, y, mode),
                           TestAdjoint.gradients(residual, x, y, mode)):
            assert a.tobytes() == b.tobytes(), p.name

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("width", [1, 3, 64])
    def test_dense_trains_as_ck1_bitwise(self, k, width):
        rng = np.random.default_rng(k)
        data = Dataset(rng.standard_normal((12, 4)), rng.integers(0, 3, size=12), 3)
        runs = []
        for family, order in (("dense", k), ("ck", 1)):
            net = Network(NetworkConfig(family, order, depth=5, width=width, input_dim=4, num_classes=3, dl=0.5,
                                        seed=13))
            metrics = train(net, data, TrainConfig(epochs=3, batch_size=5, learning_rate=0.05, seed=2))
            runs.append(([(m.epoch, m.train_loss.hex(), m.train_acc.hex()) for m in metrics],
                         [p.data.tobytes() for p in net.parameters()]))
        assert runs[0] == runs[1]


class TestForcingEvaluatedOnce:
    """A forcing map is one activation call on its own product, however it
    is formed (the width-1 broadcast, a BLAS product, a stacked matmul). So a pass
    that calls tanh once per layer, in layer order, each call giving that
    layer's forcing, evaluates every layer's map exactly once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arrays tanh returned, in call order. ``unroll`` and ``affine``
        look the activation up in ``tensor.ACTIVATIONS`` when they start."""
        returned = []
        value, chain = tensor.ACTIVATIONS["tanh"]

        def counting(z):
            returned.append(value(z))
            return returned[-1]

        monkeypatch.setitem(tensor.ACTIVATIONS, "tanh", tensor.Activation(counting, chain))
        return returned

    @staticmethod
    def one_call_a_layer(calls, records):
        """Each record's forcing is the one call made for its layer, and there
        were no other calls."""
        assert len(calls) == len(records) - 1
        assert all(r.force is call for r, call in zip(records[1:], calls))

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("width", [1, 3])
    def test_dense_direct_calls_each_block_once(self, calls, k, record, width):
        net = Network(NetworkConfig("dense", k=k, depth=6, width=width, input_dim=2, num_classes=2, seed=k))
        x = np.random.default_rng(k).standard_normal((4, 2))
        if record:
            records = list(net.layers(x))
            self.one_call_a_layer(calls, records)
            for layer, (weight, bias) in enumerate(zip(net.block_weight.data, net.block_bias.data)):
                expected = np.tanh(records[layer].x @ weight.T + bias)
                assert records[layer + 1].force.tobytes() == expected.tobytes()
        else:
            net.forward(x)
            forward_calls = list(calls)
            calls.clear()
            records = list(net.layers(x))
            self.one_call_a_layer(calls, records)
            assert [c.tobytes() for c in forward_calls] == [r.force.tobytes() for r in records[1:]]

    @pytest.mark.parametrize("family,k", [("c0", 1), ("ck", 3), ("dense", 3)])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_record_mode_adds_no_forcing_calls(self, calls, family, k, mode, width):
        net = Network(NetworkConfig(family, k=k, depth=5, width=width, input_dim=2, num_classes=2, seed=2))
        x = np.random.default_rng(2).standard_normal((4, 2))
        net.forward(x, mode=mode)
        assert len(calls) == 5
        calls.clear()
        net.infer(x, mode=mode)
        assert len(calls) == 5
        calls.clear()
        records = list(net.layers(x, mode))
        self.one_call_a_layer(calls, records)
        trace = Trace.from_layers(records)
        assert len(calls) == 5 and len(trace.forcing) == 5

    def test_stacked_ensemble_calls_each_block_once(self, calls):
        rng = np.random.default_rng(4)
        weights, biases = rng.standard_normal((4, 3, 2, 2)), rng.standard_normal((4, 3, 2))
        x0 = rng.standard_normal((3, 5, 2))
        for mode in ("direct", "state"):
            calls.clear()
            self.one_call_a_layer(calls, list(unroll(weights, biases, "tanh", x0, "ck", 2, 0.5, mode)))

    def test_window_built_from_activations_alone_evaluates_every_lag(self, calls):
        fs = [random_forcing(1, seed=s) for s in range(3)]
        lags = [np.array([v]) for v in (1.0, 2.0, 3.0)]
        dense_direct_step(fs, LayerHistory(lags), dl=0.5)
        assert [c.tobytes() for c in calls] == [np.tanh(x @ f.weight.T + f.bias).tobytes() for f, x in zip(fs, lags)]


class TestWidthOne:
    """A width-1 ``unroll`` forms every forcing as the broadcast x·w_l + (b_l +
    0.0) on 0-d operands, ``affine``'s one-row product: bitwise act(x @ w.T + b)
    and ``affine``'s values, and each stencil sum bitwise the chained
    expression."""

    FAMILIES = [("c0", 1), ("ck", 1), ("ck", 2), ("ck", 3), ("dense", 1), ("dense", 2), ("dense", 3)]

    @pytest.mark.parametrize("family,k", FAMILIES)
    @pytest.mark.parametrize("mode", ["direct", "state"])
    @pytest.mark.parametrize("x_shape", [(1,), (1, 1), (7, 1), (128, 1), (3,), (5, 3)],
                             ids=["vector", "one-row", "rows-7", "rows-128", "width-3", "width-3-rows"])
    def test_records_are_their_affine_references(self, family, k, mode, x_shape):
        """Each layer against ``affine`` and the chained step on the layer
        before's record, on ``ONE_ROW_ENTRIES``: odd seeds draw distinct NaN
        payloads on x_0, the weights and the biases. Where a width-1 product or
        bias sum has NaNs on both sides, only NaN-ness is compared (README,
        "Numerical contracts"); a NaN carried into a stencil keeps its bits."""
        d, depth = x_shape[-1], 5
        for seed in range(6):
            rng = np.random.default_rng(seed)
            draws = [((depth, d, d), 0x22), ((depth, d), 0x33), (x_shape, 0x11)]
            if seed % 2:
                weights, biases, x0 = (with_nans(rng, shape, payload) for shape, payload in draws)
            else:
                weights, biases, x0 = (rng.choice(ONE_ROW_ENTRIES, size=shape) for shape, _ in draws)
            dl = (1.0, 0.5, 0.3)[seed % 3]
            with np.errstate(all="ignore"):
                records = list(unroll(weights, biases, "tanh", x0, family, k, dl, mode))
                differences = [np.zeros(x_shape)] * k
                for layer, (weight, bias) in enumerate(zip(weights, biases)):
                    x, got = records[layer].x, records[layer + 1]
                    want = affine(x, weight, bias, "tanh")
                    two_nans = np.zeros(x_shape, bool)
                    if d == 1:
                        two_nans = (np.isnan(x) & np.isnan(weight[0, 0])) | (np.isnan(x * weight[0, 0]) & np.isnan(bias[0]))
                    assert (np.isnan(got.force) == np.isnan(want)).all(), (seed, layer)
                    assert got.force[~two_nans].tobytes() == want[~two_nans].tobytes(), (seed, layer)
                    forced = [lambda _, y=r.force: y for r in records[1 : layer + 2]]  # f_0..f_l, as recorded
                    if family == "c0":
                        parts = [got.force]
                    elif mode == "direct":
                        history = [records[max(layer - j, 0)].x for j in range(k)]
                        if family == "ck":
                            parts = [chained_ck_direct(forced[-1], history, k, dl)]
                        else:
                            window = [forced[layer - j] if layer >= j else None for j in range(k)]
                            parts = [chained_dense_direct(window, history, dl)]
                    elif family == "ck":
                        parts = chained_ck_state(forced[-1], records[layer].state, k, dl)
                    else:
                        parts, differences = chained_dense_state(forced[-1], records[layer].state, differences, dl)
                    assert got.x.tobytes() == parts[0].tobytes(), (seed, layer)
                    if mode == "state":
                        assert [p.tobytes() for p in got.state] == [p.tobytes() for p in parts], (seed, layer)

    @pytest.mark.parametrize("family,k", [("c0", 1), ("ck", 2), ("dense", 2)])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_forcing_is_the_matmul_with_negative_zero_biases(self, family, k, mode):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            weights = rng.choice([0.0, -0.0, 1.5, -1.5], size=(6, 1, 1))
            biases = rng.choice([0.0, -0.0], size=(6, 1))
            x0 = rng.choice([0.0, -0.0, 0.5], size=(8, 1))
            trace = Trace.from_layers(unroll(weights, biases, "tanh", x0, family, k, 0.5, mode))
            for layer, (weight, bias) in enumerate(zip(weights, biases)):
                expected = np.tanh(trace.activations[layer] @ weight.T + bias)
                assert trace.forcing[layer].tobytes() == expected.tobytes(), (seed, layer)

    @staticmethod
    def float64_scalar_records(weights, biases, x0, family, k, dl, mode):
        """(x, force, state) of each layer of a tanh ``unroll`` at width 1, as
        chained out-of-place expressions on float64 scalars: the forcing
        tanh(x * w_l + (b_l + 0.0)), then the family's ``_direct_terms`` sum in
        table order (a unit coefficient adds its term without a multiply) or
        its state step, ck's suffix sum from q_k + dl^k·f up and dense's
        running differences from f·dl."""
        f64 = np.float64
        xs, forces, records = [x0], [], [(x0, None, None)]
        parts, differences = (x0,) + (np.zeros(x0.shape),) * (k - 1), (np.zeros(x0.shape),) * k
        for layer, (w, b) in enumerate(zip(weights.reshape(-1), biases.reshape(-1))):
            force = np.tanh((parts[0] if mode == "state" else xs[-1]) * f64(w) + (f64(b) + 0.0))
            forces.append(force)
            if mode == "direct":
                x = None
                for c, j, forcing in architectures._direct_terms(family, k, dl):
                    if forcing and j > layer:
                        continue
                    term = forces[layer - j] if forcing else xs[max(layer - j, 0)]
                    term = term if c == 1 else f64(c) * term
                    x = term if x is None else x + term
                xs.append(x)
                records.append((x, force, None))
                continue
            if family == "ck":
                suffix = [parts[-1] + force if dl**k == 1 else parts[-1] + f64(dl**k) * force]
                for part in reversed(parts[:-1]):
                    suffix.append(part + suffix[-1])
                parts = tuple(reversed(suffix))
            elif family == "dense":
                current = [force * f64(dl)]
                for before in differences[:-1]:
                    current.append(current[-1] - before)
                differences = tuple(current)
                parts = tuple(part + d for part, d in zip(parts, differences))
            else:
                parts = (force,)
            records.append((parts[0], force, parts))
        return records

    @pytest.mark.parametrize("family,k", [("c0", 1), *(("ck", k) for k in (1, 2, 3, 4)), ("dense", 2), ("dense", 3)])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    @pytest.mark.parametrize("x_shape", [(1,), (1, 1), (160, 1)], ids=["vector", "one-row", "rows-160"])
    def test_records_are_the_float64_scalar_expressions(self, family, k, mode, x_shape):
        """``unroll``'s 0-d operands give the bits of float64 scalars, on
        ``ONE_ROW_ENTRIES`` and on NaNs of distinct payloads on both sides of a
        product or sum, where numpy's loop picks which payload survives. A
        one-element x_0 keeps every sum out of place."""
        for seed in range(8):
            rng = np.random.default_rng(seed)
            draws = [((6, 1, 1), 0x22), ((6, 1), 0x33), (x_shape, 0x11)]
            if seed % 2:
                weights, biases, x0 = (with_nans(rng, shape, payload) for shape, payload in draws)
            else:
                weights, biases, x0 = (rng.choice(ONE_ROW_ENTRIES, size=shape) for shape, _ in draws)
            dl = (1.0, 0.5, 0.3, 1.5)[seed % 4]
            with np.errstate(all="ignore"):
                got = list(unroll(weights, biases, "tanh", x0, family, k, dl, mode))
                want = self.float64_scalar_records(weights, biases, x0, family, k, dl, mode)
            assert len(got) == len(want) == 7
            for layer, (record, (x, force, state)) in enumerate(zip(got, want)):
                assert record.x.tobytes() == x.tobytes(), (seed, layer)
                assert (record.force is None) == (force is None), (seed, layer)
                if force is not None:
                    assert record.force.tobytes() == force.tobytes(), (seed, layer)
                if mode == "state" and layer:
                    assert [p.tobytes() for p in record.state] == [p.tobytes() for p in state], (seed, layer)

    @pytest.mark.parametrize("family,k", [("c0", 1), ("ck", 2), ("ck", 3), ("dense", 2)])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    @pytest.mark.parametrize("batch", [1, 160])
    def test_logits_are_the_float64_scalar_expressions(self, family, k, mode, batch):
        """``infer`` on special blocks and a head of two NaN payloads: the head
        ``x.T * W + (b + 0.0)`` on the last of the float64-scalar records."""
        net = Network(NetworkConfig(family, k, depth=6, width=1, input_dim=1, num_classes=3, dl=0.5, seed=k))
        for seed in range(6):
            rng = np.random.default_rng(seed)
            if seed % 2:
                net.block_weight.data, net.block_bias.data = with_nans(rng, (6, 1, 1), 0x22), with_nans(rng, (6, 1), 0x33)
            else:
                net.block_weight.data = rng.choice(ONE_ROW_ENTRIES, size=(6, 1, 1))
                net.block_bias.data = rng.choice(ONE_ROW_ENTRIES, size=(6, 1))
            net.head_weight.data, net.head_bias.data = with_nans(rng, (3, 1), 0x44), with_nans(rng, 3, 0x55)
            inputs = rng.choice(ONE_ROW_ENTRIES, size=(batch, 1))
            with np.errstate(all="ignore"):
                x0 = affine(inputs, net.embed_weight.data, net.embed_bias.data)
                last = self.float64_scalar_records(net.block_weight.data, net.block_bias.data, x0, family, k, 0.5,
                                                   mode)[-1][0]
                want = (last.T * net.head_weight.data + (net.head_bias.data + 0.0)[:, None]).T
                assert net.infer(inputs, mode).tobytes() == want.tobytes(), seed

    def test_a_cached_coefficient_cannot_be_written(self):
        terms = architectures._scaled_terms(architectures._direct_terms("ck", 2, 0.5))
        scales = [c for c, _, _ in terms if c is not None]
        assert [c.shape for c in scales] == [(), (), ()]
        for c in scales:
            with pytest.raises(ValueError, match="read-only"):
                c[...] = 1.0
        assert [float(c) for c in scales] == [0.25, 2.0, -1.0]


class TestClassMajorHead:
    """At every width, ``forward`` and ``infer`` form a batch's head
    class-major, one row per class, through one ``_head``: bitwise
    ``affine``'s values, returned as an F-contiguous [batch, classes] array.
    An unbatched input keeps ``affine``'s [classes] vector."""

    @staticmethod
    def network(classes):
        net = Network(NetworkConfig("ck", 2, depth=6, width=1, input_dim=1, num_classes=classes, dl=0.2,
                                    seed=classes))
        # weights of both signs against -0.0 biases: a zero activation gives
        # products of either sign, and (±0 product) + (-0.0 + 0.0) is +0
        net.head_weight.data = np.linspace(-1.0, 1.0, classes)[:, None]
        net.head_bias.data = np.where(np.arange(classes) % 2, 0.25, -0.0)
        return net

    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_logits_are_forward_bitwise_and_class_major(self, classes, mode):
        net = self.network(classes)
        x = np.random.default_rng(classes).standard_normal((64, 1))
        x[::5] = 0.0  # at zero biases a zero input keeps a zero trajectory
        logits, trained = net.infer(x, mode=mode), net.forward(x, mode=mode).data
        assert logits.shape == (64, classes) and logits.flags.f_contiguous and trained.flags.f_contiguous
        assert logits.tobytes() == trained.tobytes()
        last = list(net.layers(x, mode))[-1].x
        assert logits.tobytes() == affine(last, net.head_weight.data, net.head_bias.data).tobytes()
        assert np.signbit(logits[::5, 0]).sum() == 0

    @pytest.mark.parametrize("width", [2, 5, 64])
    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_wider_logits_are_forward_bitwise_and_class_major(self, width, classes, mode):
        net = Network(NetworkConfig("ck", 2, depth=3, width=width, input_dim=3, num_classes=classes, dl=0.2,
                                    seed=width))
        net.head_bias.data = np.random.default_rng(classes).standard_normal(classes)
        for batch in (1, 64, 500):
            x = np.random.default_rng(batch).standard_normal((batch, 3))
            logits, trained = net.infer(x, mode=mode), net.forward(x, mode=mode).data
            assert logits.shape == (batch, classes) and logits.flags.f_contiguous and trained.flags.f_contiguous
            assert logits.tobytes() == trained.tobytes()
            last = list(net.layers(x, mode))[-1].x
            assert logits.tobytes() == affine(last, net.head_weight.data, net.head_bias.data).tobytes(), batch

    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_unbatched_input_gives_a_class_vector(self, classes, mode):
        net = self.network(classes)
        for x in (np.zeros(1), np.array([0.7])):
            logits = net.infer(x, mode=mode)
            assert logits.shape == (classes,)
            assert logits.tobytes() == net.forward(x, mode=mode).data.tobytes()

    # NaNs of both signs and two payloads
    NANS = np.frombuffer(np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000001234],
                                  dtype=np.uint64).tobytes(), dtype=np.float64)
    FINITE = np.array([0.0, -0.0, 1.5, -1.5, 5e-324, 1e308, -1e308])
    ENTRIES = np.concatenate([FINITE, [np.inf, -np.inf]])

    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("nan_in", ["activation", "weight", "bias"])
    def test_head_on_special_activations(self, classes, nan_in):
        # NaNs on one side of each product and sum, whose bits do not depend
        # on which operand numpy's loop puts first
        net = self.network(classes)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            # a NaN bias only on finite products: 0·inf would make a NaN there
            entries = self.FINITE if nan_in == "bias" else self.ENTRIES
            x, weight = rng.choice(entries, size=(33, 1)), rng.choice(entries, size=(classes, 1))
            bias = rng.choice(np.array([0.0, -0.0, 0.5]), size=classes)
            target = {"activation": x, "weight": weight, "bias": bias}[nan_in]
            mask = rng.random(target.shape) < 0.3
            target[mask] = rng.choice(self.NANS, size=int(mask.sum()))
            net.head_weight.data, net.head_bias.data = weight, bias
            net.layers = lambda inputs, mode="direct": iter([architectures.LayerRecord(x, None, None)])
            with np.errstate(all="ignore"):
                logits = net.infer(np.zeros((33, 1)))
                assert logits.tobytes() == net.forward(np.zeros((33, 1))).data.tobytes(), seed

    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_head_is_its_expression_on_nans_on_both_sides(self, classes):
        # which NaN a product or sum of two NaNs keeps depends on numpy's
        # loop, so there the head is pinned to its stated operand order
        net = self.network(classes)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x, weight, bias = (rng.choice(self.NANS, size=shape) for shape in ((33, 1), (classes, 1), (classes,)))
            net.head_weight.data, net.head_bias.data = weight, bias
            net.layers = lambda inputs, mode="direct": iter([architectures.LayerRecord(x, None, None)])
            with np.errstate(all="ignore"):
                want = (x.T * weight + (bias + 0.0)[:, None]).T.tobytes()
                assert net.infer(np.zeros((33, 1))).tobytes() == want, seed
                assert net.forward(np.zeros((33, 1))).data.tobytes() == want, seed


class TestStackedForcing:
    def test_maps_each_member_of_a_stack(self):
        weights, biases = np.zeros((2, 4, 3, 3)), np.zeros((2, 4, 3))
        for x0 in (np.ones((4, 1, 3)), np.ones((4, 5, 3))):
            records = list(unroll(weights, biases, "tanh", x0, "c0", 1, 1.0, "direct"))
            assert [r.force.shape for r in records[1:]] == [x0.shape] * 2
            assert records[-1].x.shape == x0.shape

    @pytest.mark.parametrize(
        "w_shape,b_shape",
        [
            ((2, 4, 3, 2), (2, 4, 2)),
            ((2, 4, 3, 3), (2, 3)),
            ((2, 4, 3, 3), (2, 5, 3)),
            ((2, 3, 3), (2, 4, 3)),
            ((3, 3), (3,)),
            ((2, 3, 3), (3, 3)),
        ],
    )
    def test_rejects_a_stack_that_does_not_match(self, w_shape, b_shape):
        layers = unroll(np.zeros(w_shape), np.zeros(b_shape), "tanh", np.ones(3), "ck", 2, 1.0, "direct")
        with pytest.raises(ShapeError):
            next(layers)

    @pytest.mark.parametrize(
        "w_shape,x_shape",
        [
            ((2, 3, 3), (2,)),
            ((2, 3, 3), (4, 2)),
            ((2, 3, 3), ()),
            ((2, 3, 3), (1, 4, 3)),
            ((0, 3, 3), (2,)),
            ((2, 4, 3, 3), (3,)),
            ((2, 4, 3, 3), (5, 3)),
            ((2, 4, 3, 3), (4, 2)),
            ((2, 4, 3, 3), (1, 4, 3, 3)),
            ((2, 4, 3, 3), (4, 3)),  # an unbatched member is a one-row batch, [E, 1, d]
        ],
    )
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_rejects_an_input_that_does_not_match_the_stack(self, w_shape, x_shape, mode):
        layers = unroll(np.zeros(w_shape), np.zeros(w_shape[:-1]), "tanh", np.ones(x_shape), "ck", 2, 1.0, mode)
        with pytest.raises(ShapeError, match=r"^x_0 of shape .*, or \[E, batch, d\] when stacked$"):
            next(layers)  # before the record of x_0

    def test_unroll_rejects_an_unknown_activation(self):
        with pytest.raises(ValueError, match="relu6"):
            list(unroll(np.zeros((1, 3, 3)), np.zeros((1, 3)), "relu6", np.ones(3), "ck", 1, 1.0, "direct"))

    BAD_BLOCKS = [
        ("conv", 1, 1.0), ("ck", 0, 1.0), ("dense", 0, 1.0), ("c0", 3, 1.0), ("ck", 65, 1.0),
        ("ck", 2, -0.5), ("dense", 2, 0.0), ("c0", 1, math.nan), ("ck", 2, 1e308),
        ("ck", 2.0, 1.0), ("dense", "2", 1.0), ("ck", 2, "1"), ("ck", 2, True), ("dense", 3, False),
    ]

    @pytest.mark.parametrize("family,k,dl", BAD_BLOCKS, ids=[f"{f}-{k!r}-{dl!r}" for f, k, dl in BAD_BLOCKS])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_unroll_refuses_the_blocks_a_config_refuses(self, family, k, dl, mode):
        with pytest.raises((ValueError, TypeError)) as refused:
            NetworkConfig(family, k, depth=4, width=3, input_dim=3, num_classes=2, dl=dl)
        layers = unroll(np.full((4, 3, 3), 0.1), np.zeros((4, 3)), "tanh", np.ones(3), family, k, dl, mode)
        with pytest.raises(type(refused.value), match=f"^{re.escape(str(refused.value))}$"):
            next(layers)  # before the record of x_0

    @pytest.mark.parametrize("family,k", [("ck", 2), ("ck", 3), ("dense", 2)])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_unroll_steps_a_fraction_dl_as_its_float(self, family, k, mode):
        rng = np.random.default_rng(k)
        weights, biases, x0 = rng.standard_normal((4, 3, 3)), rng.standard_normal((4, 3)), rng.standard_normal(3)
        runs = [[r.x.tobytes() for r in unroll(weights, biases, "tanh", x0, family, k, dl, mode)]
                for dl in (Fraction(1, 3), 1 / 3)]
        assert runs[0] == runs[1]


class TestConfigValidation:
    def test_bad_family(self):
        with pytest.raises(ValueError):
            NetworkConfig("conv", 1, 1, 1, 1, 2)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            NetworkConfig("ck", 0, 1, 1, 1, 2)

    @pytest.mark.parametrize("family", ["ck", "dense"])
    def test_order_above_the_binomial_cap(self, family):
        with pytest.raises(ValueError, match="order k must be <= 64, got 65"):
            NetworkConfig(family, 65, 1, 1, 1, 2)
        assert NetworkConfig(family, 64, 1, 1, 1, 2).k == 64

    def test_bad_dl(self):
        with pytest.raises(ValueError):
            NetworkConfig("ck", 1, 1, 1, 1, 2, dl=0.0)

    @pytest.mark.parametrize("dl", ["1", True, np.True_], ids=["str", "bool", "numpy-bool"])
    def test_non_numeric_dl_is_a_type_error(self, dl):
        with pytest.raises(TypeError, match=f"^dl must be a real number, got {re.escape(repr(dl))}$"):
            NetworkConfig("ck", 2, 3, 2, 2, 2, dl=dl)

    @pytest.mark.parametrize("name", ["k", "depth", "width", "input_dim", "num_classes"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", None, True, np.True_],
                             ids=["fraction", "whole-float", "str", "none", "bool", "numpy-bool"])
    def test_non_integer_size_is_a_type_error(self, name, value):
        sizes = dict(k=2, depth=3, width=2, input_dim=2, num_classes=2)
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            NetworkConfig("ck", **{**sizes, name: value})

    @pytest.mark.parametrize("seed", [2.5, 2.0, "2", None, False], ids=["fraction", "whole-float", "str", "none", "bool"])
    def test_non_integer_seed_is_a_type_error_when_the_config_is_built(self, seed):
        with pytest.raises(TypeError, match=f"^seed must be an integer, got {seed!r}$"):
            NetworkConfig("ck", 2, 3, 2, 2, 2, seed=seed)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_is_a_value_error_when_the_config_is_built(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be >= 0, got {seed}$"):
            NetworkConfig("ck", 2, 3, 2, 2, 2, seed=seed)

    @pytest.mark.parametrize("seed", [0, np.uint32(2**32 - 1), 2**70])
    def test_any_non_negative_integer_seed_builds(self, seed):
        assert Network(NetworkConfig("ck", 2, 3, 2, 2, 2, seed=seed)).infer(np.ones(2)).shape == (2,)

    def test_integer_types_are_accepted(self):
        config = NetworkConfig("ck", np.int64(2), np.int32(3), 2, 2, 2)
        assert Network(config).infer(np.ones(2)).shape == (2,)

    @pytest.mark.parametrize("family,k,dl", [("ck", 2, 1e308), ("dense", 3, 1e103), ("ck", 1, np.inf)])
    def test_dl_whose_kth_power_is_not_finite(self, family, k, dl):
        with pytest.raises(ValueError, match=r"dl\*\*k overflows"):
            NetworkConfig(family, k, 1, 1, 1, 2, dl=dl)
        assert NetworkConfig(family, k, 1, 1, 1, 2, dl=1e102).dl == 1e102

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            NetworkConfig("ck", 1, 1, 1, 1, 2, activation="relu6")

    @pytest.mark.parametrize("family,k", [("c0", 1), ("ck", 2), ("dense", 2)])
    def test_fraction_dl_trains_as_its_float(self, family, k):
        rng = np.random.default_rng(k)
        x, y = rng.standard_normal((6, 2)), np.array([0, 1, 1, 0, 1, 0])
        runs = []
        for dl in (Fraction(1, 2), 0.5):
            net = Network(NetworkConfig(family, k, depth=3, width=2, input_dim=2, num_classes=2, dl=dl, seed=5))
            assert net.config.dl == 0.5 and type(net.config.dl) is float
            run = [net.forward(x).data] + TestAdjoint.gradients(net, x, y)
            metrics = train(net, Dataset(x, y, 2), TrainConfig(epochs=1, batch_size=4, learning_rate=0.01))
            run += [np.array([metrics[0].train_loss, metrics[0].train_acc])] + [p.data for p in net.parameters()]
            runs.append([a.tobytes() for a in run])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("k,dl", [(np.int64(2), 1e200), (np.int32(3), np.float64(1e103))])
    def test_numpy_numbers_overflow_without_a_warning(self, k, dl):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"dl\*\*k overflows"):
                NetworkConfig("ck", k, 1, 1, 1, 2, dl=dl)

    def test_dl_past_the_float_range_overflows(self):
        with pytest.raises(ValueError, match=r"dl\*\*k overflows"):
            NetworkConfig("ck", 1, 1, 1, 1, 2, dl=10**400)

    @pytest.mark.parametrize("depth", [0, 1, 5])
    def test_parameters_are_six_fixed_arrays(self, depth):
        net = Network(NetworkConfig("dense", 3, depth=depth, width=4, input_dim=2, num_classes=3))
        expected = [
            ("embed.weight", (4, 2)),
            ("embed.bias", (4,)),
            ("blocks.weight", (depth, 4, 4)),
            ("blocks.bias", (depth, 4)),
            ("head.weight", (3, 4)),
            ("head.bias", (3,)),
        ]
        assert [(p.name, p.shape) for p in net.parameters()] == expected

    @pytest.mark.parametrize("depth", [0, 1, 5])
    @pytest.mark.parametrize("width", [1, 3])
    def test_stacked_init_is_the_per_layer_draws(self, depth, width):
        net = Network(NetworkConfig("ck", 2, depth=depth, width=width, input_dim=4, num_classes=3, seed=7))
        rng = np.random.default_rng(7)
        embed = architectures._init_weight(rng, (width, 4))
        layers = [architectures._init_weight(rng, (width, width)) for _ in range(depth)]
        head = architectures._init_weight(rng, (3, width))
        assert net.embed_weight.data.tobytes() == embed.tobytes()
        assert [w.tobytes() for w in net.block_weight.data] == [w.tobytes() for w in layers]
        assert net.head_weight.data.tobytes() == head.tobytes()
        assert not np.any(net.block_bias.data)

    def test_parameter_names_unique(self):
        net = Network(NetworkConfig("ck", 2, 3, 2, 2, 2))
        names = [p.name for p in net.parameters()]
        assert len(names) == len(set(names))
