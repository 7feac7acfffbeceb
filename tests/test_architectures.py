import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cknet import architectures, tensor
from cknet.architectures import (
    Network,
    NetworkConfig,
    Trace,
    c1_step,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
    unroll,
    weight_matrix_ratio,
)
from cknet.dynamics import backward_diff_power, build_ck_matrices
from cknet.tensor import GraphError, ShapeError, affine
from cknet.training import evaluate, softmax_cross_entropy
from helpers import (
    LayerHistory,
    Layer,
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
    stacked,
    unrolled,
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
        stepped = dense_state_step([f0, f1], StateVector(q_parts), 2, dl)
        x_now = q_parts[0]
        x_prev = q_parts[0] - q_parts[1]
        f_now = np.tanh(f0.weight @ x_now + f0.bias) * dl
        f_prev = np.tanh(f1.weight @ x_prev + f1.bias) * dl
        assert np.allclose(stepped.parts[1] - q_parts[1], f_now - f_prev, rtol=0, atol=1e-15)

    def test_state_step_matches_dense_matrix_oracle(self):
        # evaluate the block-matrix form explicitly on the expanded state
        from cknet.dynamics import binomial_invert, build_dense_matrices

        k, d, dl = 4, 3, 0.5
        fs = [random_forcing(d, seed=300 + i) for i in range(k)]
        rng = np.random.default_rng(33)
        parts = [rng.standard_normal(d) for _ in range(k)]
        stepped = dense_state_step(fs, StateVector(parts), k, dl)

        transition, forcing = build_dense_matrices(k)
        lags = binomial_invert(parts)
        pushes = np.concatenate([np.tanh(f.weight @ lag + f.bias) * dl for f, lag in zip(fs, lags)])
        expected = expand(transition, d) @ np.concatenate(parts) + expand(forcing, d) @ pushes
        assert np.allclose(np.concatenate(stepped.parts), expected, rtol=0, atol=1e-12)

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

    def test_insufficient_trajectory_rejected(self):
        with pytest.raises(IndexError):
            identity_holds([np.zeros(1)] * 2, [np.zeros(1)], 3, 1.0)

    @pytest.mark.parametrize("family", ["dense", "ck"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(3,), (4, 3)])
    def test_verdict_matches_per_layer_loop_at_the_tolerance(self, family, k, shape):
        fs = [random_forcing(3, seed=300 + 10 * k + i, activation="sigmoid") for i in range(7)]
        x0 = np.random.default_rng(k).standard_normal(shape)
        xs, forcing, _ = unrolled(fs, x0, family, k, 0.5, "direct")
        for n in range(k):
            worst = identity_gap(xs, forcing, n, 0.5)
            below = np.nextafter(worst, -np.inf)
            for trajectory, values in ((xs, forcing), (np.stack(xs), np.stack(forcing))):
                assert identity_holds(trajectory, values, n, 0.5, tol=worst)
                assert not identity_holds(trajectory, values, n, 0.5, tol=below)


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
    force = f(parts[0]) * (dl**k)
    new_parts = []
    for n in range(k):
        acc = parts[n]
        for m in range(n + 1, k):
            acc = acc + parts[m]
        new_parts.append(acc + force)
    return new_parts


def chained_dense_direct(fs, history, dl):
    k = len(history)
    out = history[k - 1]
    for j in reversed(range(k)):
        if fs[j] is not None:
            out = out + fs[j](history[j]) * dl
    return out


def chained_dense_state(fs, parts, k, dl):
    from cknet.dynamics import alternating_binomial_row, binomial_invert

    lags = binomial_invert(parts)
    pushes = [None if f is None else f(lag) * dl for f, lag in zip(fs, lags)]
    new_parts = []
    for n in range(k):
        acc = parts[n]
        for j, c in enumerate(alternating_binomial_row(n)):
            if pushes[j] is not None:
                acc = acc + (pushes[j] if c == 1 else c * pushes[j])
        new_parts.append(acc)
    return new_parts


class TestFusedSteps:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_dense_steps_bitwise_equal_chained_formula(self, k):
        fs = [random_forcing(3, seed=70 + i) for i in range(6)]
        x0 = np.random.default_rng(k).standard_normal((2, 3))
        history, q = LayerHistory.ghost(x0, k), initialize_state(x0, k)
        for layer in range(len(fs)):
            window = [fs[layer - j] if layer - j >= 0 else None for j in range(k)]
            expected = chained_dense_direct(window, history, 0.5)
            x, history = dense_direct_step(window, history, 0.5)
            assert x.tobytes() == expected.tobytes()
            expected_parts = chained_dense_state(window, q.parts, k, 0.5)
            q = dense_state_step(window, q, k, 0.5)
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
    parts = [x] + [np.zeros_like(x) for _ in range(k - 1)]
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
            parts = chained_dense_state(window, parts, k, dl)
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
        for layer, f in enumerate(fs):
            window = [fs[layer - j] if layer >= j else None for j in range(k)]
            if mode == "state":
                q = ck_state_step(f, q, k, 0.5) if family == "ck" else dense_state_step(window, q, k, 0.5)
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
    def test_dense_gradients_are_ck1_gradients(self, k, activation, mode):
        # the two networks are one function of the parameters, so their
        # gradients agree; the adjoints sum different terms to get them
        x, y = np.random.default_rng(k).standard_normal((5, 4)), np.array([0, 2, 1, 1, 0])
        dense, residual = (
            Network(NetworkConfig(family, order, depth=6, width=3, input_dim=4, num_classes=3, dl=0.5,
                                  activation=activation, seed=12))
            for family, order in (("dense", k), ("ck", 1))
        )
        for p, a, b in zip(dense.parameters(), TestAdjoint.gradients(dense, x, y, mode),
                           TestAdjoint.gradients(residual, x, y, mode)):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-14), p.name


def layer_calls(calls, weights):
    """How often each of ``weights``' layers was mapped, from ``calls``."""
    return [calls.get(w.ctypes.data, 0) for w in weights]


class TestForcingEvaluatedOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of the kernel ``tensor._affine``, which ``unroll`` looks up
        when it starts and ``affine`` runs, by the address of their weight: a
        layer of a block stack, transposed or not, is a view of its own part
        of the stack's buffer."""
        counts = {}
        original = tensor._affine

        def counting(x, weight_t, bias, act):
            counts[weight_t.ctypes.data] = counts.get(weight_t.ctypes.data, 0) + 1
            return original(x, weight_t, bias, act)

        monkeypatch.setattr(tensor, "_affine", counting)
        return counts

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("record", [False, True])
    def test_dense_direct_calls_each_block_once(self, calls, k, record):
        net = Network(NetworkConfig("dense", k=k, depth=6, width=3, input_dim=2, num_classes=2, seed=k))
        x = np.random.default_rng(k).standard_normal((4, 2))
        if record:
            trace = Trace.from_layers(net.layers(x))
        else:
            net.forward(x)
        assert layer_calls(calls, net.block_weight.data) == [1] * 6
        if record:
            for layer, (weight, bias) in enumerate(zip(net.block_weight.data, net.block_bias.data)):
                expected = np.tanh(trace.activations[layer] @ weight.T + bias)
                assert trace.forcing[layer].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("family,k", [("c0", 1), ("ck", 3), ("dense", 3)])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_record_mode_adds_no_forcing_calls(self, calls, family, k, mode):
        net = Network(NetworkConfig(family, k=k, depth=5, width=3, input_dim=2, num_classes=2, seed=2))
        x = np.random.default_rng(2).standard_normal((4, 2))
        net.forward(x, mode=mode)
        plain_calls = layer_calls(calls, net.block_weight.data)
        # the dense state form evaluates layer m's map on the lags of layers m..m+k-1
        assert plain_calls == ([3, 3, 3, 2, 1] if (family, mode) == ("dense", "state") else [1] * 5)
        calls.clear()
        trace = Trace.from_layers(net.layers(x, mode))
        assert layer_calls(calls, net.block_weight.data) == plain_calls
        assert len(trace.forcing) == 5

    def test_window_built_from_activations_alone_evaluates_every_lag(self, calls):
        fs = [random_forcing(1, seed=s) for s in range(3)]
        history = LayerHistory([np.array([float(v)]) for v in (1.0, 2.0, 3.0)])
        dense_direct_step(fs, history, dl=0.5)
        assert layer_calls(calls, [f.weight for f in fs]) == [1, 1, 1]


class TestCheckpoint:
    def test_roundtrip_is_bitwise(self, tmp_path):
        net = Network(NetworkConfig("dense", k=3, depth=4, width=5, input_dim=6, num_classes=4, dl=0.5, seed=11))
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert a.name == b.name
            assert a.data.tobytes() == b.data.tobytes()

    def test_loaded_network_reproduces_outputs(self, tmp_path):
        net = Network(NetworkConfig("ck", k=2, depth=3, width=4, input_dim=3, num_classes=2, seed=12))
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        x = np.random.default_rng(1).standard_normal((2, 3))
        assert np.array_equal(net.forward(x).data, load_checkpoint(path).forward(x).data)

    def test_truncated_payload_rejected(self, tmp_path):
        net = Network(NetworkConfig("ck", k=1, depth=1, width=2, input_dim=2, num_classes=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    @staticmethod
    def edited(raw, edit):
        """Checkpoint bytes ``raw`` after ``edit(header, payloads)``."""
        line, body = raw.split(b"\n", 1)
        header = json.loads(line)
        payloads, offset = [], 0
        for entry in header["params"]:
            n = 8 * math.prod(entry["shape"])
            payloads.append(body[offset : offset + n])
            offset += n
        edit(header, payloads)
        return json.dumps(header).encode() + b"\n" + b"".join(payloads)

    def rewrite(self, path, edit):
        """Apply ``edit(header, payloads)`` to a saved checkpoint."""
        path.write_bytes(self.edited(path.read_bytes(), edit))

    def saved(self, tmp_path):
        net = Network(NetworkConfig("ck", k=2, depth=2, width=3, input_dim=2, num_classes=2, seed=5))
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        return path

    def test_missing_parameter_rejected(self, tmp_path):
        path = self.saved(tmp_path)

        def drop_head_bias(header, payloads):
            i = [e["name"] for e in header["params"]].index("head.bias")
            del header["params"][i], payloads[i]

        self.rewrite(path, drop_head_bias)
        with pytest.raises(ValueError, match="head.bias"):
            load_checkpoint(path)

    def test_duplicate_parameter_rejected(self, tmp_path):
        path = self.saved(tmp_path)

        def repeat_first(header, payloads):
            header["params"].append(header["params"][0])
            payloads.append(payloads[0])

        self.rewrite(path, repeat_first)
        with pytest.raises(ValueError, match="twice"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite(path, lambda header, _: header["config"].update(momentum=0.9))
        with pytest.raises(ValueError, match="momentum"):
            load_checkpoint(path)

    def test_missing_or_mistyped_config_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite(path, lambda header, _: header["config"].pop("width"))
        with pytest.raises(ValueError, match="config"):
            load_checkpoint(path)
        path = self.saved(tmp_path)
        self.rewrite(path, lambda header, _: header["config"].update(k="2"))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("width", 2.5), ("depth", 2.0), ("num_classes", 3.0), ("seed", 1.5)])
    def test_non_integer_size_or_seed_is_a_bad_config(self, tmp_path, key, value):
        # rejected with the config, before the entries are compared with its shapes
        path = self.saved(tmp_path)
        self.rewrite(path, lambda header, _: header["config"].update({key: value}))
        with pytest.raises(ValueError, match="bad checkpoint config"):
            load_checkpoint(path)

    def test_header_line_is_bounded(self, tmp_path):
        path = tmp_path / "endless.bin"
        path.write_bytes(b"{" + b" " * (1 << 20) + b"}\n")
        with pytest.raises(ValueError, match="no header line"):
            load_checkpoint(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x01\x02 not a checkpoint\n12345")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        """A checkpoint file's path, its bytes and its parameter names."""
        path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
        net = Network(NetworkConfig("ck", k=2, depth=2, width=3, input_dim=2, num_classes=2, seed=5))
        save_checkpoint(net, path)
        return path, path.read_bytes(), [p.name for p in net.parameters()]

    @settings(max_examples=50, deadline=None)
    @given(fraction=st.floats(0, 1, exclude_max=True))
    def test_fuzz_truncation_at_any_offset_rejected(self, checkpoint, fraction):
        path, raw, _ = checkpoint
        path.write_bytes(raw[: int(fraction * len(raw))])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @settings(max_examples=50, deadline=None)
    @given(
        edit=st.sampled_from(["duplicate", "drop", "rename"]),
        index=st.integers(0, 5),
        new_name=st.one_of(
            st.sampled_from(["blocks.weight", "blocks.bias", "head.bias", "embed.bias", "block0.weight"]),
            st.text(max_size=12),
        ),
        with_payload=st.booleans(),
    )
    def test_fuzz_header_parameter_entries_rejected(self, checkpoint, edit, index, new_name, with_payload):
        path, raw, names = checkpoint
        assume(edit != "rename" or new_name != names[index])

        def mutate(header, payloads):
            entries = header["params"]
            if edit == "duplicate":
                entries.append(dict(entries[index]))
                payloads.append(payloads[index] if with_payload else b"")
            elif edit == "drop":
                del entries[index]
                if with_payload:
                    del payloads[index]
            else:
                entries[index]["name"] = new_name

        path.write_bytes(self.edited(raw, mutate))
        with pytest.raises(ValueError):
            load_checkpoint(path)


    def test_version_one_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite(path, lambda header, _: header.update(version=1))
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("listed", ["none", "all"])
    def test_header_checked_before_anything_is_allocated(self, tmp_path, monkeypatch, listed):
        # 298 GiB of parameters at width 200000, and no payload
        config = dict(family="ck", k=1, depth=1, width=200000, input_dim=2, num_classes=2, dl=1.0,
                      activation="tanh", seed=0)
        shapes = architectures._parameter_shapes(NetworkConfig(**config))
        entries = [] if listed == "none" else [{"name": n, "shape": list(s)} for n, s in shapes.items()]
        header = {"format": "cknet-checkpoint", "version": 2, "config": config, "params": entries}
        path = tmp_path / "huge.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n")

        def unbuilt(config):
            raise AssertionError("the network was built before the header was checked")

        monkeypatch.setattr(architectures, "Network", unbuilt)
        with pytest.raises(ValueError, match="lacks parameters" if listed == "none" else "truncated"):
            load_checkpoint(path)


class TestStackedForcing:
    def test_maps_each_member_of_a_stack(self):
        weights, biases = np.zeros((2, 4, 3, 3)), np.zeros((2, 4, 3))
        for x0 in (np.ones((4, 3)), np.ones((4, 5, 3))):
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
        ],
    )
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_rejects_an_input_that_does_not_match_the_stack(self, w_shape, x_shape, mode):
        layers = unroll(np.zeros(w_shape), np.zeros(w_shape[:-1]), "tanh", np.ones(x_shape), "ck", 2, 1.0, mode)
        with pytest.raises(ShapeError, match=r"^x_0 of shape"):
            next(layers)  # before the record of x_0

    def test_unroll_rejects_an_unknown_activation(self):
        with pytest.raises(ValueError, match="relu6"):
            list(unroll(np.zeros((1, 3, 3)), np.zeros((1, 3)), "relu6", np.ones(3), "ck", 1, 1.0, "direct"))


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

    @pytest.mark.parametrize("family,k,dl", [("ck", 2, 1e308), ("dense", 3, 1e103), ("ck", 1, np.inf)])
    def test_dl_whose_kth_power_is_not_finite(self, family, k, dl):
        with pytest.raises(ValueError, match=r"dl\*\*k overflows"):
            NetworkConfig(family, k, 1, 1, 1, 2, dl=dl)
        assert NetworkConfig(family, k, 1, 1, 1, 2, dl=1e102).dl == 1e102

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            NetworkConfig("ck", 1, 1, 1, 1, 2, activation="relu6")

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
        assert list(architectures._parameter_shapes(net.config).items()) == expected

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
