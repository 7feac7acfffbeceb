import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknet.tensor import (
    ACTIVATIONS,
    GraphError,
    Parameter,
    ShapeError,
    Tensor,
    affine,
    linear_combination,
)
from helpers import activated, central_difference, gradient_close


class TestMatmul:
    """The matrix product, which ``affine`` computes with a zero bias."""

    def test_identity(self):
        v = Tensor([1.0, 2.0, 3.0])
        out = affine(v, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, v.data)

    def test_hand_checked_2x2(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([1.0, 1.0])
        assert np.array_equal(affine(b, a, Tensor(np.zeros(2))).data, [3.0, 7.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))

    def test_requires_2d(self):
        with pytest.raises(ShapeError):
            affine(Tensor(np.zeros(3)), Tensor(np.zeros(3)), Tensor(np.zeros(1)))

    def test_gradient_of_sum_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        a_data = rng.standard_normal((4, 5))
        w_data = rng.standard_normal((2, 5))

        a, w = Tensor(a_data), Tensor(w_data)
        affine(a, w, Tensor(np.zeros(2))).sum().backward()
        # closed form: d(sum(a w^T))/da = ones(4,2) @ w
        assert np.allclose(a.grad, np.ones((4, 2)) @ w_data, rtol=1e-12)

        fd = central_difference(lambda: (a_data @ w_data.T).sum(), [a_data])[0]
        assert gradient_close(a.grad, fd, rtol=1e-6)


def identity_affine(x, activation):
    """``activation`` of x itself, as the fused ``affine`` with an identity map."""
    n = x.shape[-1]
    return affine(x, np.eye(n), np.zeros(n), activation)


class TestElementwise:
    @pytest.mark.parametrize("activation,x,y", [
        ("tanh", 0.0, 0.0), ("sigmoid", 0.0, 0.5), ("leaky_relu", -2.0, -0.2), ("leaky_relu", 3.0, 3.0),
    ])
    def test_activation_values(self, activation, x, y):
        assert identity_affine(np.array([x]), activation)[0] == y

    def test_scalar_broadcast(self):
        t = Tensor([1.0, 2.0]) + Tensor(1.0)
        assert np.array_equal(t.data, [2.0, 3.0])
        t = 2.0 * Tensor([1.0, 2.0])
        assert np.array_equal(t.data, [2.0, 4.0])

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2))) * Tensor(np.zeros(2))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3))
        w.sum().backward()
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_quadratic_form_gradient(self):
        w_data = np.array([[1.0, -2.0, 0.5]])
        w = Tensor(w_data)
        half_dot = affine(w, Tensor(w_data), Tensor(np.zeros(1))) * 0.5
        half_dot.backward()
        # grad of w.w/2 w.r.t. w is w; the transposed copy holds the rest
        assert np.allclose(w.grad, 0.5 * w_data)

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = rng.standard_normal((4, 3))
        b1 = rng.standard_normal(4)
        w2 = rng.standard_normal((1, 4))
        b2 = rng.standard_normal(1)
        x = rng.standard_normal(3)

        def loss_value():
            h = np.tanh(x @ w1.T + b1)
            return float((h @ w2.T + b2).sum())

        tw1, tb1, tw2, tb2 = Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2)
        out = affine(affine(Tensor(x), tw1, tb1, "tanh"), tw2, tb2).sum()
        out.backward()
        fds = central_difference(loss_value, [w1, b1, w2, b2])
        for tensor, fd in zip([tw1, tb1, tw2, tb2], fds):
            assert gradient_close(tensor.grad, fd, rtol=1e-5)

    def test_shared_node_sums_contributions(self):
        x = Tensor(3.0)
        (x + x).backward()
        assert x.grad == 2.0

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor([1.0, 2.0]).backward()

    def test_repeated_backward_rejected(self):
        root = Tensor(2.0) * Tensor(3.0)
        root.backward()
        with pytest.raises(GraphError, match="already ran"):
            root.backward()

    def test_cycle_detected(self):
        a = Tensor(1.0)
        b = a + 0.0
        a._parents = ((b, lambda g: g),)  # manual graph surgery
        with pytest.raises(GraphError, match="cycle"):
            b.backward()

    def test_visits_each_node_once(self):
        # diamond graph: y = (x + x) * (x + x); a naive traversal that
        # revisits shared nodes would double-count gradients
        x = Tensor(2.0)
        s = x + x
        (s * s).backward()
        assert s.grad == pytest.approx(8.0)  # d(s^2)/ds = 2s
        assert x.grad == pytest.approx(16.0)


class TestPurity:
    def test_operations_do_not_mutate_inputs(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 3)))
        b = Tensor(rng.standard_normal((3, 3)))
        before_a, before_b = a.data.copy(), b.data.copy()
        out = affine(a + b, b, Tensor(np.zeros(3))) * 0.5 + a * -1.0
        affine(out, b, Tensor(np.zeros(3)), "tanh").sum().backward()
        assert np.array_equal(a.data, before_a)
        assert np.array_equal(b.data, before_b)

    def test_outputs_are_finite_for_bounded_inputs(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-10, 10, size=(4, 4)))
        for activation in ACTIVATIONS:
            assert np.all(np.isfinite(identity_affine(x, activation).data))
        assert np.all(np.isfinite(affine(x, x, Tensor(np.zeros(4))).data))


def _random_op_case(op_name, rng):
    x_data = rng.standard_normal(5)
    if op_name == "add":
        y_data = rng.standard_normal(5)
        build = lambda x, y: (x + y).sum()
        ref = lambda: float((x_data + y_data).sum())
        return [x_data, y_data], build, ref
    if op_name == "mul":
        y_data = rng.standard_normal(5)
        build = lambda x, y: (x * y).sum()
        ref = lambda: float((x_data * y_data).sum())
        return [x_data, y_data], build, ref
    if op_name == "scale":
        build = lambda x: (x * 1.7).sum()
        ref = lambda: float((x_data * 1.7).sum())
        return [x_data], build, ref
    raise AssertionError(op_name)


@pytest.mark.parametrize("op_name", ["add", "mul", "scale"])
def test_gradients_match_finite_differences_100_seeds(op_name):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        arrays, build, ref = _random_op_case(op_name, rng)
        tensors = [Tensor(a) for a in arrays]
        build(*tensors).backward()
        fds = central_difference(ref, arrays)
        for t, fd in zip(tensors, fds):
            assert gradient_close(t.grad, fd), f"{op_name} seed {seed}"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
def test_tanh_gradient_identity_property(values):
    x = Tensor(np.array(values))
    out = identity_affine(x, "tanh")
    out.sum().backward()
    assert np.allclose(x.grad, 1.0 - out.data**2)


def test_parameter_carries_name():
    p = Parameter(np.zeros(3), name="w")
    assert p.name == "w"
    assert p.shape == (3,)


class TestConstants:
    """Operands that are not ``Tensor`` objects are constants: no edges, no grads."""

    def parents(self, t):
        return [parent for parent, _ in t._parents]

    def test_python_scalars_add_no_parent_edges(self):
        x = Tensor(np.array([1.0, -2.0]))
        for out in (x * 0.5, 0.5 * x, x + 1.0, 1.0 + x):
            assert self.parents(out) == [x]

    def test_int_stencil_coefficient_adds_no_parent_edge(self):
        x = Tensor(np.array([1.0, -2.0]))
        out = -2 * x
        assert self.parents(out) == [x]
        assert np.array_equal(out.data, [-2.0, 4.0])

    def test_numpy_array_operands_are_constants_on_either_side(self):
        x = Tensor(np.array([1.0, -2.0]))
        c = np.array([3.0, 4.0])
        for out in (x * c, c * x, c + x):
            assert isinstance(out, Tensor) and self.parents(out) == [x]
        assert np.array_equal((c * x).data, [3.0, -8.0])

    def test_affine_on_a_raw_input_batch_has_no_input_edge(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((5, 4))
        w, b = Tensor(rng.standard_normal((2, 4))), Tensor(np.zeros(2))
        out = affine(batch, w, b)
        assert self.parents(out) == [w, b]
        via_tensor = affine(Tensor(batch), w, b)
        assert out.data.tobytes() == via_tensor.data.tobytes()

    def test_network_input_batch_is_not_a_graph_node(self):
        from cknet.architectures import Network, NetworkConfig

        net = Network(NetworkConfig("ck", k=2, depth=2, width=3, input_dim=4, num_classes=2, seed=1))
        batch = np.random.default_rng(0).standard_normal((5, 4))  # no parameter is 5x4
        logits = net.forward(batch)
        stack, seen = [logits], set()
        while stack:
            node = stack.pop()
            for parent, _ in node._parents:
                assert parent.data is not batch and parent.shape != batch.shape
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)

    def test_constant_gradient_is_unchanged_for_the_tensor_operand(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        ((x * 2.0 + 1.0) * np.array([1.0, -1.0, 0.5])).sum().backward()
        assert np.array_equal(x.grad, [2.0, -2.0, 1.0])

    def test_tensor_operands_keep_their_gradients(self):
        x, c = Tensor(np.array([1.0, 2.0])), Tensor(3.0)
        (x * c).sum().backward()
        assert np.array_equal(x.grad, [3.0, 3.0]) and c.grad == 3.0

    def test_constant_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) + np.zeros(3)


class TestLinearCombination:
    def chained(self, terms):
        """The pre-fusion formula: constant ``*`` and ``+`` nodes, left to right."""
        (c, t), out = terms[0], None
        out = t if c == 1 else t * c
        for c, t in terms[1:]:
            out = out + (t if c == 1 else c * t)
        return out

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_forward_bitwise_equals_chained_stencil(self, k):
        from cknet.dynamics import mixed_diff_coefficients

        rng = np.random.default_rng(k)
        coeffs = mixed_diff_coefficients(k)
        for dl in (1.0, 0.5, 0.3):
            force = Tensor(rng.standard_normal((4, 3)))
            history = [Tensor(rng.standard_normal((4, 3))) for _ in range(k)]
            terms = [(dl**k, force)] + [(-coeffs[j], history[j - 1]) for j in range(1, k + 1)]
            fused = linear_combination(terms)
            assert fused.data.tobytes() == self.chained(terms).data.tobytes()
            assert len(fused._parents) == k + 1

    def test_gradients_are_the_coefficients(self):
        a, b = Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, -1.0]))
        linear_combination([(1, a), (-3, b), (2, a)]).sum().backward()
        assert np.array_equal(a.grad, [3.0, 3.0])
        assert np.array_equal(b.grad, [-3.0, -3.0])

    def test_single_unit_term_is_the_tensor_itself(self):
        a = Tensor(np.array([1.0]))
        assert linear_combination([(1, a)]) is a

    def test_shape_mismatch_and_empty_rejected(self):
        with pytest.raises(ShapeError):
            linear_combination([(1, Tensor(np.zeros(2))), (2, Tensor(np.zeros(3)))])
        with pytest.raises(ValueError):
            linear_combination([])


class TestConstantFolding:
    """With no ``Tensor`` operand, ``affine`` and ``linear_combination`` return
    the plain array value; mixed operands get edges for their Tensors only."""

    def parents(self, t):
        return [parent for parent, _ in t._parents]

    @pytest.mark.parametrize("activation", [None, "tanh", "sigmoid", "leaky_relu"])
    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((4,), (3, 4), (3,)),
        ((5, 4), (3, 4), (3,)),
        ((2, 3), (2, 3, 3), (2, 3)),
        ((2, 5, 3), (2, 3, 3), (2, 3)),
    ], ids=["vector", "batch", "stacked", "stacked-batch"])
    def test_constant_affine_is_the_graph_value(self, activation, x_shape, w_shape, b_shape):
        rng = np.random.default_rng(len(x_shape) + len(w_shape))
        x, w, b = rng.standard_normal(x_shape), rng.standard_normal(w_shape), rng.standard_normal(b_shape)
        folded = affine(x, w, b, activation)
        assert type(folded) is np.ndarray
        assert folded.tobytes() == affine(Tensor(x), Tensor(w), Tensor(b), activation).data.tobytes()

    def test_constant_linear_combination_is_the_graph_value(self):
        rng = np.random.default_rng(1)
        arrays = [rng.standard_normal((4, 3)) for _ in range(4)]
        for coeffs in ([0.125, -4, 6, -4], [1, -1, 1, 1], [0, 1, 2.5, -3]):
            folded = linear_combination(zip(coeffs, arrays))
            graph = linear_combination(zip(coeffs, map(Tensor, arrays)))
            assert type(folded) is np.ndarray and folded.tobytes() == graph.data.tobytes()
        assert linear_combination([(1, arrays[0])]) is arrays[0]
        with pytest.raises(ShapeError):
            linear_combination([(1, np.zeros(2)), (2, np.zeros(3))])

    def test_constant_block_matrix_apply_is_the_graph_value(self):
        from cknet.dynamics import build_ck_matrices, build_dense_matrices

        rng = np.random.default_rng(2)
        for k in (1, 2, 3, 4):
            for transition, coupling in (build_ck_matrices(k, 3), build_dense_matrices(k, 3)):
                parts = [rng.standard_normal((2, 3)) for _ in range(k)]
                inputs = [rng.standard_normal((2, 3)) for _ in range(k - 1)] + [None]
                folded = transition.apply(parts, coupling, inputs, 0.25)
                graph = transition.apply(
                    [Tensor(p) for p in parts], coupling, [None if u is None else Tensor(u) for u in inputs], 0.25
                )
                for a, t in zip(folded, graph):
                    assert type(a) is np.ndarray and a.tobytes() == t.data.tobytes()

    def test_mixed_linear_combination_has_edges_for_its_tensors_only(self):
        a, c = Tensor(np.array([1.0, 2.0])), np.array([3.0, -1.0])
        mixed = linear_combination([(1, a), (-3, c), (2, a)])
        assert self.parents(mixed) == [a, a]
        graph = linear_combination([(1, a), (-3, Tensor(c)), (2, a)])
        assert mixed.data.tobytes() == graph.data.tobytes()
        mixed.sum().backward()
        a_grad, a.grad = a.grad, None
        graph.sum().backward()
        assert a_grad.tobytes() == a.grad.tobytes()

    @pytest.mark.parametrize("tensors", ["x", "w", "b", "xw", "wb", "xb"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_mixed_affine_has_edges_for_its_tensors_only(self, tensors, stacked):
        rng = np.random.default_rng(len(tensors))
        lead = (2,) if stacked else ()
        arrays = {"x": rng.standard_normal((*lead, 4, 3)), "w": rng.standard_normal((*lead, 3, 3)),
                  "b": rng.standard_normal((*lead, 3))}
        weights = rng.standard_normal((*lead, 4, 3))

        def run(wrap):
            operands = {name: Tensor(a) if name in wrap else a for name, a in arrays.items()}
            out = affine(operands["x"], operands["w"], operands["b"], "tanh")
            assert self.parents(out) == [operands[name] for name in "xwb" if name in wrap]
            (out * weights).sum().backward()
            return out, {name: operands[name] for name in wrap}

        mixed, graded = run(tensors)
        full, every = run("xwb")
        assert mixed.data.tobytes() == full.data.tobytes()
        for name, t in graded.items():
            assert t.grad.tobytes() == every[name].grad.tobytes()


class TestFusedAffine:
    """``affine(x, W, b, activation)``: act(Wx+b) as one node."""

    NUMPY = {
        "tanh": np.tanh,
        "sigmoid": lambda z: 1 / (1 + np.exp(-z)),
        "leaky_relu": lambda z: np.where(z >= 0, z, 0.1 * z),
    }

    @staticmethod
    def case(shape, seed):
        # a case whose pre-activations stay off the leaky_relu kink
        while True:
            rng = np.random.default_rng(seed)
            x, w, b = rng.standard_normal(shape), rng.standard_normal((3, shape[-1])), rng.standard_normal(3)
            weights = rng.standard_normal((*shape[:-1], 3))
            if np.min(np.abs(x @ w.T + b)) > 1e-2:
                return x, w, b, weights
            seed += 1000

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "leaky_relu"])
    @pytest.mark.parametrize("shape", [(4,), (5, 4)])
    @pytest.mark.parametrize("x_is_constant", [False, True])
    def test_gradients_match_finite_differences(self, activation, shape, x_is_constant):
        x, w, b, weights = self.case(shape, seed=3)
        xt, wt, bt = (x if x_is_constant else Tensor(x)), Tensor(w), Tensor(b)
        (affine(xt, wt, bt, activation) * weights).sum().backward()
        act = self.NUMPY[activation]
        arrays = [w, b] if x_is_constant else [x, w, b]
        numeric = central_difference(lambda: float((act(x @ w.T + b) * weights).sum()), arrays)
        analytic = [wt.grad, bt.grad] if x_is_constant else [xt.grad, wt.grad, bt.grad]
        for got, fd in zip(analytic, numeric):
            assert gradient_close(got, fd)

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "leaky_relu"])
    @pytest.mark.parametrize("shape", [(4,), (5, 4)])
    @pytest.mark.parametrize("x_is_constant", [False, True])
    def test_bitwise_equal_to_affine_then_activation(self, activation, shape, x_is_constant):
        x, w, b, weights = self.case(shape, seed=5)

        def run(fused):
            xt, wt, bt = (x if x_is_constant else Tensor(x)), Tensor(w), Tensor(b)
            out = affine(xt, wt, bt, activation) if fused else activated(affine(xt, wt, bt), activation)
            (out * weights).sum().backward()
            grads = [wt.grad, bt.grad] + ([] if x_is_constant else [xt.grad])
            return [out.data.tobytes()] + [g.tobytes() for g in grads]

        assert run(fused=True) == run(fused=False)

    def test_is_one_node_over_x_weight_and_bias(self):
        x, w, b = Tensor(np.ones(2)), Tensor(np.eye(2)), Tensor(np.zeros(2))
        out = affine(x, w, b, "sigmoid")
        assert [p for p, _ in out._parents] == [x, w, b]
        assert np.array_equal(out.data, activated(affine(x, w, b), "sigmoid").data)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            affine(Tensor(np.ones(2)), Tensor(np.eye(2)), Tensor(np.zeros(2)), "relu6")


class TestStackedAffine:
    """``affine`` over E maps stacked on a leading member axis."""

    MEMBERS = 5

    @staticmethod
    def operands(d, batch, members, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((members, d) if batch is None else (members, batch, d))
        return x, rng.standard_normal((members, d, d)), rng.standard_normal((members, d))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("batch", [None, 32])
    @pytest.mark.parametrize("activation", [None, "tanh", "sigmoid", "leaky_relu"])
    def test_each_member_is_bitwise_its_own_affine(self, d, batch, activation):
        # results of the stacked battery rest on this; a BLAS that breaks it fails here
        x, w, b = self.operands(d, batch, self.MEMBERS, seed=d)
        y = affine(Tensor(x), Tensor(w), Tensor(b), activation).data
        assert y.shape == x.shape
        for e in range(self.MEMBERS):
            member = x[e] @ w[e].T + b[e]
            if activation is not None:
                member = ACTIVATIONS[activation](member)[0]
            assert y[e].tobytes() == member.tobytes()

    @pytest.mark.parametrize("activation", [None, "tanh", "sigmoid", "leaky_relu"])
    @pytest.mark.parametrize("batch", [None, 4])
    def test_gradients_match_finite_differences(self, activation, batch):
        x, w, b = self.operands(3, batch, 2, seed=11)
        weights = np.random.default_rng(12).standard_normal(x.shape)
        xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
        (affine(xt, wt, bt, activation) * weights).sum().backward()
        act = (lambda z: z) if activation is None else (lambda z: ACTIVATIONS[activation](z)[0])

        def loss():
            rows = x.reshape(2, -1, 3)
            return float((act(np.matmul(rows, np.swapaxes(w, 1, 2)) + b[:, None, :]).reshape(x.shape) * weights).sum())

        for got, fd in zip((xt.grad, wt.grad, bt.grad), central_difference(loss, [x, w, b])):
            assert got.shape == fd.shape and gradient_close(got, fd)

    BAD = {
        "members differ": ((3, 2), (2, 2, 2), (2, 2)),
        "bias members differ": ((2, 2), (2, 2, 2), (3, 2)),
        "bias width differs": ((2, 2), (2, 2, 2), (2, 3)),
        "bias not stacked": ((2, 2), (2, 2, 2), (2,)),
        "input width differs": ((2, 3), (2, 2, 2), (2, 2)),
        "input unstacked": ((2,), (2, 2, 2), (2, 2)),
        "input 4-D": ((2, 1, 1, 2), (2, 2, 2), (2, 2)),
    }

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", BAD.values(), ids=BAD.keys())
    def test_mismatched_shapes_rejected(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            affine(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))


def _float(bits: int) -> float:
    return np.frombuffer(np.uint64(bits).tobytes(), dtype=np.float64)[0]


# NaNs of both signs and two payloads, infinities, signed zeros, extremes
SPECIALS = np.array([_float(0x7FF8000000000000), _float(0xFFF8000000000000), _float(0x7FF8000000001234),
                     _float(0xFFF0000000000001), np.inf, -np.inf, 0.0, -0.0, 1e308, 5e-324])


class TestOwnBuffers:
    """Ops compute in their own output buffers, never in an operand, and give
    the out-of-place expression's bits, NaN payloads included."""

    @staticmethod
    def values(rng, shape, special=0.4):
        a = np.asarray(rng.standard_normal(shape) * 3.0)
        mask = rng.random(shape) < special
        a[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
        return a

    @staticmethod
    def out_of_place(z, activation):
        if activation == "tanh":
            return np.tanh(z)
        if activation == "sigmoid":
            return 0.5 * (1.0 + np.tanh(0.5 * z))
        if activation == "leaky_relu":
            return z * np.where(z >= 0.0, 1.0, 0.1)
        return z

    @staticmethod
    def checked(operands, as_tensor, op):
        """``op`` on the operands (as ``Tensor``s or arrays), asserting that
        none of their bytes changed; returns the value as an array."""
        before = [a.tobytes() for a in operands]
        args = [Tensor(a) if t else a for a, t in zip(operands, as_tensor)]
        out = op(*args)
        assert [(a.data if t else a).tobytes() for a, t in zip(args, as_tensor)] == before
        return np.asarray(out.data if isinstance(out, Tensor) else out)

    @pytest.mark.parametrize("activation", [None, "tanh", "sigmoid", "leaky_relu"])
    @pytest.mark.parametrize("x_shape,m", [((4,), 3), ((5, 4), 3), ((1,), 1), ((1, 2), 1), ((3, 1), 1)],
                             ids=["vector", "batch", "one", "one-row", "one-column"])
    @pytest.mark.parametrize("as_tensor", [(False,) * 3, (True,) * 3, (False, True, False)],
                             ids=["arrays", "tensors", "mixed"])
    def test_affine(self, activation, x_shape, m, as_tensor):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x, w, b = self.values(rng, x_shape), self.values(rng, (m, x_shape[-1])), self.values(rng, (m,))
            with np.errstate(all="ignore"):
                got = self.checked((x, w, b), as_tensor, lambda *a: affine(*a, activation))
                want = self.out_of_place(x @ w.T + b, activation)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("activation", [None, "tanh", "sigmoid", "leaky_relu"])
    @pytest.mark.parametrize("members,batch,d", [(3, None, 4), (2, 5, 3), (1, None, 1), (1, 1, 1), (2, 1, 1)])
    @pytest.mark.parametrize("as_tensor", [(False,) * 3, (True,) * 3], ids=["arrays", "tensors"])
    def test_stacked_affine(self, activation, members, batch, d, as_tensor):
        x_shape = (members, d) if batch is None else (members, batch, d)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x, w, b = self.values(rng, x_shape), self.values(rng, (members, d, d)), self.values(rng, (members, d))
            with np.errstate(all="ignore"):
                got = self.checked((x, w, b), as_tensor, lambda *a: affine(*a, activation))
                z = np.matmul(x.reshape(members, -1, d), np.swapaxes(w, 1, 2)) + b[:, None, :]
                want = self.out_of_place(z.reshape(x_shape), activation)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed

    def test_one_element_bias_add_keeps_the_matmul_nan(self):
        # numpy's in-place add of one element takes its reduction loop, which
        # keeps the bias's NaN here; the value must keep the matmul's
        x, w, b = np.array([1.0]), np.array([[SPECIALS[1]]]), np.array([SPECIALS[0]])
        with np.errstate(invalid="ignore"):
            assert affine(x, w, b).tobytes() == (x @ w.T + b).tobytes()

    COEFFICIENTS = {
        "unit first": [1, 0.5, -2, 1],
        "scaled first": [0.5, 1, 1, 3],
        "single scaled": [-3],
        "two units": [1, 1],
        "mixed": [2, -1, 1, 0, 1, 0.25],
        "zero": [0],
    }

    @pytest.mark.parametrize("coefficients", COEFFICIENTS.values(), ids=COEFFICIENTS.keys())
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (6,), (3, 4)])
    @pytest.mark.parametrize("tensors", [False, True])
    def test_linear_combination(self, coefficients, shape, tensors):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            terms = [self.values(rng, shape) for _ in coefficients]
            as_tensor = [tensors and i % 2 == 0 for i in range(len(terms))]
            with np.errstate(all="ignore"):
                got = self.checked(terms, as_tensor, lambda *t: linear_combination(list(zip(coefficients, t))))
                c, t = coefficients[0], terms[0]
                want = t if c == 1 else c * t
                for c, t in zip(coefficients[1:], terms[1:]):
                    want = want + (t if c == 1 else c * t)
            assert got.shape == shape and got.tobytes() == np.asarray(want).tobytes(), seed
