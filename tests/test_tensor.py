import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknet.dynamics import alternating_binomial_row
from cknet.tensor import (
    ACTIVATIONS,
    GraphError,
    Parameter,
    ShapeError,
    Tensor,
    _affine,
    affine,
)
from helpers import ONE_ROW_ENTRIES, linear_combination, with_nans


class TestMatmul:
    """The matrix product, which ``affine`` computes with a zero bias."""

    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(affine(v, np.eye(3), np.zeros(3)), v)

    def test_hand_checked_2x2(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(affine(np.array([1.0, 1.0]), a, np.zeros(2)), [3.0, 7.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            affine(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))

    def test_requires_2d(self):
        with pytest.raises(ShapeError):
            affine(np.zeros(3), np.zeros(3), np.zeros(1))


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


class TestPurity:
    def test_outputs_are_finite_for_bounded_inputs(self):
        x = np.random.default_rng(1).uniform(-10, 10, size=(4, 4))
        for activation in ACTIVATIONS:
            assert np.all(np.isfinite(identity_affine(x, activation)))
        assert np.all(np.isfinite(affine(x, x, np.zeros(4))))


class TestFusedAffine:
    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            affine(np.ones(2), np.eye(2), np.zeros(2), "relu6")


class TestChainFactor:
    """Each activation's chain factor g·act'(z), read from the output y."""

    FROM_Z = {  # g·act'(z) formed from z
        "tanh": lambda g, z: g * (1.0 - np.tanh(z) * np.tanh(z)),
        "sigmoid": lambda g, z: g * (0.5 * (1.0 + np.tanh(0.5 * z))) * (1.0 - 0.5 * (1.0 + np.tanh(0.5 * z))),
        "leaky_relu": lambda g, z: g * np.where(z >= 0.0, 1.0, 0.1),
    }

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30, allow_subnormal=False), min_size=1, max_size=8),
           st.sampled_from(sorted(ACTIVATIONS)))
    def test_is_the_factor_formed_from_z_bitwise(self, values, activation):
        # subnormal z are left to the underflow test below
        z = np.array(values)
        g = np.linspace(-2.0, 3.0, len(z))
        y = ACTIVATIONS[activation].value(z.copy())
        assert ACTIVATIONS[activation].chain(g, y).tobytes() == self.FROM_Z[activation](g, z).tobytes()

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_matches_central_differences(self, activation):
        z = np.random.default_rng(2).standard_normal(16) * 3.0
        z = z[np.abs(z) > 1e-3]  # off the leaky_relu kink
        value = lambda v: ACTIVATIONS[activation].value(v.copy())
        fd = (value(z + 1e-6) - value(z - 1e-6)) / 2e-6
        got = ACTIVATIONS[activation].chain(np.ones_like(z), value(z))
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-9)

    def test_leaky_relu_slope_where_its_output_underflows(self):
        # 0.1·z rounds to -0.0 for z in [-2e-323, -5e-324]: y >= 0 holds there,
        # so the factor read from y is 1, not 0.1
        z = np.array([-5e-324, -2e-323, -2.5e-323])
        y = ACTIVATIONS["leaky_relu"].value(z.copy())
        assert y.tobytes() == np.array([-0.0, -0.0, -5e-324]).tobytes()
        assert ACTIVATIONS["leaky_relu"].chain(np.ones(3), y).tolist() == [1.0, 1.0, 0.1]


def test_parameter_carries_name():
    p = Parameter(np.zeros(3), name="w")
    assert p.name == "w"
    assert p.shape == (3,)


class TestBackward:
    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor([1.0, 2.0]).backward()

    def test_repeated_backward_rejected(self):
        seen = []
        root = Tensor(2.0, seen.append)
        root.backward()
        assert seen == [1.0] and root.grad == 1.0  # the pullback ran once, on d(root)/d(root)
        with pytest.raises(GraphError, match="already ran"):
            root.backward()
        assert seen == [1.0]


def chained(terms):
    """The linear combination as chained ``*`` and ``+``, left to right."""
    c, t = terms[0]
    out = t if c == 1 else c * t
    for c, t in terms[1:]:
        out = out + (t if c == 1 else c * t)
    return np.asarray(out)


class TestLinearCombination:
    """``linear_combination``, the sum of the single-layer step references in
    ``helpers``: bitwise the chained stencil, as ``unroll``'s own sums are."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_forward_bitwise_equals_chained_stencil(self, k):
        rng = np.random.default_rng(k)
        coeffs = alternating_binomial_row(k)
        for dl in (1.0, 0.5, 0.3):
            force = rng.standard_normal((4, 3))
            history = [rng.standard_normal((4, 3)) for _ in range(k)]
            terms = [(dl**k, force)] + [(-coeffs[j], history[j - 1]) for j in range(1, k + 1)]
            assert linear_combination(terms).tobytes() == chained(terms).tobytes()

    def test_single_unit_term_is_the_array_itself(self):
        a = np.array([1.0])
        assert linear_combination([(1, a)]) is a


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
        y = affine(x, w, b, activation)
        assert y.shape == x.shape
        for e in range(self.MEMBERS):
            member = x[e] @ w[e].T + b[e]
            if activation is not None:
                member = ACTIVATIONS[activation].value(member)
            assert y[e].tobytes() == member.tobytes()

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
            affine(np.zeros(x_shape), np.zeros(w_shape), np.zeros(b_shape))


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
    def checked(operands, op):
        """``op`` on the operands, asserting that none of their bytes changed;
        returns the value as an array."""
        before = [a.tobytes() for a in operands]
        out = op(*operands)
        assert [a.tobytes() for a in operands] == before
        return np.asarray(out)

    @pytest.mark.parametrize("activation", [None, "tanh", "sigmoid", "leaky_relu"])
    @pytest.mark.parametrize("x_shape,m", [((4,), 3), ((5, 4), 3), ((1,), 1), ((1, 2), 1), ((3, 1), 1)],
                             ids=["vector", "batch", "one", "one-row", "one-column"])
    def test_affine(self, activation, x_shape, m):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x, w, b = self.values(rng, x_shape), self.values(rng, (m, x_shape[-1])), self.values(rng, (m,))
            with np.errstate(all="ignore"):
                got = self.checked((x, w, b), lambda *a: affine(*a, activation))
                want = self.out_of_place(x @ w.T + b, activation)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("activation", [None, "tanh", "sigmoid", "leaky_relu"])
    @pytest.mark.parametrize("members,batch,d", [(3, None, 4), (2, 5, 3), (1, None, 1), (1, 1, 1), (2, 1, 1)])
    def test_stacked_affine(self, activation, members, batch, d):
        x_shape = (members, d) if batch is None else (members, batch, d)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x, w, b = self.values(rng, x_shape), self.values(rng, (members, d, d)), self.values(rng, (members, d))
            with np.errstate(all="ignore"):
                got = self.checked((x, w, b), lambda *a: affine(*a, activation))
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
    def test_linear_combination(self, coefficients, shape):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            terms = [self.values(rng, shape) for _ in coefficients]
            with np.errstate(all="ignore"):
                got = self.checked(terms, lambda *t: linear_combination(list(zip(coefficients, t))))
                want = chained(list(zip(coefficients, terms)))
            assert got.shape == shape and got.tobytes() == want.tobytes(), seed


class TestOneRowProduct:
    """``affine`` with a one-column weight (inputs of width 1) forms its product
    as a broadcast, bitwise ``x @ w.T + b`` wherever at most one operand of a
    product or sum is NaN. Of two NaNs, numpy's loop picks which payload
    survives."""

    ENTRIES = ONE_ROW_ENTRIES

    @pytest.mark.parametrize("m", [1, 2, 10])
    @pytest.mark.parametrize("x_shape", [(1,), (7, 1)], ids=["vector", "batch"])
    def test_bitwise_the_matmul(self, x_shape, m):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x, w, b = (rng.choice(self.ENTRIES, size=shape) for shape in (x_shape, (m, 1), (m,)))
            with np.errstate(all="ignore"):
                want = x @ w.T + b
                got = affine(x, w, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("m", [1, 2, 3, 10])
    @pytest.mark.parametrize("rows", [3, 7, 17, 128, 4096])
    def test_nans_on_both_sides(self, rows, m):
        # distinct payloads on the input, the weight and the bias
        paired = unpaired = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x, w, b = (with_nans(rng, shape, payload) for shape, payload in
                       (((rows, 1), 0x11), ((m, 1), 0x22), ((m,), 0x33)))
            with np.errstate(all="ignore"):
                want = x @ w.T + b
                got = affine(x, w, b)
                two_nans = (np.isnan(x) & np.isnan(w.T)) | (np.isnan(x * w.T) & np.isnan(b))
            assert (np.isnan(got) == np.isnan(want)).all(), seed
            assert got[~two_nans].tobytes() == want[~two_nans].tobytes(), seed
            paired, unpaired = paired + two_nans.sum(), unpaired + (~two_nans).sum()
        assert paired and unpaired

    @pytest.mark.parametrize("x_shape", [(1,), (3, 1)], ids=["vector", "batch"])
    def test_negative_zero_bias(self, x_shape):
        # 0 + (-0·1) is +0 in numpy's matmul loop, so the bias -0.0 adds to +0
        x, w, b = np.full(x_shape, -0.0), np.ones((2, 1)), np.array([-0.0, 1.5])
        want = x @ w.T + b
        assert np.signbit(want[..., 0]).sum() == 0
        assert affine(x, w, b).tobytes() == want.tobytes()

    def test_nan_input_against_a_zero_weight_stays_nan(self):
        x, w, b = np.array([[np.nan], [1.0]]), np.zeros((3, 1)), np.zeros(3)
        with np.errstate(invalid="ignore"):
            got = affine(x, w, b)
            assert got.tobytes() == (x @ w.T + b).tobytes()
        assert np.isnan(got[0]).all() and (got[1] == 0.0).all()


class TestKernels:
    """``_affine``, the unchecked body that ``unroll`` runs for a stacked
    ensemble on operands it checked once per pass, gives the bits of the
    public ``affine``; the reference sum ``linear_combination`` those of the
    chained expression."""

    def test_one_element_nan_payloads(self):
        # a -NaN matmul plus a NaN bias: the sum must keep the matmul's NaN
        x, w, b = np.array([1.0]), np.array([[SPECIALS[1]]]), np.array([SPECIALS[0]])
        with np.errstate(invalid="ignore"):
            want = (x @ w.T + b).tobytes()
            assert _affine(x, np.swapaxes(w, -1, -2), b, None).tobytes() == affine(x, w, b).tobytes() == want
            for terms in ([(1, x @ w.T), (1, b)], [(1, x @ w.T), (0.5, b)], [(2, x @ w.T), (1, b)]):
                assert linear_combination(terms).tobytes() == chained(terms).tobytes()
            assert linear_combination([(1, x @ w.T), (1, b)]).tobytes() == want

    @pytest.mark.parametrize("activation", [None, "tanh", "sigmoid", "leaky_relu"])
    @pytest.mark.parametrize("members,d", [(9, 1), (8, 3)])
    @pytest.mark.parametrize("batch", [None, 4])
    def test_stacked_battery_shapes(self, activation, members, d, batch):
        act = None if activation is None else ACTIVATIONS[activation].value
        shape = (members, d) if batch is None else (members, batch, d)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            # two layers of a [L, E, d, d] stack, mapped through one swapped view as ``unroll`` does
            values = TestOwnBuffers.values
            weights, biases, x = values(rng, (2, members, d, d)), values(rng, (2, members, d)), values(rng, shape)
            weights_t = np.swapaxes(weights, -1, -2)
            with np.errstate(all="ignore"):
                for layer in range(2):
                    got = _affine(x, weights_t[layer], biases[layer], act)
                    want = affine(x, weights[layer], biases[layer], activation)
                    assert got.tobytes() == want.tobytes(), (seed, layer)
                for coefficients in ([0.25, 2, -1], [1, 0.5, 0.5, 0.5], [1, 1], [3, -3, 1, 1]):
                    terms = [(c, values(rng, shape)) for c in coefficients]
                    got = linear_combination(terms)
                    assert got.tobytes() == chained(terms).tobytes(), (seed, coefficients)
