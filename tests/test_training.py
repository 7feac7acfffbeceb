import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cknet.architectures import Network, NetworkConfig
from cknet.data import Dataset
from cknet.experiments import ToyResult, TrajectoryDump, emit_toy_report
from cknet.tensor import Parameter, Tensor
from cknet.training import (
    Adam,
    EpochMetrics,
    TrainConfig,
    TrainingError,
    _read_logits,
    evaluate,
    softmax_cross_entropy,
    train,
)
from helpers import central_difference, gradient_close, log_softmax_loss


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((3, 10)))
        loss = softmax_cross_entropy(logits, np.array([0, 4, 9]))
        assert loss.item() == pytest.approx(math.log(10), abs=1e-12)

    def test_margin_drives_loss_to_zero(self):
        losses = []
        for margin in (1.0, 10.0, 100.0):
            logits = np.zeros((1, 4))
            logits[0, 2] = margin
            losses.append(softmax_cross_entropy(Tensor(logits), np.array([2])).item())
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-10

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((4, 3)) * 3.0
        labels = np.array([2, 0, 1, 1])
        # independent two-pass evaluation with exact fsum accumulation
        expected_terms = []
        for row, label in zip(logits, labels):
            m = max(row)
            lse = m + math.log(math.fsum(math.exp(v - m) for v in row))
            expected_terms.append(lse - row[label])
        expected = math.fsum(expected_terms) / 4.0
        loss = softmax_cross_entropy(Tensor(logits), labels)
        assert loss.item() == pytest.approx(expected, abs=1e-14)

    def test_extreme_logits_stay_finite(self):
        logits = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
        loss = softmax_cross_entropy(logits, np.array([0, 1]))
        assert np.isfinite(loss.item())

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ValueError, match="labels"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([False, True]), [0.0, 2.0]])
    def test_labels_that_are_not_integers_rejected(self, labels):
        with pytest.raises(TypeError, match="labels must be integers"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), labels)

    def test_empty_batch_rejected_by_name(self):
        with pytest.raises(ValueError, match="^cannot take the loss of an empty batch$"):
            softmax_cross_entropy(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal((3, 4))
        logits = Tensor(z)
        labels = np.array([1, 3, 0])
        softmax_cross_entropy(logits, labels).backward()
        soft = np.exp(z - z.max(axis=1, keepdims=True))
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(3), labels] -= 1.0
        assert np.allclose(logits.grad, soft / 3.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("classes", [2, 5, 10])
    def test_gradient_matches_central_differences(self, batch, classes):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z, labels = rng.standard_normal((batch, classes)) * 3.0, rng.integers(0, classes, size=batch)
            logits = Tensor(z)
            softmax_cross_entropy(logits, labels).backward()
            fd = central_difference(lambda: softmax_cross_entropy(Tensor(z), labels).item(), [z])[0]
            assert gradient_close(logits.grad, fd), seed


def read_loss(z, labels):
    """The loss ``softmax_cross_entropy`` takes of ``z`` and the log
    probabilities ``_read_logits`` leaves for it, read class-major as ``z.T``."""
    _, shifted, log_sum = _read_logits(z.T, labels)
    return softmax_cross_entropy(Tensor(z), labels).data, (shifted - log_sum).T


class FixedLogits:
    """A network stand-in whose ``infer`` gives the same logits in every mode."""

    def __init__(self, logits):
        self.logits = logits

    def infer(self, inputs, mode):
        return self.logits


class TestRowMaximum:
    """``_read_logits`` takes each sample's maximum as numpy's max reduction
    over C-contiguous class rows, in either layout of the logits. Its loss
    and log probabilities are bitwise the oracle's on ties of ±0, where the
    order of the reduction decides the sign of a zero maximum."""

    # a row's maximum is often a tie of ±0
    TIES = np.array([0.0, -0.0, -1.5, -np.inf])
    SPECIALS = np.array([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan])

    @pytest.mark.parametrize("classes", [2, 3, 9, 10, 31, 32, 100, 300])
    @pytest.mark.parametrize("entries", ["ties", "specials"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_bitwise_the_max_reduction(self, classes, entries, layout):
        for batch in (2 * classes, 16 * classes):
            for seed in range(50 if classes < 100 else 5):
                rng = np.random.default_rng(seed)
                z = rng.choice(self.TIES if entries == "ties" else self.SPECIALS, size=(batch, classes))
                z = z if layout == "C" else np.asfortranarray(z)
                labels = rng.integers(0, classes, size=batch)
                with np.errstate(all="ignore"):
                    loss, log_probs = read_loss(z, labels)
                    want_loss, want_log_probs = log_softmax_loss(np.ascontiguousarray(z), labels)
                assert loss.tobytes() == want_loss.tobytes(), (batch, seed)
                assert log_probs.tobytes() == want_log_probs.tobytes(), (batch, seed)


class TestLogitsReader:
    """``_read_logits`` reads logits as C-contiguous class rows and adds each
    sample's exponentials over them; ``softmax_cross_entropy`` picks the
    labels from the log probabilities and ``evaluate`` from ``shifted``.
    Both losses and the log probabilities are bitwise numpy's class-row
    reductions, ``helpers.log_softmax_loss``, in any memory layout."""

    CLASSES = range(2, 301)
    SPECIALS = np.array([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, 1e300, -1e300])

    @staticmethod
    def assert_bitwise(z, labels):
        with np.errstate(all="ignore"):
            loss, log_probs = read_loss(z, labels)
            want_loss, want_log_probs = log_softmax_loss(z, labels)
        assert loss.tobytes() == want_loss.tobytes()
        assert log_probs.tobytes() == want_log_probs.tobytes()
        if np.isfinite(want_loss):
            assert evaluate(FixedLogits(z), None, labels)[0].hex() == float(want_loss).hex()
        else:
            message = re.escape(f"direct evaluation diverged (loss={float(want_loss)!r})")
            with pytest.raises(TrainingError, match=f"^{message}$"):
                evaluate(FixedLogits(z), None, labels)

    @pytest.mark.parametrize("batch", [1, 3, 128, 4096])
    def test_bitwise_the_reductions(self, batch):
        rng = np.random.default_rng(batch)
        for classes in self.CLASSES:
            z = rng.standard_normal((batch, classes)) * 4.0
            self.assert_bitwise(z, rng.integers(0, classes, size=batch))

    @pytest.mark.parametrize("batch", [1, 3, 128, 4096])
    def test_bitwise_the_reductions_on_ties_and_non_finite_logits(self, batch):
        rng = np.random.default_rng(batch + 1)
        for classes in (*range(2, 18), 63, 64, 65, 127, 128, 129, 136, 255, 256, 257, 300):
            z = rng.choice(self.SPECIALS, size=(batch, classes))
            self.assert_bitwise(z, rng.integers(0, classes, size=batch))

    @pytest.mark.parametrize("batch", [1, 3, 128, 4096])
    @pytest.mark.parametrize("entries", ["normal", "specials"])
    def test_loss_and_accuracy_do_not_depend_on_the_layout(self, batch, entries):
        rng = np.random.default_rng(batch + 2)
        for classes in (*range(2, 18), 63, 64, 65, 127, 128, 129, 255, 256, 257, 300):
            if entries == "normal":
                z = rng.standard_normal((batch, classes)) * 4.0
            else:  # ties, ±inf, NaN and ±1e300
                z = rng.choice(self.SPECIALS, size=(batch, classes))
            labels = rng.integers(0, classes, size=batch)
            with np.errstate(all="ignore"):
                want_loss = log_softmax_loss(z, labels)[0]
            want_acc = float((z.argmax(axis=1) == labels).mean())
            want_grad = None
            wide = np.zeros((batch, 2 * classes))
            wide[:, ::2] = z
            for layout in (z.copy(), np.asfortranarray(z), wide[:, ::2]):
                logits = Tensor(layout)
                with np.errstate(all="ignore"):
                    loss = softmax_cross_entropy(logits, labels)
                    assert loss.data.tobytes() == want_loss.tobytes()
                    loss.backward()
                # the gradient is the transpose of C-contiguous class rows
                assert logits.grad.T.flags.c_contiguous, classes
                want_grad = logits.grad if want_grad is None else want_grad
                assert logits.grad.tobytes() == want_grad.tobytes(), classes
                if np.isfinite(want_loss):
                    loss, acc = evaluate(FixedLogits(layout), None, labels)
                    assert (loss.hex(), acc.hex()) == (float(want_loss).hex(), want_acc.hex()), classes
                else:
                    with pytest.raises(TrainingError, match="^direct evaluation diverged"):
                        evaluate(FixedLogits(layout), None, labels)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    @pytest.mark.parametrize("classes", [2, 10, 127])
    def test_labels_of_every_integer_dtype(self, dtype, classes):
        rng = np.random.default_rng(classes)
        z = rng.standard_normal((256, classes))
        labels = rng.integers(0, classes, size=256)
        self.assert_bitwise(z, labels.astype(dtype))
        assert read_loss(z, labels.astype(dtype))[0].tobytes() == read_loss(z, labels)[0].tobytes()

    @pytest.mark.parametrize("batch,classes", [(3, 4), (128, 2), (160, 10)])
    def test_gradient_is_bitwise_the_reductions_softmax_minus_onehot(self, batch, classes):
        rng = np.random.default_rng(batch)
        z, labels = rng.standard_normal((batch, classes)) * 4.0, rng.integers(0, classes, size=batch)
        logits = Tensor(z)
        softmax_cross_entropy(logits, labels).backward()
        soft = np.exp(log_softmax_loss(z, labels)[1])
        soft[np.arange(batch), labels] -= 1.0
        assert logits.grad.tobytes() == (soft / batch).tobytes()


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_matches_hand_rolled_scalar_recursion(self):
        p = Parameter(np.array([0.0]), "theta")
        alpha, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        opt = Adam([p], learning_rate=alpha)
        p.grad = np.array([1.0])
        opt.step()
        m = (1 - b1) * 1.0
        v = (1 - b2) * 1.0
        expected = -alpha * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        assert p.data[0] == pytest.approx(expected, abs=1e-15)
        assert p.data[0] == pytest.approx(-0.1, abs=1e-8)

    def test_converges_on_convex_quadratic(self):
        target = np.array([3.0, -1.5])
        p = Parameter(np.zeros(2), "theta")
        opt = Adam([p], learning_rate=0.1)
        for _ in range(200):
            p.grad = p.data - target  # gradient of ||theta - target||^2 / 2
            opt.step()
        assert np.max(np.abs(p.data - target)) < 1e-3

    def test_zero_learning_rate_freezes_parameters(self):
        p = Parameter(np.array([2.0]), "p")
        opt = Adam([p], learning_rate=0.0)
        for _ in range(5):
            p.grad = np.array([0.7])
            opt.step()
        assert p.data[0] == 2.0

    @pytest.mark.parametrize("learning_rate", [-1e-3, -math.inf, math.inf, math.nan])
    def test_negative_or_non_finite_learning_rate_refused_when_built(self, learning_rate):
        p = Parameter(np.array([2.0]), "p")
        with pytest.raises(ValueError, match=r"^learning_rate must be finite and >= 0, got "):
            Adam([p], learning_rate=learning_rate)

    def test_a_fraction_learning_rate_steps_as_its_float(self):
        p, q = Parameter(np.array([2.0]), "p"), Parameter(np.array([2.0]), "q")
        TrainConfig(1, learning_rate=Fraction(1, 10))
        exact, rounded = Adam([p], learning_rate=Fraction(1, 10)), Adam([q], learning_rate=0.1)
        p.grad, q.grad = np.array([0.7]), np.array([0.7])
        exact.step()
        rounded.step()
        assert p.data.tobytes() == q.data.tobytes()

    @pytest.mark.parametrize("learning_rate", [10**400, -(10**400)], ids=["huge", "-huge"])
    def test_an_integer_past_the_float_range_is_not_finite(self, learning_rate):
        with pytest.raises(ValueError, match=r"^learning_rate must be finite and >= 0, got -?1000"):
            Adam([Parameter(np.array([2.0]), "p")], learning_rate=learning_rate)
        with pytest.raises(ValueError, match=r"^learning_rate must be finite and > 0, got -?1000"):
            TrainConfig(1, learning_rate=learning_rate)

    @pytest.mark.parametrize("learning_rate", ["0.1", None, 1j])
    def test_non_real_learning_rate_is_a_type_error_when_built(self, learning_rate):
        p, message = Parameter(np.array([2.0]), "p"), f"learning_rate must be a real number, got {learning_rate!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Adam([p], learning_rate=learning_rate)

    def test_nan_gradient_names_parameter(self):
        p = Parameter(np.array([0.0]), "blocks.3.weight")
        opt = Adam([p])
        p.grad = np.array([np.nan])
        with pytest.raises(TrainingError, match="blocks.3.weight"):
            opt.step()

    @pytest.mark.parametrize("params", [[], ()])
    def test_empty_parameter_list_refused_when_built(self, params):
        with pytest.raises(ValueError, match="^Adam needs at least one parameter, got an empty parameter list$"):
            Adam(params)

    def test_parameter_listed_twice_refused_when_built(self):
        p, q = Parameter(np.zeros(1), "p"), Parameter(np.zeros(1), "q")
        with pytest.raises(ValueError, match="^Adam got parameter 'q' twice$"):
            Adam([p, q, q])

    def test_step_counter_increments_once_per_step(self):
        p = Parameter(np.zeros(1), "p")
        q = Parameter(np.zeros(1), "q")
        opt = Adam([p, q])
        p.grad = np.ones(1)
        q.grad = np.ones(1)
        opt.step()
        opt.step()
        assert opt.t == 2


class ReferenceAdam:
    """Per-parameter Adam, one array at a time: the oracle for the flat update."""

    def __init__(self, params, learning_rate=1e-3):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1**self.t)
            v_hat = self.v[i] / (1.0 - b2**self.t)
            p.data = p.data - self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)


class TestFlatAdam:
    shapes = [(3, 4), (4,), (1,), (2, 2), (5,)]

    def make_params(self):
        rng = np.random.default_rng(17)
        return [Parameter(rng.standard_normal(s), f"p{i}") for i, s in enumerate(self.shapes)]

    def test_matches_per_parameter_reference_bitwise(self):
        flat_params, ref_params = self.make_params(), self.make_params()
        flat = Adam(flat_params, learning_rate=0.05)
        ref = ReferenceAdam(ref_params, learning_rate=0.05)
        rng = np.random.default_rng(5)
        for step in range(8):
            for i, (a, b) in enumerate(zip(flat_params, ref_params)):
                a.grad = b.grad = rng.standard_normal(a.shape) * 10.0 ** (i - 2)
            flat.step()
            ref.step()
            for a, b in zip(flat_params, ref_params):
                assert a.data.shape == b.data.shape
                assert a.data.tobytes() == b.data.tobytes(), (step, a.name)
        assert flat.t == ref.t == 8

    def test_parameter_without_gradient_names_it_and_moves_nothing(self):
        params = self.make_params()
        opt = Adam(params, learning_rate=0.1)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        held = [p.data for p in params]
        moments = opt.m.copy(), opt.v.copy()
        params[2].grad = None
        with pytest.raises(TrainingError, match="no gradient for parameter 'p2'"):
            opt.step()
        assert all(p.data is h for p, h in zip(params, held))
        assert opt.m.tobytes() == moments[0].tobytes() and opt.v.tobytes() == moments[1].tobytes()
        assert opt.t == 1

    def test_step_never_writes_into_arrays_callers_hold(self):
        params = self.make_params()
        opt = Adam(params, learning_rate=0.1)
        for step in range(3):
            held = [p.data for p in params]
            snapshot = [h.copy() for h in held]
            for p in params:
                p.grad = np.ones_like(p.data)
            opt.step()
            for h, s in zip(held, snapshot):
                assert np.array_equal(h, s)
            assert all(p.data is not h for p, h in zip(params, held))

    def test_replaced_parameter_data_is_picked_up(self):
        flat_params, ref_params = self.make_params(), self.make_params()
        flat, ref = Adam(flat_params, learning_rate=0.1), ReferenceAdam(ref_params, learning_rate=0.1)
        for step in range(4):
            if step == 2:
                for a, b in zip(flat_params, ref_params):
                    a.data = b.data = np.full(a.shape, 0.25)
            for a, b in zip(flat_params, ref_params):
                a.grad = b.grad = np.full(a.shape, float(step) - 1.5)
            flat.step()
            ref.step()
        for a, b in zip(flat_params, ref_params):
            assert a.data.tobytes() == b.data.tobytes()

    def test_nan_gradient_names_parameter_and_moves_nothing(self):
        params = self.make_params()
        opt = Adam(params, learning_rate=0.1)
        before = [p.data.copy() for p in params]
        for p in params:
            p.grad = np.ones_like(p.data)
        params[3].grad = np.array([[0.0, np.inf], [np.nan, 1.0]])
        with pytest.raises(TrainingError, match="'p3'"):
            opt.step()
        for p, b in zip(params, before):
            assert np.array_equal(p.data, b)

    def test_network_training_steps_match_reference(self):
        config = NetworkConfig("dense", k=3, depth=3, width=5, input_dim=2, num_classes=2, dl=0.5, seed=8)
        nets = [Network(config), Network(config)]
        opts = [Adam(nets[0].parameters(), 0.01), ReferenceAdam(nets[1].parameters(), 0.01)]
        data = _blobs(seed=8)
        for _ in range(6):
            for net, opt in zip(nets, opts):
                loss = softmax_cross_entropy(net.forward(data.inputs), data.labels)
                net.zero_grad()
                loss.backward()
                opt.step()
        for a, b in zip(nets[0].parameters(), nets[1].parameters()):
            assert a.data.tobytes() == b.data.tobytes(), a.name

    @pytest.mark.parametrize("family,k", [("c0", 1)] + [(f, k) for f in ("ck", "dense") for k in (1, 2, 3, 4)])
    @pytest.mark.parametrize("depth", [0, 1, 5])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_every_network_parameter_gets_a_gradient(self, family, k, depth, mode):
        # what lets ``Adam`` refuse a parameter without one
        net = Network(NetworkConfig(family, k, depth=depth, width=3, input_dim=2, num_classes=2, seed=k))
        softmax_cross_entropy(net.forward(np.ones((4, 2)), mode), np.array([0, 1, 0, 1])).backward()
        assert [p.name for p in net.parameters() if p.grad is None] == []


def _blobs(n=60, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(n // 2, 2))
    b = rng.normal(loc=(2.0, 0.0), scale=0.3, size=(n // 2, 2))
    inputs = np.concatenate([a, b])
    labels = np.concatenate([np.zeros(n // 2), np.ones(n // 2)]).astype(np.int64)
    return Dataset(inputs, labels, num_classes=2)


def _linear_model(seed=0):
    # depth 0 leaves embedding + readout, an affine (linear) classifier
    return Network(NetworkConfig("ck", k=1, depth=0, width=4, input_dim=2, num_classes=2, seed=seed))


class TestTrainLoop:
    def test_zero_epochs_leaves_network_unchanged(self):
        net = _linear_model()
        before = [p.data.copy() for p in net.parameters()]
        metrics = train(net, _blobs(), TrainConfig(epochs=0))
        assert metrics == []
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_linearly_separable_blobs_reach_99_percent(self):
        net = _linear_model(seed=1)
        metrics = train(net, _blobs(seed=1), TrainConfig(epochs=50, batch_size=16, learning_rate=0.05, seed=1))
        assert metrics[-1].train_acc >= 0.99

    def test_identical_seeds_give_identical_runs(self):
        runs = []
        for _ in range(2):
            net = Network(NetworkConfig("dense", k=2, depth=3, width=6, input_dim=2, num_classes=2, seed=5))
            metrics = train(net, _blobs(seed=2), TrainConfig(epochs=4, batch_size=8, learning_rate=0.01, seed=9))
            runs.append((metrics, [p.data.copy() for p in net.parameters()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            assert a.tobytes() == b.tobytes()

    def test_losses_stay_finite_each_epoch(self):
        net = Network(NetworkConfig("ck", k=2, depth=4, width=8, input_dim=2, num_classes=2, seed=3))
        metrics = train(net, _blobs(seed=3), TrainConfig(epochs=5, batch_size=16, learning_rate=0.01, seed=3))
        assert all(np.isfinite(m.train_loss) for m in metrics)

    def test_divergence_raises_instead_of_continuing(self):
        net = _linear_model(seed=4)
        with pytest.raises(TrainingError, match="diverged|gradient"):
            train(
                net,
                _blobs(seed=4),
                TrainConfig(epochs=200, batch_size=60, learning_rate=1e18, seed=4),
            )

    def test_empty_dataset_cannot_exist(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)

    @pytest.mark.parametrize("learning_rate", [0.0, -5.0, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(epochs=1, learning_rate=learning_rate)

    def test_non_numeric_learning_rate_is_a_type_error(self):
        with pytest.raises(TypeError, match=r"^learning_rate must be a real number, got '0.1'$"):
            TrainConfig(1, learning_rate="0.1")

    @pytest.mark.parametrize("name,value", [("epochs", 2.5), ("batch_size", 16.0), ("seed", 1.5), ("seed", "3")])
    def test_non_integer_count_or_seed_is_a_type_error(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            TrainConfig(**{"epochs": 1, name: value})

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_is_refused_when_the_config_is_built(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be >= 0, got {seed}$"):
            TrainConfig(epochs=1, seed=seed)


class TestQuietDivergence:
    """A diverging run raises ``TrainingError`` and no numpy warning gets out."""

    def test_overflowing_forward_pass_is_a_diverged_loss(self):
        net = Network(NetworkConfig("ck", k=1, depth=4, width=8, input_dim=2, num_classes=2, dl=1e308, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="loss diverged at epoch 0"):
                train(net, _blobs(), TrainConfig(epochs=1, batch_size=60))

    def test_overflowing_gradient_is_a_non_finite_gradient(self):
        # a zero embedding keeps the loss finite; its gradient, input times
        # the pulled-back head, overflows
        net = Network(NetworkConfig("ck", k=1, depth=0, width=1, input_dim=1, num_classes=2, seed=0))
        net.embed_weight.data = np.zeros((1, 1))
        net.head_weight.data = np.array([[10.0], [-10.0]])
        data = Dataset(np.full((2, 1), 1.7e308), np.zeros(2, dtype=np.int64), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="non-finite gradient for parameter 'embed.weight'"):
                train(net, data, TrainConfig(epochs=1, batch_size=2))

    def test_overflowing_last_step_is_a_non_finite_parameter(self):
        # one class only, so the step pushes one head bias past the float range;
        # the check runs after the last epoch, before returning
        net = Network(NetworkConfig("ck", k=1, depth=1, width=2, input_dim=2, num_classes=2, seed=0))
        net.head_bias.data = np.full(2, 1.7e308)
        data = Dataset(np.random.default_rng(0).standard_normal((8, 2)), np.zeros(8, dtype=np.int64), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="^non-finite parameter 'head.bias' after epoch 0$"):
                train(net, data, TrainConfig(epochs=1, batch_size=8, learning_rate=1e308))

    def test_evaluation_that_overflows_raises(self):
        # finite parameters whose values overflow, as after a step of size 1e308
        net = _linear_model()
        net.embed_weight.data = np.full((4, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match=r"^direct evaluation diverged \(loss=nan\)$"):
                evaluate(net, _blobs().inputs, _blobs().labels)


FORMS = [("c0", 1), *(("ck", k) for k in (1, 2, 3, 4)), *(("dense", k) for k in (1, 2, 3, 4))]


class TestEvaluate:
    """``evaluate`` runs on ``Network.infer`` and gives ``forward``'s loss and accuracy."""

    @pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_equals_the_forward_path_bitwise(self, family, k, mode):
        net = Network(NetworkConfig(family, k, depth=5, width=4, input_dim=2, num_classes=2, dl=0.5, seed=k))
        data = _blobs(seed=k)
        logits = net.forward(data.inputs, mode=mode)
        expected_loss = softmax_cross_entropy(logits, data.labels).item()
        expected_acc = float((logits.data.argmax(axis=1) == data.labels).mean())
        loss, acc = evaluate(net, data.inputs, data.labels, mode=mode)
        assert (loss.hex(), acc.hex()) == (expected_loss.hex(), expected_acc.hex())
        # plain floats, not np.float64: the artifacts write their repr
        assert (type(loss), type(acc)) == (float, float)

    def test_bad_labels_rejected(self):
        net = _linear_model()
        with pytest.raises(ValueError, match="labels must lie in"):
            evaluate(net, _blobs().inputs, np.full(60, 2))
        with pytest.raises(ValueError, match="logits must be"):
            evaluate(net, np.zeros(2), np.zeros(1, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [float, bool])
    def test_labels_that_are_not_integers_rejected(self, dtype):
        data = _blobs()
        with pytest.raises(TypeError, match=f"labels must be integers, got dtype {np.dtype(dtype)}"):
            evaluate(_linear_model(), data.inputs, data.labels.astype(dtype))

    def test_empty_batch_rejected_by_name(self):
        with pytest.raises(ValueError, match="^cannot take the loss of an empty batch$"):
            evaluate(_linear_model(), np.zeros((0, 2)), np.zeros(0, dtype=np.int64))


class TestEvaluateAccuracy:
    """``evaluate`` reads a tie-free batch's accuracy off the labels' picks and
    a batch with a tied row maximum off ``argmax``; both give argmax's
    first-maximum accuracy."""

    @staticmethod
    def assert_argmax_accuracy(z, labels):
        loss, acc = evaluate(FixedLogits(z), None, labels)
        want_acc = float((z.argmax(axis=1) == labels).mean())
        want_loss = softmax_cross_entropy(Tensor(z), labels).item()
        assert (loss.hex(), acc.hex()) == (want_loss.hex(), want_acc.hex())

    def test_a_tied_row_is_read_by_argmax(self):
        # the second row's label reaches its maximum, but after the first class that does
        z = np.array([[0.0, 2.0], [1.0, 1.0], [3.0, -1.0]])
        assert evaluate(FixedLogits(z), None, np.array([1, 1, 0]))[1] == 2 / 3

    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("tie", ["none", "all equal", "signed zeros", "after the label", "-inf columns"])
    def test_is_argmax_accuracy(self, classes, tie):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((64, classes))
            labels = rng.integers(0, classes, size=64)
            rows = rng.random(64) < 0.25
            if tie == "all equal":
                z[rows] = rng.standard_normal((rows.sum(), 1))
            elif tie == "signed zeros":
                z[rows] = -np.abs(z[rows]) - 1.0
                z[rows, 0], z[rows, -1] = (0.0, -0.0) if seed % 2 else (-0.0, 0.0)
            elif tie == "after the label":
                for i in np.flatnonzero(rows):
                    after = rng.integers(labels[i], classes)
                    z[i, labels[i]] = z[i, after] = z[i].max() + 1.0
            elif tie == "-inf columns":
                column = rng.integers(0, classes)
                z[:, column] = -np.inf
                labels[labels == column] = (column + 1) % classes  # a label at -inf is an infinite loss
                z[rows, -1] = z[rows, 0] = 9.0
            self.assert_argmax_accuracy(z, labels)

    @pytest.mark.parametrize("entry,loss", [(np.nan, "nan"), (np.inf, "nan"), (-np.inf, "inf")])
    @pytest.mark.parametrize("mode", ["direct", "state"])
    def test_non_finite_logits_raise(self, entry, loss, mode):
        z = np.random.default_rng(0).standard_normal((8, 3))
        labels = np.zeros(8, dtype=np.int64)
        z[5, 0] = entry
        with pytest.raises(TrainingError, match=rf"^{mode} evaluation diverged \(loss={loss}\)$"):
            evaluate(FixedLogits(z), None, labels, mode=mode)


class TestMetricsCsv:
    def test_schema_is_the_training_columns(self, tmp_path):
        rows = [EpochMetrics(0, 1.5, 0.5), EpochMetrics(1, 1.0, 0.75)]
        dump = TrajectoryDump(np.zeros((1, 2)), np.zeros((1, 2)), np.array([0, 1]))
        emit_toy_report(tmp_path, [ToyResult(1, {0: 0.5}, 0, 0.5, dump, rows)], seed=4)
        assert (tmp_path / "metrics_k1.csv").read_text() == "epoch,train_loss,train_acc\n0,1.5,0.5\n1,1.0,0.75\n"
