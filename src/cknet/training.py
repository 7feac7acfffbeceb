"""Loss, optimizer, and the training loop shared by all experiments."""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, Tensor

__all__ = [
    "TrainingError",
    "TrainConfig",
    "EpochMetrics",
    "softmax_cross_entropy",
    "Adam",
    "train",
    "evaluate",
]

# A loss beyond this is treated as divergence rather than a value to keep
# optimizing through.
LOSS_DIVERGENCE_LIMIT = 1e6


class TrainingError(RuntimeError):
    """Training cannot proceed (divergence, NaN gradients, bad inputs)."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        _check_learning_rate(self.learning_rate, zero=False)


def _check_learning_rate(rate, zero: bool) -> float:
    """``rate`` as the float the step multiplies by: ``TypeError`` unless it is
    a real number, ``ValueError`` unless it is finite and > 0, or >= 0 where
    ``zero`` allows a frozen step."""
    if not isinstance(rate, numbers.Real):
        raise TypeError(f"learning_rate must be a real number, got {rate!r}")
    try:  # a Fraction or an int is stepped as its nearest float
        value = float(rate)
    except OverflowError:  # an int or a Fraction past the float range
        value = math.inf
    if not (math.isfinite(value) and (value >= 0 if zero else value > 0)):
        raise ValueError(f"learning_rate must be finite and {'>=' if zero else '>'} 0, got {rate}")
    return value


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float


def _read_logits(zt: np.ndarray, labels):
    """Check class-major logits ``zt`` [classes, batch] against their integer
    labels and shift them for the log softmax.

    Returns the labels as an array, ``shifted`` = zt minus each sample's
    maximum, as C-contiguous class rows, and ``log_sum`` = log Σ
    exp(shifted) of each sample. The maximum and the sum are numpy's
    reductions over the class rows, ``np.maximum.reduce(zt, axis=0)`` and
    ``sum(axis=0)``, which take the rows in class order. The copy to class
    rows is a no-op on the logits ``Network`` forms.
    """
    if zt.ndim != 2:
        raise ValueError(f"logits must be [batch, classes], got shape {zt.T.shape}")
    classes, batch = zt.shape
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.dtype.kind not in "iu":
        raise TypeError(f"labels must be integers, got dtype {labels.dtype}")
    if not len(labels):
        raise ValueError("cannot take the loss of an empty batch")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(
            f"labels must lie in [0, {classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    zt = np.ascontiguousarray(zt)
    shifted = zt - np.maximum.reduce(zt, axis=0)
    return labels, shifted, np.log(np.exp(shifted).sum(axis=0))


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true labels.

    ``logits`` is [batch, classes]; ``labels`` an int array of length batch.
    Stabilized by row-max subtraction before exponentiation. ``backward`` on
    the loss passes (softmax - onehot) / batch on to ``logits``, as the
    transpose of C-contiguous class rows.
    """
    labels, shifted, log_sum = _read_logits(logits.data.T, labels)
    log_probs = shifted - log_sum
    batch = len(labels)
    rows = np.arange(batch)

    def pull(g):
        soft = np.exp(log_probs)
        soft[labels, rows] -= 1.0
        logits._pull((g * soft / batch).T)

    return Tensor(-log_probs[labels, rows].mean(), pull)


# Adam's moment decay rates and the denominator's guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction; one shared step counter for all parameters.

    The first and second moments live in two flat buffers, laid out in
    parameter order. A step concatenates the gradients, checks them for
    finiteness once, updates the whole buffer in one vectorised pass and
    gives every parameter a fresh array; an array a caller still holds
    from before the step is never written to. The result is bitwise that
    of updating each parameter on its own. A parameter without a ``grad``
    or with a non-finite one raises before anything moves, and an empty
    parameter list, a parameter listed twice, or a learning rate that is not
    a finite real >= 0 is refused when the optimizer is built.
    """

    def __init__(self, params, learning_rate=1e-3):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("Adam needs at least one parameter, got an empty parameter list")
        twice = next((p for i, p in enumerate(self.params) if any(p is q for q in self.params[:i])), None)
        if twice is not None:  # it would be stepped once a listing
            raise ValueError(f"Adam got parameter {twice.name!r} twice")
        self.learning_rate = _check_learning_rate(learning_rate, zero=True)
        self.t = 0
        size = sum(p.data.size for p in self.params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self) -> None:
        missing = [p.name for p in self.params if p.grad is None]
        if missing:
            raise TrainingError(f"no gradient for parameter {missing[0]!r}")
        g = np.concatenate([p.grad.ravel() for p in self.params])
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise TrainingError(f"non-finite gradient for parameter {bad.name!r}")
        self.t += 1
        m, v = self.m, self.v
        # the per-parameter formulas term for term, reusing two scratch
        # buffers: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g, then
        # lr*m_hat / (sqrt(v_hat) + eps) in ``g``
        m *= BETA1
        v *= BETA2
        scratch = g * (1.0 - BETA2)
        scratch *= g
        v += scratch
        g *= 1.0 - BETA1
        m += g
        np.divide(m, 1.0 - BETA1**self.t, out=g)
        g *= self.learning_rate
        np.divide(v, 1.0 - BETA2**self.t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        g /= scratch
        del scratch
        offset = 0
        for p in self.params:
            size = p.data.size
            p.data = p.data - g[offset : offset + size].reshape(p.data.shape)
            offset += size


def evaluate(network, inputs: np.ndarray, labels: np.ndarray, mode: str = "direct"):
    """Loss and accuracy of a frozen network on one batch, through
    ``Network.infer``: bitwise the values ``forward`` gives. The logits are
    read class-major, one row per class, as ``infer`` forms them. A loss that
    is not finite, read from logits that overflowed, raises
    ``TrainingError``."""
    with np.errstate(all="ignore"):
        zt = network.infer(inputs, mode=mode).T
        labels, shifted, log_sum = _read_logits(zt, labels)
        n = len(labels)
        picked = shifted[labels, np.arange(n)]
        loss = -(np.add.reduce(picked - log_sum) / n)  # bitwise ``mean()``, at less cost
    if not np.isfinite(loss):
        raise TrainingError(f"{mode} evaluation diverged (loss={float(loss)!r})")
    # a finite loss leaves every sample's maximum finite, so ``shifted`` is 0
    # at each class that reaches it. With one such class a sample, a sample
    # is right exactly when its label's entry is that 0, argmax's first
    # maximum; a batch with a tied sample is read by argmax itself
    if np.count_nonzero(shifted == 0) == n:
        correct = picked == 0
    else:
        correct = zt.argmax(axis=0) == labels
    return float(loss), float(np.count_nonzero(correct) / n)


def train(network, dataset, config: TrainConfig):
    """Train in place; returns per-epoch metrics.

    Deterministic for a fixed (network seed, config seed, dataset) at a
    fixed BLAS thread count: batch order, parameter updates, and metrics are
    all reproducible bitwise. Another thread count may split a BLAS product
    differently and change its last bits (the 784-input embedding ``[2000,
    784] @ [784, 64]`` differs at one and two OpenBLAS threads), and with
    them the trained parameters.
    A diverging run raises ``TrainingError`` (a non-finite or huge loss, a
    non-finite gradient, or a parameter not finite after the last epoch)
    and lets no numpy floating-point warning through.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(network.parameters(), learning_rate=config.learning_rate)
    metrics: list[EpochMetrics] = []
    n = len(dataset)
    for epoch in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        total_loss = 0.0
        total_correct = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch_x = dataset.inputs[idx]
            batch_y = dataset.labels[idx]
            with np.errstate(all="ignore"):  # divergence is reported as one TrainingError
                logits = network.forward(batch_x)
                loss = softmax_cross_entropy(logits, batch_y)
                loss_value = loss.item()
                if not np.isfinite(loss_value) or loss_value > LOSS_DIVERGENCE_LIMIT:
                    raise TrainingError(
                        f"loss diverged at epoch {epoch} (loss={loss_value!r})"
                    )
                network.zero_grad()
                loss.backward()
                optimizer.step()
            total_loss += loss_value * len(idx)
            total_correct += int((logits.data.argmax(axis=1) == batch_y).sum())
        if epoch == config.epochs - 1:  # a last step that overflowed raises here
            bad = next((p for p in optimizer.params if not np.isfinite(p.data).all()), None)
            if bad is not None:
                raise TrainingError(f"non-finite parameter {bad.name!r} after epoch {epoch}")
        metrics.append(EpochMetrics(epoch, total_loss / n, total_correct / n))
    return metrics

