"""Loss, optimizer, and the training loop shared by all experiments."""
from __future__ import annotations

import csv
import io
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
    "metrics_to_csv",
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
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float | None = None
    val_acc: float | None = None


def _log_softmax_loss(z: np.ndarray, labels) -> tuple[np.float64, np.ndarray]:
    """Mean negative log softmax probability of the true labels of [batch,
    classes] logits ``z``, and the log probabilities it was read from."""
    if z.ndim != 2:
        raise ValueError(f"logits must be [batch, classes], got shape {z.shape}")
    labels = np.asarray(labels)
    if labels.shape != (z.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match batch {z.shape[0]}")
    if labels.min() < 0 or labels.max() >= z.shape[1]:
        raise ValueError(
            f"labels must lie in [0, {z.shape[1]}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(z.shape[0]), labels].mean(), log_probs


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true labels.

    ``logits`` is [batch, classes]; ``labels`` an int array of length batch.
    Stabilized by row-max subtraction before exponentiation. ``backward`` on
    the loss passes (softmax - onehot) / batch on to ``logits``.
    """
    value, log_probs = _log_softmax_loss(logits.data, labels)
    labels = np.asarray(labels)
    batch = len(labels)

    def pull(g):
        soft = np.exp(log_probs)
        soft[np.arange(batch), labels] -= 1.0
        logits._pull(g * soft / batch)

    return Tensor(value, pull)


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
    or with a non-finite one raises before anything moves.
    """

    def __init__(self, params, learning_rate=1e-3):
        self.params: list[Parameter] = list(params)
        self.learning_rate = learning_rate
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
    ``Network.infer``: bitwise the values ``forward`` gives. A loss that is
    not finite, read from logits that overflowed, raises ``TrainingError``."""
    with np.errstate(all="ignore"):
        logits = network.infer(inputs, mode=mode)
        loss, _ = _log_softmax_loss(logits, labels)
    if not np.isfinite(loss):
        raise TrainingError(f"{mode} evaluation diverged (loss={float(loss)!r})")
    return float(loss), float((logits.argmax(axis=1) == labels).mean())


def train(network, dataset, config: TrainConfig, val=None):
    """Train in place; returns per-epoch metrics.

    Deterministic for a fixed (network seed, config seed, dataset): batch
    order, parameter updates, and metrics are all reproducible bitwise.
    A diverging run raises ``TrainingError`` (a non-finite or huge loss, a
    non-finite gradient, or a parameter not finite before returning or a
    ``val`` evaluation) and lets no numpy floating-point warning through.
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
        if val is not None or epoch == config.epochs - 1:  # a last step that overflowed raises here
            bad = next((p for p in optimizer.params if not np.isfinite(p.data).all()), None)
            if bad is not None:
                raise TrainingError(f"non-finite parameter {bad.name!r} after epoch {epoch}")
        row = EpochMetrics(epoch, total_loss / n, total_correct / n)
        if val is not None:
            val_loss, val_acc = evaluate(network, val.inputs, val.labels)
            row = EpochMetrics(row.epoch, row.train_loss, row.train_acc, val_loss, val_acc)
        metrics.append(row)
    return metrics


def metrics_to_csv(metrics) -> str:
    """CSV rendering with columns epoch, train_loss, train_acc, val_loss, val_acc."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "train_loss", "train_acc", "val_loss", "val_acc"])
    for m in metrics:
        writer.writerow(
            [
                m.epoch,
                repr(m.train_loss),
                repr(m.train_acc),
                "" if m.val_loss is None else repr(m.val_loss),
                "" if m.val_acc is None else repr(m.val_acc),
            ]
        )
    return buf.getvalue()
