"""Dense float64 arrays, the ops a layer is built from, and the tensor that
carries a gradient back to the parameters.

``affine`` takes and returns numpy arrays. A forcing map act(W x + b) is
one ``affine`` call: it takes the activation's name and applies it in place
on its own product. The activation formulas live once, in ``ACTIVATIONS``:
each entry gives the value and the chain factor g·act'(z), read from the
output y = act(z), which is all a reverse pass keeps of a layer.
``affine`` also takes E maps stacked on a leading member axis, each member
a batch, so E independent networks of one shape step as a single ensemble.
``unroll`` checks a layer stack once per pass and forms every layer's
forcing by ``affine``'s operations, bitwise the values ``affine`` gives.

An op computes its value in its own output buffer: ``affine`` adds the
bias and applies the activation in place on its product. Only buffers an
op allocated are ever written, so operands are never mutated, and each
value is bitwise that of the out-of-place expression with the same operand
order.

A ``Tensor`` is a value, its gradient and at most one pullback: a function
that takes the gradient at the tensor and sets the gradients upstream of
it. ``Network.forward`` gives the logits a pullback that runs the layer
adjoint into every ``Parameter.grad``, and ``softmax_cross_entropy`` gives
the loss one that passes its gradient on to the logits. There is no general
graph: ``backward`` runs the chain once, loss to logits to parameters.

Everything is float64; the equivalence checks elsewhere in the package rely
on tight tolerances, so there is deliberately no dtype flexibility.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ShapeError",
    "GraphError",
    "affine",
    "ACTIVATIONS",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GraphError(RuntimeError):
    """A gradient was asked for twice from one forward pass."""


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _scalar(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, the form of every scalar
    operand on the layers' hot path. It gives the same bits as a float64
    scalar or a Python float, and numpy broadcasts it against a [160, 1] array
    faster: about 440 ns a product against 600-820 ns for a float64 scalar and
    610-640 ns for a Python float (timeit minima, numpy 2.4.6, x86_64)."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


class Tensor:
    """A float64 numpy array, its gradient, and at most one pullback.

    ``data`` is the value and ``grad`` the gradient (``None`` until
    ``backward`` reaches this tensor).
    """

    __slots__ = ("data", "grad", "_pullback", "_spent")

    def __init__(self, data, pullback: Callable[[np.ndarray], None] | None = None):
        self.data = _as_array(data)
        self.grad = None
        self._pullback = pullback
        self._spent = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self.data!r})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Set d(self)/d(p) in ``grad`` of everything upstream of this scalar.

        The pullback runs once and is then dropped, with the forward pass's
        records it holds, so calling ``backward`` twice on the same root is
        an error.
        """
        if self._spent:
            raise GraphError("backward already ran from this root; run the forward pass again first")
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.shape}")
        self._spent = True
        self._pull(np.ones_like(self.data))

    def _pull(self, grad: np.ndarray) -> None:
        """Add ``grad`` to this tensor's gradient (the first contribution is
        kept as given), then hand the gradient to the pullback, once."""
        self.grad = grad if self.grad is None else self.grad + grad
        pullback, self._pullback = self._pullback, None
        if pullback is not None:
            pullback(self.grad)


class Parameter(Tensor):
    """A named leaf tensor, one of the arrays training updates."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


# -- nonlinearities ----------------------------------------------------------


class Activation(NamedTuple):
    """``value`` overwrites a pre-activation z with y = act(z) and returns
    it; ``chain(g, y)`` is g·act'(z), read from y."""

    value: Callable[[np.ndarray], np.ndarray]
    chain: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 0.5·(1 + tanh(0.5·z)), which stays finite for any input magnitude
    y = np.multiply(0.5, z, out=z)
    np.tanh(y, y)  # the rest in place
    np.add(1.0, y, y)
    return np.multiply(0.5, y, y)


def _leaky_relu(z: np.ndarray) -> np.ndarray:
    return np.multiply(z, np.where(z >= 0.0, 1.0, 0.1), out=z)


_ONE = _scalar(1.0)

ACTIVATIONS = {
    "tanh": Activation(lambda z: np.tanh(z, out=z), lambda g, y: g * (_ONE - y * y)),
    "sigmoid": Activation(_sigmoid, lambda g, y: g * y * (1.0 - y)),
    # y has the sign of z, except where 0.1·z underflows to -0.0
    "leaky_relu": Activation(_leaky_relu, lambda g, y: g * np.where(y >= 0.0, 1.0, 0.1)),
}


# -- linear maps --------------------------------------------------------------


def affine(x, weight, bias, activation: str | None = None) -> np.ndarray:
    """``act(x @ weight.T + bias)`` for x of shape [n] or [batch, n].

    weight is [m, n] and bias [m]; the bias is broadcast across the batch.
    ``activation`` names an entry of ``ACTIVATIONS``, or is ``None`` for the
    bare affine map.

    A stack of E maps has a leading member axis: weight [E, m, n], bias
    [E, m] and x [E, batch, n]. Member e is ``x[e] @ weight[e].T + bias[e]``,
    computed as one ``np.matmul`` over the stack.

    A weight with one column (inputs of width 1) is multiplied as the
    broadcast ``x * weight[:, 0]``, not by numpy's unblocked matmul loop,
    which takes about seven times as long on 4,096 rows. That loop sums 0 +
    p, and (0 + p) + b is bitwise p + (b + 0.0), so such a bias is added as
    ``bias + 0.0``: that turns a -0.0 into 0.0 and changes nothing else. The
    value is then bitwise the matmul's wherever at most one operand of a
    product or sum is NaN; of two NaNs, numpy's loop picks which payload
    survives. ``np.dot`` would not do: OpenBLAS gives 0 for a NaN input
    against a zero weight.
    """
    x, weight, bias = _as_array(x), _as_array(weight), _as_array(bias)
    if weight.ndim == 2:
        if bias.ndim != 1 or bias.shape[0] != weight.shape[0]:
            raise ShapeError(f"affine bias shape {bias.shape} does not match weight {weight.shape}")
        if x.ndim not in (1, 2) or x.shape[-1] != weight.shape[1]:
            raise ShapeError(f"affine input shape {x.shape} does not match weight {weight.shape}")
    elif weight.ndim == 3:
        members, m, n = weight.shape
        if bias.shape != (members, m) or x.ndim != 3 or (x.shape[0], x.shape[-1]) != (members, n):
            raise ShapeError(f"affine input {x.shape} or bias {bias.shape} does not match stacked weight "
                             f"{weight.shape}: a stacked input is [E, batch, n]")
        bias = bias[:, None, :]
    else:
        raise ShapeError(f"affine weight must be 2-D, or 3-D when stacked, got {weight.shape}")
    if activation is not None and activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if weight.ndim == 2 and weight.shape[1] == 1:
        y, bias = x * weight[:, 0], bias + 0.0
    else:
        y = x @ np.swapaxes(weight, -1, -2)
    # numpy adds into a one-element first operand by its reduction loop, which
    # may keep the other operand's NaN payload, so that one sum is out of place
    y = np.add(y, bias, out=y) if y.size > 1 else y + bias
    return y if activation is None else ACTIVATIONS[activation].value(y)
