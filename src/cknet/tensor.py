"""Dense float64 tensors with reverse-mode automatic differentiation.

A small eager autograd engine sufficient for fully-connected networks.
Every operation allocates a fresh ``Tensor`` holding the numpy result plus
closures that pull the output gradient back to each operand, so the
computation graph is rebuilt on every forward pass and torn down by
``backward``. Operations never mutate their operands.

A forcing map act(W x + b) is one node: ``affine`` takes the activation's
name and applies it inside the same node, and its pullback forms
g·act'(z) once for the x, weight and bias edges. The activation formulas
(value and derivative) live once, in ``ACTIVATIONS``. ``affine`` also
takes E maps stacked on a leading member axis, so E independent networks
of one shape step as a single ensemble.

Only ``Tensor`` operands are graph nodes. A Python scalar or a numpy array
given to ``+``, ``*``, ``affine`` or as a ``linear_combination``
coefficient or term is a constant: it gets no parent edge, no pullback and
no gradient, so the input batch, the mesh-step powers and the integer
stencil coefficients cost nothing in ``backward``. ``affine`` and
``linear_combination`` fold constants: with no ``Tensor`` operand they
return the plain ``np.ndarray`` value, bitwise the ``.data`` the graph path
gives, so a forward pass over arrays builds no graph at all. Wrap a value
in ``Tensor`` to differentiate with respect to it.

An op computes its value in its own output buffer: ``affine`` adds the
bias and applies the activation in place on its matmul output, and
``linear_combination`` sums into an array it allocated itself. Only
buffers an op allocated are ever written, so operands, and every
``Tensor.data``, are never mutated, and each value is bitwise that of the
out-of-place expression with the same operand order.

Everything is float64; the equivalence checks elsewhere in the package rely
on tight tolerances, so there is deliberately no dtype flexibility.

Graph construction and the backward pass are single-threaded. Tensors are
immutable values with no internal locking, so frozen values (and frozen
models built from them) are safe to share across threads for read-only
evaluation.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ShapeError",
    "GraphError",
    "affine",
    "linear_combination",
    "ACTIVATIONS",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GraphError(RuntimeError):
    """The autodiff graph cannot support the requested traversal."""


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A float64 numpy array plus reverse-mode autodiff bookkeeping.

    ``data`` is the value, ``grad`` the lazily accumulated gradient (``None``
    until ``backward`` reaches this node), and ``_parents`` the edges of the
    computation graph: ``(parent, pull)`` pairs where ``pull`` maps the
    gradient at this node to the contribution for that parent.
    """

    __slots__ = ("data", "grad", "_parents", "_spent")
    # numpy operators defer to Tensor's reflected ones, so an array on the
    # left of ``+`` or ``*`` is a constant too
    __array_ufunc__ = None

    def __init__(self, data, _parents=()):
        self.data = _as_array(data)
        self.grad = None
        self._parents = tuple(_parents)
        self._spent = False

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self.data!r})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction helpers ----------------------------------------

    def _operand(self, other, op: str):
        """``other``'s value, and ``other`` itself if it is a graph node.

        Non-``Tensor`` operands are constants and come back as ``None``.
        """
        if isinstance(other, Tensor):
            data, node = other.data, other
        else:
            data, node = _as_array(other), None
        if self.data.shape != data.shape and self.data.size != 1 and data.size != 1:
            raise ShapeError(
                f"{op}: shapes {self.shape} and {data.shape} are neither equal "
                "nor scalar-vs-tensor"
            )
        return data, node

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        data, other = self._operand(other, "add")
        parents = [(self, lambda g: _unbroadcast(g, self.shape))]
        if other is not None:
            parents.append((other, lambda g: _unbroadcast(g, other.shape)))
        return Tensor(self.data + data, _parents=parents)

    __radd__ = __add__

    def __mul__(self, other):
        data, other = self._operand(other, "mul")
        parents = [(self, lambda g: _unbroadcast(g * data, self.shape))]
        if other is not None:
            parents.append((other, lambda g: _unbroadcast(g * self.data, other.shape)))
        return Tensor(self.data * data, _parents=parents)

    __rmul__ = __mul__

    def sum(self) -> "Tensor":
        return Tensor(
            self.data.sum(),
            _parents=((self, lambda g: np.broadcast_to(g, self.shape).copy()),),
        )

    # -- backward pass -------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into ``grad`` for every reachable node.

        The root must be scalar-valued. Each node is visited exactly once in
        reverse topological order; the graph edges are released afterwards,
        so calling ``backward`` twice on the same root is an error.
        """
        if self._spent:
            raise GraphError(
                "backward already ran from this root; build a fresh graph first"
            )
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.shape}")
        order = _reverse_topological(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            grad = node.grad
            for parent, pull in node._parents:
                contribution = pull(grad)
                if parent.grad is None:
                    parent.grad = contribution
                else:
                    parent.grad = parent.grad + contribution
            node._parents = ()
        self._spent = True


class Parameter(Tensor):
    """A named leaf tensor, one of the arrays training updates."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to an operand's shape after scalar broadcast."""
    if grad.shape == shape:
        return grad
    # only scalar-vs-tensor broadcasting exists, so target is a single element
    return np.asarray(grad.sum()).reshape(shape)


def _reverse_topological(root: Tensor) -> list[Tensor]:
    """Nodes reachable from root, root first, parents after children.

    Iterative DFS with visiting/done marks; a back edge means the graph has
    a cycle, which eager construction never produces but manual graph
    surgery could.
    """
    VISITING, DONE = 0, 1
    state: dict[int, int] = {id(root): VISITING}
    order: list[Tensor] = []
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent, _ in parents:
            mark = state.get(id(parent))
            if mark == VISITING:
                raise GraphError("cycle detected in autodiff graph")
            if mark is None:
                state[id(parent)] = VISITING
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            state[id(node)] = DONE
            order.append(node)
            stack.pop()
    order.reverse()
    return order


# -- nonlinearities ----------------------------------------------------------
# Each entry maps a pre-activation z, whose buffer it overwrites with the
# value y, to y and the chain factor g -> g·act'(z). ``affine`` applies it
# to its own matmul output.


def _tanh(z: np.ndarray):
    y = np.tanh(z, out=z)
    return y, lambda g: g * (1.0 - y * y)


def _sigmoid(z: np.ndarray):
    # 0.5·(1 + tanh(0.5·z)), which stays finite for any input magnitude
    y = np.multiply(0.5, z, out=z)
    np.tanh(y, y)  # the rest in place
    np.add(1.0, y, y)
    np.multiply(0.5, y, y)
    return y, lambda g: g * y * (1.0 - y)


def _leaky_relu(z: np.ndarray):
    # the scale follows the sign of z, not of the output
    scale = np.where(z >= 0.0, 1.0, 0.1)
    return np.multiply(z, scale, out=z), lambda g: g * scale


ACTIVATIONS = {"tanh": _tanh, "sigmoid": _sigmoid, "leaky_relu": _leaky_relu}


# -- linear maps --------------------------------------------------------------


def _scaled(c):
    return lambda g: c * g


def _passed(g):
    return g


def _value(operand) -> np.ndarray:
    return operand.data if isinstance(operand, Tensor) else _as_array(operand)


def _any_node(x, weight, bias) -> bool:
    return isinstance(x, Tensor) or isinstance(weight, Tensor) or isinstance(bias, Tensor)


def _shared(chain):
    """``chain`` as a pullback evaluated once per gradient, for the edges that
    share it (the engine hands every edge of a node the same ``grad``)."""
    memo = [None, None]

    def pull(g):
        if memo[0] is not g:
            memo[0], memo[1] = g, chain(g)
        return memo[1]

    return pull


def _biased(y: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``y + bias``, written into ``y``, a matmul output the caller allocated.
    numpy adds into a one-element first operand by its reduction loop, which
    may keep the other operand's NaN payload, so that one sum is formed out
    of place."""
    return np.add(y, bias, out=y) if y.size > 1 else y + bias


def affine(x, weight, bias, activation: str | None = None):
    """``act(x @ weight.T + bias)`` for x of shape [n] or [batch, n], as one node.

    weight is [m, n] and bias [m]; the bias is broadcast across the batch
    (its gradient sums over the batch rows). ``activation`` names an entry
    of ``ACTIVATIONS``, or is ``None`` for the bare affine map. The pullback
    forms g·act'(z) once and feeds the x, weight and bias contributions from
    it, so values and gradients are bitwise those of the bare ``affine``
    followed by the activation as a node of its own. Any operand that is
    not a ``Tensor`` is a constant and gets no gradient; with no ``Tensor``
    operand the value comes back as an ``np.ndarray``, with no node.

    A stack of E maps has a leading member axis: weight [E, m, n], bias
    [E, m] and x [E, n] or [E, batch, n]. Member e is
    ``x[e] @ weight[e].T + bias[e]``, and each pullback stays within its
    member.
    """
    xd, wd, bd = _value(x), _value(weight), _value(bias)
    if wd.ndim == 3:
        return _stacked_affine(x, weight, bias, xd, wd, bd, activation)
    if wd.ndim != 2:
        raise ShapeError(f"affine weight must be 2-D, or 3-D when stacked, got {wd.shape}")
    if bd.ndim != 1 or bd.shape[0] != wd.shape[0]:
        raise ShapeError(f"affine bias shape {bd.shape} does not match weight {wd.shape}")
    if xd.ndim not in (1, 2) or xd.shape[-1] != wd.shape[1]:
        raise ShapeError(f"affine input shape {xd.shape} does not match weight {wd.shape}")
    if activation is not None and activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    y = _biased(xd @ wd.T, bd)
    local = _passed
    if activation is not None:
        y, chain = ACTIVATIONS[activation](y)
        local = _shared(chain)
    if not _any_node(x, weight, bias):
        return y
    parents = []
    if isinstance(x, Tensor):
        parents.append((x, lambda g: local(g) @ wd))
    if isinstance(weight, Tensor):
        if xd.ndim == 1:
            parents.append((weight, lambda g: np.outer(local(g), xd)))
        else:
            parents.append((weight, lambda g: local(g).T @ xd))
    if isinstance(bias, Tensor):
        parents.append((bias, local if xd.ndim == 1 else (lambda g: local(g).sum(axis=0))))
    return Tensor(y, _parents=parents)


def _stacked_affine(x, weight, bias, xd, wd, bd, activation):
    """``affine`` over E maps stacked on axis 0, as one ``np.matmul`` over
    [E, rows, width]: an unbatched member is a batch of one row."""
    members, m, n = wd.shape
    if bd.shape != (members, m) or xd.ndim not in (2, 3) or (xd.shape[0], xd.shape[-1]) != (members, n):
        raise ShapeError(f"affine input {xd.shape} or bias {bd.shape} does not match stacked weight {wd.shape}")
    if activation is not None and activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    rows = xd.reshape(members, -1, n)
    y = _biased(np.matmul(rows, np.swapaxes(wd, 1, 2)), bd[:, None, :]).reshape(*xd.shape[:-1], m)
    local = _passed
    if activation is not None:
        y, chain = ACTIVATIONS[activation](y)
        local = _shared(chain)
    if not _any_node(x, weight, bias):
        return y

    def grad_rows(g):
        return local(g).reshape(members, -1, m)

    parents = []
    if isinstance(x, Tensor):
        parents.append((x, lambda g: np.matmul(grad_rows(g), wd).reshape(xd.shape)))
    if isinstance(weight, Tensor):
        parents.append((weight, lambda g: np.matmul(np.swapaxes(grad_rows(g), 1, 2), rows)))
    if isinstance(bias, Tensor):
        parents.append((bias, lambda g: grad_rows(g).sum(axis=1)))
    return Tensor(y, _parents=parents)


def linear_combination(terms):
    """``c_0*t_0 + c_1*t_1 + ...`` over (coefficient, term) pairs, as one node.

    The terms are summed left to right, and a term whose coefficient is 1
    is added without a multiply, so the value is bitwise that of chaining
    ``+`` and constant ``*`` in the same order. The sum goes into an array
    allocated here (a scaled term, or the first sum of two unscaled ones),
    never into an operand. Coefficients are constants; every term must have the
    same shape. A term is a ``Tensor`` or a numpy array; only the ``Tensor``
    terms get an edge, and with none the value comes back as an
    ``np.ndarray``. A single term with coefficient 1 returns its term
    unchanged.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("linear_combination needs at least one term")
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    shape = terms[0][1].shape
    value, owned = None, False  # owned: value is an array allocated here, free to write
    parents = []
    for c, t in terms:
        if t.shape != shape:
            raise ShapeError(f"linear_combination: shapes {shape} and {t.shape} differ")
        if isinstance(t, Tensor):
            data = t.data
            parents.append((t, _passed if c == 1 else _scaled(c)))
        else:
            data = _as_array(t)
        term = data if c == 1 else c * data
        if value is None:
            # one-element sums stay out of place: numpy gives a 0-d result as
            # a scalar, and see ``_biased`` for adding into a one-element array
            inplace = data.size > 1
            value, owned = term, inplace and c != 1
        elif owned:
            np.add(value, term, value)  # into value
        elif inplace and c != 1:
            value, owned = np.add(value, term, term), True  # into the fresh product
        else:
            value, owned = value + term, inplace
    return Tensor(value, _parents=parents) if parents else value
