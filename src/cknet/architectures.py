"""Network families built from higher-order layer recurrences.

Four block types over a shared learnable forcing map f(x) = act(W x + b):

* plain feed-forward composition (order 0),
* residual blocks (order 1),
* order-k smooth blocks, driven either directly from the last k
  activations or as the equivalent first-order system on k stacked
  difference states,
* additive dense blocks, where the k most recent forcing outputs are
  summed onto a k-lagged skip, again in direct or state-space form.

The direct and state-space forms of the same network are numerically
equivalent; the verification battery and tests lean on that heavily.

Two separately constructed networks share no mutable state. Evaluating a
frozen network is safe from multiple threads; training mutates parameters
in place and must be serialized externally.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .dynamics import MAX_BINOMIAL_N, alternating_binomial_row
from .tensor import ACTIVATIONS, Parameter, ShapeError, Tensor

__all__ = [
    "NetworkConfig",
    "check_mesh_step",
    "LayerRecord",
    "Trace",
    "unroll",
    "Network",
    "c1_step",
    "parameter_count",
    "weight_matrix_ratio",
]


def _init_weight(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Glorot-uniform weights of shape [..., fan_out, fan_in]. One draw of a
    stack is bitwise the draws of its matrices one after another."""
    bound = np.sqrt(6.0 / (shape[-1] + shape[-2]))
    return rng.uniform(-bound, bound, size=shape)


def check_mesh_step(dl: float, k: int) -> None:
    """``ValueError`` unless dl**k, the forcing scale of an order-k block, is finite."""
    try:  # a numpy k or dl would overflow with a warning: the power is taken on Python numbers
        finite = math.isfinite(float(dl) ** operator.index(k))
    except OverflowError:  # a float power past the float range raises instead of giving inf
        finite = False
    if not finite:
        raise ValueError(f"dl**k overflows for dl={dl} and k={k}")


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of one classifier network.

    Families: "c0" (plain composition, no skips), "ck" (smooth order-k
    recurrence; k=1 is the residual network), "dense" (additive dense).
    """

    family: str
    k: int
    depth: int
    width: int
    input_dim: int
    num_classes: int
    dl: float = 1.0
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dl", _check_block(self.family, self.k, self.dl))
        for name, least in (("depth", 0), ("width", 1), ("input_dim", 1), ("num_classes", 2), ("seed", 0)):
            _check_count(name, getattr(self, name), least)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def _check_count(name: str, value, least: int) -> None:
    """``TypeError`` unless ``value`` is an integer (a Python or numpy int, not
    a float), ``ValueError`` if it is below ``least``."""
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_block(family: str, k, dl) -> float:
    """dl as the float64 an order-k block of ``family`` steps by, refusing a
    block no network has: ``ValueError`` for an unknown family, c0 with k
    other than 1, k outside 1..``MAX_BINOMIAL_N``, dl not > 0 (NaN too) or
    dl**k not finite; ``TypeError`` unless k is an integer and dl a real
    number. ``NetworkConfig`` and ``unroll`` share it."""
    if family not in ("c0", "ck", "dense"):
        raise ValueError(f"unknown family {family!r}")
    _check_count("k", k, 1)
    if family == "c0" and k != 1:
        raise ValueError("the skipless family has no order parameter; use k=1")
    if k > MAX_BINOMIAL_N:
        raise ValueError(f"order k must be <= {MAX_BINOMIAL_N}, got {k}")
    if not isinstance(dl, numbers.Real):
        raise TypeError(f"dl must be a real number, got {dl!r}")
    try:  # the layers step in float64: a Fraction or a numpy scalar is kept as its nearest float
        dl = float(dl)
    except OverflowError:  # an int or a Fraction past the float range
        dl = math.inf
    if not dl > 0:
        raise ValueError(f"dl must be positive, got {dl}")
    check_mesh_step(dl, k)
    return dl


# -- single block steps --------------------------------------------------------


def c1_step(weight, bias, activation: str, x, dl: float):
    """Residual layer: identity plus a forcing perturbation of size dl, the
    forcing act(weight x + bias) of ``affine``."""
    if not dl > 0:
        raise ValueError(f"dl must be positive, got {dl}")
    return x + T.affine(x, weight, bias, activation) * dl


# -- parameter accounting --------------------------------------------------------


def parameter_count(kind: str, k: int, d: int, depth: int) -> int:
    """Per-network learnable-parameter total of the block stack.

    ``kind="ck"``: each of the ``depth`` layers owns one width-d forcing
    map (d*d weights + d biases) regardless of order k. ``kind=
    "first_order_equiv"``: an explicit first-order network on the k*d
    dimensional state with a full (k*d)^2 weight per layer. The sizes are
    integers, k and d at least 1 and depth at least 0.
    """
    for name, value, least in (("k", k, 1), ("d", d, 1), ("depth", depth, 0)):
        _check_count(name, value, least)
    if kind == "ck":
        return depth * (d * d + d)
    if kind == "first_order_equiv":
        kd = k * d
        return depth * (kd * kd + kd)
    raise ValueError(f"unknown architecture kind {kind!r}")


def weight_matrix_ratio(k: int, d: int = 1) -> Fraction:
    """Exact per-layer weight-count ratio of order-k blocks vs the explicit
    first-order equivalent: always 1/k^2. k and d are integers of at least 1."""
    _check_count("k", k, 1)
    _check_count("d", d, 1)
    return Fraction(d * d, (k * d) * (k * d))


# -- whole networks --------------------------------------------------------------


class LayerRecord(NamedTuple):
    """One layer of an unrolled network.

    ``x`` is the activation x_l, ``force`` the forcing output
    f_{l-1}(x_{l-1}) that produced it (``None`` at the input), and ``state``
    the tuple of state parts q_l in state mode (``None`` in direct mode).
    """

    x: np.ndarray
    force: np.ndarray | None
    state: tuple | None


@functools.cache
def _direct_terms(family: str, k: int, dl: float) -> tuple[tuple[float, int, bool], ...]:
    """The family's direct recurrence as (coefficient, lag j, is_forcing) terms, which
    ``unroll``'s direct mode reads: x_{l+1} is the sum, in table order, of
    c·x_{l-j} or c·f_{l-j}(x_{l-j}). A lag before the input is x_0 (the ghost
    start), and a forcing before the input adds no term."""
    if family == "c0":  # x_{l+1} = f_l
        return ((1, 0, True),)
    if family == "ck":  # x_{l+1} = dl^k·f_l - Σ_j c_{j+1}·x_{l-j}, c the mixed difference stencil
        return ((dl**k, 0, True), *((-c, j, False) for j, c in enumerate(alternating_binomial_row(k)[1:])))
    # dense: x_{l+1} = x_{l-k+1} + dl·(f_{l-k+1} + ... + f_l), oldest output first
    return ((1, k - 1, False), *((dl, j, True) for j in reversed(range(k))))


@functools.cache  # keyed by the table itself, so every direct ``unroll`` converts it once
def _scaled_terms(terms: tuple) -> tuple[tuple[np.float64 | None, bool, int], ...]:
    """A ``_direct_terms`` table as ``unroll`` sums it: (scale, is_forcing, lag)
    terms, the scale the coefficient as a float64 scalar, or ``None`` for a unit
    coefficient, whose term is added without a multiply."""
    return tuple((None if c == 1 else np.float64(c), is_forcing, j) for c, j, is_forcing in terms)


def unroll(weights, biases, activation: str, x0, family: str, k: int, dl: float, mode: str):
    """Step ``x0`` through the layers of a block stack; yield a ``LayerRecord`` per layer.

    Layer l's forcing map is ``affine(x, weights[l], biases[l], activation)``:
    ``weights`` is [L, d, d] and ``biases`` [L, d], or [L, E, d, d] and
    [L, E, d] for E maps stacked on a member axis (see ``affine``). The
    family, k and dl (by ``NetworkConfig``'s checks and messages; dl is
    stepped as its float), the activation, the stack and x_0 (against its
    width and member axis) are checked when the loop starts, before any
    record, and how every layer's forcing is formed is chosen once: at width
    1 the float64-scalar broadcast ``x * w_l`` plus ``b_l + 0.0``,
    ``_affine``'s one-row product; ``x @ W_lᵀ`` through BLAS at a wider flat
    stack; ``_affine`` for a stacked ensemble.
    The first record is the input x_0, then one per layer. Every layer
    evaluates its own forcing map once, on x_l (direct) or q_1 (state), and
    never another layer's. No yielded array is written afterwards.

    In direct mode every family sums its ``_direct_terms``, converted once by
    ``_scaled_terms``, in table order over two windows of the table's n lags:
    x_l, ..., x_{l-n+1}, the ghost start repeating x_0, and f_l(x_l), ...,
    f_{l-n+1}(x_{l-n+1}), of which those before the input add no term. A unit
    coefficient adds its term without a multiply, and a sum goes into the
    array the loop allocated for it, else into the term's fresh product, else
    out of place (always out of place for one-element arrays, see
    ``_affine``), so each sum is bitwise the chained ``+`` and ``*`` in table
    order and no operand is written. In state mode the parts
    ``q`` are a tuple q_1..q_k, q_1 = x_0 and the rest zero at the input, and
    a layer runs its family's first-order step: c0 is q' = (f,); ck, whose
    transition is the upper all-ones matrix, is the suffix sum q_k' = q_k +
    dl^k·f, then q_n' = q_n + q_{n+1}' for n = k-1..1; dense, whose transition
    is the identity, is ``q' = q + B·u``, u the outputs dl·f_l, dl·f_{l-1},
    ... (zero before the input), and row n of B·u is their n-fold backward
    difference D_n: from the layer before's D_0..D_{k-1} (zero before the
    input), D_0 = f_l·dl, D_m = D_{m-1} - D_{m-1}(before), then q_n' = q_n +
    D_{n-1}.
    """
    if mode not in ("direct", "state"):
        raise ValueError(f"unknown mode {mode!r}")
    dl = _check_block(family, k, dl)
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    weights, biases, x0 = T._as_array(weights), T._as_array(biases), T._as_array(x0)
    if weights.ndim not in (3, 4) or weights.shape[-2] != weights.shape[-1]:
        raise ShapeError(f"layer weights must be [L, d, d], or [L, E, d, d] when stacked, got {weights.shape}")
    if biases.shape != weights.shape[:-1]:
        raise ShapeError(f"layer biases of shape {biases.shape} do not match weights {weights.shape}")
    members = weights.shape[1:-2]  # (E,) when stacked, else ()
    if x0.ndim - len(members) not in (1, 2) or (*x0.shape[: len(members)], x0.shape[-1]) != weights.shape[1:-1]:
        raise ShapeError(f"x_0 of shape {x0.shape} does not match layer weights {weights.shape}")
    act, stacked, one = ACTIVATIONS[activation].value, bool(members), weights.shape[1:] == (1, 1)
    inplace = x0.size > 1  # numpy adds into a one-element array by its reduction loop: see ``_affine``
    if one:  # ``_affine``'s one-row product on float64 scalars, its bias + 0.0 taken once
        maps = zip(weights.reshape(-1), (biases + 0.0).reshape(-1))
    else:
        maps = zip(np.swapaxes(weights, -1, -2), biases)
    direct, state = mode == "direct", mode == "state"
    if direct:
        terms = _scaled_terms(_direct_terms(family, k, dl))
        window = 1 + max(j for _, _, j in terms)
        lags, forced = deque([x0] * window, maxlen=window), deque([None] * window, maxlen=window)
        windows = (lags, forced)
    else:
        scale, q, differences = dl**k, (x0,) + (np.zeros(x0.shape),) * (k - 1), (np.zeros(x0.shape),) * k
        scale, dl = None if scale == 1 else np.float64(scale), np.float64(dl)
    yield LayerRecord(x0, None, q if state else None)
    del x0  # the lag window or state holds it as long as a layer needs it
    for w, b in maps:
        x = lags[0] if direct else q[0]
        if stacked:
            force = T._affine(x, w, b, act)
        else:
            force = x * w if one else x @ w
            if inplace:
                force += b
            else:
                force = force + b
            force = act(force)
        if direct:
            forced.appendleft(force)
            x = None  # the sum; owned: it is an array this loop allocated, free to write
            for c, is_forcing, j in terms:
                term = windows[is_forcing][j]
                if term is None:  # a forcing before the input
                    continue
                if c is not None:
                    term = c * term
                if x is None:
                    x, owned = term, inplace and c is not None
                elif owned:
                    x += term
                elif inplace and c is not None:
                    x, owned = np.add(x, term, out=term), True
                else:
                    x, owned = x + term, inplace
            lags.appendleft(x)
        elif family == "ck":  # one product dl^k·f, then k unit-coefficient adds from q_k up
            if scale is None:
                top = q[-1] + force
            else:
                top = scale * force
                top = np.add(q[-1], top, out=top) if inplace else q[-1] + top
            suffix = [top]
            for part in reversed(q[:-1]):
                suffix.append(part + suffix[-1])
            q = tuple(reversed(suffix))
        elif family == "dense":  # one product f·dl, then k-1 unit-coefficient subtracts and k adds
            differences = tuple(itertools.accumulate(differences[:-1], operator.sub, initial=force * dl))
            q = tuple(map(operator.add, q, differences))
        else:  # c0 keeps no memory
            q = (force,)
        yield LayerRecord(x if direct else q[0], force, q if state else None)


# -- the layer adjoint ------------------------------------------------------------
#
# The walk runs one pass's reverse loop over the stacked [L, d, d] ``weights``:
# from x̄_L, the gradient at the last activation, and the pass's records, ``xs``
# x_0..x_L and ``forces`` f_0(x_0)..f_{L-1}(x_{L-1}) (state records hold x_l =
# q_1 and f_l(q_1)), it returns x̄_0 and the stacked weight and bias gradients.
# Each entry of ``xs`` and ``forces`` is set to ``None`` after its last read, so
# the gradients do not pile up beside the trajectory.


def _pull_forcing(fbar, force, x, w, xbar, chain, wbar, bbar):
    """Pull f̄_l through f_l = act(x_l·W_lᵀ + b_l): W̄_l and b̄_l into ``wbar`` and
    ``bbar``, and return x̄_l, which is ``xbar`` (``None`` for no term yet) plus
    local·W_l, local = f̄_l·act'.

    At width 1 (``w`` the float64 scalar w_l, not a [1, 1] matrix) the product is the
    broadcast ``local * w`` plus 0.0: numpy's matmul loop over an inner
    dimension of 1 sums 0 + p, which turns a -0.0 into 0.0 and changes nothing
    else. Sums into a one-element array stay out of place (see ``_affine``)."""
    local = chain(fbar, force)
    np.matmul(local.T, x, out=wbar)
    np.add.reduce(local, axis=0, out=bbar)
    inplace = local.size > 1
    if w.ndim:
        term = local @ w
    elif inplace:
        term = local * w
        term += 0.0
    else:
        term = local * w + 0.0
    if xbar is None:
        return term
    return np.add(xbar, term, out=term) if inplace else xbar + term


def _layer_adjoint(xbar_top, xs: list, forces: list, weights, activation: str, family: str, k: int, dl: float):
    """The adjoint of the family's state step, which ``unroll`` runs, read out at q_1.

    ck's step is the suffix sum q_n' = q_n + ... + q_k + dl^k·f_l(q_1). The
    adjoints λ_1..λ_k of its parts start at (x̄_L, 0, ..., 0). A layer
    replaces them by their prefix sums, acc = λ_1 and then λ_n = acc = λ_n +
    acc for n = 2..k (k-1 unit-coefficient adds, skipped while λ_n is still
    zero above the top layer), sets f̄_l = dl^k·acc (no multiply when the
    scale is 1), and adds f_l's pullback into λ_1. So the walk multiplies by
    no binomial coefficient. dense's step is q' = q + B·u with only q_1 read
    out or fed to the forcing, so q_2..q_k never reach the loss: it walks
    order 1 with scale dl, as ck k=1 does. c0's step is q' = (f,): order 1
    with scale 1, and λ_1 is not carried across a layer."""
    order, carry = k if family == "ck" else 1, family != "c0"
    scale = dl**order if carry else 1
    scale = None if scale == 1 else np.float64(scale)
    wbar, bbar, chain = np.empty(weights.shape), np.empty(weights.shape[:-1]), ACTIVATIONS[activation].chain
    maps = weights.reshape(-1) if weights.shape[1:] == (1, 1) else weights  # as ``_pull_forcing`` multiplies
    lam = [xbar_top] + [None] * (order - 1)
    for l in reversed(range(len(weights))):
        acc = lam[0]
        for n in range(1, order):
            if lam[n] is not None:
                acc = lam[n] + acc
            lam[n] = acc
        fbar = acc if scale is None else scale * acc
        lam[0] = _pull_forcing(fbar, forces[l], xs[l], maps[l], lam[0] if carry else None, chain, wbar[l], bbar[l])
        xs[l] = forces[l] = None
    return lam[0], wbar, bbar


@dataclass
class Trace:
    """A run's trajectory as stacked arrays, ``Trace.from_layers(net.layers(x, mode))``.

    With x the shape of one activation (``[width]`` or ``[batch, width]``),
    ``activations`` is ``(L+1, *x)``, ``forcing`` ``(L, *x)`` (empty at depth
    0) and, in state mode, ``states`` is ``(L+1, k, *x)``.
    """

    activations: np.ndarray  # x_0..x_L
    forcing: np.ndarray  # f_l(x_l) for l = 0..L-1
    states: np.ndarray | None  # state mode only: q_1..q_k per layer

    @classmethod
    def from_layers(cls, layers) -> "Trace":
        """The values in the ``LayerRecord``s of one ``unroll``, one array per
        field. ``np.array`` copies a list of equal-shape arrays into one
        stacked array (like ``np.stack``, at a third of its overhead on the
        battery's width-1..8 arrays), so the trace keeps no array of the
        unroll alive."""
        layers = list(layers)
        forces = [r.force for r in layers[1:]]
        return cls(
            np.array([r.x for r in layers]),
            np.array(forces) if forces else np.empty((0, *layers[0].x.shape)),
            None if layers[0].state is None else np.array([r.state for r in layers]),
        )


class Network:
    """Input embedding, a stack of dynamical blocks, and an affine readout."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d, c, depth = config.width, config.num_classes, config.depth
        # the weights are drawn in parameter order: embedding, blocks, head
        self.embed_weight, self.embed_bias, self.block_weight, self.block_bias, self.head_weight, self.head_bias = (
            Parameter(_init_weight(rng, shape) if name.endswith(".weight") else np.zeros(shape), name)
            for name, shape in (("embed.weight", (d, config.input_dim)), ("embed.bias", (d,)),
                                ("blocks.weight", (depth, d, d)), ("blocks.bias", (depth, d)),
                                ("head.weight", (c, d)), ("head.bias", (c,)))
        )

    def parameters(self) -> list[Parameter]:
        """The six arrays training updates: the embedding, the [L, d, d] and
        [L, d] block stacks, and the head."""
        return [self.embed_weight, self.embed_bias, self.block_weight, self.block_bias,
                self.head_weight, self.head_bias]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def forward(self, inputs: np.ndarray, mode: str = "direct") -> Tensor:
        """Run the network on a [batch, input_dim] (or [input_dim]) array.

        Returns the logits as a ``Tensor``. ``mode`` selects the direct
        multi-lag recurrence or the equivalent first-order state-space
        evaluation. The logits' pullback is the layer adjoint over the
        ``LayerRecord``s of ``layers``, which it keeps: a ``backward`` that
        reaches a [batch, classes] gradient at the logits sets the ``grad``
        of every parameter. The logits are those of ``_head``, which ``infer``
        shares: it gives the same values and keeps nothing.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        weights, head = self.block_weight.data, self.head_weight.data
        records = self.layers(inputs, mode)
        xs, forces = [next(records).x], []
        for record in records:
            xs.append(record.x)
            forces.append(record.force)
        return Tensor(self._head(xs[-1]), lambda g: self._adjoint(g, inputs, xs, forces, weights, head))

    def _head(self, x: np.ndarray) -> np.ndarray:
        """The logits ``affine(x, W, b)`` of last-layer activations ``x``.

        A batch has them formed class-major, one row per class, and returned
        as that array's transpose (F-contiguous [batch, classes]): ``W @ x.T
        + b[:, None]`` through BLAS, ``affine``'s ``x @ W.T + b`` (bitwise at
        every shape checked below 12 classes; from 12 on, OpenBLAS's
        two-thread split makes some shapes differ in the last bits). At
        width 1 the product is the broadcast ``x.T * W`` and the bias ``(b +
        0.0)[:, None]``, the products and sums of ``affine``'s one-row
        broadcast (of two NaNs, either keeps the payload numpy's loop picks)
        with numpy's inner loop over the batch, not the classes.
        """
        weight, bias = self.head_weight.data, self.head_bias.data
        if x.ndim == 1:
            return T.affine(x, weight, bias)
        if weight.shape[1] == 1:
            logits, bias = x.T * weight, bias + 0.0
        else:
            logits = weight @ x.T
        logits += bias[:, None]  # at least two classes, so never one element
        return logits.T

    def _adjoint(self, g: np.ndarray, inputs: np.ndarray, xs: list, forces: list, weights, head) -> None:
        """The reverse pass of one forward pass: the head, ``_layer_adjoint``
        over the blocks from layer L down to 0, and the embedding.

        ``xs`` and ``forces`` are that pass's records, ``weights`` and
        ``head`` the block stack and head weights it ran on, and ``g`` the
        gradient at its logits. Every family, in either mode, is
        differentiated through its state step.
        """
        cfg = self.config
        self.head_weight._pull(g.T @ xs[-1])
        self.head_bias._pull(g.sum(axis=0))
        xbar, wbar, bbar = _layer_adjoint(g @ head, xs, forces, weights, cfg.activation, cfg.family, cfg.k, cfg.dl)
        self.block_weight._pull(wbar)
        self.block_bias._pull(bbar)
        self.embed_weight._pull(xbar.T @ inputs)
        self.embed_bias._pull(xbar.sum(axis=0))

    def infer(self, inputs: np.ndarray, mode: str = "direct") -> np.ndarray:
        """``forward``'s logits as an ``np.ndarray``, bitwise, keeping no record.

        For evaluation, where nothing is differentiated. It reads out the
        last record of ``layers`` through ``forward``'s ``_head``.
        """
        for last in self.layers(inputs, mode):
            pass
        return self._head(last.x)

    def layers(self, inputs: np.ndarray, mode: str = "direct"):
        """The ``unroll`` of this network on the parameters' current arrays:
        its ``LayerRecord``s x_0..x_L.

        The records stream: a consumer that keeps only what it needs of each
        (``infer`` keeps the last, the perturbation probe one activation, the
        phase dump two state columns) never holds the trajectory. The input
        width is checked and x_0 embedded when this is called.
        """
        cfg = self.config
        arr = np.asarray(inputs, dtype=np.float64)
        if arr.ndim not in (1, 2) or arr.shape[-1] != cfg.input_dim:
            raise ShapeError(f"input {arr.shape} is not [input_dim] or [batch, input_dim], input_dim={cfg.input_dim}")
        x0 = T.affine(arr, self.embed_weight.data, self.embed_bias.data)
        return unroll(self.block_weight.data, self.block_bias.data, cfg.activation, x0, cfg.family, cfg.k, cfg.dl, mode)

