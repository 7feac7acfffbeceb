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

import json
import math
import operator
import os
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .dynamics import (
    MAX_BINOMIAL_N,
    BlockMatrix,
    alternating_binomial_row,
    build_ck_matrices,
    build_dense_matrices,
    mixed_diff_coefficients,
)
from .tensor import ACTIVATIONS, Parameter, ShapeError, Tensor

__all__ = [
    "ACTIVATIONS",
    "NetworkConfig",
    "check_mesh_step",
    "LayerRecord",
    "Trace",
    "unroll",
    "Network",
    "c1_step",
    "dense_difference_identity_residual",
    "parameter_count",
    "weight_matrix_ratio",
    "save_checkpoint",
    "load_checkpoint",
]


def _init_weight(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Glorot-uniform weights of shape [..., fan_out, fan_in]. One draw of a
    stack is bitwise the draws of its matrices one after another."""
    bound = np.sqrt(6.0 / (shape[-1] + shape[-2]))
    return rng.uniform(-bound, bound, size=shape)


def check_mesh_step(dl: float, k: int) -> None:
    """``ValueError`` unless dl**k, the forcing scale of an order-k block, is finite."""
    try:
        finite = math.isfinite(dl**k)
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
        if self.family not in ("c0", "ck", "dense"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "c0" and self.k != 1:
            raise ValueError("the skipless family has no order parameter; use k=1")
        if self.k < 1:
            raise ValueError(f"order k must be >= 1, got {self.k}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if min(self.width, self.input_dim) < 1 or self.num_classes < 2:
            raise ValueError("width and input_dim must be >= 1, num_classes >= 2")
        if not self.dl > 0:
            raise ValueError(f"dl must be positive, got {self.dl}")
        if self.k > MAX_BINOMIAL_N:
            raise ValueError(f"order k must be <= {MAX_BINOMIAL_N}, got {self.k}")
        check_mesh_step(self.dl, self.k)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


# -- single block steps --------------------------------------------------------


def c1_step(weight, bias, activation: str, x, dl: float):
    """Residual layer: identity plus a forcing perturbation of size dl, the
    forcing act(weight x + bias) of ``affine``."""
    if not dl > 0:
        raise ValueError(f"dl must be positive, got {dl}")
    return x + T.affine(x, weight, bias, activation) * dl


def dense_difference_identity_residual(trajectory, forcing_values, n: int, dl: float) -> np.ndarray:
    """|lhs - rhs| of the order-n dense difference identity, layers l = n..L-1 on axis 0.

    On an additive dense trajectory the (n+1)-order mixed difference of the
    activations (lhs) equals the n-fold backward difference of the forcing
    outputs scaled by dl (rhs) at every admissible layer l.

    ``trajectory`` holds arrays x_0..x_L, ``forcing_values`` the raw
    forcing outputs f_l(x_l) for l = 0..L-1 (lists of arrays, or the
    stacked arrays of a ``Trace``). Both stencils run once over all
    admissible layers, on shifted slices.
    """
    if n < 0:
        raise ValueError(f"difference order must be >= 0, got {n}")
    last = len(trajectory) - 2
    if last < n:
        raise IndexError(
            f"trajectory of {len(trajectory)} layers is too short for order {n}"
        )
    if len(forcing_values) != len(trajectory) - 1:
        raise ShapeError("need one forcing value per transition")
    xs, fs = np.asarray(trajectory), np.asarray(forcing_values)
    # term j of layer l = n..last reads x_{l+1-j} and f_{l-j}
    lhs = sum(c * xs[n + 1 - j : last + 2 - j] for j, c in enumerate(mixed_diff_coefficients(n + 1)))
    rhs = sum(c * fs[n - j : last + 1 - j] for j, c in enumerate(alternating_binomial_row(n))) * dl
    return np.abs(lhs - rhs)


# -- parameter accounting --------------------------------------------------------


def parameter_count(kind: str, k: int, d: int, depth: int) -> int:
    """Per-network learnable-parameter total of the block stack.

    ``kind="ck"``: each of the ``depth`` layers owns one width-d forcing
    map (d*d weights + d biases) regardless of order k. ``kind=
    "first_order_equiv"``: an explicit first-order network on the k*d
    dimensional state with a full (k*d)^2 weight per layer.
    """
    if kind == "ck":
        return depth * (d * d + d)
    if kind == "first_order_equiv":
        kd = k * d
        return depth * (kd * kd + kd)
    raise ValueError(f"unknown architecture kind {kind!r}")


def weight_matrix_ratio(k: int, d: int = 1) -> Fraction:
    """Exact per-layer weight-count ratio of order-k blocks vs the explicit
    first-order equivalent: always 1/k^2."""
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


def _c0_matrices(k: int) -> tuple[BlockMatrix, BlockMatrix]:
    """No skips, no memory: A = [[0]], B = [[1]], the next state is f(x)."""
    return BlockMatrix(1, ((0,),)), BlockMatrix(1, ((1,),))


_MATRICES = {"c0": _c0_matrices, "ck": build_ck_matrices, "dense": build_dense_matrices}


def unroll(weights, biases, activation: str, x0, family: str, k: int, dl: float, mode: str, matrices=None):
    """Step ``x0`` through the layers of a block stack; yield a ``LayerRecord`` per layer.

    Layer l's forcing map is ``affine(x, weights[l], biases[l], activation)``:
    ``weights`` is [L, d, d] and ``biases`` [L, d], or [L, E, d, d] and
    [L, E, d] for E maps stacked on a member axis (see ``affine``). The
    activation, the stack and x_0 (against its width and member axis) are
    checked when the loop starts, before any record; the layers then run on
    the kernels of ``affine`` and ``linear_combination``, looked up then. The
    first record is the input x_0, then one per layer. In state mode every
    layer is ``q' = A·q + s·B·u`` over the family's (transition, coupling)
    pair, or over ``matrices`` when given (the verification battery passes a
    corrupted pair to check that it is caught). In direct mode ck runs its
    stencil on the lag window, dense its multi-lag sum, and c0, which has no
    memory, its matrix step. A layer evaluates its own forcing once; direct
    dense reuses the outputs of the layers before it, the dense state form
    evaluates them on their lags.

    The lag window and the state parts are tuples: ``lags`` holds x_l, ...,
    x_{l-k+1} (the ghost start repeats x_0) and ``forced`` f_{l-1}(x_{l-1}),
    ..., f_{l-k}(x_{l-k}), ``None`` before the input; ``q`` holds q_1..q_k,
    q_1 = x_0 and the rest zero at the input.
    """
    if mode not in ("direct", "state"):
        raise ValueError(f"unknown mode {mode!r}")
    if family not in _MATRICES:
        raise ValueError(f"unknown family {family!r}")
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
    affine, combine, act = T._affine, T._linear_combination, ACTIVATIONS[activation].value
    weights_t = np.swapaxes(weights, -1, -2)

    def forcing(layer, x):
        return affine(x, weights_t[layer], biases[layer], act)

    direct, state = mode == "direct" and family != "c0", mode == "state"
    scale = dl**k if family == "ck" else 1
    if direct:
        lags, forced = (x0,) * k, (None,) * k
        stencil = [-c for c in mixed_diff_coefficients(k)[1:]]
    else:
        q = (x0,) + (np.zeros(x0.shape),) * (k - 1)
        transition, coupling = matrices or _MATRICES[family](k)
    yield LayerRecord(x0, None, q if state else None)
    del x0  # the lag window or state holds it as long as a layer needs it
    for layer in range(len(weights)):
        if direct:
            force = forcing(layer, lags[0])
            if family == "ck":
                x = combine([(scale, force), *zip(stencil, lags)])
            else:  # x_{l+1} = x_{l-k+1} + dl·(f_{l-k+1} + ... + f_l), oldest output first
                forced = (force,) + forced[:-1]
                x = combine([(1, lags[-1]), *((dl, u) for u in reversed(forced) if u is not None)])
            lags = (x,) + lags[:-1]
        elif family == "dense":  # u_j = f_{l-j}(lag_j)·dl on the lags B·q, a pre-input layer adds nothing
            lagged = coupling.apply(q)
            force = forcing(layer, lagged[0])
            inputs = [force * dl] + [None if layer < j else forcing(layer - j, lagged[j]) * dl for j in range(1, k)]
            q = tuple(transition.apply(q, coupling, inputs))
        else:  # ck and c0: u_j = f(q_1) for every j
            force = forcing(layer, q[0])
            q = tuple(transition.apply(q, coupling, (force,) * k, scale))
        yield LayerRecord(lags[0] if direct else q[0], force, q if state else None)


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


def _parameter_shapes(config: NetworkConfig) -> dict[str, tuple]:
    """The name and shape of each parameter of ``Network(config)``, in order, allocating nothing."""
    d, c, depth = config.width, config.num_classes, config.depth
    return {
        "embed.weight": (d, config.input_dim), "embed.bias": (d,),
        "blocks.weight": (depth, d, d), "blocks.bias": (depth, d),
        "head.weight": (c, d), "head.bias": (c,),
    }


class Network:
    """Input embedding, a stack of dynamical blocks, and an affine readout."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        # the weights are drawn in parameter order: embedding, blocks, head
        self.embed_weight, self.embed_bias, self.block_weight, self.block_bias, self.head_weight, self.head_bias = (
            Parameter(_init_weight(rng, shape) if name.endswith(".weight") else np.zeros(shape), name)
            for name, shape in _parameter_shapes(config).items()
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
        of every parameter. ``infer`` gives the same values and keeps nothing.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        weights, head = self.block_weight.data, self.head_weight.data
        xs, forces = [], []
        for record in self.layers(inputs, mode):
            xs.append(record.x)
            forces.append(record.force)
        logits = T.affine(xs[-1], head, self.head_bias.data)
        return Tensor(logits, lambda g: self._adjoint(g, inputs, xs, forces[1:], weights, head))

    def _adjoint(self, g: np.ndarray, inputs: np.ndarray, xs: list, forces: list, weights, head) -> None:
        """The reverse pass: the layer recurrence run from layer L down to 0.

        ``xs`` are x_0..x_L and ``forces`` f_0(x_0)..f_{L-1}(x_{L-1}) of one
        forward pass, ``weights`` and ``head`` the block stack and head
        weights it ran on, and ``g`` the gradient at its logits. A layer
        pushes x̄_{l+1} back through its terms, in their forward order, onto
        f̄_l and the lag window's x̄ (ghost lags land on x_0), then pulls f̄_l
        through f_l into its slices of the stacked weight and bias
        gradients. Contributions to one x̄ or f̄ are summed in the order the
        layers above make them, and a unit coefficient passes a gradient on
        without a multiply. State-mode records hold x_l = q_1
        and f_l(q_1), on which the state form is this same recurrence.
        """
        cfg, depth = self.config, len(weights)
        self.head_weight._pull(g.T @ xs[depth])
        self.head_bias._pull(g.sum(axis=0))
        xbar, fbar = [None] * depth + [g @ head], [None] * depth
        wbar, bbar = np.empty(weights.shape), np.empty(weights.shape[:-1])
        family, k, dl, chain = cfg.family, cfg.k, cfg.dl, ACTIVATIONS[cfg.activation].chain
        scale = dl**k if family == "ck" else 1
        stencil = tuple(enumerate(-c for c in mixed_diff_coefficients(k)[1:]))
        for l in reversed(range(depth)):
            grad = xbar[l + 1]
            if family == "c0":
                fbar[l] = grad
            elif family == "ck":  # x_{l+1} = s·f_l + Σ_j c_j·x_{l-j}
                fbar[l] = grad if scale == 1 else scale * grad
                for j, c in stencil:
                    i, term = max(l - j, 0), grad if c == 1 else c * grad
                    xbar[i] = term if xbar[i] is None else xbar[i] + term
            else:  # x_{l+1} = x_{l-k+1} + dl·(f_{l-k+1} + ... + f_l)
                oldest = max(l - k + 1, 0)
                xbar[oldest] = grad if xbar[oldest] is None else xbar[oldest] + grad
                term = grad if dl == 1 else dl * grad
                for m in range(oldest, l + 1):
                    fbar[m] = term if fbar[m] is None else fbar[m] + term
            local = chain(fbar[l], forces[l])
            term = local @ weights[l]
            xbar[l] = term if xbar[l] is None else xbar[l] + term
            np.matmul(local.T, xs[l], out=wbar[l])
            np.add.reduce(local, axis=0, out=bbar[l])
        self.block_weight._pull(wbar)
        self.block_bias._pull(bbar)
        self.embed_weight._pull(xbar[0].T @ inputs)
        self.embed_bias._pull(xbar[0].sum(axis=0))

    def infer(self, inputs: np.ndarray, mode: str = "direct") -> np.ndarray:
        """``forward``'s logits as an ``np.ndarray``, bitwise, keeping no record.

        For evaluation, where nothing is differentiated. It reads out the
        last record of ``layers``.
        """
        for last in self.layers(inputs, mode):
            pass
        return T.affine(last.x, self.head_weight.data, self.head_bias.data)

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
        if arr.shape[-1] != cfg.input_dim:
            raise ShapeError(f"input width {arr.shape} does not match input_dim={cfg.input_dim}")
        x0 = T.affine(arr, self.embed_weight.data, self.embed_bias.data)
        return unroll(self.block_weight.data, self.block_bias.data, cfg.activation, x0, cfg.family, cfg.k, cfg.dl, mode)


# -- checkpoint io -----------------------------------------------------------------

_CHECKPOINT_FORMAT = "cknet-checkpoint"
_CHECKPOINT_VERSION = 2
_MAX_HEADER_BYTES = 1 << 20


def save_checkpoint(network: Network, path) -> None:
    """Single-file checkpoint: one JSON header line, then raw little-endian
    float64 parameter payloads concatenated in header order."""
    params = network.parameters()
    header = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "config": asdict(network.config),
        "params": [{"name": p.name, "shape": list(p.shape)} for p in params],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for p in params:
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _param_entry(entry) -> tuple[str, tuple[int, ...]]:
    try:
        name, shape = entry["name"], tuple(int(n) for n in entry["shape"])
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"bad checkpoint parameter entry {entry!r}") from exc
    if not isinstance(name, str):
        raise ValueError(f"bad checkpoint parameter name {name!r}")
    return name, shape


def load_checkpoint(path) -> Network:
    """Read a checkpoint written by ``save_checkpoint``.

    The header must list every parameter of the configured network exactly
    once, with its shape, and the payload must hold exactly those values.
    A missing, unknown or repeated parameter, an unknown or invalid config
    entry, a header line longer than 1 MiB, and a truncated or over-long
    payload all raise ``ValueError``. The header is checked against the
    config's shapes and the file's size before anything is allocated.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline(_MAX_HEADER_BYTES + 1)
        if not header_line.endswith(b"\n"):
            raise ValueError(f"not a checkpoint file: no header line within {_MAX_HEADER_BYTES} bytes")
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"not a checkpoint file: bad header ({exc})") from exc
        tag = header.get("format") if isinstance(header, dict) else None
        if tag != _CHECKPOINT_FORMAT:
            raise ValueError(f"not a checkpoint file: format {tag!r}")
        if header.get("version") != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header.get('version')!r}")
        config, entries = header.get("config"), header.get("params")
        if not isinstance(config, dict) or not isinstance(entries, list):
            raise ValueError("checkpoint header needs a config object and a params list")
        unknown = sorted(set(config) - {f.name for f in fields(NetworkConfig)})
        if unknown:
            raise ValueError(f"unknown checkpoint config keys {unknown}")
        try:
            config = NetworkConfig(**config)
            # the sizes and the seed Network(config) takes, checked without allocating
            for size in (config.depth, config.width, config.input_dim, config.num_classes):
                operator.index(size)
            np.random.default_rng(config.seed)
        except TypeError as exc:  # a missing key, or a value of the wrong type
            raise ValueError(f"bad checkpoint config: {exc}") from exc
        shapes = _parameter_shapes(config)
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        loaded, payload_bytes = {}, 0
        for entry in entries:
            name, shape = _param_entry(entry)
            if name in loaded:
                raise ValueError(f"checkpoint lists parameter {name!r} twice")
            if name not in shapes:
                raise ValueError(f"checkpoint parameter {name!r} not in network")
            if shapes[name] != shape:
                raise ShapeError(
                    f"checkpoint shape {shape} does not match parameter "
                    f"{name!r} of shape {shapes[name]}"
                )
            payload_bytes += 8 * math.prod(shape)
            if payload_bytes > available:
                raise ValueError(f"checkpoint truncated while reading {name!r}")
            loaded[name] = shape
        missing = [name for name in shapes if name not in loaded]
        if missing:
            raise ValueError(f"checkpoint lacks parameters {missing}")
        if available > payload_bytes:
            raise ValueError("checkpoint has trailing bytes after declared payloads")
        network = Network(config)
        params = {p.name: p for p in network.parameters()}
        for name, shape in loaded.items():
            payload = fh.read(8 * math.prod(shape))
            params[name].data = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return network
