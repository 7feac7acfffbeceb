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
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from . import tensor as T
from .dynamics import alternating_binomial_row, mixed_diff_coefficients
from .tensor import Parameter, ShapeError, Tensor

__all__ = [
    "ACTIVATIONS",
    "ForcingFunction",
    "NetworkConfig",
    "LayerHistory",
    "StateVector",
    "Trace",
    "Network",
    "c0_step",
    "c1_step",
    "ck_direct_step",
    "ck_state_step",
    "initialize_state",
    "dense_direct_step",
    "dense_state_step",
    "dense_difference_identity_check",
    "parameter_count",
    "weight_matrix_ratio",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = {
    "tanh": T.tanh,
    "sigmoid": T.sigmoid,
    "leaky_relu": lambda x: T.leaky_relu(x, slope=0.1),
}


def _init_weight(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


class ForcingFunction:
    """Learnable per-layer map act(W x + b) with a square weight matrix."""

    def __init__(self, weight: Parameter, bias: Parameter, activation: str):
        if weight.data.ndim != 2 or weight.shape[0] != weight.shape[1]:
            raise ShapeError(f"forcing weight must be square, got {weight.shape}")
        if bias.shape != (weight.shape[0],):
            raise ShapeError(f"forcing bias shape {bias.shape} does not match {weight.shape}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.weight = weight
        self.bias = bias
        self.activation = activation

    @property
    def width(self) -> int:
        return self.weight.shape[0]

    @classmethod
    def create(cls, d: int, activation: str, rng: np.random.Generator, name: str):
        weight = Parameter(_init_weight(rng, d, d), name=f"{name}.weight")
        bias = Parameter(np.zeros(d), name=f"{name}.bias")
        return cls(weight, bias, activation)

    def __call__(self, x: Tensor) -> Tensor:
        return ACTIVATIONS[self.activation](T.affine(x, self.weight, self.bias))

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


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
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class LayerHistory:
    """Immutable most-recent-first window of the last k activations.

    At layer l the window holds x_l, x_{l-1}, ..., x_{l-k+1}, and
    ``forcing`` the outputs f_{l-1}(x_{l-1}), ..., f_{l-k}(x_{l-k}) of the
    layers before it, newest first, with ``None`` where no output is known
    (the ghost start, or a window built from activations alone). The dense
    step reuses these outputs instead of evaluating each forcing k times.
    """

    __slots__ = ("window", "forcing")

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("LayerHistory cannot be empty")
        shapes = {e.shape for e in entries}
        if len(shapes) > 1:
            raise ShapeError(f"history entries have mixed shapes {sorted(shapes)}")
        self.window = entries
        self.forcing = (None,) * len(entries)

    @classmethod
    def ghost(cls, x0: Tensor, k: int) -> "LayerHistory":
        """Pre-input window: the initial activation repeated k times."""
        return cls((x0,) * k)

    def advanced(self, x_next: Tensor, force: Tensor | None = None) -> "LayerHistory":
        """The next layer's window; ``force`` is the output that produced x_next."""
        if x_next.shape != self.window[0].shape:
            raise ShapeError(f"next activation {x_next.shape} does not match window {self.window[0].shape}")
        out = LayerHistory.__new__(LayerHistory)
        out.window = (x_next,) + self.window[:-1]
        out.forcing = (force,) + self.forcing[:-1]
        return out

    def __len__(self) -> int:
        return len(self.window)

    def __getitem__(self, i: int) -> Tensor:
        return self.window[i]


@dataclass
class StateVector:
    """Stacked difference states q_1..q_k of the equivalent first-order system.

    q_1 is the activation itself and q_n the (n-1)-fold backward difference,
    so for width-d activations the state lives in k*d dimensions.
    """

    parts: list[Tensor]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("StateVector needs at least one part")
        shapes = {p.shape for p in self.parts}
        if len(shapes) > 1:
            raise ShapeError(f"state parts have mixed shapes {sorted(shapes)}")

    @property
    def order(self) -> int:
        return len(self.parts)

    @property
    def width(self) -> int:
        return self.parts[0].shape[-1]

    @property
    def embedding_dim(self) -> int:
        return self.order * self.width

    def values(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parts]


# -- single block steps --------------------------------------------------------


def c0_step(f: ForcingFunction, x: Tensor) -> Tensor:
    """Plain layer: next activation is just the forcing output."""
    return f(x)


def c1_step(f: ForcingFunction, x: Tensor, dl: float) -> Tensor:
    """Residual layer: identity plus a forcing perturbation of size dl."""
    if not dl > 0:
        raise ValueError(f"dl must be positive, got {dl}")
    return x + f(x) * dl


def ck_direct_step(f: ForcingFunction, history: LayerHistory, k: int, dl: float) -> Tensor:
    """Advance the order-k recurrence one layer from its lag window.

    Solves the mixed difference stencil for the leading term:
    x_next = f(x) * dl^k minus the remaining stencil terms over the k
    previous activations.
    """
    if len(history) < k:
        raise ValueError(f"order-{k} step needs {k} activations, history has {len(history)}")
    coeffs = mixed_diff_coefficients(k)
    terms = [(dl**k, f(history[0]))]
    terms.extend((-coeffs[j], history[j - 1]) for j in range(1, k + 1))
    return T.linear_combination(terms)


def ck_state_step(f: ForcingFunction, q: StateVector, k: int, dl: float) -> StateVector:
    """Advance the first-order form of the order-k recurrence.

    Each new state is the suffix sum of the current states plus the shared
    forcing term f(q_1) * dl^k; this is exactly the action of the
    upper-triangular all-ones transition with identity input coupling.
    """
    if q.order != k:
        raise ValueError(f"state vector has {q.order} parts, expected {k}")
    force = (dl**k, f(q.parts[0]))
    return StateVector(
        [T.linear_combination([*((1, p) for p in q.parts[n:]), force]) for n in range(k)]
    )


def initialize_state(x0: Tensor, k: int) -> StateVector:
    """Position set to the input, all higher difference states zero."""
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    zeros = [Tensor(np.zeros_like(x0.data)) for _ in range(k - 1)]
    return StateVector([x0, *zeros])


def dense_direct_step(fs, history: LayerHistory, dl: float):
    """Advance the additive dense recurrence one layer.

    ``fs`` lists the forcing functions of the current layer and its k-1
    predecessors, newest first, with ``None`` marking pre-input layers that
    contribute nothing (the growing-window warm-up). A predecessor's output
    is taken from ``history.forcing`` when the window carries it and
    evaluated otherwise, so stepping a network from its ghost window
    evaluates each forcing once. Returns the next activation together with
    the advanced history, which carries this layer's forcing output.
    """
    k = len(history)
    if len(fs) != k:
        raise ValueError(f"got {len(fs)} forcing functions for a window of {k}")
    if not dl > 0:
        raise ValueError(f"dl must be positive, got {dl}")
    outs = []
    for j, f in enumerate(fs):
        if f is None:
            outs.append(None)
        elif j and history.forcing[j - 1] is not None:
            outs.append(history.forcing[j - 1])
        else:
            outs.append(f(history[j]))
    terms = [(1, history[k - 1])]
    terms.extend((dl, outs[j]) for j in reversed(range(k)) if outs[j] is not None)
    out = T.linear_combination(terms)
    return out, history.advanced(out, outs[0])


def dense_state_step(fs, q: StateVector, k: int, dl: float, forcing_matrix=None) -> StateVector:
    """Advance the first-order form of the additive dense recurrence.

    The lag window is reconstructed from the states by binomial inversion,
    each available forcing function is evaluated on its own lag, and the
    state update adds the alternating-binomial combination of those forcing
    outputs (identity transition). ``forcing_matrix`` overrides the
    alternating-binomial coefficient grid; it exists for matrix-form
    cross-checks and fault injection in the verification battery.
    """
    if q.order != k:
        raise ValueError(f"state vector has {q.order} parts, expected {k}")
    if len(fs) != k:
        raise ValueError(f"got {len(fs)} forcing functions for order {k}")
    # dynamics.binomial_invert(q.parts) with one node per lag: the same terms
    # in the same order, so the lags are bitwise equal to it (pinned by
    # TestFusedSteps in tests/test_architectures.py, whose reference state
    # step calls binomial_invert)
    lags = [T.linear_combination(zip(alternating_binomial_row(m), q.parts)) for m in range(k)]
    pushes = [None if fs[j] is None else fs[j](lags[j]) * dl for j in range(k)]
    rows = forcing_matrix.block if forcing_matrix is not None else None
    new_parts = []
    for n in range(k):
        row = rows[n] if rows is not None else alternating_binomial_row(n)
        terms = [(1, q.parts[n])]
        terms.extend((c, pushes[j]) for j, c in enumerate(row) if pushes[j] is not None and c != 0)
        new_parts.append(T.linear_combination(terms))
    return StateVector(new_parts)


def dense_difference_identity_check(trajectory, forcing_values, n: int, dl: float, tol: float = 1e-10) -> bool:
    """Check the order-n difference identity of additive dense trajectories.

    For every admissible layer l, the (n+1)-order mixed difference of the
    activations must equal the n-fold backward difference of the forcing
    outputs scaled by dl, within ``tol``. ``trajectory`` holds arrays
    x_0..x_L, ``forcing_values`` the raw forcing outputs f_l(x_l) for
    l = 0..L-1.
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
    lhs_coeffs = mixed_diff_coefficients(n + 1)
    rhs_coeffs = alternating_binomial_row(n)
    worst = 0.0
    for l in range(n, last + 1):
        lhs = sum(c * trajectory[l + 1 - j] for j, c in enumerate(lhs_coeffs))
        rhs = sum(c * forcing_values[l - j] for j, c in enumerate(rhs_coeffs)) * dl
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= tol


# -- parameter accounting --------------------------------------------------------


def parameter_count(kind: str, k: int, d: int, depth: int) -> int:
    """Per-network learnable-parameter total of the block stack.

    ``kind="ck"``: each of the ``depth`` layers owns one width-d forcing
    function (d*d weights + d biases) regardless of order k. ``kind=
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


@dataclass
class Trace:
    """Recorded forward pass: per-layer values as plain arrays."""

    activations: list[np.ndarray]  # x_0..x_L
    forcing: list[np.ndarray]  # f_l(x_l) for l = 0..L-1
    states: list[list[np.ndarray]] | None  # state mode only: q parts per layer
    k: int
    dl: float


def _recorded(f: ForcingFunction, sink: list):
    """``f`` that also appends a copy of each output to ``sink``.

    Record mode steps the network with these, so the trace reads each
    forcing output as the step computes it instead of evaluating it again.
    """

    def call(x: Tensor) -> Tensor:
        out = f(x)
        sink.append(out.data.copy())
        return out

    return call


class Network:
    """Input embedding, a stack of dynamical blocks, and an affine readout."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d, c = config.width, config.num_classes
        self.embed_weight = Parameter(_init_weight(rng, d, config.input_dim), name="embed.weight")
        self.embed_bias = Parameter(np.zeros(d), name="embed.bias")
        self.blocks = [
            ForcingFunction.create(d, config.activation, rng, name=f"block{i}")
            for i in range(config.depth)
        ]
        self.head_weight = Parameter(_init_weight(rng, c, d), name="head.weight")
        self.head_bias = Parameter(np.zeros(c), name="head.bias")

    def parameters(self) -> list[Parameter]:
        params = [self.embed_weight, self.embed_bias]
        for block in self.blocks:
            params.extend(block.parameters())
        params.extend([self.head_weight, self.head_bias])
        names = [p.name for p in params]
        assert len(names) == len(set(names)), "parameter names must be unique"
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def _window_functions(self, layer: int, current) -> list:
        """``current`` (layer's own forcing), then those of layers
        layer-1..layer-k+1, None before layer 0."""
        k = self.config.k
        return [current] + [self.blocks[layer - j] if layer - j >= 0 else None for j in range(1, k)]

    def forward(self, inputs: np.ndarray, mode: str = "direct", record: bool = False):
        """Run the network on a [batch, input_dim] (or [input_dim]) array.

        Returns the logits tensor, or ``(logits, Trace)`` when ``record``
        is set. ``mode`` selects the direct multi-lag recurrence or the
        equivalent first-order state-space evaluation.
        """
        if mode not in ("direct", "state"):
            raise ValueError(f"unknown mode {mode!r}")
        cfg = self.config
        arr = np.asarray(inputs, dtype=np.float64)
        if arr.shape[-1] != cfg.input_dim:
            raise ShapeError(f"input width {arr.shape} does not match input_dim={cfg.input_dim}")
        x = T.affine(arr, self.embed_weight, self.embed_bias)

        trace = Trace([x.data.copy()], [], [] if mode == "state" else None, cfg.k, cfg.dl) if record else None
        if record and mode == "state":
            trace.states.append(initialize_state(x, cfg.k).values())

        if mode == "direct":
            x = self._run_direct(x, trace)
        else:
            x = self._run_state(x, trace)

        logits = T.affine(x, self.head_weight, self.head_bias)
        if record:
            return logits, trace
        return logits

    def _run_direct(self, x0: Tensor, trace: Trace | None) -> Tensor:
        cfg = self.config
        k, dl = cfg.k, cfg.dl
        history = LayerHistory.ghost(x0, k)
        x = x0
        for layer, block in enumerate(self.blocks):
            if trace is not None:
                block = _recorded(block, trace.forcing)
            if cfg.family == "c0":
                x = c0_step(block, x)
            elif cfg.family == "ck":
                x = ck_direct_step(block, history, k, dl)
                history = history.advanced(x)
            else:
                x, history = dense_direct_step(self._window_functions(layer, block), history, dl)
            if trace is not None:
                trace.activations.append(x.data.copy())
        return x

    def _run_state(self, x0: Tensor, trace: Trace | None) -> Tensor:
        cfg = self.config
        if cfg.family == "c0":
            # no skips, no memory: the state stack is just the activation
            x = x0
            for block in self.blocks:
                if trace is not None:
                    block = _recorded(block, trace.forcing)
                x = c0_step(block, x)
                if trace is not None:
                    trace.activations.append(x.data.copy())
                    trace.states.append([x.data.copy()])
            return x
        k, dl = cfg.k, cfg.dl
        q = initialize_state(x0, k)
        for layer, block in enumerate(self.blocks):
            if trace is not None:
                block = _recorded(block, trace.forcing)
            if cfg.family == "ck":
                q = ck_state_step(block, q, k, dl)
            else:
                q = dense_state_step(self._window_functions(layer, block), q, k, dl)
            if trace is not None:
                trace.activations.append(q.parts[0].data.copy())
                trace.states.append(q.values())
        return q.parts[0]


# -- checkpoint io -----------------------------------------------------------------

_CHECKPOINT_FORMAT = "cknet-checkpoint"
_CHECKPOINT_VERSION = 1


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
    entry, and a truncated or over-long payload all raise ``ValueError``.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
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
            network = Network(NetworkConfig(**config))
        except TypeError as exc:  # a missing key, or a value of the wrong type
            raise ValueError(f"bad checkpoint config: {exc}") from exc
        params = {p.name: p for p in network.parameters()}
        loaded = set()
        for entry in entries:
            name, shape = _param_entry(entry)
            if name in loaded:
                raise ValueError(f"checkpoint lists parameter {name!r} twice")
            if name not in params:
                raise ValueError(f"checkpoint parameter {name!r} not in network")
            param = params[name]
            if param.shape != shape:
                raise ShapeError(
                    f"checkpoint shape {shape} does not match parameter "
                    f"{name!r} of shape {param.shape}"
                )
            payload = fh.read(8 * param.size)
            if len(payload) != 8 * param.size:
                raise ValueError(f"checkpoint truncated while reading {name!r}")
            param.data = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
            loaded.add(name)
        missing = [name for name in params if name not in loaded]
        if missing:
            raise ValueError(f"checkpoint lacks parameters {missing}")
        extra = fh.read(1)
        if extra:
            raise ValueError("checkpoint has trailing bytes after declared payloads")
    return network
