"""Shared numerical oracles for the test suite."""
from __future__ import annotations

import gzip
import struct
from typing import NamedTuple

import numpy as np

from cknet import architectures, tensor, verify
from cknet.architectures import Trace, c1_step, unroll
from cknet.data import IMAGE_MAGIC, LABEL_MAGIC
from cknet.dynamics import (
    alternating_binomial_row,
    alternating_binomial_sum,
    backward_diff_power,
    binomial_invert,
    build_ck_matrices,
    build_dense_matrices,
)


# the entries ``affine``'s one-row product is checked on: signed zeros and
# infinities, a NaN, subnormals and extremes
ONE_ROW_ENTRIES = np.array([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308])


def with_nans(rng, shape, payload):
    """Entries of ``ONE_ROW_ENTRIES`` but NaN, about half of them NaNs of
    either sign carrying ``payload``."""
    a = rng.choice(ONE_ROW_ENTRIES[~np.isnan(ONE_ROW_ENTRIES)], size=shape)
    mask = rng.random(shape) < 0.5
    nans = np.array([0x7FF8000000000000 | payload, 0xFFF8000000000000 | payload], dtype=np.uint64)
    a[mask] = rng.choice(nans.view(np.float64), size=int(mask.sum()))
    return a


def linear_combination(terms: list) -> np.ndarray:
    """``c_0*t_0 + c_1*t_1 + ...`` over a non-empty list of (coefficient,
    float64 array) pairs of one shape: the reference sum of the single-layer
    steps below.

    The terms are summed left to right, and a term whose coefficient is 1
    is added without a multiply, so the value is bitwise that of chaining
    ``+`` and ``*`` in the same order. The sum goes into an array allocated
    here (a scaled term, or the first sum of two unscaled ones), never into
    an operand; a single term with coefficient 1 is returned unchanged.
    """
    value, owned = None, False  # owned: value is an array allocated here, free to write
    for c, data in terms:
        term = data if c == 1 else c * data
        if value is None:
            # one-element sums stay out of place: numpy gives a 0-d result as
            # a scalar, and adds into a one-element array by its reduction
            # loop, which may keep the other operand's NaN payload
            inplace = data.size > 1
            value, owned = term, inplace and c != 1
        elif owned:
            np.add(value, term, value)  # into value
        elif inplace and c != 1:
            value, owned = np.add(value, term, term), True  # into the fresh product
        else:
            value, owned = value + term, inplace
    return value


def table_adjoint(xbar_top, xs: list, forces: list, weights, activation: str, family: str, k: int, dl: float):
    """The reverse pass of the direct recurrence, the reference the layer
    adjoint is checked against, with its arguments and returns: layer l
    pushes x̄_{l+1} back through the terms of ``_direct_terms``, in table
    order, then pulls f̄_l through f_l. Contributions to one x̄ or f̄ are
    summed in the order the layers above make them, a lag before the input
    is x_0 (the ghost start), and a unit coefficient passes a gradient on
    without a multiply."""
    depth = len(weights)
    wbar, bbar, chain = np.empty(weights.shape), np.empty(weights.shape[:-1]), tensor.ACTIVATIONS[activation].chain
    maps = weights.reshape(-1) if weights.shape[1:] == (1, 1) else weights
    xbar, fbar = [None] * depth + [xbar_top], [None] * depth
    terms = [(c, j, fbar if forcing else xbar) for c, j, forcing in architectures._direct_terms(family, k, dl)]
    for l in reversed(range(depth)):
        grad, last = xbar[l + 1], None
        for c, j, bars in terms:
            if l < j and bars is fbar:  # a forcing before the input
                continue
            i = l - j if l >= j else 0  # a ghost lag is x_0
            if c != last:  # equal neighbours share one product: a dense layer's dl·x̄
                term, last = grad if c == 1 else c * grad, c
            bars[i] = term if bars[i] is None else bars[i] + term
        xbar[l] = architectures._pull_forcing(fbar[l], forces[l], xs[l], maps[l], xbar[l], chain, wbar[l], bbar[l])
        xbar[l + 1] = fbar[l] = xs[l] = forces[l] = None
    return xbar[0], wbar, bbar


def central_difference(fn, arrays, step=1e-6):
    """Central finite-difference gradients of scalar fn w.r.t. each array.

    fn is called with no arguments and must read the (mutated) arrays; this
    keeps the oracle independent of the reverse pass under test.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index", "zerosize_ok"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = fn()
            arr[idx] = orig - step
            down = fn()
            arr[idx] = orig
            grad[idx] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads


def best_threshold_accuracy(values: np.ndarray, labels: np.ndarray) -> float:
    """Best accuracy of any single-threshold classifier on scalar values.

    Sweeps every cut position between sorted points, in both orientations
    (class 1 above or below the cut).
    """
    values = np.asarray(values).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if values.shape != labels.shape:
        raise ValueError("values and labels must have equal length")
    order = np.argsort(values, kind="stable")
    sorted_labels = labels[order]
    n = len(values)
    # ones_below[i] = number of class-1 points among the first i sorted values
    ones_below = np.concatenate([[0], np.cumsum(sorted_labels == 1)])
    zeros_below = np.arange(n + 1) - ones_below
    total_ones = ones_below[-1]
    # predict 1 above the cut: correct = zeros below + ones above
    above = zeros_below + (total_ones - ones_below)
    # predict 1 below the cut
    below = ones_below + ((n - total_ones) - zeros_below)
    return float(max(above.max(), below.max())) / n


def pascal_triangle_row(n: int) -> list[int]:
    """Row n of Pascal's triangle by the iterative recurrence."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def gradient_close(analytic, numeric, rtol=1e-5, atol=1e-8) -> bool:
    return np.allclose(analytic, numeric, rtol=rtol, atol=atol)


def log_softmax_loss(z, labels):
    """The loss and [batch, classes] log probabilities of checked [batch,
    classes] logits by numpy's reductions over their C-contiguous class rows
    (``max(axis=0)``, ``sum(axis=0)`` of the exponentials) and a 2-D pick of
    the labels: the oracle of ``training._read_logits``."""
    zt = np.ascontiguousarray(z.T)
    shifted = zt - zt.max(axis=0)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=0))
    return -log_probs[labels, np.arange(z.shape[0])].mean(), log_probs.T


def expand(matrix, d):
    """A ``BlockMatrix`` at width d as its dense (k*d, k*d) float64 array."""
    return np.kron(np.array(matrix.block, dtype=np.float64), np.eye(d))


def identity_holds(trajectory, forcing_values, n, dl, tol=1e-10):
    """The verdict of the order-n dense difference identity: every residual is within ``tol``."""
    return identity_gap(trajectory, forcing_values, n, dl) <= tol


def spearman(xs, ys) -> float:
    """Spearman rank correlation (Pearson correlation of the rank vectors)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("spearman needs two equal-length 1-D samples")
    rank = lambda v: np.argsort(np.argsort(v)).astype(np.float64)
    rx, ry = rank(xs), rank(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx**2).sum() * (ry**2).sum())
    return float((rx * ry).sum() / denom)


def save_idx_images(path, images: np.ndarray) -> None:
    """Write [N, rows, cols] uint8 pixels as IDX3 (gzip by .gz suffix)."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"images must be [N, rows, cols], got {images.shape}")
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, *images.shape))
        fh.write(images.tobytes())


def save_idx_labels(path, labels: np.ndarray) -> None:
    """Write [N] uint8 labels as IDX1 (gzip by .gz suffix)."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got {labels.shape}")
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, len(labels)))
        fh.write(labels.tobytes())


class Layer(NamedTuple):
    """One layer's forcing map act(W x + b) as a callable, for the
    single-layer references; ``stacked`` gives ``unroll`` the arrays of a
    list of them. ``c1_step(*layer, x, dl)`` is the residual step."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "tanh"

    def __call__(self, x):
        return tensor.affine(x, self.weight, self.bias, self.activation)


def stacked(layers):
    """The (weights, biases, activation) that ``unroll`` takes for a
    non-empty list of ``Layer``s of one activation."""
    return np.array([f.weight for f in layers]), np.array([f.bias for f in layers]), layers[0].activation


def unrolled(fs, x0, family, k, dl, mode):
    """Activations, forcing outputs and (state mode) state parts, as lists
    of arrays, of ``unroll`` over the ``Layer``s ``fs`` from the array
    ``x0``."""
    trace = Trace.from_layers(unroll(*stacked(fs), x0, family, k, dl, mode))
    states = None if trace.states is None else [list(parts) for parts in trace.states]
    return list(trace.activations), list(trace.forcing), states


def reference_perturbation(network, inputs):
    """``experiments.measure_perturbation`` from the whole recorded ``Trace``:
    the reference for the probe, which streams ``Network.layers`` instead."""
    from cknet.experiments import PerturbationRecord

    if network.config.k != 1:
        raise ValueError(
            f"perturbation ratios are defined for residual (k=1) networks, got k={network.config.k}"
        )
    dl = network.config.dl
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        trace = Trace.from_layers(network.layers(inputs, mode="direct"))
        for layer in range(len(trace.forcing)):
            x = np.atleast_2d(trace.activations[layer])
            f = np.atleast_2d(trace.forcing[layer])
            x_norm = np.linalg.norm(x, axis=1)
            f_norm = np.linalg.norm(f * dl, axis=1)
            finite = np.isfinite(x_norm) & np.isfinite(f_norm)
            keep = finite & (x_norm > 0.0)
            if not np.any(keep):
                raise ValueError(
                    f"all activations at layer {layer} have zero norm" if np.all(finite)
                    else f"activations or forcing at layer {layer} have non-finite norms (dl={dl})"
                )
            ratio = float((f_norm[keep] / x_norm[keep]).mean())
            records.append(PerturbationRecord(layer, ratio, int((~keep).sum())))
    return records


# Single-layer steps from an arbitrary lag window or state: references for
# ``unroll``, which carries the window and the state as tuples.


class LayerHistory:
    """Immutable most-recent-first window of the last k activations.

    At layer l the window holds x_l, x_{l-1}, ..., x_{l-k+1}, and
    ``forcing`` the outputs f_{l-1}(x_{l-1}), ..., f_{l-k}(x_{l-k}) of the
    layers before it, newest first, with ``None`` where no output is known
    (the ghost start, or a window built from activations alone).
    """

    def __init__(self, entries):
        self.window = tuple(entries)
        self.forcing = (None,) * len(self.window)

    @classmethod
    def ghost(cls, x0, k):
        """Pre-input window: the initial activation repeated k times."""
        return cls((x0,) * k)

    def advanced(self, x_next, force=None):
        """The next layer's window; ``force`` is the output that produced x_next."""
        out = LayerHistory((x_next,) + self.window[:-1])
        out.forcing = (force,) + self.forcing[:-1]
        return out

    def __len__(self):
        return len(self.window)

    def __getitem__(self, i):
        return self.window[i]


class StateVector:
    """Stacked difference states q_1..q_k of the equivalent first-order system."""

    def __init__(self, parts):
        self.parts = list(parts)

    @property
    def order(self):
        return len(self.parts)

    @property
    def width(self):
        return self.parts[0].shape[-1]

    @property
    def embedding_dim(self):
        return self.order * self.width


def initialize_state(x0, k):
    """Position set to the input, all higher difference states zero."""
    return StateVector([x0, *(np.zeros_like(x0) for _ in range(k - 1))])


def ck_direct_step(f, history, k, dl):
    """x_next = f(x)·dl^k minus the remaining stencil terms over the k
    previous activations, as one ``linear_combination``."""
    if len(history) < k:
        raise ValueError(f"order-{k} step needs {k} activations, history has {len(history)}")
    coeffs = alternating_binomial_row(k)
    terms = [(dl**k, f(history[0]))]
    terms.extend((-coeffs[j], history[j - 1]) for j in range(1, k + 1))
    return linear_combination(terms)


def ck_state_step(f, q, k, dl):
    """The ck state step as a suffix sum: q_k' = q_k + dl^k·f(q_1), then
    q_n' = q_n + q_{n+1}' for n = k-1..1."""
    if q.order != k:
        raise ValueError(f"state vector has {q.order} parts, expected {k}")
    suffix = [linear_combination([(1, q.parts[-1]), (dl**k, f(q.parts[0]))])]
    for part in reversed(q.parts[:-1]):
        suffix.append(part + suffix[-1])
    return StateVector(reversed(suffix))


def dense_direct_step(fs, history, dl):
    """The additive dense recurrence one layer on; returns the next activation
    and the advanced history, which carries this layer's forcing output.

    ``fs`` lists the forcing maps of the current layer and its k-1
    predecessors, newest first, ``None`` for pre-input layers. A
    predecessor's output comes from ``history.forcing`` when the window
    carries it and is evaluated otherwise.
    """
    k = len(history)
    if len(fs) != k:
        raise ValueError(f"got {len(fs)} forcing functions for a window of {k}")
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
    out = linear_combination(terms)
    return out, history.advanced(out, outs[0])


def dense_state_step(f, q, differences, dl):
    """The dense state step ``q' = q + B·u`` as running differences: row n of
    B·u is the n-fold backward difference D_n of dl·f, so D_0 = dl·f(q_1),
    D_m = D_{m-1} - the layer before's D_{m-1}, and q_n' = q_n + D_{n-1}, each
    a ``linear_combination``. ``differences`` holds the layer before's
    D_0..D_{k-1}, ``None`` before the input (read as zero). Returns the next
    state and its differences, the next layer's ``differences``."""
    if len(differences) != q.order:
        raise ValueError(f"got {len(differences)} differences for order {q.order}")
    current = [f(q.parts[0]) * dl]
    for before in differences[:-1]:
        current.append(current[-1] if before is None else linear_combination([(1, current[-1]), (-1, before)]))
    parts = [linear_combination([(1, part), (1, difference)]) for part, difference in zip(q.parts, current)]
    return StateVector(parts), tuple(current)


# The state steps as the whole product ``q' = A·q + s·B·u`` by the general
# block action ``block_apply``, dense mapping each layer on its lag recovered
# as ``B·q``: the references ``unroll``'s per-family state steps are checked
# against.


def block_apply(matrix, parts, input_matrix=None, inputs=(), scale=1):
    """Rows of ``matrix·parts + scale·input_matrix·inputs`` on equal-shape arrays.

    Each row is one ``linear_combination`` over the parts, then the inputs,
    summed left to right. A zero coefficient or a ``None`` input adds no
    term, so a row with a single unit term is that array itself.
    """
    if len(parts) != matrix.k or (input_matrix is not None and not len(inputs) == input_matrix.k == matrix.k):
        raise tensor.ShapeError(f"expected {matrix.k} parts, and as many inputs for an input matrix")
    input_rows = input_matrix.block if input_matrix is not None else [()] * matrix.k
    out = []
    for row, input_row in zip(matrix.block, input_rows):
        terms = [(c, part) for c, part in zip(row, parts) if c]
        terms += [(scale * c, u) for c, u in zip(input_row, inputs) if c and u is not None]
        out.append(linear_combination(terms or [(0, parts[0])]))
    return out


def ck_matrix_step(f, q, k, dl):
    """``q' = A·q + dl^k·B·u`` over ``build_ck_matrices``, u_j = f(q_1)."""
    transition, coupling = build_ck_matrices(k)
    force = f(q.parts[0])
    return StateVector(block_apply(transition, q.parts, coupling, [force] * k, dl**k))


def dense_matrix_step(fs, q, k, dl):
    """``q' = A·q + B·u`` over ``build_dense_matrices``, u_j = f_j(lag_j)·dl on
    the lags ``B·q``; a ``None`` forcing (a pre-input layer) adds nothing."""
    transition, coupling = build_dense_matrices(k)
    lags = block_apply(coupling, q.parts)
    inputs = [None if f is None else f(lag) * dl for f, lag in zip(fs, lags)]
    return StateVector(block_apply(transition, q.parts, coupling, inputs))


def matrix_states(fs, x0, family, k, dl):
    """The state parts q_1..q_k of every layer, x_0 first, from the matrix steps."""
    q = initialize_state(x0, k)
    states = [q.parts]
    for layer, f in enumerate(fs):
        if family == "ck":
            q = ck_matrix_step(f, q, k, dl)
        else:
            q = dense_matrix_step([fs[layer - j] if layer >= j else None for j in range(k)], q, k, dl)
        states.append(q.parts)
    return np.array(states)


# Per-layer loop references for the whole-trajectory checks in ``cknet``.


def extraction_gap(xs, states, k):
    """Max gap between recorded states and differences of the trajectory,
    one ``backward_diff_power`` per layer and order."""
    extended = [xs[0]] * (k - 1) + list(xs)
    gap = 0.0
    for l, parts in enumerate(states):
        for n in range(1, k + 1):
            expected = backward_diff_power(extended, l + k - 1, n)
            gap = max(gap, float(np.max(np.abs(parts[n - 1] - expected))))
    return gap


def identity_gap(trajectory, forcing_values, n, dl):
    """Worst deviation of the order-n dense difference identity, layer by
    layer over l = n..L-1 (0.0 when there is none); NaN propagates.
    ``identity_holds`` passes iff this is <= tol."""
    lhs_coeffs = alternating_binomial_row(n + 1)
    rhs_coeffs = alternating_binomial_row(n)
    gaps = []
    for l in range(n, len(trajectory) - 1):
        lhs = sum(c * trajectory[l + 1 - j] for j, c in enumerate(lhs_coeffs))
        rhs = sum(c * forcing_values[l - j] for j, c in enumerate(rhs_coeffs)) * dl
        gaps.append(np.max(np.abs(lhs - rhs)))
    return float(np.max(gaps, initial=0.0))


# The verification battery case by case: the reference for ``run_battery``,
# which checks the cases of a grid point as stacked ensembles.


def random_forcing(d, activation, rng):
    """A battery case's forcing map: Glorot-uniform weight, then a bias in [-0.5, 0.5)."""
    bound = np.sqrt(6.0 / (2 * d))
    weight = rng.uniform(-bound, bound, size=(d, d))
    return Layer(weight, rng.uniform(-0.5, 0.5, size=d), activation)


def case_extraction_deviation(xs, states, k):
    """One case's max gap between its recorded states and the differences of
    its trajectory, one ``backward_diff_power`` per order; NaN propagates."""
    padded = np.concatenate([np.repeat(xs[:1], k - 1, axis=0), xs])
    lagged = [padded[i : i + len(xs)] for i in range(k)]
    gaps = [np.max(np.abs(states[:, n - 1] - backward_diff_power(lagged, k - 1, n))) for n in range(1, k + 1)]
    return float(np.max(gaps))


def case_state_space_deviation(trace, matrix, dl):
    """One case's max gap, layer by layer, between the step q_{l+1} - q_l of
    its recorded states and ``block_apply`` of ``matrix`` on the window
    dl·f_l, dl·f_{l-1}, ..., zero before the input; NaN propagates."""
    states, forcing = trace.states, trace.forcing
    gaps = []
    for l in range(len(forcing)):
        window = [forcing[l - j] * dl if l >= j else np.zeros(forcing.shape[1:]) for j in range(matrix.k)]
        for step, row in zip(states[l + 1] - states[l], block_apply(matrix, window)):
            gaps.append(np.max(np.abs(step - row)))
    return float(np.max(gaps))


def check_case(key, dense_forcing_matrix):
    """The (check, deviation, detail) outcomes of one grid case, rebuilt from its key."""
    k, d, depth, i = key
    rng = verify._case_rng(0xC0FFEE, *key)
    activation = verify._ACTIVATION_CYCLE[i % len(verify._ACTIVATION_CYCLE)]
    dl = verify._DL_CYCLE[i % len(verify._DL_CYCLE)]
    case = f"k={k} d={d} L={depth} dl={dl} act={activation} seed#{i}"
    fs = [random_forcing(d, activation, rng) for _ in range(depth)]
    x0 = rng.standard_normal(d)

    def trace(family, mode):
        return Trace.from_layers(unroll(*stacked(fs), x0, family, k, dl, mode))

    def gap(xs, ys):
        return float(np.max(np.abs(xs - ys)))

    xs_direct = trace("ck", "direct").activations
    ck_state = trace("ck", "state")
    xs_state = ck_state.activations
    outcomes = [
        ("ck equivalence", gap(xs_direct, xs_state), case),
        ("ck state extraction", case_extraction_deviation(xs_direct, ck_state.states, k), case),
    ]
    dense_direct = trace("dense", "direct")
    dense_state = trace("dense", "state")
    xs_dd, forcing_values = dense_direct.activations, dense_direct.forcing
    xs_ds = dense_state.activations
    matrix = dense_forcing_matrix(k) if dense_forcing_matrix else build_dense_matrices(k)[1]
    outcomes += [
        ("dense equivalence", gap(xs_dd, xs_ds), case),
        ("dense state extraction", case_extraction_deviation(xs_dd, dense_state.states, k), case),
        ("dense state-space form", case_state_space_deviation(dense_state, matrix, dl), case),
    ]
    for n in range(min(k, len(xs_dd) - 1)):
        ok = identity_holds(xs_dd, forcing_values, n, dl, tol=verify._IDENTITY_TOLERANCE)
        outcomes.append(("dense difference identity", 0.0 if ok else np.inf, f"{case} order n={n}"))
    if k == 1:
        same = all(
            c1_step(*f, a, dl).tobytes() == b.tobytes()
            for f, a, b in zip(fs, xs_direct, xs_direct[1:])
        ) and (xs_direct.tobytes() == xs_state.tobytes() == xs_dd.tobytes() == xs_ds.tobytes())
        outcomes.append(("k=1 collapse", 0.0 if same else np.inf, case))
    return outcomes


def absorb_exact_checks(checks):
    """The binomial-inversion roundtrip trial by trial, and the exact integer identities."""
    roundtrip = checks["binomial inversion roundtrip"]
    rng = np.random.default_rng(np.random.SeedSequence([0xC0FFEE, 99]))
    for n in range(1, 9):
        for trial in range(25):
            states = [rng.standard_normal(4) for _ in range(n)]
            seq = list(reversed(binomial_invert(states)))
            dev = max(
                float(np.max(np.abs(backward_diff_power(seq, n - 1, m) - states[m - 1])))
                for m in range(1, n + 1)
            )
            roundtrip.absorb(dev, f"n={n} trial={trial} (float)")
        int_states = [rng.integers(-50, 50, size=4) for _ in range(n)]
        seq = list(reversed(binomial_invert(int_states)))
        exact = all(np.array_equal(backward_diff_power(seq, n - 1, m), int_states[m - 1]) for m in range(1, n + 1))
        roundtrip.absorb(0.0 if exact else np.inf, f"n={n} (integer, exactness lost)")
    for n in range(1, 65):
        checks["alternating binomial sums"].absorb(abs(alternating_binomial_sum(n)), f"n={n}")
    for k in range(1, 9):
        for matrix in (*build_ck_matrices(k), *build_dense_matrices(k)):
            det = matrix.determinant()
            checks["unimodular block matrices"].absorb(0.0 if det in (1, -1) else abs(det), f"k={k} det={det}")


def reference_battery(orders, widths, depths, seeds, tolerance=1e-9, dense_forcing_matrix=None):
    """``run_battery``'s results, checking every case on its own in grid order."""
    checks = verify._new_checks(tolerance)
    for key in [(k, d, depth, i) for k in orders for d in widths for depth in depths for i in range(seeds)]:
        for name, deviation, detail in check_case(key, dense_forcing_matrix):
            checks[name].absorb(deviation, detail)
    absorb_exact_checks(checks)
    return list(checks.values())
