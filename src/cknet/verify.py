"""Numerical verification battery.

Runs the cross-form equivalence checks (direct recurrence vs first-order
state space, for both the smooth order-k and additive dense families), the
dense state-space form q' = q + B·u, the order-1 collapse, the dense
difference identity, the binomial-inversion roundtrip, and the exact
integer identities.

It runs in one process. The cases of a grid point that share an activation
and mesh step form one ensemble: their forcing maps are stacked on axis 1
of the [depth, E, d, d] and [depth, E, d] block arrays, their inputs are
one-row batches [E, 1, d], one ``unroll`` per form steps every member, and
each check reduces over all axes but that one. Outcomes are absorbed in grid
order, so every result is that of checking the cases one by one. The CLI
exposes this battery; the test suite asserts the same properties
independently, against the per-case reference in ``tests/helpers.py``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .architectures import Trace, _is_integer, c1_step, unroll
from .dynamics import (
    MAX_BINOMIAL_N,
    BlockMatrix,
    alternating_binomial_row,
    alternating_binomial_sum,
    backward_diff_power,
    binomial_invert,
    build_ck_matrices,
    build_dense_matrices,
    lagged_sum,
)

__all__ = ["CheckResult", "run_battery", "sign_flipped_dense_forcing"]

_ACTIVATION_CYCLE = ("tanh", "sigmoid", "leaky_relu")
_DL_CYCLE = (1.0, 0.5)
# seeds i and i + _GROUP_STRIDE share the activation and dl, so they stack
_GROUP_STRIDE = math.lcm(len(_ACTIVATION_CYCLE), len(_DL_CYCLE))
_IDENTITY_TOLERANCE = 1e-10


@dataclass
class CheckResult:
    name: str
    tolerance: float
    max_deviation: float = 0.0
    passed: bool = True
    detail: str = ""

    def absorb(self, deviation: float, detail: str) -> None:
        """Keep the largest deviation and, once it is above the tolerance,
        the first case that gave it. NaN outranks every number: the first
        NaN fails the check, and its case stays the detail."""
        if self.max_deviation != self.max_deviation:
            return
        if deviation > self.max_deviation or deviation != deviation:
            self.max_deviation = deviation
            if not deviation <= self.tolerance:
                self.detail = detail
        self.passed = self.max_deviation <= self.tolerance


def _new_checks(tolerance: float) -> dict[str, CheckResult]:
    """One empty result per check, in report order."""
    return {
        name: CheckResult(name, tol)
        for name, tol in (
            ("ck equivalence", tolerance),
            ("ck state extraction", tolerance),
            ("dense equivalence", tolerance),
            ("dense state extraction", tolerance),
            ("dense state-space form", tolerance),
            ("k=1 collapse", 0.0),
            ("dense difference identity", _IDENTITY_TOLERANCE),
            ("binomial inversion roundtrip", 1e-12),
            ("alternating binomial sums", 0.0),
            ("unimodular block matrices", 0.0),
        )
    }


def sign_flipped_dense_forcing(k: int) -> BlockMatrix:
    """Dense forcing matrix with one corrupted sign; fault-injection hook.

    The corrupted entry is the leading one, which couples the current
    forcing output into q_1: checked against it, every recorded q_1 step
    dl·f_l is off by 2·dl·|f_l|.
    """
    first, *rest = build_dense_matrices(k)[1].block
    return BlockMatrix(k, ((-first[0], *first[1:]), *rest))


# A stacked trajectory is (L+1, E, ...) and a stacked state (L+1, k, E, ...);
# with the order picked out, the member axis of every array below is axis 1.


def _member_max(a: np.ndarray) -> np.ndarray:
    """The max of each member over all its other axes; NaN propagates."""
    return np.max(a, axis=(0, *range(2, a.ndim)))


def _max_gap(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return _member_max(np.abs(xs - ys))


def _lags(a: np.ndarray, before, count: int) -> list[np.ndarray]:
    """Views of a trace whose entry j = 0..count-1 holds a_{l-j} at layer l,
    with ``before`` (a layer, or a number) standing in before the input."""
    padded = np.concatenate([np.broadcast_to(before, (count - 1, *a.shape[1:])), a])
    return [padded[count - 1 - j : len(padded) - j] for j in range(count)]


def _extraction_deviation(lags: list[np.ndarray], states: np.ndarray) -> np.ndarray:
    """Each member's max gap between recorded states and differences of its
    trajectory: q_n at layer l must be the (n-1)-fold backward difference of
    x at l, over the ``_lags`` of x padded with x_0."""
    gaps = [_max_gap(states[:, n - 1], lagged_sum(alternating_binomial_row(n - 1), lags[:n]))
            for n in range(1, states.shape[1] + 1)]
    return np.max(gaps, axis=0)


def _state_space_deviation(trace: Trace, matrix: BlockMatrix, dl: float) -> np.ndarray:
    """Each member's max gap between its state steps q_{l+1} - q_l and B·u_l,
    u_l = dl·f_l, dl·f_{l-1}, ... (zero before the input)."""
    lags = _lags(trace.forcing * dl, 0.0, matrix.k)
    steps = trace.states[1:] - trace.states[:-1]
    return np.max([_max_gap(steps[:, n], lagged_sum(row, lags)) for n, row in enumerate(matrix.block)], axis=0)


def _identity_deviation(x_lags: list[np.ndarray], f_lags: list[np.ndarray], n: int, dl: float) -> np.ndarray:
    """Each member's max residual of the order-n dense difference identity
    over the layers l = n..L-1 that need no padding: the (n+1)-fold backward
    difference of x at l+1 against dl times the n-fold one of f at l."""
    lhs = lagged_sum(alternating_binomial_row(n + 1), [x[n + 1 :] for x in x_lags[: n + 2]])
    rhs = lagged_sum(alternating_binomial_row(n), [f[n:] for f in f_lags[: n + 1]]) * dl
    return _max_gap(lhs, rhs)


def _case_rng(base_seed: int, *key: int) -> np.random.Generator:
    # every word of a battery key is below 2**32, so the uint32 array is the
    # entropy the list of ints gives, without converting word by word
    return np.random.default_rng(np.random.SeedSequence(np.array([base_seed, *key], dtype=np.uint32)))


def _check_group(k: int, d: int, depth: int, seeds, forcing_matrix) -> tuple[str, list[tuple[str, list[float], str]]]:
    """The outcomes of the cases (k, d, depth, i) for i in ``seeds``, which
    share an activation and dl, from one ensemble: the cases' shared label,
    and (check, deviation of each case, detail suffix) rows. "dense
    state-space form" checks the dense states against ``forcing_matrix``."""
    activation = _ACTIVATION_CYCLE[seeds[0] % len(_ACTIVATION_CYCLE)]
    dl = _DL_CYCLE[seeds[0] % len(_DL_CYCLE)]
    # member e draws from its case's generator in the per-case order: every
    # layer's weight in [-bound, bound), then its bias in [-0.5, 0.5), then
    # x_0. ``uniform(low, high)`` is ``low + (high - low)·u`` for the next
    # unit draw u, so one unit draw for all layers and members, scaled once
    # per range, is bitwise the per-layer draws.
    bound = np.sqrt(6.0 / (2 * d))
    u = np.empty((depth, len(seeds), d * d + d))
    x0 = np.empty((len(seeds), 1, d))  # each member a batch of one row
    for e, i in enumerate(seeds):
        rng = _case_rng(0xC0FFEE, k, d, depth, i)
        u[:, e] = rng.uniform(size=(depth, d * d + d))
        x0[e, 0] = rng.standard_normal(d)
    weights = (-bound + (bound - -bound) * u[..., : d * d]).reshape(depth, len(seeds), d, d)
    biases = -0.5 + (0.5 - -0.5) * u[..., d * d :]
    stack = (weights, biases, activation, x0)
    xs = Trace.from_layers(unroll(*stack, "ck", k, dl, "direct")).activations
    ck_state = Trace.from_layers(unroll(*stack, "ck", k, dl, "state"))
    dense = Trace.from_layers(unroll(*stack, "dense", k, dl, "direct"))
    dense_state = Trace.from_layers(unroll(*stack, "dense", k, dl, "state"))
    dense_lags = _lags(dense.activations, dense.activations[0], k + 1)
    forcing_lags = _lags(dense.forcing, 0.0, k)
    rows = [  # (check, deviation of each member, detail suffix)
        ("ck equivalence", _max_gap(xs, ck_state.activations), ""),
        ("ck state extraction", _extraction_deviation(_lags(xs, xs[0], k), ck_state.states), ""),
        ("dense equivalence", _max_gap(dense.activations, dense_state.activations), ""),
        ("dense state extraction", _extraction_deviation(dense_lags, dense_state.states), ""),
        ("dense state-space form", _state_space_deviation(dense_state, forcing_matrix, dl), ""),
    ]
    # an order-n identity needs at least one layer l >= n
    for n in range(min(k, depth)):
        gap = _identity_deviation(dense_lags, forcing_lags, n, dl)
        rows.append(("dense difference identity", np.where(gap <= _IDENTITY_TOLERANCE, 0.0, np.inf), f" order n={n}"))
    if k == 1:
        # every residual step x + f(x)·dl from the same x_0, so the whole
        # residual trajectory, and every form's trajectory, bitwise
        residual = np.array([xs[0], *(c1_step(w, b, activation, x, dl) for w, b, x in zip(weights, biases, xs))])
        trajectories = (residual, ck_state.activations, dense.activations, dense_state.activations)
        differ = np.any([_member_max(ys.view(np.int64) != xs.view(np.int64)) for ys in trajectories], axis=0)
        rows.append(("k=1 collapse", np.where(differ, np.inf, 0.0), ""))
    label = f"k={k} d={d} L={depth} dl={dl} act={activation}"
    return label, [(name, deviation.tolist(), suffix) for name, deviation, suffix in rows]


def _absorb_exact_checks(checks: dict[str, CheckResult]) -> None:
    """The binomial-inversion roundtrip and the exact integer identities."""
    roundtrip = checks["binomial inversion roundtrip"]
    alternating = checks["alternating binomial sums"]
    unimodular = checks["unimodular block matrices"]
    rng = np.random.default_rng(np.random.SeedSequence([0xC0FFEE, 99]))
    for n in range(1, 9):
        # the 25 float trials stacked on axis 0, drawn trial by trial
        draws = rng.standard_normal((25, n, 4))
        states = [draws[:, m] for m in range(n)]
        seq = list(reversed(binomial_invert(states)))
        gaps = [np.max(np.abs(backward_diff_power(seq, n - 1, m) - states[m - 1]), axis=1) for m in range(1, n + 1)]
        for trial, dev in enumerate(np.max(gaps, axis=0)):
            roundtrip.absorb(float(dev), f"n={n} trial={trial} (float)")
        int_states = [rng.integers(-50, 50, size=4) for _ in range(n)]
        seq = list(reversed(binomial_invert(int_states)))
        exact = all(
            np.array_equal(backward_diff_power(seq, n - 1, m), int_states[m - 1])
            for m in range(1, n + 1)
        )
        roundtrip.absorb(0.0 if exact else np.inf, f"n={n} (integer, exactness lost)")

    for n in range(1, 65):
        alternating.absorb(abs(alternating_binomial_sum(n)), f"n={n}")

    for k in range(1, 9):
        for matrix in (*build_ck_matrices(k), *build_dense_matrices(k)):
            det = matrix.determinant()
            unimodular.absorb(0.0 if det in (1, -1) else abs(det), f"k={k} det={det}")


def run_battery(
    orders=(1, 2, 3, 4),
    widths=(1, 2, 8),
    depths=(3, 10),
    seeds: int = 50,
    tolerance: float = 1e-9,
    dense_forcing_matrix=None,
) -> list[CheckResult]:
    """Run every check over the given grid; returns one result per check.

    ``dense_forcing_matrix`` is a fault-injection hook: when given a
    callable k -> BlockMatrix, "dense state-space form" checks the dense
    state trajectories against that order-k forcing matrix instead of
    ``build_dense_matrices``' B (another order is a ``ValueError``), and a
    healthy battery must flag a wrong one. It is called once per order.

    The (k, d, depth, seed) cases are independent. At each (k, d, depth)
    the seeds with the same ``i mod 6`` (one activation, one dl) run as one
    stacked ensemble; the outcomes are absorbed in grid order, so every
    result, ``detail`` included, is the same as checking case by case.
    Orders, widths, depths and seeds are integers >= 1 (not bools), orders
    at most ``MAX_BINOMIAL_N``, and the tolerance is a real number (not a
    bool), finite and >= 0; the grid is checked before any case runs.
    """
    for name, values in (("orders", orders), ("widths", widths), ("depths", depths), ("seeds", [seeds])):
        if not len(values):
            raise ValueError("verification grid must be non-empty")
        for value in values:
            if not _is_integer(value):
                raise TypeError(f"{name} must be integers, got {value!r}")
        high = MAX_BINOMIAL_N if name == "orders" else math.inf
        if not all(1 <= value <= high for value in values):
            raise ValueError(f"{name} must be in [1, {high}], got {list(values)}")
    if not isinstance(tolerance, numbers.Real) or isinstance(tolerance, bool):
        raise TypeError(f"tolerance must be a real number, got {tolerance!r}")
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    checks = _new_checks(tolerance)
    for k in orders:
        forcing_matrix = dense_forcing_matrix(k) if dense_forcing_matrix else build_dense_matrices(k)[1]
        if forcing_matrix.k != k:
            raise ValueError(f"the fault hook gave a forcing matrix of order {forcing_matrix.k} for k={k}")
        for d in widths:
            for depth in depths:
                groups = [_check_group(k, d, depth, range(first, seeds, _GROUP_STRIDE), forcing_matrix)
                          for first in range(min(_GROUP_STRIDE, seeds))]
                for i in range(seeds):
                    label, rows = groups[i % _GROUP_STRIDE]
                    for name, deviations, suffix in rows:
                        check, deviation = checks[name], deviations[i // _GROUP_STRIDE]
                        # only a deviation above the tolerance, or NaN, can keep its detail
                        detail = "" if deviation <= check.tolerance else f"{label} seed#{i}{suffix}"
                        check.absorb(deviation, detail)
    _absorb_exact_checks(checks)
    return list(checks.values())
