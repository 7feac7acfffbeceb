"""Numerical verification battery.

Runs the cross-form equivalence checks (direct recurrence vs first-order
state space, for both the smooth order-k and additive dense families), the
order-1 collapse, the dense difference identity, the binomial-inversion
roundtrip, and the exact integer identities. The CLI exposes this battery;
the test suite asserts the same properties independently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .architectures import (
    ForcingFunction,
    Trace,
    c1_step,
    dense_difference_identity_check,
    unroll,
)
from .dynamics import (
    BlockMatrix,
    alternating_binomial_sum,
    backward_diff_power,
    binomial_invert,
    build_ck_matrices,
    build_dense_matrices,
)
from .tensor import Parameter, Tensor

__all__ = ["CheckResult", "run_battery", "sign_flipped_dense_forcing"]

_ACTIVATION_CYCLE = ("tanh", "sigmoid", "leaky_relu")
_DL_CYCLE = (1.0, 0.5)


@dataclass
class CheckResult:
    name: str
    tolerance: float
    max_deviation: float = 0.0
    passed: bool = True
    detail: str = ""

    def absorb(self, deviation: float, detail: str) -> None:
        if deviation > self.max_deviation:
            self.max_deviation = deviation
            if deviation > self.tolerance:
                self.detail = detail
        self.passed = self.max_deviation <= self.tolerance


def _random_forcing(d: int, activation: str, rng: np.random.Generator, name: str) -> ForcingFunction:
    bound = np.sqrt(6.0 / (2 * d))
    weight = Parameter(rng.uniform(-bound, bound, size=(d, d)), name=f"{name}.weight")
    bias = Parameter(rng.uniform(-0.5, 0.5, size=d), name=f"{name}.bias")
    return ForcingFunction(weight, bias, activation)


def _trace(fs, x0: np.ndarray, family: str, k: int, dl: float, mode: str, matrices=None) -> Trace:
    return Trace.from_layers(unroll(fs, Tensor(x0), family, k, dl, mode, matrices), k, dl)


def sign_flipped_dense_forcing(k: int, d: int) -> BlockMatrix:
    """Dense forcing matrix with one corrupted sign; fault-injection hook.

    The corrupted entry is the leading one, which both reconstructs the
    current activation and couples its forcing into it, so the activation
    trajectory itself departs from the direct form.
    """
    _, forcing = build_dense_matrices(k, d)
    grid = [list(row) for row in forcing.block]
    grid[0][0] = -grid[0][0]
    return BlockMatrix(k, d, tuple(tuple(row) for row in grid))


def _max_gap(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(np.max(np.abs(xs - ys)))


def _extraction_deviation(xs: np.ndarray, states: np.ndarray, k: int) -> float:
    """Max gap between recorded states and differences of the trajectory.

    q_n at layer l must be the (n-1)-fold backward difference of x at l,
    with x_0 standing in for the layers before the input. Each order runs
    ``backward_diff_power`` once over the whole trajectory: entry i of
    ``lagged`` is the padded trajectory shifted by k-1-i layers.
    """
    padded = np.concatenate([np.repeat(xs[:1], k - 1, axis=0), xs])
    lagged = [padded[i : i + len(xs)] for i in range(k)]
    return max(_max_gap(states[:, n - 1], backward_diff_power(lagged, k - 1, n)) for n in range(1, k + 1))


def _case_rng(base_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([base_seed, *key]))


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
    callable (k, d) -> BlockMatrix, the dense state evaluation uses that
    forcing matrix instead of the correct one, which a healthy battery must
    flag.
    """
    if not orders or not widths or not depths or seeds < 1:
        raise ValueError("verification grid must be non-empty")
    ck_equiv = CheckResult("ck equivalence", tolerance)
    ck_extract = CheckResult("ck state extraction", tolerance)
    dense_equiv = CheckResult("dense equivalence", tolerance)
    dense_extract = CheckResult("dense state extraction", tolerance)
    collapse = CheckResult("k=1 collapse", 0.0)
    identity = CheckResult("dense difference identity", 1e-10)
    roundtrip = CheckResult("binomial inversion roundtrip", 1e-12)
    alternating = CheckResult("alternating binomial sums", 0.0)
    unimodular = CheckResult("unimodular block matrices", 0.0)

    for k in orders:
        for d in widths:
            for depth in depths:
                for i in range(seeds):
                    rng = _case_rng(0xC0FFEE, k, d, depth, i)
                    activation = _ACTIVATION_CYCLE[i % len(_ACTIVATION_CYCLE)]
                    dl = _DL_CYCLE[i % len(_DL_CYCLE)]
                    case = f"k={k} d={d} L={depth} dl={dl} act={activation} seed#{i}"
                    fs = [
                        _random_forcing(d, activation, rng, f"f{layer}")
                        for layer in range(depth)
                    ]
                    x0 = rng.standard_normal(d)

                    xs_direct = _trace(fs, x0, "ck", k, dl, "direct").activations
                    ck_state = _trace(fs, x0, "ck", k, dl, "state")
                    xs_state = ck_state.activations
                    ck_equiv.absorb(_max_gap(xs_direct, xs_state), case)
                    ck_extract.absorb(_extraction_deviation(xs_direct, ck_state.states, k), case)

                    matrices = None
                    if dense_forcing_matrix:
                        matrices = (build_dense_matrices(k, d)[0], dense_forcing_matrix(k, d))
                    dense_direct = _trace(fs, x0, "dense", k, dl, "direct")
                    dense_state = _trace(fs, x0, "dense", k, dl, "state", matrices)
                    xs_dd, forcing_values = dense_direct.activations, dense_direct.forcing
                    xs_ds = dense_state.activations
                    dense_equiv.absorb(_max_gap(xs_dd, xs_ds), case)
                    dense_extract.absorb(_extraction_deviation(xs_dd, dense_state.states, k), case)

                    # an order-n identity needs at least one admissible layer
                    for n in range(min(k, len(xs_dd) - 1)):
                        ok = dense_difference_identity_check(
                            xs_dd, forcing_values, n, dl, tol=identity.tolerance
                        )
                        identity.absorb(0.0 if ok else np.inf, f"{case} order n={n}")

                    if k == 1:
                        # every residual step x + f(x)·dl from the same x_0,
                        # so the whole residual trajectory, bitwise
                        same = all(
                            c1_step(f, Tensor(a), dl).data.tobytes() == b.tobytes()
                            for f, a, b in zip(fs, xs_direct, xs_direct[1:])
                        ) and (
                            xs_direct.tobytes() == xs_state.tobytes() == xs_dd.tobytes() == xs_ds.tobytes()
                        )
                        collapse.absorb(0.0 if same else np.inf, case)

    rng = np.random.default_rng(np.random.SeedSequence([0xC0FFEE, 99]))
    for n in range(1, 9):
        for trial in range(25):
            states = [rng.standard_normal(4) for _ in range(n)]
            lags = binomial_invert(states)
            seq = list(reversed(lags))
            dev = max(
                float(np.max(np.abs(backward_diff_power(seq, n - 1, m) - states[m - 1])))
                for m in range(1, n + 1)
            )
            roundtrip.absorb(dev, f"n={n} trial={trial} (float)")
        int_states = [rng.integers(-50, 50, size=4) for _ in range(n)]
        lags = binomial_invert(int_states)
        seq = list(reversed(lags))
        exact = all(
            np.array_equal(backward_diff_power(seq, n - 1, m), int_states[m - 1])
            for m in range(1, n + 1)
        )
        roundtrip.absorb(0.0 if exact else np.inf, f"n={n} (integer, exactness lost)")

    for n in range(1, 65):
        alternating.absorb(abs(alternating_binomial_sum(n)), f"n={n}")

    for k in range(1, 9):
        for matrix in (*build_ck_matrices(k, 3), *build_dense_matrices(k, 3)):
            det = matrix.determinant()
            unimodular.absorb(0.0 if det in (1, -1) else abs(det), f"k={k} det={det}")

    return [
        ck_equiv,
        ck_extract,
        dense_equiv,
        dense_extract,
        collapse,
        identity,
        roundtrip,
        alternating,
        unimodular,
    ]
