"""Numerical verification battery.

Runs the cross-form equivalence checks (direct recurrence vs first-order
state space, for both the smooth order-k and additive dense families), the
order-1 collapse, the dense difference identity, the binomial-inversion
roundtrip, and the exact integer identities. The grid's cases are split
across forked worker processes, one per CPU in the affinity mask, with
results that do not depend on the worker count. The CLI exposes this
battery; the test suite asserts the same properties independently.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

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

__all__ = ["CheckResult", "WorkerError", "run_battery", "sign_flipped_dense_forcing"]

_ACTIVATION_CYCLE = ("tanh", "sigmoid", "leaky_relu")
_DL_CYCLE = (1.0, 0.5)
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


def _check_case(key: tuple[int, int, int, int], dense_forcing_matrix) -> list[tuple[str, float, str]]:
    """The (check, deviation, detail) outcomes of one grid case.

    The case is rebuilt from its key alone, so any process computes the
    same outcomes for it.
    """
    k, d, depth, i = key
    rng = _case_rng(0xC0FFEE, *key)
    activation = _ACTIVATION_CYCLE[i % len(_ACTIVATION_CYCLE)]
    dl = _DL_CYCLE[i % len(_DL_CYCLE)]
    case = f"k={k} d={d} L={depth} dl={dl} act={activation} seed#{i}"
    fs = [_random_forcing(d, activation, rng, f"f{layer}") for layer in range(depth)]
    x0 = rng.standard_normal(d)

    xs_direct = _trace(fs, x0, "ck", k, dl, "direct").activations
    ck_state = _trace(fs, x0, "ck", k, dl, "state")
    xs_state = ck_state.activations
    outcomes = [
        ("ck equivalence", _max_gap(xs_direct, xs_state), case),
        ("ck state extraction", _extraction_deviation(xs_direct, ck_state.states, k), case),
    ]

    matrices = None
    if dense_forcing_matrix:
        matrices = (build_dense_matrices(k, d)[0], dense_forcing_matrix(k, d))
    dense_direct = _trace(fs, x0, "dense", k, dl, "direct")
    dense_state = _trace(fs, x0, "dense", k, dl, "state", matrices)
    xs_dd, forcing_values = dense_direct.activations, dense_direct.forcing
    xs_ds = dense_state.activations
    outcomes += [
        ("dense equivalence", _max_gap(xs_dd, xs_ds), case),
        ("dense state extraction", _extraction_deviation(xs_dd, dense_state.states, k), case),
    ]

    # an order-n identity needs at least one admissible layer
    for n in range(min(k, len(xs_dd) - 1)):
        ok = dense_difference_identity_check(xs_dd, forcing_values, n, dl, tol=_IDENTITY_TOLERANCE)
        outcomes.append(("dense difference identity", 0.0 if ok else np.inf, f"{case} order n={n}"))

    if k == 1:
        # every residual step x + f(x)·dl from the same x_0,
        # so the whole residual trajectory, bitwise
        same = all(
            c1_step(f, Tensor(a), dl).data.tobytes() == b.tobytes()
            for f, a, b in zip(fs, xs_direct, xs_direct[1:])
        ) and (xs_direct.tobytes() == xs_state.tobytes() == xs_dd.tobytes() == xs_ds.tobytes())
        outcomes.append(("k=1 collapse", 0.0 if same else np.inf, case))
    return outcomes


def _check_cases(keys, dense_forcing_matrix) -> list[list[tuple[str, float, str]]]:
    return [_check_case(key, dense_forcing_matrix) for key in keys]


class WorkerError(RuntimeError):
    """A battery worker process ended without returning its cases."""


_adopted_job = None  # set in each forked worker by _adopt


def _adopt(job) -> None:
    global _adopted_job
    _adopted_job = job


def _run_adopted(items):
    return _adopted_job(items)


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork_context():
    """The "fork" multiprocessing context, or None where it is not a start method.

    Imported here, so a process that never forks (one CPU, or a one-case
    grid) does not pay for importing multiprocessing.
    """
    import multiprocessing

    return multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None


def _map_slices(job, items: list) -> list:
    """``job`` over round-robin slices of ``items``, one per usable CPU.

    ``job(slice)`` returns one result per item. The caller runs slice 0
    itself and forks a worker for each other slice; ``job`` reaches the
    workers through the fork, so it need not be picklable. Results come
    back in item order, so they do not depend on the number of workers.
    With one CPU, or where "fork" is not a start method, ``job`` runs on
    all items in this process.
    """
    n = min(_cpu_count(), len(items))
    context = _fork_context() if n > 1 else None
    if context is None:
        return job(items)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    slices = [items[w::n] for w in range(n)]
    with ProcessPoolExecutor(n - 1, mp_context=context, initializer=_adopt, initargs=(job,)) as pool:
        futures = [pool.submit(_run_adopted, part) for part in slices[1:]]
        parts = [job(slices[0])]
        try:
            parts += [future.result() for future in futures]
        except BrokenProcessPool as exc:
            raise WorkerError(f"a verify worker process ended before returning its cases ({exc})") from exc
    results = [None] * len(items)
    for w, part in enumerate(parts):
        results[w::n] = part
    return results


def _absorb_exact_checks(checks: dict[str, CheckResult]) -> None:
    """The binomial-inversion roundtrip and the exact integer identities."""
    roundtrip = checks["binomial inversion roundtrip"]
    alternating = checks["alternating binomial sums"]
    unimodular = checks["unimodular block matrices"]
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

    The (k, d, depth, seed) cases are independent; they are split across
    the CPUs in this process's affinity mask (see ``_map_slices``) and
    absorbed in grid order, so every result, ``detail`` included, is the
    same for any number of workers. The exact checks run in this process.
    """
    if not orders or not widths or not depths or seeds < 1:
        raise ValueError("verification grid must be non-empty")
    checks = {
        name: CheckResult(name, tol)
        for name, tol in (
            ("ck equivalence", tolerance),
            ("ck state extraction", tolerance),
            ("dense equivalence", tolerance),
            ("dense state extraction", tolerance),
            ("k=1 collapse", 0.0),
            ("dense difference identity", _IDENTITY_TOLERANCE),
            ("binomial inversion roundtrip", 1e-12),
            ("alternating binomial sums", 0.0),
            ("unimodular block matrices", 0.0),
        )
    }
    keys = [(k, d, depth, i) for k in orders for d in widths for depth in depths for i in range(seeds)]
    job = partial(_check_cases, dense_forcing_matrix=dense_forcing_matrix)
    for outcomes in _map_slices(job, keys):
        for name, deviation, detail in outcomes:
            checks[name].absorb(deviation, detail)
    _absorb_exact_checks(checks)
    return list(checks.values())
