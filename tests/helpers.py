"""Shared numerical oracles for the test suite."""
from __future__ import annotations

import numpy as np

from cknet.architectures import Trace, unroll
from cknet.dynamics import alternating_binomial_row, backward_diff_power, mixed_diff_coefficients
from cknet.tensor import Tensor


def central_difference(fn, arrays, step=1e-6):
    """Central finite-difference gradients of scalar fn w.r.t. each array.

    fn is called with no arguments and must read the (mutated) arrays; this
    keeps the oracle independent of the autodiff graph under test.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
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


def pascal_triangle_row(n: int) -> list[int]:
    """Row n of Pascal's triangle by the iterative recurrence."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def gradient_close(analytic, numeric, rtol=1e-5, atol=1e-8) -> bool:
    return np.allclose(analytic, numeric, rtol=rtol, atol=atol)


def unrolled(fs, x0, family, k, dl, mode):
    """Activations, forcing outputs and (state mode) state parts, as lists
    of arrays, of ``unroll`` over the forcing functions ``fs`` from the
    array ``x0``."""
    trace = Trace.from_layers(unroll(fs, Tensor(x0), family, k, dl, mode), k, dl)
    states = None if trace.states is None else [list(parts) for parts in trace.states]
    return list(trace.activations), list(trace.forcing), states


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
    layer; ``dense_difference_identity_check`` passes iff this is <= tol."""
    lhs_coeffs = mixed_diff_coefficients(n + 1)
    rhs_coeffs = alternating_binomial_row(n)
    worst = 0.0
    for l in range(n, len(trajectory) - 1):
        lhs = sum(c * trajectory[l + 1 - j] for j, c in enumerate(lhs_coeffs))
        rhs = sum(c * forcing_values[l - j] for j, c in enumerate(rhs_coeffs)) * dl
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
