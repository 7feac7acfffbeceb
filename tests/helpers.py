"""Shared numerical oracles for the test suite."""
from __future__ import annotations

import numpy as np

from cknet.architectures import Trace, unroll
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
    """Activations, forcing outputs and (state mode) state parts, as arrays,
    of ``unroll`` over the forcing functions ``fs`` from the array ``x0``."""
    trace = Trace.from_layers(unroll(fs, Tensor(x0), family, k, dl, mode), k, dl)
    return trace.activations, trace.forcing, trace.states
