"""Exact finite-difference algebra over layer sequences.

Binomial coefficients, the backward difference operator, the
self-inverse alternating-binomial change of basis between a window of
recent layer values and its backward differences, and the integer block
matrices that define the equivalent first-order systems of the higher-order
architectures.

All coefficient arithmetic is exact (Python integers). The sequence
operators are generic: entries may be numpy arrays, or anything supporting
``+`` and multiplication by an int.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .tensor import ShapeError

__all__ = [
    "MAX_BINOMIAL_N",
    "binomial",
    "alternating_binomial_row",
    "alternating_binomial_sum",
    "lagged_sum",
    "backward_diff_power",
    "binomial_invert",
    "BlockMatrix",
    "build_ck_matrices",
    "build_dense_matrices",
]

# Any plausible recurrence order is far below this; beyond it the exactness
# guarantees of downstream float accumulation stop being meaningful.
MAX_BINOMIAL_N = 64


def binomial(n: int, r: int) -> int:
    """Exact C(n, r); zero when r > n."""
    if n < 0 or r < 0:
        raise ValueError(f"binomial requires non-negative arguments, got ({n}, {r})")
    if n > MAX_BINOMIAL_N:
        raise ValueError(f"binomial capped at n <= {MAX_BINOMIAL_N}, got n={n}")
    return math.comb(n, r)


def alternating_binomial_row(n: int) -> list[int]:
    """[(-1)^j * C(n, j) for j = 0..n]."""
    return [(-1) ** j * binomial(n, j) for j in range(n + 1)]


def alternating_binomial_sum(n: int) -> int:
    """Sum of the alternating binomial row; identically 0 for n >= 1."""
    if n < 1:
        raise ValueError(f"alternating_binomial_sum requires n >= 1, got {n}")
    return sum(alternating_binomial_row(n))


def lagged_sum(row, lags):
    """row[0]·lags[0] + row[1]·lags[1] + ..., summed left to right; the one
    place outside the network kernels that applies a coefficient row. A unit
    coefficient adds its entry without a multiply and a zero one adds nothing,
    so a lone unit term comes back unchanged and an all-zero row gives 0."""
    terms = [lag if c == 1 else c * lag for c, lag in zip(row, lags, strict=True) if c]
    return reduce(operator.add, terms) if terms else 0


def _check_same_shape(entries, what: str) -> None:
    shapes = {np.shape(e) for e in entries}
    if len(shapes) > 1:
        raise ShapeError(f"{what}: entries have mixed shapes {sorted(shapes)}")


def backward_diff_power(seq, l: int, n: int):
    """(n-1)-fold backward difference of the sequence at position l.

    Expands to sum_{j=0}^{n-1} (-1)^j C(n-1, j) x[l-j]; n = 1 returns x[l]
    itself. Exact for integer-valued entries.
    """
    if n < 1:
        raise ValueError(f"backward_diff_power requires order n >= 1, got {n}")
    if l - (n - 1) < 0:
        raise IndexError(
            f"backward_diff_power of order {n} at l={l} needs lag {n - 1} "
            f"(earliest index {l - (n - 1)} is out of range)"
        )
    if l >= len(seq):
        raise IndexError(f"position l={l} out of range for sequence of length {len(seq)}")
    window = [seq[l - j] for j in range(n)]
    _check_same_shape(window, "backward_diff_power")
    return lagged_sum(alternating_binomial_row(n - 1), window)


def binomial_invert(states):
    """Recover the lag window from a stack of backward differences.

    Given states q_1..q_n taken at one position (q_m being the (m-1)-fold
    backward difference of the underlying sequence there), returns the
    values [x_at, x_at-1, ..., x_at-n+1]. The transformation matrix is the
    lower-triangular alternating binomial matrix, which is its own inverse,
    so feeding the result back through ``backward_diff_power`` reproduces
    each q_m exactly.
    """
    n = len(states)
    if n < 1:
        raise ValueError("binomial_invert requires at least one state")
    _check_same_shape(states, "binomial_invert")
    return [lagged_sum(alternating_binomial_row(m), states[: m + 1]) for m in range(n)]


@dataclass(frozen=True)
class BlockMatrix:
    """A k-by-k grid of integer multiples of the identity, of any width.

    The grid of integers *is* the object of interest: it is never expanded
    to the dense (k*d, k*d) matrix. The verification battery checks the
    steps of recorded dense state trajectories against the rows of the
    forcing matrix, and each matrix's exact determinant.
    """

    k: int
    block: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"BlockMatrix requires k >= 1, got k={self.k}")
        if len(self.block) != self.k or any(len(row) != self.k for row in self.block):
            raise ShapeError(f"block grid must be {self.k}x{self.k}")

    def determinant(self) -> int:
        """Exact integer determinant of the k-by-k coefficient grid.

        Fraction-free (Bareiss) elimination; the determinant of the expanded
        matrix is this value to the d-th power.
        """
        a = [[int(v) for v in row] for row in self.block]
        n = self.k
        sign = 1
        prev = 1
        for i in range(n - 1):
            if a[i][i] == 0:
                for r in range(i + 1, n):
                    if a[r][i] != 0:
                        a[i], a[r] = a[r], a[i]
                        sign = -sign
                        break
                else:
                    return 0
            for r in range(i + 1, n):
                for c in range(i + 1, n):
                    a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
                a[r][i] = 0
            prev = a[i][i]
        return sign * a[n - 1][n - 1]


@cache  # frozen, so one instance per k serves every caller
def build_ck_matrices(k: int) -> tuple[BlockMatrix, BlockMatrix]:
    """State matrices of the k-th order smooth recurrence.

    The transition factor is the upper-triangular all-ones block matrix
    (each state accumulates every higher-order state); the input factor is
    the block identity (the forcing term feeds every state equally).
    """
    transition = tuple(tuple(1 if j >= i else 0 for j in range(k)) for i in range(k))
    identity = tuple(tuple(1 if j == i else 0 for j in range(k)) for i in range(k))
    return BlockMatrix(k, transition), BlockMatrix(k, identity)


@cache  # as above
def build_dense_matrices(k: int) -> tuple[BlockMatrix, BlockMatrix]:
    """State matrices of the k-th order additive dense recurrence.

    The transition factor is the block identity; the forcing factor is the
    lower-triangular alternating binomial matrix, row n holding
    (-1)^j C(n, j) for j <= n. Both are unimodular, so the state coordinates
    never introduce degeneracies.
    """
    identity = tuple(tuple(1 if j == i else 0 for j in range(k)) for i in range(k))
    forcing = tuple(tuple(alternating_binomial_row(i)) + (0,) * (k - 1 - i) for i in range(k))
    return BlockMatrix(k, identity), BlockMatrix(k, forcing)
