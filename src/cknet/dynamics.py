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
from dataclasses import dataclass
from functools import cache, cached_property

from .tensor import ShapeError, _as_array, _linear_combination

__all__ = [
    "MAX_BINOMIAL_N",
    "binomial",
    "alternating_binomial_row",
    "alternating_binomial_sum",
    "mixed_diff_coefficients",
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


def mixed_diff_coefficients(k: int) -> list[int]:
    """Stencil of one forward then k-1 backward differences.

    Returns the coefficients c[j] such that applying the composite operator
    to a sequence at position l equals sum_j c[j] * x[l + 1 - j], j = 0..k.
    """
    if k < 1:
        raise ValueError(f"mixed_diff_coefficients requires k >= 1, got {k}")
    return alternating_binomial_row(k)


def _check_same_shape(entries, what: str) -> None:
    shapes = {tuple(e.shape) for e in entries}
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
    _check_same_shape([seq[l - j] for j in range(n)], "backward_diff_power")
    row = alternating_binomial_row(n - 1)
    out = seq[l]
    for j in range(1, n):
        c = row[j]
        out = out + c * seq[l - j]
    return out


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
    lags = []
    for m in range(n):
        row = alternating_binomial_row(m)
        value = states[0]
        for j in range(1, m + 1):
            c = row[j]
            value = value + c * states[j]
        lags.append(value)
    return lags


@dataclass(frozen=True)
class BlockMatrix:
    """A k-by-k grid of integer multiples of the identity, of any width.

    The grid of integers *is* the object of interest; ``apply`` performs
    the block-structured action on a list of k equal-shape arrays without
    ever materializing the dense (k*d, k*d) matrix.
    """

    k: int
    block: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"BlockMatrix requires k >= 1, got k={self.k}")
        if len(self.block) != self.k or any(len(row) != self.k for row in self.block):
            raise ShapeError(f"block grid must be {self.k}x{self.k}")

    def apply(self, parts, input_matrix=None, inputs=(), scale=1):
        """Rows of ``self·parts + scale·input_matrix·inputs`` on equal-shape arrays.

        Each row is one ``linear_combination`` over the parts, then the
        inputs, summed left to right. A zero coefficient or a ``None`` input
        adds no term, so a row with a single unit term is that array itself.
        """
        if len(parts) != self.k:
            raise ShapeError(f"expected {self.k} parts, got {len(parts)}")
        if input_matrix is not None and not len(inputs) == input_matrix.k == self.k:
            raise ShapeError(f"expected a {self.k}-block input matrix and {self.k} inputs")
        parts = [_as_array(p) for p in parts]
        inputs = [None if u is None else _as_array(u) for u in inputs] if input_matrix is not None else []
        _check_same_shape(parts + [u for u in inputs if u is not None], "BlockMatrix.apply")
        input_rows = input_matrix._nonzero if input_matrix is not None else ((),) * self.k
        out = []
        for row, input_row in zip(self._nonzero, input_rows):
            terms = [(c, parts[j]) for j, c in row]
            terms += [(scale * c, inputs[j]) for j, c in input_row if inputs[j] is not None]
            out.append(_linear_combination(terms or [(0, parts[0])]))
        return out

    @cached_property
    def _nonzero(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(column, coefficient) of each row's nonzero entries."""
        return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in self.block)

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


@cache  # frozen, so one instance per k serves every unroll and state step
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
    forcing = tuple(
        tuple((-1) ** j * binomial(i, j) if j <= i else 0 for j in range(k))
        for i in range(k)
    )
    return BlockMatrix(k, identity), BlockMatrix(k, forcing)
