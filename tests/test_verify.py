"""The battery's whole-trajectory checks against their per-layer loops."""
import numpy as np
import pytest

from cknet.dynamics import build_dense_matrices
from cknet.verify import _extraction_deviation, _max_gap, _random_forcing, sign_flipped_dense_forcing
from cknet.verify import _trace as trace
from helpers import extraction_gap


def case(k, d, batch, seed):
    rng = np.random.default_rng(np.random.SeedSequence([k, d, seed]))
    activation = ("tanh", "sigmoid", "leaky_relu")[seed % 3]
    fs = [_random_forcing(d, activation, rng, f"f{layer}") for layer in range(7)]
    x0 = rng.standard_normal((batch, d) if batch else d)
    return fs, x0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("batch", [0, 4])
@pytest.mark.parametrize("faulty", [False, True])
def test_extraction_deviation_is_bitwise_the_loop(k, d, batch, faulty):
    fs, x0 = case(k, d, batch, seed=k + d)
    matrices = (build_dense_matrices(k, d)[0], sign_flipped_dense_forcing(k, d)) if faulty else None
    for family, dl in (("ck", 0.5), ("dense", 1.0)):
        xs = trace(fs, x0, family, k, dl, "direct").activations
        states = trace(fs, x0, family, k, dl, "state", matrices if family == "dense" else None).states
        vectorised = _extraction_deviation(xs, states, k)
        loop = extraction_gap(list(xs), [list(parts) for parts in states], k)
        assert vectorised.hex() == loop.hex()
        if faulty and family == "dense":
            assert loop > 1e-6  # the corrupted matrix is visible to both


def test_max_gap_is_the_largest_layer_gap():
    fs, x0 = case(3, 3, 4, seed=1)
    xs = trace(fs, x0, "ck", 3, 0.5, "direct").activations
    ys = trace(fs, x0, "dense", 3, 0.5, "direct").activations
    loop = max(float(np.max(np.abs(a - b))) for a, b in zip(xs, ys))
    assert _max_gap(xs, ys).hex() == loop.hex() and loop > 0
