"""The battery's stacked ensembles against each member run on its own, its
whole-trajectory checks against their per-layer loops, its NaN handling,
and its results against the case-by-case reference."""
import numpy as np
import pytest

from cknet import verify
from cknet.architectures import Trace, unroll
from cknet.dynamics import BlockMatrix, build_dense_matrices
from cknet.verify import (
    CheckResult,
    _extraction_deviation,
    _max_gap,
    run_battery,
    sign_flipped_dense_forcing,
)
from helpers import extraction_gap, random_forcing, reference_battery, stacked

MEMBERS = 3


def trace(layers, x0, family, k, dl, mode):
    """The trace of ``unroll`` over ``layers``, the (weights, biases, activation) of a stack."""
    return Trace.from_layers(unroll(*layers, x0, family, k, dl, mode))


def case(k, d, batch, seed):
    rng = np.random.default_rng(np.random.SeedSequence([k, d, seed]))
    activation = ("tanh", "sigmoid", "leaky_relu")[seed % 3]
    fs = [random_forcing(d, activation, rng) for _ in range(7)]
    x0 = rng.standard_normal((batch, d) if batch else d)
    return stacked(fs), x0


def ensemble(k, d, batch, seed):
    """``MEMBERS`` cases with one activation, each on its own and stacked on
    axis 1 of the block arrays."""
    cases = [case(k, d, batch, seed + 3 * e) for e in range(MEMBERS)]
    weights, biases, activation = zip(*(layers for layers, _ in cases))
    members = (np.stack(weights, axis=1), np.stack(biases, axis=1), activation[0])
    return cases, members, np.stack([x0 for _, x0 in cases])


FORMS = [("c0", 1), *(("ck", k) for k in (1, 2, 3, 4)), *(("dense", k) for k in (1, 2, 3, 4))]


@pytest.mark.parametrize("family,k", FORMS, ids=[f"{f}{k}" for f, k in FORMS])
@pytest.mark.parametrize("mode", ["direct", "state"])
@pytest.mark.parametrize("batch", [0, 4])
def test_stacked_unroll_is_bitwise_each_member(family, k, mode, batch):
    cases, fs, x0 = ensemble(k, 3, batch, seed=k)
    together = trace(fs, x0, family, k, 0.5, mode)
    for e, (member_fs, member_x0) in enumerate(cases):
        alone = trace(member_fs, member_x0, family, k, 0.5, mode)
        assert together.activations[:, e].tobytes() == alone.activations.tobytes()
        assert together.forcing[:, e].tobytes() == alone.forcing.tobytes()
        if mode == "state":
            assert together.states[:, :, e].tobytes() == alone.states.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("batch", [0, 4])
@pytest.mark.parametrize("faulty", [False, True])
def test_extraction_deviation_is_bitwise_the_loop(k, d, batch, faulty):
    cases, fs, x0 = ensemble(k, d, batch, seed=k + d)
    sign = -1 if faulty else 1  # a faulty run records every state with its sign flipped
    for family, dl in (("ck", 0.5), ("dense", 1.0)):
        xs = trace(fs, x0, family, k, dl, "direct").activations
        states = sign * trace(fs, x0, family, k, dl, "state").states
        vectorised = _extraction_deviation(verify._lags(xs, xs[0], k), states)
        assert vectorised.shape == (MEMBERS,)
        for e, (member_fs, member_x0) in enumerate(cases):
            xs_e = trace(member_fs, member_x0, family, k, dl, "direct").activations
            states_e = sign * trace(member_fs, member_x0, family, k, dl, "state").states
            loop = extraction_gap(list(xs_e), [list(parts) for parts in states_e], k)
            assert vectorised[e].hex() == loop.hex()
            if faulty:
                assert loop > 1e-6  # the corrupted states are visible to both


def test_max_gap_is_each_members_largest_layer_gap():
    _, fs, x0 = ensemble(3, 3, 4, seed=1)
    xs = trace(fs, x0, "ck", 3, 0.5, "direct").activations
    ys = trace(fs, x0, "dense", 3, 0.5, "direct").activations
    gaps = _max_gap(xs, ys)
    for e in range(MEMBERS):
        loop = max(float(np.max(np.abs(a - b))) for a, b in zip(xs[:, e], ys[:, e]))
        assert gaps[e].hex() == loop.hex() and loop > 0


class TestNaNDeviation:
    def test_nan_fails_the_check_and_records_its_case(self):
        check = CheckResult("x", 1e-9)
        check.absorb(1e-12, "fine")
        check.absorb(float("nan"), "broken")
        assert not check.passed and np.isnan(check.max_deviation) and check.detail == "broken"

    def test_first_nan_outranks_everything_after_it(self):
        check = CheckResult("x", 1e-9)
        check.absorb(1e-3, "large")
        check.absorb(float("nan"), "first nan")
        check.absorb(np.inf, "infinite")
        check.absorb(float("nan"), "second nan")
        check.absorb(0.0, "fine")
        assert not check.passed and np.isnan(check.max_deviation) and check.detail == "first nan"

    def test_numbers_keep_their_first_failing_case(self):
        check = CheckResult("x", 1e-9)
        for deviation, case in ((0.0, "a"), (1e-3, "b"), (1e-3, "c"), (1e-10, "d"), (np.inf, "e")):
            check.absorb(deviation, case)
        assert (check.max_deviation, check.passed, check.detail) == (np.inf, False, "e")


# -- the stacked battery against the case-by-case reference ------------------------

# 13 seeds: ensembles of 3 and of 2 members at every grid point
GRID = dict(orders=(1, 2, 3, 4), widths=(1, 2, 8), depths=(3, 10), seeds=13)


def fields(results):
    return [(r.name, r.tolerance, r.max_deviation.hex(), r.passed, r.detail) for r in results]


def with_entry(k, row, column, value):
    """The dense forcing matrix of order k with entry (row, column) c replaced by ``value(c)``."""
    grid = [list(row) for row in build_dense_matrices(k)[1].block]
    grid[row][column] = value(grid[row][column])
    return BlockMatrix(k, tuple(tuple(row) for row in grid))


def nan_at_order_one(k):
    return with_entry(k, 0, 0, lambda c: float("nan")) if k == 1 else build_dense_matrices(k)[1]


def nan_in_second_state(k):
    """NaN in the row of q_2 only."""
    return with_entry(k, 1, 1, lambda c: float("nan")) if k > 1 else build_dense_matrices(k)[1]


# every hook reaches the battery only through the B that "dense state-space
# form" checks the dense state trajectories against
CASES = {
    "healthy": (None, {}, set()),
    "sign-flip": (sign_flipped_dense_forcing, {}, {"dense state-space form"}),
    # k=2 runs first, so the first NaN is k=1 d=1 seed#0, after healthy
    # ensembles, and NaN cases follow in later ensembles
    "nan-at-order-1": (nan_at_order_one, {"orders": (2, 1, 3, 4), "depths": (3,)}, {"dense state-space form"}),
    "nan-in-second-state": (nan_in_second_state, {"widths": (2,)}, {"dense state-space form"}),
}


@pytest.mark.parametrize("hook,grid,failing", CASES.values(), ids=CASES.keys())
def test_stacked_battery_equals_the_per_case_reference(hook, grid, failing):
    stacked = fields(run_battery(**{**GRID, **grid}, dense_forcing_matrix=hook))
    assert stacked == fields(reference_battery(**{**GRID, **grid}, dense_forcing_matrix=hook))
    assert {name for name, _, _, passed, _ in stacked if not passed} == failing


def test_order_five_passes_on_the_default_grid():
    # the highest order the direct ck form keeps within 1e-9 of the state form
    # on the default widths, depths and seeds; order 6 fails two checks
    assert [r.name for r in run_battery(orders=(5,)) if not r.passed] == []


@pytest.mark.parametrize("k", range(1, 9))
def test_the_sign_flip_fails_the_state_space_form_at_every_order(k):
    results = run_battery(orders=(k,), widths=(1, 2), depths=(3,), seeds=2,
                          dense_forcing_matrix=sign_flipped_dense_forcing)
    checks = {r.name: r for r in results}
    form = checks["dense state-space form"]
    assert not form.passed and form.max_deviation > 1e-3
    assert checks["dense equivalence"].passed and checks["ck equivalence"].passed


NONZERO_ENTRIES = [(k, row, column) for k in range(1, 5) for row in range(k) for column in range(row + 1)]


@pytest.mark.parametrize("k,row,column", NONZERO_ENTRIES)
def test_flipping_the_sign_of_any_nonzero_entry_of_b_fails_the_state_space_form(k, row, column):
    # depth 5 > k, so every lag j < k reaches an output of the run
    def hook(order):
        return with_entry(order, row, column, lambda c: -c)

    results = run_battery(orders=(k,), widths=(1, 2), depths=(5,), seeds=2, dense_forcing_matrix=hook)
    assert {r.name for r in results if not r.passed} == {"dense state-space form"}


class NaNStart:
    """A case generator whose x_0 is NaN; the forcing draws are the real ones."""

    def __init__(self, rng):
        self.rng = rng

    def uniform(self, *args, **kwargs):
        return self.rng.uniform(*args, **kwargs)

    def standard_normal(self, size):
        return np.full(size, np.nan)


def test_the_first_failing_case_in_grid_order_is_the_detail(monkeypatch):
    # seed#1 opens the second ensemble; seed#6, later in grid order, sits in
    # the first one, which runs first
    real = verify._case_rng

    def poisoned(base_seed, *key):
        rng = real(base_seed, *key)
        return NaNStart(rng) if key[3] in (1, 6) else rng

    monkeypatch.setattr(verify, "_case_rng", poisoned)
    grid = dict(orders=(2,), widths=(2,), depths=(3,), seeds=8)
    stacked = fields(run_battery(**grid))
    assert stacked == fields(reference_battery(**grid))
    checks = {name: (deviation, passed, detail) for name, _, deviation, passed, detail in stacked}
    assert checks["ck equivalence"] == ("nan", False, "k=2 d=2 L=3 dl=0.5 act=sigmoid seed#1")


def test_an_order_above_the_binomial_cap_is_refused_before_any_case_runs():
    calls = []

    def hook(k):
        calls.append(k)
        return build_dense_matrices(k)[1]

    with pytest.raises(ValueError, match=r"orders must be in \[1, 64\], got \[1, 65\]"):
        run_battery(orders=(1, 65), widths=(1,), depths=(3,), seeds=1, dense_forcing_matrix=hook)
    assert calls == []


def test_the_fault_hook_is_asked_once_per_order():
    calls = []

    def hook(k):
        calls.append(k)
        return sign_flipped_dense_forcing(k)

    run_battery(orders=(2, 1, 3), widths=(1, 2), depths=(3, 4), seeds=8, dense_forcing_matrix=hook)
    assert calls == [2, 1, 3]


def test_a_hook_matrix_of_another_order_is_refused():
    with pytest.raises(ValueError, match=r"^the fault hook gave a forcing matrix of order 2 for k=3$"):
        run_battery(orders=(3,), widths=(1,), depths=(3,), seeds=1,
                    dense_forcing_matrix=lambda k: build_dense_matrices(2)[1])


BAD_GRIDS = {
    "zero-width": ({"widths": (0,)}, ValueError, r"^widths must be in \[1, inf\], got \[0\]"),
    "zero-depth": ({"depths": (3, 0)}, ValueError, r"^depths must be in \[1, inf\]"),
    "zero-seeds": ({"seeds": 0}, ValueError, r"^seeds must be in \[1, inf\], got \[0\]"),
    "zero-order": ({"orders": (0,)}, ValueError, r"^orders must be in \[1, 64\], got \[0\]"),
    "empty-widths": ({"widths": ()}, ValueError, r"^verification grid must be non-empty"),
    "float-width": ({"widths": (1.5,)}, TypeError, r"^widths must be integers, got 1.5"),
    "float-seeds": ({"seeds": 2.5}, TypeError, r"^seeds must be integers, got 2.5"),
    "float-order": ({"orders": (1.5,)}, TypeError, r"^orders must be integers, got 1.5"),
    "integral-float-depth": ({"depths": (3.0,)}, TypeError, r"^depths must be integers, got 3.0"),
    "nan-tolerance": ({"tolerance": float("nan")}, ValueError, r"^tolerance must be a finite number >= 0, got nan"),
    "inf-tolerance": ({"tolerance": float("inf")}, ValueError, r"^tolerance must be a finite number >= 0"),
    "negative-tolerance": ({"tolerance": -1e-9}, ValueError, r"^tolerance must be a finite number >= 0"),
    "string-tolerance": ({"tolerance": "1e-9"}, TypeError, r"^tolerance must be a real number, got '1e-9'$"),
}


@pytest.mark.parametrize("grid,error,message", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
def test_a_bad_grid_is_refused_before_any_case_runs(grid, error, message):
    calls = []

    def hook(k):
        calls.append(k)
        return build_dense_matrices(k)[1]

    with pytest.raises(error, match=message):
        run_battery(**{"orders": (1,), "widths": (1,), "depths": (3,), "seeds": 1, **grid}, dense_forcing_matrix=hook)
    assert calls == []
