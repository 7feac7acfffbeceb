"""The battery's whole-trajectory checks against their per-layer loops,
its NaN handling, and its cases split across forked workers."""
import multiprocessing
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cknet import cli
from cknet.dynamics import BlockMatrix, build_dense_matrices
from cknet.verify import (
    CheckResult,
    WorkerError,
    _extraction_deviation,
    _max_gap,
    _random_forcing,
    run_battery,
    sign_flipped_dense_forcing,
)
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


# -- the battery over forked workers ----------------------------------------------

GRID = dict(orders=(1, 2, 3, 4), widths=(1, 2), depths=(3, 10), seeds=3)


@pytest.fixture
def cpus(monkeypatch):
    """Give the battery ``n`` CPUs in its affinity mask, whatever the machine has."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus


def fields(results):
    return [(r.name, r.tolerance, r.max_deviation.hex(), r.passed, r.detail) for r in results]


def battery_on(cpus, n, **kwargs):
    cpus(n)
    results = run_battery(**{**GRID, **kwargs})
    assert multiprocessing.active_children() == []
    return fields(results)


def nan_dense_forcing(k, d):
    grid = [list(row) for row in build_dense_matrices(k, d)[1].block]
    grid[0][0] = float("nan")
    return BlockMatrix(k, d, tuple(tuple(row) for row in grid))


def nan_at_width_two(k, d):
    return nan_dense_forcing(k, d) if d == 2 else build_dense_matrices(k, d)[1]


CASES = {
    "healthy": (None, {}, set()),
    "sign-flip": (sign_flipped_dense_forcing, {}, {"dense equivalence", "dense state extraction", "k=1 collapse"}),
    # the first NaN is case 3 (k=1 d=2 seed#0), a worker's with 2 CPUs, while
    # the caller's slice holds later NaN cases: the merge must keep case order
    "nan-at-width-2": (nan_at_width_two, {"depths": (3,)}, {"dense equivalence", "dense state extraction", "k=1 collapse"}),
}


@pytest.mark.parametrize("hook,grid,failing", CASES.values(), ids=CASES.keys())
def test_results_do_not_depend_on_the_worker_count(cpus, hook, grid, failing):
    serial = battery_on(cpus, 1, dense_forcing_matrix=hook, **grid)
    assert battery_on(cpus, 2, dense_forcing_matrix=hook, **grid) == serial
    assert battery_on(cpus, 3, dense_forcing_matrix=hook, **grid) == serial
    assert {name for name, _, _, passed, _ in serial if not passed} == failing


def test_a_lambda_hook_reaches_the_workers(cpus):
    named = battery_on(cpus, 2, dense_forcing_matrix=sign_flipped_dense_forcing)
    assert battery_on(cpus, 2, dense_forcing_matrix=lambda k, d: sign_flipped_dense_forcing(k, d)) == named


def test_nan_from_a_worker_survives_the_merge(cpus):
    caller = os.getpid()

    def nan_in_workers(k, d):
        return build_dense_matrices(k, d)[1] if os.getpid() == caller else nan_dense_forcing(k, d)

    grid = dict(orders=(2,), widths=(2,), depths=(3,), seeds=4)
    assert all(passed for *_, passed, _ in battery_on(cpus, 1, dense_forcing_matrix=nan_in_workers, **grid))
    # round-robin: the caller checks seeds #0 and #2, the worker #1 and #3
    merged = {r[0]: r for r in battery_on(cpus, 2, dense_forcing_matrix=nan_in_workers, **grid)}
    _, _, deviation, passed, detail = merged["dense equivalence"]
    assert deviation == "nan" and not passed and detail.endswith("seed#1")
    assert merged["ck equivalence"][3]


def test_verify_prints_the_same_bytes_for_any_worker_count(cpus, capsys):
    argv = ["verify", "--orders", "1", "3", "--widths", "1", "2", "--depths", "3", "--seeds", "3"]
    outputs = []
    for n in (1, 2):
        cpus(n)
        for extra in ([], ["--inject-fault", "dense-sign-flip"]):
            cli.main(argv + extra)
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:] and outputs[0] != outputs[1]


def exit_in_workers(k, d):
    if multiprocessing.parent_process() is not None:
        os._exit(7)
    return build_dense_matrices(k, d)[1]


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in this thread if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_worker_that_dies_raises_a_clear_error(cpus):
    cpus(2)
    with deadline(60), pytest.raises(WorkerError, match="worker process ended before returning its cases"):
        run_battery(**GRID, dense_forcing_matrix=exit_in_workers)
    assert multiprocessing.active_children() == []


def test_verify_reports_a_dead_worker_in_one_line():
    script = (
        "import os, sys\n"
        "from cknet import cli\n"
        "from test_verify import exit_in_workers\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "cli.sign_flipped_dense_forcing = exit_in_workers\n"
        "sys.exit(cli.main(['verify', '--seeds', '2', '--inject-fault', 'dense-sign-flip']))\n"
    )
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: a verify worker process ended before returning its cases")
