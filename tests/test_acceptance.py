"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete. The heavyweight experiment fixtures are module-
scoped so later criteria (determinism) can reuse their artifacts.
"""
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from cknet.architectures import (
    Network,
    NetworkConfig,
    Trace,
    c1_step,
    unroll,
    weight_matrix_ratio,
)
from cknet.data import (
    Dataset,
    generate_toy_1d,
    load_mnist_dir,
    split,
    synthetic_digits,
)
from cknet.dynamics import alternating_binomial_sum, backward_diff_power, binomial_invert
from cknet.experiments import (
    compare_orders,
    emit_compare_report,
    emit_sweep_report,
    emit_toy_report,
    run_depth_sweep,
    run_toy_experiment,
)
from cknet.training import softmax_cross_entropy
from helpers import best_threshold_accuracy, central_difference, extraction_gap, identity_holds, random_forcing, spearman, unrolled

GRID_ORDERS = (1, 2, 3, 4)
GRID_WIDTHS = (1, 2, 8)
GRID_DEPTHS = (3, 10)
GRID_SEEDS = 50
TOL_EQUIV = 1e-9
TOL_IDENTITY = 1e-10


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {number}: {detail}", flush=True)
    assert ok, f"criterion {number} failed: {detail}"


def _grid_cases():
    for k in GRID_ORDERS:
        for d in GRID_WIDTHS:
            for depth in GRID_DEPTHS:
                for i in range(GRID_SEEDS):
                    rng = np.random.default_rng(np.random.SeedSequence([7, k, d, depth, i]))
                    activation = ("tanh", "sigmoid", "leaky_relu")[i % 3]
                    fs = [random_forcing(d, activation, rng) for _ in range(depth)]
                    x0 = rng.standard_normal(d)
                    yield k, d, depth, i, fs, x0


def test_criterion_1_smooth_family_state_space_equivalence():
    started = time.perf_counter()
    worst_x = worst_state = 0.0
    for k, d, depth, i, fs, x0 in _grid_cases():
        xs_direct = unrolled(fs, x0, "ck", k, 1.0, "direct")[0]
        xs_state, _, states = unrolled(fs, x0, "ck", k, 1.0, "state")
        worst_x = max(
            worst_x, max(float(np.max(np.abs(a - b))) for a, b in zip(xs_direct, xs_state))
        )
        worst_state = max(worst_state, extraction_gap(xs_direct, states, k))
    elapsed = time.perf_counter() - started
    ok = worst_x <= TOL_EQUIV and worst_state <= TOL_EQUIV and elapsed < 30.0
    report(
        1,
        ok,
        f"order-k equivalence over {4 * 3 * 2 * GRID_SEEDS} cases: "
        f"max |x - q1| = {worst_x:.2e}, max state gap = {worst_state:.2e} "
        f"(tol {TOL_EQUIV:.0e}), {elapsed:.1f}s (cap 30s)",
    )


# module-level cache: criterion 3 reuses the dense trajectories of criterion 2
_dense_runs = []


def test_criterion_2_dense_family_equivalence_and_collapse():
    started = time.perf_counter()
    worst_x = worst_state = 0.0
    collapse_ok = True
    for k, d, depth, i, fs, x0 in _grid_cases():
        xs_direct, forcing_values, _ = unrolled(fs, x0, "dense", k, 1.0, "direct")
        xs_state, _, states = unrolled(fs, x0, "dense", k, 1.0, "state")
        worst_x = max(
            worst_x, max(float(np.max(np.abs(a - b))) for a, b in zip(xs_direct, xs_state))
        )
        worst_state = max(worst_state, extraction_gap(xs_direct, states, k))
        _dense_runs.append((k, xs_direct, forcing_values))
        if k == 1:
            xs_ck = unrolled(fs, x0, "ck", 1, 1.0, "direct")[0]
            xs_c1 = [x0]
            for f in fs:
                xs_c1.append(c1_step(*f, xs_c1[-1], 1.0))
            collapse_ok = collapse_ok and all(
                a.tobytes() == b.tobytes() == c.tobytes()
                for a, b, c in zip(xs_c1, xs_ck, xs_direct)
            ) and all(a.tobytes() == b.tobytes() for a, b in zip(xs_c1, xs_state))
    elapsed = time.perf_counter() - started
    ok = worst_x <= TOL_EQUIV and worst_state <= TOL_EQUIV and collapse_ok and elapsed < 30.0
    report(
        2,
        ok,
        f"dense equivalence: max |x - q1| = {worst_x:.2e}, max state gap = "
        f"{worst_state:.2e} (tol {TOL_EQUIV:.0e}), k=1 collapse bitwise: "
        f"{collapse_ok}, {elapsed:.1f}s (cap 30s)",
    )


def test_criterion_3_dense_difference_identity():
    assert _dense_runs, "criterion 2 must run first"
    checked = 0
    all_ok = True
    for k, xs, forcing_values in _dense_runs:
        # an order-n check needs at least one admissible layer (n <= L-1)
        for n in range(min(k, len(xs) - 1)):
            all_ok = all_ok and identity_holds(xs, forcing_values, n, dl=1.0, tol=TOL_IDENTITY)
            checked += 1
    report(
        3,
        all_ok,
        f"difference identity holds (tol {TOL_IDENTITY:.0e}) for all orders "
        f"n = 0..k-1 on every dense trajectory ({checked} checks)",
    )


def test_criterion_4_binomial_inversion_and_alternating_sums():
    rng = np.random.default_rng(123)
    int_exact = True
    float_worst = 0.0
    for n in range(1, 9):
        for _ in range(50):
            ints = [rng.integers(-10**9, 10**9, size=4) for _ in range(n)]
            seq = list(reversed(binomial_invert(ints)))
            int_exact = int_exact and all(
                np.array_equal(backward_diff_power(seq, n - 1, m), ints[m - 1])
                for m in range(1, n + 1)
            )
            floats = [rng.standard_normal(4) for _ in range(n)]
            fseq = list(reversed(binomial_invert(floats)))
            float_worst = max(
                float_worst,
                max(
                    float(np.max(np.abs(backward_diff_power(fseq, n - 1, m) - floats[m - 1])))
                    for m in range(1, n + 1)
                ),
            )
    sums_ok = all(alternating_binomial_sum(n) == 0 for n in range(1, 65))
    ok = int_exact and float_worst <= 1e-12 and sums_ok
    report(
        4,
        ok,
        f"inversion roundtrip exact on integers (n<=8), float gap "
        f"{float_worst:.2e} (tol 1e-12); alternating sums identically 0 for n<=64: {sums_ok}",
    )


def test_criterion_5_parameter_ratio_and_embedding_dimension():
    ratio_ok = all(
        weight_matrix_ratio(k, d) == Fraction(1, k * k)
        for k in range(1, 9)
        for d in (1, 2, 8, 64)
    )
    embed_ok = all(
        Trace.from_layers(
            unroll(np.empty((0, d, d)), np.empty((0, d)), "tanh", np.zeros(d), "ck", k, 1.0, "state")
        ).states[0].size == k * d
        for k in range(1, 9)
        for d in (1, 2, 8)
    )
    report(
        5,
        ratio_ok and embed_ok,
        f"weight-matrix ratio is exactly 1/k^2 for k<=8: {ratio_ok}; "
        f"state embedding dimension is k*d by construction: {embed_ok}",
    )


def test_criterion_6_full_network_gradients():
    started = time.perf_counter()
    configs = []
    i = 0
    for family in ("ck", "dense"):
        for k in (1, 2, 3, 4):
            for mode in ("direct", "state"):
                activation = ("tanh", "sigmoid", "leaky_relu")[i % 3]
                dl = (1.0, 0.5)[i % 2]
                configs.append((family, k, mode, activation, dl, 3, 3))
                i += 1
    # four wider/deeper spot checks to round out the 20
    configs += [
        ("ck", 2, "direct", "leaky_relu", 0.5, 5, 4),
        ("ck", 4, "state", "tanh", 1.0, 2, 5),
        ("dense", 3, "direct", "sigmoid", 1.0, 5, 4),
        ("dense", 4, "state", "tanh", 0.5, 2, 5),
    ]
    worst = 0.0
    for idx, (family, k, mode, activation, dl, depth, width) in enumerate(configs):
        net = Network(
            NetworkConfig(family, k, depth=depth, width=width, input_dim=3, num_classes=3,
                          dl=dl, activation=activation, seed=idx)
        )
        rng = np.random.default_rng(idx)
        x = rng.standard_normal((3, 3))
        y = rng.integers(0, 3, size=3)

        loss = softmax_cross_entropy(net.forward(x, mode=mode), y)
        net.zero_grad()
        loss.backward()

        def loss_value():
            return softmax_cross_entropy(net.forward(x, mode=mode), y).item()

        params = net.parameters()
        fds = central_difference(loss_value, [p.data for p in params])
        for p, fd in zip(params, fds):
            scale = np.maximum(np.abs(fd), np.abs(p.grad))
            gaps = np.abs(p.grad - fd) / np.maximum(scale, 1e-3)
            worst = max(worst, float(gaps.max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 120.0
    report(
        6,
        ok,
        f"gradients vs central differences over {len(configs)} configs "
        f"(both families, both modes, k=1..4): worst relative error "
        f"{worst:.2e} (tol 1e-5), {elapsed:.1f}s (cap 120s)",
    )


@pytest.fixture(scope="module")
def toy_runs():
    started = time.perf_counter()
    seeds = (0, 1, 2, 3, 4)
    order_one = run_toy_experiment(1, seeds=seeds)
    order_two = run_toy_experiment(2, seeds=seeds)
    return {"k1": order_one, "k2": order_two, "elapsed": time.perf_counter() - started}


def test_criterion_7_toy_separability(toy_runs):
    premise_ok = all(
        best_threshold_accuracy(
            generate_toy_1d(40, seed=s).inputs[:, 0], generate_toy_1d(40, seed=s).labels
        )
        == 0.75
        for s in range(5)
    )
    acc1 = sorted(toy_runs["k1"].accuracies.values())
    acc2 = sorted(toy_runs["k2"].accuracies.values())
    ceiling_ok = max(acc1) <= 0.80
    success_ok = max(acc2) == 1.0
    dump = toy_runs["k2"].dump
    init_velocity_ok = bool(np.all(dump.q2[0] == 0.0))
    # a fully-correct order-2 run must end threshold-separable in position alone
    separable_ok = (
        best_threshold_accuracy(dump.q1[-1], dump.labels) == 1.0 if success_ok else False
    )
    elapsed = toy_runs["elapsed"]
    ok = premise_ok and ceiling_ok and success_ok and init_velocity_ok and separable_ok and elapsed < 300.0
    report(
        7,
        ok,
        f"raw-data threshold ceiling exactly 0.75: {premise_ok}; order-1 stays "
        f"<= 0.80 on 5 seeds (max {max(acc1):.4f}); order-2 reaches 1.00 on "
        f">=1 seed ({sum(a == 1.0 for a in acc2)}/5); initial velocity exactly 0: "
        f"{init_velocity_ok}; final-layer positions threshold-separable: "
        f"{separable_ok}; {elapsed:.0f}s (cap 300s)",
    )


def _experiment_dataset() -> tuple[Dataset, str]:
    """Real MNIST (10k seeded subset) when CK_DATA_DIR is set, else the
    deterministic synthetic surrogate with the same shapes."""
    data_dir = os.environ.get("CK_DATA_DIR")
    if data_dir:
        try:
            full = load_mnist_dir(data_dir, train=True)
        except FileNotFoundError:
            pass
        else:
            perm = np.random.default_rng(0).permutation(len(full))[:10000]
            subset = Dataset(full.inputs[perm], full.labels[perm], full.num_classes)
            return subset, f"mnist ({data_dir})"
    return synthetic_digits(10000, seed=0), "synthetic surrogate"


@pytest.fixture(scope="module")
def sweep_run():
    started = time.perf_counter()
    dataset, source = _experiment_dataset()
    result = run_depth_sweep(list(range(2, 21, 2)), dataset, repetitions=2, seed=0)
    return {"result": result, "elapsed": time.perf_counter() - started, "source": source}


def test_criterion_8_perturbation_depth_law(sweep_run):
    result = sweep_run["result"]
    rhos = dict(result.points)
    deep_ok = all(rhos[L] < 0.3 for L in range(10, 21, 2))
    corr = spearman([p[0] for p in result.points], [p[1] for p in result.points])
    corr_ok = corr <= -0.8
    fit_ok = result.fit.r_squared >= 0.9
    elapsed = sweep_run["elapsed"]
    ok = deep_ok and corr_ok and fit_ok and elapsed < 1800.0
    report(
        8,
        ok,
        f"10k-sample width-64 sweep L=2..20 on {sweep_run['source']}: "
        f"max rho(L>=10) = {max(rhos[L] for L in range(10, 21, 2)):.3f} (< 0.3), "
        f"spearman = {corr:.3f} (<= -0.8), r^2 = {result.fit.r_squared:.3f} (>= 0.9), "
        f"fitted distance {result.fit.d_estimate:.2f}; {elapsed:.0f}s (cap 1800s)",
    )


@pytest.fixture(scope="module")
def compare_run():
    started = time.perf_counter()
    dataset, source = _experiment_dataset()
    trainset, heldout = split(dataset, 0.8, seed=0)
    rows = compare_orders([1, 2, 3, 4], [2, 3, 4], trainset, heldout, seed=0)
    return {"rows": rows, "elapsed": time.perf_counter() - started, "source": source}


def test_criterion_9_architecture_comparison_harness(compare_run):
    rows = compare_run["rows"]
    expected = {("ck", 1), ("ck", 2), ("ck", 3), ("ck", 4), ("dense", 2), ("dense", 3), ("dense", 4)}
    coverage_ok = {(r.arch, r.k) for r in rows} == expected
    accuracy_ok = all(r.train_acc > 0.9 for r in rows)
    elapsed = compare_run["elapsed"]
    ok = coverage_ok and accuracy_ok and elapsed < 2700.0
    worst = min(r.train_acc for r in rows)
    report(
        9,
        ok,
        f"all 7 architectures trained under identical hyperparameters on "
        f"{compare_run['source']}; min train accuracy {worst:.4f} (> 0.9); "
        f"{elapsed:.0f}s (cap 2700s)",
    )


def test_criterion_10_artifact_determinism(toy_runs, sweep_run, compare_run, tmp_path_factory):
    first = tmp_path_factory.mktemp("first")
    emit_toy_report(first, [toy_runs["k1"], toy_runs["k2"]], seed=0)
    emit_sweep_report(first, sweep_run["result"])
    emit_compare_report(first, compare_run["rows"], seed=0)

    # full recomputation from scratch with the same seeds
    second = tmp_path_factory.mktemp("second")
    emit_toy_report(
        second,
        [run_toy_experiment(1, seeds=(0, 1, 2, 3, 4)), run_toy_experiment(2, seeds=(0, 1, 2, 3, 4))],
        seed=0,
    )
    dataset, _ = _experiment_dataset()
    emit_sweep_report(second, run_depth_sweep(list(range(2, 21, 2)), dataset, repetitions=2, seed=0))
    trainset, heldout = split(dataset, 0.8, seed=0)
    emit_compare_report(
        second, compare_orders([1, 2, 3, 4], [2, 3, 4], trainset, heldout, seed=0), seed=0
    )

    names = [
        "toy.csv",
        "trajectory_k1.csv",
        "trajectory_k2.csv",
        "metrics_k1.csv",
        "metrics_k2.csv",
        "depth_sweep.csv",
        "compare.csv",
    ]
    mismatched = [
        n for n in names if (first / n).read_bytes() != (second / n).read_bytes()
    ]
    report(
        10,
        not mismatched,
        f"re-running the toy, sweep, and comparison pipelines with fixed seeds "
        f"reproduced byte-identical CSVs ({', '.join(names)})"
        + (f"; MISMATCH: {mismatched}" if mismatched else ""),
    )
