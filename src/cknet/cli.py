"""Command-line interface.

Exit codes: 0 success, 1 verification/experiment failure, 2 usage error
(argparse's default), 3 I/O error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import experiments
from .architectures import parameter_count, weight_matrix_ratio
from .data import Dataset, fetch_mnist, load_mnist_dir, synthetic_digits
from .training import TrainingError
from .verify import WorkerError, run_battery, sign_flipped_dense_forcing

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _argument_type(kind, what: str, rule: str, ok):
    """argparse type: a ``kind`` value for which ``ok`` holds, else a usage
    error saying that it must be ``rule``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


def int_at_least(low: int):
    return _argument_type(int, "an integer", f">= {low}", lambda value: value >= low)


def finite_float(rule: str, ok):
    return _argument_type(float, "a number", f"a finite number {rule}", lambda v: ok(v) and v < math.inf)


positive_int = int_at_least(1)  # orders, widths, depths, counts
non_negative_float = finite_float(">= 0", lambda value: value >= 0)  # tolerances
positive_float = finite_float("> 0", lambda value: value > 0)  # mesh steps, learning rates


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cknet",
        description="Higher-order dynamical-system network library: "
        "verification battery and desk-scale experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the cross-form equivalence and identity checks")
    p.add_argument("--orders", type=positive_int, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--widths", type=positive_int, nargs="+", default=[1, 2, 8])
    p.add_argument("--depths", type=positive_int, nargs="+", default=[3, 10])
    p.add_argument("--seeds", type=positive_int, default=50, help="random cases per grid point")
    p.add_argument("--tolerance", type=non_negative_float, default=1e-9)
    p.add_argument("--inject-fault", choices=["dense-sign-flip"], help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train-toy", help="single-node separability experiment on the 1-D toy set")
    p.add_argument("-k", "--order", type=positive_int, default=2)
    p.add_argument("-L", "--depth", type=int_at_least(0), default=16)
    p.add_argument("--dl", type=positive_float, default=0.2)
    p.add_argument("--seed", type=int, default=0, help="base seed; runs use seed..seed+seeds-1")
    p.add_argument("--seeds", type=positive_int, default=5, help="number of independent runs")
    p.add_argument("--epochs", type=int_at_least(0), default=2000)
    p.add_argument("--learning-rate", type=positive_float, default=0.002)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("depth-sweep", help="perturbation magnitude vs depth for residual networks")
    p.add_argument("--depths", type=positive_int, nargs="+", default=list(range(2, 21, 2)))
    p.add_argument("--samples", type=int_at_least(10), default=10000, help="at least one per digit class")
    p.add_argument("-d", "--width", type=positive_int, default=64)
    p.add_argument("--dl", type=positive_float, default=0.5)
    p.add_argument("--repetitions", type=positive_int, default=2)
    p.add_argument("--epochs", type=int_at_least(0), default=8)
    p.add_argument("--batch-size", type=positive_int, default=128)
    p.add_argument("--learning-rate", type=positive_float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-dir", default=None, help="IDX directory (or env CK_DATA_DIR); synthetic data when absent")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_depth_sweep)

    p = sub.add_parser("compare", help="train every architecture family/order under one configuration")
    p.add_argument("--orders", type=positive_int, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--dense-orders", type=positive_int, nargs="+", default=[2, 3, 4])
    p.add_argument("-L", "--depth", type=int_at_least(0), default=6)
    p.add_argument("-d", "--width", type=positive_int, default=64)
    p.add_argument("--dl", type=positive_float, default=0.5)
    p.add_argument("--samples", type=int_at_least(10), default=10000, help="at least one per digit class")
    p.add_argument("--epochs", type=positive_int, default=8)
    p.add_argument("--batch-size", type=positive_int, default=128)
    p.add_argument("--learning-rate", type=positive_float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("param-count", help="parameter accounting of order-k blocks vs explicit first-order")
    p.add_argument("-k", "--order", type=positive_int, required=True)
    p.add_argument("-d", "--width", type=positive_int, required=True)
    p.add_argument("-L", "--depth", type=positive_int, default=None)
    p.set_defaults(func=cmd_param_count)

    p = sub.add_parser("fetch-mnist", help="download and cache the four standard IDX files")
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=cmd_fetch_mnist)
    return parser


def _resolve_data_dir(args) -> str | None:
    return args.data_dir or os.environ.get("CK_DATA_DIR")


def _load_subset(args) -> tuple[Dataset, str]:
    """Training subset: real MNIST when a data directory is available,
    otherwise the deterministic synthetic surrogate."""
    data_dir = _resolve_data_dir(args)
    if data_dir:
        full = load_mnist_dir(data_dir, train=True)
        n = min(args.samples, len(full))
        perm = np.random.default_rng(args.seed).permutation(len(full))[:n]
        subset = Dataset(full.inputs[perm], full.labels[perm], full.num_classes)
        return subset, f"mnist:{data_dir} ({n} samples)"
    return (
        synthetic_digits(args.samples, seed=args.seed),
        f"synthetic surrogate ({args.samples} samples)",
    )


def cmd_verify(args) -> int:
    hook = None
    if args.inject_fault == "dense-sign-flip":
        hook = sign_flipped_dense_forcing
    results = run_battery(
        orders=args.orders,
        widths=args.widths,
        depths=args.depths,
        seeds=args.seeds,
        tolerance=args.tolerance,
        dense_forcing_matrix=hook,
    )
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<32} max deviation {r.max_deviation:.3e} (tolerance {r.tolerance:.1e})")
        if not r.passed:
            failed = True
            print(f"       failing case: {r.detail}")
    return EXIT_FAILURE if failed else EXIT_OK


def cmd_train_toy(args) -> int:
    seeds = [args.seed + i for i in range(args.seeds)]
    result = experiments.run_toy_experiment(
        args.order,
        seeds=seeds,
        depth=args.depth,
        dl=args.dl,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
    )
    written = experiments.emit_toy_report(args.out, [result], seed=args.seed)
    print(f"seed={args.seed} order={args.order} depth={args.depth}")
    for seed in sorted(result.accuracies):
        print(f"  seed {seed}: train accuracy {result.accuracies[seed]:.4f}")
    print(f"best: seed {result.best_seed} accuracy {result.best_accuracy:.4f}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_depth_sweep(args) -> int:
    if len(set(args.depths)) < 3:
        print("depth-sweep needs at least 3 distinct depths", file=sys.stderr)
        return EXIT_USAGE
    dataset, source = _load_subset(args)
    print(f"seed={args.seed} data={source}")
    result = experiments.run_depth_sweep(
        args.depths,
        dataset,
        repetitions=args.repetitions,
        width=args.width,
        dl=args.dl,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    for depth, rho in result.points:
        print(f"  L={depth:>3}  mean rho={rho:.5f}  1/rho={1.0 / rho:.3f}")
    fit = result.fit
    print(
        f"fit: slope={fit.slope:.5f} intercept={fit.intercept:.3f} "
        f"r2={fit.r_squared:.4f} distance={fit.d_estimate:.3f}"
    )
    for path in experiments.emit_sweep_report(args.out, result):
        print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    dataset, source = _load_subset(args)
    from .data import split

    trainset, heldout = split(dataset, 0.8, seed=args.seed)
    print(f"seed={args.seed} data={source}")
    rows = experiments.compare_orders(
        args.orders,
        args.dense_orders,
        trainset,
        heldout,
        depth=args.depth,
        width=args.width,
        dl=args.dl,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    print(f"{'arch':<8} {'k':>2} {'train_acc':>10} {'test_error':>11}")
    for row in rows:
        print(f"{row.arch:<8} {row.k:>2} {row.train_acc:>10.4f} {row.test_error:>11.4f}")
    for path in experiments.emit_compare_report(args.out, rows, seed=args.seed):
        print(f"wrote {path}")
    return EXIT_OK


def cmd_param_count(args) -> int:
    k, d = args.order, args.width
    per_layer_ck = d * d
    per_layer_eq = (k * d) * (k * d)
    ratio = float(weight_matrix_ratio(k, d))
    print(f"{per_layer_ck} vs {per_layer_eq} (ratio {ratio})")
    if args.depth is not None:
        total_ck = parameter_count("ck", k, d, args.depth)
        total_eq = parameter_count("first_order_equiv", k, d, args.depth)
        print(f"totals over {args.depth} layers incl. biases: {total_ck} vs {total_eq}")
    return EXIT_OK


def cmd_fetch_mnist(args) -> int:
    data_dir = _resolve_data_dir(args)
    if not data_dir:
        print("fetch-mnist requires --data-dir or CK_DATA_DIR", file=sys.stderr)
        return EXIT_USAGE
    for name, path in fetch_mnist(data_dir).items():
        print(f"{name} -> {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TrainingError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
