"""Command-line interface.

Exit codes: 0 success, 1 verification/experiment failure, 2 usage error
(argparse's default), 3 I/O error (a missing or corrupt data file among them).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import experiments
from .architectures import check_mesh_step, parameter_count, weight_matrix_ratio
from .data import Dataset, IdxFormatError, fetch_mnist, load_mnist_dir, split, synthetic_digits
from .dynamics import MAX_BINOMIAL_N
from .training import TrainingError
from .verify import run_battery, sign_flipped_dense_forcing

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_IO = 3


def _argument_type(kind, what: str, *rules):
    """argparse type: a ``kind`` value for which every ``ok`` of the
    (``rule``, ``ok``) pairs holds, else a usage error saying that it must
    be the first ``rule`` it breaks."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        for rule, ok in rules:
            if not ok(value):
                raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


def int_at_least(low: int, high: float = math.inf):
    return _argument_type(int, "an integer", (f">= {low}", lambda v: v >= low), (f"<= {high}", lambda v: v <= high))


def finite_float(rule: str, ok):
    return _argument_type(float, "a number", (f"a finite number {rule}", lambda v: ok(v) and v < math.inf))


positive_int = int_at_least(1)  # widths, depths, counts
order = int_at_least(1, MAX_BINOMIAL_N)  # recurrence orders: their binomials are capped
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
    p.add_argument("--orders", type=order, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--widths", type=positive_int, nargs="+", default=[1, 2, 8])
    p.add_argument("--depths", type=positive_int, nargs="+", default=[3, 10])
    p.add_argument("--seeds", type=positive_int, default=50, help="random cases per grid point")
    p.add_argument("--tolerance", type=non_negative_float, default=1e-9)
    p.add_argument("--inject-fault", choices=["dense-sign-flip"], help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    # the options two or more experiment commands share, each declared once
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--seed", type=int_at_least(0), default=0)
    run.add_argument("--out", default="out")
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--samples", type=int_at_least(10), default=10000, help="at least one per digit class")
    digits.add_argument("-d", "--width", type=positive_int, default=64)
    digits.add_argument("--dl", type=positive_float, default=0.5)
    digits.add_argument("--batch-size", type=positive_int, default=128)
    digits.add_argument("--learning-rate", type=positive_float, default=1e-3)
    digits.add_argument("--data-dir", default=None,
                        help="IDX directory (or env CK_DATA_DIR); synthetic data when absent")

    p = sub.add_parser("train-toy", parents=[run], help="single-node separability experiment on the 1-D toy set")
    p.add_argument("-k", "--order", type=order, default=2)
    p.add_argument("-L", "--depth", type=int_at_least(0), default=16)
    p.add_argument("--dl", type=positive_float, default=0.2)
    p.add_argument("--seeds", type=positive_int, default=5,
                   help="number of independent runs; they use seeds seed..seed+seeds-1")
    p.add_argument("--epochs", type=int_at_least(0), default=2000)
    p.add_argument("--learning-rate", type=positive_float, default=0.002)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("depth-sweep", parents=[run, digits],
                       help="perturbation magnitude vs depth for residual networks")
    p.add_argument("--depths", type=positive_int, nargs="+", default=list(range(2, 21, 2)))
    p.add_argument("--repetitions", type=positive_int, default=2)
    p.add_argument("--epochs", type=int_at_least(0), default=8)
    p.set_defaults(func=cmd_depth_sweep)

    p = sub.add_parser("compare", parents=[run, digits],
                       help="train every architecture family/order under one configuration")
    p.add_argument("--orders", type=order, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--dense-orders", type=order, nargs="+", default=[2, 3, 4])
    p.add_argument("-L", "--depth", type=int_at_least(0), default=6)
    p.add_argument("--epochs", type=positive_int, default=8)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("param-count", help="parameter accounting of order-k blocks vs explicit first-order")
    p.add_argument("-k", "--order", type=positive_int, required=True)
    p.add_argument("-d", "--width", type=positive_int, required=True)
    p.add_argument("-L", "--depth", type=positive_int, default=None)
    p.set_defaults(func=cmd_param_count)

    p = sub.add_parser("fetch-mnist", help="download and cache the four standard IDX files")
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=cmd_fetch_mnist)
    for command in sub.choices.values():  # so a check after parsing prints the subcommand's usage
        command.set_defaults(parser=command)
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


def _training(args) -> dict:
    """The training settings depth-sweep and compare hand to their runners."""
    return {name: getattr(args, name) for name in ("width", "dl", "epochs", "batch_size", "learning_rate", "seed")}


def cmd_verify(args) -> int:
    hook = sign_flipped_dense_forcing if args.inject_fault == "dense-sign-flip" else None
    results = run_battery(orders=args.orders, widths=args.widths, depths=args.depths, seeds=args.seeds,
                          tolerance=args.tolerance, dense_forcing_matrix=hook)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<32} max deviation {r.max_deviation:.3e} (tolerance {r.tolerance:.1e})")
        if not r.passed:
            failed = True
            print(f"       failing case: {r.detail}")
    return EXIT_FAILURE if failed else EXIT_OK


def cmd_train_toy(args) -> int:
    result = experiments.run_toy_experiment(
        args.order,
        seeds=range(args.seed, args.seed + args.seeds),
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
    dataset, source = _load_subset(args)
    print(f"seed={args.seed} data={source}")
    result = experiments.run_depth_sweep(args.depths, dataset, repetitions=args.repetitions, **_training(args))
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
    trainset, heldout = split(dataset, 0.8, seed=args.seed)
    print(f"seed={args.seed} data={source}")
    rows = experiments.compare_orders(args.orders, args.dense_orders, trainset, heldout, depth=args.depth,
                                      **_training(args))
    print(f"{'arch':<8} {'k':>2} {'train_acc':>10} {'test_error':>11}")
    for row in rows:
        print(f"{row.arch:<8} {row.k:>2} {row.train_acc:>10.4f} {row.test_error:>11.4f}")
    for path in experiments.emit_compare_report(args.out, rows, seed=args.seed):
        print(f"wrote {path}")
    return EXIT_OK


def cmd_param_count(args) -> int:
    k, d, depth = args.order, args.width, args.depth
    try:  # every line is formatted before any is printed
        lines = [f"{d * d} vs {(k * d) * (k * d)} (ratio {float(weight_matrix_ratio(k, d))})"]
        if depth is not None:
            totals = parameter_count("ck", k, d, depth), parameter_count("first_order_equiv", k, d, depth)
            lines.append(f"totals over {depth} layers incl. biases: {totals[0]} vs {totals[1]}")
    except ValueError:  # Python prints no int of more than sys.get_int_max_str_digits() digits
        args.parser.error(f"the counts for -k/--order, -d/--width and -L/--depth have more than "
                          f"{sys.get_int_max_str_digits()} digits")
    print("\n".join(lines))
    return EXIT_OK


def cmd_fetch_mnist(args) -> int:
    for name, path in fetch_mnist(_resolve_data_dir(args)).items():
        print(f"{name} -> {path}")
    return EXIT_OK


def _reject_unusable(args) -> None:
    """A usage error, through the subcommand's parser, for what no single
    argument shows: a ``--dl`` whose power for the highest order the command
    builds (order 1 for depth-sweep) is not a finite float, fewer than 3
    distinct sweep depths, or fetch-mnist without a data directory."""
    if hasattr(args, "dl"):
        k = max([getattr(args, "order", 1), *getattr(args, "orders", ()), *getattr(args, "dense_orders", ())])
        try:
            check_mesh_step(args.dl, k)
        except ValueError as exc:
            args.parser.error(f"argument --dl: {exc}")
    if args.command == "depth-sweep" and len(set(args.depths)) < 3:
        args.parser.error(f"argument --depths: need at least 3 distinct depths, got {sorted(set(args.depths))}")
    if args.command == "fetch-mnist" and not _resolve_data_dir(args):
        args.parser.error("fetch-mnist requires --data-dir or CK_DATA_DIR")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _reject_unusable(args)
    try:
        return args.func(args)
    except (FileNotFoundError, IdxFormatError) as exc:  # a missing or corrupt data file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
