"""The measurable studies: perturbation magnitudes and the 1/L mesh law,
the 1-D separability runs with phase-space capture, and the architecture
comparison harness. All runs are seeded end to end; artifact emitters
produce byte-identical output for identical inputs.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .architectures import Network, NetworkConfig
from .data import Dataset, generate_toy_1d
from .svgplot import Series, plot
from .training import TrainConfig, evaluate, metrics_to_csv, train

__all__ = [
    "PerturbationRecord",
    "RegressionFit",
    "TrajectoryDump",
    "ToyResult",
    "SweepResult",
    "CompareRow",
    "measure_perturbation",
    "mean_perturbation",
    "fit_computational_distance",
    "spearman",
    "run_toy_experiment",
    "run_depth_sweep",
    "compare_orders",
    "write_depth_sweep_csv",
    "write_toy_csv",
    "write_trajectory_csv",
    "write_compare_csv",
    "emit_toy_report",
    "emit_sweep_report",
    "emit_compare_report",
]

_CLASS_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


# -- perturbation magnitudes -------------------------------------------------


@dataclass(frozen=True)
class PerturbationRecord:
    """Per-layer mean of ||f(x) * dl|| / ||x|| over a probe batch."""

    layer: int
    ratio: float
    skipped: int  # samples excluded for a zero-norm activation

    def __post_init__(self):
        if self.ratio < 0:
            raise ValueError("perturbation ratio cannot be negative")


def measure_perturbation(network: Network, inputs: np.ndarray) -> list[PerturbationRecord]:
    """Layer-wise residual perturbation ratios of an order-1 network."""
    if network.config.k != 1:
        raise ValueError(
            f"perturbation ratios are defined for residual (k=1) networks, got k={network.config.k}"
        )
    _, trace = network.forward(inputs, mode="direct", record=True)
    dl = network.config.dl
    records = []
    for layer in range(len(trace.forcing)):
        x = np.atleast_2d(trace.activations[layer])
        f = np.atleast_2d(trace.forcing[layer])
        x_norm = np.linalg.norm(x, axis=1)
        f_norm = np.linalg.norm(f * dl, axis=1)
        keep = x_norm > 0.0
        if not np.any(keep):
            raise ValueError(f"all activations at layer {layer} have zero norm")
        ratio = float((f_norm[keep] / x_norm[keep]).mean())
        records.append(PerturbationRecord(layer, ratio, int((~keep).sum())))
    return records


def mean_perturbation(records) -> float:
    """Section-level mean ratio across layers."""
    if not records:
        raise ValueError("no perturbation records")
    return float(np.mean([r.ratio for r in records]))


# -- computational-distance regression ----------------------------------------


@dataclass(frozen=True)
class RegressionFit:
    """OLS of inverse mean ratio against depth; slope > 0 is required for a
    finite distance estimate (d = 1/slope)."""

    slope: float
    intercept: float
    r_squared: float
    d_estimate: float


def fit_computational_distance(pairs) -> RegressionFit:
    """Fit 1/rho against L for (L, mean rho) pairs from a depth sweep."""
    pairs = list(pairs)
    depths = np.array([float(p[0]) for p in pairs])
    rhos = np.array([float(p[1]) for p in pairs])
    if len(set(depths.tolist())) < 3:
        raise ValueError(f"need at least 3 distinct depths, got {sorted(set(depths.tolist()))}")
    if np.any(rhos <= 0):
        raise ValueError("mean perturbation ratios must be positive")
    y = 1.0 / rhos
    x_mean, y_mean = depths.mean(), y.mean()
    sxx = float(((depths - x_mean) ** 2).sum())
    sxy = float(((depths - x_mean) * (y - y_mean)).sum())
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = y - (slope * depths + intercept)
    ss_tot = float(((y - y_mean) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float((residuals**2).sum()) / ss_tot
    if slope <= 0:
        raise ValueError(
            f"inverse ratio does not grow with depth (slope={slope!r}); "
            "no finite computational distance"
        )
    return RegressionFit(slope, intercept, r_squared, 1.0 / slope)


def spearman(xs, ys) -> float:
    """Spearman rank correlation (Pearson correlation of the rank vectors)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("spearman needs two equal-length 1-D samples")
    rank = lambda v: np.argsort(np.argsort(v)).astype(np.float64)
    rx, ry = rank(xs), rank(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx**2).sum() * (ry**2).sum())
    return float((rx * ry).sum() / denom)


# -- 1-D separability ----------------------------------------------------------


@dataclass
class TrajectoryDump:
    """Phase-space capture: position and velocity per layer per sample."""

    q1: np.ndarray  # [layers, samples]
    q2: np.ndarray  # [layers, samples]; zeros for order-1 runs
    labels: np.ndarray

    def __post_init__(self):
        if self.q1.size == 0:
            raise ValueError("empty trajectory")
        if self.q1.shape != self.q2.shape or self.q1.shape[1] != len(self.labels):
            raise ValueError("trajectory arrays are inconsistent")

    @property
    def layers(self) -> int:
        return self.q1.shape[0]


@dataclass
class ToyResult:
    k: int
    accuracies: dict[int, float]  # seed -> train accuracy
    best_seed: int
    best_accuracy: float
    dump: TrajectoryDump
    best_metrics: list  # per-epoch metrics of the best run


def _toy_network(k: int, depth: int, dl: float, seed: int) -> Network:
    return Network(
        NetworkConfig(
            family="ck",
            k=k,
            depth=depth,
            width=1,
            input_dim=1,
            num_classes=2,
            dl=dl,
            activation="tanh",
            seed=seed,
        )
    )


def _phase_dump(network: Network, dataset: Dataset) -> TrajectoryDump:
    _, trace = network.forward(dataset.inputs, mode="state", record=True)
    q1 = trace.states[:, 0, :, 0]
    q2 = trace.states[:, 1, :, 0] if network.config.k >= 2 else np.zeros_like(q1)
    return TrajectoryDump(q1, q2, dataset.labels.copy())


def run_toy_experiment(
    k: int,
    seeds=(0, 1, 2, 3, 4),
    depth: int = 16,
    dl: float = 0.2,
    epochs: int = 2000,
    learning_rate: float = 0.002,
    n_per_segment: int = 40,
) -> ToyResult:
    """Train single-node order-k networks on the three-segment line.

    One run per seed (fresh data, init, and batching per seed); the
    phase-space dump comes from the best-accuracy run.

    The default mesh size and learning rate keep the order-1 dynamics in
    the perturbation regime: with a large step a single-node residual map
    can become non-monotone (fold the line) and exceed the 75% single-
    threshold ceiling, which is an artifact of leaving the regime the
    architecture is meant to approximate.
    """
    accuracies: dict[int, float] = {}
    best = None
    for seed in seeds:
        dataset = generate_toy_1d(n_per_segment, seed=seed)
        network = _toy_network(k, depth, dl, seed)
        config = TrainConfig(
            epochs=epochs,
            batch_size=len(dataset),
            learning_rate=learning_rate,
            seed=seed,
        )
        metrics = train(network, dataset, config)
        _, acc = evaluate(network, dataset.inputs, dataset.labels)
        accuracies[seed] = acc
        if best is None or acc > best[1]:
            best = (seed, acc, network, dataset, metrics)
    best_seed, best_acc, best_net, best_data, best_metrics = best
    return ToyResult(
        k, accuracies, best_seed, best_acc, _phase_dump(best_net, best_data), best_metrics
    )


# -- depth sweep ----------------------------------------------------------------


@dataclass
class SweepResult:
    points: list[tuple[int, float]]  # (depth, mean rho), sorted by depth
    fit: RegressionFit
    seed: int


def _train_residual(dataset: Dataset, depth: int, width: int, dl: float, epochs: int,
                    batch_size: int, learning_rate: float, seed: int) -> Network:
    network = Network(
        NetworkConfig(
            family="ck",
            k=1,
            depth=depth,
            width=width,
            input_dim=dataset.input_dim,
            num_classes=dataset.num_classes,
            dl=dl,
            activation="tanh",
            seed=seed,
        )
    )
    train(network, dataset, TrainConfig(epochs, batch_size, learning_rate, seed=seed))
    return network


def run_depth_sweep(
    depths,
    dataset: Dataset,
    repetitions: int = 1,
    width: int = 64,
    dl: float = 0.5,
    epochs: int = 8,
    batch_size: int = 128,
    learning_rate: float = 1e-3,
    seed: int = 0,
    probe_size: int = 1024,
) -> SweepResult:
    """Train residual networks per depth and fit the 1/L mesh-size law.

    Each depth is trained ``repetitions`` times from independent derived
    seeds; the reported ratio is the mean across runs.
    """
    depths = sorted(set(int(L) for L in depths))
    if len(depths) < 3:
        raise ValueError(f"depth sweep needs at least 3 distinct depths, got {depths}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    probe = dataset.inputs[: min(probe_size, len(dataset))]

    rhos = {depth: [] for depth in depths}
    for depth in depths:
        for rep in range(repetitions):
            point_seed = int(np.random.SeedSequence([seed, depth, rep]).generate_state(1)[0])
            network = _train_residual(
                dataset, depth, width, dl, epochs, batch_size, learning_rate, point_seed
            )
            rhos[depth].append(mean_perturbation(measure_perturbation(network, probe)))
    points = [(depth, float(np.mean(rhos[depth]))) for depth in depths]
    return SweepResult(points, fit_computational_distance(points), seed)


# -- architecture comparison ------------------------------------------------------


@dataclass(frozen=True)
class CompareRow:
    arch: str  # "ck" or "dense"
    k: int
    train_acc: float
    test_error: float


def compare_orders(
    ck_orders,
    dense_orders,
    dataset: Dataset,
    heldout: Dataset,
    depth: int = 6,
    width: int = 64,
    dl: float = 0.5,
    epochs: int = 8,
    batch_size: int = 128,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> list[CompareRow]:
    """Train every requested architecture under one shared configuration."""
    entries = [("ck", int(k)) for k in ck_orders] + [("dense", int(k)) for k in dense_orders]
    if not entries:
        raise ValueError("nothing to compare")
    if epochs < 1:
        raise ValueError(f"compare needs at least one epoch, got {epochs}")

    rows = []
    for family, k in entries:
        network = Network(
            NetworkConfig(
                family=family,
                k=k,
                depth=depth,
                width=width,
                input_dim=dataset.input_dim,
                num_classes=dataset.num_classes,
                dl=dl,
                activation="tanh",
                seed=seed,
            )
        )
        metrics = train(network, dataset, TrainConfig(epochs, batch_size, learning_rate, seed=seed))
        _, heldout_acc = evaluate(network, heldout.inputs, heldout.labels)
        rows.append(CompareRow(family, k, metrics[-1].train_acc, 1.0 - heldout_acc))
    return sorted(rows, key=lambda r: (r.arch, r.k))


# -- artifact emission -------------------------------------------------------------


def _write_csv(path, header, rows, seed=None) -> None:
    buf = io.StringIO()
    if seed is not None:
        buf.write(f"# seed={seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue())


def write_depth_sweep_csv(path, result: SweepResult) -> None:
    rows = [[L, repr(rho), repr(1.0 / rho)] for L, rho in result.points]
    _write_csv(path, ["L", "mean_rho", "inv_rho"], rows, seed=result.seed)


def write_toy_csv(path, results, seed=None) -> None:
    rows = [
        [s, res.k, repr(res.accuracies[s])]
        for res in results
        for s in sorted(res.accuracies)
    ]
    _write_csv(path, ["seed", "k", "accuracy"], rows, seed=seed)


def write_trajectory_csv(path, dump: TrajectoryDump, seed=None) -> None:
    rows = [
        [layer, sample, repr(float(dump.q1[layer, sample])), repr(float(dump.q2[layer, sample])), int(dump.labels[sample])]
        for layer in range(dump.layers)
        for sample in range(dump.q1.shape[1])
    ]
    _write_csv(path, ["layer", "sample_id", "q1", "q2", "label"], rows, seed=seed)


def write_compare_csv(path, rows, seed=None) -> None:
    body = [[r.arch, r.k, repr(r.test_error)] for r in rows]
    _write_csv(path, ["arch", "k", "test_error"], body, seed=seed)


def phase_plot_svg(dump: TrajectoryDump, title: str, seed=None) -> str:
    """One polyline per sample through (position, velocity) space."""
    series = []
    for sample in range(dump.q1.shape[1]):
        color = _CLASS_COLORS[int(dump.labels[sample]) % len(_CLASS_COLORS)]
        points = [(float(dump.q1[l, sample]), float(dump.q2[l, sample])) for l in range(dump.layers)]
        series.append(Series(points, color=color, opacity=0.45))
    comment = "" if seed is None else f"seed={seed}"
    return plot(series, title=title, xlabel="position q1", ylabel="velocity q2", comment=comment)


def emit_toy_report(out_dir, results, seed=None) -> list[Path]:
    """toy.csv, per-order trajectory CSVs, best-run metrics, phase SVGs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / "toy.csv"]
    write_toy_csv(written[0], results, seed=seed)
    for res in results:
        traj = out_dir / f"trajectory_k{res.k}.csv"
        write_trajectory_csv(traj, res.dump, seed=seed)
        metrics = out_dir / f"metrics_k{res.k}.csv"
        metrics.write_text(metrics_to_csv(res.best_metrics))
        svg = out_dir / f"phase_k{res.k}.svg"
        title = f"order {res.k}: best accuracy {res.best_accuracy:.3f}"
        svg.write_text(phase_plot_svg(res.dump, title, seed=seed))
        written.extend([traj, metrics, svg])
    return written


def emit_sweep_report(out_dir, result: SweepResult) -> list[Path]:
    """depth_sweep.csv plus measured-vs-fit plots of the mesh-size law."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "depth_sweep.csv"
    write_depth_sweep_csv(csv_path, result)
    measured = Series([(L, rho) for L, rho in result.points], markers=True, line=False)
    fit_curve = Series(
        [
            (L, 1.0 / (result.fit.slope * L + result.fit.intercept))
            for L, _ in result.points
        ],
        color="#d62728",
    )
    svg_path = out_dir / "rho_vs_depth.svg"
    svg_path.write_text(
        plot(
            [measured, fit_curve],
            title=f"mean perturbation ratio vs depth (d~{result.fit.d_estimate:.2f}, r2={result.fit.r_squared:.3f})",
            xlabel="blocks L",
            ylabel="mean rho",
            comment=f"seed={result.seed}",
        )
    )
    inv = Series([(L, 1.0 / rho) for L, rho in result.points], markers=True, line=False)
    inv_fit = Series(
        [(L, result.fit.slope * L + result.fit.intercept) for L, _ in result.points],
        color="#d62728",
    )
    inv_path = out_dir / "inv_rho_vs_depth.svg"
    inv_path.write_text(
        plot(
            [inv, inv_fit],
            title="inverse ratio vs depth with least-squares fit",
            xlabel="blocks L",
            ylabel="1 / mean rho",
            comment=f"seed={result.seed}",
        )
    )
    return [csv_path, svg_path, inv_path]


def emit_compare_report(out_dir, rows, seed=None) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "compare.csv"
    write_compare_csv(path, rows, seed=seed)
    return [path]
