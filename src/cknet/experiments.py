"""The measurable studies: perturbation magnitudes and the 1/L mesh law,
the 1-D separability runs with phase-space capture, and the architecture
comparison harness. All runs are seeded end to end; artifact emitters
produce byte-identical output for identical inputs.
"""
from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .architectures import Network, NetworkConfig
from .data import Dataset, generate_toy_1d
from .svgplot import Series, plot
from .training import TrainConfig, evaluate, train

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
    "run_toy_experiment",
    "run_depth_sweep",
    "compare_orders",
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
    skipped: int  # samples excluded for a zero-norm activation or a non-finite norm

    def __post_init__(self):
        if not self.ratio >= 0:  # NaN too
            raise ValueError(f"perturbation ratio must be >= 0, got {self.ratio!r}")


def measure_perturbation(network: Network, inputs: np.ndarray) -> list[PerturbationRecord]:
    """Layer-wise residual perturbation ratios of an order-1 network: ck or
    dense at k=1, not the skipless c0 family, which has no residual to
    perturb and does not step by dl.

    A sample whose activation has zero norm, or whose activation or
    perturbation f(x)·dl has a non-finite norm (a NaN, or a forward pass
    that overflowed), is skipped at that layer and counted. A layer where
    every sample is skipped raises ``ValueError`` naming it; so does an empty
    probe batch.

    Each layer is reduced to its norms as ``Network.layers`` streams it:
    x_l is kept until the next record brings f_l(x_l), and no other layer
    of the trajectory is held.
    """
    family, k = network.config.family, network.config.k
    if family == "c0" or k != 1:
        raise ValueError(f"perturbation ratios are defined for residual (k=1) networks, got {family} with k={k}")
    if np.ndim(inputs) == 2 and not len(inputs):
        raise ValueError("cannot measure perturbation ratios on an empty probe batch")
    dl = network.config.dl
    records = []
    # an overflow is reported once, by layer, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        layers = network.layers(inputs, mode="direct")
        x = next(layers).x
        for layer, (x_next, f, _) in enumerate(layers):
            x_norm = np.linalg.norm(np.atleast_2d(x), axis=1)
            f_norm = np.linalg.norm(np.atleast_2d(f) * dl, axis=1)
            x = x_next
            finite = np.isfinite(x_norm) & np.isfinite(f_norm)
            keep = finite & (x_norm > 0.0)
            if not np.any(keep):
                raise ValueError(
                    f"all activations at layer {layer} have zero norm" if np.all(finite)
                    else f"activations or forcing at layer {layer} have non-finite norms (dl={dl})"
                )
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
    if not np.isfinite([depths, rhos]).all():
        raise ValueError(f"depths and mean perturbation ratios must be finite, got {pairs}")
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


# -- training one network -----------------------------------------------------


def _train_network(dataset: Dataset, family: str, k: int, depth: int, width: int, dl: float,
                   epochs: int, batch_size: int, learning_rate: float, seed: int):
    """A tanh network of the dataset's input and class counts, built and trained
    from one seed: every experiment's run. Returns it and its per-epoch metrics."""
    network = Network(
        NetworkConfig(family, k, depth, width, dataset.input_dim, dataset.num_classes, dl, "tanh", seed)
    )
    return network, train(network, dataset, TrainConfig(epochs, batch_size, learning_rate, seed=seed))


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


def _phase_dump(network: Network, dataset: Dataset) -> TrajectoryDump:
    """q1 and q2 of every layer, read off the streamed state records."""
    q1, q2 = [], []
    for record in network.layers(dataset.inputs, mode="state"):
        q1.append(record.state[0][:, 0])
        if network.config.k >= 2:
            q2.append(record.state[1][:, 0])
    q1 = np.array(q1)
    return TrajectoryDump(q1, np.array(q2) if q2 else np.zeros_like(q1), dataset.labels.copy())


def run_toy_experiment(
    k: int,
    seeds=(0, 1, 2, 3, 4),
    depth: int = 16,
    dl: float = 0.2,
    epochs: int = 2000,
    learning_rate: float = 0.002,
) -> ToyResult:
    """Train single-node order-k networks on the three-segment line.

    One run per seed (fresh data of 40 points a segment, init, and
    batching per seed); the phase-space dump comes from the best-accuracy
    run, and no seed at all raises ``ValueError``.

    The default mesh size and learning rate keep the order-1 dynamics in
    the perturbation regime: with a large step a single-node residual map
    can become non-monotone (fold the line) and exceed the 75% single-
    threshold ceiling, which is an artifact of leaving the regime the
    architecture is meant to approximate.
    """
    accuracies: dict[int, float] = {}
    best = None
    for seed in seeds:
        dataset = generate_toy_1d(40, seed=seed)
        network, metrics = _train_network(dataset, "ck", k, depth, 1, dl, epochs, len(dataset), learning_rate, seed)
        _, acc = evaluate(network, dataset.inputs, dataset.labels)
        accuracies[seed] = acc
        if best is None or acc > best[1]:
            best = (seed, acc, network, dataset, metrics)
    if best is None:
        raise ValueError("the toy experiment needs at least one seed")
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
) -> SweepResult:
    """Train residual networks per depth and fit the 1/L mesh-size law.

    Each depth is trained ``repetitions`` times from independent derived
    seeds; the reported ratio is the mean across runs, each probed on the
    first 1024 samples. A depth that is not an integer is a ``TypeError``.
    """
    depths = sorted(set(operator.index(L) for L in depths))
    if len(depths) < 3:
        raise ValueError(f"depth sweep needs at least 3 distinct depths, got {depths}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    probe = dataset.inputs[:1024]

    rhos = {depth: [] for depth in depths}
    for depth in depths:
        for rep in range(repetitions):
            point_seed = int(np.random.SeedSequence([seed, depth, rep]).generate_state(1)[0])
            network, _ = _train_network(
                dataset, "ck", 1, depth, width, dl, epochs, batch_size, learning_rate, point_seed
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
    """Train every requested architecture once, in the order first requested,
    under one shared configuration; an order that is not an integer is a
    ``TypeError`` before any training. The rows are in (arch, k) order."""
    entries = list(dict.fromkeys([("ck", operator.index(k)) for k in ck_orders]
                                 + [("dense", operator.index(k)) for k in dense_orders]))
    if not entries:
        raise ValueError("nothing to compare")
    if epochs < 1:
        raise ValueError(f"compare needs at least one epoch, got {epochs}")

    rows = []
    for family, k in entries:
        network, metrics = _train_network(
            dataset, family, k, depth, width, dl, epochs, batch_size, learning_rate, seed
        )
        _, heldout_acc = evaluate(network, heldout.inputs, heldout.labels)
        rows.append(CompareRow(family, k, metrics[-1].train_acc, 1.0 - heldout_acc))
    return sorted(rows, key=lambda r: (r.arch, r.k))


# -- artifact emission -------------------------------------------------------------


def _csv(header, rows, seed=None) -> str:
    """CSV text of a header and rows, after a ``# seed=`` line when a seed is given."""
    buf = io.StringIO()
    if seed is not None:
        buf.write(f"# seed={seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(out_dir, files) -> list[Path]:
    """Write each (file name, text) pair into ``out_dir``, made if missing, in
    order; the paths in that order. Every artifact is written here."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name, _ in files]
    for path, (_, text) in zip(paths, files):
        path.write_text(text)
    return paths


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
    """toy.csv, then per order its trajectory CSV, best-run metrics and phase SVG."""
    accuracies = [[s, res.k, repr(res.accuracies[s])] for res in results for s in sorted(res.accuracies)]
    files = [("toy.csv", _csv(["seed", "k", "accuracy"], accuracies, seed=seed))]
    for res in results:
        q1, q2, labels = res.dump.q1, res.dump.q2, res.dump.labels
        trajectory = [
            [layer, sample, repr(float(q1[layer, sample])), repr(float(q2[layer, sample])), int(labels[sample])]
            for layer in range(res.dump.layers)
            for sample in range(q1.shape[1])
        ]
        metrics = [[m.epoch, repr(m.train_loss), repr(m.train_acc)] for m in res.best_metrics]
        title = f"order {res.k}: best accuracy {res.best_accuracy:.3f}"
        files += [
            (f"trajectory_k{res.k}.csv", _csv(["layer", "sample_id", "q1", "q2", "label"], trajectory, seed=seed)),
            (f"metrics_k{res.k}.csv", _csv(["epoch", "train_loss", "train_acc"], metrics)),
            (f"phase_k{res.k}.svg", phase_plot_svg(res.dump, title, seed=seed)),
        ]
    return _emit(out_dir, files)


def emit_sweep_report(out_dir, result: SweepResult) -> list[Path]:
    """depth_sweep.csv plus measured-vs-fit plots of the mesh-size law, of the
    mean ratio and of its inverse."""
    fit = result.fit
    rows = [[L, repr(rho), repr(1.0 / rho)] for L, rho in result.points]
    files = [("depth_sweep.csv", _csv(["L", "mean_rho", "inv_rho"], rows, seed=result.seed))]
    line = [(L, fit.slope * L + fit.intercept) for L, _ in result.points]
    for name, title, ylabel, inverse in (
        ("rho_vs_depth.svg",
         f"mean perturbation ratio vs depth (d~{fit.d_estimate:.2f}, r2={fit.r_squared:.3f})",
         "mean rho", False),
        ("inv_rho_vs_depth.svg", "inverse ratio vs depth with least-squares fit", "1 / mean rho", True),
    ):
        measured = [(L, 1.0 / rho if inverse else rho) for L, rho in result.points]
        fitted = [(L, y if inverse else 1.0 / y) for L, y in line]
        series = [Series(measured, markers=True, line=False), Series(fitted, color="#d62728")]
        files.append((name, plot(series, title=title, xlabel="blocks L", ylabel=ylabel,
                                 comment=f"seed={result.seed}")))
    return _emit(out_dir, files)


def emit_compare_report(out_dir, rows, seed=None) -> list[Path]:
    """compare.csv: each architecture's held-out error."""
    body = [[r.arch, r.k, repr(r.test_error)] for r in rows]
    return _emit(out_dir, [("compare.csv", _csv(["arch", "k", "test_error"], body, seed=seed))])
