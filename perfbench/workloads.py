"""The four benchmark workloads, shaped like the experiments cknet ships.

Each workload sets up once (data, network construction, one warm-up round
on a small slice) and then runs identical rounds: every round starts from
the same seed-derived data and initial parameters, so round timings measure
the same work, and every round must reproduce round 0's losses, accuracies
and parameters bit for bit.

All randomness comes from the workload seed: data, initialisation and batch
order through seeds derived from it. ``verify.run_battery`` seeds its own
cases, so on verify-battery the seed sets the order of the per-order calls.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from calibration import timed
from cknet import architectures, data, experiments, training, verify

# The README contract: the direct and state forms of one network agree to this.
AGREEMENT_TOLERANCE = 1e-9
AGREEMENT_SAMPLES = 256


class Ledger:
    """Operations attempted and failed. A failed correctness check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str, operations: int = 1) -> None:
        self.attempted += operations
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class Round:
    """What one round did: raw times, and times scaled to the reference speed."""

    items: int = 0
    items_s: float = 0.0
    forward_samples: int = 0
    forward_s: float = 0.0
    wall_s: float = 0.0
    scaled: dict = field(default_factory=lambda: {"wall_s": 0.0, "items_s": 0.0, "forward_s": 0.0})
    digest: object = field(default_factory=hashlib.sha256)

    def run(self, unit, tracer, ledger) -> None:
        """Run one unit of the round, scaling its times by the speed measured around it."""
        items_s, forward_s = self.items_s, self.forward_s
        _, wall, scale = timed(unit, tracer, ledger, self)
        self.wall_s += wall
        self.scaled["wall_s"] += wall * scale
        self.scaled["items_s"] += (self.items_s - items_s) * scale
        self.scaled["forward_s"] += (self.forward_s - forward_s) * scale

    def absorb(self, *values) -> None:
        for v in values:
            self.digest.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())

    @property
    def fingerprint(self) -> str:
        return self.digest.hexdigest()


def derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def arch_name(config: architectures.NetworkConfig) -> str:
    return f"{config.family}{config.k}"


def head(dataset: data.Dataset, n: int) -> data.Dataset:
    return data.Dataset(dataset.inputs[:n], dataset.labels[:n], dataset.num_classes)


def with_nan(dataset: data.Dataset) -> data.Dataset:
    """A copy with one NaN input value, for the fault-injection self-test."""
    inputs = dataset.inputs.copy()
    inputs[0, 0] = np.nan
    return data.Dataset(inputs, dataset.labels, dataset.num_classes)


def train_checked(tracer, ledger, rnd, network, dataset, config) -> None:
    """One training run. A ``TrainingError`` or a non-finite epoch loss fails a step."""
    arch = arch_name(network.config)
    steps = config.epochs * -(-len(dataset) // config.batch_size)
    start = perf_counter()
    try:
        with tracer.span("training.train", arch):
            metrics = tracer.train(network, dataset, config, arch)
    except training.TrainingError as exc:
        ledger.record(False, f"{arch}: {exc}", steps)
        return
    rnd.items_s += perf_counter() - start
    rnd.items += len(dataset) * config.epochs
    losses = [m.train_loss for m in metrics]
    ledger.record(bool(np.all(np.isfinite(losses))), f"{arch}: non-finite loss {losses}", steps)
    rnd.absorb(*losses, *(m.train_acc for m in metrics), *(p.data for p in network.parameters()))


def evaluate_checked(tracer, ledger, rnd, network, heldout) -> None:
    """Forward-only evaluation in both forms, then the cross-form agreement check."""
    arch = arch_name(network.config)
    for mode in ("direct", "state"):
        start = perf_counter()
        with tracer.span(f"architectures.eval_{mode}", arch):
            loss, acc = training.evaluate(network, heldout.inputs, heldout.labels, mode=mode)
        rnd.forward_s += perf_counter() - start
        rnd.forward_samples += len(heldout)
        ledger.record(bool(np.isfinite(loss)), f"{arch}: {mode} eval loss {loss!r}")
        rnd.absorb(loss, acc)
    probe = heldout.inputs[:AGREEMENT_SAMPLES]
    gap = float(np.max(np.abs(network.forward(probe, mode="direct").data
                              - network.forward(probe, mode="state").data)))
    ledger.record(gap <= AGREEMENT_TOLERANCE, f"{arch}: direct and state logits differ by {gap!r}")


class Workload:
    """``setup`` builds the inputs; a round runs ``units()`` in order."""

    name = ""

    def __init__(self, seed: int, tiny: bool, inject_fault: bool):
        self.seed = seed
        self.tiny = tiny
        self.inject_fault = inject_fault

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def units(self) -> list:
        """The round's parts, each called as ``unit(tracer, ledger, rnd)``."""
        raise NotImplementedError

    def warm_up(self, tracer) -> None:
        """One untimed round, so lazy set-up in the process is done before timing."""
        for unit in self.units():
            unit(tracer, Ledger(), Round())

    def run_round(self, tracer, ledger) -> Round:
        rnd = Round()
        for unit in self.units():
            rnd.run(unit, tracer, ledger)
        return rnd


class _Surrogate(Workload):
    """Shared set-up of the 784-wide workloads: an 80/20 split of the surrogate."""

    samples = 10000
    warm_up_samples = 768

    def _make_data(self, tracer) -> None:
        with tracer.span("data.generate"):
            full = data.synthetic_digits(300 if self.tiny else self.samples,
                                         seed=derived_seed(self.seed, 0))
            self.train_set, self.heldout = data.split(full, 0.8, seed=derived_seed(self.seed, 1))
        if self.inject_fault:
            self.train_set = with_nan(self.train_set)

    def warm_up(self, tracer) -> None:
        """A round on small slices of the data."""
        full = self.train_set, self.heldout
        self.train_set = head(self.train_set, self.warm_up_samples)
        self.heldout = head(self.heldout, AGREEMENT_SAMPLES)
        try:
            super().warm_up(tracer)
        finally:
            self.train_set, self.heldout = full

    def _network_config(self, family: str, k: int, depth: int, width: int):
        return architectures.NetworkConfig(
            family=family, k=k, depth=depth, width=width,
            input_dim=self.train_set.input_dim, num_classes=self.train_set.num_classes,
            dl=0.5, activation="tanh", seed=derived_seed(self.seed, 2),
        )

    def _train_config(self):
        return training.TrainConfig(epochs=1, batch_size=128, learning_rate=1e-3,
                                    seed=derived_seed(self.seed, 3))


class WideK1(_Surrogate):
    name = "wide-k1"

    def config(self) -> dict:
        return {"family": "ck", "k": 1, "depth": 3 if self.tiny else 20,
                "width": 8 if self.tiny else 64, "dl": 0.5, "activation": "tanh",
                "samples": 300 if self.tiny else self.samples, "split": 0.8,
                "batch_size": 128, "learning_rate": 1e-3, "epochs_per_round": 1,
                "probe": 64 if self.tiny else 1024}

    def setup(self, tracer) -> None:
        cfg = self.config()
        self._make_data(tracer)
        self.probe_size = cfg["probe"]
        with tracer.span("architectures.build"):
            self.network_config = self._network_config("ck", 1, cfg["depth"], cfg["width"])
            architectures.Network(self.network_config)

    def units(self) -> list:
        return [self.train_evaluate_probe]

    def train_evaluate_probe(self, tracer, ledger, rnd) -> None:
        network = architectures.Network(self.network_config)
        train_checked(tracer, ledger, rnd, network, self.train_set, self._train_config())
        evaluate_checked(tracer, ledger, rnd, network, self.heldout)
        probe = self.train_set.inputs[: self.probe_size]
        start = perf_counter()
        with tracer.span("experiments.perturbation", "ck1"):
            records = experiments.measure_perturbation(network, probe)
        rnd.forward_s += perf_counter() - start
        rnd.forward_samples += len(probe)
        ratios = [r.ratio for r in records]
        ledger.record(len(ratios) == self.network_config.depth and bool(np.all(np.isfinite(ratios))),
                      f"ck1: perturbation ratios {ratios}")
        rnd.absorb(*ratios)


class MixedOrders(_Surrogate):
    name = "mixed-orders"
    families = [("ck", k) for k in (1, 2, 3, 4)] + [("dense", k) for k in (2, 3, 4)]

    def config(self) -> dict:
        return {"architectures": [f"{f}{k}" for f, k in self.families],
                "depth": 3 if self.tiny else 6, "width": 8 if self.tiny else 64, "dl": 0.5,
                "activation": "tanh", "samples": 300 if self.tiny else self.samples,
                "split": 0.8, "batch_size": 128, "learning_rate": 1e-3, "epochs_per_round": 1}

    def setup(self, tracer) -> None:
        cfg = self.config()
        self._make_data(tracer)
        with tracer.span("architectures.build"):
            self.network_configs = [self._network_config(f, k, cfg["depth"], cfg["width"])
                                    for f, k in self.families]
            for config in self.network_configs:
                architectures.Network(config)

    def units(self) -> list:
        return [partial(self.train_evaluate, config) for config in self.network_configs]

    def train_evaluate(self, config, tracer, ledger, rnd) -> None:
        network = architectures.Network(config)
        train_checked(tracer, ledger, rnd, network, self.train_set, self._train_config())
        evaluate_checked(tracer, ledger, rnd, network, self.heldout)


class NarrowK2(Workload):
    name = "narrow-k2"
    # Like the toy experiment, a round trains one network per run seed, each
    # on its own data. Training speed at width 1 depends on the values (it
    # varies by about 10% between seeds), so a round averages over several.
    runs = 5

    def config(self) -> dict:
        return {"family": "ck", "k": 2, "depth": 16, "width": 1, "dl": 0.2,
                "activation": "tanh", "runs_per_round": self.runs, "n_per_segment": 40,
                "batch_size": 160, "learning_rate": 2e-3,
                "epochs_per_run": 4 if self.tiny else 50,
                "heldout_n_per_segment": 64 if self.tiny else 1024}

    def setup(self, tracer) -> None:
        cfg = self.config()
        with tracer.span("data.generate"):
            self.train_sets = [data.generate_toy_1d(cfg["n_per_segment"], seed=derived_seed(self.seed, 0, j))
                               for j in range(self.runs)]
            self.heldouts = [data.generate_toy_1d(cfg["heldout_n_per_segment"],
                                                  seed=derived_seed(self.seed, 1, j))
                             for j in range(self.runs)]
        if self.inject_fault:
            self.train_sets[0] = with_nan(self.train_sets[0])
        with tracer.span("architectures.build"):
            self.network_configs = [architectures.NetworkConfig(
                family="ck", k=2, depth=cfg["depth"], width=1, input_dim=1, num_classes=2,
                dl=cfg["dl"], activation="tanh", seed=derived_seed(self.seed, 2, j),
            ) for j in range(self.runs)]
            for config in self.network_configs:
                architectures.Network(config)
        self.epochs = cfg["epochs_per_run"]

    def warm_up(self, tracer) -> None:
        """A round of two-epoch runs."""
        epochs, self.epochs = self.epochs, 2
        try:
            super().warm_up(tracer)
        finally:
            self.epochs = epochs

    def units(self) -> list:
        return [partial(self.train_evaluate, j) for j in range(self.runs)]

    def train_evaluate(self, j, tracer, ledger, rnd) -> None:
        network = architectures.Network(self.network_configs[j])
        config = training.TrainConfig(epochs=self.epochs, batch_size=len(self.train_sets[j]),
                                      learning_rate=2e-3, seed=derived_seed(self.seed, 3, j))
        train_checked(tracer, ledger, rnd, network, self.train_sets[j], config)
        evaluate_checked(tracer, ledger, rnd, network, self.heldouts[j])


class VerifyBattery(Workload):
    name = "verify-battery"

    def __init__(self, seed: int, tiny: bool, inject_fault: bool):
        super().__init__(seed, tiny, inject_fault)
        rng = np.random.default_rng(derived_seed(seed, 0))
        self.orders = tuple(int(k) for k in rng.permutation([1, 2, 3, 4]))

    def config(self) -> dict:
        return {"orders": list(self.orders), "widths": [1, 2] if self.tiny else [1, 2, 8],
                "depths": [3] if self.tiny else [3, 10], "seeds": 2 if self.tiny else 50,
                "tolerance": 1e-9}

    def setup(self, tracer) -> None:
        cfg = self.config()
        self.grid = {"widths": tuple(cfg["widths"]), "depths": tuple(cfg["depths"]),
                     "seeds": cfg["seeds"], "tolerance": cfg["tolerance"]}
        self.cases_per_order = len(cfg["widths"]) * len(cfg["depths"]) * cfg["seeds"]
        self.fault = verify.sign_flipped_dense_forcing if self.inject_fault else None

    def warm_up(self, tracer) -> None:
        """The smallest battery."""
        verify.run_battery(orders=(1,), widths=(1,), depths=(3,), seeds=1)

    def units(self) -> list:
        return [partial(self.battery, k) for k in self.orders]

    def battery(self, k, tracer, ledger, rnd) -> None:
        start = perf_counter()
        with tracer.span("verify.battery", f"k{k}"):
            results = verify.run_battery(orders=(k,), dense_forcing_matrix=self.fault, **self.grid)
        elapsed = perf_counter() - start
        rnd.items += self.cases_per_order
        rnd.items_s += elapsed
        rnd.forward_samples += self.cases_per_order
        rnd.forward_s += elapsed
        tracer.count("verify.cases", self.cases_per_order)
        for check in results:
            ledger.record(check.passed, f"k={k} {check.name}: max deviation "
                                        f"{check.max_deviation!r} {check.detail}")
            tracer.count("verify.failed_checks", int(not check.passed))
            rnd.absorb(check.name, check.max_deviation, check.passed)


WORKLOADS = {w.name: w for w in (WideK1, NarrowK2, MixedOrders, VerifyBattery)}
