import hashlib
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from cknet import experiments
from cknet.architectures import Network, NetworkConfig
from cknet.data import generate_toy_1d, split, synthetic_digits
from cknet.experiments import (
    PerturbationRecord,
    TrajectoryDump,
    compare_orders,
    fit_computational_distance,
    mean_perturbation,
    measure_perturbation,
    phase_plot_svg,
    run_depth_sweep,
    run_toy_experiment,
)
from cknet.svgplot import Series, plot
from cknet.training import TrainConfig
from helpers import best_threshold_accuracy, reference_perturbation, spearman


def _residual_net(depth=3, width=2, dl=1.0, seed=0, input_dim=2):
    return Network(
        NetworkConfig("ck", 1, depth, width, input_dim, num_classes=2, dl=dl, seed=seed)
    )


def hexed(records):
    return [(r.layer, r.ratio.hex(), r.skipped) for r in records]


class TestStreamedProbe:
    """The probe reduces ``Network.layers`` record by record, with the values
    of the reference that reduces the whole recorded ``Trace``."""

    @pytest.mark.parametrize("batch_shape", [(32, 3), (3,)], ids=["batch", "vector"])
    @pytest.mark.parametrize("dl", [0.5, 1.0, 0.01])
    def test_records_equal_the_trace_reference(self, batch_shape, dl):
        net = _residual_net(depth=7, width=5, input_dim=3, dl=dl, seed=11)
        batch = np.random.default_rng(11).standard_normal(batch_shape)
        assert hexed(measure_perturbation(net, batch)) == hexed(reference_perturbation(net, batch))

    def test_zero_and_nan_samples_match_the_reference(self):
        net = _residual_net(depth=5, width=4, input_dim=3, dl=0.5, seed=12)
        net.embed_bias.data = np.zeros(4)
        batch = np.random.default_rng(12).standard_normal((16, 3))
        batch[2] = 0.0  # x_0 of this sample has zero norm
        batch[5, 1] = np.nan
        records = measure_perturbation(net, batch)
        assert records[0].skipped == 2 and all(r.skipped >= 1 for r in records)
        assert hexed(records) == hexed(reference_perturbation(net, batch))

    @pytest.mark.parametrize("dl,nan_layer", [(1e308, None), (1.0, 0), (1.0, 3)])
    def test_errors_match_the_reference(self, dl, nan_layer):
        net = _residual_net(depth=5, width=3, dl=dl, seed=13)
        if nan_layer is not None:
            net.block_bias.data[nan_layer] = np.nan
        batch = np.random.default_rng(13).standard_normal((4, 2))
        with pytest.raises(ValueError) as expected:
            reference_perturbation(net, batch)
        with pytest.raises(ValueError) as streamed:
            measure_perturbation(net, batch)
        assert str(streamed.value) == str(expected.value)

    def test_all_zero_layer_error_matches_the_reference(self):
        net = _residual_net(depth=3, width=2, seed=14)
        batch = np.zeros((4, 2))
        net.embed_bias.data = np.zeros(2)
        with pytest.raises(ValueError, match="at layer 0 have zero norm") as streamed:
            measure_perturbation(net, batch)
        with pytest.raises(ValueError) as expected:
            reference_perturbation(net, batch)
        assert str(streamed.value) == str(expected.value)

    def test_empty_probe_batch_rejected_by_name(self):
        net = _residual_net(depth=3, width=2, seed=14)
        with pytest.raises(ValueError, match="^cannot measure perturbation ratios on an empty probe batch$"):
            measure_perturbation(net, np.zeros((0, 2)))

    def test_peak_memory_stays_within_a_few_layers(self):
        # depth 20, width 64, 1024 rows: one layer is 512 KiB, the trajectory 10.5 MiB
        net = _residual_net(depth=20, width=64, input_dim=16, dl=0.5, seed=15)
        batch = np.random.default_rng(15).standard_normal((1024, 16))
        layer_bytes = 1024 * 64 * 8
        tracemalloc.start()
        try:
            measure_perturbation(net, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * layer_bytes, f"probe peak {peak / 2**20:.2f} MiB"


class TestMeasurePerturbation:
    def test_zero_forcing_gives_zero_ratios(self):
        net = _residual_net(depth=4)
        net.block_weight.data = np.zeros_like(net.block_weight.data)
        net.block_bias.data = np.zeros_like(net.block_bias.data)
        records = measure_perturbation(net, np.ones((5, 2)))
        assert all(r.ratio == 0.0 for r in records)
        assert mean_perturbation(records) == 0.0

    def test_hand_computed_single_layer_ratio(self):
        # activation (3, 4) has norm 5; forcing output (0.3, 0.4) norm 0.5
        net = _residual_net(depth=1)
        net.embed_weight.data = np.eye(2)
        net.embed_bias.data = np.zeros(2)
        net.block_weight.data = np.zeros((1, 2, 2))
        net.block_bias.data = np.arctanh(np.array([[0.3, 0.4]]))
        records = measure_perturbation(net, np.array([[3.0, 4.0]]))
        assert records[0].ratio == pytest.approx(0.1, abs=1e-12)
        assert records[0].skipped == 0

    def test_rejects_higher_order_networks(self):
        net = Network(NetworkConfig("ck", 2, 2, 2, 2, 2))
        with pytest.raises(ValueError, match="k=2"):
            measure_perturbation(net, np.ones((2, 2)))

    def test_rejects_the_skipless_family(self):
        net = Network(NetworkConfig("c0", 1, 2, 2, 2, 2))
        with pytest.raises(ValueError, match=r"residual \(k=1\) networks, got c0 with k=1$"):
            measure_perturbation(net, np.ones((2, 2)))

    def test_measures_a_dense_order_one_network(self):
        # dense at k=1 is x_{l+1} = x_l + dl·f_l, the residual step of ck at k=1
        ck, dense = (Network(NetworkConfig(family, 1, 3, 2, 2, 2, dl=0.5, seed=1)) for family in ("ck", "dense"))
        batch = np.random.default_rng(1).standard_normal((4, 2))
        assert measure_perturbation(dense, batch) == measure_perturbation(ck, batch)

    @pytest.mark.parametrize("depth,dl,nan_layer", [(3, 1e308, None), (3, 1.0, 0), (3, 1.0, 2)])
    def test_non_finite_norms_name_their_layer_without_warnings(self, depth, dl, nan_layer, monkeypatch):
        net = _residual_net(depth=depth, width=3, dl=dl, seed=4)
        if nan_layer is not None:  # NaN forcing from this layer on
            net.block_bias.data[nan_layer] = np.nan
        batch = np.random.default_rng(0).standard_normal((4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"at layer {nan_layer or 0} have non-finite norms"):
                measure_perturbation(net, batch)

    @pytest.mark.parametrize("skipped_sample", [[0.0, 0.0], [np.nan, 1.0]], ids=["zero", "nan"])
    def test_unmeasurable_samples_are_skipped_and_counted(self, skipped_sample):
        net = _residual_net(depth=1)
        net.embed_weight.data = np.eye(2)
        net.embed_bias.data = np.zeros(2)
        batch = np.array([[3.0, 4.0], skipped_sample])
        records = measure_perturbation(net, batch)
        assert records[0].skipped == 1
        assert records[0].ratio == measure_perturbation(net, batch[:1])[0].ratio

    def test_batch_order_invariance(self):
        net = _residual_net(depth=3, width=4, input_dim=4, seed=7)
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((16, 4))
        forward = mean_perturbation(measure_perturbation(net, batch))
        backward = mean_perturbation(measure_perturbation(net, batch[::-1]))
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_negative_ratio_rejected_by_record(self):
        with pytest.raises(ValueError):
            PerturbationRecord(0, -0.1, 0)

    def test_nan_ratio_rejected_by_record(self):
        with pytest.raises(ValueError, match=r"^perturbation ratio must be >= 0, got nan$"):
            PerturbationRecord(0, math.nan, 0)

    def test_trained_network_perturbations_stay_below_one(self):
        from cknet.training import TrainConfig, train

        ds = synthetic_digits(500, seed=8)
        net = Network(
            NetworkConfig("ck", 1, depth=10, width=16, input_dim=784, num_classes=10, dl=0.5, seed=8)
        )
        train(net, ds, TrainConfig(epochs=2, batch_size=64, seed=8))
        records = measure_perturbation(net, ds.inputs[:256])
        assert all(r.ratio < 1.0 for r in records)


class TestRegressionFit:
    def test_exact_synthetic_law_recovered(self):
        pairs = [(L, 10.0 / L) for L in range(2, 21)]
        fit = fit_computational_distance(pairs)
        assert fit.d_estimate == pytest.approx(10.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert abs(fit.intercept) < 1e-10

    def test_constant_ratio_is_degenerate(self):
        with pytest.raises(ValueError, match="distance"):
            fit_computational_distance([(L, 0.5) for L in (2, 4, 6)])

    def test_requires_three_distinct_depths(self):
        with pytest.raises(ValueError, match="3 distinct"):
            fit_computational_distance([(2, 1.0), (2, 1.1), (4, 0.5)])

    def test_rejects_non_positive_ratios(self):
        with pytest.raises(ValueError, match="positive"):
            fit_computational_distance([(2, 1.0), (4, 0.0), (6, 0.5)])

    @pytest.mark.parametrize("pairs", [
        [(2, math.nan), (4, 0.5), (6, 0.3)],
        [(math.nan, 1.0), (4, 0.5), (6, 0.3)],
        [(2, math.inf), (4, 0.5), (6, 0.3)],
    ], ids=["nan-ratio", "nan-depth", "infinite-ratio"])
    def test_rejects_non_finite_depths_and_ratios(self, pairs):
        with pytest.raises(ValueError, match="^depths and mean perturbation ratios must be finite"):
            fit_computational_distance(pairs)

    def test_noisy_inverse_law_still_close(self):
        rng = np.random.default_rng(4)
        pairs = [(L, 7.0 / L * (1 + 0.01 * rng.standard_normal())) for L in range(2, 30, 3)]
        fit = fit_computational_distance(pairs)
        assert fit.d_estimate == pytest.approx(7.0, rel=0.05)
        assert fit.r_squared > 0.99


class TestSpearman:
    def test_monotone_relationships(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(xs, 1.0 / xs) == pytest.approx(-1.0)
        assert spearman(xs, xs**3) == pytest.approx(1.0)

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0])


class TestToyExperiment:
    def test_premise_best_threshold_is_exactly_75_percent(self):
        ds = generate_toy_1d(40, seed=0)
        assert best_threshold_accuracy(ds.inputs[:, 0], ds.labels) == 0.75

    def test_untrained_network_sits_near_chance(self):
        result = run_toy_experiment(2, seeds=(0, 1), epochs=0)
        for acc in result.accuracies.values():
            assert 0.2 <= acc <= 0.8

    def test_initial_velocity_is_exactly_zero(self):
        result = run_toy_experiment(2, seeds=(0,), epochs=0)
        assert np.all(result.dump.q2[0] == 0.0)

    def test_dump_shape_matches_depth(self):
        result = run_toy_experiment(1, seeds=(0,), depth=5, epochs=0)
        assert result.dump.layers == 6
        assert np.all(result.dump.q2 == 0.0)  # order 1 has no velocity state

    @pytest.mark.parametrize("seeds", [(), range(0), iter(())], ids=["tuple", "range", "iterator"])
    def test_no_seed_rejected_before_any_training(self, monkeypatch, seeds):
        def never(*args, **kwargs):
            raise AssertionError("trained with no seed")

        monkeypatch.setattr("cknet.experiments.train", never)
        with pytest.raises(ValueError, match="at least one seed"):
            run_toy_experiment(2, seeds=seeds)

    def test_empty_dump_rejected(self):
        with pytest.raises(ValueError, match="trajectory|inconsistent"):
            TrajectoryDump(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, dtype=int))


class TestDepthSweep:
    def test_small_sweep_produces_fit_and_decreasing_trend(self):
        ds = synthetic_digits(400, seed=1)
        result = run_depth_sweep([2, 5, 8], ds, epochs=2, batch_size=64, seed=1)
        assert len(result.points) == 3
        assert result.fit.d_estimate > 0
        assert result.points[0][1] > result.points[-1][1]

    def test_too_few_depths_rejected(self):
        ds = synthetic_digits(100, seed=2)
        with pytest.raises(ValueError, match="3 distinct"):
            run_depth_sweep([4, 4, 4], ds, epochs=1)


class TestCompare:
    def test_rows_cover_requested_architectures(self):
        ds = synthetic_digits(300, seed=4)
        from cknet.data import split

        trainset, heldout = split(ds, 0.8, seed=0)
        rows = compare_orders([1, 2], [2], trainset, heldout, depth=2, width=8, epochs=1, seed=0)
        assert [(r.arch, r.k) for r in rows] == [("ck", 1), ("ck", 2), ("dense", 2)]
        assert all(np.isfinite(r.train_acc) and np.isfinite(r.test_error) for r in rows)

    def test_identical_seed_gives_identical_rows(self):
        ds = synthetic_digits(200, seed=5)
        from cknet.data import split

        trainset, heldout = split(ds, 0.75, seed=1)
        a = compare_orders([2], [], trainset, heldout, depth=2, width=8, epochs=1, seed=3)
        b = compare_orders([2], [], trainset, heldout, depth=2, width=8, epochs=1, seed=3)
        assert a == b

    def test_repeated_orders_train_each_architecture_once(self, monkeypatch):
        ds = synthetic_digits(200, seed=7)
        trained, train_network = [], experiments._train_network

        def counting(dataset, family, k, *args):
            trained.append((family, k))
            return train_network(dataset, family, k, *args)

        monkeypatch.setattr(experiments, "_train_network", counting)
        rows = compare_orders([2, 2, 1], [3, 3], ds, ds, depth=1, width=2, epochs=1)
        assert trained == [("ck", 2), ("ck", 1), ("dense", 3)]
        assert rows == compare_orders([1, 2], [3], ds, ds, depth=1, width=2, epochs=1)

    def test_nothing_to_compare_rejected(self):
        ds = synthetic_digits(100, seed=6)
        with pytest.raises(ValueError):
            compare_orders([], [], ds, ds)

    def test_zero_epochs_rejected(self):
        ds = synthetic_digits(100, seed=6)
        with pytest.raises(ValueError, match="at least one epoch, got 0"):
            compare_orders([1], [], ds, ds, depth=1, width=4, epochs=0)


class TestExperimentConfigs:
    """The network and training configuration of every run an experiment
    trains, in training order, recorded on the way into the real ``train``."""

    @pytest.fixture
    def runs(self, monkeypatch):
        recorded, real = [], experiments.train

        def recording(network, dataset, config):
            recorded.append((network.config, config))
            return real(network, dataset, config)

        monkeypatch.setattr(experiments, "train", recording)
        return recorded

    def test_toy(self, runs):
        run_toy_experiment(3, seeds=(4, 1), depth=5, dl=0.3, epochs=2, learning_rate=0.01)
        assert runs == [
            (NetworkConfig(family="ck", k=3, depth=5, width=1, input_dim=1, num_classes=2,
                           dl=0.3, activation="tanh", seed=seed),
             TrainConfig(epochs=2, batch_size=160, learning_rate=0.01, seed=seed))
            for seed in (4, 1)
        ]

    def test_depth_sweep(self, runs):
        ds = synthetic_digits(60, seed=2)
        run_depth_sweep([6, 2, 4, 2], ds, repetitions=2, width=4, dl=0.25, epochs=1,
                        batch_size=16, learning_rate=0.01, seed=7)
        # each run's seed is SeedSequence([7, depth, repetition]).generate_state(1)[0]
        seeds = {(2, 0): 1009178997, (2, 1): 1060258595, (4, 0): 3335713882,
                 (4, 1): 3210196619, (6, 0): 924414274, (6, 1): 3434892207}
        assert runs == [
            (NetworkConfig(family="ck", k=1, depth=depth, width=4, input_dim=784, num_classes=10,
                           dl=0.25, activation="tanh", seed=seeds[depth, rep]),
             TrainConfig(epochs=1, batch_size=16, learning_rate=0.01, seed=seeds[depth, rep]))
            for depth in (2, 4, 6) for rep in (0, 1)
        ]

    def test_compare(self, runs):
        trainset, heldout = split(synthetic_digits(60, seed=3), 0.75, seed=0)
        compare_orders([2, 1], [3], trainset, heldout, depth=2, width=3, dl=0.25, epochs=1,
                       batch_size=16, learning_rate=0.01, seed=5)
        assert runs == [
            (NetworkConfig(family=family, k=k, depth=2, width=3, input_dim=784, num_classes=10,
                           dl=0.25, activation="tanh", seed=5),
             TrainConfig(epochs=1, batch_size=16, learning_rate=0.01, seed=5))
            for family, k in [("ck", 2), ("ck", 1), ("dense", 3)]
        ]


class TestIntegerArguments:
    """An order or depth that is not an integer is refused before any network
    is built, not truncated."""

    @pytest.fixture(autouse=True)
    def no_network(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("built a network")

        monkeypatch.setattr(experiments, "Network", never)

    @pytest.mark.parametrize("ck_orders,dense_orders", [([1.7], []), ([1], [2.0]), ([2], ["3"])])
    def test_compare_orders(self, ck_orders, dense_orders):
        ds = synthetic_digits(20, seed=6)
        with pytest.raises(TypeError, match="integer"):
            compare_orders(ck_orders, dense_orders, ds, ds, depth=1, width=2, epochs=1)

    @pytest.mark.parametrize("depths", [[2, 4.9, 6], [2.0, 4, 6], [2, 4, "8"]])
    def test_depth_sweep(self, depths):
        ds = synthetic_digits(20, seed=6)
        with pytest.raises(TypeError, match="integer"):
            run_depth_sweep(depths, ds, width=2, epochs=1)


class TestSvg:
    def test_two_point_line_plot_has_one_polyline_two_pairs(self):
        svg = plot([Series([(0.0, 1.0), (2.0, 3.0)])])
        assert svg.count("<polyline") == 1
        points_attr = svg.split('polyline points="')[1].split('"')[0]
        assert len(points_attr.split(" ")) == 2

    def test_rerun_is_byte_identical(self):
        series = [Series([(0.0, 1.0), (1.0, 0.5), (2.0, 2.5)], markers=True)]
        a = plot(series, title="t", xlabel="x", ylabel="y", comment="seed=3")
        b = plot(series, title="t", xlabel="x", ylabel="y", comment="seed=3")
        assert a == b

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            plot([])
        with pytest.raises(ValueError):
            plot([Series([])])

    def test_phase_plot_one_polyline_per_sample(self):
        dump = TrajectoryDump(
            q1=np.array([[0.0, 1.0], [0.5, 1.5], [1.0, 2.0]]),
            q2=np.array([[0.0, 0.0], [0.3, -0.2], [0.6, -0.4]]),
            labels=np.array([0, 1]),
        )
        svg = phase_plot_svg(dump, title="phase")
        assert svg.count("<polyline") == 2


class TestCsvWriters:
    def test_depth_sweep_schema(self, tmp_path):
        from cknet.experiments import RegressionFit, SweepResult

        result = SweepResult([(2, 0.5), (4, 0.25)], RegressionFit(0.5, 0.0, 1.0, 2.0), seed=7)
        experiments.emit_sweep_report(tmp_path, result)
        lines = (tmp_path / "depth_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "# seed=7"
        assert lines[1] == "L,mean_rho,inv_rho"
        assert lines[2] == "2,0.5,2.0"

    def test_trajectory_schema_and_determinism(self, tmp_path):
        from cknet.experiments import ToyResult

        dump = TrajectoryDump(
            q1=np.array([[0.25, 1.0]]),
            q2=np.array([[0.0, -1.5]]),
            labels=np.array([1, 0]),
        )
        result = ToyResult(2, {1: 0.5}, 1, 0.5, dump, [])
        a, b = (experiments.emit_toy_report(tmp_path / name, [result], seed=1)[1] for name in "ab")
        assert a.name == b.name == "trajectory_k2.csv"
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[1] == "layer,sample_id,q1,q2,label"
        assert lines[2] == "0,0,0.25,0.0,1"


class TestEmittedBytes:
    """Every file the three emitters write, from hand-built results, pinned
    by sha256; the returned paths are the files in the order they were written."""

    TOY = {
        "toy.csv": "754f0af9f46cf5c46c1eaef512d90715be43fbca96107c902d1a6bf92ff4fde1",
        "trajectory_k1.csv": "fd2069c2df5f6348c8e3a8d3482aac4d95d8e565aaf5697572ddb132c5486a9c",
        "metrics_k1.csv": "d00882f4712a6946ef0fb2c85c4229bd057be703a37438a35c3973a3027e8b85",
        "phase_k1.svg": "f78a0802499469f97da11437b8f6a218ce7fdbc64198fa47544617e980975ff4",
        "trajectory_k2.csv": "3bbe46e112f0fb72da73501ef886d919017ad9176d195132b0fb66817007bd6a",
        "metrics_k2.csv": "86a4eb2a75aa9e5075872ee5b17a5a563a6ca966879839ebca696f29959834d1",
        "phase_k2.svg": "6feb975697e47601f6620e99cb1439d92dbd114f6e473e6c0175bee19debe359",
    }
    SWEEP = {
        "depth_sweep.csv": "ec77ec2140e402b62e32b130da782986e05dd69fb0bbeaa39c2d86f0ab7380c1",
        "rho_vs_depth.svg": "af7e7cafb85fd44cf65cfc9c540921f3078be08812554be7ed7fa0d57d74f3cb",
        "inv_rho_vs_depth.svg": "5c8722ea0362e765f78ad599510a0c898e11694079db1623c1fa4213aeb77ede",
    }
    COMPARE = {"compare.csv": "c2058cb5a9614160964365b8715eb27cd3682c3e568e11fba0e8b19ee2b7ebdd"}

    @pytest.fixture
    def written(self, monkeypatch):
        order, real = [], pathlib.Path.write_text

        def recording(path, *args, **kwargs):
            order.append(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", recording)
        return order

    @staticmethod
    def toy_results():
        from cknet.experiments import ToyResult
        from cknet.training import EpochMetrics

        q1 = np.array([[-2.0, 0.5, 1.75], [-1.9, 0.7, 1.6], [-1.7, 1.1, 1.3]])
        return [
            ToyResult(1, {0: 0.75, 3: 0.7}, 0, 0.75,
                      TrajectoryDump(q1, np.zeros_like(q1), np.array([0, 1, 0])),
                      [EpochMetrics(0, 0.6931471805599453, 0.5), EpochMetrics(1, 0.6, 0.75)]),
            ToyResult(2, {0: 0.9, 3: 1.0}, 3, 1.0,
                      TrajectoryDump(q1 * 1.1, np.array([[0.0, 0.0, 0.0], [0.1, 0.2, -0.15],
                                                         [0.2, 0.4, -0.3]]), np.array([0, 1, 0])),
                      [EpochMetrics(0, 0.7, 0.5), EpochMetrics(1, 0.1 + 0.2, 1.0)]),
        ]

    def check(self, out_dir, paths, written, pinned):
        assert paths == [out_dir / name for name in pinned]
        assert written == paths
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        assert digests == pinned

    def test_toy(self, tmp_path, written):
        out = tmp_path / "toy"
        self.check(out, experiments.emit_toy_report(out, self.toy_results(), seed=3), written, self.TOY)

    def test_sweep(self, tmp_path, written):
        from cknet.experiments import RegressionFit, SweepResult

        result = SweepResult([(2, 0.5), (4, 0.3), (8, 0.2)], RegressionFit(0.3, 1.3, 0.97, 1.0 / 0.3), seed=7)
        out = tmp_path / "sweep"
        self.check(out, experiments.emit_sweep_report(out, result), written, self.SWEEP)

    def test_compare(self, tmp_path, written):
        from cknet.experiments import CompareRow

        rows = [CompareRow("ck", 2, 0.9, 0.15), CompareRow("dense", 3, 0.875, 0.1 + 0.2)]
        out = tmp_path / "compare"
        self.check(out, experiments.emit_compare_report(out, rows, seed=5), written, self.COMPARE)
