import numpy as np
import pytest

from cknet.architectures import Network, NetworkConfig
from cknet.data import best_threshold_accuracy, generate_toy_1d, synthetic_digits
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
    spearman,
    write_depth_sweep_csv,
    write_trajectory_csv,
)
from cknet.svgplot import Series, plot


def _residual_net(depth=3, width=2, dl=1.0, seed=0, input_dim=2):
    return Network(
        NetworkConfig("ck", 1, depth, width, input_dim, num_classes=2, dl=dl, seed=seed)
    )


class TestMeasurePerturbation:
    def test_zero_forcing_gives_zero_ratios(self):
        net = _residual_net(depth=4)
        for block in net.blocks:
            block.weight.data = np.zeros_like(block.weight.data)
            block.bias.data = np.zeros_like(block.bias.data)
        records = measure_perturbation(net, np.ones((5, 2)))
        assert all(r.ratio == 0.0 for r in records)
        assert mean_perturbation(records) == 0.0

    def test_hand_computed_single_layer_ratio(self):
        # activation (3, 4) has norm 5; forcing output (0.3, 0.4) norm 0.5
        net = _residual_net(depth=1)
        net.embed_weight.data = np.eye(2)
        net.embed_bias.data = np.zeros(2)
        block = net.blocks[0]
        block.weight.data = np.zeros((2, 2))
        block.bias.data = np.arctanh(np.array([0.3, 0.4]))
        records = measure_perturbation(net, np.array([[3.0, 4.0]]))
        assert records[0].ratio == pytest.approx(0.1, abs=1e-12)
        assert records[0].skipped == 0

    def test_rejects_higher_order_networks(self):
        net = Network(NetworkConfig("ck", 2, 2, 2, 2, 2))
        with pytest.raises(ValueError, match="k=2"):
            measure_perturbation(net, np.ones((2, 2)))

    def test_zero_norm_samples_are_skipped_and_counted(self):
        net = _residual_net(depth=1)
        net.embed_weight.data = np.eye(2)
        net.embed_bias.data = np.zeros(2)
        batch = np.array([[3.0, 4.0], [0.0, 0.0]])
        records = measure_perturbation(net, batch)
        assert records[0].skipped == 1

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

    def test_empty_dump_rejected(self):
        with pytest.raises(ValueError, match="trajectory|inconsistent"):
            TrajectoryDump(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, dtype=int))


class TestDepthSweep:
    def test_small_sweep_produces_fit_and_decreasing_trend(self):
        ds = synthetic_digits(400, seed=1)
        result = run_depth_sweep([2, 5, 8], ds, epochs=2, batch_size=64, seed=1, probe_size=128)
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

    def test_nothing_to_compare_rejected(self):
        ds = synthetic_digits(100, seed=6)
        with pytest.raises(ValueError):
            compare_orders([], [], ds, ds)

    def test_zero_epochs_rejected(self):
        ds = synthetic_digits(100, seed=6)
        with pytest.raises(ValueError, match="at least one epoch, got 0"):
            compare_orders([1], [], ds, ds, depth=1, width=4, epochs=0)


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
        path = tmp_path / "depth_sweep.csv"
        write_depth_sweep_csv(path, result)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# seed=7"
        assert lines[1] == "L,mean_rho,inv_rho"
        assert lines[2] == "2,0.5,2.0"

    def test_trajectory_schema_and_determinism(self, tmp_path):
        dump = TrajectoryDump(
            q1=np.array([[0.25, 1.0]]),
            q2=np.array([[0.0, -1.5]]),
            labels=np.array([1, 0]),
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(a, dump, seed=1)
        write_trajectory_csv(b, dump, seed=1)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[1] == "layer,sample_id,q1,q2,label"
        assert lines[2] == "0,0,0.25,0.0,1"
