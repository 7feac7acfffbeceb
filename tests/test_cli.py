import io
import itertools
import shutil
import subprocess
import sys
import urllib.request
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknet import cli, data, experiments
from helpers import save_idx_images, save_idx_labels


def run_cli(args):
    return cli.main(args)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cknet.cli", "param-count", "-k", "3", "-d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "4 vs 36" in proc.stdout


def test_package_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "cknet", "param-count", "-k", "2", "-d", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "9 vs 36 (ratio 0.25)" in proc.stdout


@pytest.mark.parametrize("module", ["cknet", "cknet.cli"])
def test_import_leaves_out_the_download_modules(module):
    code = f"import sys, {module}; assert 'urllib.request' not in sys.modules, sorted(sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bad_order_is_a_usage_error_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "cknet", "param-count", "-k", "0", "-d", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "-k/--order: must be >= 1, got 0" in proc.stderr


INVALID_INVOCATIONS = [
    (["param-count", "-k", "0", "-d", "3"], "-k/--order: must be >= 1, got 0"),
    (["param-count", "-k", "2", "-d", "0"], "-d/--width: must be >= 1, got 0"),
    (["param-count", "-k", "2", "-d", "3", "-L", "-1"], "-L/--depth: must be >= 1, got -1"),
    (["param-count", "-k", "two", "-d", "3"], "-k/--order: expected an integer, got 'two'"),
    (["verify", "--seeds", "0"], "--seeds: must be >= 1, got 0"),
    (["verify", "--orders", "1", "0"], "--orders: must be >= 1, got 0"),
    (["verify", "--orders", "65"], "--orders: must be <= 64, got 65"),
    (["verify", "--widths", "-2"], "--widths: must be >= 1, got -2"),
    (["verify", "--depths", "0"], "--depths: must be >= 1, got 0"),
    (["verify", "--tolerance=-1e-9"], "--tolerance: must be a finite number >= 0, got -1e-9"),
    (["verify", "--tolerance", "nan"], "--tolerance: must be a finite number >= 0, got nan"),
    (["train-toy", "-k", "0"], "-k/--order: must be >= 1, got 0"),
    (["train-toy", "-k", "65"], "-k/--order: must be <= 64, got 65"),
    (["compare", "--orders", "1", "65"], "--orders: must be <= 64, got 65"),
    (["compare", "--dense-orders", "65"], "--dense-orders: must be <= 64, got 65"),
    (["compare", "--dense-orders", "0"], "--dense-orders: must be >= 1, got 0"),
    (["compare", "--samples", "5"], "--samples: must be >= 10, got 5"),
    (["depth-sweep", "--samples", "5"], "--samples: must be >= 10, got 5"),
    (["train-toy", "--epochs", "-1"], "--epochs: must be >= 0, got -1"),
    (["depth-sweep", "--epochs", "-1"], "--epochs: must be >= 0, got -1"),
    (["compare", "--epochs", "0"], "--epochs: must be >= 1, got 0"),
    (["train-toy", "-L", "-1"], "-L/--depth: must be >= 0, got -1"),
    (["compare", "-L", "-1"], "-L/--depth: must be >= 0, got -1"),
    (["train-toy", "--dl", "0"], "--dl: must be a finite number > 0, got 0"),
    (["train-toy", "--dl", "nan"], "--dl: must be a finite number > 0, got nan"),
    (["compare", "--dl=-1"], "--dl: must be a finite number > 0, got -1"),
    (["train-toy", "-k", "2", "--dl", "1e308"], "--dl: dl**k overflows for dl=1e+308 and k=2"),
    (["compare", "--orders", "2", "--dense-orders", "2", "--dl", "1e308"], "--dl: dl**k overflows for dl=1e+308 and k=2"),
    (["compare", "--orders", "1", "--dl", "1e103"], "--dl: dl**k overflows for dl=1e+103 and k=4"),
    (["train-toy", "--learning-rate=-5"], "--learning-rate: must be a finite number > 0, got -5"),
    (["train-toy", "--learning-rate", "nan"], "--learning-rate: must be a finite number > 0, got nan"),
    (["depth-sweep", "--learning-rate", "0"], "--learning-rate: must be a finite number > 0, got 0"),
    (["compare", "--learning-rate", "inf"], "--learning-rate: must be a finite number > 0, got inf"),
    (["depth-sweep", "--depths", "4"], "--depths: need at least 3 distinct depths, got [4]"),
    (["depth-sweep", "--depths", "6", "2", "6", "2"], "--depths: need at least 3 distinct depths, got [2, 6]"),
    (["fetch-mnist"], "fetch-mnist requires --data-dir or CK_DATA_DIR"),
    (["train-toy", "--seed", "-1", "--seeds", "1", "--epochs", "0", "-L", "1"], "--seed: must be >= 0, got -1"),
    (["depth-sweep", "--seed=-1"], "--seed: must be >= 0, got -1"),
    (["compare", "--seed", "-3"], "--seed: must be >= 0, got -3"),
    (["compare", "--seed", "two"], "--seed: expected an integer, got 'two'"),
    (["param-count", "-k", "9" * 4000, "-d", "1"],
     "the counts for -k/--order, -d/--width and -L/--depth have more than 4300 digits"),
]


@pytest.mark.parametrize("argv,message", INVALID_INVOCATIONS, ids=[" ".join(a)[:80] for a, _ in INVALID_INVOCATIONS])
def test_invalid_invocation_exits_two_with_one_line_message(argv, message, monkeypatch, capsys):
    monkeypatch.delenv("CK_DATA_DIR", raising=False)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # the subcommand's usage and prefix, also for the checks made after parsing
    assert err.startswith(f"usage: cknet {argv[0]} "), err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"cknet {argv[0]}: error: ") and errors[0].endswith(message), err


def run_in_process(argv):
    """Exit code, stdout and stderr of ``cknet argv``, run by ``cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_documented_exit(argv, codes=(0, 1, 2, 3)):
    """An exit code among ``codes``, no traceback, and one ``error:`` line on
    any failure but the battery's own ``[FAIL]`` report."""
    code, out, err = run_in_process(argv)
    assert code in codes and "Traceback" not in err, (argv, code, err)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == (0 if code == 0 or "[FAIL]" in out else 1), (argv, code, err)


# numbers at the edges of every type a flag takes, and a few that are no number
EDGES = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-300", str(2**63), str(10**400), "9" * 4000, "1" * 5000,
         "two", ""]


class TestFuzz:
    """Every argv ends in a documented exit code with no traceback."""

    @settings(max_examples=150, deadline=None)
    @given(k=st.sampled_from(EDGES) | st.integers(1, 99).map(str),
           d=st.sampled_from(EDGES) | st.integers(1, 99).map(str),
           depth=st.none() | st.sampled_from(EDGES) | st.integers(1, 99).map(str))
    def test_param_count(self, k, d, depth):
        argv = ["param-count", "-k", k, "-d", d] + ([] if depth is None else ["-L", depth])
        assert_documented_exit(argv, codes=(0, 2))

    # the flags that set the battery's work take 1 or 2, and at most one of
    # them then a value rejected at parse time, so that every case stays cheap
    SMALL = st.lists(st.sampled_from(["1", "2"]), min_size=1, max_size=2)

    @settings(max_examples=40, deadline=None)
    @given(orders=SMALL, widths=SMALL, depths=SMALL, seeds=st.sampled_from(["1", "2"]),
           rejected=st.none() | st.tuples(st.sampled_from(["--orders", "--widths", "--depths", "--seeds"]),
                                          st.sampled_from(["0", "-1", "nan", "1e308", "two", ""])),
           tolerance=st.sampled_from(EDGES + ["1e-9", "-0", "5e-324"]))
    def test_verify(self, orders, widths, depths, seeds, rejected, tolerance):
        argv = ["verify", "--orders", *orders, "--widths", *widths, "--depths", *depths, "--seeds", seeds,
                f"--tolerance={tolerance}"]
        assert_documented_exit(argv + ([] if rejected is None else [f"{rejected[0]}={rejected[1]}"]))

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("fuzz"))

    # the training commands with their work capped; ``edge`` puts an edge
    # value on one flag, the last occurrence of a flag being the one used
    TRAINING = {
        "train-toy": (["--seeds", "1"], ["-k", "--dl", "--learning-rate", "--seed"]),
        "depth-sweep": (["--depths", "1", "2", "3", "--repetitions", "1", "--batch-size", "8"],
                        ["--dl", "--learning-rate", "--seed"]),
        "compare": (["--orders", "1", "--dense-orders", "2", "--batch-size", "8"],
                    ["--orders", "--dl", "--learning-rate", "--seed"]),
    }

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(sorted(TRAINING)), epochs=st.integers(0, 2), depth=st.integers(0, 2),
           samples=st.integers(10, 20), width=st.integers(1, 2), data=st.data())
    def test_training_commands(self, out, command, epochs, depth, samples, width, data):
        fixed, edged = self.TRAINING[command]
        argv = [command, *fixed, "--epochs", str(epochs), "--out", out]
        argv += ["-L", str(depth)] if command != "depth-sweep" else []
        argv += ["--samples", str(samples), "-d", str(width)] if command != "train-toy" else []
        edge = data.draw(st.none() | st.tuples(st.sampled_from(edged), st.sampled_from(EDGES + ["64", "65", "1e-5"])))
        assert_documented_exit(argv + ([] if edge is None else [f"{edge[0]}={edge[1]}"]))

    @settings(max_examples=30, deadline=None)
    @given(where=st.sampled_from(["unset", "empty", "new", "a file", "cached"]),
           download=st.sampled_from(["wrong size", "unreachable", "right size"]),
           from_environment=st.booleans())
    def test_fetch_mnist(self, out, where, download, from_environment):
        root = Path(out) / "mnist"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir()
        target = {"unset": None, "empty": "", "new": root / "new", "a file": root / "file", "cached": root}[where]
        (root / "file").write_bytes(b"x")
        for name, size in data.MNIST_FILES.items():
            with open(root / name, "wb") as fh:
                fh.truncate(size)

        def retrieve(url, partial):
            if download == "unreachable":
                raise OSError("network is unreachable")
            with open(partial, "wb") as fh:
                fh.truncate(data.MNIST_FILES[url.rsplit("/", 1)[1]] + (download == "wrong size"))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(urllib.request, "urlretrieve", retrieve)
            mp.delenv("CK_DATA_DIR", raising=False)
            argv = ["fetch-mnist"]
            if target is not None and from_environment:
                mp.setenv("CK_DATA_DIR", str(target))
            elif target is not None:
                argv.append(f"--data-dir={target}")
            assert_documented_exit(argv)


class TestUsage:
    def test_help_exits_zero_and_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("verify", "train-toy", "depth-sweep", "compare", "param-count"):
            assert command in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["depth-sweep", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--depths", "--width", "--seed", "--data-dir", "--out"):
            assert flag in out

    def test_invalid_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2


# every subcommand's option strings and the namespace it parses from
# ``[command, *required]``, without ``func`` and ``parser``
OPTIONS = {
    "verify": ([], {"--orders", "--widths", "--depths", "--seeds", "--tolerance", "--inject-fault"},
               {"orders": [1, 2, 3, 4], "widths": [1, 2, 8], "depths": [3, 10], "seeds": 50, "tolerance": 1e-9,
                "inject_fault": None}),
    "train-toy": ([], {"-k", "--order", "-L", "--depth", "--dl", "--seed", "--seeds", "--epochs",
                       "--learning-rate", "--out"},
                  {"order": 2, "depth": 16, "dl": 0.2, "seed": 0, "seeds": 5, "epochs": 2000,
                   "learning_rate": 0.002, "out": "out"}),
    "depth-sweep": ([], {"--depths", "--samples", "-d", "--width", "--dl", "--repetitions", "--epochs",
                         "--batch-size", "--learning-rate", "--seed", "--data-dir", "--out"},
                    {"depths": [2, 4, 6, 8, 10, 12, 14, 16, 18, 20], "samples": 10000, "width": 64, "dl": 0.5,
                     "repetitions": 2, "epochs": 8, "batch_size": 128, "learning_rate": 1e-3, "seed": 0,
                     "data_dir": None, "out": "out"}),
    "compare": ([], {"--orders", "--dense-orders", "-L", "--depth", "-d", "--width", "--dl", "--samples",
                     "--epochs", "--batch-size", "--learning-rate", "--seed", "--data-dir", "--out"},
                {"orders": [1, 2, 3, 4], "dense_orders": [2, 3, 4], "depth": 6, "width": 64, "dl": 0.5,
                 "samples": 10000, "epochs": 8, "batch_size": 128, "learning_rate": 1e-3, "seed": 0,
                 "data_dir": None, "out": "out"}),
    "param-count": (["-k", "3", "-d", "2"], {"-k", "--order", "-d", "--width", "-L", "--depth"},
                    {"order": 3, "width": 2, "depth": None}),
    "fetch-mnist": ([], {"--data-dir"}, {"data_dir": None}),
}


@pytest.mark.parametrize("command", OPTIONS)
def test_every_subcommand_keeps_its_options_and_defaults(command):
    required, flags, defaults = OPTIONS[command]
    args = vars(cli.build_parser().parse_args([command, *required]))
    parser = args.pop("parser")
    del args["func"]
    assert {flag for action in parser._actions for flag in action.option_strings} == {"-h", "--help", *flags}
    expected = {"command": command, **defaults}
    assert args == expected
    assert {name: type(value) for name, value in args.items()} == {name: type(v) for name, v in expected.items()}


class TestParamCount:
    def test_reference_case(self, capsys):
        assert run_cli(["param-count", "-k", "2", "-d", "3"]) == 0
        assert "9 vs 36 (ratio 0.25)" in capsys.readouterr().out

    def test_totals_with_depth(self, capsys):
        assert run_cli(["param-count", "-k", "2", "-d", "3", "-L", "5"]) == 0
        out = capsys.readouterr().out
        assert "60 vs 210" in out  # 5*(9+3) vs 5*(36+6)


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code = run_cli(
            ["verify", "--orders", "1", "2", "--widths", "2", "--depths", "3", "--seeds", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] ck equivalence" in out
        assert "[FAIL]" not in out

    def test_injected_sign_flip_names_the_state_space_form(self, capsys):
        code = run_cli(
            [
                "verify",
                "--orders", "2",
                "--widths", "2",
                "--depths", "3",
                "--seeds", "2",
                "--inject-fault", "dense-sign-flip",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] dense state-space form" in out
        assert "[PASS] dense equivalence" in out

    def test_zero_tolerance_fails(self, capsys):
        code = run_cli(
            ["verify", "--orders", "3", "--widths", "2", "--depths", "10", "--seeds", "2", "--tolerance", "0"]
        )
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out


class TestToyCommand:
    def test_writes_expected_artifacts(self, tmp_path, capsys):
        code = run_cli(
            [
                "train-toy",
                "-k", "1",
                "--seeds", "1",
                "--epochs", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "toy.csv").exists()
        assert (tmp_path / "trajectory_k1.csv").exists()
        assert (tmp_path / "phase_k1.svg").exists()
        header = (tmp_path / "toy.csv").read_text().split("\n")[:2]
        assert header[0] == "# seed=0"
        assert header[1] == "seed,k,accuracy"

    def test_seeds_are_drawn_lazily(self, monkeypatch, tmp_path, capsys):
        taken = []
        real = experiments.run_toy_experiment

        def two_seeds(k, seeds, **kwargs):
            assert sys.getsizeof(seeds) < 1024  # a lazy range, not a list of every seed
            taken[:] = itertools.islice(seeds, 2)
            return real(k, seeds=taken, **kwargs)

        monkeypatch.setattr(experiments, "run_toy_experiment", two_seeds)
        args = ["train-toy", "-k", "1", "-L", "2", "--epochs", "1", "--seed", "7", "--out", str(tmp_path)]
        assert run_cli(args + ["--seeds", "1000"]) == 0 and taken == [7, 8]
        # the count that once grew a list until the process was killed
        assert run_cli(args + ["--seeds", "99999999999999999999"]) == 0 and taken == [7, 8]
        assert "best: seed" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["train-toy", "-k", "2", "--seeds", "1", "--epochs", "3"]
        run_cli(args + ["--out", str(tmp_path / "a")])
        run_cli(args + ["--out", str(tmp_path / "b")])
        for name in ("toy.csv", "trajectory_k2.csv", "phase_k2.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_overflowing_last_step_is_one_error_line_without_warnings(self, tmp_path):
        # the one Adam step leaves parameters near 1e308, finite, on which the
        # evaluation after training overflows
        proc = subprocess.run(
            [sys.executable, "-m", "cknet", "train-toy", "--seeds", "1", "--epochs", "1", "-L", "1",
             "--learning-rate=1e308", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: direct evaluation diverged (loss=nan)\n"


class TestDepthSweepCommand:
    def test_missing_data_dir_is_io_error(self, tmp_path, capsys):
        code = run_cli(
            [
                "depth-sweep",
                "--depths", "2", "4", "6",
                "--data-dir", str(tmp_path / "nope"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "fetch-mnist" in err

    def test_overflowing_forward_pass_is_one_error_line_without_warnings(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cknet", "depth-sweep", "--dl", "1e308", "--depths", "2", "4", "6",
             "--samples", "20", "--epochs", "0", "--repetitions", "1", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: activations or forcing at layer 0 have non-finite norms (dl=1e+308)\n"

    def test_overflowing_training_step_is_one_error_line_without_warnings(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cknet", "depth-sweep", "--dl", "1e308", "--depths", "2", "4", "6",
             "--samples", "20", "--epochs", "1", "--repetitions", "1", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: loss diverged at epoch 0 (loss=nan)\n"

    @pytest.mark.parametrize("command", ["depth-sweep", "compare"])
    @pytest.mark.parametrize(
        "corrupt,message",
        [
            ("images", "magic number 0x67617262, expected image magic 0x00000803"),
            ("labels", "truncated while reading 3 labels (wanted 3 bytes, got 1)"),
            ("gzip", "corrupt gzip data (Compressed file ended before the end-of-stream marker was reached)"),
        ],
    )
    def test_corrupt_data_file_is_io_error(self, tmp_path, capsys, command, corrupt, message):
        images, labels = tmp_path / "train-images-idx3-ubyte", tmp_path / "train-labels-idx1-ubyte"
        if corrupt == "gzip":  # the first half of a gzipped file, as an interrupted download leaves it
            images = images.with_name(images.name + ".gz")
        save_idx_images(images, np.arange(300, dtype=np.uint8).reshape(3, 10, 10))
        save_idx_labels(labels, np.zeros(3, dtype=np.uint8))
        if corrupt == "images":
            images.write_bytes(b"garbage")
        elif corrupt == "labels":
            labels.write_bytes(labels.read_bytes()[:-2])
        else:
            images.write_bytes(images.read_bytes()[: images.stat().st_size // 2])
        code = run_cli([command, "--data-dir", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: ") and err.rstrip().endswith(message), err

    def test_tiny_synthetic_sweep_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CK_DATA_DIR", raising=False)
        code = run_cli(
            [
                "depth-sweep",
                "--depths", "2", "4", "6",
                "--samples", "300",
                "--epochs", "1",
                "--repetitions", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "depth_sweep.csv").exists()
        assert (tmp_path / "rho_vs_depth.svg").exists()
        assert (tmp_path / "inv_rho_vs_depth.svg").exists()
        lines = (tmp_path / "depth_sweep.csv").read_text().strip().split("\n")
        assert lines[1] == "L,mean_rho,inv_rho"
        assert len(lines) == 5


class TestCompareCommand:
    def test_tiny_compare_writes_csv(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CK_DATA_DIR", raising=False)
        code = run_cli(
            [
                "compare",
                "--orders", "1",
                "--dense-orders", "2",
                "--samples", "200",
                "--epochs", "1",
                "-L", "2",
                "-d", "8",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "compare.csv").read_text().strip().split("\n")
        assert lines[1] == "arch,k,test_error"
        assert len(lines) == 4

    def test_repeated_orders_write_one_row_each(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CK_DATA_DIR", raising=False)
        code = run_cli(["compare", "--orders", "2", "2", "--dense-orders", "3", "3", "--samples", "100",
                        "--epochs", "1", "-L", "1", "-d", "2", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "compare.csv").read_text().strip().split("\n")[2:]
        assert [row.split(",")[:2] for row in rows] == [["ck", "2"], ["dense", "3"]]

    def test_rerun_compare_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CK_DATA_DIR", raising=False)
        args = ["compare", "--orders", "1", "--dense-orders", "2", "--samples", "150",
                "--epochs", "1", "-L", "2", "-d", "6"]
        run_cli(args + ["--out", str(tmp_path / "a")])
        run_cli(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "compare.csv").read_bytes() == (tmp_path / "b" / "compare.csv").read_bytes()


class TestFetchMnist:
    def test_download_of_the_wrong_size_is_one_io_error_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(urllib.request, "urlretrieve", lambda url, target: Path(target).write_bytes(b"x"))
        assert run_cli(["fetch-mnist", "--data-dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "I/O error: downloaded train-images-idx3-ubyte.gz has 1 bytes, expected 9912422\n"
        assert list(tmp_path.iterdir()) == []  # nothing at the final name, no partial file left

    def test_data_dir_from_the_environment(self, tmp_path, monkeypatch, capsys):
        fetched = []
        monkeypatch.setattr(urllib.request, "urlretrieve", lambda url, target: fetched.append(url))
        for name, size in data.MNIST_FILES.items():
            with open(tmp_path / name, "wb") as fh:
                fh.truncate(size)
        monkeypatch.setenv("CK_DATA_DIR", str(tmp_path))
        assert run_cli(["fetch-mnist"]) == 0
        assert fetched == []
        assert capsys.readouterr().out.splitlines() == [f"{name} -> {tmp_path / name}" for name in data.MNIST_FILES]
