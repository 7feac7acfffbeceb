import subprocess
import sys

import pytest

from cknet import cli


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
    (["verify", "--widths", "-2"], "--widths: must be >= 1, got -2"),
    (["verify", "--depths", "0"], "--depths: must be >= 1, got 0"),
    (["verify", "--tolerance=-1e-9"], "--tolerance: must be a finite number >= 0, got -1e-9"),
    (["verify", "--tolerance", "nan"], "--tolerance: must be a finite number >= 0, got nan"),
    (["train-toy", "-k", "0"], "-k/--order: must be >= 1, got 0"),
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
    (["train-toy", "--learning-rate=-5"], "--learning-rate: must be a finite number > 0, got -5"),
    (["train-toy", "--learning-rate", "nan"], "--learning-rate: must be a finite number > 0, got nan"),
    (["depth-sweep", "--learning-rate", "0"], "--learning-rate: must be a finite number > 0, got 0"),
    (["compare", "--learning-rate", "inf"], "--learning-rate: must be a finite number > 0, got inf"),
]


@pytest.mark.parametrize("argv,message", INVALID_INVOCATIONS, ids=[" ".join(a) for a, _ in INVALID_INVOCATIONS])
def test_invalid_invocation_exits_two_with_one_line_message(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(message), err


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

    def test_injected_sign_flip_names_dense_equivalence(self, capsys):
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
        assert "[FAIL] dense equivalence" in out

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

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["train-toy", "-k", "2", "--seeds", "1", "--epochs", "3"]
        run_cli(args + ["--out", str(tmp_path / "a")])
        run_cli(args + ["--out", str(tmp_path / "b")])
        for name in ("toy.csv", "trajectory_k2.csv", "phase_k2.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestDepthSweepCommand:
    def test_single_depth_is_usage_error(self, capsys):
        assert run_cli(["depth-sweep", "--depths", "4"]) == 2

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

    def test_rerun_compare_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CK_DATA_DIR", raising=False)
        args = ["compare", "--orders", "1", "--dense-orders", "2", "--samples", "150",
                "--epochs", "1", "-L", "2", "-d", "6"]
        run_cli(args + ["--out", str(tmp_path / "a")])
        run_cli(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "compare.csv").read_bytes() == (tmp_path / "b" / "compare.csv").read_bytes()


class TestFetchMnist:
    def test_requires_data_dir(self, monkeypatch, capsys):
        monkeypatch.delenv("CK_DATA_DIR", raising=False)
        assert run_cli(["fetch-mnist"]) == 2
