"""Self-tests of the benchmark: its contract, its metric map, its checks.

Each workload runs at a tiny size (``--tiny``) in a subprocess, exactly as
the benchmark is invoked, so these take a few seconds in all.
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SUMMARY_NAMES = ("setup_s", "train_samples_per_s", "eval_samples_per_s", "verify_cases_per_s",
              "wall_s", "peak_rss_mb", "error_rate")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_line(proc) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_has_the_contract_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"][0] == "python3" and SPEC["command"][1].startswith("perfbench/")
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and NAME.fullmatch(w["name"]) and len(w["why"]) <= 200
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])


def test_interaction_map_covers_every_metric_and_workload():
    interactions = json.loads((HERE / "interactions.json").read_text())
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    assert set(end_to_end) <= set(interactions["end_to_end"])
    assert set(interactions["workloads"]) == set(WORKLOADS)
    assert list(interactions["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, entry in interactions["per_layer"].items():
        assert entry["unit"] == units[name]
        for relation in ("moves", "barely_moves"):
            for metric, workloads in entry[relation].items():
                assert metric in interactions["end_to_end"], (name, metric)
                assert set(workloads) <= set(WORKLOADS), (name, workloads)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]
    if not trace:
        for name in SUMMARY_NAMES:
            assert re.search(rf"^  {name} +\S+ \S+$", proc.stdout, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_fault_counts_as_failed_operations(workload):
    proc = run_bench("--workload", workload, "--tiny", "--inject-fault")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    result = result_line(proc)
    assert not result["correct"] and result["failed"] > 0
    assert re.search(r"^  error_rate +0\.\d+", proc.stdout, re.M)


def test_same_seed_same_losses_and_parameters_across_processes():
    def fingerprint(seed):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "narrow-k2", "--seed", str(seed),
             "--seconds", "0", "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        record = HERE / "out" / f"narrow-k2-seed{seed}-trace0.json"
        return json.loads(record.read_text())["fingerprint"]

    first = fingerprint(5)
    assert fingerprint(5) == first
    assert fingerprint(6) != first


def test_traced_loop_ends_on_the_parameters_of_train():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from cknet import architectures, data, training
    from tracing import Tracer

    dataset = data.generate_toy_1d(10, seed=4)
    config = architectures.NetworkConfig("ck", 2, 4, 2, 1, 2, dl=0.3, seed=4)
    train_config = training.TrainConfig(epochs=3, batch_size=16, learning_rate=1e-2, seed=4)
    plain, traced = architectures.Network(config), architectures.Network(config)
    expected = training.train(plain, dataset, train_config)
    tracer = Tracer()
    tracer.begin("round0", True)
    got = tracer.train(traced, dataset, train_config, "ck2")
    assert got == expected
    for a, b in zip(plain.parameters(), traced.parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    assert tracer.counts["round0"]["training.steps"] == 3 * 3
    names = {s.name for s in tracer.spans}
    assert names == {"training.step", "architectures.forward", "training.loss",
                     "tensor.backward", "training.adam_step"}


def test_fails_without_a_result_where_the_library_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert '"correct"' not in proc.stdout
