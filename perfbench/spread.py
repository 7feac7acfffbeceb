"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads wide-k1 ...] [--baseline PATH]

Runs ``perfbench/run.py`` one at a time with seeds 1..runs and
BENCHMARK.json's run_seconds. For every workload and end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to the metric's bound. With ``--baseline`` it
also writes those figures, each workload's config and the last run's manifest to PATH as one point
of the bench trajectory.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its manifest."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    run_manifest = next(json.loads(line[len("manifest "):]) for line in lines
                        if line.startswith("manifest "))
    return result, run_manifest


def summarize(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--baseline", type=Path, help="write the figures to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    figures, run_manifest = {}, {}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            result, run_manifest = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: correctness checks failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        figures[workload] = {"config": run_manifest["config"], "metrics": {}}
        for name, metric in bounds.items():
            summary = summarize(values[name])
            figures[workload]["metrics"][name] = {"unit": metric["unit"], **summary}
            flag = "ok" if summary["spread"] < metric["bound"] / 3 else (
                "WITHIN BOUND" if summary["spread"] <= metric["bound"] else "TOO WIDE")
            print(f"{workload:<15} {name:<22} median {summary['median']:<12.6g} "
                  f"q1 {summary['q1']:<12.6g} q3 {summary['q3']:<12.6g} "
                  f"spread {summary['spread']:.4f} bound {metric['bound']} {flag}", flush=True)

    if args.baseline:
        for key in ("workload", "seed", "config"):
            run_manifest.pop(key)
        record = {"runs": args.runs, "seeds": list(range(1, args.runs + 1)),
                  "run_seconds": spec["run_seconds"], "manifest": run_manifest,
                  "workloads": figures}
        args.baseline.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
