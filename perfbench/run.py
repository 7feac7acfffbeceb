"""cknet benchmark: four experiment-shaped workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide-k1 --seed 1 --seconds 20 --trace 0

The benchmark times calls into the public functions of cknet.data,
cknet.architectures, cknet.training, cknet.experiments and cknet.verify,
taken from ``src/`` of the checkout. It sets up three times (imports once,
then data, network construction and one warm-up round) and reports the
median, then repeats identical rounds for ``--seconds`` and reports medians
over rounds. Experiments run in this one process; BLAS threads stay at
their default.

End-to-end times are scaled to a reference machine speed, measured by a
calibration loop around the imports, every set-up and every part of a
round (see ``calibration.py``); the raw times are kept in the run record in
``perfbench/out/``. Memory and the per-layer times are not scaled.

``--trace 0`` measures with tracing off and reports the end-to-end metrics
of BENCHMARK.json. ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics from spans around each call into the library;
the spans go to ``perfbench/out/``.

Every run checks its outputs: training losses are finite, direct and state
logits agree within 1e-9, every battery check passes, every round (traced
or not) reproduces round 0 bit for bit. A failed check counts as a failed
operation. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 0 when every
check passed and 1 otherwise.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from calibration import timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3
MIN_ROUNDS = 2
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_library() -> None:
    """Put the checkout's ``src/`` first on the path and import cknet from it."""
    src = ROOT / "src"
    if not (src / "cknet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cknet sources under {src}")
    sys.path.insert(0, str(src))
    import cknet

    if Path(cknet.__file__).resolve().parent != (src / "cknet").resolve():
        raise SystemExit(f"perfbench: cknet imported from {cknet.__file__}, not from {src}")


def import_benchmark():
    """Import cknet (and with it numpy) from the checkout, then the benchmark's modules."""
    load_library()
    import tracing
    import workloads

    return tracing, workloads


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workload, args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "config": workload.config(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "git_commit": git_commit(),
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def rate(amount, seconds) -> float:
    return amount / seconds if seconds > 0 else 0.0


def end_to_end(imports, setups, rounds) -> dict:
    """Medians of speed-scaled figures; ``imports`` and each of ``setups`` is (seconds, scale)."""
    return {
        "setup_s": imports[0] * imports[1] + median([s * scale for s, scale in setups]),
        "wall_s": median([r.scaled["wall_s"] for r in rounds]),
        "items_per_s": median([rate(r.items, r.scaled["items_s"]) for r in rounds]),
        "forward_samples_per_s": median([rate(r.forward_samples, r.scaled["forward_s"])
                                         for r in rounds]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def summary_rows(workload, metrics, ledger) -> list[tuple[str, object, str]]:
    """End-to-end figures under their workload-specific names, plus error_rate.

    items_per_s is train_samples_per_s or verify_cases_per_s, and
    forward_samples_per_s is eval_samples_per_s; n/a where a workload has no
    such work.
    """
    verifying = workload.name == "verify-battery"
    na = "n/a"
    return [
        ("setup_s", metrics["setup_s"], "s"),
        ("train_samples_per_s", na if verifying else metrics["items_per_s"], "samples/s"),
        ("eval_samples_per_s", na if verifying else metrics["forward_samples_per_s"], "samples/s"),
        ("verify_cases_per_s", metrics["items_per_s"] if verifying else na, "cases/s"),
        ("wall_s", metrics["wall_s"], "s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("error_rate", ledger.failed / max(ledger.attempted, 1), "ratio"),
    ]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="a NaN in the training data, or a corrupted dense forcing "
                             "matrix on verify-battery; every run must then fail checks")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (tracing, workloads), *imports = timed(import_benchmark)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.inject_fault)
    tracer, ledger = tracing.Tracer(), workloads.Ledger()

    def set_up(i):
        tracer.begin(f"setup{i}", bool(args.trace))
        workload.setup(tracer)
        tracer.begin(f"warm-up{i}", False)
        workload.warm_up(tracer)

    setups = [timed(set_up, i)[1:] for i in range(SETUPS)]

    rounds = {False: [], True: []}
    traced_runs = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() < deadline:
        traced = bool(args.trace) and i % 2 == 1
        tracer.begin(f"round{i}", traced)
        rounds[traced].append(workload.run_round(tracer, ledger))
        if traced:
            traced_runs.append(f"round{i}")
        i += 1
    all_rounds = rounds[False] + rounds[True]
    reference = all_rounds[0].fingerprint
    for rnd in all_rounds[1:]:
        ledger.record(rnd.fingerprint == reference,
                      "a round's losses, accuracies or parameters differ from round 0's")

    if args.trace:
        values = tracing.per_layer_metrics(tracer, {f"setup{i}" for i in range(SETUPS)},
                                           traced_runs,
                                           [r.scaled["wall_s"] for r in rounds[True]],
                                           [r.scaled["wall_s"] for r in rounds[False]])
        wanted = spec["per_layer"]
    else:
        values = end_to_end(imports, setups, rounds[False])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = ledger.failed == 0
    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}

    run_manifest = manifest(workload, args)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"manifest": run_manifest, "result": result, "failures": ledger.notes,
              "fingerprint": reference,
              "imports": {"seconds": imports[0], "scale": imports[1]},
              "setups": [{"seconds": s, "scale": scale} for s, scale in setups],
              "rounds": [{"traced": traced, "wall_s": r.wall_s, "items": r.items,
                          "items_s": r.items_s, "forward_samples": r.forward_samples,
                          "forward_s": r.forward_s, "scaled": r.scaled}
                         for traced in (False, True) for r in rounds[traced]]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))

    print("manifest " + json.dumps(run_manifest, sort_keys=True))
    print(f"{workload.name} seed={args.seed}: {len(all_rounds)} rounds, "
          f"{ledger.attempted} operations, {ledger.failed} failed")
    for note in ledger.notes:
        print(f"  FAILED {note}")
    if not args.trace:
        for name, value, unit in summary_rows(workload, values, ledger):
            print(f"  {name:<24} {value if isinstance(value, str) else f'{value:.6g}'} {unit}")
    else:
        for name, entry in metrics.items():
            print(f"  {name:<36} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
