#!/usr/bin/env python3
"""stepsafe benchmark: one workload per invocation, checked outputs, one JSON line.

    python3 perfbench/run.py --workload bound-table --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the repository root.  Each workload runs in its own single-threaded
process (OMP/OPENBLAS/MKL threads = 1, set only in that process's
environment) with ``src`` on its path; nothing is installed or built.  The
benchmark and every process it starts are pinned to one CPU, and every
timing is scaled to the reference machine speed (see speed.py).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass.  Human-readable lines (every metric with its unit
and sample count, the provenance block, any failed check) come first; the
last line of standard output is the JSON result.  Outputs of the program go
to a temporary directory under ``.perfbench/``, which also keeps the CSV
digests of earlier runs, the span file of the last traced run and the full
record of each run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 11
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bench_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(env: dict, root: Path) -> list[float]:
    """Wall time for a fresh interpreter to finish ``import stepsafe.cli``,
    scaled to the reference speed by kernel samples taken between launches;
    one untimed launch first, so every timed one finds compiled bytecode."""
    speed = Speedometer()
    launches = []
    for i in range(SETUP_LAUNCHES + 1):
        speed.sample()
        start = time.perf_counter()
        # a blocking wait: with a timeout, Popen.wait polls in steps of up to 50 ms
        code = subprocess.Popen([sys.executable, "-c", "import stepsafe.cli"], env=env, cwd=root).wait()
        if code != 0:
            raise RuntimeError(f"import stepsafe.cli failed with exit code {code}")
        if i:
            launches.append((start, time.perf_counter() - start))
    speed.sample()
    return [t * speed.factor(start, start + t) for start, t in launches]


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: float, trace: int) -> bool:
    """Runs one workload and prints its report; False if it produced no result."""
    started = time.perf_counter()
    env = bench_env(root)
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    result_path = state / f"result-{workload}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)

    setup = measure_setup(env, root) if trace == 0 else []
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace), "--state", str(state), "--result", str(result_path)]
    try:
        proc = subprocess.run(worker, env=env, cwd=root, timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload {workload} did not finish in time", file=sys.stderr)
        return False
    if proc.returncode != 0 or not result_path.is_file():
        print(f"perfbench: workload {workload} failed with exit code {proc.returncode}", file=sys.stderr)
        return False
    report = json.loads(result_path.read_text())
    metrics = report["metrics"]
    n_ops = report["attempted"]
    if trace == 0:
        metrics["setup_s"] = statistics.median(setup)
    counts = {"setup_s": f"n={len(setup)} launches", "peak_rss_mb": "n=1 process"}
    sample = f"n={n_ops} ops" if trace == 0 else f"traced pass of {metrics['trace.ops']} ops"

    print(f"workload={workload} seed={seed} seconds={seconds:g} trace={trace}: op = {report['unit']}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in report["provenance"].items()))
    declared = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    for m in declared:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']:<5} "
              f"({counts.get(m['name'], sample)}, {m['better']} is better)")
    if trace == 0:
        print(f"  {'failed_frac':<48} {report['failed'] / n_ops:>14.6g} {'1':<5} (n={n_ops} ops)")
        if "oracle_over_alpha2" in report:
            print(f"  {'oracle_over_alpha2':<48} {report['oracle_over_alpha2']:>14.6g} {'1':<5} "
                  f"(n={report['oracle_seeds']} random-search seeds, higher is better)")
    else:
        print(f"  layer calls: {report['layer_calls']}")
    print(f"csv digests compared with earlier runs of the same op: {report['digests_compared']}")
    for problem in report["problems"]:
        print(f"FAILED {problem}")

    result = {"correct": report["correct"], "attempted": n_ops, "failed": report["failed"],
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}}
    report["result"] = result
    result_path.write_text(json.dumps(report, indent=1))
    print(json.dumps(result), flush=True)
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "stepsafe" / "cli.py").is_file():
        print(f"perfbench: no stepsafe sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by every child
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_workload(root, spec, name, args.seed, args.seconds, args.trace) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
