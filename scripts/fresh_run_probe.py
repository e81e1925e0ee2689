#!/usr/bin/env python3
"""Time one stepsafe CLI run in fresh interpreters: wall time and minor page faults of cli.main.

    python scripts/fresh_run_probe.py --runs 5 -- train --d 10 --k 50 --n 10000 --steps 100
    python scripts/fresh_run_probe.py --src <other checkout>/src -- train --d 10 --k 5 --n 10000 --steps 100

Each run starts a new Python process with ``--src`` (default: this checkout's
``src``) on its path and one BLAS thread (OMP, OPENBLAS and MKL threads = 1),
working in a fresh temporary directory, so the CLI's default output
directory lands there.  The process imports ``stepsafe.cli`` and then
measures ``cli.main(args)`` alone: its wall time and the minor page faults
the process itself takes during the call (``ru_minflt`` of
``getrusage(RUSAGE_SELF)``).  Interpreter start-up and imports are not
counted.  Prints one line per run, then the medians; the last line is JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import contextlib, io, json, resource, sys, time
from stepsafe.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    code = main(sys.argv[1:])
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({"exit": code, "seconds": seconds, "minor_faults": faults}))
"""


def run_once(src: Path, args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", CHILD, *args], env=env, cwd=tmp, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"fresh_run_probe: the run failed with exit code {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["exit"] != 0:
        raise SystemExit(f"fresh_run_probe: cli.main returned {result['exit']}:\n{proc.stderr}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters to start (default 5)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the stepsafe package (default: this checkout's src)")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="CLI arguments after --, e.g. -- train --steps 100")
    opts = parser.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if opts.runs < 1 or not args:
        parser.error("give --runs >= 1 and the CLI arguments after --")
    runs = []
    for i in range(opts.runs):
        runs.append(run_once(opts.src.resolve(), args))
        print(f"run {i}: {runs[-1]['seconds']:.4f} s, {runs[-1]['minor_faults']} minor faults")
    summary = {
        "args": args,
        "src": str(opts.src.resolve()),
        "runs": opts.runs,
        "median_s": statistics.median(r["seconds"] for r in runs),
        "median_minor_faults": statistics.median(r["minor_faults"] for r in runs),
    }
    print(f"median of {opts.runs}: {summary['median_s']:.4f} s, {summary['median_minor_faults']:g} minor faults")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
