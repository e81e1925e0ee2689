"""Runs one workload in this process and writes its result as JSON.

Started by run.py with one BLAS/OpenMP thread and ``src`` on the path; not
meant to be run by hand.  Closed loop, one caller: each op starts when the
previous one and its output check have finished.

Untraced (``--trace 0``): whole rounds until ``--seconds`` have passed, at
least ``MIN_OPS`` ops (so op_p90_ms has ten samples beyond it) and the
workload's ``min_rounds``.

Every latency is scaled to the reference machine speed (see speed.py): the
workload's reference kernel is timed every 0.1 s between ops, and each op's wall time
is multiplied by the kernel's nominal time over its median time near the op.

Traced (``--trace 1``): an untraced phase of ``--seconds / 2``, then the
workload's fixed pass (its first ``pass_rounds`` rounds again) with every
public function of the package wrapped.  The per-layer numbers come from the
fixed pass, so counts repeat exactly for a given seed.  The tracing overhead
compares the traced pass's busy time with the same ops at the untraced
phase's median latency per op kind.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads
from speed import Speedometer

MIN_OPS = 100
MAX_PROBLEMS = 20


class Runner:
    """Runs ops, times them, checks them, and compares their CSV digests."""

    def __init__(self, scratch: Path, digests: dict, known: dict, speed: Speedometer, tracer=None):
        self.scratch = scratch
        self.speed = speed
        self.digests = digests  # op key -> {file: sha256}, this run
        self.known = known      # the same from earlier runs of this source and seed
        self.tracer = tracer
        self.kinds: list[str] = []
        self.kind_of = array.array("H")    # index into kinds, per op
        self.starts = array.array("d")     # perf_counter at op start
        self.raw = array.array("d")        # wall-clock latency, per op
        self.seconds = array.array("d")    # latency at reference speed, per op (set by run_rounds)
        self.failed = 0
        self.problems: list[str] = []
        self.compared = 0

    def run_op(self, op: workloads.Op) -> None:
        out = self.scratch / "op"  # one name: each op's outputs are removed after its check
        if self.tracer is not None:
            self.tracer.op = len(self.raw)
        self.speed.maybe_sample()
        start = time.perf_counter()
        try:
            result = op.run(out)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - start
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            try:
                problems = op.check(result, out)
                if op.cli_key is not None and not problems:
                    problems = self._compare_digests(op.cli_key, out)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        shutil.rmtree(out, ignore_errors=True)
        if op.kind not in self.kinds:
            self.kinds.append(op.kind)
        self.kind_of.append(self.kinds.index(op.kind))
        self.starts.append(start)
        self.raw.append(elapsed)
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{op.kind}: " + "; ".join(problems))

    def _compare_digests(self, key: tuple, out: Path) -> list[str]:
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        name = " ".join(key)
        problems = []
        for seen in (self.digests.get(name), self.known.get(name)):
            if seen is not None:
                self.compared += 1
                if seen != got:
                    problems.append("CSV digests differ from an earlier run of the same op")
        self.digests.setdefault(name, got)
        return problems

    def run_rounds(self, wl: workloads.Workload, offset: int, done) -> None:
        rnd = 0
        while True:
            for op in wl.rounds(offset, rnd):
                self.run_op(op)
            rnd += 1
            if done(rnd):
                break
        self.speed.sample()  # a sample after the last op
        self.seconds = array.array("d", (
            t * self.speed.factor(s, s + t) for s, t in zip(self.starts, self.raw)))

    def by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {kind: [] for kind in self.kinds}
        for i, t in zip(self.kind_of, self.seconds):
            out[self.kinds[i]].append(t)
        return out

    def kind_medians(self) -> dict[str, float]:
        return {kind: statistics.median(ts) for kind, ts in self.by_kind().items()}

    def typical_busy(self, medians: dict[str, float]) -> float:
        """Busy time of these ops, each counted at the given latency of its kind."""
        return sum(medians[self.kinds[i]] for i in self.kind_of)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_digest() -> str:
    import stepsafe

    h = hashlib.sha256(np.__version__.encode())
    for path in sorted(Path(stepsafe.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
        "source_sha256": source_digest(),
    }


def warm_up(scratch: Path) -> None:
    """One small call per public entry point, so lazy imports inside numpy
    and argparse are not charged to the first timed op."""
    op = workloads.bounds_op(2, 2, 8, 0)
    op.run(scratch / "warm")
    shutil.rmtree(scratch / "warm", ignore_errors=True)
    workloads.certify_ops(0, 0)[0].run(None)


def oracle_ratio(wl: workloads.Workload, offset: int, rounds: int) -> float:
    values = [wl.ratios[offset + r] for r in range(rounds) if offset + r in wl.ratios]
    return float(np.mean(values)) if len(values) == rounds else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--state", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    wl = workloads.make(args.workload)
    offset = workloads.SEED_STRIDE * args.seed
    prov = provenance(args.seed)
    store = args.state / f"digests-{args.workload}-seed{args.seed}.json"
    known = {}
    if store.is_file():
        saved = json.loads(store.read_text())
        known = saved["ops"] if saved.get("source_sha256") == prov["source_sha256"] else {}
    digests: dict = {}

    scratch = Path(tempfile.mkdtemp(prefix="outputs-", dir=args.state))
    try:
        warm_up(scratch)
        speed = Speedometer(wl.reference)
        report: dict = {"provenance": prov, "unit": wl.unit}
        if args.trace == 0:
            runner = Runner(scratch, digests, known, speed)
            start = time.perf_counter()
            runner.run_rounds(wl, offset, lambda rnd: (
                rnd >= wl.min_rounds and len(runner.raw) >= MIN_OPS
                and time.perf_counter() - start >= args.seconds))
            # read before the lists below, which grow with the op count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            lat = [t * 1e3 for t in runner.seconds]
            metrics = {
                "work_per_s": len(lat) / sum(runner.seconds),
                "op_p50_ms": statistics.median(lat),
                "op_p90_ms": percentile(lat, 90),
                "peak_rss_mb": peak_rss_mb,
            }
            report["wall_s"] = time.perf_counter() - start
            raw = [t * 1e3 for t in runner.raw]
            report["unscaled"] = {"work_per_s": len(raw) / sum(runner.raw), "op_p50_ms": statistics.median(raw),
                                  "op_p90_ms": percentile(raw, 90),
                                  "kernel": wl.reference, "kernel_ms_median": statistics.median(speed.kernel_ms)}
            if args.workload == "oracle":
                report["oracle_over_alpha2"] = oracle_ratio(wl, offset, wl.min_rounds)
                report["oracle_seeds"] = wl.min_rounds
            runners = [runner]
        else:
            untraced = Runner(scratch, digests, known, speed)
            start = time.perf_counter()
            untraced.run_rounds(wl, offset, lambda rnd: time.perf_counter() - start >= args.seconds / 2)
            tracer = tracing.Tracer()
            traced = Runner(scratch, digests, known, speed, tracer)
            tracer.install()
            try:
                traced.run_rounds(wl, offset, lambda rnd: rnd >= wl.pass_rounds)
            finally:
                tracer.uninstall()
            metrics = tracing.layer_metrics(tracer)
            metrics["oracle_over_alpha2"] = oracle_ratio(wl, offset, wl.pass_rounds)
            metrics["trace.overhead_frac"] = (
                traced.typical_busy(traced.kind_medians()) / traced.typical_busy(untraced.kind_medians()) - 1.0)
            metrics["trace.ops"] = len(traced.seconds)
            per_layer = tracing.layer_calls(tracer)
            missing = [layer for layer in wl.layers if per_layer[layer] == 0]
            if missing:
                traced.problems.append(f"trace self-check: no calls reached layer(s) {missing}")
            report["layer_calls"] = dict(per_layer)
            report["self_check_failed"] = bool(missing)
            tracer.write_spans(args.state / f"spans-{args.workload}-seed{args.seed}.csv")
            runners = [untraced, traced]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(r.seconds) for r in runners)
    failed = sum(r.failed for r in runners)
    report.update({
        "latencies_ms": {kind: [t * 1e3 for t in ts] for kind, ts in runners[0].by_kind().items()},
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": [p for r in runners for p in r.problems],
        "digests_compared": sum(r.compared for r in runners),
        "csv_sha256": digests,
    })
    report["correct"] = failed == 0 and not report.get("self_check_failed", False)
    store.write_text(json.dumps({"source_sha256": prov["source_sha256"], "ops": {**known, **digests}}))
    args.result.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
