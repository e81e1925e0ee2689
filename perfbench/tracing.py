"""Span tracer that wraps the public functions of the stepsafe modules.

Only the benchmark's own files are instrumented: ``install`` replaces every
public function defined in one of ``LAYERS`` with a timing wrapper, under
every name a caller looks it up by (``relu.gershgorin_upper`` and
``eigenbounds.gershgorin_upper`` both resolve to the wrapper of
``eigenbounds.gershgorin_upper``).  ``uninstall`` puts the originals back.
Nothing inside the package changes.

Spans are kept in memory as (id, parent, op, name, start, end) and written
out once at the end.  A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "relu", "eigenbounds", "objectives", "descent", "tableio")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, name, start, child seconds]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.op = None
        self._originals: list[tuple] = []

    # --- spans -------------------------------------------------------------

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def _call(self, name, fn, hook, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1][0] if self.stack else None
        frame = [span_id, name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame[2]
            self.spans[span_id] = (span_id, parent, self.op, name, frame[2], end)
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[3]
            if self.stack:
                self.stack[-1][3] += duration
        if hook is not None:
            hook(self, fn, args, kwargs, result)
        return result

    # --- instrumentation ---------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        modules = [importlib.import_module(f"stepsafe.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("stepsafe."):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(name, obj)
                self._originals.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, hook, args, kwargs)

        return traced

    def write_spans(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "op", "name", "start_s", "end_s"])
            out.writerows(self.spans)


# --- exact counts recorded at the layer boundaries ----------------------------


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _power_iteration(tr, fn, args, kwargs, result):
    tr.counts["eigenbounds.power_iteration.iterations"] += result.iterations
    key = "eigenbounds.power_iteration.iterations_max"
    tr.counts[key] = max(tr.counts[key], result.iterations)
    tr.counts["eigenbounds.power_iteration.converged"] += bool(result.converged)


def _gram(tr, fn, args, kwargs, result):
    tr.counts["relu.allactive_gram_matrix.bytes"] += result.entries.nbytes


def _oracle(tr, fn, args, kwargs, result):
    arguments = _arguments(fn, args, kwargs)
    if arguments["strategy"] == "random-search":
        tr.counts["relu.alpha_oracle.draws"] += arguments["budget"]


def _descent(tr, fn, args, kwargs, result):
    tr.counts["descent.steps"] += result.steps_taken


def _file_bytes(key):
    def hook(tr, fn, args, kwargs, result):
        tr.counts[key] += Path(_arguments(fn, args, kwargs)["path"]).stat().st_size

    return hook


def _objective_eval(tr, fn, args, kwargs, result):
    if tr.inside("descent.run_descent"):
        tr.counts["descent.evals"] += 1
    if tr.inside("objectives.upper_quadratic_check"):
        tr.counts["objectives.check_evals"] += 1


HOOKS = {
    "eigenbounds.power_iteration": _power_iteration,
    "relu.allactive_gram_matrix": _gram,
    "relu.alpha_oracle": _oracle,
    "descent.run_descent": _descent,
    "descent.save_trace": _file_bytes("descent.save_trace.bytes"),
    "tableio.write_table": _file_bytes("tableio.write_table.bytes"),
    "relu.loss": _objective_eval,
    "relu.gradient": _objective_eval,
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics, in the units BENCHMARK.json states."""

    def ms(table, name):
        return table[name] * 1e3

    calls, total, own, counts = tr.calls, tr.total, tr.self_time, tr.counts
    pi_calls = calls["eigenbounds.power_iteration"]
    steps = counts["descent.steps"]
    checks = calls["objectives.upper_quadratic_check"]
    out = {
        "eigenbounds.power_iteration.calls": pi_calls,
        "eigenbounds.power_iteration.ms": ms(total, "eigenbounds.power_iteration"),
        "eigenbounds.power_iteration.iterations": counts["eigenbounds.power_iteration.iterations"],
        "eigenbounds.power_iteration.iterations_max": counts["eigenbounds.power_iteration.iterations_max"],
        "eigenbounds.power_iteration.converged_frac": (
            counts["eigenbounds.power_iteration.converged"] / pi_calls if pi_calls else 0.0
        ),
        "relu.allactive_gram_matrix.calls": calls["relu.allactive_gram_matrix"],
        "relu.allactive_gram_matrix.ms": ms(total, "relu.allactive_gram_matrix"),
        "relu.allactive_gram_matrix.bytes": counts["relu.allactive_gram_matrix.bytes"],
        "eigenbounds.gershgorin_upper.ms": ms(total, "eigenbounds.gershgorin_upper"),
        "eigenbounds.brauer_cassini_upper.ms": ms(total, "eigenbounds.brauer_cassini_upper"),
    }
    for i in range(1, 5):
        out[f"relu.bound_alpha{i}.self_ms"] = ms(own, f"relu.bound_alpha{i}")
    out.update({
        "relu.generate_dataset.ms": ms(total, "relu.generate_dataset"),
        "relu.second_moment_matrix.ms": ms(total, "relu.second_moment_matrix"),
        "relu.alpha_oracle.calls": calls["relu.alpha_oracle"],
        "relu.alpha_oracle.ms": ms(total, "relu.alpha_oracle"),
        "relu.alpha_oracle.draws": counts["relu.alpha_oracle.draws"],
        "relu.loss.calls": calls["relu.loss"],
        "relu.loss.ms": ms(total, "relu.loss"),
        "relu.gradient.calls": calls["relu.gradient"],
        "relu.gradient.ms": ms(total, "relu.gradient"),
        "descent.run_descent.self_ms": ms(own, "descent.run_descent"),
        "descent.steps": steps,
        "descent.step_us": total["descent.run_descent"] * 1e6 / steps if steps else 0.0,
        "descent.evals_per_step": counts["descent.evals"] / steps if steps else 0.0,
        "objectives.upper_quadratic_check.calls": checks,
        "objectives.upper_quadratic_check.self_ms": ms(own, "objectives.upper_quadratic_check"),
        "objectives.estimate_concavifier_hessian.self_ms": ms(own, "objectives.estimate_concavifier_hessian"),
        "objectives.estimate_concavifier_midpoint.self_ms": ms(own, "objectives.estimate_concavifier_midpoint"),
        "objectives.evals_per_check": counts["objectives.check_evals"] / checks if checks else 0.0,
        "relu.loss_hessian_matrix.calls": calls["relu.loss_hessian_matrix"],
        "relu.loss_hessian_matrix.ms": ms(total, "relu.loss_hessian_matrix"),
        "descent.save_trace.ms": ms(total, "descent.save_trace"),
        "descent.save_trace.bytes": counts["descent.save_trace.bytes"],
        "tableio.write_table.calls": calls["tableio.write_table"],
        "tableio.write_table.ms": ms(total, "tableio.write_table"),
        "tableio.write_table.bytes": counts["tableio.write_table.bytes"],
        "cli.main.calls": calls["cli.main"],
        "cli.self_ms": sum(ms(own, name) for name in own if name.startswith("cli.")),
    })
    return out


def layer_calls(tr: Tracer) -> dict[str, int]:
    """Spans per layer (module), for the self-check."""
    per_layer = defaultdict(int)
    for name, n in tr.calls.items():
        per_layer[name.split(".", 1)[0]] += n
    return per_layer
