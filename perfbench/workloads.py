"""The four workloads: what each op calls, and how its output is checked.

An op is one public call as a user makes it.  Ops are grouped into rounds;
the benchmark always runs whole rounds, so every run sees the same mix of
op kinds.  Every check returns a list of problems; an op with any problem
counts as failed, never as skipped.

Seeds: run seed ``s`` of the benchmark offsets every seed a workload uses by
``SEED_STRIDE * s``, so a claim can be re-checked on seeds not used while
writing it.  The program only ever receives the derived seeds.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SEED_STRIDE = 1000
RTOL = 1e-9  # relative tolerance of every comparison against a dense reference

STANDARD_CONFIGS = ((10, 5, 1000), (10, 5, 10000), (5, 5, 1000), (50, 5, 1000), (10, 2, 1000), (10, 50, 1000))
WIDE_CONFIG = (50, 50, 1000)
BOUND_SEEDS = 100  # more than a run reaches: every round brings new data
WIDE_EVERY = 10    # the wide configuration runs on one round in ten
DESCENT_CONFIG = (10, 5, 10_000)
DESCENT_STEPS = 100
DESCENT_PASS = 6
SWEEP_SCALES = (0.5, 1.0, 2.0, 4.0)
ORACLE_CONFIG = (10, 5, 200)
ORACLE_BUDGET = 10_000
ENUM_CONFIG = (2, 2, 8)
ENUM_PER_ROUND = 40
CERTIFY_CONFIG = (10, 5, 200)
CERTIFY_DATASETS = 5
CHECKS_PER_ROUND = 300
PAIR_SCALES = (0.5, 1.0, 2.0)  # weight-pair scales, as in acceptance criterion 8
HESSIAN_BUDGET = 16
MIDPOINT_BUDGET = 128


@dataclass(frozen=True)
class Op:
    kind: str                                  # groups latencies of like ops
    run: Callable[[Path], object]              # the timed public call
    check: Callable[[object, Path], list[str]]
    cli_key: tuple | None = None               # CLI ops: identity for CSV digests


@dataclass
class Workload:
    name: str
    unit: str                         # what one op is
    rounds: Callable[[int, int], list[Op]]  # (seed offset, round index) -> ops
    pass_rounds: int                  # rounds in the fixed traced pass
    min_rounds: int                   # rounds every untraced run completes
    layers: tuple[str, ...]           # layers the traced pass must reach
    reference: tuple[str, ...] = ("numpy",)  # the speed.py kernels its op latencies track
    ratios: dict = field(default_factory=dict)  # random-search seed -> oracle/alpha2


# --- dense references, computed with numpy alone ------------------------------

_REFS: dict = {}


def dense_problem(d: int, k: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Inputs and targets from the documented data stream of default_rng(seed):
    n*d standard-normal inputs first, then the k*d teacher weights."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    teacher = rng.standard_normal((k, d))
    return x, np.maximum(x @ teacher.T, 0.0).sum(axis=1)


def reference(d: int, k: int, n: int, seed: int) -> dict[str, float]:
    """alpha1..alpha3 of the dataset, computed densely with numpy."""
    key = (d, k, n, seed)
    if key not in _REFS:
        x, _ = dense_problem(d, k, n, seed)
        s = x.T @ x / n
        if len(_REFS) > 512:
            _REFS.clear()
        _REFS[key] = {
            "alpha1": k / n * float((x**2).sum()),
            "alpha2": k * float(np.linalg.eigvalsh(s)[-1]),
            "alpha3": k * float(np.abs(s).sum(axis=1).max()),
        }
    return _REFS[key]


def _close(value: float, ref: float, rtol: float = RTOL) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def check_bounds(values: dict[str, float], ref: dict[str, float]) -> list[str]:
    """Bound chain plus the dense references for whichever bounds are given."""
    problems = []
    for name in ("alpha1", "alpha2", "alpha3"):
        if name in values and not _close(values[name], ref[name]):
            problems.append(f"{name}={values[name]!r} but the dense reference is {ref[name]!r}")
    if "alpha2" in values and values["alpha2"] < ref["alpha2"] * (1 - RTOL):
        problems.append("alpha2 is below k*lambda_max(S): power iteration stopped short")
    lo = values.get("alpha2", ref["alpha2"]) * (1 - RTOL)
    for big in ("alpha1", "alpha3", "alpha4"):
        if big in values and values[big] < lo:
            problems.append(f"{big}={values[big]!r} is below alpha2")
    if "alpha4" in values and values["alpha4"] > values.get("alpha3", ref["alpha3"]) * (1 + RTOL):
        problems.append(f"alpha4={values['alpha4']!r} exceeds alpha3")
    return problems


# --- CSV reading (independent of stepsafe.tableio) ----------------------------


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    if any(line.startswith("#") for line in lines):
        raise ValueError(f"{path.name} has a comment line under --no-timestamp")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _row(header, row) -> dict:
    return {name: (cell if name in ("kind", "bound") else float(cell)) for name, cell in zip(header, row)}


def _summary_problems(rows: list[list[str]], width: int) -> list[str]:
    """reps=1: the mean row repeats the run row and every stddev is 0."""
    kinds = [r[0] for r in rows]
    if kinds != ["run", "mean", "stddev"]:
        return [f"expected run/mean/stddev rows, got {kinds}"]
    problems = []
    if [float(v) for v in rows[1][1:width]] != [float(v) for v in rows[0][1:width]]:
        problems.append("mean row differs from the single run row")
    if any(float(v) != 0.0 for v in rows[2][1:width]):
        problems.append("stddev row is not zero for a single run")
    return problems


def check_trace(path: Path, steps: int, safe: bool) -> tuple[list[str], dict]:
    """A descent trace: steps+1 rows; at a safe step every step descends
    with gap >= -slack and the loss never rises."""
    header, rows = read_csv(path)
    problems = []
    if header != ["step", "loss", "grad_norm", "descent_gap", "monotone_so_far"]:
        return [f"{path.name}: unexpected header {header}"], {}
    loss = np.array([float(r[1]) for r in rows])
    gaps = np.array([float(r[3]) for r in rows])
    flags = [r[4] for r in rows]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        problems.append(f"{path.name}: step column is not 0..{len(rows) - 1}")
    diverged = len(rows) != steps + 1
    if safe:
        if diverged:
            problems.append(f"{path.name}: {len(rows) - 1} steps recorded, expected {steps}")
        if flags != ["1"] * len(rows):
            problems.append(f"{path.name}: loss rose at a safe step size")
        slack = -1e-9 * np.maximum(1.0, np.abs(loss[:-1]))
        if not np.all(gaps[:-1] >= slack):
            problems.append(f"{path.name}: descent gap {gaps[:-1].min()!r} below -slack at a safe step")
        if not np.all(np.isfinite(loss)):
            problems.append(f"{path.name}: non-finite loss at a safe step")
    if not math.isnan(gaps[-1]):
        problems.append(f"{path.name}: final row carries a descent gap")
    return problems, {"final_loss": loss[-1], "monotone": float(all(f == "1" for f in flags))}


# --- ops ----------------------------------------------------------------------


def cli_op(kind: str, args: list[str], check: Callable[[Path], list[str]]) -> Op:
    from stepsafe import cli

    def run(out: Path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(args + ["--out", str(out), "--no-timestamp"])
        return code, buf.getvalue()

    def checked(result, out: Path) -> list[str]:
        code, printed = result
        if code != 0:
            return [f"exit code {code}"]
        if "wrote " not in printed:
            return ["no 'wrote' line printed"]
        return check(out)

    return Op(kind, run, checked, cli_key=tuple(args))


def _size_args(d, k, n, seed) -> list[str]:
    return ["--d", str(d), "--k", str(k), "--n", str(n), "--seed", str(seed), "--reps", "1"]


def bounds_op(d, k, n, seed) -> Op:
    def check(out: Path) -> list[str]:
        header, rows = read_csv(out / "bounds.csv")
        if header != ["kind", "seed", "alpha1", "alpha2", "alpha3", "alpha4"]:
            return [f"unexpected header {header}"]
        values = _row(header, rows[0])
        problems = _summary_problems(rows, len(header))
        if values["seed"] != seed:
            problems.append(f"seed column {values['seed']} != {seed}")
        return problems + check_bounds(values, reference(d, k, n, seed))

    return cli_op(f"bounds d{d} k{k} n{n}", ["bounds"] + _size_args(d, k, n, seed), check)


def train_op(bound: str, seed: int) -> Op:
    d, k, n = DESCENT_CONFIG

    def check(out: Path) -> list[str]:
        header, rows = read_csv(out / "train_summary.csv")
        if header != ["bound", "seed", "bound_value", "eta", "final_loss", "monotone", "diverged"] or len(rows) != 1:
            return [f"unexpected train summary {header} with {len(rows)} rows"]
        row = _row(header, rows[0])
        problems = check_bounds({bound: row["bound_value"]}, reference(d, k, n, seed))
        if not _close(row["eta"], 1.0 / row["bound_value"], 1e-15):
            problems.append(f"eta={row['eta']!r} is not 1/{bound}")
        if (row["monotone"], row["diverged"]) != (1.0, 0.0):
            problems.append(f"1/{bound} run not monotone or diverged")
        trace_problems, seen = check_trace(out / f"train_{bound}_seed{seed}.csv", DESCENT_STEPS, safe=True)
        if seen and seen["final_loss"] != row["final_loss"]:
            problems.append("summary final_loss differs from the trace")
        return problems + trace_problems

    return cli_op(f"train {bound}", ["train", "--bounds", bound, "--steps", str(DESCENT_STEPS)]
                  + _size_args(d, k, n, seed), check)


def sweep_op(scale: float, seed: int) -> Op:
    d, k, n = DESCENT_CONFIG

    def check(out: Path) -> list[str]:
        header, rows = read_csv(out / "sweep_runs.csv")
        if header != ["scale", "seed", "alpha2", "eta", "final_loss", "monotone", "diverged"] or len(rows) != 1:
            return [f"unexpected sweep runs {header} with {len(rows)} rows"]
        row = _row(header, rows[0])
        problems = check_bounds({"alpha2": row["alpha2"]}, reference(d, k, n, seed))
        if not _close(row["eta"], scale / row["alpha2"], 1e-15):
            problems.append(f"eta={row['eta']!r} is not {scale:g}/alpha2")
        safe = scale <= 1.0
        trace_problems, seen = check_trace(out / f"sweep_s{scale:g}_seed{seed}.csv", DESCENT_STEPS, safe)
        if seen and seen["monotone"] != row["monotone"]:
            problems.append("monotone flag differs between the runs table and the trace")
        _, summary = read_csv(out / "sweep_summary.csv")
        if [float(v) for v in summary[0]] != [scale, 1.0 - row["monotone"]]:
            problems.append(f"sweep summary {summary[0]} disagrees with the run")
        return problems + trace_problems

    return cli_op(f"sweep {scale:g}", ["scale-sweep", "--scales", f"{scale:g}", "--steps", str(DESCENT_STEPS)]
                  + _size_args(d, k, n, seed), check)


def oracle_op(d, k, n, seed, strategy: str, ratios: dict | None = None) -> Op:
    def check(out: Path) -> list[str]:
        header, rows = read_csv(out / "oracle.csv")
        expect = ["kind", "seed", "oracle", "alpha1", "alpha2", "alpha3", "alpha4", "oracle_over_alpha2"]
        if header != expect:
            return [f"unexpected header {header}"]
        values = _row(header, rows[0])
        problems = _summary_problems(rows, len(header))
        problems += check_bounds(values, reference(d, k, n, seed))
        if not 0.0 < values["oracle"] <= values["alpha2"] * (1 + RTOL):
            problems.append(f"oracle={values['oracle']!r} not in (0, alpha2={values['alpha2']!r}]")
        if not _close(values["oracle_over_alpha2"], values["oracle"] / values["alpha2"], 1e-15):
            problems.append("oracle_over_alpha2 column is not oracle/alpha2")
        if ratios is not None:
            ratios[seed] = values["oracle_over_alpha2"]
        return problems

    args = ["oracle", "--oracle-strategy", strategy, "--oracle-budget", str(ORACLE_BUDGET)] + _size_args(d, k, n, seed)
    return cli_op(f"oracle {strategy}", args, check)


def certify_ops(seed: int, rnd: int) -> list[Op]:
    """Library calls on one d10 k5 n200 loss: quadratic-model checks at alpha2
    on random weight pairs (scales 0.5, 1, 2), then both concavifier estimators."""
    from stepsafe import objectives, relu

    d, k, n = CERTIFY_CONFIG
    data = relu.generate_dataset(relu.NetConfig(d, k, n, seed))
    alpha2 = relu.bound_alpha2(data, k)
    setup_problems = check_bounds({"alpha2": alpha2}, reference(d, k, n, seed))
    f = relu.loss_objective(data)
    rng = np.random.default_rng([seed, rnd])
    scales = np.resize(PAIR_SCALES, CHECKS_PER_ROUND)[:, None]
    xs = rng.standard_normal((CHECKS_PER_ROUND, k * d)) * scales
    ys = rng.standard_normal((CHECKS_PER_ROUND, k * d)) * scales
    box = objectives.BoxDomain(-np.ones(k * d), np.ones(k * d), budget=HESSIAN_BUDGET)
    mid_box = objectives.BoxDomain(-np.ones(k * d), np.ones(k * d), budget=MIDPOINT_BUDGET)

    def quad(x, y):
        return lambda out: objectives.upper_quadratic_check(f, x, y, alpha2)

    def quad_check(result, out) -> list[str]:
        return setup_problems + ([] if result.holds else [f"quadratic model fails at alpha2, slack {result.slack!r}"])

    x_data, y_data = dense_problem(d, k, n, seed)

    def dense_loss(w: np.ndarray) -> float:
        return 0.5 * float(np.mean((np.maximum(x_data @ w.reshape(k, d).T, 0.0).sum(axis=1) - y_data) ** 2))

    def hessian_check(result, out) -> list[str]:
        """The a.e. Hessian is (1/n) sum D_i abar_i abar_i^T D_i, whose top
        eigenvalue is at most alpha2; the estimate is that eigenvalue at the
        witness, so it must match a dense eigvalsh there."""
        w = result.witness.reshape(k, d)
        a = ((x_data @ w.T >= 0.0)[:, :, None] * x_data[:, None, :]).reshape(n, k * d)
        top = float(np.linalg.eigvalsh(a.T @ a / n)[-1])
        problems = list(setup_problems)
        if not _close(result.value, top, 1e-6):
            problems.append(f"hessian estimate {result.value!r} but lambda_max at its witness is {top!r}")
        if result.value > alpha2 * (1 + RTOL):
            problems.append(f"hessian estimate {result.value!r} above alpha2={alpha2!r}")
        return problems

    def midpoint_check(result, out) -> list[str]:
        """The estimate is psi at its witness pair, recomputed densely.  It may
        exceed alpha2: kinks where the residual is positive add curvature the
        a.e. Hessian does not see."""
        x, y = result.witness
        psi = 4.0 * (dense_loss(x) + dense_loss(y) - 2.0 * dense_loss((x + y) / 2.0)) / float(np.sum((x - y) ** 2))
        problems = list(setup_problems)
        if not abs(result.value - max(0.0, psi)) <= 1e-6 * max(1.0, abs(psi)):
            problems.append(f"midpoint estimate {result.value!r} but psi at its witness is {psi!r}")
        return problems

    ops = [Op("upper_quadratic_check", quad(x, y), quad_check) for x, y in zip(xs, ys)]
    ops.append(Op("estimate_concavifier_hessian", lambda out: objectives.estimate_concavifier_hessian(
        f, box, np.random.default_rng([seed, rnd, 1])), hessian_check))
    ops.append(Op("estimate_concavifier_midpoint", lambda out: objectives.estimate_concavifier_midpoint(
        f, mid_box, np.random.default_rng([seed, rnd, 2])), midpoint_check))
    return ops


# --- the workloads ------------------------------------------------------------


def _bound_table_round(offset: int, rnd: int) -> list[Op]:
    """The six standard reports on one seed, plus the wide configuration on
    one round in ten.  Power-iteration counts, and so latencies, vary several
    times over between seeds; a new seed every round averages over many."""
    seed = offset + rnd % BOUND_SEEDS
    configs = ((WIDE_CONFIG,) if rnd % WIDE_EVERY == 0 else ()) + STANDARD_CONFIGS
    return [bounds_op(d, k, n, seed) for d, k, n in configs]


def _descent_round(offset: int, rnd: int) -> list[Op]:
    seed = offset + rnd
    return ([train_op(b, seed) for b in ("alpha1", "alpha2", "alpha3", "alpha4")]
            + [sweep_op(s, seed) for s in SWEEP_SCALES])


def _certify_round(offset: int, rnd: int) -> list[Op]:
    return certify_ops(offset + rnd % CERTIFY_DATASETS, rnd)


def make(name: str) -> Workload:
    if name == "bound-table":
        return Workload(name, "one (config, seed) bounds report", _bound_table_round,
                        pass_rounds=WIDE_EVERY, min_rounds=1, layers=("cli", "relu", "tableio"))
    if name == "descent":
        return Workload(name, "one descent run (train or scale-sweep call)", _descent_round,
                        pass_rounds=DESCENT_PASS, min_rounds=1, layers=("cli", "relu", "descent", "tableio"))
    if name == "certify":
        return Workload(name, "one objectives library call", _certify_round,
                        pass_rounds=8 * CERTIFY_DATASETS, min_rounds=1, layers=("objectives", "relu"),
                        reference=("python", "numpy"))
    if name == "oracle":
        wl = Workload(name, "one oracle report", None, pass_rounds=2, min_rounds=4, layers=("cli", "relu"))

        def oracle_round(offset: int, rnd: int) -> list[Op]:
            seed = offset + rnd
            enum = [oracle_op(*ENUM_CONFIG, offset + ENUM_PER_ROUND * rnd + i, "pattern-enum")
                    for i in range(ENUM_PER_ROUND)]
            return [oracle_op(*ORACLE_CONFIG, seed, "random-search", wl.ratios)] + enum

        wl.rounds = oracle_round
        return wl
    raise KeyError(name)


WORKLOADS = ("bound-table", "descent", "oracle", "certify")
