"""Command-line front end wiring the model, bounds and descent engine together.

Subcommands:

* ``bounds``      -- per-seed bound table plus mean/stddev summary rows
* ``train``       -- descent traces at eta = 1/bound for each selected bound
* ``scale-sweep`` -- descent traces at eta = scale/alpha2 over a scale grid
* ``oracle``      -- oracle next to the four bounds, with ratios

Exit codes: 0 success, 1 invalid input, 2 numerical failure, 3 I/O failure.
Per-run seeds derive from the master seed by fixed arithmetic: run r uses
seed + r for the data stream, (seed + r, 1) for the student init stream and
(seed + r, 2) for the oracle's random search.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import numbers
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import relu
from .descent import DescentConfig, run_descent, save_trace
from .errors import InvalidInputError, NumericalFailureError, _as_count
from .relu import NetConfig
from .tableio import read_lines, write_table

BOUND_CHOICES = ("alpha1", "alpha2", "alpha3", "alpha4", "oracle")
DEFAULT_BOUNDS = ("alpha1", "alpha2", "alpha3", "alpha4")
DEFAULT_SCALES = (0.5, 1.0, 2.0, 4.0)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NUMERICAL_FAILURE = 2
EXIT_IO_FAILURE = 3


@dataclass(frozen=True)
class ExperimentSpec:
    """Settings of one run.  Each field is a flag (--oracle-budget) and a
    spec-file key (oracle-budget):

      d, k, n          input dimension, hidden neurons, data points
      seed, reps       master seed and number of runs (seeds seed .. seed+reps-1)
      steps            descent steps per run
      scales           comma list of step scales for scale-sweep, e.g. 0.5,1,2,4
      bounds           comma subset of alpha1,alpha2,alpha3,alpha4,oracle
      out              output directory
      no_timestamp     leave out the '# generated:' comment line
      oracle_strategy  random-search or pattern-enum (alpha2 exactly)
      oracle_budget    random-search draws
    """

    d: int = 10
    k: int = 5
    n: int = 1000
    seed: int = 0
    reps: int = 1
    steps: int = 100
    scales: tuple = DEFAULT_SCALES
    bounds: tuple = DEFAULT_BOUNDS
    out: Path = Path("results")
    no_timestamp: bool = False
    oracle_strategy: str = "random-search"
    oracle_budget: int = 10_000

    def __post_init__(self):
        for name, kind in (("out", Path), ("scales", tuple), ("bounds", tuple)):  # a library caller's str or list
            try:
                object.__setattr__(self, name, kind(getattr(self, name)))
            except TypeError:
                raise InvalidInputError(f"bad {name} value {getattr(self, name)!r}") from None
        try:  # tuple("12") is ('1', '2'), and 10**400 overflows a float
            if any(type(s) is bool or not isinstance(s, numbers.Real) for s in self.scales):
                raise TypeError
            object.__setattr__(self, "scales", tuple(map(float, self.scales)))  # a float32 scale: a float32 step
        except (TypeError, OverflowError):
            raise InvalidInputError(f"bad scales value {self.scales!r}") from None
        NetConfig(self.d, self.k, self.n, self.seed)  # raises on a bad d, k, n or seed
        for name in ("reps", "steps", "oracle_budget"):
            _as_count(getattr(self, name), name)
        if not self.scales or not all(0.0 < s < np.inf for s in self.scales):
            raise InvalidInputError("scale factors must be finite and positive")
        if len({f"{s:g}" for s in self.scales}) < len(self.scales):  # traces are sweep_s<scale:g>_seed<s>.csv
            raise InvalidInputError(f"scale factors {self.scales} repeat a trace-file label (sweep_s<scale:g>)")
        bad = [b for b in self.bounds if b not in BOUND_CHOICES]
        if bad or not self.bounds:
            raise InvalidInputError(f"bound selection must be a nonempty subset of {BOUND_CHOICES}")
        if len(set(self.bounds)) < len(self.bounds):  # one column and one trace file per bound
            raise InvalidInputError(f"bound selection {self.bounds} repeats a bound")
        if self.oracle_strategy not in relu.ORACLE_STRATEGIES:
            raise InvalidInputError(f"oracle strategy must be one of {relu.ORACLE_STRATEGIES}")
        if not isinstance(self.no_timestamp, bool):
            raise InvalidInputError(f"no_timestamp must be a bool, got {self.no_timestamp!r}")

    def stamp(self) -> str | None:
        return None if self.no_timestamp else datetime.now(timezone.utc).isoformat()


# --- spec file + flag merging ------------------------------------------------


def _split(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


# Every ExperimentSpec field with the converter of its text value.  The table
# gives each subcommand its flags (--oracle-budget for oracle_budget) and
# the spec file its keys (oracle-budget); both hand over text, and
# build_spec converts it here.  A converter raises ValueError on bad text,
# and build_spec turns that into InvalidInputError naming the key.
FIELDS = {
    "d": int, "k": int, "n": int, "seed": int, "reps": int, "steps": int,
    "scales": lambda text: tuple(map(float, _split(text))), "bounds": _split,
    "out": Path, "no_timestamp": _parse_bool, "oracle_strategy": str, "oracle_budget": int,
}


def _key(name: str) -> str:
    return name.replace("_", "-")


def read_spec_file(path) -> dict:
    """Flat key=value UTF-8 file mirroring the flags, each key at most once; '#' starts a comment."""
    keys = {_key(name): name for name in FIELDS}
    values, seen = {}, {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected key = value")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise InvalidInputError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise InvalidInputError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        values[keys[key]], seen[key] = text, lineno
    return values


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Defaults, overridden by the spec file, overridden by explicit flags."""
    values = read_spec_file(args.spec) if args.spec is not None else {}
    values.update((name, getattr(args, name)) for name in FIELDS if getattr(args, name) is not None)
    for name, text in values.items():
        try:
            values[name] = FIELDS[name](text)
        except ValueError:
            raise InvalidInputError(f"bad {_key(name)} value {text!r}") from None
    return ExperimentSpec(**values)


# --- shared helpers -----------------------------------------------------------


def _bound_value(name: str, data: relu.ReluDataset, spec: ExperimentSpec) -> float:
    if name == "oracle":
        return relu.alpha_oracle(data, spec.k, spec.oracle_strategy, spec.oracle_budget)
    return getattr(relu, f"bound_{name}")(data, spec.k)


def _runs(spec: ExperimentSpec):
    """Create spec.out, then yield (seed, dataset) for each run."""
    spec.out.mkdir(parents=True, exist_ok=True)
    for seed in range(spec.seed, spec.seed + spec.reps):
        yield seed, relu.generate_dataset(NetConfig(spec.d, spec.k, spec.n, seed))


def _run_table(spec: ExperimentSpec, name: str, columns, values) -> list[float]:
    """Write spec.out/name with columns kind, seed, *columns: a row ["run", seed, *values(data)]
    per run, then mean and stddev rows over the numeric columns.  Returns the column means."""
    rows = [["run", float(seed), *values(data)] for seed, data in _runs(spec)]
    body = np.array([row[1:] for row in rows], dtype=float)
    rows += [["mean", *map(float, body.mean(axis=0))], ["stddev", *map(float, body.std(axis=0))]]
    write_table(spec.out / name, ["kind", "seed", *columns], rows, timestamp=spec.stamp())
    return rows[-2][2:]


def _descent_table(spec: ExperimentSpec, name: str, head, runs, report=None) -> list[list]:
    """Write spec.out/name with columns *head, eta, final_loss, monotone, diverged: for each seed
    and each (label, bound, scale, stem) of runs, descend from the seed's student init at eta = scale/value,
    value being the bound's value on the data (the one place a bound becomes a step size; each distinct eta
    descends once per seed), save the trace as <stem>_seed<seed>.csv and call report(seed, row) on the row
    [label, seed, value, eta, final_loss, monotone, diverged] as soon as it is done.  Returns the rows."""
    rows = []
    for seed, data in _runs(spec):
        objective = relu.loss_objective(data)
        x0 = relu.initial_weights(NetConfig(spec.d, spec.k, spec.n, seed)).flat
        descend = functools.cache(lambda eta: run_descent(objective, DescentConfig(eta=eta, steps=spec.steps, x0=x0)))
        for label, bound, scale, stem in runs:
            value = _bound_value(bound, data, spec)
            if not np.isfinite(value) or value <= 0.0:
                raise NumericalFailureError(f"bound {bound} is {value!r} at seed {seed}, so it gives no step size")
            trace = descend(scale / value)
            save_trace(trace, spec.out / f"{stem}_seed{seed}.csv", timestamp=spec.stamp())
            rows.append([label, float(seed), float(value), trace.eta, float(trace.losses[-1]), trace.monotone,
                         trace.diverged])
            if report is not None:
                report(seed, rows[-1])
    write_table(spec.out / name, [*head, "eta", "final_loss", "monotone", "diverged"], rows, timestamp=spec.stamp())
    return rows


# --- subcommands ---------------------------------------------------------------


def cmd_bounds(spec: ExperimentSpec) -> None:
    mean = _run_table(spec, "bounds.csv", spec.bounds,
                      lambda data: [_bound_value(b, data, spec) for b in spec.bounds])
    summary = ", ".join(f"{b}={v:.6g}" for b, v in zip(spec.bounds, mean))
    print(f"bounds: d={spec.d} k={spec.k} n={spec.n} reps={spec.reps} mean {summary}")
    print(f"wrote {spec.out / 'bounds.csv'}")


def cmd_train(spec: ExperimentSpec) -> None:
    def report(seed, row):
        print(f"train: {row[0]}={row[2]:.6g} eta={row[3]:.3e} seed={seed} final_loss={row[4]:.3e} monotone={row[5]}")

    runs = [(b, b, 1.0, f"train_{b}") for b in spec.bounds]
    _descent_table(spec, "train_summary.csv", ["bound", "seed", "bound_value"], runs, report)
    print(f"wrote {spec.out / 'train_summary.csv'}")


def cmd_scale_sweep(spec: ExperimentSpec) -> None:
    runs = [(s, "alpha2", s, f"sweep_s{s:g}") for s in spec.scales]
    rows = _descent_table(spec, "sweep_runs.csv", ["scale", "seed", "alpha2"], runs)
    summary = [[s, float(np.mean([not r[5] for r in rows if r[0] == s]))] for s in spec.scales]
    out = spec.out / "sweep_summary.csv"
    write_table(out, ["scale", "nonmonotone_fraction"], summary, timestamp=spec.stamp())
    for s, frac in summary:
        print(f"scale-sweep: scale={s:g} nonmonotone_fraction={frac:.2f}")
    print(f"wrote {out}")


def cmd_oracle(spec: ExperimentSpec) -> None:
    columns = ("oracle", "alpha1", "alpha2", "alpha3", "alpha4", "oracle_over_alpha2")

    def values(data):
        row = [_bound_value(b, data, spec) for b in columns[:-1]]
        return row + [row[0] / row[2]]

    mean = _run_table(spec, "oracle.csv", columns, values)
    print(f"oracle ({spec.oracle_strategy}): mean oracle/alpha2 = {mean[-1]:.4f}")
    print(f"wrote {spec.out / 'oracle.csv'}")


_COMMANDS = {
    "bounds": (cmd_bounds, "bound table over seeds"),
    "train": (cmd_train, "descent traces at eta = 1/bound"),
    "scale-sweep": (cmd_scale_sweep, "descent traces at eta = scale/alpha2"),
    "oracle": (cmd_oracle, "oracle next to the bounds"),
}


# --- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 1 for bad input
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> _Parser:
    """Built on first use and kept for the life of the process."""
    parser = _Parser(prog="stepsafe", description="Concavifier bounds and safe-step experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, epilog=inspect.cleandoc(ExperimentSpec.__doc__),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--spec", type=Path, help="key = value file with the flag names as keys; flags override it")
        for field in FIELDS:
            if field == "no_timestamp":  # a switch: present means "true"
                p.add_argument("--no-timestamp", action="store_const", const="true")
            else:
                p.add_argument(f"--{_key(field)}")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        spec = build_spec(args)
        _COMMANDS[args.command][0](spec)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID_INPUT
    except InvalidInputError as exc:
        print(f"stepsafe: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except NumericalFailureError as exc:
        print(f"stepsafe: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except OSError as exc:
        print(f"stepsafe: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
