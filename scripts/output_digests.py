#!/usr/bin/env python3
"""Print a sha256 digest of every file and stdout the CLI writes on a fixed set of runs.

Runs `bounds`, `train` (all five bounds), `scale-sweep` and `oracle` with
--no-timestamp on the six standard configurations at seeds 0-2, plus a
pattern-enum `oracle` and a `train --bounds oracle,alpha2` with the default
(random-search) oracle on d2 k2 n8, a pattern-enum `oracle` on d4 k2 n20, a
default `train` on d20 k1 n50 (a shape whose forward-pass bits depend on the
layout of the inputs in the W X^T product), a `scale-sweep --scales 1,1e200
--steps 5` on d10 k5 n1000 at seeds 0-1 whose 1e200 runs diverge (so its
traces end on a non-finite loss), and two error paths: `bounds --d 0`
(invalid input) and a `train` on d1 k1 n1 whose one-draw random-search oracle
is 0 (numerical failure after the `alpha2` run).  Each run writes into its own directory under a temporary
directory; then comes `run_bound_table.py --reps 3`.  Prints one line
`sha256  run/file` per CSV and one `sha256  run/<stdout>` per run (stdout,
stderr and the exit code), with the output directory masked in the captured
stdout.  The `--help` texts and the usage error are digested
the same way, and so are the inputs and teacher files that `save_dataset`
writes for `generate_dataset` at seed 0 on each standard configuration, and
the pair it writes again after `load_dataset` has read those files back
(`reloaded_*`: each line repeats the digest of the file it re-saves).  Last
come library calls that no CLI run reaches, one line each for the bytes of the
value and the witness: `estimate_concavifier_hessian` (budget 16) and
`estimate_concavifier_midpoint` (budget 128) on the `loss_objective` of
d10 k5 n200 over [-1, 1]^50, at seeds 0-4 (the dataset's and the sampler's),
the value of a random-search `alpha_oracle` at budgets 1, 8, 9 and 300 on
d3 k2 n50 and d10 k5 n200 at seed 0, then two calls whose stacks are smaller
than 256: `estimate_concavifier_hessian` at budget 64 on the d50 k5 n200 loss
over [-1, 1]^250 at seeds 0-2, and a random-search `alpha_oracle` at budget 600
on d60 k2 n200 at seed 0; last, a random-search `alpha_oracle` at budget 300 on
d60 k2 n1200 at seed 0, whose upper-triangle products (1830 per point) fill two
point blocks and so are formed again for each chunk rather than held.

To check that a change keeps every output byte-identical, run it on both
checkouts with the same environment and diff the two listings:

    PYTHONPATH=<checkout>/src python scripts/output_digests.py > digests.txt

With `--keep DIR` (a new or empty directory) the listing is the same, but the
run tree is written to DIR and left there, with each run's masked captured text
in `DIR/<run>/stdout.txt`, the help texts and the usage error in
`DIR/help/<name>.txt`, and each library call's value and witness in
`DIR/library/<name>.csv` (a `value` column, repeated, beside a `witness` column
of its coordinates in order).  `scripts/compare_outputs.py` reports how far the
values of two checkouts' CSV files drift apart, and `diff -r` shows what moved
in a text.  Run bare, it imports `stepsafe` from its own checkout's `src`.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS: one summation order
os.environ["COLUMNS"] = "80"  # argparse wraps --help at the terminal width

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# run_bound_table puts this checkout's src on sys.path when stepsafe does not import
from run_bound_table import CONFIGS  # noqa: E402
from run_bound_table import main as bound_table  # noqa: E402

from stepsafe.cli import main  # noqa: E402
from stepsafe.objectives import BoxDomain, estimate_concavifier_hessian, estimate_concavifier_midpoint  # noqa: E402
from stepsafe.relu import (  # noqa: E402
    NetConfig,
    alpha_oracle,
    generate_dataset,
    load_dataset,
    loss_objective,
    save_dataset,
)
from stepsafe.tableio import write_table  # noqa: E402


def _runs():
    for d, k, n in CONFIGS:
        size = ["--d", str(d), "--k", str(k), "--n", str(n), "--seed", "0", "--reps", "3"]
        name = f"d{d}_k{k}_n{n}"
        yield f"bounds_{name}", ["bounds", *size]
        yield f"train_{name}", ["train", "--bounds", "alpha1,alpha2,alpha3,alpha4,oracle", *size]
        yield f"sweep_{name}", ["scale-sweep", *size]
        yield f"oracle_{name}", ["oracle", *size]
    small = ["--d", "2", "--k", "2", "--n", "8", "--seed", "0", "--reps", "3"]
    yield "oracle_enum_d2_k2_n8", ["oracle", "--oracle-strategy", "pattern-enum", *small]
    yield "oracle_enum_d4_k2_n20", ["oracle", "--oracle-strategy", "pattern-enum", "--d", "4", "--k", "2", "--n", "20",
                                    "--seed", "0", "--reps", "3"]
    yield "train_oracle_d2_k2_n8", ["train", "--bounds", "oracle,alpha2", *small]
    yield "train_d20_k1_n50", ["train", "--d", "20", "--k", "1", "--n", "50", "--seed", "0", "--reps", "3"]
    yield "sweep_diverged_d10_k5_n1000", ["scale-sweep", "--scales", "1,1e200", "--d", "10", "--k", "5", "--n", "1000",
                                          "--seed", "0", "--reps", "2", "--steps", "5"]
    yield "invalid_d0", ["bounds", "--d", "0"]
    yield "zero_oracle_d1_k1_n1", ["train", "--d", "1", "--k", "1", "--n", "1", "--bounds", "alpha2,oracle",
                                   "--oracle-strategy", "random-search", "--oracle-budget", "1"]


def _library_calls():
    for seed in range(5):
        f = loss_objective(generate_dataset(NetConfig(10, 5, 200, seed)))
        for name, estimate, budget in (("hessian", estimate_concavifier_hessian, 16),
                                       ("midpoint", estimate_concavifier_midpoint, 128)):
            box = BoxDomain(-np.ones(f.dim), np.ones(f.dim), budget)
            result = estimate(f, box, np.random.default_rng(seed))
            yield f"estimate_{name}_d10_k5_n200_seed{seed}", result.value, result.witness
    for d, k, n in ((3, 2, 50), (10, 5, 200)):
        data = generate_dataset(NetConfig(d, k, n, 0))
        for budget in (1, 8, 9, 300):
            yield f"random_search_d{d}_k{k}_n{n}_budget{budget}", alpha_oracle(data, k, "random-search", budget), ()
    for seed in range(3):  # stacks of 10 Hessians of dim 250
        f = loss_objective(generate_dataset(NetConfig(50, 5, 200, seed)))
        box = BoxDomain(-np.ones(f.dim), np.ones(f.dim), 64)
        result = estimate_concavifier_hessian(f, box, np.random.default_rng(seed))
        yield f"estimate_hessian_d50_k5_n200_seed{seed}", result.value, result.witness
    data = generate_dataset(NetConfig(60, 2, 200, 0))  # chunks of 185 directions
    yield "random_search_d60_k2_n200_budget600", alpha_oracle(data, 2, "random-search", 600), ()
    data = generate_dataset(NetConfig(60, 2, 1200, 0))  # two point blocks, their products formed per chunk
    yield "random_search_d60_k2_n1200_budget300", alpha_oracle(data, 2, "random-search", 300), ()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _keep_text(keep: Path | None, name: str, text: str) -> None:
    """Write a digested text to keep/name when --keep is given."""
    if keep is not None:
        (keep / name).parent.mkdir(parents=True, exist_ok=True)
        (keep / name).write_text(text, encoding="utf-8")


def _captured(argv, entry=main) -> str:
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = entry(argv)
    return f"{text.getvalue()}exit {code}\n"


def run(keep: Path | None = None) -> None:
    if keep is not None:
        keep.mkdir(parents=True, exist_ok=True)
        if any(keep.iterdir()):
            raise SystemExit(f"output_digests: --keep {keep} is not empty")
    with contextlib.nullcontext(str(keep)) if keep is not None else tempfile.TemporaryDirectory() as tmp:
        for name, argv in _runs():
            out = Path(tmp) / name
            text = _captured([*argv, "--out", str(out), "--no-timestamp"]).replace(str(out), "<out>")
            for path in sorted(out.glob("*.csv")):
                print(f"{_sha(path.read_bytes())}  {name}/{path.name}")
            print(f"{_sha(text.encode())}  {name}/<stdout>")
            _keep_text(keep, f"{name}/stdout.txt", text)
        out = Path(tmp) / "bound_table"
        text = _captured(["--reps", "3", "--out", str(out)], bound_table).replace(str(out), "<out>")
        for path in sorted(out.glob("**/*.csv")):
            print(f"{_sha(path.read_bytes())}  bound_table/{path.relative_to(out)}")
        print(f"{_sha(text.encode())}  bound_table/<stdout>")
        _keep_text(keep, "bound_table/stdout.txt", text)
        for d, k, n in CONFIGS:
            name = f"dataset_d{d}_k{k}_n{n}"
            paths = [Path(tmp) / f"{name}_{part}.csv" for part in ("inputs", "teacher")]
            save_dataset(generate_dataset(NetConfig(d, k, n, 0)), *paths)
            reloaded = [path.with_name(f"reloaded_{path.name}") for path in paths]
            save_dataset(load_dataset(*paths), *reloaded)
            for path in paths + reloaded:
                print(f"{_sha(path.read_bytes())}  {path.name}")
    for argv in ([], ["bounds"], ["train"], ["scale-sweep"], ["oracle"]):
        text = _captured([*argv, "--help"])
        print(f"{_sha(text.encode())}  help {' '.join(argv)}".rstrip())
        _keep_text(keep, f"help/{argv[0] if argv else 'stepsafe'}.txt", text)
    text = _captured(["bounds", "--bogus"])
    print(f"{_sha(text.encode())}  usage error")
    _keep_text(keep, "help/usage_error.txt", text)
    for name, value, witness in _library_calls():
        witness = np.asarray(witness, dtype=float)
        print(f"{_sha(np.float64(value).tobytes() + witness.tobytes())}  {name}")
        if keep is not None:  # the value on every row, beside the witness coordinates in order
            (keep / "library").mkdir(exist_ok=True)
            rows = [[float(value), float(w)] for w in witness.ravel()] or [[float(value)]]
            write_table(keep / "library" / f"{name}.csv", ["value", "witness"][: len(rows[0])], rows)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--keep", type=Path, metavar="DIR", help="write the run tree to DIR and leave it there")
    run(parser.parse_args().keep)
