#!/usr/bin/env python3
"""Bound table over the six standard configurations, means over many seeds.

Runs `stepsafe bounds` once per configuration into DIR/d<d>_k<k>_n<n>/bounds.csv
and combines the mean rows into DIR/summary.csv.  Exit codes are those of
`stepsafe`: a bad --reps or --seed exits 1 before any file is written.
Run bare, it imports `stepsafe` from its own checkout's `src`.
"""

import sys
from pathlib import Path

try:
    import stepsafe  # noqa: F401
except ModuleNotFoundError:  # not installed and not on PYTHONPATH: this checkout's copy
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stepsafe import cli  # noqa: E402
from stepsafe.tableio import read_table, write_table  # noqa: E402

CONFIGS = [
    (10, 5, 1000),
    (10, 5, 10000),
    (5, 5, 1000),
    (50, 5, 1000),
    (10, 2, 1000),
    (10, 50, 1000),
]


def main(argv=None) -> int:
    parser = cli._Parser(prog="stepsafe", usage="python scripts/run_bound_table.py [--reps N] [--seed S] [--out DIR]",
                         description=__doc__)
    parser.add_argument("--reps", default="20")  # text: stepsafe's converters check it
    parser.add_argument("--seed", default="0")
    parser.add_argument("--out", type=Path, default=Path("results/bound_table"))
    args = parser.parse_args(argv)  # a usage error exits 1, as in stepsafe

    summary = []
    for d, k, n in CONFIGS:
        out = args.out / f"d{d}_k{k}_n{n}"
        code = cli.main(["bounds", "--d", str(d), "--k", str(k), "--n", str(n), "--seed", args.seed,
                         "--reps", args.reps, "--out", str(out), "--no-timestamp"])
        if code != cli.EXIT_OK:
            return code
        _, rows = read_table(out / "bounds.csv")
        mean = next(r for r in rows if r[0] == "mean")
        summary.append([float(d), float(k), float(n)] + mean[2:])

    out = args.out / "summary.csv"
    write_table(out, ["d", "k", "n", "alpha1", "alpha2", "alpha3", "alpha4"], summary)
    print(f"\nwrote {out}")
    for row in summary:
        print("  d=%g k=%g n=%g  a1=%.4f a2=%.4f a3=%.4f a4=%.4f" % tuple(row))
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
