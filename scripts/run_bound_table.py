#!/usr/bin/env python3
"""Bound table over the six standard configurations, means over many seeds.

Writes one bounds.csv per configuration plus a combined summary table.
"""

import argparse
from pathlib import Path

from stepsafe.cli import ExperimentSpec, cmd_bounds
from stepsafe.tableio import read_table, write_table

CONFIGS = [
    (10, 5, 1000),
    (10, 5, 10000),
    (5, 5, 1000),
    (50, 5, 1000),
    (10, 2, 1000),
    (10, 50, 1000),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("results/bound_table"))
    args = parser.parse_args()

    summary = []
    for d, k, n in CONFIGS:
        spec = ExperimentSpec(
            d=d, k=k, n=n, seed=args.seed, reps=args.reps,
            out=args.out / f"d{d}_k{k}_n{n}", no_timestamp=True,
        )
        spec.validate()
        path = cmd_bounds(spec)
        _, rows = read_table(path)
        mean = next(r for r in rows if r[0] == "mean")
        summary.append([float(d), float(k), float(n)] + mean[2:])

    out = args.out / "summary.csv"
    write_table(out, ["d", "k", "n", "alpha1", "alpha2", "alpha3", "alpha4"], summary)
    print(f"\nwrote {out}")
    for row in summary:
        print("  d=%g k=%g n=%g  a1=%.4f a2=%.4f a3=%.4f a4=%.4f" % tuple(row))


if __name__ == "__main__":
    main()
