#!/usr/bin/env python3
"""Descent traces at eta = 1/bound for each of the four bounds.

One trace file per (bound, seed); traces are plain CSV, plot with any tool.
"""

import argparse
from pathlib import Path

from stepsafe.cli import ExperimentSpec, cmd_train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--out", type=Path, default=Path("results/convergence"))
    args = parser.parse_args()

    spec = ExperimentSpec(
        d=args.d, k=args.k, n=args.n, seed=args.seed, reps=args.reps,
        steps=args.steps, bounds=("alpha1", "alpha2", "alpha3", "alpha4"),
        out=args.out, no_timestamp=True,
    )
    spec.validate()
    cmd_train(spec)


if __name__ == "__main__":
    main()
