#!/usr/bin/env python3
"""Monotonicity of descent at eta = scale/alpha2 over a grid of scale factors.

Compares two dataset sizes by default; emits per-run traces and a summary of
the non-monotone fraction per scale.
"""

import argparse
from pathlib import Path

from stepsafe.cli import ExperimentSpec, cmd_scale_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--sizes", type=str, default="1000,10000", help="comma list of n values")
    parser.add_argument("--scales", type=str, default="0.5,1,2,4")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--out", type=Path, default=Path("results/scale_sweep"))
    args = parser.parse_args()

    for n in (int(v) for v in args.sizes.split(",") if v.strip()):
        spec = ExperimentSpec(
            d=args.d, k=args.k, n=n, seed=args.seed, reps=args.reps, steps=args.steps,
            scales=tuple(float(v) for v in args.scales.split(",") if v.strip()),
            out=args.out / f"n{n}", no_timestamp=True,
        )
        spec.validate()
        print(f"-- n={n}")
        cmd_scale_sweep(spec)


if __name__ == "__main__":
    main()
