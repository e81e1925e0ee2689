#!/usr/bin/env python3
"""Report how far the CSV files of two run trees drift apart.

    python scripts/compare_outputs.py A B

A and B are run trees, such as two checkouts' `scripts/output_digests.py --keep`
directories.  For each CSV file (by path relative to its tree) whose bytes
differ, prints one line: the file, then each column with its largest difference
|a - b| over its rows, relative to the largest finite magnitude in that column
over both files' rows (0 where every cell matches; inf where a cell is NaN or
infinite on one side only, or where text differs).  Relative to the column, not
to the cell, so a small cell that differences near-equal numbers (a `stddev`
row, a descent gap) and moves by an ulp of those numbers reads as an ulp-sized
drift, not as one of its own size.
A file whose header or row count differs, or that exists in one tree only, is
flagged instead.  The last line gives each column's largest difference over
all files.  Exits 1 if anything was flagged, else 0.  Run bare, it imports
`stepsafe` from its own checkout's `src`.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

try:
    import stepsafe  # noqa: F401
except ModuleNotFoundError:  # not installed and not on PYTHONPATH: this checkout's copy
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stepsafe.tableio import read_table  # noqa: E402


def _drift(col_a, col_b) -> float:
    scale = max((abs(v) for v in col_a + col_b if not isinstance(v, str) and np.isfinite(v)), default=0.0)
    drift = 0.0
    for a, b in zip(col_a, col_b):
        if a == b or (a != a and b != b):  # equal, or NaN on both sides
            continue
        if isinstance(a, str) or isinstance(b, str) or not np.isfinite([a, b]).all():
            return float("inf")
        drift = max(drift, abs(a - b) / scale)  # a != b, both finite: scale > 0
    return drift


def compare(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.glob("**/*.csv")}
    files_b = {p.relative_to(b) for p in b.glob("**/*.csv")}
    flagged, overall, same = 0, {}, 0
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {a if rel in files_a else b}")
        flagged += 1
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() == (b / rel).read_bytes():
            same += 1
            continue
        (head_a, rows_a), (head_b, rows_b) = read_table(a / rel), read_table(b / rel)
        if head_a != head_b or len(rows_a) != len(rows_b):
            print(f"{rel}: header {head_a} and {len(rows_a)} rows against header {head_b} and {len(rows_b)} rows")
            flagged += 1
            continue
        drift = {name: _drift(col_a, col_b) for name, col_a, col_b in zip(head_a, zip(*rows_a), zip(*rows_b))}
        print(f"{rel}: " + "  ".join(f"{name} {value:.2g}" for name, value in drift.items()))
        for name, value in drift.items():
            overall[name] = max(overall.get(name, 0.0), value)
    print(f"{same} of {len(files_a & files_b)} shared files byte-identical; largest drift over the rest: "
          + ("  ".join(f"{name} {value:.2g}" for name, value in overall.items()) or "none"))
    return 1 if flagged else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, metavar="A")
    parser.add_argument("b", type=Path, metavar="B")
    opts = parser.parse_args()
    sys.exit(compare(opts.a, opts.b))
