"""Minimal delimited-text tables: one header row, comma-separated values.

Every CSV the package writes goes through ``write_table``.  Floats are written
with 17 significant digits so they round-trip exactly, bools as 0/1; readers
parse every cell as float when possible and keep it as text otherwise.
"""

from __future__ import annotations

from pathlib import Path

FLOAT_FMT = "%.17g"


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def write_table(path, header, rows, timestamp: str | None = None) -> None:
    """Write rows under a header row; ``header=None`` writes no header."""
    path = Path(path)
    with path.open("w") as fh:
        if timestamp is not None:
            fh.write(f"# generated: {timestamp}\n")
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


def read_table(path) -> tuple[list[str], list[list]]:
    path = Path(path)
    with path.open() as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise OSError(f"{path} holds no table")
    header = lines[0].split(",")
    rows = [[parse_cell(cell) for cell in ln.split(",")] for ln in lines[1:]]
    return header, rows
