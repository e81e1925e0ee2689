"""Minimal delimited-text tables: one header row, comma-separated values.

Every CSV the package writes goes through ``write_table`` and every one it
reads through ``read_table``.  Floats are written with 17 significant digits
so they round-trip exactly, bools as 0/1; the reader parses every cell as
float when possible and keeps it as text otherwise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InvalidInputError

FLOAT_FMT = "%.17g"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def _parse_cell(text: str):
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
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, minus a leading byte-order mark; non-UTF-8 raises InvalidInputError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_table(path, header: bool = True) -> tuple[list[str] | None, list[list]]:
    """Header and rows of a table written by write_table, skipping blank and
    '#' lines; header=False reads a file written with header=None and returns
    None for its header.  A file without rows, or a row whose width differs
    from the header's (or the first row's), raises InvalidInputError."""
    path = Path(path)
    lines = [ln.split(",") for ln in read_lines(path) if ln.strip() and not ln.startswith("#")]
    names = lines.pop(0) if header and lines else None
    if not lines:
        raise InvalidInputError(f"{path} holds no table")
    width = len(names or lines[0])
    for lineno, cells in enumerate(lines, start=1 + bool(names)):
        if len(cells) != width:
            raise InvalidInputError(f"{path}: table row {lineno} has {len(cells)} cells, expected {width}")
    return names, [[_parse_cell(cell) for cell in cells] for cells in lines]


def read_floats(path, header: bool = True) -> tuple[list[str] | None, np.ndarray]:
    """read_table for an all-numeric table: its rows as one (rows, width) float
    array.  A text cell raises InvalidInputError."""
    names, rows = read_table(path, header)
    text = next((cell for row in rows for cell in row if isinstance(cell, str)), None)
    if text is not None:
        raise InvalidInputError(f"{path} holds a non-numeric cell {text!r}")
    return names, np.array(rows, dtype=float)
