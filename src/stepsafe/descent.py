"""Fixed-step gradient descent with per-step descent-inequality verification.

Every run records the objective value and the gradient norm of each iterate; its trace derives from them the
descent gap of each step t

    g_t = f(x_t) - f(x_{t+1}) - (eta/2) ||grad f(x_t)||^2

which is non-negative (up to round-off) whenever 1/eta is a valid concavifier of f over the visited region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _as_count, _owned
from .objectives import ObjectiveFunction, _as_point
from .tableio import read_floats, write_table

DESCENT_SLACK_RTOL = 1e-9

TRACE_COLUMNS = ("step", "loss", "grad_norm", "descent_gap", "monotone_so_far")


@dataclass(frozen=True, eq=False)
class DescentConfig:
    """Step size, step budget and initial point (a read-only copy).  Every run takes
    the full step budget unless an iterate's loss or gradient norm is not finite."""

    eta: float
    steps: int
    x0: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.eta < np.inf:  # False for NaN
            raise InvalidInputError("step size must be positive and finite")
        _as_count(self.steps, "step budget")
        object.__setattr__(self, "x0", _owned(self.x0, ndmin=1))


@dataclass(frozen=True, eq=False)
class DescentTrace:
    """Per-step record of a descent run: the loss and gradient norm of each recorded iterate (at most steps+1;
    only the last row may be non-finite), and the gaps and flags derived from them on each read.  gaps[t] is the
    descent gap of step t; monotone_so_far[t] says rows 0..t are finite and no loss rose by more than
    DESCENT_SLACK_RTOL * max(1, |f(x_s)|) in a step s < t.  So a run diverged iff its last row is not finite.
    """

    losses: np.ndarray
    grad_norms: np.ndarray
    final_point: np.ndarray
    eta: float

    @property
    def steps_taken(self) -> int:
        return self.losses.shape[0] - 1

    @property
    def diverged(self) -> bool:
        return not (np.isfinite(self.losses[-1]) and np.isfinite(self.grad_norms[-1]))

    @property
    @np.errstate(over="ignore", invalid="ignore")
    def gaps(self) -> np.ndarray:
        gn = self.grad_norms[:-1]
        return self.losses[:-1] - self.losses[1:] - 0.5 * self.eta * gn * gn

    @property
    def monotone_so_far(self) -> np.ndarray:
        before, after = self.losses[:-1], self.losses[1:]
        ok = np.isfinite(self.losses) & np.isfinite(self.grad_norms)
        ok[1:] &= after <= before + DESCENT_SLACK_RTOL * np.maximum(1.0, np.abs(before))
        return np.logical_and.accumulate(ok)

    @property
    def monotone(self) -> bool:
        return bool(self.monotone_so_far[-1])


@np.errstate(over="ignore", invalid="ignore")
def run_descent(f: ObjectiveFunction, config: DescentConfig) -> DescentTrace:
    """Iterate x <- x - eta * grad f(x) for the configured number of steps, with one value-and-gradient call
    per step, and record each iterate's loss and gradient norm.

    The run stops at the first iterate whose loss or gradient norm is not finite (-inf too).  That iterate is
    the trace's last row, so the trace reads diverged and ends on flag 0; numpy's overflow and invalid-value
    warnings are muted meanwhile, since that row reports them.
    """
    x = _as_point(f, config.x0)
    fx, g = f.value_and_gradient(x)
    fx, g = float(fx), np.asarray(g, dtype=float)
    if not math.isfinite(fx):
        raise InvalidInputError("objective is not finite at the initial point")

    gn = float(np.sqrt(g @ g))  # what np.linalg.norm computes for a flat vector, without its dispatch
    losses, grad_norms = [fx], [gn]

    for _ in range(config.steps):
        if not (math.isfinite(fx) and math.isfinite(gn)):
            break
        x = x - config.eta * g
        fx, g = f.value_and_gradient(x)
        fx, g = float(fx), np.asarray(g, dtype=float)
        gn = float(np.sqrt(g @ g))
        losses.append(fx)
        grad_norms.append(gn)

    return DescentTrace(losses=np.asarray(losses), grad_norms=np.asarray(grad_norms), final_point=x, eta=config.eta)


def save_trace(trace: DescentTrace, path, timestamp: str | None = None) -> None:
    """Write a trace as delimited text, one row per iterate: step, loss, grad_norm, descent_gap,
    monotone_so_far.  The final row has no completed step, so its gap is nan."""
    rows = zip(range(trace.losses.shape[0]), trace.losses.tolist(), trace.grad_norms.tolist(),
               [*trace.gaps.tolist(), float("nan")], trace.monotone_so_far.tolist())
    write_table(path, TRACE_COLUMNS, rows, timestamp=timestamp)


def load_trace(path) -> dict[str, np.ndarray]:
    """Read a trace file back into column arrays, one per header name (comment lines are skipped): the five
    TRACE_COLUMNS, in any order, and any further columns.  A file that lacks one of the five or repeats a
    name (so is not a trace), has a ragged row or a text cell, or whose steps are not 0, 1, ..., rows-1 or
    whose monotone_so_far cells are not 0 or 1, raises InvalidInputError."""
    header, table = read_floats(path)
    if not set(TRACE_COLUMNS) <= set(header) or len(set(header)) < len(header):
        raise InvalidInputError(f"{path} is not a descent trace file")
    cols = dict(zip(header, table.T))
    if not np.array_equal(cols["step"], np.arange(table.shape[0])):
        raise InvalidInputError(f"{path}: steps are not 0, 1, ..., {table.shape[0] - 1}")
    if not np.isin(cols["monotone_so_far"], (0.0, 1.0)).all():
        raise InvalidInputError(f"{path}: a monotone_so_far cell is not 0 or 1")
    cols["step"] = cols["step"].astype(int)
    cols["monotone_so_far"] = cols["monotone_so_far"] == 1.0
    return cols
