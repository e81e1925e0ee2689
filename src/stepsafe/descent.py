"""Fixed-step gradient descent with per-step descent-inequality verification.

Every run records the objective value and the gradient norm of each iterate; its trace derives from them the
descent gap of each step t

    g_t = f(x_t) - f(x_{t+1}) - (eta/2) ||grad f(x_t)||^2

which is non-negative (up to round-off) whenever 1/eta is a valid concavifier of f over the visited region.
"""

from __future__ import annotations

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
    the full step budget unless the objective or its gradient turns non-finite."""

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
    """Per-step record of a descent run: the losses and gradient norms it measured, one per recorded iterate
    (at most steps+1; only the last loss may be non-finite), and the gaps and flags derived from them on each
    read.  gaps[t] is the descent gap of step t.  monotone_so_far[t] says every loss up to f(x_t) is finite and
    none rose by more than DESCENT_SLACK_RTOL * max(1, |f(x_s)|) in a step s < t.
    """

    losses: np.ndarray
    grad_norms: np.ndarray
    diverged: bool
    final_point: np.ndarray
    eta: float

    @property
    def steps_taken(self) -> int:
        return self.losses.shape[0] - 1

    @property
    @np.errstate(over="ignore", invalid="ignore")
    def gaps(self) -> np.ndarray:
        gn = self.grad_norms[:-1]
        return self.losses[:-1] - self.losses[1:] - 0.5 * self.eta * gn * gn

    @property
    def monotone_so_far(self) -> np.ndarray:
        before, after = self.losses[:-1], self.losses[1:]
        ok = np.isfinite(after) & (after <= before + DESCENT_SLACK_RTOL * np.maximum(1.0, np.abs(before)))
        return np.concatenate(([True], np.logical_and.accumulate(ok)))

    @property
    def monotone(self) -> bool:
        """The loss never rose beyond the slack tolerance anywhere in the trace, and the run did not diverge:
        a run stopped by a non-finite gradient at a finite loss records no flag of its own."""
        return bool(self.monotone_so_far[-1]) and not self.diverged


@np.errstate(over="ignore", invalid="ignore")
def run_descent(f: ObjectiveFunction, config: DescentConfig) -> DescentTrace:
    """Iterate x <- x - eta * grad f(x) for the configured number of steps, with one value-and-gradient call
    per step, and record each iterate's loss and gradient norm.

    The run stops, flagged diverged and so not monotone, once the objective or gradient turns non-finite.  An
    iterate with a non-finite objective (-inf too) is still recorded, so the trace shows the break on flag 0;
    numpy's overflow and invalid-value warnings are muted meanwhile, since the diverged flag reports them.
    """
    x = _as_point(f, config.x0)
    fx, g = f.value_and_gradient(x)
    fx, g = float(fx), np.asarray(g, dtype=float)
    if not np.isfinite(fx):
        raise InvalidInputError("objective is not finite at the initial point")

    gn = float(np.sqrt(g @ g))  # what np.linalg.norm computes for a flat vector, without its dispatch
    losses, grad_norms, diverged = [fx], [gn], False

    for _ in range(config.steps):
        if not np.isfinite(gn) and not np.all(np.isfinite(g)):  # a finite norm has a finite g
            diverged = True
            break
        x = x - config.eta * g
        fx, g = f.value_and_gradient(x)
        fx, g = float(fx), np.asarray(g, dtype=float)
        gn = float(np.sqrt(g @ g))
        losses.append(fx)
        grad_norms.append(gn)
        diverged = not np.isfinite(fx)
        if diverged:
            break

    return DescentTrace(losses=np.asarray(losses), grad_norms=np.asarray(grad_norms), diverged=diverged,
                        final_point=x, eta=config.eta)


def save_trace(trace: DescentTrace, path, timestamp: str | None = None) -> None:
    """Write a trace as delimited text, one row per iterate: step, loss, grad_norm, descent_gap,
    monotone_so_far.  The final row has no completed step, so its gap is nan."""
    rows = zip(range(trace.losses.shape[0]), trace.losses.tolist(), trace.grad_norms.tolist(),
               [*trace.gaps.tolist(), float("nan")], trace.monotone_so_far.tolist())
    write_table(path, TRACE_COLUMNS, rows, timestamp=timestamp)


def load_trace(path) -> dict[str, np.ndarray]:
    """Read a trace file back into column arrays, one per header name (comment lines are skipped): the five
    TRACE_COLUMNS, in any order, and any further columns.  A file that lacks one of the five or repeats a
    name (so is not a trace), or has a ragged row or a text cell, raises InvalidInputError."""
    header, table = read_floats(path)
    if not set(TRACE_COLUMNS) <= set(header) or len(set(header)) < len(header):
        raise InvalidInputError(f"{path} is not a descent trace file")
    cols = dict(zip(header, table.T))
    cols["step"] = cols["step"].astype(int)
    cols["monotone_so_far"] = cols["monotone_so_far"] != 0.0
    return cols
