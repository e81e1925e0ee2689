"""Fixed-step gradient descent with per-step descent-inequality verification.

Every run records, for each step t, the objective value, the gradient norm,
and the descent gap

    g_t = f(x_t) - f(x_{t+1}) - (eta/2) ||grad f(x_t)||^2

which is non-negative (up to round-off) whenever 1/eta is a valid concavifier
of f over the visited region.
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
    """Per-step record of a descent run.

    losses, grad_norms and monotone_so_far have one entry per recorded
    iterate (at most steps+1); gaps has one entry per step taken.
    monotone_so_far[t] says the loss never rose by more than
    DESCENT_SLACK_RTOL * max(1, |f(x_s)|) in any step s < t.
    """

    losses: np.ndarray
    grad_norms: np.ndarray
    gaps: np.ndarray
    monotone_so_far: np.ndarray
    diverged: bool
    final_point: np.ndarray
    eta: float

    @property
    def steps_taken(self) -> int:
        return self.gaps.shape[0]

    @property
    def monotone(self) -> bool:
        """The loss never rose beyond the slack tolerance anywhere in the trace, and the run did not diverge:
        a run stopped by a non-finite gradient at a finite loss records no flag of its own."""
        return bool(self.monotone_so_far[-1]) and not self.diverged


@np.errstate(over="ignore", invalid="ignore")
def run_descent(f: ObjectiveFunction, config: DescentConfig) -> DescentTrace:
    """Iterate x <- x - eta * grad f(x) for the configured number of steps,
    with one value-and-gradient call per step.

    The run stops, flagged diverged and so not monotone, once the objective or gradient turns non-finite.  An
    iterate with a non-finite objective is still recorded, with monotone flag 0, so the trace shows the break;
    numpy's overflow and invalid-value warnings are muted meanwhile, since the diverged flag reports them.
    """
    x = _as_point(f, config.x0)
    fx, g = f.value_and_gradient(x)
    fx, g = float(fx), np.asarray(g, dtype=float)
    if not np.isfinite(fx):
        raise InvalidInputError("objective is not finite at the initial point")

    gn = float(np.sqrt(g @ g))  # what np.linalg.norm computes for a flat vector, without its dispatch
    losses, grad_norms, gaps, monotone_so_far = [fx], [gn], [], [True]
    diverged = False

    for _ in range(config.steps):
        if not np.isfinite(gn) and not np.all(np.isfinite(g)):  # a finite norm has a finite g
            diverged = True
            break
        x = x - config.eta * g
        f_next, g = f.value_and_gradient(x)
        f_next, g = float(f_next), np.asarray(g, dtype=float)
        diverged = not np.isfinite(f_next)
        gaps.append(fx - f_next - 0.5 * config.eta * gn * gn)
        monotone_so_far.append(monotone_so_far[-1] and f_next <= fx + DESCENT_SLACK_RTOL * max(1.0, abs(fx)))
        fx, gn = f_next, float(np.sqrt(g @ g))
        losses.append(fx)
        grad_norms.append(gn)
        if diverged:
            break

    return DescentTrace(
        losses=np.asarray(losses),
        grad_norms=np.asarray(grad_norms),
        gaps=np.asarray(gaps),
        monotone_so_far=np.asarray(monotone_so_far),
        diverged=diverged,
        final_point=x,
        eta=config.eta,
    )


def save_trace(trace: DescentTrace, path, timestamp: str | None = None) -> None:
    """Write a trace as delimited text: step, loss, grad_norm, descent_gap,
    monotone_so_far.  The final row has no completed step, so its gap is nan.
    """
    gaps = trace.gaps.tolist() + [float("nan")] * (trace.losses.shape[0] - trace.gaps.shape[0])
    rows = zip(range(trace.losses.shape[0]), trace.losses.tolist(), trace.grad_norms.tolist(), gaps,
               trace.monotone_so_far.tolist())
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
