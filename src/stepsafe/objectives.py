"""Differentiable objectives and generic concavifier estimation.

A concavifier of f is a constant alpha such that (alpha/2)||x||^2 - f(x) is
convex; equivalently, f admits the quadratic upper model

    f(y) <= f(x) + grad f(x)^T (y - x) + (alpha/2) ||y - x||^2

for all x, y.  The inverse of a concavifier is a safe fixed step size for
gradient descent.  This module estimates the smallest such constant over a
compact box, either by sampling the Hessian spectrum or by maximizing the
mid-point acceleration quotient

    psi(x, y) = 4 [f(x) + f(y) - 2 f((x+y)/2)] / ||x - y||^2

whose supremum over a region characterizes the concavifier there.

An objective is one fused value-and-gradient callable, optionally with a
value-only callable: the quadratic-model check's f(y) and the three values of
each midpoint quotient need no gradient, so they go through ``evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .eigenbounds import _BATCH_ENTRIES, SymMatrix, _max_top_eigenvalue
from .errors import DegeneratePairError, InvalidInputError, UnsupportedOperationError, _as_integer

QUAD_CHECK_RTOL = 1e-9
MIDPOINT_SEPARATION_FLOOR = 1e-8
DIRECTED_STEP_SCALE = 1e-3
GRAD_CHECK_STEP_SCALE = 1e-6

ESTIMATE_METHODS = ("hessian-sampling", "midpoint-sup")


def _as_point(f: ObjectiveFunction, x, stack: bool = False) -> np.ndarray:
    """x as a point (dim,) of f, or with ``stack`` as a stack (m, dim) too: the one shape rule."""
    x = np.asarray(x, dtype=float)
    x = x.reshape(1) if x.ndim == 0 else x
    if x.shape != (f.dim,) and not (stack and x.ndim == 2 and x.shape[1] == f.dim):
        raise InvalidInputError(f"expected a point of dimension {f.dim}, got shape {x.shape}")
    return x


@dataclass
class ObjectiveFunction:
    """Scalar field over R^dim given by one callable x -> (f(x), grad f(x)),
    so a value and its gradient always come from the same point, plus an
    optional Hessian callable and an optional value-only callable x -> f(x).

    The callables are raw: every entry point of the package checks its points with
    _as_point first.  ``value`` maps a point (dim,) to f, or a stack (m, dim) to (m,)
    values (``evaluate`` rejects another shape), each the value ``value_and_gradient``
    returns; it saves the gradient where a caller needs none (``evaluate``)."""

    dim: int
    value_and_gradient: Callable[[np.ndarray], tuple[float, np.ndarray]]
    hessian: Optional[Callable[[np.ndarray], SymMatrix]] = None
    value: Optional[Callable[[np.ndarray], float | np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInputError("dimension must be at least 1")

    def evaluate(self, x) -> float | np.ndarray:
        x = _as_point(self, x, stack=True)
        if x.ndim == 1:
            return self._value_at(x)
        fx = np.asarray(self.value(x) if self.value is not None else [self._value_at(row) for row in x], dtype=float)
        if fx.shape != x.shape[:1]:
            raise InvalidInputError(f"value returned shape {fx.shape} for a stack of shape {x.shape}")
        return fx

    def gradient(self, x) -> np.ndarray:
        return self.value_and_gradient(_as_point(self, x))[1]

    def _value_at(self, x: np.ndarray) -> float:
        """f at a point that _as_point has checked, from ``value`` when it is set."""
        return float(self.value(x) if self.value is not None else self.value_and_gradient(x)[0])


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """Axis-aligned box with a sample-count budget for the estimators."""

    lower: np.ndarray
    upper: np.ndarray
    budget: int

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InvalidInputError("lower and upper must be vectors of equal length")
        if not np.all(lo <= hi):
            raise InvalidInputError("lower must be <= upper componentwise")
        with np.errstate(over="ignore", invalid="ignore"):  # a finite width needs finite sides; rng.uniform needs it
            if not np.isfinite(hi - lo).all():
                raise InvalidInputError("lower, upper and upper - lower must be finite")
        if _as_integer(self.budget, "budget") < 1:
            raise InvalidInputError("budget must be at least 1")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def center(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(count, self.dim))


@dataclass(frozen=True, eq=False)
class ConcavifierEstimate:
    """Sampled estimate of the optimal concavifier over a box.

    Both estimators report a lower bound on the true supremum (the maximum
    over finitely many samples), clamped at zero since a concavifier is a
    non-negative constant.
    """

    value: float
    method: str
    samples_used: int
    witness: object

    def __post_init__(self):
        if self.method not in ESTIMATE_METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        if self.value < 0.0:
            raise InvalidInputError("estimate value must be non-negative")


@dataclass(frozen=True)
class QuadraticCheck:
    holds: bool
    slack: float


def upper_quadratic_check(f: ObjectiveFunction, x, y, alpha: float) -> QuadraticCheck:
    """Test f(y) <= f(x) + grad f(x)^T (y-x) + (alpha/2)||y-x||^2.

    slack is the left-over of the right-hand side; the check passes when
    slack >= -1e-9 * max(1, |f(x)|).
    """
    x = _as_point(f, x)
    y = _as_point(f, y)
    if not 0.0 <= alpha < np.inf:  # False for NaN
        raise InvalidInputError("alpha must be non-negative and finite")
    fx, gx = f.value_and_gradient(x)
    fx = float(fx)
    diff = y - x
    slack = fx + float(gx @ diff) + 0.5 * alpha * float(diff @ diff) - f._value_at(y)
    tol = QUAD_CHECK_RTOL * max(1.0, abs(fx))
    return QuadraticCheck(holds=slack >= -tol, slack=slack)


def midpoint_acceleration(f: ObjectiveFunction, x, y) -> float | np.ndarray:
    """psi(x, y) = 4 [f(x) + f(y) - 2 f((x+y)/2)] / ||x - y||^2 for one pair, or the
    (m,) quotients of two stacks (m, dim) row by row; three ``evaluate`` calls either way."""
    x, y = _as_point(f, x, stack=True), _as_point(f, y, stack=True)
    if x.shape != y.shape:
        raise InvalidInputError(f"point shapes {x.shape} and {y.shape} differ")
    sep2 = np.sum((x - y) ** 2, axis=-1)
    if np.any(sep2 < MIDPOINT_SEPARATION_FLOOR**2):
        raise DegeneratePairError("points are closer than the separation floor")
    psi = 4.0 / sep2 * (f.evaluate(x) + f.evaluate(y) - 2.0 * f.evaluate((x + y) / 2.0))
    return float(psi) if x.ndim == 1 else psi


def estimate_concavifier_midpoint(
    f: ObjectiveFunction, domain: BoxDomain, rng: np.random.Generator | None = None
) -> ConcavifierEstimate:
    """Maximize the mid-point quotient over sampled pairs.

    Half the budget goes to uniform random pairs, half to short pairs
    (x, x + eps*u) with u the eigenvector of the largest Hessian eigenvalue
    at the box center when a Hessian is available, else the coordinate axes.
    eps is 1e-3 times the box diameter.  The witness is the first pair with the
    largest quotient; a NaN quotient counts in samples_used but never wins.
    """
    _as_point(f, domain.lower)
    if domain.budget < 2:
        raise InvalidInputError("midpoint estimation needs a budget of at least 2")
    if domain.diameter < MIDPOINT_SEPARATION_FLOOR:
        raise DegeneratePairError("domain diameter is below the separation floor")
    rng = rng if rng is not None else np.random.default_rng(0)

    n_uniform = domain.budget // 2
    n_directed = domain.budget - n_uniform
    eps = DIRECTED_STEP_SCALE * domain.diameter
    # pairs much shorter than the directed step length carry no extra
    # information and their three-point cancellation noise grows like 1/sep^2
    min_sep2 = max((0.5 * eps) ** 2, MIDPOINT_SEPARATION_FLOOR**2)

    xs = domain.sample(rng, n_uniform)
    ys = domain.sample(rng, n_uniform)
    if f.hessian is not None:
        directions = np.linalg.eigh(f.hessian(domain.center).entries)[1][:, -1:].T
    else:
        directions = np.eye(f.dim)
    starts = domain.sample(rng, n_directed)
    steps = eps * directions[np.arange(n_directed) % len(directions)]
    ends = np.clip(starts + steps, domain.lower, domain.upper)
    # a step that the box clips too short goes the other way instead
    flip = np.sum((starts - ends) ** 2, axis=1) < min_sep2
    ends[flip] = np.clip(starts[flip] - steps[flip], domain.lower, domain.upper)
    xs, ys = np.vstack([xs, starts]), np.vstack([ys, ends])
    keep = np.sum((xs - ys) ** 2, axis=1) >= min_sep2
    xs, ys = xs[keep], ys[keep]
    psi = midpoint_acceleration(f, xs, ys)
    if not np.any(psi > -np.inf):  # False for NaN
        raise DegeneratePairError("no sampled pair exceeded the separation floor with a quotient above -inf")
    best = int(np.nanargmax(psi))  # the first maximum, NaN skipped
    return ConcavifierEstimate(
        value=max(0.0, float(psi[best])), method="midpoint-sup", samples_used=len(psi), witness=(xs[best], ys[best])
    )


def estimate_concavifier_hessian(
    f: ObjectiveFunction, domain: BoxDomain, rng: np.random.Generator | None = None
) -> ConcavifierEstimate:
    """Maximize the largest Hessian eigenvalue (dense eigvalsh, so no iteration has to converge) over
    sampled points in the box, their Hessians stacked in chunks of at most _BATCH_ENTRIES entries.
    The witness is the first sample with the largest value; a NaN value never wins."""
    if f.hessian is None:
        raise UnsupportedOperationError("objective does not provide a Hessian")
    _as_point(f, domain.lower)
    rng = rng if rng is not None else np.random.default_rng(0)

    xs = domain.sample(rng, domain.budget)
    step = int(max(1, _BATCH_ENTRIES // f.dim**2))
    best, witness = -np.inf, None
    for start in range(0, len(xs), step):
        best, first = _max_top_eigenvalue(np.stack([f.hessian(x).entries for x in xs[start : start + step]]), best)
        witness = xs[start + first] if first >= 0 else witness  # first = -1: no better sample here
    return ConcavifierEstimate(
        value=max(0.0, best), method="hessian-sampling", samples_used=domain.budget, witness=witness
    )


def central_difference_gradient(fun: Callable[[np.ndarray], float], x) -> np.ndarray:
    """Central finite-difference gradient with h = 1e-6 * max(1, ||x||)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = GRAD_CHECK_STEP_SCALE * max(1.0, float(np.linalg.norm(x)))
    stencil = h * np.eye(x.shape[0])
    return np.array([(float(fun(x + e)) - float(fun(x - e))) / (2.0 * h) for e in stencil])


def quadratic_objective(a) -> ObjectiveFunction:
    """f(x) = 0.5 x^T A x for a symmetric matrix A."""
    mat = SymMatrix(np.array(a, dtype=float))
    entries = mat.entries

    def value_and_gradient(x):
        g = entries @ x
        return 0.5 * float(x @ g), g

    return ObjectiveFunction(dim=mat.size, value_and_gradient=value_and_gradient, hessian=lambda x: mat)
