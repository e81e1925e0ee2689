"""Largest-eigenvalue estimation for dense symmetric matrices.

* ``power_iteration``     -- iterative, converges to the dominant eigenvalue
* ``_max_top_eigenvalue`` -- exact over a stream of batches of matrices: one eigvalsh per matrix, in
  decreasing order of a certified bound, stopping where the bound falls below the best so far

Nothing here knows the ReLU model: the Gershgorin and Cassini bounds alpha3 and
alpha4 are in relu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _owned

SYMMETRY_RTOL = 1e-10
RQ_CHANGE_TOL = 1e-10
RESIDUAL_RTOL = 1e-8
MAX_POWER_ITERATIONS = 100_000
_BATCH_ENTRIES = 2e6  # float64 entries a stack of matrices may take, with the screen's two working arrays (16 MB)
_BATCH_MATRICES = 256  # matrices per stacked batch, within _BATCH_ENTRIES: more grow peak memory, not speed
_TOP_SOLVE_BLOCK = 8  # _max_top_eigenvalue solves a batch of at most this many matrices without a bound
_TOP_BOUND_RTOL = 1e-10  # widening of the centred trace-power bound, on top of 16 d^2 ulps


def _stack_size(d: int, held: int = 0) -> int:
    """Matrices per (m, d, d) stack in _BATCH_ENTRIES: 3 d^2 entries each (the screen's), or ``held`` (a caller's)."""
    return int(max(1, min(_BATCH_MATRICES, _BATCH_ENTRIES // max(3 * d * d, held))))


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense symmetric matrix, symmetry verified at construction; entries are a read-only copy (see errors._owned)."""

    entries: np.ndarray

    def __post_init__(self):
        a = _owned(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise InvalidInputError("matrix size must be at least 1")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("matrix entries must be finite")
        tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(a))
        if not np.all(np.abs(a - a.T) <= tol):
            raise InvalidInputError("matrix is not symmetric within tolerance")
        object.__setattr__(self, "entries", a)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Dominant eigenpair as returned by power iteration.

    ``converged`` requires the residual bound ||Mv - value*v|| <=
    RESIDUAL_RTOL * max(1, |value|); the Rayleigh quotient may settle even
    when the vector still oscillates between nearly degenerate directions,
    in which case ``converged`` stays False.
    """

    value: float
    vector: np.ndarray
    iterations: int
    converged: bool


def power_iteration(m: SymMatrix) -> EigenResult:
    """Largest-magnitude eigenvalue of a symmetric matrix.

    For the positive semi-definite Gram-type matrices used throughout this
    package the largest-magnitude eigenvalue is the largest eigenvalue.
    Deterministic start (normalized all-ones with a 1e-6 perturbation on the
    first coordinate); stops when the Rayleigh quotient changes by less than
    RQ_CHANGE_TOL * max(1, |value|).
    """
    a = m.entries
    n = m.size
    v = np.ones(n) / np.sqrt(n)
    v[0] += 1e-6
    v /= np.linalg.norm(v)

    av = a @ v
    lam = float(v @ av)
    iterations = 0
    converged = False
    for _ in range(MAX_POWER_ITERATIONS):
        iterations += 1
        norm_av = np.linalg.norm(av)
        if norm_av == 0.0:
            # v lies in the null space: (0, v) is an exact eigenpair
            lam = 0.0
            converged = True
            break
        v = av / norm_av
        av = a @ v
        new_lam = float(v @ av)
        residual = float(np.linalg.norm(av - new_lam * v))
        settled = abs(new_lam - lam) <= RQ_CHANGE_TOL * max(1.0, abs(new_lam))
        lam = new_lam
        if settled and residual <= RESIDUAL_RTOL * max(1.0, abs(lam)):
            # the Rayleigh quotient value settles first; keep polishing the
            # vector until the residual bound holds too (nearly degenerate top
            # eigenvalues may exhaust the budget, leaving converged False)
            converged = True
            break
    return EigenResult(value=lam, vector=v, iterations=iterations, converged=converged)


def _top_eigenvalue_bound(mats: np.ndarray) -> np.ndarray:
    """A certified bound u >= lambda_max per matrix of a batch (m, d, d) of symmetric matrices: with
    c = tr(G)/d and B = G - cI, every eigenvalue has lambda - c <= tr(B^8)^(1/8) =: r (an even power).  B is
    scaled by G's largest entry, so its powers never overflow and underflow only where B << |c|; the widening
    covers that and a few d^2 ulps of ||G||_2 <= |c| + r.  A zero matrix has u = 0; NaN reads inf."""
    d = mats.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.einsum("ijj->i", mats) / d
        scale = np.maximum(np.abs(mats).max(axis=(1, 2)), np.finfo(float).tiny)
        a = mats / scale[:, None, None]
        a.reshape(-1, d * d)[:, :: d + 1] -= (c / scale)[:, None]  # a = B / scale: entries at most 2
        a = a @ a
        a = a @ a  # two squarings hold two (m, d, d) arrays at a time, not three
        r = scale * np.einsum("ijk,ijk->i", a, a) ** (1 / 8)  # tr(B^8) = ||B^4||_F^2
        u = c + r + (_TOP_BOUND_RTOL + 16 * d * d * np.finfo(float).eps) * (np.abs(c) + r)
    return np.where(np.isnan(u), np.inf, u)


def _max_top_eigenvalue(batches, floor: float = -np.inf) -> tuple[float, int]:
    """(max(floor, eigvalsh(mats)[:, -1].max()), the first index attaining it) over an iterable of (m, d, d)
    stacks of symmetric matrices, indices running on across stacks, bit for bit; the index is -1 if none beats
    floor, and NaN never wins.  Each matrix is solved alone, its stack in decreasing order of the bound u, until
    u falls below the best so far (lambda_max <= u < best).  A stack of at most _TOP_SOLVE_BLOCK gets u = inf."""
    best, first, offset = floor, -1, 0
    for mats in batches:
        bound = np.full(len(mats), np.inf) if len(mats) <= _TOP_SOLVE_BLOCK else _top_eigenvalue_bound(mats)
        for i in np.argsort(-bound, kind="stable"):
            if bound[i] < best:
                break
            top = np.linalg.eigvalsh(mats[i : i + 1])[0, -1]
            if (top, -offset - i) > (best, -first):  # a larger value, or a tie at a lower index
                best, first = float(top), int(offset + i)
        offset += len(mats)
    return best, first
