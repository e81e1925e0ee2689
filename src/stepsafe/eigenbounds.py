"""Largest-eigenvalue estimation for dense symmetric matrices.

Four estimators with very different cost/tightness trade-offs:

* ``power_iteration``    -- iterative, tight (converges to the dominant eigenvalue)
* ``gershgorin_upper``   -- closed form, one pass over the rows
* ``brauer_cassini_upper`` -- closed form over row pairs, never looser than Gershgorin
  in its standard form
* ``_max_top_eigenvalue`` -- exact over a batch of matrices, screened by a certified bound,
  solved in blocks of at most 8 matrices and 800 entries (a 50 x 50 matrix alone)

The Gershgorin and Cassini formulas need only a diagonal and row radii, never
the matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

SYMMETRY_RTOL = 1e-10
RQ_CHANGE_TOL = 1e-10
RESIDUAL_RTOL = 1e-8
MAX_POWER_ITERATIONS = 100_000
_BATCH_ENTRIES = 2e6  # float64 entries per stacked batch of matrices (16 MB)
_TOP_SOLVE_BLOCK = 8  # most matrices per eigvalsh call in _max_top_eigenvalue, and most solved without a bound
_TOP_SOLVE_ENTRIES = 800  # most entries per eigvalsh call once the bound screens: one 50 x 50 matrix at a time
_TOP_BOUND_RTOL = 1e-10  # widening of the centred trace-power bound, on top of 16 d^2 ulps

ALPHA4_VARIANTS = ("standard", "paper")


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense symmetric matrix, symmetry verified at construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
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


def _diag_radii(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diag = np.diag(a)
    return diag, np.abs(a).sum(axis=1) - np.abs(diag)


def _gershgorin(diag: np.ndarray, radii: np.ndarray) -> float:
    return float((diag + radii).max())


def _cassini(diag: np.ndarray, radii: np.ndarray, variant: str, twinned: bool = False) -> float:
    """Cassini value maximized over row pairs i != j, and over (i, i) too when each
    row has an equal twin (the same coordinate in another block of J_k x S)."""
    if variant not in ALPHA4_VARIANTS:
        raise InvalidInputError(f"unknown variant {variant!r}; expected one of {ALPHA4_VARIANTS}")
    mean = (diag[:, None] + diag[None, :]) / 2.0
    gap = diag[:, None] - diag[None, :]
    inside = (gap / 2.0) ** 2 if variant == "standard" else gap**2
    vals = mean + np.sqrt(inside + radii[:, None] * radii[None, :])
    if not twinned:
        np.fill_diagonal(vals, -np.inf)
    return float(vals.max())


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


def _max_top_eigenvalue(mats: np.ndarray, floor: float = -np.inf) -> tuple[float, int]:
    """(max(floor, eigvalsh(mats)[:, -1].max()), the first index attaining it) for a batch (m, d, d) of
    symmetric matrices, bit for bit; the index is -1 if none beats floor, and NaN never wins.  A batch of at
    most _TOP_SOLVE_BLOCK is solved whole: large matrices come few, and cost a solve to bound.  Otherwise
    eigvalsh runs in decreasing order of the bound u, where u >= best so far (a skipped one has lambda_max
    <= u < best), in blocks of at most _TOP_SOLVE_BLOCK matrices and _TOP_SOLVE_ENTRIES entries, so that a
    solve of a large matrix is not spent where its bound would have skipped it."""
    if len(mats) <= _TOP_SOLVE_BLOCK:
        bound, size = np.full(len(mats), np.inf), _TOP_SOLVE_BLOCK
    else:
        bound = _top_eigenvalue_bound(mats)
        size = min(_TOP_SOLVE_BLOCK, max(1, _TOP_SOLVE_ENTRIES // mats.shape[-1] ** 2))
    order = np.argsort(-bound)
    best, first = floor, -1
    for start in range(0, len(order), size):
        block = order[start : start + size]
        if bound[block[0]] < best:  # bounds decrease along order: no later matrix can reach best
            break
        block = np.sort(block[bound[block] >= best])  # index order: argmax takes the first of a tie
        tops = np.linalg.eigvalsh(mats[block])[:, -1]
        i = int(np.argmax(np.where(np.isnan(tops), -np.inf, tops)))
        if (tops[i], -block[i]) > (best, -first):  # a larger value, or a tie at a lower index
            best, first = float(tops[i]), int(block[i])
    return best, first


def gershgorin_upper(m: SymMatrix) -> float:
    """max_i (m_ii + R_i) with R_i the off-diagonal absolute row sum."""
    return _gershgorin(*_diag_radii(m.entries))


def brauer_cassini_upper(m: SymMatrix, variant: str = "standard") -> float:
    """Upper spectral bound from the ovals of Cassini, maximized over row pairs.

    ``standard`` uses ((m_ii - m_jj)/2)^2 inside the square root and is never
    looser than the Gershgorin bound.  ``paper`` keeps (m_ii - m_jj)^2
    unhalved, which can exceed Gershgorin when the diagonal is uneven; it is
    retained only for comparison runs.
    """
    if m.size < 2:
        raise InvalidInputError("the pairwise bound requires a matrix of size >= 2")
    return _cassini(*_diag_radii(m.entries), variant)
