"""Single-hidden-layer ReLU teacher-student model and its concavifier bounds.

The network maps x in R^d to sum_j max(0, x^T w_j) over k hidden neurons
(no biases, output weights fixed to 1).  Targets come from a teacher with
the same architecture, so zero training loss is attainable.  The quadratic
loss over n points is

    l(w) = 1/(2n) * sum_i (f(x_i, w) - y_i)^2

whose almost-everywhere Hessian is (1/n) sum_i a(x_i, w) a(x_i, w)^T, where
a(x, w) stacks k copies of x, each masked by the activation indicator
1{x^T w_j >= 0} (so w = 0 activates every neuron), and abar(x) is the
all-active stack.  One forward pass serves targets, loss and gradient: the
neuron-major (k, n) product W X^T, its ReLU taken in place, summed over
neurons.  Four upper bounds on
the optimal concavifier:

    alpha1 = (k/n) sum_i ||x_i||^2          (per-point top-eigenvalue sum)
    alpha2 = lambda_max(M) = k lambda_max(S)   (all-active matrix, tight)
    alpha3 = Gershgorin bound on M = k max_i sum_j |S_ij|
    alpha4 = Brauer/Cassini bound on M  (standard variant: = alpha3 for k >= 2)

plus the oracle ``alpha_oracle`` for the exact constant.  The all-active
matrix M = (1/n) sum_i abar(x_i) abar(x_i)^T is J_k (x) S, with J_k the k x k
all-ones matrix and S = X^T X / n; every bound comes from the d x d matrix S
in O(nd^2 + d^3), whatever k is, and M is never built.

The oracle's optimum gives every neuron the same activation pattern s, so it
is (k/n) max_s lambda_max(X_s^T X_s) over the patterns of one direction v.
Since w = 0 activates every point, that maximum is alpha2 (pattern-enum);
random search hands eigenbounds the d x d Grams of many nonzero directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eigenbounds import _BATCH_ENTRIES, SymMatrix, _cassini, _gershgorin, _max_top_eigenvalue
from .errors import InvalidInputError, UnsupportedOperationError, _as_integer
from .objectives import ObjectiveFunction
from .tableio import read_floats, write_table

ORACLE_STRATEGIES = ("pattern-enum", "random-search")
PATTERN_ENUM_MAX_POINTS = 12
PATTERN_ENUM_MAX_DIM = 3
KINK_MARGIN_RTOL = 1e-6
STACK_CHUNK_ENTRIES = 2**13  # (m, k, n) entries per chunk of a stacked loss: 64 KB of float64
_DIRECTION_CHUNK = 256  # oracle directions per chunk: larger chunks grow peak memory, not speed

# seed stream tags for student initializations and the oracle search, kept
# distinct from data streams
INIT_STREAM = 1
ORACLE_STREAM = 2


@dataclass(frozen=True)
class NetConfig:
    """Problem size and data seed for one teacher-student instance."""

    d: int
    k: int
    n: int
    seed: int

    def __post_init__(self):
        for name in ("d", "k", "n", "seed"):
            _as_integer(getattr(self, name), name)
        if self.d < 1 or self.k < 1 or self.n < 1:
            raise InvalidInputError("d, k and n must all be at least 1")
        if self.seed < 0:  # numpy seeds are non-negative
            raise InvalidInputError("seed must be at least 0")


@dataclass(frozen=True, eq=False)
class Weights:
    """Flat weight vector in R^{k*d}; block j holds the weights of neuron j."""

    flat: np.ndarray
    k: int
    d: int

    def __post_init__(self):
        flat = np.atleast_1d(np.asarray(self.flat, dtype=float))
        if self.k < 1 or self.d < 1:
            raise InvalidInputError("k and d must be at least 1")
        if flat.shape != (self.k * self.d,):
            raise InvalidInputError(f"expected {self.k * self.d} weights, got shape {flat.shape}")
        object.__setattr__(self, "flat", flat)

    @property
    def matrix(self) -> np.ndarray:
        """Row j is the weight vector of neuron j."""
        return self.flat.reshape(self.k, self.d)


def _forward_all(inputs: np.ndarray, wmat: np.ndarray, z=None, active=None) -> np.ndarray:
    """The one forward pass, neuron-major: W X^T summed over neurons (axis -2: a stack (m, k, d) gives
    (m, n)), for targets and residuals alike, so the teacher's loss and gradient are exactly 0.  W X^T
    goes into ``z`` if given (a (k, n) buffer), ``active`` records z >= 0 if given, and the ReLU is taken
    in place on the product, which np.add.reduce (what ndarray.sum calls) sums over neurons."""
    zt = np.matmul(wmat, inputs.T, out=z)
    if active is not None:
        np.greater_equal(zt, 0.0, out=active)
    return np.add.reduce(np.maximum(zt, 0.0, out=zt), axis=-2)


@dataclass(frozen=True, eq=False)
class ReluDataset:
    """Teacher-generated inputs; targets are derived here as the teacher output."""

    inputs: np.ndarray
    teacher: Weights
    seed: int

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise InvalidInputError("inputs must be a nonempty (n, d) array")
        if inputs.shape[1] != self.teacher.d:
            raise InvalidInputError("input dimension does not match the teacher")
        if not (np.isfinite(inputs).all() and np.isfinite(self.teacher.flat).all()):
            raise InvalidInputError("inputs and teacher weights must be finite")
        object.__setattr__(self, "inputs", inputs)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @cached_property
    def targets(self) -> np.ndarray:
        """The teacher's outputs, computed on first read and kept: the bounds and
        the oracle never read them."""
        return _forward_all(self.inputs, self.teacher.matrix)

    @cached_property
    def second_moment(self) -> SymMatrix:
        """S = (1/n) sum_i x_i x_i^T, symmetrized against round-off; computed
        on first use and kept, since every bound but alpha1 needs it."""
        g = self.inputs.T @ self.inputs / self.n
        return SymMatrix((g + g.T) / 2.0)


def generate_dataset(config: NetConfig) -> ReluDataset:
    """Standard-Gaussian inputs and teacher weights, fully determined by the seed.

    Draw order is pinned: inputs first, then the teacher.
    """
    rng = np.random.default_rng(config.seed)
    inputs = rng.standard_normal((config.n, config.d))
    teacher = Weights(rng.standard_normal(config.k * config.d), k=config.k, d=config.d)
    return ReluDataset(inputs=inputs, teacher=teacher, seed=config.seed)


def initial_weights(config: NetConfig) -> Weights:
    """Student initialization, standard Gaussian from the seed stream
    (config.seed, INIT_STREAM), separate from the data stream."""
    rng = np.random.default_rng([config.seed, INIT_STREAM])
    return Weights(rng.standard_normal(config.k * config.d), k=config.k, d=config.d)


def forward_all(inputs, w: Weights) -> np.ndarray:
    """sum_j max(0, x_i^T w_j) for every row x_i of ``inputs``; the computation
    behind dataset targets, which ReluDataset derives from its teacher."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != w.d:
        raise InvalidInputError(f"expected an (n, {w.d}) input array, got shape {inputs.shape}")
    return _forward_all(inputs, w.matrix)


def _checked_matrix(w: Weights, data: ReluDataset) -> np.ndarray:
    """The (k, d) weight matrix of w, once its d is the data's input dimension."""
    if w.d != data.d:
        raise InvalidInputError("weight dimension does not match the data")
    return w.matrix


def _check_width(k: int) -> None:
    if _as_integer(k, "k") < 1:
        raise InvalidInputError("k must be at least 1")


def loss(w: Weights, data: ReluDataset) -> float:
    """1/(2n) sum_i (f(x_i, w) - y_i)^2, with f(x, w) = sum_j max(0, x^T w_j)."""
    return _loss_value(_checked_matrix(w, data), data.inputs, data.targets)


def _loss_terms(
    wmat: np.ndarray, inputs: np.ndarray, targets: np.ndarray, z=None, active=None
) -> tuple[np.ndarray, np.ndarray]:
    """The residuals f(x_i, w) - y_i of _forward_all (in its buffers, if given) and the loss, with
    the bits of 0.5 * np.mean(resid**2): the one residual code of both loss paths.  A stack
    (m, k, d) gives (m,) losses, each with the bits of its own call (one GEMM per matrix)."""
    resid = _forward_all(inputs, wmat, z, active) - targets
    return resid, 0.5 * (np.add.reduce(resid * resid, axis=-1) / len(targets))


def _loss_value(wmat: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> float | np.ndarray:
    """The loss at a (k, d) weight matrix, or the (m,) losses at a stack (m, k, d) in chunks of
    STACK_CHUNK_ENTRIES: the values of _loss_and_gradient bit for bit, without the gradient."""
    if wmat.ndim == 2:
        return float(_loss_terms(wmat, inputs, targets)[1])
    out, step = np.empty(len(wmat)), max(1, STACK_CHUNK_ENTRIES // (wmat.shape[1] * len(targets)))
    for i in range(0, len(wmat), step):
        out[i : i + step] = _loss_terms(wmat[i : i + step], inputs, targets)[1]
    return out


def _loss_and_gradient(
    wmat: np.ndarray, inputs: np.ndarray, targets: np.ndarray, work=None
) -> tuple[float, np.ndarray]:
    """Loss and flat gradient at the (k, d) weight matrix, in the (k, n) float and bool
    buffers ``work`` (fresh ones if None).  The masked residuals m overwrite the float
    buffer in Fortran order, so the gradient product m X is the BLAS call, with the bits,
    of the point-major form, and needs no (k, n) array of its own."""
    n = len(targets)
    z, active = work or (np.empty((len(wmat), n)), np.empty((len(wmat), n), dtype=bool))
    resid, value = _loss_terms(wmat, inputs, targets, z, active)
    m = np.multiply(active, resid, out=z.reshape(n, -1).T)
    return float(value), (m @ inputs / n).reshape(-1)


def gradient(w: Weights, data: ReluDataset) -> np.ndarray:
    """(1/n) sum_i (f(x_i, w) - y_i) * a(x_i, w), flat in R^{kd}."""
    return _loss_and_gradient(_checked_matrix(w, data), data.inputs, data.targets)[1]


def alpha_single_point(x, k: int) -> float:
    """Exact optimal concavifier of the single-point loss: k * ||x||^2."""
    _check_width(k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise InvalidInputError(f"expected one point, got shape {x.shape}")
    return float(k) * float(x @ x)


def bound_alpha1(data: ReluDataset, k: int) -> float:
    """(k/n) sum_i ||x_i||^2."""
    _check_width(k)
    return float(k) / data.n * float((data.inputs**2).sum())


def second_moment_matrix(data: ReluDataset) -> SymMatrix:
    """S = (1/n) sum_i x_i x_i^T, symmetrized against round-off (cached on the dataset)."""
    return data.second_moment


def allactive_gram_matrix(data: ReluDataset, k: int) -> SymMatrix:
    """Explicit kd x kd matrix M = (1/n) sum_i abar(x_i) abar(x_i)^T: the loss
    Hessian at w = 0, where the >= indicator activates every neuron.  A test
    reference only, since it takes O((kd)^2) memory."""
    _check_width(k)
    return loss_hessian_matrix(Weights(np.zeros(k * data.d), k=k, d=data.d), data)


def _allactive_rows(data: ReluDataset, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal S_ii and radius k sum_j |S_ij| - S_ii of the rows i of M = J_k (x) S."""
    _check_width(k)
    s = second_moment_matrix(data).entries
    diag = np.diag(s)
    return diag, k * np.abs(s).sum(axis=1) - diag


def bound_alpha2(data: ReluDataset, k: int) -> float:
    """(1/n) lambda_max(sum_i abar(x_i) abar(x_i)^T) = k lambda_max(S): stacking
    k copies of each data vector multiplies every eigenvalue of S by k."""
    _check_width(k)
    return float(k) * float(np.linalg.eigvalsh(second_moment_matrix(data).entries)[-1])


def bound_alpha3(data: ReluDataset, k: int) -> float:
    """Gershgorin upper bound on the all-active matrix: k max_i sum_j |S_ij|."""
    return _gershgorin(*_allactive_rows(data, k))


def bound_alpha4(data: ReluDataset, k: int, variant: str = "standard") -> float:
    """Brauer/Cassini bound on the all-active matrix over d x d row pairs plus, for
    k >= 2, twin rows (standard value: their Gershgorin value, so alpha4 = alpha3).
    At k*d = 1, M is the 1 x 1 matrix [S_11]: it has no row pairs, and its one
    (i, i) value is its Gershgorin value, its entry, so alpha4 = alpha3 = alpha2."""
    diag, radii = _allactive_rows(data, k)
    return _cassini(diag, radii, variant, twinned=k >= 2 or diag.size == 1)


def _shared_direction_search(data: ReluDataset, k: int, budget: int, rng: np.random.Generator) -> float:
    """(k/n) max lambda_max(sum_{x_i^T v >= 0} x_i x_i^T) over ``budget`` Gaussian directions v in R^d:
    a GEMM of the masks against the flattened outer products x_i x_i^T gives a chunk of d x d Grams for
    _max_top_eigenvalue.  Directions come in chunks of at most _DIRECTION_CHUNK (fewer once n or d^2
    passes 2e6 / _DIRECTION_CHUNK) and points in blocks (one unless n d^2 > 2e6), so masks, Grams and
    products stay small; one block's products are formed once per search, several blocks' per chunk."""
    n, d = data.inputs.shape

    def outer(x):  # the flattened x_i x_i^T of a point block, (rows, d^2)
        return (x[:, :, None] * x[:, None, :]).reshape(-1, d * d)

    chunk = int(max(1, min(_DIRECTION_CHUNK, _BATCH_ENTRIES // max(n, d * d))))
    rows = int(max(1, _BATCH_ENTRIES // (d * d)))
    blocks = [data.inputs[i : i + rows] for i in range(0, n, rows)]
    held = [outer(blocks[0])] if n <= rows else None
    best = 0.0
    for start in range(0, budget, chunk):
        v = rng.standard_normal((min(chunk, budget - start), d))
        products = held or map(outer, blocks)
        grams = sum(((x @ v.T) >= 0.0).T.astype(float) @ p for x, p in zip(blocks, products))
        best = _max_top_eigenvalue(grams.reshape(-1, d, d), best)[0]
    return float(k) * best / n


def alpha_oracle(
    data: ReluDataset,
    k: int,
    strategy: str,
    budget: int = 10_000,
    rng: np.random.Generator | None = None,
) -> float:
    """The optimal concavifier (1/n) max_w lambda_max of the masked Gram sum.

    Its optimum gives every neuron one activation pattern, so the search runs
    over one shared direction.  ``pattern-enum`` (n <= 12, d <= 3) returns
    alpha2: w = 0 activates every point, and X_s^T X_s <= X^T X makes that
    pattern the maximum.  ``random-search`` maximizes over ``budget`` nonzero
    directions and reports a lower bound on alpha2; its default stream is
    (data.seed, ORACLE_STREAM), apart from the data stream.
    """
    _check_width(k)
    if strategy not in ORACLE_STRATEGIES:
        raise InvalidInputError(f"unknown strategy {strategy!r}; expected one of {ORACLE_STRATEGIES}")
    if strategy == "pattern-enum":
        if data.n > PATTERN_ENUM_MAX_POINTS or data.d > PATTERN_ENUM_MAX_DIM:
            raise UnsupportedOperationError(
                f"pattern enumeration needs n <= {PATTERN_ENUM_MAX_POINTS} and d <= {PATTERN_ENUM_MAX_DIM}"
            )
        return bound_alpha2(data, k)
    if _as_integer(budget, "budget") < 1:
        raise InvalidInputError("budget must be at least 1")
    if rng is None:
        if data.seed < 0:
            raise InvalidInputError("dataset has no seed; pass rng")
        rng = np.random.default_rng([data.seed, ORACLE_STREAM])
    return _shared_direction_search(data, k, budget, rng)


def near_kink(w: Weights, data: ReluDataset) -> bool:
    """True when any |x_i^T w_j| <= 1e-6 * ||x_i|| * ||w_j|| (KINK_MARGIN_RTOL) at
    x_i != 0: w_j = 0 puts every such x_i on a boundary, and x_i = 0 has no kink in w.

    Gradient checks are skipped at such points: the loss gradient jumps across
    activation boundaries, so finite differences straddling one are meaningless.
    """
    z = np.abs(data.inputs @ _checked_matrix(w, data).T)
    xnorm = np.linalg.norm(data.inputs, axis=1)[:, None]
    scale = xnorm * np.linalg.norm(w.matrix, axis=1)[None, :]
    return bool(np.any((z <= KINK_MARGIN_RTOL * scale) & (xnorm > 0.0)))


def loss_hessian_matrix(w: Weights, data: ReluDataset) -> SymMatrix:
    """Almost-everywhere loss Hessian (1/n) sum_i a(x_i, w) a(x_i, w)^T."""
    mask = (data.inputs @ _checked_matrix(w, data).T) >= 0.0
    stacked = (mask[:, :, None] * data.inputs[:, None, :]).reshape(data.n, w.k * w.d)
    h = stacked.T @ stacked / data.n
    return SymMatrix((h + h.T) / 2.0)


def loss_objective(data: ReluDataset) -> ObjectiveFunction:
    """The training loss as an objective over flat weights in R^{kd}; each call
    works on flat.reshape(k, d) and the data's inputs and targets, read once here, and
    its value-only callable returns the fused call's value bit for bit without forming the
    gradient, also for a stack (m, kd).  The fused call reuses one (k, n) workspace that
    this objective owns, so one objective must not be called from two threads at once."""
    k, d = data.teacher.k, data.teacher.d
    inputs, targets = data.inputs, data.targets
    work = (np.empty((k, data.n)), np.empty((k, data.n), dtype=bool))

    def value_and_gradient(flat):
        return _loss_and_gradient(np.asarray(flat, dtype=float).reshape(k, d), inputs, targets, work)

    def value(flat):
        flat = np.asarray(flat, dtype=float)
        return _loss_value(flat.reshape(*flat.shape[:-1], k, d), inputs, targets)

    return ObjectiveFunction(
        dim=k * d,
        value_and_gradient=value_and_gradient,
        value=value,
        hessian=lambda flat: loss_hessian_matrix(Weights(flat, k=k, d=d), data),
    )


# --- delimited-text export/import ------------------------------------------
#
# Dataset file: header "x0,...,x{d-1},y", one row per point, written by
# tableio so float64 values round-trip exactly.  Teacher file: the kd weights,
# one per line, no header.


def save_dataset(data: ReluDataset, inputs_path, teacher_path) -> None:
    header = [f"x{i}" for i in range(data.d)] + ["y"]
    write_table(inputs_path, header, np.column_stack([data.inputs, data.targets]).tolist())
    write_table(teacher_path, None, [[v] for v in data.teacher.flat.tolist()])


def load_dataset(inputs_path, teacher_path, seed: int = -1) -> ReluDataset:
    """Load a dataset pair written by save_dataset.

    The teacher width k is recovered from the weight-file length.  Datasets
    loaded from disk carry seed -1 unless told otherwise.  A malformed file (not
    UTF-8, no rows, a ragged row, a text cell, a wrong header or weight count,
    or a y column that differs from the teacher's targets) raises InvalidInputError.
    """
    header, table = read_floats(inputs_path)
    if len(header) < 2 or header[-1] != "y":
        raise InvalidInputError(f"{inputs_path} has an unexpected header {header!r}")
    d = len(header) - 1
    _, weights = read_floats(teacher_path, header=False)
    if weights.shape[1] != 1 or weights.shape[0] % d != 0:
        raise InvalidInputError(f"{teacher_path} does not hold one weight per line, a multiple of {d} lines")
    teacher = Weights(weights[:, 0], k=weights.shape[0] // d, d=d)
    data = ReluDataset(inputs=table[:, :d], teacher=teacher, seed=seed)
    if not np.array_equal(table[:, d], data.targets):
        raise InvalidInputError(f"{inputs_path}: targets do not equal the teacher forward pass")
    return data
