"""Single-hidden-layer ReLU teacher-student model and its concavifier bounds.

The network maps x in R^d to sum_j max(0, x^T w_j) over k hidden neurons
(no biases, output weights fixed to 1).  Targets come from a teacher with
the same architecture, so zero training loss is attainable.  The quadratic
loss over n points is

    l(w) = 1/(2n) * sum_i (f(x_i, w) - y_i)^2

whose almost-everywhere Hessian is (1/n) sum_i a(x_i, w) a(x_i, w)^T, where
a(x, w) stacks k copies of x, each masked by the activation indicator
1{x^T w_j >= 0} (so w = 0 activates every neuron), and abar(x) is the
all-active stack.  One forward pass, the neuron-major (k, n) product W X^T with
its ReLU taken in place and summed over neurons, serves targets, loss, gradient
and Hessian (whose mask is its sign).  X is held column-major, so X^T is a
C-contiguous view of it, not a copy.  Four upper bounds on the optimal concavifier:

    alpha1 = (k/n) sum_i ||x_i||^2 = k tr(S)  (per-point top-eigenvalue sum)
    alpha2 = lambda_max(M) = k lambda_max(S)   (all-active matrix, tight)
    alpha3 = Gershgorin bound on M = k max_i sum_j |S_ij|
    alpha4 = Brauer/Cassini bound on M  (= alpha3 for k >= 2)

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

from .eigenbounds import _BATCH_ENTRIES, SymMatrix, _max_top_eigenvalue, _stack_size
from .errors import InvalidInputError, _as_count, _Drawn, _frozen, _owned
from .objectives import ObjectiveFunction
from .tableio import read_floats, write_table

ORACLE_STRATEGIES = ("pattern-enum", "random-search")
KINK_MARGIN_RTOL = 1e-6
STACK_CHUNK_ENTRIES = 2**13  # 64 KB of float64: the (m, k, n) chunk of a stacked loss, a generate_dataset row block

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
        for name in ("d", "k", "n"):
            _as_count(getattr(self, name), name)
        _as_count(self.seed, "seed", 0)  # numpy seeds are non-negative


@dataclass(frozen=True, eq=False)
class Weights:
    """Flat weight vector in R^{k*d}, a read-only copy (see errors._owned); block j holds the weights of neuron j."""

    flat: np.ndarray
    k: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "flat", _owned(self.flat, ndmin=1))
        for name in ("k", "d"):
            _as_count(getattr(self, name), name)
        if self.flat.shape != (self.k * self.d,):
            raise InvalidInputError(f"expected {self.k * self.d} weights, got shape {self.flat.shape}")
        if not np.isfinite(self.flat).all():
            raise InvalidInputError("weights must be finite")

    @property
    def matrix(self) -> np.ndarray:
        """Row j is the weight vector of neuron j."""
        return self.flat.reshape(self.k, self.d)


def _forward(inputs_t: np.ndarray, wmat: np.ndarray, z=None, active=None) -> np.ndarray:
    """The one forward pass, neuron-major: W X^T summed over neurons (axis -2: a stack (m, k, d) gives
    (m, n)), for targets and residuals alike, so the teacher's loss and gradient are exactly 0.  X^T is the
    dataset's ``inputs.T``, a C-contiguous (d, n) view, one BLAS layout for every forward pass.  The product goes
    into ``z`` if given (a (k, n) buffer), ``active`` records z >= 0 if given, and the ReLU is taken in place."""
    zt = np.matmul(wmat, inputs_t, out=z)
    if active is not None:
        np.greater_equal(zt, 0.0, out=active)
    return np.add.reduce(np.maximum(zt, 0.0, out=zt), axis=-2)


@dataclass(frozen=True, eq=False)
class ReluDataset:
    """Teacher-generated inputs, one read-only column-major (n, d) array (a copy, see errors._owned, but not of
    generate_dataset's own draws), so ``inputs.T`` is the C-contiguous (d, n) layout the forward pass reads.
    The targets (the teacher's outputs) and S are derived here, read-only too: no caller's write can split them."""

    inputs: np.ndarray
    teacher: Weights
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "inputs", _owned(self.inputs, order="F"))
        if self.inputs.ndim != 2 or self.n < 1:
            raise InvalidInputError("inputs must be a nonempty (n, d) array")
        if self.d != self.teacher.d:
            raise InvalidInputError("input dimension does not match the teacher")
        with np.errstate(over="ignore", invalid="ignore"):  # every entry of S and of a loss Hessian is <= this sum
            squares = self.inputs.ravel("K") @ self.inputs.ravel("K")  # a view: no (n, d) bool array
        if not np.isfinite(squares):
            raise InvalidInputError("inputs' sum of squares must be finite")
        _as_count(self.seed, "seed", -1)  # -1: no seed, as load_dataset gives

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
        return _frozen(_forward(self.inputs.T, self.teacher.matrix))

    @cached_property
    def second_moment(self) -> SymMatrix:
        """S = (1/n) sum_i x_i x_i^T, exactly symmetric as numpy forms X^T X by syrk; computed on first use
        and kept, since every bound reads it."""
        return SymMatrix(self.inputs.T @ self.inputs / self.n)


def generate_dataset(config: NetConfig) -> ReluDataset:
    """Standard-Gaussian inputs and teacher weights, fully determined by the seed.

    Draw order is pinned: inputs first, row by row, then the teacher.  The inputs are drawn in blocks of
    STACK_CHUNK_ENTRIES // d rows into the dataset's column-major array, so no row-major copy of them is held.
    """
    rng, n, d = np.random.default_rng(config.seed), config.n, config.d
    inputs, rows = np.empty((n, d), order="F"), max(1, STACK_CHUNK_ENTRIES // d)
    for i in range(0, n, rows):
        inputs[i : i + rows] = rng.standard_normal((min(rows, n - i), d))
    teacher = Weights(rng.standard_normal(config.k * config.d), k=config.k, d=config.d)
    return ReluDataset(inputs=_Drawn(inputs), teacher=teacher, seed=config.seed)


def initial_weights(config: NetConfig) -> Weights:
    """Student initialization, standard Gaussian from the seed stream
    (config.seed, INIT_STREAM), separate from the data stream."""
    rng = np.random.default_rng([config.seed, INIT_STREAM])
    return Weights(rng.standard_normal(config.k * config.d), k=config.k, d=config.d)


def _checked(w: Weights, data: ReluDataset) -> Weights:
    """w, once its d is the data's input dimension."""
    if w.d != data.d:
        raise InvalidInputError("weight dimension does not match the data")
    return w


def _loss_objective(data: ReluDataset, k: int) -> ObjectiveFunction:
    """The loss at width-k weights on ``data`` as an objective over flat weights, on the (d, n) view ``inputs.T``
    and the targets, read once here: ``value`` (a point (kd,), or a stack (m, kd) in chunks of STACK_CHUNK_ENTRIES)
    and the fused ``value_and_gradient`` take _forward's residuals and the bits of 0.5 * np.mean(resid**2), so each
    value is its fused call's bit for bit.  The fused call and the a.e. ``hessian`` share one (k, n) float and bool
    workspace made here (so no two threads may call them at once), where _forward writes W X^T and its mask
    W X^T >= 0.  The fused call overwrites W X^T with the masked residuals m in C order, and its gradient (X^T m^T)^T
    reads the forward product's view; the Hessian stacks each x_i by the mask, so its mask is the fused call's."""
    inputs_t, targets = data.inputs.T, data.targets
    d, n = inputs_t.shape
    z, active = np.empty((k, n)), np.empty((k, n), dtype=bool)

    def residuals(wmat, z=None, active=None):
        resid = _forward(inputs_t, wmat, z, active) - targets
        return resid, 0.5 * (np.add.reduce(resid * resid, axis=-1) / n)

    def value(flat):
        flat = np.asarray(flat, dtype=float)
        if flat.ndim == 1:
            return float(residuals(flat.reshape(k, d))[1])
        wmat, out, step = flat.reshape(-1, k, d), np.empty(len(flat)), max(1, STACK_CHUNK_ENTRIES // (k * n))
        for i in range(0, len(wmat), step):
            out[i : i + step] = residuals(wmat[i : i + step])[1]
        return out

    def value_and_gradient(flat):
        resid, loss_value = residuals(np.asarray(flat, dtype=float).reshape(k, d), z, active)
        m = np.multiply(active, resid, out=z)
        return float(loss_value), (inputs_t @ m.T).T.reshape(-1) / n

    def hessian(flat):
        _forward(inputs_t, np.asarray(flat, dtype=float).reshape(k, d), z, active)
        stacked = (active.T[:, :, None] * inputs_t.T[:, None, :]).reshape(n, k * d)
        return SymMatrix(stacked.T @ stacked / n)

    return ObjectiveFunction(dim=k * d, value_and_gradient=value_and_gradient, hessian=hessian, value=value)


def loss(w: Weights, data: ReluDataset) -> float:
    """1/(2n) sum_i (f(x_i, w) - y_i)^2, with f(x, w) = sum_j max(0, x^T w_j)."""
    return _loss_objective(data, _checked(w, data).k).value(w.flat)


def gradient(w: Weights, data: ReluDataset) -> np.ndarray:
    """(1/n) sum_i (f(x_i, w) - y_i) * a(x_i, w), flat in R^{kd}."""
    return _loss_objective(data, _checked(w, data).k).value_and_gradient(w.flat)[1]


def alpha_single_point(x, k: int) -> float:
    """Exact optimal concavifier of the single-point loss: k * ||x||^2."""
    _as_count(k, "k")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError(f"expected one point of at least one coordinate, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidInputError("point must be finite")
    return float(k) * float(x @ x)


def bound_alpha1(data: ReluDataset, k: int) -> float:
    """(k/n) sum_i ||x_i||^2 = k tr(S), read from the cached S like the other bounds: no (n, d) temporary."""
    _as_count(k, "k")
    return float(k) * float(np.trace(second_moment_matrix(data).entries))


def second_moment_matrix(data: ReluDataset) -> SymMatrix:
    """S = (1/n) sum_i x_i x_i^T (cached on the dataset)."""
    return data.second_moment


def allactive_gram_matrix(data: ReluDataset, k: int) -> SymMatrix:
    """Explicit kd x kd matrix M = (1/n) sum_i abar(x_i) abar(x_i)^T: the loss
    Hessian at w = 0, where the >= indicator activates every neuron.  A test
    reference only, since it takes O((kd)^2) memory."""
    _as_count(k, "k")
    return _loss_objective(data, k).hessian(np.zeros(k * data.d))


def bound_alpha2(data: ReluDataset, k: int) -> float:
    """(1/n) lambda_max(sum_i abar(x_i) abar(x_i)^T) = k lambda_max(S): stacking
    k copies of each data vector multiplies every eigenvalue of S by k."""
    _as_count(k, "k")
    return float(k) * float(np.linalg.eigvalsh(second_moment_matrix(data).entries)[-1])


def bound_alpha3(data: ReluDataset, k: int) -> float:
    """Gershgorin upper bound on the all-active matrix M = J_k (x) S: row i of M has the absolute sum
    k sum_j |S_ij|, so alpha3 = k max_i sum_j |S_ij|."""
    _as_count(k, "k")
    return float(k) * float(np.abs(second_moment_matrix(data).entries).sum(axis=1).max())


def bound_alpha4(data: ReluDataset, k: int) -> float:
    """Brauer/Cassini bound on M = J_k (x) S: the largest Cassini value over pairs of distinct rows of M.  For
    k >= 2 every row has a twin, its coordinate in another block, and a twin pair's value is the row's Gershgorin
    value, so alpha4 = alpha3; at d = k = 1, M = [S_11] has no pair, and alpha4 = alpha3 is its entry."""
    _as_count(k, "k")
    s = second_moment_matrix(data).entries
    if k >= 2 or len(s) == 1:
        return bound_alpha3(data, k)
    diag = np.diag(s)
    radii = np.abs(s).sum(axis=1) - diag
    vals = (diag[:, None] + diag) / 2.0 + np.sqrt(((diag[:, None] - diag) / 2.0) ** 2 + radii[:, None] * radii)
    np.fill_diagonal(vals, -np.inf)
    return float(vals.max())


def _shared_direction_search(data: ReluDataset, k: int, budget: int, rng: np.random.Generator) -> float:
    """(k/n) max lambda_max(sum_{x_i^T v >= 0} x_i x_i^T) over ``budget`` Gaussian directions v in R^d: a chunk
    of _stack_size(d, n) directions gets the upper triangles of its d x d Grams from a GEMM of its (m, n) masks
    v X^T against the products x_ia x_ib, a <= b, of each point block (one, formed once, unless
    n d(d+1)/2 > 2e6), and each triangle fills both halves of an exactly symmetric Gram."""
    n, d = data.inputs.shape
    a, b = np.triu_indices(d)

    def triangle(x):  # the (rows, d(d+1)/2) products x_ia x_ib, a <= b, of a point block, over the copy x[:, a]
        products = x[:, a]
        products *= x[:, b]
        return products

    chunk, rows = _stack_size(d, n), int(max(1, _BATCH_ENTRIES // len(a)))
    blocks = [data.inputs[i : i + rows] for i in range(0, n, rows)]
    held = [triangle(blocks[0])] if n <= rows else None

    def grams(v):  # the (m, d, d) Grams of m directions
        products = held or map(triangle, blocks)
        upper = sum(((v @ x.T) >= 0.0).astype(float) @ p for x, p in zip(blocks, products))
        out = np.empty((len(v), d, d))
        out[:, a, b] = out[:, b, a] = upper
        return out

    vs = (rng.standard_normal((min(chunk, budget - start), d)) for start in range(0, budget, chunk))
    return float(k) * _max_top_eigenvalue(map(grams, vs), 0.0)[0] / n


def alpha_oracle(
    data: ReluDataset,
    k: int,
    strategy: str,
    budget: int = 10_000,
    rng: np.random.Generator | None = None,
) -> float:
    """The optimal concavifier (1/n) max_w lambda_max of the masked Gram sum.

    Its optimum gives every neuron one activation pattern, so the search runs
    over one shared direction.  ``pattern-enum`` returns alpha2 at any size:
    w = 0 activates every point, and X_s^T X_s <= X^T X makes that pattern the
    maximum.  ``random-search`` maximizes over ``budget`` nonzero
    directions and reports a lower bound on alpha2; its default stream is
    (data.seed, ORACLE_STREAM), apart from the data stream.
    """
    _as_count(k, "k")
    if strategy not in ORACLE_STRATEGIES:
        raise InvalidInputError(f"unknown strategy {strategy!r}; expected one of {ORACLE_STRATEGIES}")
    if strategy == "pattern-enum":
        return bound_alpha2(data, k)
    _as_count(budget, "budget")
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
    z = np.abs(_checked(w, data).matrix @ data.inputs.T)
    xnorm = np.linalg.norm(data.inputs, axis=1)
    scale = np.linalg.norm(w.matrix, axis=1)[:, None] * xnorm
    return bool(np.any((z <= KINK_MARGIN_RTOL * scale) & (xnorm > 0.0)))


def loss_hessian_matrix(w: Weights, data: ReluDataset) -> SymMatrix:
    """Almost-everywhere loss Hessian (1/n) sum_i a(x_i, w) a(x_i, w)^T, the ``hessian`` of _loss_objective at
    w.k, so its mask is the forward pass's W X^T >= 0; like loss and gradient, it builds that objective per call."""
    return _loss_objective(data, _checked(w, data).k).hessian(w.flat)


def loss_objective(data: ReluDataset) -> ObjectiveFunction:
    """The training loss as an objective over flat weights in R^{kd}: _loss_objective at the teacher's width, one
    workspace among its callables, so one objective must not be called from two threads at once."""
    return _loss_objective(data, data.teacher.k)


# --- delimited-text export/import ------------------------------------------
#
# Dataset file: header "x0,...,x{d-1},y", one row per point, written by
# tableio so float64 values round-trip exactly.  Teacher file: the kd weights,
# one per line, no header.


def save_dataset(data: ReluDataset, inputs_path, teacher_path) -> None:
    header = [f"x{i}" for i in range(data.d)] + ["y"]
    write_table(inputs_path, header, np.column_stack([data.inputs, data.targets]).tolist())
    write_table(teacher_path, None, [[v] for v in data.teacher.flat.tolist()])


def load_dataset(inputs_path, teacher_path) -> ReluDataset:
    """Load a dataset pair written by save_dataset, with seed -1 (no seed).

    The teacher width k comes from the weight-file length, and the targets are recomputed.  Each y_i of
    the file must lie within 2 (gamma_d + gamma_k) sum_j |w_j|^T |x_i| of them (gamma_m = m u / (1 - m u)),
    what two summation orders of the forward pass can differ by, so earlier releases' files load.  A
    malformed file (not UTF-8, no rows, a ragged row, a text cell, a wrong header or weight count, or a y
    outside that bound) raises InvalidInputError."""
    header, table = read_floats(inputs_path)
    if len(header) < 2 or header[-1] != "y":
        raise InvalidInputError(f"{inputs_path} has an unexpected header {header!r}")
    d = len(header) - 1
    _, weights = read_floats(teacher_path, header=False)
    if weights.shape[1] != 1 or weights.shape[0] % d != 0:
        raise InvalidInputError(f"{teacher_path} does not hold one weight per line, a multiple of {d} lines")
    teacher = Weights(weights[:, 0], k=weights.shape[0] // d, d=d)
    data = ReluDataset(inputs=table[:, :d], teacher=teacher, seed=-1)
    u = np.finfo(float).eps / 2
    tol = sum(2 * m * u / (1 - m * u) for m in (d, teacher.k)) * (np.abs(data.inputs) @ np.abs(teacher.matrix).sum(0))
    if not np.all(np.abs(table[:, d] - data.targets) <= tol):
        raise InvalidInputError(f"{inputs_path}: targets differ from the teacher forward pass by more than rounding")
    return data
