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

    alpha1 = (k/n) sum_i ||x_i||^2 = k tr(S)  (per-point top-eigenvalue sum)
    alpha2 = lambda_max(M) = k lambda_max(S)   (all-active matrix, tight)
    alpha3 = Gershgorin bound on M = k max_i sum_j |S_ij|
    alpha4 = Brauer/Cassini bound on M  (= alpha3 for k >= 2)

plus the oracle ``alpha_oracle`` for the exact constant.  The all-active
matrix M = (1/n) sum_i abar(x_i) abar(x_i)^T is J_k (x) S, with J_k the k x k
all-ones matrix and S = X^T X / n; every bound comes from the d x d matrix S
in O(nd^2 + d^3), whatever k is, and M is never built: alpha1 reads the
trace of S, the Gershgorin and Cassini alpha3 and alpha4 its diagonal and radii.

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
STACK_CHUNK_ENTRIES = 2**13  # (m, k, n) entries per chunk of a stacked loss: 64 KB of float64

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

    @property
    def matrix(self) -> np.ndarray:
        """Row j is the weight vector of neuron j."""
        return self.flat.reshape(self.k, self.d)


def _forward(inputs_t: np.ndarray, wmat: np.ndarray, z=None, active=None) -> np.ndarray:
    """The one forward pass, neuron-major: W X^T summed over neurons (axis -2: a stack (m, k, d) gives
    (m, n)), for targets and residuals alike, so the teacher's loss and gradient are exactly 0.  X^T is
    the dataset's C-contiguous (d, n) copy, one BLAS layout for every forward pass.  The product goes into ``z``
    if given (a (k, n) buffer), ``active`` records z >= 0 if given, and the ReLU is taken in place."""
    zt = np.matmul(wmat, inputs_t, out=z)
    if active is not None:
        np.greater_equal(zt, 0.0, out=active)
    return np.add.reduce(np.maximum(zt, 0.0, out=zt), axis=-2)


@dataclass(frozen=True, eq=False)
class ReluDataset:
    """Teacher-generated inputs; targets are derived here as the teacher output.  The forward pass reads a
    C-contiguous (d, n) copy of the inputs (n d 8 bytes) made on first use: bounds and oracle never make it.
    Inputs (a copy, see errors._owned, but generate_dataset's own draws are not copied), targets, (d, n) copy and S
    are read-only: no caller's write can split them."""

    inputs: np.ndarray
    teacher: Weights
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "inputs", _owned(self.inputs))
        if self.inputs.ndim != 2 or self.n < 1:
            raise InvalidInputError("inputs must be a nonempty (n, d) array")
        if self.d != self.teacher.d:
            raise InvalidInputError("input dimension does not match the teacher")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.teacher.flat).all()):
            raise InvalidInputError("inputs and teacher weights must be finite")
        _as_count(self.seed, "seed", -1)  # -1: no seed, as load_dataset gives

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @cached_property
    def _inputs_t(self) -> np.ndarray:
        return _frozen(np.ascontiguousarray(self.inputs.T))

    @cached_property
    def targets(self) -> np.ndarray:
        """The teacher's outputs, computed on first read and kept: the bounds and
        the oracle never read them."""
        return _frozen(_forward(self._inputs_t, self.teacher.matrix))

    @cached_property
    def second_moment(self) -> SymMatrix:
        """S = (1/n) sum_i x_i x_i^T, exactly symmetric as numpy forms X^T X by syrk; computed on first use
        and kept, since every bound reads it."""
        return SymMatrix(self.inputs.T @ self.inputs / self.n)


def generate_dataset(config: NetConfig) -> ReluDataset:
    """Standard-Gaussian inputs and teacher weights, fully determined by the seed.

    Draw order is pinned: inputs first, then the teacher.
    """
    rng = np.random.default_rng(config.seed)
    inputs = rng.standard_normal((config.n, config.d))
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


def _loss_callables(data: ReluDataset, k: int):
    """The loss at width-k weights on ``data`` as raw callables over flat weights: ``value`` (a point (kd,), or
    a stack (m, kd) in chunks of STACK_CHUNK_ENTRIES) and the fused ``value_and_gradient``, on the data's (d, n)
    input copy and targets, read once here.  Both take the residuals of _forward and the loss with the bits of
    0.5 * np.mean(resid**2), so each value is its fused call's bit for bit.  The fused call reuses one (k, n)
    float and bool workspace made here (so no two threads may call it at once): the masked residuals m overwrite
    W X^T in C order, and the gradient (X^T m^T)^T reads the (d, n) copy that the forward product reads."""
    inputs_t, targets = data._inputs_t, data.targets
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

    return value, value_and_gradient


def loss(w: Weights, data: ReluDataset) -> float:
    """1/(2n) sum_i (f(x_i, w) - y_i)^2, with f(x, w) = sum_j max(0, x^T w_j)."""
    return _loss_callables(data, _checked(w, data).k)[0](w.flat)


def gradient(w: Weights, data: ReluDataset) -> np.ndarray:
    """(1/n) sum_i (f(x_i, w) - y_i) * a(x_i, w), flat in R^{kd}."""
    return _loss_callables(data, _checked(w, data).k)[1](w.flat)[1]


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
    return loss_hessian_matrix(Weights(np.zeros(k * data.d), k=k, d=data.d), data)


def _allactive_rows(data: ReluDataset, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal S_ii and radius k sum_j |S_ij| - S_ii of the rows i of M = J_k (x) S."""
    _as_count(k, "k")
    s = second_moment_matrix(data).entries
    diag = np.diag(s)
    return diag, k * np.abs(s).sum(axis=1) - diag


def _gershgorin(diag: np.ndarray, radii: np.ndarray) -> float:
    return float((diag + radii).max())


def _cassini(diag: np.ndarray, radii: np.ndarray, twinned: bool = False) -> float:
    """Cassini value maximized over row pairs i != j, and over (i, i) too when each
    row has an equal twin (the same coordinate in another block of J_k x S)."""
    mean = (diag[:, None] + diag[None, :]) / 2.0
    gap = diag[:, None] - diag[None, :]
    vals = mean + np.sqrt((gap / 2.0) ** 2 + radii[:, None] * radii[None, :])
    if not twinned:
        np.fill_diagonal(vals, -np.inf)
    return float(vals.max())


def bound_alpha2(data: ReluDataset, k: int) -> float:
    """(1/n) lambda_max(sum_i abar(x_i) abar(x_i)^T) = k lambda_max(S): stacking
    k copies of each data vector multiplies every eigenvalue of S by k."""
    _as_count(k, "k")
    return float(k) * float(np.linalg.eigvalsh(second_moment_matrix(data).entries)[-1])


def bound_alpha3(data: ReluDataset, k: int) -> float:
    """Gershgorin upper bound on the all-active matrix: k max_i sum_j |S_ij|."""
    return _gershgorin(*_allactive_rows(data, k))


def bound_alpha4(data: ReluDataset, k: int) -> float:
    """Brauer/Cassini bound on the all-active matrix over d x d row pairs plus, for
    k >= 2, twin rows (their value is their Gershgorin value, so alpha4 = alpha3).
    At k*d = 1, M is the 1 x 1 matrix [S_11]: it has no row pairs, and its one
    (i, i) value is its Gershgorin value, its entry, so alpha4 = alpha3 = alpha2."""
    diag, radii = _allactive_rows(data, k)
    return _cassini(diag, radii, twinned=k >= 2 or diag.size == 1)


def _shared_direction_search(data: ReluDataset, k: int, budget: int, rng: np.random.Generator) -> float:
    """(k/n) max lambda_max(sum_{x_i^T v >= 0} x_i x_i^T) over ``budget`` Gaussian directions v in R^d: a chunk
    of _stack_size(d, n) directions gets its d x d Grams from a GEMM of its (m, n) masks against the flattened
    x_i x_i^T of each point block (one, formed once, unless n d^2 > 2e6), streamed chunk by chunk."""
    n, d = data.inputs.shape

    def outer(x):  # the flattened x_i x_i^T of a point block, (rows, d^2)
        return (x[:, :, None] * x[:, None, :]).reshape(-1, d * d)

    chunk = _stack_size(d, n)
    rows = int(max(1, _BATCH_ENTRIES // (d * d)))
    blocks = [data.inputs[i : i + rows] for i in range(0, n, rows)]
    held = [outer(blocks[0])] if n <= rows else None

    def grams(v):  # the (m, d, d) Grams of m directions
        products = held or map(outer, blocks)
        return sum(((x @ v.T) >= 0.0).T.astype(float) @ p for x, p in zip(blocks, products)).reshape(-1, d, d)

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
    z = np.abs(data.inputs @ _checked(w, data).matrix.T)
    xnorm = np.linalg.norm(data.inputs, axis=1)[:, None]
    scale = xnorm * np.linalg.norm(w.matrix, axis=1)[None, :]
    return bool(np.any((z <= KINK_MARGIN_RTOL * scale) & (xnorm > 0.0)))


def loss_hessian_matrix(w: Weights, data: ReluDataset) -> SymMatrix:
    """Almost-everywhere loss Hessian (1/n) sum_i a(x_i, w) a(x_i, w)^T."""
    mask = (data.inputs @ _checked(w, data).matrix.T) >= 0.0
    stacked = (mask[:, :, None] * data.inputs[:, None, :]).reshape(data.n, w.k * w.d)
    return SymMatrix(stacked.T @ stacked / data.n)


def loss_objective(data: ReluDataset) -> ObjectiveFunction:
    """The training loss as an objective over flat weights in R^{kd}: the callables of _loss_callables at
    the teacher's width, so one objective must not be called from two threads at once."""
    k, d = data.teacher.k, data.teacher.d
    value, value_and_gradient = _loss_callables(data, k)
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
