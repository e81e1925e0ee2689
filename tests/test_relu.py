"""Tests for the ReLU teacher-student model and the concavifier bounds."""

import itertools
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepsafe.relu as relu_module
from stepsafe.descent import DescentConfig, run_descent
from stepsafe.eigenbounds import SymMatrix, _stack_size, power_iteration
from stepsafe.errors import InvalidInputError
from stepsafe.objectives import (
    BoxDomain,
    ObjectiveFunction,
    central_difference_gradient,
    estimate_concavifier_midpoint,
    quadratic_objective,
    upper_quadratic_check,
)
from stepsafe.relu import (
    NetConfig,
    ReluDataset,
    Weights,
    allactive_gram_matrix,
    alpha_oracle,
    alpha_single_point,
    bound_alpha1,
    bound_alpha2,
    bound_alpha3,
    bound_alpha4,
    generate_dataset,
    gradient,
    initial_weights,
    load_dataset,
    loss,
    loss_hessian_matrix,
    loss_objective,
    near_kink,
    save_dataset,
    second_moment_matrix,
)


def _weights(rows):
    rows = np.asarray(rows, dtype=float)
    return Weights(rows.reshape(-1), k=rows.shape[0], d=rows.shape[1])


def _dataset_from_points(points, teacher):
    return ReluDataset(inputs=points, teacher=teacher, seed=-1)


def _kink_free_weights(rng, data, k):
    # also keep every activation boundary outside the finite-difference
    # stencil, so central differences stay on one smooth piece
    while True:
        w = Weights(rng.standard_normal(k * data.d), k=k, d=data.d)
        if near_kink(w, data):
            continue
        h = 1e-6 * max(1.0, float(np.linalg.norm(w.flat)))
        z = np.abs(data.inputs @ w.matrix.T)
        x_inf = np.abs(data.inputs).max(axis=1)
        if not np.any(z <= 1.05 * h * x_inf[:, None]):
            return w


def _point_major(wmat, inputs, targets):
    # the point-major formulas of earlier releases: an (n, k) array X W^T, a sum
    # over each point's k contiguous activations, and the masked residuals; both
    # products read a C-contiguous (d, n) X^T, the layout of the fused call:
    # W X^T (X W^T on row-major (n, d) inputs rounds differently at k = 1 and at
    # some d >= 16, see test_product_within_rounding_of_point_major) and the
    # gradient (X^T m^T)^T with m in C order (m X on row-major (n, d) inputs rounds
    # differently, see test_gradient_within_rounding_of_fortran_buffer)
    inputs_t = np.ascontiguousarray(inputs.T)
    z = np.ascontiguousarray((wmat @ inputs_t).T)
    outputs = np.maximum(z, 0.0).sum(axis=1)
    resid = outputs - targets
    m = np.ascontiguousarray(((z >= 0) * resid[:, None]).T)
    gmat = (inputs_t @ m.T).T / inputs.shape[0]
    return outputs, float(0.5 * np.mean(resid**2)), gmat.reshape(-1)


def _fresh_buffer_kernel(wmat, data):
    # the fused kernel without a workspace: fresh (k, n) arrays for W X^T (on a
    # C-contiguous (d, n) X^T), the ReLU and the mask, and the masked residuals m
    # in a fresh C-ordered buffer; the gradient is (X^T m^T)^T on that X^T
    inputs_t = np.ascontiguousarray(data.inputs.T)
    zt = wmat @ inputs_t
    resid = np.maximum(zt, 0.0).sum(axis=0) - data.targets
    m = np.multiply(zt >= 0.0, resid, out=np.empty(zt.shape))
    return float(0.5 * (np.add.reduce(resid * resid) / data.n)), ((inputs_t @ m.T).T / data.n).reshape(-1)


STANDARD_SHAPES = [(10, 5, 1000), (10, 5, 10_000), (5, 5, 1000), (50, 5, 1000), (10, 2, 1000), (10, 50, 1000)]


def _gershgorin_and_cassini(m):
    """The Gershgorin and Brauer/Cassini bounds of an explicit symmetric matrix: the largest a_ii + r_i, and
    the largest Cassini value over pairs of distinct rows, with r_i = sum_{j != i} |a_ij|."""
    diag = np.diag(m)
    radii = np.abs(m).sum(axis=1) - np.abs(diag)
    cassini = (diag[:, None] + diag) / 2 + np.sqrt(((diag[:, None] - diag) / 2) ** 2 + np.outer(radii, radii))
    np.fill_diagonal(cassini, -np.inf)
    return float((diag + radii).max()), float(cassini.max())


class TestWeights:
    def test_block_view(self):
        w = Weights(np.arange(6.0), k=3, d=2)
        assert np.array_equal(w.matrix, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        assert np.shares_memory(w.matrix, w.flat)

    def test_length_validation(self):
        with pytest.raises(InvalidInputError):
            Weights(np.zeros(5), k=2, d=3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, value):
        # a NaN weight had read every neuron inactive (a zero loss Hessian, no kink), and an infinite one had
        # reached the forward pass's matmul
        flat = np.ones(6)
        flat[4] = value
        with pytest.raises(InvalidInputError, match="weights must be finite"):
            Weights(flat, k=2, d=3)


_TEACHER = Weights([1.0, -0.5, 0.3, 0.2, 0.8, -1.0], k=2, d=3)
_STUDENT = Weights([0.4, 0.9, -0.2, -0.7, 0.1, 0.5], k=2, d=3)
_CONFIG = NetConfig(d=3, k=2, n=20, seed=0)


def _example_inputs():
    return np.random.default_rng(3).standard_normal((20, 3))


# class: (a fresh caller's array, the object built from it, the array that object holds,
# what is derived from that array, arrays the package makes and hands to the class itself)
OWNER_CASES = {
    "Weights": (
        lambda: np.array(_STUDENT.flat),
        lambda a: Weights(a, k=2, d=3),
        lambda w: w.flat,
        lambda w: (w.matrix, loss(w, ReluDataset(_example_inputs(), _TEACHER, -1))),
        lambda: (initial_weights(_CONFIG).flat,),
    ),
    "ReluDataset": (
        _example_inputs,
        lambda a: ReluDataset(a, _TEACHER, -1),
        lambda data: data.inputs,
        lambda data: (data.targets, loss(_STUDENT, data), gradient(_STUDENT, data)),
        lambda: (generate_dataset(_CONFIG).inputs, generate_dataset(_CONFIG).teacher.flat),
    ),
    "second_moment_matrix": (
        _example_inputs,
        lambda a: ReluDataset(a, _TEACHER, -1),
        lambda data: second_moment_matrix(data).entries,
        lambda data: (bound_alpha2(data, 2), bound_alpha3(data, 2), bound_alpha4(data, 2)),
        lambda: (second_moment_matrix(generate_dataset(_CONFIG)).entries,),
    ),
    "SymMatrix": (
        lambda: np.array([[2.0, 1.0], [1.0, 3.0]]),
        SymMatrix,
        lambda m: m.entries,
        lambda m: (power_iteration(m).value,),
        tuple,
    ),
    "BoxDomain": (
        lambda: np.array([-1.0, 0.0, 2.0]),
        lambda lo: BoxDomain(lo, [0.0, 1.0, 3.0], budget=4),
        lambda box: box.lower,
        lambda box: (box.center, box.diameter, box.sample(np.random.default_rng(0), 3)),
        tuple,
    ),
    "DescentConfig": (
        lambda: np.array([1.0, -2.0]),
        lambda x0: DescentConfig(eta=0.1, steps=3, x0=x0),
        lambda config: config.x0,
        lambda config: (run_descent(quadratic_objective(np.eye(2)), config).losses,),
        tuple,
    ),
}


class TestOwnedArrays:
    """Every value object keeps a read-only copy of the arrays it is given."""

    def test_caller_writes_reach_nothing(self):
        # the dataset had kept the caller's inputs and cached its targets, a (d, n) copy and S on first
        # read, so a later write split them: the objective's value read the old copy, its gradient the
        # new inputs, and bound_alpha2 kept the old S
        rng = np.random.default_rng(3)
        inputs, flat = rng.standard_normal((50, 3)), rng.standard_normal(6)
        data = ReluDataset(inputs, Weights(flat, k=2, d=3), seed=-1)
        f, w = loss_objective(data), _kink_free_weights(rng, data, 2)
        value, alpha2 = f.evaluate(w.flat), bound_alpha2(data, 2)
        fresh = ReluDataset(inputs.copy(), Weights(flat.copy(), k=2, d=3), seed=-1)
        inputs *= 2.0
        flat *= 2.0
        assert np.array_equal(data.inputs, fresh.inputs) and np.array_equal(data.teacher.flat, fresh.teacher.flat)
        assert np.array_equal(data.targets, fresh.targets) and bound_alpha2(data, 2) == alpha2
        assert f.evaluate(w.flat) == value == loss(w, data) == loss(w, fresh)
        g = f.value_and_gradient(w.flat)[1]
        assert np.linalg.norm(central_difference_gradient(f.evaluate, w.flat) - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
        for array in (data.inputs, data.targets, w.flat, data.teacher.flat):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("case", OWNER_CASES.values(), ids=OWNER_CASES.keys())
    def test_holds_a_read_only_copy(self, case):
        # every value object copies the array it is given, so neither a caller's later write to that
        # array nor one through a view taken before the caller froze it can reach what the object holds
        # or derives; the held array owns its memory and refuses writes, as do those the package makes
        array, build, held, derived, made = case
        a, b = array(), array()
        view = b[...]
        b.flags.writeable = False
        for obj, caller in ((build(a), a), (build(b), view)):
            kept, before = held(obj).copy(), derived(obj)
            caller += 5.0
            assert np.array_equal(held(obj), kept) and not np.shares_memory(held(obj), caller)
            assert all(np.array_equal(now, then) for now, then in zip(derived(obj), before))
        for owned in (held(obj), *made()):
            assert owned.flags.owndata
            with pytest.raises(ValueError, match="read-only"):
                owned[...] = 0.0


class TestForwardAndLoss:
    # a dataset's targets are its teacher's forward pass
    def test_forward_example(self):
        w = _weights([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(_dataset_from_points([[1.0, -1.0], [1.0, 2.0]], w).targets, [1.0, 3.0])

    def test_forward_zero_weights(self):
        w = _weights([[0.0, 0.0]])
        assert np.array_equal(_dataset_from_points([[3.0, -2.0]], w).targets, [0.0])

    def test_forward_repeated_neurons(self):
        w = _weights([[1.0, 0.0]] * 3)
        assert np.array_equal(_dataset_from_points([[2.0, 0.0]], w).targets, [6.0])

    def test_loss_zero_at_teacher(self):
        data = generate_dataset(NetConfig(d=3, k=2, n=25, seed=0))
        assert loss(data.teacher, data) == 0.0

    def test_loss_single_point(self):
        teacher = _weights([[0.0], [0.0]])  # y = 0
        data = _dataset_from_points([[1.0]], teacher)
        w = _weights([[1.0], [0.0]])  # forward = 1, residual 1
        assert loss(w, data) == pytest.approx(0.5, abs=1e-15)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        data = generate_dataset(NetConfig(d=4, k=3, n=30, seed=4))
        for _ in range(20):
            w = Weights(rng.standard_normal(12), k=3, d=4)
            assert loss(w, data) >= 0.0


class TestNeuronMajorKernel:
    @pytest.mark.parametrize("k_range", [(1, 8), (8, 201)], ids=["k<=7", "k>=8"])
    def test_matches_point_major_formulas(self, k_range):
        # for k <= 7 both layouts add each point's activations left to right,
        # so every output is bit-identical; from k = 8 numpy's pairwise sum
        # reorders the point-major sum of k nonnegative terms, which moves
        # each output by at most (k - 1) eps of its size (4.4e-14 at k = 200)
        exact = k_range[1] <= 8
        rng = np.random.default_rng(k_range)
        shapes = [(1, 1), (1, 500), (7, 1)] + [(int(rng.integers(1, 60)), int(rng.integers(1, 400))) for _ in range(27)]
        for d, n in shapes:
            k = int(rng.integers(*k_range))
            data = generate_dataset(NetConfig(d, k, n, int(rng.integers(0, 2**31))))
            w = rng.standard_normal(k * d) * 10.0 ** rng.uniform(-3, 3)
            outputs, value, grad = _point_major(w.reshape(k, d), data.inputs, data.targets)
            teacher_outputs = _point_major(data.teacher.matrix, data.inputs, data.targets)[0]
            got_value, got_grad = loss_objective(data).value_and_gradient(w)
            got_outputs = _dataset_from_points(data.inputs, Weights(w, k=k, d=d)).targets
            # the value-only path shares the fused call's residuals and sum
            value_only = (loss_objective(data).evaluate(w), loss(Weights(w, k=k, d=d), data))
            assert value_only == (got_value, got_value)
            if exact:
                assert np.array_equal(data.targets, teacher_outputs)
                assert np.array_equal(got_outputs, outputs)
                assert got_value == value
                assert value_only == (value, value)
                assert np.array_equal(got_grad, grad)
            else:
                assert np.allclose(data.targets, teacher_outputs, rtol=1e-13, atol=0.0)
                assert np.allclose(got_outputs, outputs, rtol=1e-13, atol=0.0)
                assert got_value == pytest.approx(value, rel=1e-12)
                assert np.linalg.norm(got_grad - grad) <= 1e-12 * np.linalg.norm(grad)

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 50, 200])
    def test_exactly_zero_at_teacher(self, k):
        # targets and the loss share one forward pass, so the residuals vanish
        # bit for bit; a loss summed in another order leaves them at round-off,
        # and so would a product on another layout (d20 n50 at k = 1 and k = 2)
        for (d, n), seed in itertools.product([(10, 500), (20, 50)], range(3)):
            data = generate_dataset(NetConfig(d=d, k=k, n=n, seed=seed))
            value, grad = loss_objective(data).value_and_gradient(data.teacher.flat)
            assert value == 0.0
            assert np.array_equal(grad, np.zeros(k * d))
            assert loss(data.teacher, data) == 0.0
            assert np.array_equal(gradient(data.teacher, data), np.zeros(k * d))

    def test_product_within_rounding_of_point_major(self):
        # W times the (d, n) view and the point-major X W^T on row-major inputs (the
        # layout the inputs had before they were held column-major) are two roundings of
        # one product: each is within gamma_d |W| |X|^T of the exact product,
        # gamma_d = d u / (1 - d u), so they differ by at most twice that; on
        # these shapes they do differ, so the layout is a choice that moves bits
        u = np.finfo(float).eps / 2
        rng = np.random.default_rng(24)
        differs = []
        for d, k, n in [(10, 1, 100), (20, 1, 50), (20, 2, 50), (50, 5, 1000), (1, 3, 7), (64, 9, 300)]:
            data = generate_dataset(NetConfig(d, k, n, int(rng.integers(0, 2**31))))
            w = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3, 3)
            got, old = w @ data.inputs.T, (np.ascontiguousarray(data.inputs) @ w.T).T
            gamma = d * u / (1 - d * u)
            assert np.all(np.abs(got - old) <= 2 * gamma * (np.abs(w) @ np.abs(data.inputs).T))
            differs.append(not np.array_equal(got, old))
        assert any(differs)

    def test_gradient_within_rounding_of_fortran_buffer(self):
        # (X^T m^T)^T on the (d, n) view and the Fortran-ordered m times the row-major
        # (n, d) inputs are two roundings of one product: each is within gamma_n |m| |X| of
        # the exact product, gamma_n = n u / (1 - n u), so they differ by at most
        # twice that; on these shapes they do differ, so the layout moves bits
        u = np.finfo(float).eps / 2
        rng = np.random.default_rng(28)
        differs = []
        for d, k, n in [(1, 3, 500), (10, 1, 1000), (4, 193, 300), (7, 200, 50), (10, 5, 10_000)]:
            data = generate_dataset(NetConfig(d, k, n, int(rng.integers(0, 2**31))))
            w = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3, 3)
            zt = w @ data.inputs.T
            m = (zt >= 0.0) * (np.maximum(zt, 0.0).sum(axis=0) - data.targets)
            got, old = (data.inputs.T @ m.T).T, np.asfortranarray(m) @ np.ascontiguousarray(data.inputs)
            gamma = n * u / (1 - n * u)
            assert np.all(np.abs(got - old) <= 2 * gamma * (np.abs(m) @ np.abs(data.inputs)))
            differs.append(not np.array_equal(got, old))
        assert any(differs)


class TestLossWorkspace:
    """The loss objective's fused call reuses one (k, n) float and one bool buffer."""

    def test_matches_fortran_buffer_formula(self):
        # bit for bit with fresh buffers on every width from 1 to 200, at d = 1 and
        # n = 1 too, on repeated calls of one objective (a warm workspace) and on
        # relu.gradient; the name is kept from the Fortran-ordered buffer that the
        # masked residuals had before they went to C order
        rng = np.random.default_rng(15)
        shapes = [(1, 1, 1), (1, 200, 1), (1, 7, 500), (1, 120, 300), (5, 200, 1), (50, 200, 300), (10, 50, 10_000)]
        shapes += [(int(rng.integers(1, 60)), k, int(rng.integers(1, 400))) for k in range(1, 201, 3)]
        for d, k, n in shapes:
            data = generate_dataset(NetConfig(d, k, n, int(rng.integers(0, 2**31))))
            f = loss_objective(data)
            for w in rng.standard_normal((3, k * d)) * 10.0 ** rng.uniform(-3, 3, (3, 1)):
                value, grad = _fresh_buffer_kernel(w.reshape(k, d), data)
                got_value, got_grad = f.value_and_gradient(w)
                assert got_value == value and np.array_equal(got_grad, grad)
                assert np.array_equal(gradient(Weights(w, k=k, d=d), data), grad)

    @pytest.mark.parametrize("d, k, n", [(10, 5, 10_000), (10, 50, 1000)])
    def test_warm_call_allocates_less_than_one_buffer(self, d, k, n):
        # a warmed call allocates only (n,) residuals and (k, d) gradients: its
        # tracemalloc peak stays below one (k, n) float array of k n 8 bytes
        data = generate_dataset(NetConfig(d, k, n, seed=1))
        f, w = loss_objective(data), initial_weights(NetConfig(d, k, n, seed=1)).flat
        f.value_and_gradient(w)
        tracemalloc.start()
        try:
            f.value_and_gradient(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * n * 8

    def test_objectives_share_no_workspace(self):
        # two objectives on one dataset, called alternately, and a returned
        # gradient kept across later calls, give the bits of fresh objectives
        data = generate_dataset(NetConfig(d=4, k=6, n=300, seed=2))
        rng = np.random.default_rng(2)
        f, g = loss_objective(data), loss_objective(data)
        kept = []
        for w, v in rng.standard_normal((10, 2, 24)):
            got = (f.value_and_gradient(w), g.value_and_gradient(v))
            ref = (loss_objective(data).value_and_gradient(w), loss_objective(data).value_and_gradient(v))
            for (a, ga), (b, gb) in zip(got, ref):
                assert a == b and np.array_equal(ga, gb)
            kept.append((got[0][1], ref[0][1].copy()))
        assert all(np.array_equal(a, b) for a, b in kept)


class TestValueOnlyLoss:
    @pytest.mark.parametrize("d, k, n", [(10, 5, 200), (3, 2, 40), (1, 1, 5), (4, 9, 60)])
    def test_estimators_match_fused_fallback(self, d, k, n):
        # without `value`, evaluate takes the fused call's value: the slacks and
        # the midpoint estimate must not see which path served them
        data = generate_dataset(NetConfig(d, k, n, seed=d * k))
        f = loss_objective(data)
        fallback = ObjectiveFunction(dim=f.dim, value_and_gradient=f.value_and_gradient, hessian=f.hessian)
        rng = np.random.default_rng(n)
        a2 = bound_alpha2(data, k)
        for x, y in rng.standard_normal((50, 2, k * d)) * rng.uniform(0.3, 3.0, (50, 1, 1)):
            assert upper_quadratic_check(f, x, y, a2) == upper_quadratic_check(fallback, x, y, a2)
        box = BoxDomain(-np.ones(k * d), np.ones(k * d), budget=64)
        got, ref = (estimate_concavifier_midpoint(g, box, np.random.default_rng(d)) for g in (f, fallback))
        assert (got.value, got.samples_used) == (ref.value, ref.samples_used)
        assert all(np.array_equal(a, b) for a, b in zip(got.witness, ref.witness))


    @pytest.mark.parametrize("k_range", [(1, 8), (8, 201)], ids=["k<=7", "k>=8"])
    def test_stacked_values_match_fused(self, k_range):
        # a stack (m, kd) is evaluated in chunks of the stacked product, one
        # GEMM per point, so each row equals its own fused call bit for bit;
        # m = 1 and m on both sides of a chunk boundary, and m = 0
        rng = np.random.default_rng(k_range)
        shapes = [(1, 1), (2, 5000)] + [(int(rng.integers(1, 30)), int(rng.integers(1, 400))) for _ in range(8)]
        for d, n in shapes:
            k = int(rng.integers(*k_range))
            data = generate_dataset(NetConfig(d, k, n, int(rng.integers(0, 2**31))))
            f = loss_objective(data)
            fallback = ObjectiveFunction(dim=f.dim, value_and_gradient=f.value_and_gradient)
            step = max(1, relu_module.STACK_CHUNK_ENTRIES // (k * n))
            for m in sorted({0, 1, max(1, step - 1), step, step + 1, 2 * step + 1}):
                ws = rng.standard_normal((m, k * d)) * 10.0 ** rng.uniform(-3, 3)
                ref = np.array([f.value_and_gradient(w)[0] for w in ws]).reshape(m)
                got = f.evaluate(ws)
                assert got.shape == (m,) and np.array_equal(got, ref)
                assert np.array_equal(fallback.evaluate(ws), ref)


class TestActivationVectors:
    def test_zero_weights_all_active(self):
        # the indicator is >=, so w = 0 activates every neuron on every point:
        # the Hessian there, which allactive_gram_matrix returns, is the Gram of
        # the tiled inputs [X, ..., X] bit for bit
        for d, k, n in [(3, 2, 20), (10, 5, 1000), (1, 1, 5), (4, 9, 60)]:
            data = generate_dataset(NetConfig(d=d, k=k, n=n, seed=2))
            stacked = np.tile(data.inputs, (1, k))
            m = stacked.T @ stacked / n
            tiled = (m + m.T) / 2.0
            assert np.array_equal(loss_hessian_matrix(Weights(np.zeros(k * d), k=k, d=d), data).entries, tiled)
            assert np.array_equal(allactive_gram_matrix(data, k).entries, tiled)

    def test_gram_products_exactly_symmetric(self):
        # S and the Hessian are A^T A / n, which numpy forms by syrk and mirrors from one triangle: symmetric
        # bit for bit with no averaging, at random weights and at zero weights (allactive_gram_matrix)
        rng = np.random.default_rng(27)
        shapes = [(int(rng.integers(1, 31)), int(rng.integers(1, 10)), int(rng.integers(1, 601))) for _ in range(40)]
        for seed, (d, k, n) in enumerate(shapes + [(3, 8, 50), (10, 12, 600), (30, 16, 200), (1, 20, 1)]):
            data = generate_dataset(NetConfig(d=d, k=k, n=n, seed=seed))
            w = Weights(rng.standard_normal(k * d), k=k, d=d)
            for m in (second_moment_matrix(data), loss_hessian_matrix(w, data), allactive_gram_matrix(data, k)):
                assert np.array_equal(m.entries, m.entries.T), (d, k, n)

    @pytest.mark.parametrize("seeds", [[223], [418], [746], range(250)], ids=["223", "418", "746", "sweep"])
    def test_hessian_mask_is_the_forward_pass(self, seeds):
        # one point x lies on neuron 0's boundary: w_0 is projected off x, so x^T w_0 is 0 up to rounding and
        # its sign hangs on the product's summation order.  The Hessian stacks the points by the mask that the
        # forward pass records, bit for bit, and so does the loss objective's Hessian.  A Hessian that took its
        # mask from its own (n, k) product X W^T disagreed at seeds 223 (d29 k2 n4), 418 and 746 on OpenBLAS
        # 0.3.31, a count that depends on the BLAS kernel
        for seed in seeds:
            r = np.random.default_rng([seed, 7])
            d, k, n = int(r.integers(2, 40)), int(r.integers(1, 4)), int(r.integers(2, 50))
            data = generate_dataset(NetConfig(d, k, n, seed))
            wmat = r.standard_normal((k, d))
            x = data.inputs[r.integers(n)]
            wmat[0] -= (x @ wmat[0]) / (x @ x) * x
            w = _weights(wmat)
            active = np.empty((k, n), dtype=bool)
            relu_module._forward(data.inputs.T, w.matrix, active=active)
            stacked = (active.T[:, :, None] * data.inputs[:, None, :]).reshape(n, k * d)
            h = loss_hessian_matrix(w, data).entries
            assert np.array_equal(h, stacked.T @ stacked / n), (seed, d, k, n)
            assert np.array_equal(loss_objective(data).hessian(w.flat).entries, h), seed

    @given(
        coords=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=5),
        k=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_point_hessian_trace_counts_active(self, coords, k, seed):
        # one point: the Hessian is a a^T, and a holds x once per active neuron
        x = np.asarray(coords)
        rng = np.random.default_rng(seed)
        w = Weights(rng.standard_normal(k * x.size), k=k, d=x.size)
        data = _dataset_from_points([x], w)
        h = loss_hessian_matrix(w, data).entries
        active = int(np.sum(data.inputs @ w.matrix.T >= 0))
        assert float(np.trace(h)) == pytest.approx(active * float(x @ x), rel=1e-12, abs=1e-12)


class TestGradient:
    def test_zero_at_teacher(self):
        data = generate_dataset(NetConfig(d=3, k=2, n=20, seed=1))
        assert np.array_equal(gradient(data.teacher, data), np.zeros(6))

    def test_single_point_by_hand(self):
        teacher = _weights([[0.0, 0.0], [0.0, 0.0]])  # y = 0
        data = _dataset_from_points([[1.0, -1.0]], teacher)
        w = _weights([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(gradient(w, data), [1.0, -1.0, 0.0, 0.0])

    def test_matches_finite_differences_away_from_kinks(self):
        data = generate_dataset(NetConfig(d=4, k=3, n=25, seed=9))
        objective = loss_objective(data)
        rng = np.random.default_rng(10)
        for _ in range(25):
            w = _kink_free_weights(rng, data, 3)
            fd = central_difference_gradient(objective.evaluate, w.flat)
            g = gradient(w, data)
            assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))

    @pytest.mark.parametrize("k", [1, 5])
    def test_student_of_another_width(self, k):
        # loss and gradient take the width of the student, narrower or wider than the teacher's 3
        data = generate_dataset(NetConfig(d=4, k=3, n=30, seed=6))
        rng = np.random.default_rng(k)
        for _ in range(5):
            w = _kink_free_weights(rng, data, k)
            dense = 0.5 * np.mean((np.maximum(data.inputs @ w.matrix.T, 0.0).sum(axis=1) - data.targets) ** 2)
            assert loss(w, data) == pytest.approx(dense, rel=1e-13)
            fd = central_difference_gradient(lambda flat: loss(Weights(flat, k=k, d=4), data), w.flat)
            g = gradient(w, data)
            assert g.shape == (4 * k,) and np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_hessian_matches_gradient_differences(self):
        data = generate_dataset(NetConfig(d=2, k=2, n=8, seed=3))
        rng = np.random.default_rng(5)
        w = _kink_free_weights(rng, data, 2)
        h = loss_hessian_matrix(w, data).entries
        kd = 4
        h_fd = np.zeros((kd, kd))
        step = 1e-6 * max(1.0, np.linalg.norm(w.flat))
        for i in range(kd):
            e = np.zeros(kd)
            e[i] = step
            gp = gradient(Weights(w.flat + e, 2, 2), data)
            gm = gradient(Weights(w.flat - e, 2, 2), data)
            h_fd[:, i] = (gp - gm) / (2 * step)
        assert np.linalg.norm(h_fd - h) <= 1e-4 * max(1.0, np.linalg.norm(h))


class TestInputRules:
    """One statement per rule, reached by every caller."""

    @pytest.mark.parametrize("caller", [loss, gradient, near_kink, loss_hessian_matrix])
    def test_weights_of_another_dimension(self, caller):
        data = generate_dataset(NetConfig(d=3, k=2, n=10, seed=0))
        with pytest.raises(InvalidInputError, match="weight dimension does not match the data"):
            caller(Weights(np.ones(8), k=2, d=4), data)

    def test_negative_seed(self):
        with pytest.raises(InvalidInputError, match="seed must be at least 0"):
            NetConfig(1, 1, 1, -1)

    @pytest.mark.parametrize(
        "inputs, teacher, message",
        [(np.empty((0, 2)), np.ones(2), "inputs must be a nonempty (n, d) array"),
         (np.ones(3), np.ones(3), "inputs must be a nonempty (n, d) array"),
         (np.ones((4, 2)), np.ones(3), "input dimension does not match the teacher")],
        ids=["no-points", "one-dimensional", "teacher-of-another-d"],
    )
    def test_inputs_that_make_no_dataset(self, inputs, teacher, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            ReluDataset(inputs, Weights(teacher, k=1, d=teacher.size), seed=0)

    def test_dataset_seed_below_no_seed(self):
        # -1 is load_dataset's "no seed"; -5 had been taken for it silently
        data = generate_dataset(NetConfig(d=2, k=1, n=5, seed=0))
        with pytest.raises(InvalidInputError, match="seed must be at least -1"):
            ReluDataset(data.inputs, data.teacher, seed=-2)

    @pytest.mark.parametrize("field, value", [("d", 3.0), ("k", 2.0), ("n", 10.5), ("seed", 1.5), ("d", True)])
    def test_non_integer_config_rejected(self, field, value):
        # a float size or seed had passed NetConfig and died in numpy's draws (TypeError); a bool had run as 1
        fields = {"d": 3, "k": 2, "n": 10, "seed": 0}
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer, got {value!r}"):
            generate_dataset(NetConfig(**{**fields, field: value}))
        numpy_ints = generate_dataset(NetConfig(*map(np.int64, fields.values())))
        assert np.array_equal(numpy_ints.inputs, generate_dataset(NetConfig(**fields)).inputs)

    @pytest.mark.parametrize(
        "caller, name, value",
        [
            (lambda data: alpha_single_point([1.0, 2.0], 2.5), "k", 2.5),
            (lambda data: bound_alpha2(data, 2.5), "k", 2.5),
            (lambda data: alpha_oracle(data, 2.5, "random-search", budget=4), "k", 2.5),
            (lambda data: Weights(np.zeros(5), k=2.5, d=2), "k", 2.5),
            (lambda data: Weights(np.zeros(5), k=2, d=2.5), "d", 2.5),
            (lambda data: ObjectiveFunction(dim=2.5, value_and_gradient=lambda x: (0.0, x)), "dimension", 2.5),
            (lambda data: ReluDataset(data.inputs, data.teacher, seed=2.5), "seed", 2.5),
            (lambda data: alpha_single_point([1.0, 2.0], True), "k", True),
            (lambda data: BoxDomain(np.zeros(2), np.ones(2), budget=True), "budget", True),
            (lambda data: DescentConfig(eta=0.1, steps=True, x0=np.ones(2)), "step budget", True),
        ],
        ids=["alpha_single_point", "alpha2", "oracle-random-search", "Weights-k", "Weights-d",
             "ObjectiveFunction-dim", "ReluDataset-seed", "alpha_single_point-True", "BoxDomain-budget-True",
             "DescentConfig-steps-True"],
    )
    def test_non_integer_width_rejected(self, caller, name, value):
        # k = 2.5 had scaled the value by 2.5 and returned it; Weights had taken a k or d of
        # 2.5 whose product matched the weight count, and .matrix then died in reshape; an
        # objective of dim 2.5 died in np.eye, and a dataset seed of 2.5 in the oracle's stream.
        # A bool passes operator.index, so True had run as 1.
        data = generate_dataset(NetConfig(d=2, k=1, n=5, seed=0))
        with pytest.raises(InvalidInputError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}"):
            caller(data)

    def test_non_integer_oracle_budget_rejected(self):
        # budget=1e3 had died in range() inside the search (TypeError)
        data = generate_dataset(NetConfig(d=3, k=2, n=10, seed=0))
        with pytest.raises(InvalidInputError, match=r"budget must be an integer, got 1000\.0"):
            alpha_oracle(data, 2, "random-search", budget=1e3)
        assert alpha_oracle(data, 2, "random-search", budget=np.int64(10)) == alpha_oracle(
            data, 2, "random-search", budget=10
        )

    @pytest.mark.parametrize(
        "caller",
        [
            lambda data: alpha_single_point([1.0, 2.0], 0),
            lambda data: bound_alpha1(data, 0),
            lambda data: bound_alpha2(data, 0),
            lambda data: bound_alpha3(data, 0),
            lambda data: bound_alpha4(data, 0),
            lambda data: allactive_gram_matrix(data, 0),
            lambda data: alpha_oracle(data, 0, "pattern-enum"),
            lambda data: alpha_oracle(data, 0, "random-search", budget=4),
        ],
        ids=["alpha_single_point", "alpha1", "alpha2", "alpha3", "alpha4", "allactive_gram_matrix",
             "oracle-pattern-enum", "oracle-random-search"],
    )
    def test_zero_width(self, caller):
        data = generate_dataset(NetConfig(d=2, k=1, n=5, seed=0))
        with pytest.raises(InvalidInputError, match="k must be at least 1"):
            caller(data)

    @pytest.mark.parametrize("where, value", [("inputs", np.nan), ("inputs", -np.inf), ("teacher", np.nan)])
    def test_non_finite_dataset(self, where, value):
        # a NaN input had reached random search, which died in eigvalsh
        inputs, teacher = np.ones((4, 2)), np.ones(4)
        {"inputs": inputs, "teacher": teacher}[where][1] = value
        with pytest.raises(InvalidInputError, match="must be finite"):
            alpha_oracle(ReluDataset(inputs, Weights(teacher, k=2, d=2), seed=0), 2, "random-search", budget=8)

    @pytest.mark.parametrize("name, cell", [("data", "nan"), ("data", "inf"), ("teacher", "-inf")],
                             ids=["nan", "inf", "teacher-inf"])
    def test_non_finite_cell_in_dataset_file(self, tmp_path, name, cell):
        data = generate_dataset(NetConfig(d=2, k=2, n=5, seed=0))
        save_dataset(data, tmp_path / "data.csv", tmp_path / "teacher.csv")
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        lines[2] = ",".join([cell] + lines[2].split(",")[1:])  # a teacher line holds one weight
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match="must be finite"):
            load_dataset(tmp_path / "data.csv", tmp_path / "teacher.csv")

    def test_inputs_whose_squares_overflow(self, tmp_path):
        # finite inputs of 1e160 had loaded, and then the oracle died in eigvalsh while the bounds and the
        # loss overflowed with a warning: every entry of S and of a loss Hessian is at most their sum of squares
        inputs = np.random.default_rng(0).standard_normal((20, 3)) * 1e160
        teacher = Weights(np.ones(6), k=2, d=3)
        (tmp_path / "teacher.csv").write_text("1\n" * 6)
        (tmp_path / "data.csv").write_text("x0,x1,x2,y\n" + "".join("%r,%r,%r,0\n" % tuple(x) for x in inputs.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="must be finite"):
                ReluDataset(inputs, teacher, seed=0)
            with pytest.raises(InvalidInputError, match="must be finite"):
                load_dataset(tmp_path / "data.csv", tmp_path / "teacher.csv")
            assert np.isfinite(bound_alpha2(ReluDataset(inputs / 1e7, teacher, seed=0), 2))  # 1e153 inputs load


class TestDatasetGeneration:
    def test_same_seed_bit_identical(self):
        a = generate_dataset(NetConfig(d=5, k=3, n=40, seed=77))
        b = generate_dataset(NetConfig(d=5, k=3, n=40, seed=77))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.teacher.flat, b.teacher.flat)

    def test_targets_nonnegative(self):
        for seed in range(5):
            data = generate_dataset(NetConfig(d=3, k=4, n=50, seed=seed))
            assert np.all(data.targets >= 0.0)

    def test_squared_norm_concentration(self):
        # mean ||x||^2 concentrates at d for Gaussian inputs
        data = generate_dataset(NetConfig(d=10, k=1, n=10_000, seed=123))
        mean_sq = float((data.inputs**2).sum(axis=1).mean())
        assert 9.5 <= mean_sq <= 10.5

    def test_draws_handed_over_uncopied(self):
        # generate_dataset freezes its draws in place: the inputs own their memory and refuse writes, and
        # generating holds one n x d array, not the draws and a copy of them
        cfg = NetConfig(d=10, k=5, n=10_000, seed=0)
        generate_dataset(cfg)
        tracemalloc.start()
        try:
            data = generate_dataset(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.inputs.flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            data.inputs[0, 0] = 1.0
        assert np.array_equal(data.inputs, np.random.default_rng(0).standard_normal((cfg.n, cfg.d)))
        assert peak < 1.15 * cfg.n * cfg.d * 8

    @pytest.mark.parametrize("source", ["generated", "c-order", "f-order", "loaded"])
    def test_inputs_one_column_major_array(self, tmp_path, source):
        # whatever the inputs come from, the dataset holds them as one column-major array that owns its
        # memory and refuses writes, so inputs.T is the C-contiguous (d, n) layout of the forward pass
        generated = generate_dataset(_CONFIG)
        data, paths = generated, (tmp_path / "data.csv", tmp_path / "teacher.csv")
        if source == "loaded":
            save_dataset(generated, *paths)
            data = load_dataset(*paths)
        elif source != "generated":
            points = np.array(generated.inputs, order=source[0].upper())
            data = ReluDataset(points, generated.teacher, -1)
            assert not np.shares_memory(data.inputs, points)
        assert np.array_equal(data.inputs, generated.inputs)
        assert data.inputs.flags.f_contiguous and not data.inputs.flags.c_contiguous and data.inputs.flags.owndata
        assert data.inputs.T.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            data.inputs[0, 0] = 1.0

    def test_loss_holds_no_input_copy(self):
        # building the loss (and so the targets) and one fused call hold the (k, n) workspace, the targets
        # and the call's residuals, not a second n x d array: with a (d, n) copy of the inputs this read
        # 1.87 n d 8 bytes
        cfg = NetConfig(d=10, k=5, n=10_000, seed=0)
        w = initial_weights(cfg).flat
        loss_objective(generate_dataset(cfg)).value_and_gradient(w)
        data = generate_dataset(cfg)
        tracemalloc.start()
        try:
            loss_objective(data).value_and_gradient(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.n * cfg.d * 8

    def test_initial_weights_separate_stream(self):
        cfg = NetConfig(d=4, k=2, n=10, seed=5)
        w0 = initial_weights(cfg)
        data = generate_dataset(cfg)
        assert w0.flat.shape == (8,)
        assert not np.array_equal(w0.flat, data.teacher.flat)
        assert np.array_equal(w0.flat, initial_weights(cfg).flat)

    def test_one_forward_pass(self, monkeypatch):
        # ReluDataset derives the targets on first read and keeps them; the bounds and
        # the oracle never read them, so a report costs no forward pass; the forward
        # pass reads the inputs' own memory, the C-contiguous view inputs.T, not a copy
        calls = []
        original = relu_module._forward
        monkeypatch.setattr(relu_module, "_forward", lambda *args: calls.append(args) or original(*args))
        data = generate_dataset(NetConfig(d=3, k=2, n=10, seed=0))
        for bound in (bound_alpha1, bound_alpha2, bound_alpha3, bound_alpha4):
            bound(data, 2)
        alpha_oracle(data, 2, "random-search", budget=10)
        assert not calls
        targets = data.targets
        assert data.targets is targets and len(calls) == 1
        read = calls[0][0]
        assert read.flags.c_contiguous and np.shares_memory(read, data.inputs) and np.array_equal(read, data.inputs.T)
        assert np.array_equal(targets, original(data.inputs.T, data.teacher.matrix))


class TestNearKink:
    @pytest.mark.parametrize("case, expected", [("zero-weights", True), ("zero-neuron", True), ("zero-input", False)])
    def test_zero_rows(self, case, expected):
        # at w_j = 0 every x_i != 0 lies on neuron j's boundary; x_i = 0 has no kink in w
        data = generate_dataset(NetConfig(3, 2, 20, 0))
        w = np.random.default_rng(1).standard_normal((2, 3))
        assert not near_kink(_weights(w), data)
        if case == "zero-weights":
            w[:] = 0.0
        elif case == "zero-neuron":
            w[1] = 0.0
        else:
            data = _dataset_from_points(np.vstack([np.zeros(3), data.inputs]), data.teacher)
        assert near_kink(_weights(w), data) is expected


class TestAlphaBounds:
    def test_alpha_single_point(self):
        assert alpha_single_point([3.0, 4.0], 5) == 125.0
        assert alpha_single_point([0.0, 0.0], 3) == 0.0
        assert alpha_single_point([1.0], 1) == 1.0

    def test_alpha_single_point_rejects_a_stack(self):
        # x @ x on a (2, 2) array is a matrix, which float() cannot take
        with pytest.raises(InvalidInputError, match="expected one point"):
            alpha_single_point([[1.0, 2.0], [3.0, 4.0]], 1)

    def test_alpha_single_point_rejects_an_empty_point(self):
        # an empty x had given 0.0, a constant for no point at all
        with pytest.raises(InvalidInputError, match=r"expected one point .*got shape \(0,\)"):
            alpha_single_point([], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_alpha_single_point_rejects_a_non_finite_point(self, bad):
        # [nan, 1] had given nan and [inf, 1] inf, where ReluDataset refuses such inputs
        with pytest.raises(InvalidInputError, match="point must be finite"):
            alpha_single_point([bad, 1.0], 1)

    def test_alpha1_by_hand(self):
        teacher = _weights([[0.0, 0.0]] * 3)
        data = _dataset_from_points([[1.0, 0.0], [0.0, 2.0]], teacher)
        assert bound_alpha1(data, 3) == pytest.approx(7.5, abs=1e-12)

    def test_alpha1_single_point_reduction(self):
        teacher = _weights([[0.1, -0.4]] * 2)
        data = _dataset_from_points([[1.5, -0.3]], teacher)
        assert bound_alpha1(data, 2) == pytest.approx(alpha_single_point([1.5, -0.3], 2), abs=1e-12)

    @pytest.mark.parametrize("d, k, n", STANDARD_SHAPES)
    def test_alpha1_is_k_times_the_trace_of_s(self, d, k, n):
        # alpha1 reads the cached S like the other bounds, and k lambda_max(S) <= k tr(S) for S >= 0
        for seed in range(3):
            data = generate_dataset(NetConfig(d, k, n, seed))
            alpha1 = bound_alpha1(data, k)
            assert alpha1 == k * np.trace(second_moment_matrix(data).entries)
            assert alpha1 == pytest.approx(k / n * float((data.inputs**2).sum()), rel=1e-13)
            assert bound_alpha2(data, k) <= alpha1

    def test_alpha1_equals_alpha2_at_d1(self):
        # S is 1 x 1: its trace is its one eigenvalue
        for k, n, seed in [(1, 1, 0), (2, 7, 1), (5, 1000, 2), (50, 300, 3)]:
            data = generate_dataset(NetConfig(1, k, n, seed))
            assert bound_alpha1(data, k) == bound_alpha2(data, k)

    def test_bounds_allocate_no_n_by_d_array(self):
        # the four bounds read S, whose product X^T X is d x d; alpha1 had squared the inputs
        data = generate_dataset(NetConfig(d=10, k=5, n=10_000, seed=0))
        generate_dataset(NetConfig(d=10, k=5, n=100, seed=0)).second_moment  # warm the first-call paths
        tracemalloc.start()
        try:
            for bound in (bound_alpha1, bound_alpha2, bound_alpha3, bound_alpha4):
                bound(data, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * data.n * data.d * 8

    def test_alpha2_by_hand(self):
        teacher = _weights([[0.0, 0.0]] * 3)
        data = _dataset_from_points([[1.0, 0.0], [0.0, 2.0]], teacher)
        val = bound_alpha2(data, 3)
        assert val == pytest.approx(6.0, abs=1e-8)
        explicit = power_iteration(allactive_gram_matrix(data, 3)).value
        assert val == pytest.approx(explicit, abs=1e-8)
        dense = np.linalg.eigvalsh(allactive_gram_matrix(data, 3).entries)[-1]
        assert val == pytest.approx(dense, abs=1e-8)

    def test_alpha2_single_point_rank_one(self):
        teacher = _weights([[0.2, 0.1, -0.5]] * 4)
        x = [0.7, -1.1, 0.4]
        data = _dataset_from_points([x], teacher)
        assert bound_alpha2(data, 4) == pytest.approx(alpha_single_point(x, 4), rel=1e-9)

    def test_alpha3_single_point_k1(self):
        teacher = _weights([[0.3, 0.3]])
        data = _dataset_from_points([[1.0, 0.0]], teacher)
        assert bound_alpha3(data, 1) == pytest.approx(1.0, abs=1e-12)

    def test_alpha3_dominates_alpha2(self):
        for seed in range(10):
            data = generate_dataset(NetConfig(d=4, k=3, n=30, seed=seed))
            assert bound_alpha2(data, 3) <= bound_alpha3(data, 3) + 1e-9

    def test_alpha4_single_point_k1(self):
        teacher = _weights([[0.3, 0.3]])
        data = _dataset_from_points([[1.0, 0.0]], teacher)
        assert bound_alpha4(data, 1) == pytest.approx(1.0, abs=1e-12)

    def test_alpha4_below_alpha3(self):
        for seed in range(10):
            data = generate_dataset(NetConfig(d=5, k=2, n=40, seed=seed))
            a3 = bound_alpha3(data, 2)
            a4 = bound_alpha4(data, 2)
            assert a4 <= a3 + 1e-9 * max(1.0, a3)

    def test_alpha4_at_kd_one_is_the_entry(self):
        # k*d = 1: M = [S_11] has no row pairs, and its entry is its eigenvalue
        teacher = _weights([[0.5]])
        data = _dataset_from_points([[1.0], [-3.0]], teacher)  # S_11 = 5
        assert bound_alpha4(data, 1) == bound_alpha3(data, 1) == bound_alpha2(data, 1) == 5.0

    def test_quadratic_model_holds_at_alpha2(self):
        # the quadratic upper model holds at alpha2 on these random pairs only
        # because they are far apart: the (alpha2/2)|y - x|^2 term outgrows the
        # O(|y - x|) rise across a positive-residual kink, which no alpha covers
        # at short range (test_alpha2_fails_across_positive_residual_kink)
        data = generate_dataset(NetConfig(d=2, k=2, n=5, seed=12))
        a2 = bound_alpha2(data, 2)
        objective = loss_objective(data)
        rng = np.random.default_rng(0)
        from stepsafe.objectives import upper_quadratic_check

        for _ in range(1000):
            x, y = rng.standard_normal((2, 4)) * rng.uniform(0.3, 3.0)
            assert upper_quadratic_check(objective, x, y, a2).holds

    @pytest.mark.parametrize("h", [1e-4, 1e-5, 1e-6])
    def test_alpha2_fails_across_positive_residual_kink(self, h):
        # alpha2 bounds the a.e. (Gauss-Newton) Hessian, not the loss across a
        # kink.  At the student init, point 945 is inactive for neuron 4 and
        # its residual r is positive.  A step h x_945 from x^T w_4 = -(h/2)|x|^2
        # to +(h/2)|x|^2 turns it on and raises the loss by about
        # (r/2n) h |x|^2, an O(h) term that no (alpha/2) h^2 |x|^2 covers.
        cfg = NetConfig(d=10, k=5, n=1000, seed=0)
        data = generate_dataset(cfg)
        w = initial_weights(cfg).matrix.copy()
        x, xx = data.inputs[945], float(data.inputs[945] @ data.inputs[945])
        r = float(_dataset_from_points(x[None, :], _weights(w)).targets[0] - data.targets[945])
        assert x @ w[4] < 0.0 and r > 13.0
        w[4] += (-(h / 2) * xx - x @ w[4]) / xx * x
        y = w.copy()
        y[4] += h * x
        check = upper_quadratic_check(loss_objective(data), w.ravel(), y.ravel(), bound_alpha2(data, 5))
        assert not check.holds
        assert check.slack == pytest.approx(-r / (2 * data.n) * h * xx, rel=0.05)

    def test_bound_report_chain(self):
        for seed in range(15):
            cfg = NetConfig(d=4, k=3, n=50, seed=seed)
            data = generate_dataset(cfg)
            a1, a2, a3, a4 = (f(data, cfg.k) for f in (bound_alpha1, bound_alpha2, bound_alpha3, bound_alpha4))
            oracle = alpha_oracle(data, cfg.k, "random-search", budget=300)
            slack = 1e-9 * max(1.0, a1)
            assert a2 <= a1 + slack
            assert a2 <= a3 + slack
            assert a2 <= a4 + slack
            assert oracle <= a2 + slack

    @pytest.mark.parametrize(
        "d_range, k_range", [((2, 13), (1, 2)), ((1, 13), (2, 8)), ((1, 2), (2, 8))], ids=["k=1", "k>=2", "d=1"]
    )
    def test_bounds_from_s_match_allactive_matrix(self, d_range, k_range):
        # alpha2..alpha4 come from the d x d matrix S; the explicit kd x kd all-active
        # matrix is the reference, its rows paired as in any matrix (no twins)
        rng = np.random.default_rng([*d_range, *k_range])
        for _ in range(25):
            d, k, n = int(rng.integers(*d_range)), int(rng.integers(*k_range)), int(rng.integers(1, 300))
            data = generate_dataset(NetConfig(d, k, n, int(rng.integers(0, 2**31))))
            m = allactive_gram_matrix(data, k)
            a3, a4 = bound_alpha3(data, k), bound_alpha4(data, k)
            gershgorin, cassini = _gershgorin_and_cassini(m.entries)
            assert a3 == pytest.approx(gershgorin, rel=1e-12)
            assert a4 == pytest.approx(cassini, rel=1e-12)
            assert bound_alpha2(data, k) == pytest.approx(np.linalg.eigvalsh(m.entries)[-1], rel=1e-12)
            if k >= 2:
                assert a4 == a3

    @pytest.mark.parametrize("d_range, k_range", [((1, 13), (2, 9)), ((1, 2), (1, 9))], ids=["k>=2", "d=1"])
    def test_alpha4_is_alpha3_for_twinned_rows(self, d_range, k_range):
        # every row of J_k (x) S has a twin for k >= 2, and at d = k = 1 M is the 1 x 1 matrix [S_11], so
        # alpha4 is alpha3 by construction, bit for bit, however widely the column scales of the inputs spread
        rng = np.random.default_rng([7, *d_range, *k_range])
        for _ in range(100):
            d, k, n = int(rng.integers(*d_range)), int(rng.integers(*k_range)), int(rng.integers(1, 300))
            inputs = rng.standard_normal((n, d)) * np.exp(rng.uniform(-4.0, 4.0, d))
            data = ReluDataset(inputs=inputs, teacher=Weights(np.zeros(k * d), k=k, d=d), seed=-1)
            assert bound_alpha4(data, k) == bound_alpha3(data, k)

    def test_one_second_moment_product_per_report(self):
        # alpha2, alpha3 and alpha4 all need S = X^T X / n; the dataset forms it once
        class CountingArray(np.ndarray):
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    CountingArray.products += 1
                inputs = tuple(np.asarray(x) if isinstance(x, CountingArray) else x for x in inputs)
                return getattr(ufunc, method)(*inputs, **kwargs)

        cfg = NetConfig(d=4, k=3, n=50, seed=1)
        data = generate_dataset(cfg)
        object.__setattr__(data, "inputs", data.inputs.view(CountingArray))
        report = (bound_alpha1(data, 3), bound_alpha2(data, 3), bound_alpha3(data, 3), bound_alpha4(data, 3))
        assert CountingArray.products == 1
        plain = generate_dataset(cfg)
        assert report[1:] == (
            bound_alpha2(plain, 3), bound_alpha3(plain, 3), bound_alpha4(plain, 3))

    def test_bounds_at_d1000_k1000_from_s_alone(self):
        # the all-active matrix would be 10^6 x 10^6 here (8 TB); every bound
        # must come from the 1000 x 1000 matrix S
        d = k = n = 1000
        data = generate_dataset(NetConfig(d, k, n, seed=3))
        s = data.inputs.T @ data.inputs / n
        assert bound_alpha1(data, k) == pytest.approx(k / n * float((data.inputs**2).sum()), rel=1e-12)
        assert bound_alpha2(data, k) == pytest.approx(k * np.linalg.eigvalsh(s)[-1], rel=1e-12)
        assert bound_alpha3(data, k) == pytest.approx(k * float(np.abs(s).sum(axis=1).max()), rel=1e-12)
        assert bound_alpha4(data, k) == bound_alpha3(data, k)


class TestAlphaOracle:
    def test_pattern_enum_1d_fixture(self):
        teacher = _weights([[0.0]])
        data = _dataset_from_points([[1.0], [-2.0]], teacher)
        assert alpha_oracle(data, 1, "pattern-enum") == pytest.approx(2.5, abs=1e-12)

    def test_single_point_both_strategies(self):
        rng = np.random.default_rng(31)
        for k in (1, 3, 5):
            x = rng.standard_normal(2)
            teacher = Weights(rng.standard_normal(2 * k), k=k, d=2)
            data = _dataset_from_points([x], teacher)
            expected = alpha_single_point(x, k)
            assert alpha_oracle(data, k, "pattern-enum") == pytest.approx(expected, rel=1e-9)
            found = alpha_oracle(data, k, "random-search", budget=2000, rng=np.random.default_rng(1))
            assert found == pytest.approx(expected, rel=1e-9)

    def test_pattern_enum_matches_explicit_combinations(self):
        # brute force over per-neuron pattern assignments agrees with the
        # uniform-assignment shortcut
        rng = np.random.default_rng(8)
        t = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        circle = np.stack([np.cos(t), np.sin(t)], axis=1)
        for trial in range(5):
            d, k, n = 2, 2, 4
            x = rng.standard_normal((n, d))
            teacher = Weights(rng.standard_normal(k * d), k=k, d=d)
            data = _dataset_from_points(x, teacher)
            # patterns of a circle grid plus w = 0, which activates every point
            signs = np.vstack([(x @ circle.T >= 0.0).T, np.ones((1, n), dtype=bool)])
            patterns = np.unique(signs, axis=0)
            best = 0.0
            for combo in itertools.product(range(patterns.shape[0]), repeat=k):
                blocks = [patterns[c][:, None] * data.inputs for c in combo]
                stacked = np.concatenate(blocks, axis=1)
                best = max(best, float(np.linalg.eigvalsh(stacked.T @ stacked)[-1]))
            assert alpha_oracle(data, k, "pattern-enum") == pytest.approx(best / n, rel=1e-12)

    def test_pattern_enum_is_alpha2(self):
        # pattern-enum returns alpha2 at every size, so the draw need not stay small
        rng = np.random.default_rng(55)
        for _ in range(200):
            d, k, n = int(rng.integers(1, 7)), int(rng.integers(1, 6)), int(rng.integers(1, 41))
            data = generate_dataset(NetConfig(d, k, n, int(rng.integers(0, 2**31))))
            assert alpha_oracle(data, k, "pattern-enum") == bound_alpha2(data, k)

    def test_random_search_finds_best_nonzero_direction(self):
        # in d = 2 the 2n directions v with x_i^T v = 0 cut the circle into 2n
        # open sectors of one activation pattern each; a boundary direction
        # has the pattern of the neighbouring sector where x_i is active, so
        # the best sector is the exact optimum over nonzero directions
        budget = 20_000
        for seed in range(10):
            data = generate_dataset(NetConfig(d=2, k=2, n=8, seed=seed))
            x = data.inputs
            edges = np.sort(np.mod(np.arctan2(x[:, 0], -x[:, 1])[:, None] + [0.0, np.pi], 2 * np.pi).ravel())
            width = np.diff(edges, append=edges[0] + 2 * np.pi)
            values = []
            for t in edges + width / 2:
                sub = x[x @ [np.cos(t), np.sin(t)] >= 0.0]
                values.append(2 * float(np.linalg.eigvalsh(sub.T @ sub)[-1]) / 8)
            values = np.array(values)
            found = alpha_oracle(data, 2, "random-search", budget=budget)
            assert found <= values.max()
            # a sector of width w is missed with chance (1 - w/2pi)^budget < e^-25
            # once w * budget / 2pi > 25 (seed 9's best sector expects 0.8 hits)
            wide = width * budget / (2 * np.pi) > 25
            assert found >= values[wide].max() * (1 - 1e-12)

    @pytest.mark.parametrize("d, n, budget", [(3, 20, 2500), (60, 1200, 30)], ids=["chunks", "blocks"])
    def test_random_search_matches_masked_grams(self, d, n, budget):
        # directions in several chunks, or triangle products in several point blocks
        data = generate_dataset(NetConfig(d, 2, n, seed=4))
        x = data.inputs
        best = 0.0
        for v in np.random.default_rng(9).standard_normal((budget, d)):
            sub = x[x @ v >= 0.0]
            best = max(best, float(np.linalg.eigvalsh(sub.T @ sub)[-1]))
        found = alpha_oracle(data, 2, "random-search", budget=budget, rng=np.random.default_rng(9))
        assert found == pytest.approx(2 * best / n, rel=1e-12)

    @pytest.mark.parametrize("d, n, budget", [(10, 200, 1000), (3, 1, 300), (1, 30, 600), (60, 1200, 300),
                                              (60, 200, 600), (3, 50, 1)],
                             ids=["partial-chunk", "n1", "d1", "two-blocks", "short-chunks", "budget1"])
    def test_random_search_matches_unpruned(self, d, n, budget):
        # the same chunks and GEMMs with eigvalsh on every Gram, masks v X^T and upper-triangle products
        # x_ia x_ib (a <= b) formed per chunk and per point block of 2e6 / (d(d+1)/2) rows, each triangle
        # mirrored, give the same bits as products formed once per search; on d60 a chunk is 185 directions
        data = generate_dataset(NetConfig(d, 2, n, seed=5))
        chunk, rng, best = _stack_size(d, n), np.random.default_rng(3), 0.0
        a, b = np.triu_indices(d)
        rows = int(2e6 // len(a))
        blocks = [data.inputs[i : i + rows] for i in range(0, n, rows)]
        assert len(blocks) == (2 if n == 1200 else 1)
        for start in range(0, budget, chunk):
            v = rng.standard_normal((min(chunk, budget - start), d))
            grams = np.empty((len(v), d, d))
            grams[:, a, b] = grams[:, b, a] = sum(((v @ x.T) >= 0.0).astype(float) @ (x[:, a] * x[:, b])
                                                  for x in blocks)
            best = max(best, float(np.linalg.eigvalsh(grams)[:, -1].max()))
        assert alpha_oracle(data, 2, "random-search", budget=budget, rng=np.random.default_rng(3)) == 2 * best / n

    def test_random_search_default_stream(self):
        data = generate_dataset(NetConfig(d=3, k=2, n=40, seed=7))
        assert alpha_oracle(data, 2, "random-search", budget=500) == alpha_oracle(
            data, 2, "random-search", budget=500, rng=np.random.default_rng([7, 2]))

    def test_random_search_on_loaded_dataset(self, tmp_path):
        data = generate_dataset(NetConfig(d=3, k=2, n=40, seed=7))
        save_dataset(data, tmp_path / "data.csv", tmp_path / "teacher.csv")
        loaded = load_dataset(tmp_path / "data.csv", tmp_path / "teacher.csv")
        with pytest.raises(InvalidInputError, match="no seed"):
            alpha_oracle(loaded, 2, "random-search", budget=500)
        with pytest.raises(InvalidInputError, match="no seed"):
            alpha_oracle(loaded, 2, "random-search")
        assert alpha_oracle(loaded, 2, "random-search", budget=500, rng=np.random.default_rng(0)) > 0.0

    def test_random_search_below_alpha2(self):
        for seed in range(8):
            data = generate_dataset(NetConfig(d=5, k=3, n=60, seed=seed))
            val = alpha_oracle(data, 3, "random-search", budget=400, rng=np.random.default_rng(seed))
            assert val <= bound_alpha2(data, 3) + 1e-9 * max(1.0, bound_alpha2(data, 3))

    def test_unknown_strategy(self):
        data = generate_dataset(NetConfig(d=2, k=1, n=4, seed=0))
        with pytest.raises(InvalidInputError):
            alpha_oracle(data, 1, "grid")


class TestMaxTopEigenvalue:
    """The oracle search through eigenbounds._max_top_eigenvalue; the kernel's own
    tests are in test_eigenbounds.py."""

    def test_search_solves_few_grams(self, monkeypatch):
        # the centred trace-power bound rules out almost every Gram of a search, at
        # d10 n200 and at d10 n1e4, where the Grams' eigenvalues crowd together; each
        # eigvalsh call gets one Gram
        solved, original = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or original(a))
        for n in (200, 10_000):
            solved.clear()
            alpha_oracle(generate_dataset(NetConfig(10, 5, n, seed=0)), 5, "random-search", budget=2000)
            assert sum(solved) < 0.05 * 2000 and set(solved) == {1}


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path):
        data = generate_dataset(NetConfig(d=4, k=3, n=17, seed=42))
        save_dataset(data, tmp_path / "data.csv", tmp_path / "teacher.csv")
        loaded = load_dataset(tmp_path / "data.csv", tmp_path / "teacher.csv")
        assert np.array_equal(loaded.inputs, data.inputs)
        assert np.array_equal(loaded.targets, data.targets)
        assert np.array_equal(loaded.teacher.flat, data.teacher.flat)
        assert loaded.teacher.k == 3 and loaded.teacher.d == 4

    @pytest.mark.parametrize("d, k, n", [(20, 1, 50), (10, 50, 200)])
    def test_earlier_release_file_loads(self, tmp_path, d, k, n):
        # earlier releases wrote y as the point-major X W^T on row-major inputs, summed over each
        # point's neurons, which differs from the forward pass in last bits on these shapes; such a file
        # loads and gets the recomputed targets, while a y moved by 1e-12 relative, far beyond rounding,
        # is refused
        data = generate_dataset(NetConfig(d, k, n, seed=0))
        paths = tmp_path / "data.csv", tmp_path / "teacher.csv"
        y = np.maximum(np.ascontiguousarray(data.inputs) @ data.teacher.matrix.T, 0.0).sum(axis=1)
        assert not np.array_equal(y, data.targets)
        save_dataset(SimpleNamespace(d=d, inputs=data.inputs, targets=y, teacher=data.teacher), *paths)
        assert np.array_equal(load_dataset(*paths).targets, data.targets)
        y[np.argmax(y)] *= 1.0 + 1e-12
        save_dataset(SimpleNamespace(d=d, inputs=data.inputs, targets=y, teacher=data.teacher), *paths)
        with pytest.raises(InvalidInputError, match="more than rounding"):
            load_dataset(*paths)

    def test_tampered_targets_rejected(self, tmp_path):
        data = generate_dataset(NetConfig(d=2, k=2, n=5, seed=0))
        save_dataset(data, tmp_path / "data.csv", tmp_path / "teacher.csv")
        lines = (tmp_path / "data.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = "1234.5"
        lines[1] = ",".join(cells)
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match=re.escape(str(tmp_path / "data.csv"))):
            load_dataset(tmp_path / "data.csv", tmp_path / "teacher.csv")

    def test_file_bytes(self, tmp_path):
        # integer values print without a decimal point; 0.1 needs all 17 digits
        teacher = _weights([[2.0, 1.0], [0.1, -1.0]])
        data = _dataset_from_points([[1.0, -2.0], [3.0, 0.0]], teacher)
        save_dataset(data, tmp_path / "data.csv", tmp_path / "teacher.csv")
        assert (tmp_path / "data.csv").read_bytes() == (
            b"x0,x1,y\n1,-2,2.1000000000000001\n3,0,6.2999999999999998\n"
        )
        assert (tmp_path / "teacher.csv").read_bytes() == b"2\n1\n0.10000000000000001\n-1\n"

    @pytest.mark.parametrize(
        "which, text",
        [("inputs", b"x0,x1,y\n1,2,3\n4,5\n"), ("inputs", b"x0,x1,y\n1,abc,3\n"),
         ("teacher", b"0.5\nabc\n"), ("teacher", b""), ("inputs", b"x0,x1,y\n1,\xff,3\n")],
        ids=["ragged-row", "text-cell", "text-weight", "empty-teacher", "not-utf8"],
    )
    def test_malformed_file_rejected(self, tmp_path, which, text):
        # each malformed file raises InvalidInputError naming that file
        data = generate_dataset(NetConfig(d=2, k=2, n=5, seed=0))
        paths = {"inputs": tmp_path / "data.csv", "teacher": tmp_path / "teacher.csv"}
        save_dataset(data, paths["inputs"], paths["teacher"])
        paths[which].write_bytes(text)
        with pytest.raises(InvalidInputError, match=re.escape(str(paths[which]))):
            load_dataset(paths["inputs"], paths["teacher"])

    @pytest.mark.parametrize(
        "which, text, message",
        [("inputs", b"x0,x1,x2,z\n1,2,3,4\n", "has an unexpected header ['x0', 'x1', 'x2', 'z']"),
         ("teacher", b"1\n2\n3\n4\n5\n", "does not hold one weight per line, a multiple of 3 lines")],
        ids=["last-header-not-y", "five-weights-at-d3"],
    )
    def test_header_and_weight_count_checked(self, tmp_path, which, text, message):
        data = generate_dataset(NetConfig(d=3, k=2, n=5, seed=0))
        paths = {"inputs": tmp_path / "data.csv", "teacher": tmp_path / "teacher.csv"}
        save_dataset(data, paths["inputs"], paths["teacher"])
        paths[which].write_bytes(text)
        with pytest.raises(InvalidInputError, match=re.escape(f"{paths[which]} {message}")):
            load_dataset(paths["inputs"], paths["teacher"])
