"""Tests for the quadratic upper model, midpoint quotient and estimators."""

import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsafe.descent import DescentConfig, run_descent
from stepsafe.eigenbounds import SymMatrix
from stepsafe.errors import DegeneratePairError, InvalidInputError, UnsupportedOperationError
from stepsafe.objectives import (
    DIRECTED_STEP_SCALE,
    GRAD_CHECK_STEP_SCALE,
    MIDPOINT_SEPARATION_FLOOR,
    BoxDomain,
    ConcavifierEstimate,
    ObjectiveFunction,
    central_difference_gradient,
    estimate_concavifier_hessian,
    estimate_concavifier_midpoint,
    midpoint_acceleration,
    quadratic_objective,
    upper_quadratic_check,
)
from stepsafe.relu import NetConfig, generate_dataset, loss_objective


def _eigvalsh_loop(f, box, rng):
    # the largest top eigenvalue of the sampled Hessians and its first sample, by a plain eigvalsh loop
    best, witness = -np.inf, None
    for x in box.sample(rng, box.budget):
        top = float(np.linalg.eigvalsh(f.hessian(x).entries)[-1])
        if top > best:
            best, witness = top, x
    return best, witness


def _square_1d():
    return quadratic_objective([[2.0]])  # f(x) = x^2


def _linear(c):
    # f(x) = c^T x, Hessian identically zero
    c = np.asarray(c, dtype=float)
    zero = SymMatrix(np.zeros((c.shape[0], c.shape[0])))
    return ObjectiveFunction(
        dim=c.shape[0], value_and_gradient=lambda x: (float(c @ x), c.copy()), hessian=lambda x: zero
    )


def _box(lo, hi, budget):
    return BoxDomain(np.asarray(lo, float), np.asarray(hi, float), budget)


def _midpoint_loop(f, domain, rng):
    # the estimator's per-pair loop, the reference its array code must match
    # bit for bit: (value, samples_used, witness)
    n_uniform = domain.budget // 2
    eps = DIRECTED_STEP_SCALE * domain.diameter
    min_sep2 = max((0.5 * eps) ** 2, MIDPOINT_SEPARATION_FLOOR**2)
    candidates = list(zip(domain.sample(rng, n_uniform), domain.sample(rng, n_uniform)))
    if f.hessian is not None:
        directions = [np.linalg.eigh(f.hessian(domain.center).entries)[1][:, -1]]
    else:
        directions = list(np.eye(f.dim))
    for i, x in enumerate(domain.sample(rng, domain.budget - n_uniform)):
        u = directions[i % len(directions)]
        y = np.clip(x + eps * u, domain.lower, domain.upper)
        if np.sum((x - y) ** 2) < min_sep2:
            y = np.clip(x - eps * u, domain.lower, domain.upper)
        candidates.append((x, y))
    best, best_pair, pairs = -np.inf, None, 0
    for x, y in candidates:
        if np.sum((x - y) ** 2) < min_sep2:
            continue
        pairs += 1
        psi = midpoint_acceleration(f, x, y)
        if psi > best:
            best, best_pair = psi, (x, y)
    return max(0.0, best), pairs, best_pair


class TestUpperQuadraticCheck:
    def test_matching_quadratic_saturates(self):
        res = upper_quadratic_check(_square_1d(), [0.0], [1.0], 2.0)
        assert res.holds
        assert res.slack == pytest.approx(0.0, abs=1e-12)

    def test_understated_alpha_fails(self):
        res = upper_quadratic_check(_square_1d(), [0.0], [1.0], 1.9)
        assert not res.holds
        assert res.slack == pytest.approx(-0.05, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            upper_quadratic_check(_square_1d(), [0.0, 1.0], [1.0], 2.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            upper_quadratic_check(_square_1d(), [0.0], [1.0], -0.1)

    def test_nan_alpha_rejected(self):
        # alpha = inf at y == x would give the slack 0 * inf = nan
        for alpha in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError, match="alpha must be non-negative"):
                upper_quadratic_check(_square_1d(), [0.0], [0.0], alpha)

    @given(
        diag=st.lists(st.floats(0.1, 20.0), min_size=2, max_size=5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_holds_at_top_eigenvalue(self, diag, seed):
        f = quadratic_objective(np.diag(diag))
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, len(diag)))
        assert upper_quadratic_check(f, x, y, max(diag)).holds


class TestPointRule:
    """Every entry point that takes a point of an objective checks it with the one
    rule: a point is (dim,), and only the stacked callers take (m, dim)."""

    F = quadratic_objective(np.eye(2))
    CALLERS = {
        "evaluate": lambda f, x: f.evaluate(x),
        "gradient": lambda f, x: f.gradient(x),
        "run_descent": lambda f, x: run_descent(f, DescentConfig(eta=0.1, steps=1, x0=x)),
        "midpoint-estimator": lambda f, x: estimate_concavifier_midpoint(f, BoxDomain(x - 1.0, x + 1.0, 8)),
        "hessian-estimator": lambda f, x: estimate_concavifier_hessian(f, BoxDomain(x - 1.0, x + 1.0, 8)),
    }

    @pytest.mark.parametrize("caller", CALLERS)
    @pytest.mark.parametrize("dim", [1, 3])
    def test_point_of_another_dimension(self, caller, dim):
        with pytest.raises(InvalidInputError, match=r"expected a point of dimension 2, got shape"):
            self.CALLERS[caller](self.F, np.zeros(dim))

    @pytest.mark.parametrize("caller, shape", [("evaluate", (2, 2, 2)), ("evaluate", (4, 3)), ("gradient", (4, 2))])
    def test_stack_where_none_fits(self, caller, shape):
        with pytest.raises(InvalidInputError, match=r"expected a point of dimension 2, got shape"):
            self.CALLERS[caller](self.F, np.zeros(shape))

    @pytest.mark.parametrize("caller", CALLERS)
    def test_zero_d_point(self, caller):
        # a 0-d point is a point of dimension 1
        self.CALLERS[caller](_square_1d(), np.array(0.5))
        with pytest.raises(InvalidInputError, match=r"expected a point of dimension 2, got shape \(1,\)"):
            self.CALLERS[caller](self.F, np.array(0.5))


class TestBoxDomain:
    @pytest.mark.parametrize(
        "lower, upper",
        [([-np.inf], [1.0]), ([-1.0], [np.inf]), ([-1e308, 0.0], [1e308, 1.0])],
        ids=["infinite-lower", "infinite-upper", "overflowing-width"],
    )
    def test_infinite_bound_rejected(self, lower, upper):
        # a box with an infinite side or width has no uniform samples, and rng.uniform
        # would fail inside numpy (OverflowError on a width past the float range)
        with pytest.raises(InvalidInputError, match="must be finite"):
            BoxDomain(lower, upper, 4)

    @pytest.mark.parametrize("estimator", [estimate_concavifier_hessian, estimate_concavifier_midpoint])
    def test_non_integer_budget_rejected(self, estimator):
        # budget=16.0 had passed the box and died in rng.uniform inside either estimator (TypeError)
        f, lower, upper = quadratic_objective(np.diag([1.0, 3.0])), [-1.0, -1.0], [1.0, 1.0]
        with pytest.raises(InvalidInputError, match=r"budget must be an integer, got 16\.0"):
            estimator(f, BoxDomain(lower, upper, 16.0))
        numpy_int = estimator(f, BoxDomain(lower, upper, np.int64(16)))
        assert numpy_int.value == estimator(f, BoxDomain(lower, upper, 16)).value


class TestMidpointAcceleration:
    def test_quadratic_pair(self):
        assert midpoint_acceleration(_square_1d(), [1.0], [-1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_linear_is_zero(self):
        f = _linear([3.0, -1.0])
        assert midpoint_acceleration(f, [0.0, 0.0], [1.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_quartic_pair(self):
        f = ObjectiveFunction(dim=1, value_and_gradient=lambda x: (float(x[0] ** 4), 4 * x**3))
        assert midpoint_acceleration(f, [1.0], [-1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_pair(self):
        with pytest.raises(DegeneratePairError):
            midpoint_acceleration(_square_1d(), [1.0], [1.0 + 1e-10])

    @pytest.mark.parametrize("with_value", [True, False], ids=["value", "fallback"])
    def test_stacks_match_single_pairs(self, with_value):
        # two stacks (m, dim) give the quotients of their row pairs bit for bit,
        # through value (a stack callable) or the fused fallback row by row
        value = lambda x: np.sum(np.cos(x) * x**2, axis=-1)  # noqa: E731
        f = ObjectiveFunction(4, lambda x: (value(x), None), value=value if with_value else None)
        xs, ys = np.random.default_rng(6).standard_normal((2, 9, 4))
        psi = midpoint_acceleration(f, xs, ys)
        assert psi.shape == (9,)
        assert np.array_equal(psi, [midpoint_acceleration(f, x, y) for x, y in zip(xs, ys)])
        assert isinstance(midpoint_acceleration(f, xs[0], ys[0]), float)

    def test_stack_with_one_close_pair_rejected(self):
        xs = np.array([[0.0], [1.0], [2.0]])
        ys = xs + [[1.0], [1e-10], [1.0]]
        with pytest.raises(DegeneratePairError):
            midpoint_acceleration(_square_1d(), xs, ys)
        with pytest.raises(InvalidInputError):
            midpoint_acceleration(_square_1d(), xs, ys[:2])

    def test_failed_check_implies_large_midpoint(self):
        # if the quadratic model fails at level alpha for a pair, the midpoint
        # quotient on that pair exceeds alpha
        f = _square_1d()
        alpha = 1.9
        assert not upper_quadratic_check(f, [0.0], [1.0], alpha).holds
        assert midpoint_acceleration(f, [0.0], [1.0]) > alpha


class TestMidpointEstimator:
    def test_anisotropic_quadratic(self):
        f = quadratic_objective(np.diag([1.0, 3.0]))
        est = estimate_concavifier_midpoint(f, _box([-1, -1], [1, 1], 10_000), np.random.default_rng(0))
        assert 3.0 - 0.05 <= est.value <= 3.0 + 1e-8
        assert est.method == "midpoint-sup"
        x, y = est.witness
        assert np.all(x >= -1 - 1e-12) and np.all(y <= 1 + 1e-12)

    def test_linear_gives_zero(self):
        f = _linear([1.0, -2.0])
        est = estimate_concavifier_midpoint(f, _box([-1, -1], [1, 1], 500), np.random.default_rng(1))
        assert est.value == pytest.approx(0.0, abs=1e-9)

    def test_isotropic_quadratic_exact(self):
        f = quadratic_objective(np.eye(3))
        est = estimate_concavifier_midpoint(f, _box([-2] * 3, [2] * 3, 400), np.random.default_rng(2))
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_axis_pairs_without_hessian(self):
        f = quadratic_objective(np.diag([1.0, 3.0]))
        f_nohess = ObjectiveFunction(dim=2, value_and_gradient=f.value_and_gradient)
        est = estimate_concavifier_midpoint(f_nohess, _box([-1, -1], [1, 1], 2000), np.random.default_rng(3))
        # axis-aligned pairs hit the diagonal entries, so the max is exact
        assert est.value == pytest.approx(3.0, abs=1e-8)

    def test_budget_too_small(self):
        with pytest.raises(InvalidInputError):
            estimate_concavifier_midpoint(_square_1d(), _box([0.0], [1.0], 1))

    def test_degenerate_box(self):
        with pytest.raises(DegeneratePairError):
            estimate_concavifier_midpoint(_square_1d(), _box([0.5], [0.5], 10))

    @pytest.mark.parametrize(
        "d, hessian, width",
        [(1, True, 1.0), (3, True, 1.0), (3, False, 1.0), (2, False, 1.5e-3), (3, False, 1e-4)],
        ids=["d1-hessian", "d3-hessian", "d3-axes", "flipped-steps", "dropped-steps"],
    )
    def test_matches_loop_reference(self, d, hessian, width):
        # a last side of 1.5e-3 makes a third of its axis steps flip, one of
        # 1e-4 makes every one too short to keep
        a = np.random.default_rng(d).standard_normal((d, d))
        f = quadratic_objective(a @ a.T - np.eye(d))
        if not hessian:
            f = ObjectiveFunction(dim=d, value_and_gradient=f.value_and_gradient)
        box = _box(np.zeros(d), np.r_[np.ones(d - 1), width], 64)
        est = estimate_concavifier_midpoint(f, box, np.random.default_rng(7))
        value, pairs, (x, y) = _midpoint_loop(f, box, np.random.default_rng(7))
        assert (est.value, est.samples_used) == (value, pairs)
        assert np.array_equal(est.witness[0], x) and np.array_equal(est.witness[1], y)
        assert pairs < 64 if width == 1e-4 else pairs == 64


class TestMidpointWitness:
    """The witness is the first pair with the largest quotient; a NaN quotient
    counts in samples_used but never becomes the witness."""

    BOX = BoxDomain([-1.0, -1.0], [1.0, 1.0], 6)

    def _uniform_pairs(self, seed):
        # the estimator draws its uniform pairs first: budget // 2 starts, then as many ends
        rng = np.random.default_rng(seed)
        return self.BOX.sample(rng, 3), self.BOX.sample(rng, 3)

    def _estimate(self, value, seed):
        f = ObjectiveFunction(dim=2, value_and_gradient=lambda x: (0.0, np.zeros(2)), value=value)
        return estimate_concavifier_midpoint(f, self.BOX, np.random.default_rng(seed))

    def test_first_maximum_wins(self):
        # a constant gives every pair the quotient 0, so the first pair wins
        est = self._estimate(lambda x: 0.0 * x[..., 0], 4)
        xs, ys = self._uniform_pairs(4)
        assert est.value == 0.0 and est.samples_used == 6
        assert np.array_equal(est.witness[0], xs[0]) and np.array_equal(est.witness[1], ys[0])

    def test_nan_counts_but_never_wins(self):
        xs, ys = self._uniform_pairs(4)
        est = self._estimate(lambda x: np.where(np.all(x == xs[0], axis=-1), np.nan, 0.0), 4)
        assert est.value == 0.0 and est.samples_used == 6
        assert np.array_equal(est.witness[0], xs[1]) and np.array_equal(est.witness[1], ys[1])

    def test_all_nan_raises(self):
        with pytest.raises(DegeneratePairError):
            self._estimate(lambda x: np.nan * x[..., 0], 4)


class TestHessianEstimator:
    def test_constant_hessian(self):
        f = quadratic_objective(np.diag([1.0, 3.0]))
        box = _box([-1, -1], [1, 1], 64)
        est = estimate_concavifier_hessian(f, box, np.random.default_rng(0))
        assert est.value == pytest.approx(3.0, abs=1e-8)
        assert est.method == "hessian-sampling"
        assert est.samples_used == 64
        # every sample ties, so the witness is the first one
        assert np.array_equal(est.witness, box.sample(np.random.default_rng(0), 1)[0])

    def test_isotropic(self):
        f = quadratic_objective(np.eye(4))
        box = _box([-1] * 4, [1] * 4, 32)
        est = estimate_concavifier_hessian(f, box, np.random.default_rng(0))
        assert est.value == pytest.approx(1.0, abs=1e-8)
        assert np.array_equal(est.witness, box.sample(np.random.default_rng(0), 1)[0])

    def test_sine_curvature(self):
        import math

        f = ObjectiveFunction(
            dim=1,
            value_and_gradient=lambda x: (math.sin(x[0]), np.array([math.cos(x[0])])),
            hessian=lambda x: SymMatrix([[-math.sin(x[0])]]),
        )
        est = estimate_concavifier_hessian(f, _box([-np.pi], [np.pi], 1000), np.random.default_rng(5))
        # dense-grid reference for the curvature maximum over the box
        grid = np.linspace(-np.pi, np.pi, 100_001)
        assert np.max(-np.sin(grid)) == pytest.approx(1.0, abs=1e-9)
        assert 1.0 - 1e-3 <= est.value <= 1.0

    def test_indefinite_takes_largest_not_largest_magnitude(self):
        # f = (x1^2 - 3 x2^2)/2: the largest Hessian eigenvalue is 1, while the
        # eigenvalue of largest magnitude is -3
        f = quadratic_objective(np.diag([1.0, -3.0]))
        box = _box([-1, -1], [1, 1], 8)
        est = estimate_concavifier_hessian(f, box, np.random.default_rng(0))
        assert est.value == 1.0
        assert np.array_equal(est.witness, box.sample(np.random.default_rng(0), 1)[0])

    def test_missing_hessian(self):
        f = ObjectiveFunction(dim=1, value_and_gradient=lambda x: (float(x[0]), np.ones(1)))
        with pytest.raises(UnsupportedOperationError):
            estimate_concavifier_hessian(f, _box([0.0], [1.0], 10))

    def test_gradient_lipschitz_quadratic(self):
        # for f = 0.5 x^T A x with PSD A the gradient-Lipschitz constant is
        # lambda_max(A); the sampled estimate returns the same number
        rng = np.random.default_rng(21)
        g = rng.standard_normal((5, 5))
        a = (g @ g.T + (g @ g.T).T) / 2
        f = quadratic_objective(a)
        est = estimate_concavifier_hessian(f, _box([-1] * 5, [1] * 5, 16), rng)
        lipschitz = np.linalg.eigvalsh(a)[-1]
        assert est.value == pytest.approx(lipschitz, abs=1e-8 * max(1.0, lipschitz))

    def test_matches_eigvalsh_loop_on_loss(self):
        # the value and witness of a plain eigvalsh loop over the samples, on the
        # d10 k5 n200 loss over [-1, 1]^50
        for seed in range(5):
            f = loss_objective(generate_dataset(NetConfig(10, 5, 200, seed)))
            box = _box([-1.0] * 50, [1.0] * 50, 16)
            best, witness = _eigvalsh_loop(f, box, np.random.default_rng(seed))
            est = estimate_concavifier_hessian(f, box, np.random.default_rng(seed))
            assert est.value == best and np.array_equal(est.witness, witness)

    def test_matches_eigvalsh_loop_past_one_stack(self):
        # budget 600 on the d2 k2 n20 loss (dim 4): stacks of 256, 256 and 88 Hessians; the loss Hessian is
        # constant on each activation pattern, so at seed 1 the maximum ties across the first cut (168 and 288)
        for seed in range(4):
            f = loss_objective(generate_dataset(NetConfig(2, 2, 20, seed)))
            box = _box([-1.0] * 4, [1.0] * 4, 600)
            best, witness = _eigvalsh_loop(f, box, np.random.default_rng(seed))
            est = estimate_concavifier_hessian(f, box, np.random.default_rng(seed))
            assert est.value == best and np.array_equal(est.witness, witness)

    def test_warm_peak_memory_within_one_batch_rule(self):
        # budget 1000 on the d10 k5 n200 loss over [-1, 1]^50: stacks of at most 256 Hessians, each formed
        # when the screen asks for it, keep the warm tracemalloc peak under 16 MB (48 MB with 800-Hessian stacks)
        f = loss_objective(generate_dataset(NetConfig(10, 5, 200, 0)))
        box = _box([-1.0] * 50, [1.0] * 50, 1000)
        first = estimate_concavifier_hessian(f, box, np.random.default_rng(0))
        tracemalloc.start()
        try:
            again = estimate_concavifier_hessian(f, box, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6
        assert again.value == first.value and np.array_equal(again.witness, first.witness)

    def test_warm_peak_memory_counts_the_screens_arrays(self):
        # budget 64 on the d50 k5 n200 loss over [-1, 1]^250: the screen holds two more arrays the size of its
        # stack, so stacks of 10 Hessians keep the warm tracemalloc peak under 16 MB (48 MB with stacks of 32,
        # sized by 2e6 / dim^2 alone)
        f = loss_objective(generate_dataset(NetConfig(50, 5, 200, 0)))
        box = _box([-1.0] * 250, [1.0] * 250, 64)
        estimate_concavifier_hessian(f, box, np.random.default_rng(0))
        tracemalloc.start()
        try:
            est = estimate_concavifier_hessian(f, box, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6
        best, witness = _eigvalsh_loop(f, box, np.random.default_rng(0))
        assert est.value == best and np.array_equal(est.witness, witness)


class TestHessianEstimatorSolves:
    def test_certify_loss_solves_few_hessians(self, monkeypatch):
        # the d10 k5 n200 loss over [-1, 1]^50, budget 16: each 50 x 50 Hessian is solved alone,
        # in decreasing order of its bound, until the bounds fall below the best so far; a block
        # of 8 had solved 8 per call
        solves, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(len(a)) or eigvalsh(a))
        box = _box([-1.0] * 50, [1.0] * 50, 16)
        for seed in range(5):
            f = loss_objective(generate_dataset(NetConfig(10, 5, 200, seed)))
            for rnd in range(20):
                estimate_concavifier_hessian(f, box, np.random.default_rng([seed, rnd, 1]))
        assert sum(solves) / 100 < 3 and set(solves) == {1}


class TestEstimatorConsistency:
    def test_midpoint_below_hessian_on_quadratics(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(1, 7))
            g = rng.standard_normal((d, d))
            a = (g @ g.T + (g @ g.T).T) / 2
            f = quadratic_objective(a)
            box = _box([-1.0] * d, [1.0] * d, 600)
            mid = estimate_concavifier_midpoint(f, box, np.random.default_rng(100))
            hess = estimate_concavifier_hessian(f, box, np.random.default_rng(101))
            assert mid.value <= hess.value + 1e-6

    def test_check_holds_above_hessian_estimate(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((4, 4))
        a = (g @ g.T + (g @ g.T).T) / 2
        f = quadratic_objective(a)
        box = _box([-2.0] * 4, [2.0] * 4, 32)
        alpha = estimate_concavifier_hessian(f, box, rng).value
        for _ in range(200):
            x = rng.uniform(-2, 2, size=4)
            y = rng.uniform(-2, 2, size=4)
            assert upper_quadratic_check(f, x, y, alpha).holds

    def test_method_is_one_an_estimator_produces(self):
        for method in ("hessian-sampling", "midpoint-sup"):
            assert ConcavifierEstimate(1.0, method, 1, None).method == method
        with pytest.raises(InvalidInputError, match="unknown method"):
            ConcavifierEstimate(1.0, "analytic", 1, None)

    def test_nan_value_rejected(self):
        # value < 0 is False for NaN, so the check must reject every value that is not >= 0
        with pytest.raises(InvalidInputError, match="non-negative"):
            ConcavifierEstimate(float("nan"), "midpoint-sup", 1, None)


class TestValueCallable:
    @staticmethod
    def _counted(with_value):
        # f(x) = 0.5 x^T A x whose callables count their calls
        base = quadratic_objective([[2.0, 0.5], [0.5, 1.0]])
        calls = {"value_and_gradient": 0, "value": 0}

        def value_and_gradient(x):
            calls["value_and_gradient"] += 1
            return base.value_and_gradient(x)

        def value(x):
            calls["value"] += 1
            return base.value_and_gradient(x)[0]

        return ObjectiveFunction(2, value_and_gradient, value=value if with_value else None), calls

    def test_value_only_callers_take_no_gradient(self):
        f, calls = self._counted(with_value=True)
        upper_quadratic_check(f, [0.0, 1.0], [1.0, -1.0], 3.0)
        assert calls == {"value_and_gradient": 1, "value": 1}
        calls.update(value_and_gradient=0, value=0)
        midpoint_acceleration(f, [0.0, 1.0], [1.0, -1.0])
        assert calls == {"value_and_gradient": 0, "value": 3}

    def test_evaluate_falls_back_to_fused_value(self):
        f, _ = self._counted(with_value=True)
        g, calls = self._counted(with_value=False)
        x = np.array([0.3, -1.7])
        assert g.evaluate(x) == f.evaluate(x)
        assert calls == {"value_and_gradient": 1, "value": 0}

    def test_objective_is_frozen(self):
        # an assignment would skip the dimension check that construction makes
        f = quadratic_objective(np.eye(2))
        with pytest.raises(FrozenInstanceError):
            f.dim = 0
        assert f.dim == 2

    def test_stack_value_of_wrong_shape_rejected(self):
        # a value written for one point may reduce a whole stack to one number,
        # which would otherwise broadcast into every quotient
        f = ObjectiveFunction(2, lambda x: (float(x @ x), 2 * x), value=lambda x: np.sum(x * x))
        assert f.evaluate([1.0, 2.0]) == 5.0
        with pytest.raises(InvalidInputError, match="shape"):
            f.evaluate(np.ones((3, 2)))

    def test_midpoint_stacks_take_three_value_calls(self):
        # every pair of a stack, and so every pair the estimator keeps, is
        # served by three stacked value calls: the ends, then the midpoints
        shapes = []

        def value(x):
            shapes.append(x.shape)
            return 0.5 * np.sum(x * x, axis=-1)

        f = ObjectiveFunction(2, lambda x: (0.5 * float(x @ x), x), value=value)
        midpoint_acceleration(f, *np.random.default_rng(8).standard_normal((2, 5, 2)))
        assert shapes == [(5, 2)] * 3
        shapes.clear()
        est = estimate_concavifier_midpoint(f, _box([-1, -1], [1, 1], 40), np.random.default_rng(9))
        assert shapes == [(est.samples_used, 2)] * 3 and est.samples_used == 40


class TestFiniteDifferences:
    def test_gradient_agrees(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((6, 6))
        a = (g @ g.T + (g @ g.T).T) / 2
        f = quadratic_objective(a)
        for _ in range(25):
            x = rng.standard_normal(6) * 3
            fd = central_difference_gradient(f.evaluate, x)
            grad = f.gradient(x)
            assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))

    def test_matches_loop_reference(self):
        # the stencil rows of h*I give the bits of setting one coordinate at a time
        f = lambda x: float(np.sum(np.sin(x) * x**2))  # noqa: E731
        for x in np.random.default_rng(3).standard_normal((10, 5)) * [1, 10, 100, 1e-3, 0]:
            h = GRAD_CHECK_STEP_SCALE * max(1.0, float(np.linalg.norm(x)))
            ref = np.empty(5)
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                ref[i] = (f(x + e) - f(x - e)) / (2.0 * h)
            assert np.array_equal(central_difference_gradient(f, x), ref)

    def test_rejects_a_stack(self):
        # a (2, 2) x had given a (2,) array of differences along the rows of h*I
        with pytest.raises(InvalidInputError, match=r"expected one point, got shape \(2, 2\)"):
            central_difference_gradient(lambda x: float(np.sum(x)), np.ones((2, 2)))

    def test_rejects_an_empty_point(self):
        # [] had given an empty array: a gradient of no coordinates
        with pytest.raises(InvalidInputError, match=r"expected one point, got shape \(0,\)"):
            central_difference_gradient(lambda x: float(np.sum(x)), [])

    def test_detects_wrong_gradient(self):
        f = ObjectiveFunction(dim=2, value_and_gradient=lambda x: (float(x @ x), x))  # true grad 2x
        x = np.array([1.0, 2.0])
        fd = central_difference_gradient(f.evaluate, x)
        assert np.linalg.norm(fd - f.gradient(x)) > 1e-2
