"""Tests for the fixed-step descent engine and trace recording."""

import re

import numpy as np
import pytest

from stepsafe.descent import DescentConfig, DescentTrace, load_trace, run_descent, save_trace
from stepsafe.errors import InvalidInputError
from stepsafe.objectives import ObjectiveFunction, quadratic_objective, upper_quadratic_check
from stepsafe.relu import NetConfig, generate_dataset, initial_weights, loss_objective


class TestGdStep:
    """One step x - eta * grad f(x), as run_descent takes it."""

    def _step(self, grad, x0, eta):
        f = ObjectiveFunction(dim=len(x0), value_and_gradient=lambda x: (0.0, np.asarray(grad(x), float)))
        return run_descent(f, DescentConfig(eta=eta, steps=1, x0=x0))

    def test_basic(self):
        assert np.array_equal(self._step(lambda x: [1.0, 0.0], [1.0, 1.0], 0.5).final_point, [0.5, 1.0])

    def test_zero_gradient(self):
        x = np.array([2.0, -3.0])
        assert np.array_equal(self._step(lambda x: np.zeros(2), x, 0.1).final_point, x)

    def test_exact_minimizer_of_isotropic_quadratic(self):
        x = np.array([3.0, -4.0])
        assert np.array_equal(self._step(lambda x: x, x, 1.0).final_point, np.zeros(2))

    def test_nonfinite_gradient(self):
        trace = self._step(lambda x: [np.nan], [1.0], 0.1)
        assert trace.diverged and trace.steps_taken == 0
        assert np.array_equal(trace.final_point, [1.0])

    def test_bad_eta(self):
        # DescentConfig refuses a non-positive, nan or infinite step size and an empty step budget
        for field in ({"eta": 0.0}, {"eta": -0.1}, {"eta": float("nan")}, {"eta": float("inf")}, {"steps": 0}):
            with pytest.raises(InvalidInputError):
                DescentConfig(**{"eta": 0.1, "steps": 1, "x0": [1.0], **field})

    def test_non_integer_steps(self):
        # steps=10.0 had died in range() inside run_descent (TypeError)
        with pytest.raises(InvalidInputError, match=r"step budget must be an integer, got 10\.0"):
            run_descent(quadratic_objective(np.eye(1)), DescentConfig(eta=0.1, steps=10.0, x0=[1.0]))
        assert DescentConfig(eta=0.1, steps=np.int64(10), x0=[1.0]).steps == 10


class TestRunDescent:
    def test_isotropic_quadratic_one_step(self):
        f = quadratic_objective(np.eye(2))
        trace = run_descent(f, DescentConfig(eta=1.0, steps=5, x0=[3.0, 4.0]))
        assert np.array_equal(trace.losses, [12.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert np.all(trace.gaps >= 0.0)
        assert trace.monotone and not trace.diverged

    def test_quadratic_contraction_rate(self):
        rng = np.random.default_rng(3)
        diag = rng.uniform(0.5, 4.0, size=6)
        f = quadratic_objective(np.diag(diag))
        x0 = rng.standard_normal(6)
        steps = 1000
        trace = run_descent(f, DescentConfig(eta=1.0 / diag.max(), steps=steps, x0=x0))
        bound = trace.losses[0] * (1.0 - diag.min() / diag.max()) ** (2 * steps) + 1e-12
        assert trace.losses[-1] <= bound
        assert trace.monotone

    def test_descent_gaps_nonnegative_at_safe_step(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((5, 5))
        a = (g @ g.T + (g @ g.T).T) / 2
        f = quadratic_objective(a)
        alpha = np.linalg.eigvalsh(a)[-1]
        trace = run_descent(f, DescentConfig(eta=1.0 / alpha, steps=200, x0=rng.standard_normal(5)))
        tol = 1e-9 * np.maximum(1.0, np.abs(trace.losses[:-1]))
        assert np.all(trace.gaps >= -tol)

    def test_post_hoc_quadratic_check_on_iterates(self):
        data = generate_dataset(NetConfig(d=4, k=2, n=30, seed=2))
        from stepsafe.relu import bound_alpha2

        alpha = bound_alpha2(data, 2)
        f = loss_objective(data)
        w0 = initial_weights(NetConfig(d=4, k=2, n=30, seed=2))
        trace = run_descent(f, DescentConfig(eta=1.0 / alpha, steps=40, x0=w0.flat))
        # replay and verify the quadratic model between consecutive iterates
        x = w0.flat.copy()
        for _ in range(10):
            g = f.gradient(x)
            y = x - trace.eta * g
            assert upper_quadratic_check(f, x, y, alpha).holds
            x = y

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_flagged(self):
        f = ObjectiveFunction(dim=1, value_and_gradient=lambda x: (float(x[0] ** 4), 4.0 * x**3))
        trace = run_descent(f, DescentConfig(eta=10.0, steps=100, x0=[2.0]))
        assert trace.diverged
        assert not trace.monotone
        assert trace.losses.shape[0] <= 101
        assert np.all(np.isfinite(trace.losses))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_diverged_run_is_not_monotone(self):
        # the first step overflows the loss, so the only recorded flag is the initial True; the run had
        # still counted as monotone
        trace = run_descent(quadratic_objective(np.eye(2)), DescentConfig(eta=1e300, steps=3, x0=[1, 1]))
        assert trace.diverged and trace.monotone_so_far.tolist() == [True]
        assert trace.monotone is False

    def test_one_objective_call_per_step(self):
        f = quadratic_objective(np.diag([1.0, 2.0]))
        calls = []
        counted = ObjectiveFunction(dim=2, value_and_gradient=lambda x: calls.append(1) or f.value_and_gradient(x))
        trace = run_descent(counted, DescentConfig(eta=0.3, steps=12, x0=[1.0, -1.5]))
        assert len(calls) == trace.steps_taken + 1 == 13

    def test_monotone_is_last_prefix_flag(self):
        # eta = 1.5 > 2/lambda_max: the loss grows from the first step on
        f = quadratic_objective(np.diag([1.0, 2.0]))
        trace = run_descent(f, DescentConfig(eta=1.5, steps=5, x0=[1.0, -1.5]))
        assert trace.monotone_so_far.tolist() == [True] + [False] * 5
        assert trace.monotone is False

    def test_trace_determinism(self):
        data = generate_dataset(NetConfig(d=3, k=2, n=20, seed=6))
        f = loss_objective(data)
        cfg = DescentConfig(eta=0.05, steps=30, x0=initial_weights(NetConfig(3, 2, 20, 6)).flat)
        t1, t2 = run_descent(f, cfg), run_descent(f, cfg)
        assert np.array_equal(t1.losses, t2.losses)
        assert np.array_equal(t1.gaps, t2.gaps)
        assert np.array_equal(t1.final_point, t2.final_point)

    @pytest.mark.parametrize("d, k, n", [(3, 2, 20), (10, 5, 1000), (20, 1, 50)])
    def test_grad_norms_are_linalg_norms(self, d, k, n):
        # the recorded norm is np.linalg.norm of each iterate's gradient bit for bit,
        # replayed from x0 with the same update
        cfg = NetConfig(d, k, n, seed=k)
        f = loss_objective(generate_dataset(cfg))
        trace = run_descent(f, DescentConfig(eta=0.05, steps=25, x0=initial_weights(cfg).flat))
        x = initial_weights(cfg).flat
        for gn in trace.grad_norms:
            g = f.gradient(x)
            assert gn == np.linalg.norm(g)
            x = x - 0.05 * g
        assert trace.steps_taken == 25

    def test_zero_loss_at_teacher_init(self):
        data = generate_dataset(NetConfig(d=3, k=2, n=20, seed=8))
        f = loss_objective(data)
        trace = run_descent(f, DescentConfig(eta=0.1, steps=20, x0=data.teacher.flat))
        assert np.array_equal(trace.losses, np.zeros(21))

    def test_dimension_mismatch(self):
        f = quadratic_objective(np.eye(2))
        with pytest.raises(InvalidInputError):
            run_descent(f, DescentConfig(eta=0.1, steps=5, x0=[1.0]))


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        f = quadratic_objective(np.diag([1.0, 2.0]))
        trace = run_descent(f, DescentConfig(eta=0.3, steps=12, x0=[1.0, -1.5]))
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        cols = load_trace(path)
        assert np.array_equal(cols["loss"], trace.losses)
        assert np.array_equal(cols["grad_norm"], trace.grad_norms)
        assert np.array_equal(cols["descent_gap"][:-1], trace.gaps)
        assert np.isnan(cols["descent_gap"][-1])
        assert np.array_equal(cols["monotone_so_far"], trace.monotone_so_far)

    def test_timestamp_header_skipped(self, tmp_path):
        f = quadratic_objective(np.eye(1))
        trace = run_descent(f, DescentConfig(eta=0.5, steps=3, x0=[1.0]))
        path = tmp_path / "trace.csv"
        save_trace(trace, path, timestamp="2026-01-01T00:00:00Z")
        assert path.read_text().startswith("# generated:")
        cols = load_trace(path)
        assert cols["loss"].shape[0] == trace.losses.shape[0]

    def test_file_bytes(self, tmp_path):
        # the loss rises at step 2, so monotone_so_far drops to 0 there and
        # stays 0; the last row has no completed step and its gap is nan
        trace = DescentTrace(
            losses=np.array([3.0, 2.5, 2.75, 0.1]),
            grad_norms=np.array([1.0, 0.5, 2.0, 0.0]),
            gaps=np.array([0.25, -0.375, 1.0 / 3.0]),
            monotone_so_far=np.array([True, True, False, False]),
            diverged=False,
            final_point=np.zeros(2),
            eta=0.5,
        )
        path = tmp_path / "trace.csv"
        save_trace(trace, path, timestamp="2026-01-01T00:00:00Z")
        assert path.read_bytes() == (
            b"# generated: 2026-01-01T00:00:00Z\n"
            b"step,loss,grad_norm,descent_gap,monotone_so_far\n"
            b"0,3,1,0.25,1\n"
            b"1,2.5,0.5,-0.375,1\n"
            b"2,2.75,2,0.33333333333333331,0\n"
            b"3,0.10000000000000001,0,nan,0\n"
        )

    def test_extra_columns_kept(self, tmp_path):
        # a trace may carry further per-step columns beside the five it must hold; they come back as read
        path = tmp_path / "trace.csv"
        path.write_text("step,loss,grad_norm,descent_gap,monotone_so_far,beta\n0,2,1,0.5,1,3.25\n1,1,0,nan,1,-1\n")
        cols = load_trace(path)
        assert list(cols) == ["step", "loss", "grad_norm", "descent_gap", "monotone_so_far", "beta"]
        assert np.array_equal(cols["beta"], [3.25, -1.0]) and np.array_equal(cols["loss"], [2.0, 1.0])
        assert cols["step"].dtype.kind == "i" and cols["monotone_so_far"].dtype == bool

    @pytest.mark.parametrize(
        "header",
        ["step,loss,grad_norm,descent_gap,beta", "step,loss,grad_norm,monotone_so_far,beta",
         "step,loss,grad_norm,descent_gap,monotone_so_far,loss"],
        ids=["no-monotone_so_far", "no-descent_gap", "repeated-name"],
    )
    def test_trace_without_its_base_columns_rejected(self, tmp_path, header):
        path = tmp_path / "trace.csv"
        path.write_text(header + "\n0,2,1,0.5,1" + ",3" * (header.count(",") - 4) + "\n")
        with pytest.raises(InvalidInputError, match=re.escape(f"{path} is not a descent trace file")):
            load_trace(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError):
            load_trace(path)

    @pytest.mark.parametrize(
        "text",
        [b"step,loss,grad_norm,descent_gap,monotone_so_far\n0,1,1,nan\n",
         b"step,loss,grad_norm,descent_gap,monotone_so_far\n0,1,one,nan,1\n", b"# generated: now\n",
         b"step,loss,grad_norm,descent_gap,monotone_so_far\n0,1,1,nan,\xff\n"],
        ids=["ragged-row", "text-cell", "empty", "not-utf8"],
    )
    def test_malformed_trace_rejected(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_bytes(text)
        with pytest.raises(InvalidInputError, match=re.escape(str(path))):
            load_trace(path)
