"""Tests for the symmetric-matrix eigenvalue machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stepsafe.eigenbounds import (
    SymMatrix,
    brauer_cassini_upper,
    gershgorin_upper,
    kron_allones_structure_lambda,
    power_iteration,
    sym_matrix,
)
from stepsafe.errors import InvalidInputError


def _random_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return SymMatrix((a + a.T) / 2.0)


class TestSymMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            sym_matrix(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            sym_matrix([[1.0, 2.0], [2.1, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            sym_matrix(np.zeros((0, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            sym_matrix([[np.inf]])

    def test_accepts_roundoff_asymmetry(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
        assert sym_matrix(a).size == 2


class TestPowerIteration:
    def test_diagonal(self):
        res = power_iteration(sym_matrix(np.diag([2.0, 1.0])))
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert abs(abs(res.vector[0]) - 1.0) < 1e-6
        assert res.converged

    def test_all_ones(self):
        res = power_iteration(sym_matrix(np.ones((2, 2))))
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(np.abs(res.vector), np.full(2, 1 / np.sqrt(2)), atol=1e-6)

    def test_off_diagonal(self):
        res = power_iteration(sym_matrix([[2.0, 1.0], [1.0, 2.0]]))
        assert res.value == pytest.approx(3.0, abs=1e-9)

    def test_unit_vector_and_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = _random_sym(rng, int(rng.integers(1, 15)))
            g = m.entries @ m.entries  # PSD, dominant eigenvalue is lambda_max
            res = power_iteration(SymMatrix((g + g.T) / 2))
            assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-10
            assert res.converged
            resid = np.linalg.norm(g @ res.vector - res.value * res.vector)
            assert resid <= 1e-8 * max(1.0, abs(res.value))

    def test_matches_dense_solver_on_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            g = rng.standard_normal((n, n))
            a = (g @ g.T + (g @ g.T).T) / 2
            res = power_iteration(SymMatrix(a))
            assert res.value == pytest.approx(np.linalg.eigvalsh(a)[-1], rel=1e-8, abs=1e-8)

    def test_zero_matrix(self):
        res = power_iteration(sym_matrix(np.zeros((3, 3))))
        assert res.value == 0.0
        assert res.converged

    def test_negative_dominant(self):
        res = power_iteration(sym_matrix([[-2.0]]))
        assert res.value == pytest.approx(-2.0, abs=1e-12)


class TestGershgorin:
    def test_examples(self):
        assert gershgorin_upper(sym_matrix([[2.0, 1.0], [1.0, 2.0]])) == 3.0
        assert gershgorin_upper(sym_matrix(np.diag([5.0, 1.0]))) == 5.0
        assert gershgorin_upper(sym_matrix([[0.0, 1.0], [1.0, 0.0]])) == 1.0


class TestBrauerCassini:
    def test_equal_diagonal_matches_both_variants(self):
        m = sym_matrix([[2.0, 1.0], [1.0, 2.0]])
        assert brauer_cassini_upper(m, "standard") == 3.0
        assert brauer_cassini_upper(m, "paper") == 3.0

    def test_diagonal_5_1(self):
        m = sym_matrix(np.diag([5.0, 1.0]))
        assert brauer_cassini_upper(m, "standard") == 5.0
        assert brauer_cassini_upper(m, "paper") == 7.0

    def test_paper_variant_can_exceed_gershgorin(self):
        m = sym_matrix(np.diag([5.0, 1.0]))
        assert brauer_cassini_upper(m, "paper") > gershgorin_upper(m)

    def test_requires_two_rows(self):
        with pytest.raises(InvalidInputError):
            brauer_cassini_upper(sym_matrix([[1.0]]))

    def test_unknown_variant(self):
        for variant in ("tight", "paper-literal"):
            with pytest.raises(InvalidInputError):
                brauer_cassini_upper(sym_matrix(np.eye(2)), variant)


class TestBoundOrdering:
    def test_chain_over_random_matrices(self):
        # lambda_max <= brauer(standard) <= gershgorin, 1000 draws, n <= 30
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 31))
            m = _random_sym(rng, n, scale=float(rng.uniform(0.1, 5.0)))
            lam = np.linalg.eigvalsh(m.entries)[-1]
            brauer = brauer_cassini_upper(m, "standard")
            gersh = gershgorin_upper(m)
            slack = 1e-9 * max(1.0, abs(gersh))
            assert lam <= brauer + slack
            assert brauer <= gersh + slack

    @given(
        a=st.integers(2, 8).flatmap(
            lambda n: arrays(
                np.float64,
                (n, n),
                elements=st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_chain_hypothesis(self, a):
        m = SymMatrix((a + a.T) / 2.0)
        lam = np.linalg.eigvalsh(m.entries)[-1]
        brauer = brauer_cassini_upper(m, "standard")
        gersh = gershgorin_upper(m)
        slack = 1e-9 * max(1.0, abs(gersh))
        assert lam <= brauer + slack
        assert brauer <= gersh + slack


class TestKronStructure:
    def _explicit(self, s, k):
        return SymMatrix(np.kron(np.ones((k, k)), s.entries))

    def test_diag_example(self):
        s = sym_matrix(np.diag([0.5, 2.0]))
        fast = kron_allones_structure_lambda(s, 3)
        assert fast == pytest.approx(6.0, abs=1e-8)
        explicit = power_iteration(self._explicit(s, 3)).value
        assert fast == pytest.approx(explicit, abs=1e-8)

    def test_k_one_is_identity_case(self):
        s = sym_matrix([[2.0, 0.3], [0.3, 1.0]])
        assert kron_allones_structure_lambda(s, 1) == pytest.approx(power_iteration(s).value, abs=1e-12)

    def test_identity_s(self):
        assert kron_allones_structure_lambda(sym_matrix(np.eye(4)), 5) == pytest.approx(5.0, abs=1e-8)

    def test_matches_explicit_random(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            d = int(rng.integers(1, 11))
            k = int(rng.integers(1, 6))
            g = rng.standard_normal((max(d, 2), d))
            s = SymMatrix((g.T @ g + (g.T @ g).T) / 2)
            fast = kron_allones_structure_lambda(s, k)
            explicit = power_iteration(self._explicit(s, k)).value
            assert fast == pytest.approx(explicit, abs=1e-8 * max(1.0, abs(fast)))

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidInputError):
            kron_allones_structure_lambda(sym_matrix(np.eye(2)), 0)
