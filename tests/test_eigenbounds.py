"""Tests for the symmetric-matrix eigenvalue machinery and the Gershgorin and Cassini kernels of alpha3/alpha4."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stepsafe.eigenbounds import SymMatrix, _max_top_eigenvalue, _stack_size, _top_eigenvalue_bound, power_iteration
from stepsafe.errors import InvalidInputError
from stepsafe.relu import ReluDataset, Weights, _cassini, _gershgorin, bound_alpha2


def _random_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return SymMatrix((a + a.T) / 2.0)


def _diag_radii(m):
    # the diagonal and off-diagonal absolute row sums of an explicit symmetric matrix: what
    # relu's Gershgorin and Cassini kernels take in place of the matrix
    return np.diag(m.entries), np.abs(m.entries).sum(axis=1) - np.abs(np.diag(m.entries))


class TestSymMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            SymMatrix([[1.0, 2.0], [2.1, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            SymMatrix(np.zeros((0, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            SymMatrix([[np.inf]])

    def test_accepts_roundoff_asymmetry(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
        assert SymMatrix(a).size == 2


class TestPowerIteration:
    def test_diagonal(self):
        res = power_iteration(SymMatrix(np.diag([2.0, 1.0])))
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert abs(abs(res.vector[0]) - 1.0) < 1e-6
        assert res.converged

    def test_all_ones(self):
        res = power_iteration(SymMatrix(np.ones((2, 2))))
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(np.abs(res.vector), np.full(2, 1 / np.sqrt(2)), atol=1e-6)

    def test_off_diagonal(self):
        res = power_iteration(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
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
        res = power_iteration(SymMatrix(np.zeros((3, 3))))
        assert res.value == 0.0
        assert res.converged

    def test_negative_dominant(self):
        res = power_iteration(SymMatrix([[-2.0]]))
        assert res.value == pytest.approx(-2.0, abs=1e-12)


class TestGershgorin:
    def test_examples(self):
        assert _gershgorin(*_diag_radii(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))) == 3.0
        assert _gershgorin(*_diag_radii(SymMatrix(np.diag([5.0, 1.0])))) == 5.0
        assert _gershgorin(*_diag_radii(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))) == 1.0


class TestBrauerCassini:
    def test_equal_diagonal(self):
        assert _cassini(*_diag_radii(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))) == 3.0

    def test_diagonal_5_1(self):
        # mean 3 plus half the gap of 4, with no radii: the larger diagonal entry
        assert _cassini(*_diag_radii(SymMatrix(np.diag([5.0, 1.0])))) == 5.0


class TestBoundOrdering:
    def test_chain_over_random_matrices(self):
        # lambda_max <= brauer <= gershgorin, 1000 draws, n <= 30
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 31))
            m = _random_sym(rng, n, scale=float(rng.uniform(0.1, 5.0)))
            lam = np.linalg.eigvalsh(m.entries)[-1]
            brauer = _cassini(*_diag_radii(m))
            gersh = _gershgorin(*_diag_radii(m))
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
    # eigvalsh returns 1.5000054 for this matrix, whose top eigenvalue is 1.5;
    # the general eigensolver is accurate on it (1.4999999999999998)
    @example(a=np.where(np.arange(16).reshape(4, 4) == 1, 3.0, 3.5744346e-160))
    @settings(max_examples=150, deadline=None)
    def test_chain_hypothesis(self, a):
        m = SymMatrix((a + a.T) / 2.0)
        lam = np.linalg.eigvals(m.entries).real.max()
        brauer = _cassini(*_diag_radii(m))
        gersh = _gershgorin(*_diag_radii(m))
        slack = 1e-9 * max(1.0, abs(gersh))
        assert lam <= brauer + slack
        assert brauer <= gersh + slack


class TestKronStructure:
    """bound_alpha2 takes lambda_max(J_k (x) S) as k * lambda_max(S), with S the
    second-moment matrix of the inputs; power iteration on the explicit block
    matrix is the reference."""

    def _data(self, inputs, k):
        inputs = np.asarray(inputs, dtype=float)
        teacher = Weights(np.zeros(k * inputs.shape[1]), k=k, d=inputs.shape[1])
        return ReluDataset(inputs=inputs, teacher=teacher, seed=-1)

    def _explicit(self, data, k):
        return SymMatrix(np.kron(np.ones((k, k)), data.second_moment.entries))

    def test_diag_example(self):
        data = self._data([[1.0, 0.0], [0.0, 2.0]], 3)  # S = diag(0.5, 2)
        fast = bound_alpha2(data, 3)
        assert fast == pytest.approx(6.0, abs=1e-8)
        explicit = power_iteration(self._explicit(data, 3)).value
        assert fast == pytest.approx(explicit, abs=1e-8)

    def test_k_one_is_identity_case(self):
        data = self._data([[1.2, 0.3], [-0.4, 1.0], [0.9, -0.8]], 1)
        assert bound_alpha2(data, 1) == pytest.approx(power_iteration(data.second_moment).value, abs=1e-12)

    def test_identity_s(self):
        data = self._data(2.0 * np.eye(4), 5)  # S = I
        assert bound_alpha2(data, 5) == pytest.approx(5.0, abs=1e-8)

    def test_matches_explicit_random(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            d = int(rng.integers(1, 11))
            k = int(rng.integers(1, 6))
            data = self._data(rng.standard_normal((max(d, 2), d)), k)
            fast = bound_alpha2(data, k)
            explicit = power_iteration(self._explicit(data, k)).value
            assert fast == pytest.approx(explicit, abs=1e-8 * max(1.0, abs(fast)))

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidInputError):
            bound_alpha2(self._data(np.eye(2), 1), 0)


def _gram_batch(d):
    # full-rank, rank-one and zero Grams at scales from 1e-150 to 1e150, shuffled,
    # plus the masked Grams of one search chunk
    rng = np.random.default_rng(d)
    factors = [rng.standard_normal((40, d, d)), rng.standard_normal((40, d, 1)), np.zeros((10, d, 1))]
    grams = np.concatenate([f @ f.transpose(0, 2, 1) for f in factors])
    grams *= 10.0 ** rng.choice([-150, -3, 0, 3, 150], size=len(grams))[:, None, None]
    x, v = rng.standard_normal((50, d)), rng.standard_normal((64, d))
    masked = ((x @ v.T) >= 0.0).T.astype(float) @ (x[:, :, None] * x[:, None, :]).reshape(-1, d * d)
    return np.concatenate([rng.permutation(grams), masked.reshape(-1, d, d)])


def _symmetric_batch(d):
    # indefinite, negative definite, cI, and nonzero zero-trace matrices such as
    # diag(1, -1), each also scaled by 1e-150 and 1e150, shuffled
    rng = np.random.default_rng(d + 100)
    g = rng.standard_normal((30, d, d))
    indefinite = g + g.transpose(0, 2, 1)
    negative = -(g @ g.transpose(0, 2, 1)) - 1e-3 * np.eye(d)
    scalar = np.array([-2.0, 0.0, 0.1, 3.0])[:, None, None] * np.eye(d)
    traceless = indefinite[:10] - np.einsum("ijj->i", indefinite[:10])[:, None, None] / d * np.eye(d)
    pairs = np.diag(np.resize([1.0, -1.0], d) * (np.arange(d) < d - d % 2))[None]
    batch = np.concatenate([indefinite, negative, scalar, traceless, pairs])
    return rng.permutation(np.concatenate([batch, 1e-150 * batch, 1e150 * batch]))


def _unpruned(mats, floor=-np.inf):
    # the maximum and its first index by a plain loop over eigvalsh
    best, first = floor, -1
    for i, top in enumerate(np.linalg.eigvalsh(mats)[:, -1]):
        if top > best:
            best, first = float(top), i
    return best, first


class TestStackSize:
    @pytest.mark.parametrize("d", [1, 10, 50, 88, 89, 250, 500, 2500])
    @pytest.mark.parametrize("held", [0, 200, 10_000, 10**7])
    def test_largest_stack_within_the_batch_rule(self, d, held):
        # a stack and the screen's two working arrays take 3 d^2 entries a matrix, the caller's arrays held;
        # both fit 2e6 entries unless one matrix alone does not, and one more matrix would not fit
        m = _stack_size(d, held)
        assert 1 <= m <= 256
        if m > 1:
            assert 3 * m * d * d <= 2e6 and m * held <= 2e6
        if m < 256:
            assert 3 * (m + 1) * d * d > 2e6 or (m + 1) * held > 2e6

    def test_benchmark_and_digest_shapes_keep_their_sizes(self):
        # the d10 k5 loss Hessians (dim 50) and random search on d <= 50 with n <= 1e4: 256, or 200 on
        # d10 n1e4, whose masks take more entries than its Grams; Hessians of dim 273 and up take at most 8
        assert _stack_size(50) == 256
        shapes = [(1, 1), (3, 50), (5, 1000), (10, 200), (10, 1000), (50, 1000), (10, 10_000)]
        assert [_stack_size(d, n) for d, n in shapes] == [256] * 6 + [200]
        assert (_stack_size(250), _stack_size(60, 200), _stack_size(272), _stack_size(273)) == (10, 185, 9, 8)


class TestMaxTopEigenvalue:
    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_bound_above_top_eigenvalue(self, d):
        grams = _gram_batch(d)
        bound = _top_eigenvalue_bound(grams)
        assert np.all(bound >= np.linalg.eigvalsh(grams)[:, -1])
        assert np.all(bound[np.einsum("ijj->i", grams) == 0.0] == 0.0)

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_equals_eigvalsh_maximum(self, d):
        grams = _gram_batch(d)
        tops = np.linalg.eigvalsh(grams)[:, -1]
        # no floor, a floor some Grams beat, a floor none beats, and an all-zero batch
        for floor in (0.0, float(np.median(tops)), 2.0 * float(tops.max())):
            assert _max_top_eigenvalue([grams], floor)[0] == max(floor, float(tops.max()))
        zeros = np.zeros((5, d, d))
        assert _max_top_eigenvalue([zeros], 0.0)[0] == float(np.linalg.eigvalsh(zeros)[:, -1].max())
        # rank-one Grams, where the bound is tightest: u is lambda_max up to d^(1/8) of
        # the spread about the mean eigenvalue, and the widening
        for scale in (1e-150, 1.0, 1e150):
            x = scale * np.random.default_rng(d).standard_normal((30, d, 1))
            ranked = x @ x.transpose(0, 2, 1)
            assert _max_top_eigenvalue([ranked], 0.0)[0] == float(np.linalg.eigvalsh(ranked)[:, -1].max())

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_symmetric_bound_above_top_eigenvalue(self, d):
        mats = _symmetric_batch(d)
        assert np.all(_top_eigenvalue_bound(mats) >= np.linalg.eigvalsh(mats)[:, -1])

    def test_rank_one_at_large_d(self):
        # tr(B^8)^(1/8) exceeds lambda_max - c by (d - 1)^-7 / 8 relative on a rank-one
        # Gram, below one ulp at d = 200, where only the widening keeps u above eigvalsh
        x = np.random.default_rng(200).standard_normal((30, 200, 1))
        grams = x @ x.transpose(0, 2, 1)
        assert np.all(_top_eigenvalue_bound(grams) >= np.linalg.eigvalsh(grams)[:, -1])

    def test_bound_above_eigvalsh_error(self):
        # eigvalsh returns 1.5000054 for this matrix, whose top eigenvalue is 1.5
        a = np.where(np.arange(16).reshape(4, 4) == 1, 3.0, 3.5744346e-160)
        a = (a + a.T)[None] / 2.0
        assert _top_eigenvalue_bound(a)[0] >= np.linalg.eigvalsh(a)[0, -1]

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_matches_unpruned_loop(self, d):
        # whole batches, and their first 1-10 matrices: both sides of the no-bound shortcut for at most 8
        for batch in (_gram_batch(d), _symmetric_batch(d)):
            for mats in [batch[:m] for m in range(1, 11)] + [batch]:
                tops = np.linalg.eigvalsh(mats)[:, -1]
                for floor in (-np.inf, 0.0, float(np.median(tops)), 2.0 * float(tops.max())):
                    assert _max_top_eigenvalue([mats], floor) == _unpruned(mats, floor)

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_stream_matches_one_batch(self, d):
        # each batch cut into 1-4 consecutive stacks, one of them empty, and handed over one at a time:
        # indices run on across the cuts; the cut at 3, 11 gives two stacks on the no-bound shortcut
        rng = np.random.default_rng(d + 200)
        for batch in (_gram_batch(d), _symmetric_batch(d)):
            tops = np.linalg.eigvalsh(batch)[:, -1]
            cuts = [[3, 11]] + [sorted(rng.choice(np.arange(1, len(batch)), m, replace=False)) for m in (0, 1, 2)]
            for cut in cuts:
                stacks = np.split(batch, cut)
                stacks.insert(int(rng.integers(len(stacks) + 1)), batch[:0])
                assert 1 <= len(stacks) <= 4 and sum(map(len, stacks)) == len(batch)
                for floor in (-np.inf, 0.0, float(np.median(tops)), 2.0 * float(tops.max())):
                    assert _max_top_eigenvalue(iter(stacks), floor) == _unpruned(batch, floor)

    def test_stream_tie_across_a_cut_keeps_the_earlier_index(self):
        # the maximum 5 at the last matrix of a stack of 9 and the first of the next 9, whose bound 5 (1 + 1e-10)
        # does not fall below the best, so it is solved and loses the tie; the cut at 3 puts both in one stack
        scalars = [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0, 5.0] + [5.0, 2.0, 5.0] + [1.0] * 6
        mats = np.array(scalars)[:, None, None] * np.eye(2)
        for cut in (9, 3):
            assert _max_top_eigenvalue([mats[:cut], mats[cut:]]) == _unpruned(mats) == (5.0, 8)
        assert _max_top_eigenvalue([mats[:9], mats[9:]], 5.0) == (5.0, -1)

    def test_stream_nan_only_first_stack(self):
        # 9 NaN matrices (bounds read inf, so all are solved), then a stack whose maximum is at its index 9
        nan = np.full((9, 2, 2), np.nan)
        mats = np.arange(1.0, 11.0)[:, None, None] * np.eye(2)
        assert _max_top_eigenvalue([nan, mats]) == _unpruned(np.concatenate([nan, mats])) == (10.0, 18)
        assert _max_top_eigenvalue([nan, mats[:0]]) == (-np.inf, -1)

    def test_large_matrices_solved_one_at_a_time(self, monkeypatch):
        # d = 30 Grams, two copies of the largest (a three-way tie), an indefinite and two
        # negative definite matrices, shuffled; every eigvalsh call gets one matrix, and a
        # batch of at most 8 gets no bound, so each of its matrices is solved
        rng = np.random.default_rng(30)
        x = rng.standard_normal((12, 30, 40))
        grams = x @ x.transpose(0, 2, 1)
        g = rng.standard_normal((30, 30))
        top = int(np.argmax(np.linalg.eigvalsh(grams)[:, -1]))
        mats = rng.permutation(np.concatenate([grams, grams[[top, top]], (g + g.T)[None], -grams[:2]]))
        tops = np.linalg.eigvalsh(mats)[:, -1]
        assert np.count_nonzero(tops == tops.max()) == 3
        floors = (-np.inf, 0.0, float(np.median(tops)), 2.0 * float(tops.max()))
        expected = [_unpruned(mats, floor) for floor in floors] + [_unpruned(mats[:8])]
        sizes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
        assert [_max_top_eigenvalue([mats], floor) for floor in floors] == expected[:-1]
        assert sizes and set(sizes) == {1}
        sizes.clear()
        assert _max_top_eigenvalue([mats[:8]]) == expected[-1] and sizes == [1] * 8

    def test_ties_keep_the_first_index(self):
        # equal matrices, and a zero matrix tying 8 later ones whose bounds are larger,
        # so it is solved after them
        same = np.broadcast_to(np.diag([1.0, 3.0]), (20, 2, 2))
        assert _max_top_eigenvalue([same]) == (3.0, 0)
        tied = np.concatenate([np.zeros((1, 2, 2)), np.broadcast_to(np.diag([0.0, -1.0]), (8, 2, 2))])
        assert _top_eigenvalue_bound(tied)[0] < _top_eigenvalue_bound(tied)[1]
        assert _max_top_eigenvalue([tied]) == _unpruned(tied) == (0.0, 0)
        assert _max_top_eigenvalue([tied], 0.0) == (0.0, -1)

    def test_nan_never_wins(self):
        # a NaN matrix's bound reads inf, so it is solved, and its NaN top eigenvalue loses
        mats = np.concatenate([np.full((1, 2, 2), np.nan), np.arange(1.0, 11.0)[:, None, None] * np.eye(2)])
        assert _max_top_eigenvalue([mats]) == _unpruned(mats) == (10.0, 10)
        assert _max_top_eigenvalue([mats[:1]]) == (-np.inf, -1)

    def test_non_finite_bound_reads_inf_without_warning(self):
        huge = np.full((1, 3, 3), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _top_eigenvalue_bound(huge)[0] == np.inf
