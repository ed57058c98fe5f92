"""Pursuit solver: selection rule, incremental least squares, oracle."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_lab.omp import (
    DegenerateColumnError,
    IncrementalLeastSquares,
    OmpResult,
    check_exact_recovery,
    recovers_stack,
    run_omp,
)
from omp_lab.signals import (
    SensingMatrix,
    SignalCase,
    SparseSignal,
    StreamKey,
    generate_signal,
    sample_sensing_matrix,
    sample_support,
)

from oracles import InstanceTooLargeError, brute_force_best_support


def _random_instance(seed, m, n, K, case=None):
    key = StreamKey(seed)
    mat = sample_sensing_matrix(m, n, key)
    support = sample_support(n, K, StreamKey(seed, 1))
    case = case or SignalCase.gaussian(1.0)
    signal = generate_signal(n, support, case, StreamKey(seed, 2))
    return mat, signal, mat.entries @ signal.values


class TestIncrementalLeastSquares:
    def test_single_column_exact_fit(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(6)
        ls = IncrementalLeastSquares(6, 3)
        ls.append(a)
        y = 2.0 * a
        np.testing.assert_allclose(ls.solve(y), [2.0], rtol=1e-12)
        assert np.linalg.norm(ls.project_out(y)) < 1e-12

    def test_orthogonal_columns_decouple(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 2.0, 0.0, 0.0])
        ls = IncrementalLeastSquares(4, 2)
        ls.append(a)
        ls.append(b)
        y = np.array([3.0, 4.0, 5.0, 0.0])
        coeffs = ls.solve(y)
        np.testing.assert_allclose(coeffs, [(y @ a) / (a @ a), (y @ b) / (b @ b)])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        ls = IncrementalLeastSquares(5, 3)
        for j in range(3):
            ls.append(A[:, j])
        dense, *_ = np.linalg.lstsq(A, y, rcond=None)
        np.testing.assert_allclose(ls.solve(y), dense, atol=1e-10)
        np.testing.assert_allclose(
            ls.project_out(y), y - A @ dense, atol=1e-10
        )

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(3)
        ls = IncrementalLeastSquares(40, 12)
        for _ in range(12):
            ls.append(rng.standard_normal(40))
        q = ls._q[:, :12]
        gram = q.T @ q
        assert np.abs(gram - np.eye(12)).max() < 1e-10

    def test_dependent_column_raises(self):
        a = np.array([1.0, 2.0, 3.0])
        ls = IncrementalLeastSquares(3, 2)
        ls.append(a)
        with pytest.raises(DegenerateColumnError) as info:
            ls.append(2.0 * a)
        assert info.value.iteration == 2

    def test_zero_column_raises(self):
        ls = IncrementalLeastSquares(3, 1)
        with pytest.raises(DegenerateColumnError):
            ls.append(np.zeros(3))

    def test_capacity_enforced(self):
        ls = IncrementalLeastSquares(3, 1)
        ls.append(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            ls.append(np.array([0.0, 1.0, 0.0]))

    def test_solve_before_append_rejected(self):
        with pytest.raises(ValueError):
            IncrementalLeastSquares(3, 1).solve(np.zeros(3))


class TestRunOmp:
    def test_identity_recovers_in_magnitude_order(self):
        x = np.zeros(8)
        x[[1, 4, 6]] = [3.0, -2.0, 1.0]
        result = run_omp(SensingMatrix(np.eye(8)), x, 3)
        assert result.selected.tolist() == [1, 4, 6]
        np.testing.assert_allclose(result.coefficients, x, atol=1e-14)

    def test_orthonormal_columns_exact(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        x = np.zeros(20)
        x[[2, 9, 13, 17]] = rng.standard_normal(4)
        y = q @ x
        result = run_omp(SensingMatrix(q), y, 4)
        assert np.linalg.norm(result.coefficients - x) < 1e-12

    def test_tie_breaks_to_smallest_index(self):
        # two identical columns: the argmax ties and index 0 must win
        col = np.array([1.0, 1.0]) / np.sqrt(2)
        other = np.array([1.0, -1.0]) / np.sqrt(2)
        A = SensingMatrix(np.column_stack([col, col, other]))
        result = run_omp(A, col.copy(), 1)
        assert result.selected.tolist() == [0]

    def test_early_stop_on_tiny_residual(self):
        # 1-sparse signal solved in one iteration; remaining iterations
        # are skipped instead of fitting noise
        mat, signal, y = _random_instance(5, 12, 20, 1)
        result = run_omp(mat, y, 5)
        assert result.iterations == 1
        assert result.residual_norms[-1] <= 1e-12 * result.residual_norms[0]

    def test_residual_norms_structure(self):
        mat, signal, y = _random_instance(9, 30, 60, 5)
        result = run_omp(mat, y, 5)
        assert result.residual_norms[0] == pytest.approx(np.linalg.norm(y))
        assert len(result.residual_norms) == result.iterations + 1
        assert np.all(np.diff(result.residual_norms) <= 1e-12)

    def test_estimate_zero_off_selected(self):
        mat, signal, y = _random_instance(13, 25, 50, 4)
        result = run_omp(mat, y, 4)
        mask = np.ones(50, dtype=bool)
        mask[result.selected] = False
        assert np.all(result.coefficients[mask] == 0.0)

    def test_support_property_sorted(self):
        mat, signal, y = _random_instance(21, 25, 50, 4)
        result = run_omp(mat, y, 4)
        assert np.all(np.diff(result.support) > 0)
        assert set(result.support.tolist()) == set(result.selected.tolist())

    def test_shape_validation(self):
        mat = SensingMatrix(np.eye(4))
        with pytest.raises(ValueError):
            run_omp(mat, np.zeros(5), 2)
        with pytest.raises(ValueError):
            run_omp(mat, np.zeros(4), 0)
        with pytest.raises(ValueError):
            run_omp(mat, np.zeros(4), 5)

    def test_degenerate_selection_identified(self):
        # after the stronger duplicate (index 1, twice the norm) is fit,
        # only its scalar multiple remains; selecting it must raise with
        # the iteration and column tagged
        a = np.array([1.0, 0.0, 0.0])
        A = SensingMatrix(np.column_stack([a, 2.0 * a]))
        y = np.array([1.0, 0.5, 0.0])
        with pytest.raises(DegenerateColumnError) as info:
            run_omp(A, y, 2)
        assert info.value.iteration == 2
        assert info.value.index == 0

    @given(st.integers(0, 10_000), st.floats(0.1, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, seed, scale):
        mat, signal, y = _random_instance(seed, 24, 48, 4)
        base = run_omp(mat, y, 4)
        scaled = run_omp(mat, scale * y, 4)
        assert base.selected.tolist() == scaled.selected.tolist()
        np.testing.assert_allclose(
            scaled.coefficients, scale * base.coefficients, rtol=1e-8, atol=1e-10
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_invariants_random_instances(self, seed):
        mat, signal, y = _random_instance(seed, 24, 60, 5)
        result = run_omp(mat, y, 5)
        # distinct selections
        assert len(set(result.selected.tolist())) == result.iterations
        # nonincreasing residual norms
        assert np.all(np.diff(result.residual_norms) <= 1e-12 * result.residual_norms[0])
        # final residual orthogonal to every selected column
        for j in result.selected:
            corr = abs(result.residual @ mat.entries[:, j])
            assert corr <= 1e-8 * np.linalg.norm(y)

    def test_results_compare_by_identity(self):
        # a result holds arrays, so == is identity and hash() works,
        # where value equality would raise on the arrays' truth value
        A = SensingMatrix(np.eye(4))
        y = np.array([0.0, 2.0, 0.0, 1.0])
        result, again = run_omp(A, y, 2), run_omp(A, y, 2)
        assert result == result and result != again
        assert hash(result) != hash(again)
        assert len({result, again}) == 2


class TestCheckExactRecovery:
    def _signal(self):
        values = np.zeros(6)
        values[2] = 1.0
        return SparseSignal(values=values, support=np.array([2]))

    def _result(self, coeffs):
        return OmpResult(
            selected=np.array([2]),
            coefficients=coeffs,
            residual=np.zeros(3),
            residual_norms=np.array([1.0, 0.0]),
            iterations=1,
        )

    def test_exact_match(self):
        truth = self._signal()
        assert check_exact_recovery(self._result(truth.values.copy()), truth)

    def test_threshold_is_1e10(self):
        truth = self._signal()
        off = truth.values.copy()
        off[0] = 1e-9
        assert not check_exact_recovery(self._result(off), truth)
        off[0] = 1e-11
        assert check_exact_recovery(self._result(off), truth)


def _support_first(A, x):
    """(support columns, their nonzeros, off-support block) of a dense
    instance: the block's rows are the other columns in index order."""
    support = np.flatnonzero(x)
    off = np.ones(A.shape[1], dtype=bool)
    off[support] = False
    return A[:, support], x[support], A[:, off].T


def _decide_rows(support, values, blocks):
    """recovers_stack on one row per trial index (T = S, M = 1), with
    divisor 1.0: row s is ``[support[s] | blocks[s]^T]``."""
    return recovers_stack(support[:, None], values, blocks, [1.0])[:, 0]


class TestRecoversStack:
    """recovers_stack decides each row as run_omp plus the check do on
    ``[support | off^T / divisor]``."""

    @staticmethod
    def _reference(support, values, blocks):
        decisions = []
        for R, x_s, block in zip(support, values, blocks):
            A = np.hstack([R, block.T])
            x = np.concatenate([x_s, np.zeros(block.shape[0])])
            result = run_omp(SensingMatrix(A), A @ x, x_s.size)
            decisions.append(
                check_exact_recovery(result, SparseSignal(x, np.arange(x_s.size)))
            )
        return decisions

    @pytest.mark.parametrize(
        "case", [SignalCase.flat(), SignalCase.gaussian(1.0)], ids=lambda c: c.label()
    )
    def test_matches_run_omp_on_random_instances(self, case):
        # m=18, K=5: 13 (flat) and 33 (gauss) of the 60 rows recover
        instances = [_random_instance(seed, 18, 40, 5, case) for seed in range(60)]
        support, values, blocks = zip(
            *(_support_first(mat.entries, signal.values) for mat, signal, _ in instances)
        )
        support, values = np.stack(support), np.stack(values)
        want = self._reference(support, values, blocks)
        assert _decide_rows(support, values, blocks).tolist() == want
        assert 10 <= sum(want) <= 50

    def test_tie_breaks_to_smallest_index(self):
        # K=1: the off-support copy of the support column ties at the
        # first pick, and the support column, with the smaller index,
        # wins; one ulp more and the copy wins, so the pick is wrong
        col = np.array([1.0, 1.0]) / np.sqrt(2)
        other = np.array([1.0, -1.0]) / np.sqrt(2)
        support = np.stack([col[:, None], col[:, None]])
        values = np.ones((2, 1))
        blocks = [np.stack([col, other]), np.stack([np.nextafter(col, 2.0), other])]
        assert _decide_rows(support, values, blocks).tolist() == [True, False]
        assert self._reference(support, values, blocks) == [True, False]

    def test_exact_tie_with_a_later_winning_column(self):
        # x = (1, 3, 2) on e_0, e_1, e_2 of R^4: the path picks column 1
        # (c = 3), then column 2 (c = 2), then column 0 (c = 1), all in
        # exact arithmetic.  The off-support e_2 ties with the second
        # winner and loses, as under run_omp; scaled by 1 + 2^-52 it
        # wins and takes column 2's place.  The 5 e_3 is orthogonal to
        # every residual.
        support = np.stack([np.eye(4, 3)] * 2)
        values = np.array([[1.0, 3.0, 2.0]] * 2)
        tie = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 5.0]])
        beat = tie.copy()
        beat[0, 2] = 1.0 + 2.0**-52
        blocks = [tie, beat]
        assert self._reference(support, values, blocks) == [True, False]
        assert _decide_rows(support, values, blocks).tolist() == [True, False]

    @pytest.mark.parametrize("d, want", [(1e-9, False), (1e-3, True)])
    def test_fit_check_on_an_ill_conditioned_support(self, d, want):
        # every pick is on the support [a1 | a1 + d a2] (a1, a2
        # orthonormal in R^4, x = (2, -1), a zero off-support column):
        # only the K-column fit decides.  At d = 1e-9 it misses x by
        # about 3e-8, far above RECOVERY_TOL; at d = 1e-3 by about 6e-14
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 2)))
        support = np.column_stack([q[:, 0], q[:, 0] + d * q[:, 1]])[None]
        values = np.array([[2.0, -1.0]])
        blocks = [np.zeros((1, 4))]
        assert self._reference(support, values, blocks) == [want]
        assert _decide_rows(support, values, blocks).tolist() == [want]

    def test_row_alone_equals_row_in_stack(self):
        # reduced trials near the transition (m=60, K=10, n=256): every
        # row of a 256-row stack is decided as it is on its own
        rng = np.random.default_rng(12)
        m, n, K, rows = 60, 256, 10, 256
        support = np.triu(rng.standard_normal((rows, K, K)), 1) / np.sqrt(m)
        diagonal = np.arange(K)
        support[:, diagonal, diagonal] = np.sqrt(rng.chisquare(m - diagonal, (rows, K)) / m)
        values = rng.standard_normal((rows, K))
        blocks = rng.standard_normal((rows, n - K, K)) / np.sqrt(m)
        stacked = _decide_rows(support, values, blocks)
        alone = [
            _decide_rows(support[s : s + 1], values[s : s + 1], blocks[s : s + 1])[0]
            for s in range(rows)
        ]
        assert stacked.tolist() == alone
        assert 0 < sum(alone) < rows
        assert alone[:32] == self._reference(support[:32], values[:32], blocks[:32])

    def test_degenerate_row_identified(self):
        # row 1 is test_degenerate_selection_identified's duplicate pair
        # with x = (1, 1): column 1 first, then its multiple, column 0.
        # (run_omp stops before that pick, on the zero residual; the
        # stacked pursuit has no early stop.)
        a = np.array([1.0, 0.0, 0.0])
        healthy = np.column_stack([a, [0.0, 1.0, 0.0]])
        support = np.stack([healthy, np.column_stack([a, 2.0 * a]), healthy])
        values = np.ones((3, 2))
        with pytest.raises(DegenerateColumnError) as info:
            _decide_rows(support, values, [np.zeros((1, 3))] * 3)
        assert (info.value.iteration, info.value.index, info.value.row) == (2, 0, 1)

    def test_error_pickles_with_its_row(self):
        err = pickle.loads(pickle.dumps(DegenerateColumnError(3, 17, 5)))
        assert (err.iteration, err.index, err.row) == (3, 17, 5)
        assert str(err) == str(DegenerateColumnError(3, 17))

    def test_divisor_scales_each_m(self):
        # one trial index at M = 3: the off-support row 2 col ties with
        # the support column col at divisor 2, so the support column
        # wins; at divisor 1 the row wins, and at divisor 4 it loses.
        # Rows (0, 1) and (0, 2) match run_omp on [R | block^T / d].
        col = np.array([1.0, 1.0]) / np.sqrt(2)
        other = np.array([1.0, -1.0]) / np.sqrt(2)
        support = np.stack([col[:, None]] * 3)[None]
        block = np.stack([2.0 * col, other])
        recovered = recovers_stack(support, np.ones((1, 1)), [block], [1.0, 2.0, 4.0])
        assert recovered.tolist() == [[False, True, True]]
        want = self._reference(support[0, 1:], np.ones((2, 1)), [block / 2.0, block / 4.0])
        assert want == [True, True]

    def test_row_equals_its_one_row_stack(self):
        # a T-by-M stack decides row (t, j) as the one-row stack of
        # support[t, j], values[t], blocks[t] and divisor[j] does
        rng = np.random.default_rng(5)
        T, M, m, K, n_off = 8, 3, 12, 4, 20
        support = rng.standard_normal((T, M, m, K))
        values = rng.standard_normal((T, K))
        blocks = rng.standard_normal((T, n_off, m))
        divisor = np.sqrt([2.0, 3.0, 5.0])
        alone = [
            [
                recovers_stack(
                    support[t, j][None, None], values[t][None], blocks[t][None], divisor[j][None]
                )[0, 0]
                for j in range(M)
            ]
            for t in range(T)
        ]
        assert recovers_stack(support, values, blocks, divisor).tolist() == alone
        assert 0 < np.sum(alone) < T * M

    def test_blocks_may_share_one_buffer(self):
        # off refills one buffer for each trial index, as the Monte Carlo
        # draw does: every row is decided as with fresh blocks, which
        # reading all blocks before deciding (every row seeing the last
        # block) would not do
        rng = np.random.default_rng(5)
        T, M, m, K, n_off = 8, 3, 12, 4, 20
        support = rng.standard_normal((T, M, m, K))
        values = rng.standard_normal((T, K))
        blocks = rng.standard_normal((T, n_off, m))
        divisor = np.sqrt([2.0, 3.0, 5.0])

        def refilled():
            buffer = np.empty((n_off, m))
            for block in blocks:
                buffer[...] = block
                yield buffer

        fresh = recovers_stack(support, values, list(blocks), divisor).tolist()
        assert recovers_stack(support, values, refilled(), divisor).tolist() == fresh
        assert recovers_stack(support, values, [blocks[-1]] * T, divisor).tolist() != fresh

    def test_shape_validation(self):
        support = np.stack([np.eye(4, 2)] * 2)[:, None]
        blocks = [np.zeros((3, 4))] * 2
        with pytest.raises(ValueError):
            recovers_stack(support[0], np.ones((2, 2)), blocks, [1.0])
        with pytest.raises(ValueError):
            recovers_stack(support, np.ones((2, 3)), blocks, [1.0])
        with pytest.raises(ValueError):
            recovers_stack(np.zeros((2, 1, 2, 3)), np.ones((2, 3)), blocks, [1.0])
        with pytest.raises(ValueError):
            recovers_stack(support, np.ones((2, 2)), blocks, [1.0, 1.0])
        with pytest.raises(ValueError):
            recovers_stack(support, np.ones((2, 2)), blocks[:1], [1.0])
        with pytest.raises(ValueError):
            recovers_stack(support, np.ones((2, 2)), blocks * 2, [1.0])
        with pytest.raises(ValueError):
            recovers_stack(support, np.ones((2, 2)), [np.zeros((3, 5))] * 2, [1.0])


class TestBruteForce:
    def test_one_sparse_recovered(self):
        mat, signal, y = _random_instance(2, 2, 3, 1)
        support, norm = brute_force_best_support(mat, y, 1)
        assert support == tuple(signal.support.tolist())
        assert norm < 1e-12

    def test_consistent_system_zero_residual(self):
        mat, signal, y = _random_instance(4, 6, 10, 2)
        support, norm = brute_force_best_support(mat, y, 2)
        assert norm < 1e-10
        assert support == tuple(signal.support.tolist())

    def test_matches_omp_on_tiny_instance(self):
        mat, signal, y = _random_instance(8, 2, 3, 1)
        result = run_omp(mat, y, 1)
        support, norm = brute_force_best_support(mat, y, 1)
        if np.linalg.norm(result.residual) <= 1e-10:
            assert tuple(result.support.tolist()) == support

    def test_tie_lexicographic(self):
        # two columns fit y equally badly; the smaller index must win
        A = SensingMatrix(
            np.array(
                [
                    [1.0, 0.0, 0.0],
                    [0.0, 1.0, 1.0],
                    [0.0, 1.0, -1.0],
                ]
            )
        )
        y = np.array([0.0, 1.0, 1.0])
        support, _ = brute_force_best_support(A, y, 1)
        assert support == (1,)

    def test_guard_on_huge_enumeration(self):
        mat = SensingMatrix(np.eye(50, 80))
        with pytest.raises(InstanceTooLargeError):
            brute_force_best_support(mat, np.zeros(50), 40)

    def test_shape_validation(self):
        mat = SensingMatrix(np.eye(4))
        with pytest.raises(ValueError):
            brute_force_best_support(mat, np.zeros(3), 1)
        with pytest.raises(ValueError):
            brute_force_best_support(mat, np.zeros(4), 0)
