"""Pursuit solver: selection rule, incremental least squares, oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_lab.omp import (
    DegenerateColumnError,
    IncrementalLeastSquares,
    InstanceTooLargeError,
    OmpResult,
    brute_force_best_support,
    check_exact_recovery,
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
