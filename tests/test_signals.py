"""Stream keying, sparse-signal construction, matrix sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_lab.signals import (
    Purpose,
    SensingMatrix,
    SignalCase,
    SparseSignal,
    StreamKey,
    generate_signal,
    sample_sensing_matrix,
    sample_support,
)


class TestStreamKey:
    def test_same_key_same_stream(self):
        a = StreamKey(123, 5, Purpose.MATRIX).generator().standard_normal(16)
        b = StreamKey(123, 5, Purpose.MATRIX).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_components_distinct_streams(self):
        base = StreamKey(123, 5, Purpose.MATRIX)
        variants = [
            StreamKey(124, 5, Purpose.MATRIX),
            StreamKey(123, 6, Purpose.MATRIX),
            StreamKey(123, 5, Purpose.SUPPORT),
        ]
        ref = base.generator().standard_normal(16)
        for v in variants:
            assert not np.array_equal(ref, v.generator().standard_normal(16))

    def test_extra_words_derive_substreams(self):
        key = StreamKey(9)
        a = key.generator(1).standard_normal(8)
        b = key.generator(2).standard_normal(8)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, key.generator(1).standard_normal(8))

    def test_with_helpers(self):
        key = StreamKey(7, 3, Purpose.MATRIX)
        assert key.with_purpose(Purpose.SIGNAL).purpose == Purpose.SIGNAL
        # originals untouched
        assert key.trial_index == 3 and key.purpose == Purpose.MATRIX

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_seed_range_enforced(self, bad):
        with pytest.raises(ValueError):
            StreamKey(bad)
        with pytest.raises(ValueError):
            StreamKey(0, trial_index=bad)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            StreamKey(1.5)


class TestSignalCase:
    def test_constructors(self):
        assert SignalCase.flat().kind == "flat"
        assert SignalCase.decaying(1.1).alpha == 1.1
        assert SignalCase.gaussian().sigma == 1.0

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0])
    def test_decaying_needs_alpha_above_one(self, alpha):
        with pytest.raises(ValueError):
            SignalCase.decaying(alpha)

    def test_gaussian_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            SignalCase.gaussian(0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SignalCase("bursty")

    def test_labels(self):
        assert SignalCase.flat().label() == "flat"
        assert SignalCase.decaying(1.2).label() == "decay1.2"
        assert SignalCase.gaussian(1.0).label() == "gauss1"


class TestSparseSignal:
    def test_valid(self):
        s = SparseSignal(values=np.array([0.0, 2.0, 0.0, -1.0]), support=np.array([1, 3]))
        assert s.values.size == 4 and s.support.size == 2
        assert not s.values.flags.writeable

    def test_rejects_value_off_support(self):
        with pytest.raises(ValueError):
            SparseSignal(values=np.array([1.0, 2.0, 0.0]), support=np.array([1]))

    def test_rejects_zero_on_support(self):
        with pytest.raises(ValueError):
            SparseSignal(values=np.array([0.0, 0.0, 3.0]), support=np.array([1, 2]))

    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError):
            SparseSignal(values=np.array([1.0, 2.0]), support=np.array([1, 0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseSignal(values=np.array([1.0]), support=np.array([1]))


class TestSensingMatrix:
    def test_entries_frozen(self):
        mat = SensingMatrix(np.arange(6.0).reshape(2, 3))
        assert mat.entries.shape == (2, 3)
        assert not mat.entries.flags.writeable

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SensingMatrix(np.array([[1.0, np.inf]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            SensingMatrix(np.zeros(3))


class TestSampleSensingMatrix:
    def test_deterministic(self):
        a = sample_sensing_matrix(20, 30, StreamKey(5))
        b = sample_sensing_matrix(20, 30, StreamKey(5))
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_variance_scaling(self):
        # entries ~ N(0, 1/m): column squared norms concentrate near 1
        m = 4000
        mat = sample_sensing_matrix(m, 50, StreamKey(1))
        norms = np.linalg.norm(mat.entries, axis=0)
        assert np.all(np.abs(norms - 1.0) < 0.12)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            sample_sensing_matrix(0, 5, StreamKey(0))


class TestSampleSupport:
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_sorted_distinct_in_range(self, n, K, seed):
        if K > n:
            with pytest.raises(ValueError):
                sample_support(n, K, StreamKey(seed))
            return
        support = sample_support(n, K, StreamKey(seed))
        assert support.size == K
        assert np.all(np.diff(support) > 0)
        assert 0 <= support[0] and support[-1] < n

    def test_deterministic(self):
        a = sample_support(100, 10, StreamKey(3, 7))
        b = sample_support(100, 10, StreamKey(3, 7))
        np.testing.assert_array_equal(a, b)


class TestGenerateSignal:
    def test_flat_places_ones(self):
        s = generate_signal(6, [1, 4, 5], SignalCase.flat(), StreamKey(0))
        np.testing.assert_array_equal(s.values[[1, 4, 5]], [1.0, 1.0, 1.0])
        assert s.values.sum() == 3.0

    def test_decaying_direct_powers(self):
        # K=3 at ratio 1.2: ordered magnitudes are the plain powers
        # (1.2^2, 1.2, 1), largest at the smallest support index.
        s = generate_signal(8, [2, 3, 7], SignalCase.decaying(1.2), StreamKey(0))
        np.testing.assert_array_equal(
            s.values[[2, 3, 7]], [1.2**2, 1.2**1, 1.0]
        )
        np.testing.assert_allclose(s.values[[2, 3, 7]], [1.44, 1.2, 1.0], rtol=1e-15)

    @given(
        st.floats(1.01, 3.0),
        st.integers(1, 12),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_decaying_consecutive_ratio(self, alpha, K, seed):
        case = SignalCase.decaying(alpha)
        support = sample_support(40, K, StreamKey(seed))
        s = generate_signal(40, support, case, StreamKey(seed))
        mags = s.values[support]
        assert mags[-1] == 1.0
        np.testing.assert_allclose(mags[:-1] / mags[1:], alpha, rtol=1e-12)

    def test_gaussian_deterministic_and_scaled(self):
        key = StreamKey(17, 2, Purpose.SIGNAL)
        s1 = generate_signal(10, [0, 5], SignalCase.gaussian(1.0), key)
        s2 = generate_signal(10, [0, 5], SignalCase.gaussian(1.0), key)
        np.testing.assert_array_equal(s1.values, s2.values)
        s3 = generate_signal(10, [0, 5], SignalCase.gaussian(2.5), key)
        np.testing.assert_allclose(s3.values, 2.5 * s1.values, rtol=1e-15)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            generate_signal(5, [], SignalCase.flat(), StreamKey(0))
