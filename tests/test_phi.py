"""Disparity functions: closed forms, piecewise budget, empirical check."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_lab import phi as phi_mod
from omp_lab.phi import PhiFunction, validate_phi_empirical
from omp_lab.signals import StreamKey

from oracles import phi_successes_one_shot, vector_disparity_ratio

# Frozen 60-digit reference evaluations of the geometric budget
# (a**t - 1)(a + 1) / ((a**t + 1)(a - 1)).
_DECAY_ORACLE = [
    (1.1, 50, 20.645242863123226715),
    (1.2, 3, 2.9354838709677419355),
    (2.0, 10, 2.9941463414634146341),
    (2.5, 7, 2.3256999731639681546),
]


class TestCauchySchwarz:
    def test_identity_on_sizes(self):
        phi = PhiFunction.cauchy_schwarz()
        assert [phi(t) for t in (1, 7, 50)] == [1.0, 7.0, 50.0]


class TestStronglyDecaying:
    @pytest.mark.parametrize("alpha,t,expected", _DECAY_ORACLE)
    def test_oracle_values(self, alpha, t, expected):
        assert PhiFunction.strongly_decaying(alpha)(t) == pytest.approx(
            expected, rel=1e-14
        )

    def test_alpha_must_exceed_one(self):
        for bad in (1.0, 0.9, -1.0):
            with pytest.raises(ValueError):
                PhiFunction.strongly_decaying(bad)

    @given(st.floats(1.001, 4.0), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_between_one_and_t(self, alpha, t):
        value = PhiFunction.strongly_decaying(alpha)(t)
        assert 1.0 <= value + 1e-12
        assert value <= t + 1e-9

    @given(st.floats(1.001, 4.0), st.integers(1, 199))
    @settings(max_examples=60, deadline=None)
    def test_increasing_in_t_toward_limit(self, alpha, t):
        phi = PhiFunction.strongly_decaying(alpha)
        assert phi(t) < phi(t + 1) + 1e-12
        assert phi(t) < (alpha + 1.0) / (alpha - 1.0) + 1e-12

    def test_limit_value(self):
        # huge t must not overflow and must sit at the limit (a+1)/(a-1) = 3
        assert PhiFunction.strongly_decaying(2.0)(10_000) == pytest.approx(3.0)

    @given(st.floats(1.01, 2.0), st.floats(0.001, 1.0), st.integers(2, 60))
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_alpha(self, alpha, bump, t):
        lo = PhiFunction.strongly_decaying(alpha + bump)(t)
        hi = PhiFunction.strongly_decaying(alpha)(t)
        assert lo <= hi + 1e-12

    def test_at_one_approaches_t(self):
        # the alpha -> 1 limit of the budget is t itself
        assert PhiFunction.strongly_decaying(1.0000001)(20) == pytest.approx(
            20.0, rel=1e-5
        )


class TestGaussianEmpirical:
    def test_piecewise_breakpoints(self):
        phi = PhiFunction.gaussian_empirical()
        assert phi(1) == 1.0
        assert phi(24) == 24.0
        assert phi(25) == 24.0
        assert phi(29) == 24.0
        assert phi(30) == 24.0  # 0.8 * 30 meets the plateau exactly
        assert phi(31) == pytest.approx(24.8)
        assert phi(50) == pytest.approx(40.0)

    def test_nondecreasing(self):
        phi = PhiFunction.gaussian_empirical()
        vals = phi.values(80)
        assert np.all(np.diff(vals) >= 0.0)

    def test_integer_sizes_only(self):
        phi = PhiFunction.gaussian_empirical()
        with pytest.raises(TypeError):
            phi(2.5)


class TestPhiFunctionGeneric:
    def test_values_vector_matches_calls(self):
        phi = PhiFunction.strongly_decaying(1.3)
        np.testing.assert_allclose(
            phi.values(10), [phi(t) for t in range(1, 11)], rtol=0
        )

    def test_size_validation(self):
        for phi in (
            PhiFunction.cauchy_schwarz(),
            PhiFunction.strongly_decaying(1.5),
            PhiFunction.gaussian_empirical(),
        ):
            with pytest.raises(ValueError):
                phi(0)

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            PhiFunction("cs", alpha=2.0)
        with pytest.raises(ValueError):
            PhiFunction("decay")
        with pytest.raises(ValueError):
            PhiFunction("other")

    def test_labels(self):
        assert PhiFunction.cauchy_schwarz().label() == "cs"
        assert PhiFunction.strongly_decaying(1.1).label() == "decay1.1"
        assert PhiFunction.gaussian_empirical().label() == "gauss"


class TestDisparityRatio:
    def test_flat_vector_attains_t(self):
        # all-equal magnitudes: ratio is exactly the length
        assert vector_disparity_ratio([3.0, 3.0, 3.0, 3.0]) == pytest.approx(4.0)

    def test_single_entry_is_one(self):
        assert vector_disparity_ratio([7.5]) == 1.0

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50).filter(lambda v: abs(v) > 1e-6),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_length(self, values):
        ratio = vector_disparity_ratio(values)
        assert 1.0 - 1e-12 <= ratio <= len(values) + 1e-9

    def test_geometric_vector_attains_decay_budget(self):
        # Tightness: the exactly geometric vector meets the geometric
        # budget with equality.
        alpha, t = 1.2, 3
        vec = [alpha**2, alpha, 1.0]
        phi = PhiFunction.strongly_decaying(alpha)
        assert vector_disparity_ratio(vec) == pytest.approx(phi(t), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.1, 1.2, 2.0])
    def test_decay_budget_holds_on_every_subset(self, alpha):
        # The bounds apply phi to the entries a path leaves, a subset of
        # one vector, not a fresh t-vector.  Over all 2^14 - 1 subsets of
        # the geometric K = 14 vector no ratio exceeds phi of its size,
        # and some subset of each size attains it.
        K = 14
        masks = (np.arange(1, 2**K)[:, None] >> np.arange(K)) & 1
        v = alpha ** -np.arange(K, dtype=float)
        ratio = (masks @ v) ** 2 / (masks @ (v * v))
        sizes = masks.sum(axis=1)
        budget = PhiFunction.strongly_decaying(alpha).values(K)
        assert np.all(ratio <= budget[sizes - 1] * (1.0 + 1e-14))
        largest = np.zeros(K)
        np.maximum.at(largest, sizes - 1, ratio)
        np.testing.assert_allclose(largest, budget, rtol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            vector_disparity_ratio([0.0, 0.0])


def _traced_peak(t_max, trials):
    """Bytes traced at the peak of one Gaussian validation call, after
    a warm-up call."""
    phi = PhiFunction.gaussian_empirical()
    validate_phi_empirical(phi, 2, 10, StreamKey(1))
    tracemalloc.start()
    try:
        validate_phi_empirical(phi, t_max, trials, StreamKey(1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestValidatePhiEmpirical:
    def test_deterministic_and_t_max_stable(self):
        key = StreamKey(12)
        phi = PhiFunction.gaussian_empirical()
        a = validate_phi_empirical(phi, 10, 400, key)
        b = validate_phi_empirical(phi, 10, 400, key)
        np.testing.assert_array_equal(a.successes, b.successes)
        # per-size substreams: extending t_max must not change earlier counts
        c = validate_phi_empirical(phi, 15, 400, key)
        np.testing.assert_array_equal(c.successes[:10], a.successes)

    def test_cs_always_holds(self):
        # the ratio never exceeds the vector length, so the identity
        # budget passes every draw
        report = validate_phi_empirical(
            PhiFunction.cauchy_schwarz(), 12, 300, StreamKey(5)
        )
        assert report.min_probability == 1.0

    def test_size_one_always_holds(self):
        report = validate_phi_empirical(
            PhiFunction.gaussian_empirical(), 1, 200, StreamKey(5)
        )
        assert report.probabilities[0] == 1.0

    def test_plateau_sizes_fail_sometimes(self):
        # between sizes 25 and 29 the budget (24) is below the identity
        # line, so Gaussian draws must occasionally break the condition
        report = validate_phi_empirical(
            PhiFunction.gaussian_empirical(), 29, 4000, StreamKey(3)
        )
        assert report.successes[24:29].min() < 4000

    def test_report_accessors(self):
        report = validate_phi_empirical(
            PhiFunction.gaussian_empirical(), 30, 500, StreamKey(1)
        )
        assert report.sizes.tolist() == list(range(1, 31))
        assert report.min_probability == report.probabilities.min()
        worst = report.worst_size()
        assert report.probabilities[worst - 1] == report.min_probability

    def test_sliced_draw_equals_one_shot(self):
        # a size's trials are drawn in slices of about 1 MiB; 2^17 + 9
        # trials leave a partial last slice at every size from 1 to 3.
        # The decay budget (2.71 at t = 3) fails some draws of size 2
        # and 3, so the counts can tell draws apart.
        phi = PhiFunction.strongly_decaying(1.5)
        trials = 2**17 + 9
        assert all(trials % (phi_mod._DRAW_BYTES // (8 * (t + 2))) for t in (1, 2, 3))
        report = validate_phi_empirical(phi, 3, trials, StreamKey(4))
        want = phi_successes_one_shot(phi, 3, trials, StreamKey(4))
        assert report.successes.tolist() == want.tolist()
        assert 0 < want[1] < trials and 0 < want[2] < trials

    def test_memory_bounded_in_trials(self):
        # one 40,000-by-30 draw alone is 9.2 MiB, and the call peaked
        # near 19.5 MiB drawing it whole; in slices of about 1 MiB it
        # peaks near 1.0 MiB
        peak = _traced_peak(30, 40_000)
        assert peak < 4 * 2**20, peak / 2**20

    def test_small_sizes_hold_one_slice(self):
        # at t = 1 a slice's norm vectors are as large as its draws; the
        # call peaked at 5.0 MiB holding five such arrays and the last
        # slice's, and holds about 1.0 MiB with the two norms in place
        peak = _traced_peak(1, 400_000)
        assert peak < 2 * 2**20, peak / 2**20

    def test_report_compares_by_identity(self):
        report = validate_phi_empirical(PhiFunction.cauchy_schwarz(), 3, 10, StreamKey(1))
        again = validate_phi_empirical(PhiFunction.cauchy_schwarz(), 3, 10, StreamKey(1))
        assert report == report and report != again
        assert hash(report) != hash(again)
        assert len({report, again}) == 2

    def test_validation_errors(self):
        phi = PhiFunction.gaussian_empirical()
        with pytest.raises(ValueError):
            validate_phi_empirical(phi, 0, 10, StreamKey(0))
        with pytest.raises(ValueError):
            validate_phi_empirical(phi, 5, 0, StreamKey(0))
