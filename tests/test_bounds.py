"""Probability bounds: log primitives, fixed-point values, maximization.

Reference values were frozen from a 60-digit extended-precision
evaluation of the displayed formulas (a second, independent
implementation), so agreement here checks the float64 log-domain path
end to end.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omp_lab import bounds as bounds_mod
from omp_lab import montecarlo
from omp_lab.bounds import (
    BoundResult,
    baseline_bound,
    baseline_interval_upper,
    disparity_bound,
    disparity_interval_upper,
    log1mexp,
    log_baseline_bound_at,
    log_disparity_bound_at,
)
from omp_lab.omp import _support_path
from omp_lab.phi import PhiFunction
from omp_lab.signals import SignalCase

CS = PhiFunction.cauchy_schwarz()
D11 = PhiFunction.strongly_decaying(1.1)
D12 = PhiFunction.strongly_decaying(1.2)
GAUSS = PhiFunction.gaussian_empirical()


class TestLog1mexp:
    @pytest.mark.parametrize(
        "a,expected",
        [
            # frozen from extended-precision log(1 - exp(-a))
            (1e-12, -27.631021115929048),
            (0.1, -2.3521684610440908),
            (math.log(2.0), -math.log(2.0)),
            (5.0, -0.0067607494494885578),
            (50.0, -1.9287498479639178e-22),
        ],
    )
    def test_reference_values(self, a, expected):
        assert log1mexp(a) == pytest.approx(expected, rel=1e-13)

    def test_zero_gives_neg_inf(self):
        assert log1mexp(0.0) == -np.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log1mexp(-0.5)

    def test_vectorized_matches_scalar(self):
        a = np.array([1e-9, 0.3, 1.0, 10.0])
        vec = log1mexp(a)
        for i, ai in enumerate(a):
            assert vec[i] == log1mexp(float(ai))

    def test_bit_equal_to_two_branch_formula(self):
        # the gather-and-scatter rule that the in-place version replaced
        ln2 = math.log(2.0)
        a = np.array(
            [0.0, 5e-324, 1e-300, 1e-16, 1e-9, 0.5, 5.0, 50.0, 700.0, 745.2, 1e300, np.inf]
            + [ln2 + d * 2.0**-52 for d in range(-4, 5)]
        )
        a = np.concatenate([a, np.geomspace(1e-18, 1e3, 4001)])
        small = a < ln2
        want = np.empty_like(a)
        with np.errstate(divide="ignore"):
            want[small] = np.log(-np.expm1(-a[small]))
        want[~small] = np.log1p(-np.exp(-a[~small]))
        got = log1mexp(a)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert [log1mexp(float(v)) for v in a[:21]] == want[:21].tolist()

    @given(st.floats(1e-15, 700.0))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, a):
        # exp(log1mexp(a)) must reproduce 1 - e^-a to full precision
        assert math.exp(log1mexp(a)) == pytest.approx(-math.expm1(-a), rel=1e-12)


class TestIntervalUpper:
    def test_reference_value(self):
        # 1 - sqrt(0.15) - sqrt(30 / (100 pi)), frozen at 60 digits
        assert disparity_interval_upper(100, 15, CS) == pytest.approx(
            0.30368230376070664721, rel=1e-14
        )

    def test_m_equals_k_infeasible(self):
        assert disparity_interval_upper(15, 15, CS) == pytest.approx(
            -math.sqrt(2.0 / math.pi), rel=1e-12
        )

    def test_large_m_approaches_one(self):
        value = disparity_interval_upper(10**8, 15, CS)
        assert 0.999 < value < 1.0

    def test_baseline_endpoint(self):
        assert baseline_interval_upper(500, 15) == pytest.approx(
            math.sqrt(500 / 15) - 1.0
        )
        assert baseline_interval_upper(15, 15) == 0.0
        assert baseline_interval_upper(10, 15) < 0.0


class TestPointEvaluations:
    """Frozen dual-implementation oracle values at fixed epsilon."""

    def test_new_bound_reference(self):
        assert math.exp(log_disparity_bound_at(500, 1024, 15, CS, 0.12)) == pytest.approx(
            0.88569545659311990367, abs=1e-10
        )

    def test_new_bound_decay_reference(self):
        assert math.exp(log_disparity_bound_at(500, 1024, 15, D12, 0.3)) == pytest.approx(
            0.56060330494390699552, abs=1e-10
        )

    def test_baseline_references(self):
        assert math.exp(log_baseline_bound_at(500, 1024, 15, 0.12)) == pytest.approx(
            0.7203158631751107583, abs=1e-10
        )
        assert math.exp(log_baseline_bound_at(900, 1024, 30, 0.08)) == pytest.approx(
            0.1429708424158113908, abs=1e-10
        )

    def test_log_domain_deep_tail(self):
        # the plain-arithmetic value here is ~1.6e-658, far below
        # float underflow; the log path must still be accurate
        assert log_disparity_bound_at(300, 1024, 30, GAUSS, 0.2) == pytest.approx(
            -1514.6040965550775948, rel=1e-12
        )

    def test_epsilon_zero_vanishes(self):
        assert log_disparity_bound_at(500, 1024, 15, CS, 0.0) == -np.inf
        assert log_baseline_bound_at(500, 1024, 15, 0.0) == -np.inf

    def test_baseline_endpoint_vanishes(self):
        w = baseline_interval_upper(500, 15)
        assert log_baseline_bound_at(500, 1024, 15, w) == -np.inf

    def test_new_bound_finite_at_interval_end(self):
        upper = disparity_interval_upper(500, 15, CS)
        value = log_disparity_bound_at(500, 1024, 15, CS, upper)
        assert np.isfinite(value)

    def test_boundary_identity_xk_denominator(self):
        # at the right endpoint, eta = sqrt(2 phi(K) / (m pi)) makes the
        # k = K denominator exactly 1
        m, K = 500, 15
        upper = disparity_interval_upper(m, K, CS)
        eta = 1.0 - math.sqrt(K / m) - upper
        assert math.sqrt(math.pi * m / (2.0 * CS(K))) * eta == pytest.approx(
            1.0, rel=1e-12
        )

    def test_vectorized_matches_scalar(self):
        eps = np.linspace(0.01, 0.3, 7)
        vec = log_disparity_bound_at(400, 512, 10, D11, eps)
        for i, e in enumerate(eps):
            assert vec[i] == log_disparity_bound_at(400, 512, 10, D11, float(e))
        vec_b = log_baseline_bound_at(400, 512, 10, eps)
        for i, e in enumerate(eps):
            assert vec_b[i] == log_baseline_bound_at(400, 512, 10, float(e))

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            log_disparity_bound_at(0, 10, 2, CS, 0.1)
        with pytest.raises(ValueError):
            log_disparity_bound_at(10, 1, 1, CS, 0.1)
        with pytest.raises(ValueError):
            log_disparity_bound_at(10, 10, 10, CS, 0.1)


def _per_k_loop_oracle(m, n, K, phi, eps):
    """The term-by-term loop over k that the K x eps broadcast replaced."""
    out = np.full(eps.shape, -np.inf)
    eta = 1.0 - math.sqrt(K / m) - eps
    ok = (eps > 0.0) & (eta > 0.0)
    e = eps[ok]
    h = eta[ok]
    log_eta = np.log(h)
    half_m_eta_sq = 0.5 * m * h * h
    sum_terms = np.zeros(e.shape)
    for k in range(1, K + 1):
        phik = phi(k)
        logx = (
            -half_m_eta_sq / phik
            - 0.5 * math.log(math.pi * m / (2.0 * phik))
            - log_eta
        )
        below_one = logx < 0.0
        term = np.where(
            below_one, log1mexp(np.where(below_one, -logx, 1.0)), -np.inf
        )
        sum_terms = sum_terms + term
    out[ok] = log1mexp(0.5 * m * e * e) + (n - K) * sum_terms
    return out


class TestBroadcastMatchesLoop:
    """The K x eps broadcast gives the loop's doubles bit for bit."""

    @pytest.mark.parametrize("phi", [CS, D12, GAUSS], ids=lambda p: p.label())
    @pytest.mark.parametrize("K", [1, 15, 30])
    @pytest.mark.parametrize("m", [120, 500, 1000, 10**6])
    @pytest.mark.parametrize("size", [1, 1024])
    def test_bit_identical(self, phi, K, m, size):
        # eps spans the whole (0, 1 - sqrt(K/m)), past the feasible end,
        # so factors with x_k >= 1 (-inf terms) are covered too; at
        # m = 1e6 every term underflows to -0.0 and the sum must be +0.0
        width = 1.0 - math.sqrt(K / m)
        eps = width * (np.arange(1, size + 1) - 0.5) / size
        got = log_disparity_bound_at(m, 1024, K, phi, eps)
        want = _per_k_loop_oracle(m, 1024, K, phi, eps)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestEpsChunks:
    """A grid far longer than one eps chunk gets the one-pass doubles."""

    def test_chunk_is_smaller_than_the_grid(self):
        assert bounds_mod._EPS_CHUNK < 10**6

    @pytest.mark.parametrize("phi", [D11, GAUSS], ids=lambda p: p.label())
    def test_disparity_bit_identical_on_a_million_eps(self, phi):
        # past the feasible end too, so -inf terms straddle chunk edges
        m, n, K = 700, 1024, 12
        width = 1.0 - math.sqrt(K / m)
        eps = 1.05 * width * np.arange(1, 10**6 + 1) / 10**6
        got = log_disparity_bound_at(m, n, K, phi, eps)
        want = _per_k_loop_oracle(m, n, K, phi, eps)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_baseline_bit_identical_on_a_million_eps(self):
        m, n, K = 700, 1024, 12
        width = baseline_interval_upper(m, K)
        eps = 1.05 * width * np.arange(1, 10**6 + 1) / 10**6
        got = log_baseline_bound_at(m, n, K, eps)
        want = np.full(eps.shape, -np.inf)
        ok = eps < width
        e, gap = eps[ok], width - eps[ok]
        want[ok] = log1mexp(0.5 * m * e * e) + (K * (n - K)) * log1mexp(0.5 * gap * gap)
        assert np.array_equal(got, want)


class TestProductTermsBelowOne:
    @given(
        st.integers(2, 30),
        st.integers(0, 1000),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_feasible_interval_gives_finite_log(self, K, m_extra, frac):
        # anywhere strictly inside a nonempty feasible interval, every
        # product factor is positive, so the log value is finite
        m = 4 * K + m_extra
        upper = disparity_interval_upper(m, K, CS)
        if upper <= 0.0:
            return
        eps = frac * upper
        value = log_disparity_bound_at(m, 2 * K + 4, K, CS, eps)
        assert np.isfinite(value)
        assert value <= 0.0


class TestMaximization:
    def test_new_bound_maximum_reference(self):
        # dense extended-precision scan + ternary refinement oracle
        result = disparity_bound(500, 1024, 15, CS)
        assert result.feasible
        assert result.value == pytest.approx(0.88749529694320907588, abs=1e-9)
        assert result.epsilon_star == pytest.approx(0.11500035510357557487, abs=1e-6)

    def test_baseline_maximum_reference(self):
        result = baseline_bound(500, 1024, 15)
        assert result.feasible
        assert result.value == pytest.approx(0.72063981720037939534, abs=1e-9)
        assert result.epsilon_star == pytest.approx(0.1231964840090210737, abs=1e-6)

    def test_infeasible_new_bound(self):
        result = disparity_bound(15, 1024, 15, CS)
        assert not result.feasible
        assert result.value == 0.0
        assert result.log_value == -np.inf
        assert result.epsilon_star is None
        assert result.interval_upper < 0.0

    def test_infeasible_baseline(self):
        result = baseline_bound(10, 1024, 15)
        assert not result.feasible and result.value == 0.0

    def test_result_invariants(self):
        for result in (
            disparity_bound(700, 1024, 30, GAUSS),
            baseline_bound(700, 1024, 30),
        ):
            assert 0.0 <= result.value <= 1.0
            assert result.log_value <= 0.0
            if result.value > 0.0:
                assert result.value == pytest.approx(
                    math.exp(result.log_value), rel=1e-12
                )
            assert result.feasible
            assert 0.0 < result.epsilon_star <= result.interval_upper

    def test_dense_grid_agreement_single_query(self):
        # the full randomized sweep lives in the acceptance suite; this
        # pins one case for fast feedback
        m, n, K = 500, 1024, 15
        upper = disparity_interval_upper(m, K, CS)
        grid = upper * np.arange(1, 200_001) / 200_000
        dense = float(np.max(log_disparity_bound_at(m, n, K, CS, grid)))
        refined = disparity_bound(m, n, K, CS)
        assert abs(math.exp(dense) - refined.value) < 1e-8

    def test_small_m_tail_values_stay_consistent(self):
        # deep in the no-recovery regime the value underflows float64
        # but the log value and maximizer must stay well defined
        tiny = disparity_bound(150, 1024, 15, CS)
        assert tiny.feasible
        assert 0.0 < tiny.value < 1e-60
        assert tiny.value == pytest.approx(math.exp(tiny.log_value), rel=1e-12)
        vanished = disparity_bound(100, 1024, 15, CS)
        assert vanished.feasible
        assert vanished.value == 0.0
        assert -np.inf < vanished.log_value < -700.0
        assert 0.0 < vanished.epsilon_star <= vanished.interval_upper


class TestMonotonicity:
    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_phi_dominance_pointwise(self, idx):
        # smaller budget -> pointwise larger bound at matched epsilon
        rng = np.random.default_rng(idx)
        K = int(rng.integers(2, 25))
        m = int(rng.integers(4 * K, 900))
        n = int(rng.integers(K + 2, 2000))
        upper = disparity_interval_upper(m, K, D12)
        if upper <= 0:
            return
        eps = float(rng.uniform(0.0, upper))
        if eps <= 0:
            return
        lo = log_disparity_bound_at(m, n, K, D12, eps)
        hi = log_disparity_bound_at(m, n, K, CS, eps)
        assert lo >= hi - 1e-9

    def test_alpha_monotone_at_reference_point(self):
        v11 = disparity_bound(500, 1024, 15, D11).value
        v12 = disparity_bound(500, 1024, 15, D12).value
        vcs = disparity_bound(500, 1024, 15, CS).value
        assert v12 >= v11 >= vcs

    def test_gauss_dominates_cs(self):
        # gauss budget <= identity budget, so its bound is at least as large
        for m, K in ((400, 20), (700, 30)):
            assert (
                disparity_bound(m, 1024, K, GAUSS).value
                >= disparity_bound(m, 1024, K, CS).value - 1e-12
            )


class TestDerivation:
    """The per-iteration factor of the bounds' derivation (the
    ``bounds`` module docstring), checked on reduced trials."""

    @pytest.mark.parametrize(
        "case",
        [SignalCase.flat(), SignalCase.decaying(1.1), SignalCase.decaying(1.2)],
        ids=lambda c: c.label(),
    )
    def test_per_iteration_factor_on_the_support_path(self, case):
        # iteration k (0-based) of the all-on-support path has K - k
        # entries of x left, so c_k / ||u_k|| >= sigma_min(R) /
        # sqrt(phi(K - k)).  Gaussian nonzeros are left out: for them
        # phi holds only with high probability.
        m, K, trials = 200, 30, 400
        support, values, _ = montecarlo._draw_trials(1024, K, case, 4, (m,), range(trials))
        R = support[:, 0]
        _, residuals, wins = _support_path(R, values)
        factor = wins / np.linalg.norm(residuals, axis=1)
        sigma_min = np.linalg.svd(R, compute_uv=False)[:, -1]
        phi = montecarlo.phi_for_case(case).values(K)[::-1]
        ratio = factor / (sigma_min[:, None] / np.sqrt(phi))
        assert ratio.min() >= 1.0, ratio.min()


class TestBatchedSearch:
    """``maximize_bounds`` searches many points at once; each point's
    result is the one it gets alone."""

    def test_point_in_a_mixed_batch_is_bit_identical(self):
        # K from 1 to 60 pads the shorter points' phi rows, and three
        # infeasible points sit among the feasible ones
        rng = np.random.default_rng(20)
        budgets = (CS, D11, D12, PhiFunction.strongly_decaying(2.0), GAUSS)
        disparity, baseline = [], []
        for _ in range(120):
            K = int(rng.integers(1, 61))
            m = int(rng.integers(K + 1, 2500))
            n = int(rng.integers(K + 1, 4096))
            disparity.append((m, n, K, budgets[int(rng.integers(len(budgets)))]))
            baseline.append((m, n, K))
        for at, (m, K) in ((7, (15, 15)), (50, (40, 30)), (90, (20, 25))):
            disparity.insert(at, (m, 1024, K, CS))
            baseline.insert(at, (m, 1024, K))
        new, old = bounds_mod.maximize_bounds(disparity, baseline)
        assert sum(not r.feasible for r in new) == 3
        for args, got in zip(disparity, new):
            want = disparity_bound(*args)
            assert got == want
            assert np.signbit(got.log_value) == np.signbit(want.log_value)
        for args, got in zip(baseline, old):
            assert got == baseline_bound(*args)

    def test_empty_and_one_sided_batches(self):
        assert bounds_mod.maximize_bounds() == ([], [])
        new, old = bounds_mod.maximize_bounds(disparity=[(500, 1024, 15, CS)])
        assert old == [] and new == [disparity_bound(500, 1024, 15, CS)]
        new, old = bounds_mod.maximize_bounds(baseline=[(10, 1024, 15)])
        assert new == [] and old == [baseline_bound(10, 1024, 15)]

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            bounds_mod.maximize_bounds([(500, 1024, 15, CS), (10, 10, 10, CS)])
        with pytest.raises(ValueError):
            bounds_mod.maximize_bounds(baseline=[(0, 1024, 15)])

    def test_log_value_is_the_objective_at_the_maximizer(self):
        for m, K, phi in ((500, 15, CS), (300, 30, GAUSS), (150, 15, D12)):
            new = disparity_bound(m, 1024, K, phi)
            assert new.log_value == log_disparity_bound_at(m, 1024, K, phi, new.epsilon_star)
            old = baseline_bound(m, 1024, K)
            assert old.log_value == log_baseline_bound_at(m, 1024, K, old.epsilon_star)

    @pytest.mark.parametrize("name", ["sim-large-m", "sim-transition", "bound-sweep"])
    def test_matches_the_benchmark_reference_tables(self, name):
        # the tables were written by the nested 1025-point grid scan
        # that this search replaced
        path = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
        with open(path / f"{name}.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        if name == "bound-sweep":
            want = [float(r["value"]) for r in rows]
            queries = [(int(r["m"]), int(r["n"]), int(r["K"])) for r in rows]
            new, old = bounds_mod.maximize_bounds(
                [(m, n, K, GAUSS) for m, n, K in queries], queries
            )
            got = [
                (new if r["bound_name"] == "new" else old)[i].value
                for i, r in enumerate(rows)
            ]
        else:
            cases = {
                c.label(): c
                for c in (
                    SignalCase.flat(), SignalCase.decaying(1.1),
                    SignalCase.decaying(1.2), SignalCase.gaussian(1.0),
                )
            }
            queries = [(int(r["m"]), int(r["n"]), int(r["K"])) for r in rows]
            new, old = bounds_mod.maximize_bounds(
                [
                    (*q, montecarlo.phi_for_case(cases[r["case"]]))
                    for q, r in zip(queries, rows)
                ],
                queries,
            )
            want = [float(r[c]) for r in rows for c in ("new_bound", "existing_bound")]
            got = [v for pair in zip(new, old) for v in (pair[0].value, pair[1].value)]
        assert len(got) == len(want) > 0
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
