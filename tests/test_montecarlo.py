"""Experiment engine: config validation, keyed trials, aggregation."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import fisher_exact

from omp_lab import bounds as bounds_mod
from omp_lab import montecarlo
from omp_lab.montecarlo import (
    ExperimentConfig,
    PointResult,
    TrialError,
    phi_for_case,
    reduced_trial_succeeds,
    run_experiment,
    run_trial,
    sample_reduced_trial,
    wilson_interval,
)
from omp_lab.omp import DegenerateColumnError
from omp_lab.signals import (
    Purpose,
    SensingMatrix,
    SignalCase,
    StreamKey,
    generate_signal,
    sample_sensing_matrix,
    sample_support,
)

ALL_CASES = (
    SignalCase.flat(),
    SignalCase.decaying(1.1),
    SignalCase.decaying(1.2),
    SignalCase.gaussian(1.0),
)

# The equivalence grid: at n=256, K=8 the success rate runs from about 0
# at m=24 to about 0.4 (flat) and 0.9 (gauss) at m=48.
EQ_N, EQ_K, EQ_M = 256, 8, tuple(range(24, 49, 4))


def _small_config(**overrides):
    base = dict(
        n=64,
        m_values=(24, 40),
        k_values=(3,),
        cases=(SignalCase.flat(), SignalCase.gaussian(1.0)),
        trials=12,
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_valid_roundtrip(self):
        config = _small_config()
        assert config.point_count == 4
        assert [p[1:] for p in config.grid_points()] == [
            (3, 24), (3, 40), (3, 24), (3, 40)
        ]

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(trials=0),
            dict(m_values=()),
            dict(m_values=(40, 24)),
            dict(m_values=(24, 24)),
            dict(k_values=()),
            dict(k_values=(24,)),      # K not < min(m)
            dict(k_values=(0,)),
            dict(n=3, k_values=(3,)),  # K not < n
            dict(cases=()),
            dict(master_seed=-1),
            dict(master_seed=2**64),
            dict(recovery_tolerance=0.0),
        ],
    )
    def test_rejects_bad_configs(self, overrides):
        with pytest.raises(ValueError):
            _small_config(**overrides)


class TestPhiForCase:
    def test_mapping(self):
        assert phi_for_case(SignalCase.flat()).variant == "cs"
        phi = phi_for_case(SignalCase.decaying(1.1))
        assert phi.variant == "decay" and phi.alpha == 1.1
        assert phi_for_case(SignalCase.gaussian(1.0)).variant == "gauss"


class TestRunTrial:
    def test_identity_hook_always_recovers(self):
        # orthonormal columns: the pursuit reads coefficients directly
        identity = SensingMatrix(np.eye(16))
        for case in (
            SignalCase.flat(),
            SignalCase.decaying(1.2),
            SignalCase.gaussian(1.0),
        ):
            assert run_trial(16, 16, 3, case, StreamKey(4), matrix=identity)

    def test_deterministic(self):
        key = StreamKey(42, 7)
        results = {
            run_trial(60, 128, 4, SignalCase.gaussian(1.0), key) for _ in range(3)
        }
        assert len(results) == 1

    def test_different_trials_can_differ(self):
        # in the transition region outcomes vary across trial indices
        outcomes = {
            run_trial(60, 256, 8, SignalCase.flat(), StreamKey(0, t))
            for t in range(40)
        }
        assert outcomes == {True, False}

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trial(10, 64, 10, SignalCase.flat(), StreamKey(0))
        with pytest.raises(ValueError):
            run_trial(10, 64, 0, SignalCase.flat(), StreamKey(0))
        with pytest.raises(ValueError):
            run_trial(
                10, 64, 2, SignalCase.flat(), StreamKey(0),
                matrix=SensingMatrix(np.eye(5)),
            )

    def test_recovery_improves_with_m(self):
        # scaled-down version of the long-run check: far below the
        # transition vs far above it
        flat = SignalCase.flat()
        low = sum(
            run_trial(100, 1024, 30, flat, StreamKey(1, t)) for t in range(30)
        )
        high = sum(
            run_trial(1000, 1024, 30, flat, StreamKey(1, t)) for t in range(30)
        )
        assert low < high


def _dense_reduction(m, n, K, case, key):
    """(R, G, x_S) of the dense trial that ``run_trial`` runs for ``key``:
    the QR of A_S with a positive diagonal, and G = A_{S^c}^T Q."""
    A = sample_sensing_matrix(m, n, key.with_purpose(Purpose.MATRIX)).entries
    support = sample_support(n, K, key.with_purpose(Purpose.SUPPORT))
    x = generate_signal(n, support, case, key.with_purpose(Purpose.SIGNAL)).values
    Q, R = np.linalg.qr(A[:, support])
    signs = np.sign(np.diagonal(R))
    off = np.ones(n, dtype=bool)
    off[support] = False
    return R * signs[:, None], A[:, off].T @ (Q * signs), x[support]


class TestReducedTrial:
    def test_sampler_shapes_and_determinism(self):
        key = StreamKey(3, 11)
        R, G, x_S = sample_reduced_trial(40, 64, 5, SignalCase.flat(), key)
        assert R.shape == (5, 5) and G.shape == (59, 5) and x_S.shape == (5,)
        assert np.all(np.tril(R, -1) == 0.0) and np.all(np.diagonal(R) > 0.0)
        again = sample_reduced_trial(40, 64, 5, SignalCase.flat(), key)
        for a, b in zip((R, G, x_S), again):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.label())
    def test_signal_values_follow_the_case(self, case):
        # the dense trial's nonzeros, in support order, for the same key
        key = StreamKey(8, 2)
        _, _, x_S = sample_reduced_trial(50, 128, 6, case, key)
        _, _, dense = _dense_reduction(50, 128, 6, case, key)
        assert np.array_equal(x_S, dense)

    def test_sampler_moments(self):
        # E[R_ii^2] = (m - i)/m, E[R_ij^2] = E[G_ij^2] = 1/m; a chi-square
        # with m - i + 1 degrees of freedom would miss by 1/m = 5 SE here
        m, n, K, draws = 40, 48, 8, 2000
        Rs, Gs = zip(*(
            sample_reduced_trial(m, n, K, SignalCase.flat(), StreamKey(1, t))[:2]
            for t in range(draws)
        ))
        diag_sq = np.mean([np.diagonal(R) ** 2 for R in Rs], axis=0)
        expected = (m - np.arange(K)) / m
        se = np.sqrt(2.0 * (m - np.arange(K)) / m**2 / draws)
        assert np.all(np.abs(diag_sq - expected) < 4.0 * se)
        upper = np.array([R[np.triu_indices(K, 1)] for R in Rs])
        for block in (upper, np.array(Gs)):
            assert abs(np.mean(block**2) * m - 1.0) < 4.0 * np.sqrt(2.0 / block.size)
            assert abs(np.mean(block) * np.sqrt(m)) < 4.0 / np.sqrt(block.size)

    def test_decision_on_designed_inputs(self):
        x_S = np.array([1.0, 2.0, 3.0])
        assert reduced_trial_succeeds(np.eye(3), np.zeros((5, 3)), x_S, 1e-10)
        G = np.zeros((5, 3))
        G[4, 2] = 5.0  # beats the first on-support correlation, 3
        assert not reduced_trial_succeeds(np.eye(3), G, x_S, 1e-10)

    def test_non_positive_diagonal_raises(self):
        R = np.eye(4)
        R[2, 2] = 0.0
        with pytest.raises(DegenerateColumnError) as info:
            reduced_trial_succeeds(R, np.zeros((3, 4)), np.ones(4), 1e-10)
        assert (info.value.iteration, info.value.index) == (3, 2)

    def test_validation(self):
        for m, n, K in ((10, 64, 10), (10, 64, 0), (40, 8, 8)):
            with pytest.raises(ValueError):
                sample_reduced_trial(m, n, K, SignalCase.flat(), StreamKey(0))

    def test_pathwise_equal_to_dense(self):
        # The decision on (R, G, x_S) built from a dense instance must be
        # exactly run_trial's outcome on that instance.
        outcomes = []
        for m in EQ_M:
            for case in ALL_CASES:
                for t in range(20):
                    key = StreamKey(2024, t)
                    dense = run_trial(m, EQ_N, EQ_K, case, key)
                    reduced = reduced_trial_succeeds(
                        *_dense_reduction(m, EQ_N, EQ_K, case, key), 1e-10
                    )
                    assert reduced == dense, (m, case.label(), t)
                    outcomes.append(dense)
        assert len(outcomes) >= 500
        assert set(outcomes) == {True, False}

    @pytest.mark.slow
    def test_distribution_equal_to_dense(self):
        # Sampled trials against dense trials, independent seeds, 500 each
        # per grid point: a two-sided Fisher exact test per point,
        # Bonferroni-corrected to a family-wise alpha of 1e-3.
        trials = 500
        points = [(m, case) for m in EQ_M for case in ALL_CASES]
        alpha = 1e-3 / len(points)
        rates = []
        for m, case in points:
            reduced = sum(
                reduced_trial_succeeds(
                    *sample_reduced_trial(m, EQ_N, EQ_K, case, StreamKey(31, t)),
                    1e-10,
                )
                for t in range(trials)
            )
            dense = sum(
                run_trial(m, EQ_N, EQ_K, case, StreamKey(37, t))
                for t in range(trials)
            )
            table = [[reduced, trials - reduced], [dense, trials - dense]]
            p_value = fisher_exact(table, alternative="two-sided")[1]
            assert p_value > alpha, (m, case.label(), reduced, dense, p_value)
            rates.append(dense / trials)
        # the grid must cross the transition, or the test has no power
        assert min(rates) < 0.2 and max(rates) > 0.8


class TestWilsonInterval:
    @staticmethod
    def _oracle(successes, trials, confidence="0.95"):
        # independent extended-precision evaluation of the score interval
        mp.mp.dps = 40
        z = mp.sqrt(2) * mp.erfinv(mp.mpf(confidence))
        p = mp.mpf(successes) / trials
        denom = 1 + z**2 / trials
        center = (p + z**2 / (2 * trials)) / denom
        half = z * mp.sqrt(p * (1 - p) / trials + z**2 / (4 * mp.mpf(trials) ** 2)) / denom
        return float(center - half), float(center + half)

    @pytest.mark.parametrize(
        "successes,trials", [(8, 10), (0, 20), (20, 20), (499, 500), (1, 1000)]
    )
    def test_against_oracle(self, successes, trials):
        lo, hi = wilson_interval(successes, trials)
        olo, ohi = self._oracle(successes, trials)
        assert lo == pytest.approx(max(0.0, olo), abs=1e-12)
        assert hi == pytest.approx(min(1.0, ohi), abs=1e-12)

    def test_contains_point_estimate_and_stays_in_unit(self):
        ends = [(s, t) for t in range(1, 1001) for s in (0, t)]
        for s, t in [(3, 7), (50, 60)] + ends:
            lo, hi = wilson_interval(s, t)
            assert 0.0 <= lo <= s / t <= hi <= 1.0, (s, t)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(3, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(1, 2, confidence=1.0)


class TestPointResult:
    def test_invariants(self):
        p = PointResult(
            m=40, n=64, K=3, case=SignalCase.flat(), trials=10, successes=7,
            disparity_bound_value=0.5, baseline_bound_value=0.3,
        )
        assert p.probability == 0.7
        lo, hi = p.confidence_interval()
        assert 0.0 <= lo <= 0.7 <= hi <= 1.0

    def test_successes_bounded(self):
        with pytest.raises(ValueError):
            PointResult(
                m=40, n=64, K=3, case=SignalCase.flat(), trials=10, successes=11,
                disparity_bound_value=0.0, baseline_bound_value=0.0,
            )


class TestRunExperiment:
    def test_deterministic_across_runs(self):
        config = _small_config()
        a = run_experiment(config)
        b = run_experiment(config)
        assert [p.successes for p in a.points] == [p.successes for p in b.points]

    def test_worker_count_invariant(self):
        config = _small_config(trials=9)
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=3)
        assert [p.successes for p in serial.points] == [
            p.successes for p in parallel.points
        ]

    def test_grid_order_and_metadata(self):
        config = _small_config()
        result = run_experiment(config)
        assert [(p.case.label(), p.K, p.m) for p in result.points] == [
            (case.label(), K, m) for case, K, m in config.grid_points()
        ]
        for p in result.points:
            assert p.n == config.n and p.trials == config.trials
            assert 0 <= p.successes <= p.trials

    @pytest.mark.parametrize("workers", [1, 2])
    def test_attached_bounds_match_direct_evaluation(self, workers):
        config = _small_config(trials=3)
        result = run_experiment(config, workers=workers)
        for p in result.points:
            phi = phi_for_case(p.case)
            assert p.disparity_bound_value == (
                bounds_mod.disparity_bound(p.m, p.n, p.K, phi).value
            )
            assert p.baseline_bound_value == (
                bounds_mod.baseline_bound(p.m, p.n, p.K).value
            )

    def test_each_bound_evaluated_once(self, monkeypatch):
        # both Gaussian cases share the gauss budget; no bound uses the case
        calls = []
        for name in ("baseline_bound", "disparity_bound"):
            real = getattr(bounds_mod, name)

            def counted(*args, _real=real, _name=name):
                calls.append((_name, *args))
                return _real(*args)

            monkeypatch.setattr(bounds_mod, name, counted)
        config = _small_config(
            trials=1,
            cases=(
                SignalCase.flat(), SignalCase.gaussian(1.0), SignalCase.gaussian(2.0)
            ),
        )
        run_experiment(config)
        assert len(calls) == len(set(calls))
        assert sorted(c[:2] for c in calls) == [
            ("baseline_bound", 24), ("baseline_bound", 40),
        ] + [("disparity_bound", 24)] * 2 + [("disparity_bound", 40)] * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_callback(self, workers):
        config = _small_config(trials=2)
        seen = []
        run_experiment(
            config,
            workers=workers,
            progress=lambda done, total, p: seen.append((done, total, p.case, p.K, p.m)),
        )
        assert seen == [
            (i + 1, 4, *point) for i, point in enumerate(config.grid_points())
        ]

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            run_experiment(_small_config(trials=1), workers=0)


def degenerate_sampler(monkeypatch):
    """Make every sampled trial's R singular in its first column."""
    sample = montecarlo.sample_reduced_trial

    def degenerate(*args):
        R, G, x_S = sample(*args)
        R[0, 0] = 0.0
        return R, G, x_S

    monkeypatch.setattr(montecarlo, "sample_reduced_trial", degenerate)


class TestTrialError:
    def test_wraps_solver_failure_with_location(self, monkeypatch):
        degenerate_sampler(monkeypatch)
        with pytest.raises(TrialError) as info:
            montecarlo._count_successes(
                10, 20, 2, SignalCase.flat(), 0, 5, 3, 1e-10
            )
        err = info.value
        assert (err.m, err.K, err.trial_index) == (10, 2, 5)
        assert err.case == SignalCase.flat()
        assert "trial 5" in str(err)

    def test_crosses_the_process_pool(self, monkeypatch):
        # workers inherit the patched module; the parent must get the
        # TrialError of the first chunk, with its location intact
        degenerate_sampler(monkeypatch)
        with pytest.raises(TrialError) as info:
            run_experiment(_small_config(), workers=2)
        err = info.value
        assert (err.m, err.K, err.case, err.trial_index) == (24, 3, SignalCase.flat(), 0)
        assert isinstance(err.cause, DegenerateColumnError)
        assert (err.cause.iteration, err.cause.index) == (1, 0)
