"""Experiment engine: config validation, keyed trials, aggregation."""

import contextlib
import importlib.util
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc

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
    run_experiment,
    run_trial,
    wilson_interval,
)
from omp_lab.omp import (
    DegenerateColumnError,
    check_exact_recovery,
    recovers_stack,
    run_omp,
)
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


def _dense_instance(m, n, K, case, key):
    """(A, signal) of the dense trial that ``run_trial`` runs for ``key``."""
    A = sample_sensing_matrix(m, n, key.with_purpose(Purpose.MATRIX)).entries
    support = sample_support(n, K, key.with_purpose(Purpose.SUPPORT))
    return A, generate_signal(n, support, case, key.with_purpose(Purpose.SIGNAL))


def _dense_reduction(A, signal):
    """(R, G, x_S, perm) of a dense instance: ``B = Q^T A[:, perm] = [R | G^T]``
    with Q from the QR of A_S with a positive diagonal, and ``perm`` the
    support followed by the off-support columns in index order."""
    support = signal.support
    off = np.ones(A.shape[1], dtype=bool)
    off[support] = False
    perm = np.concatenate([support, np.flatnonzero(off)])
    Q, R = np.linalg.qr(A[:, support])
    Q = Q * np.sign(np.diagonal(R))
    B = Q.T @ A[:, perm]
    K = support.size
    return B[:, :K], B[:, K:].T, signal.values[support], perm


def _draw_trials(n, K, case, seed, ms, keys):
    """The R stack, nonzeros and Z iterator of trial keys ``keys`` at
    every m of ``ms``, drawn as ``_count_successes`` draws them."""
    streams = [StreamKey(seed, key, Purpose.MATRIX).generator() for key in keys]
    return (
        montecarlo._draw_factors(K, ms, streams),
        montecarlo._draw_nonzeros(K, case, seed, keys),
        montecarlo._draw_normals(n, K, streams),
    )


def _one_trial(m, n, K, case, seed, key):
    """(R, G, x_S) of trial key ``key`` at one m, as a task draws it, with
    ``G = Z * (1/sqrt(m))``."""
    support, values, normals = _draw_trials(n, K, case, seed, (m,), [key])
    return support[0, 0], next(normals) * (1.0 / math.sqrt(m)), values[0]


def _pursue(R, G, x_s):
    """OMP result and decision of run_omp plus the check on ``B = [R | G^T]``."""
    B = SensingMatrix(np.hstack([R, G.T]))
    x = np.concatenate([x_s, np.zeros(G.shape[0])])
    result = run_omp(B, B.entries @ x, x_s.size)
    return result, check_exact_recovery(result, SparseSignal(x, np.arange(x_s.size)))


def _decide(R, G, x_s):
    """recovers_stack's decision on one reduced trial."""
    return bool(recovers_stack(R[None, None], x_s[None], [G], [1.0])[0, 0])


class TestReducedTrial:
    def test_sampler_shapes_and_determinism(self):
        R, G, x_s = _one_trial(40, 64, 5, SignalCase.flat(), 3, 11)
        assert R.shape == (5, 5) and G.shape == (59, 5) and x_s.shape == (5,)
        assert np.all(np.tril(R, -1) == 0.0) and np.all(np.diagonal(R) > 0.0)
        again = _one_trial(40, 64, 5, SignalCase.flat(), 3, 11)
        for drawn, redrawn in zip((R, G, x_s), again):
            assert np.array_equal(drawn, redrawn)

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.label())
    def test_signal_values_follow_the_case(self, case):
        # the dense trial's nonzeros, in support order, for the same key
        _, _, x_s = _one_trial(50, 128, 6, case, 8, 2)
        _, dense = _dense_instance(50, 128, 6, case, StreamKey(8, 2))
        assert np.array_equal(x_s, dense.values[dense.support])

    def test_sampler_moments(self):
        # E[R_ii^2] = (m - i)/m, E[R_ij^2] = 1/m, E[Z_ij^2] = 1; a
        # chi-square with m - i + 1 degrees of freedom would miss by
        # 1/m = 5 SE here
        m, n, K, draws = 40, 48, 8, 2000
        Rs, _, normals = _draw_trials(
            n, K, SignalCase.flat(), 1, (m,), range(draws)
        )
        Rs = Rs[:, 0]
        Zs = np.array([Z.copy() for Z in normals])
        diag_sq = np.mean([np.diagonal(R) ** 2 for R in Rs], axis=0)
        expected = (m - np.arange(K)) / m
        se = np.sqrt(2.0 * (m - np.arange(K)) / m**2 / draws)
        assert np.all(np.abs(diag_sq - expected) < 4.0 * se)
        upper = np.array([R[np.triu_indices(K, 1)] for R in Rs])
        for block in (upper * np.sqrt(m), Zs):
            assert abs(np.mean(block**2) - 1.0) < 4.0 * np.sqrt(2.0 / block.size)
            assert abs(np.mean(block)) < 4.0 / np.sqrt(block.size)

    def test_decision_on_designed_inputs(self):
        x_s = np.array([1.0, 2.0, 3.0])
        G = np.zeros((5, 3))
        assert _decide(np.eye(3), G, x_s) and _pursue(np.eye(3), G, x_s)[1]
        G[4, 2] = 5.0  # beats the first on-support correlation, 3
        assert not _decide(np.eye(3), G, x_s) and not _pursue(np.eye(3), G, x_s)[1]

    def test_pathwise_equal_to_dense(self):
        # OMP on B = Q^T A[:, perm] must pick the dense pursuit's columns
        # up to and including its first off-support pick, and decide alike;
        # and recovers_stack over each (m, case)'s 20 reductions must
        # decide every row as run_omp on that B does.
        outcomes = []
        mixed_stacks = 0
        for m in EQ_M:
            for case in ALL_CASES:
                rows, decisions, first_off = [], [], []
                for t in range(20):
                    A, signal = _dense_instance(m, EQ_N, EQ_K, case, StreamKey(2024, t))
                    dense = run_omp(SensingMatrix(A), A @ signal.values, EQ_K)
                    decision = check_exact_recovery(dense, signal)
                    R, G, x_s, perm = _dense_reduction(A, signal)
                    reduced, reduced_decision = _pursue(R, G, x_s)
                    off = ~np.isin(dense.selected, signal.support)
                    prefix = int(np.argmax(off)) + 1 if off.any() else EQ_K
                    assert np.array_equal(
                        perm[reduced.selected][:prefix], dense.selected[:prefix]
                    ), (m, case.label(), t)
                    assert reduced_decision == decision, (m, case.label(), t)
                    outcomes.append(decision)
                    rows.append((R, G, x_s))
                    decisions.append(reduced_decision)
                    first_off.append(prefix if off.any() else None)
                Rs, Gs, xs = zip(*rows)
                stacked = recovers_stack(np.stack(Rs)[:, None], np.stack(xs), Gs, [1.0])[:, 0]
                assert stacked.tolist() == decisions, (m, case.label())
                mixed_stacks += any(decisions) and 1 in first_off
        assert len(outcomes) >= 500
        assert set(outcomes) == {True, False}
        # stacks where a row that fails at its first pick sits beside a success
        assert mixed_stacks >= 10

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.label())
    def test_stack_rows_equal_one_trial_sampler(self, case):
        # one draw over trial keys 40 and 41 at three m values equals
        # two one-key draws, bit for bit
        ms, keys = (50, 60, 70), (40, 41)

        def draw(keys):
            support, values, normals = _draw_trials(128, 6, case, 8, ms, keys)
            return support, values, np.array([Z.copy() for Z in normals])

        both = draw(keys)
        assert [a.shape for a in both] == [(2, 3, 6, 6), (2, 6), (2, 122, 6)]
        for part, *singles in zip(both, draw(keys[:1]), draw(keys[1:])):
            assert part.tobytes() == np.concatenate(singles).tobytes()

    def test_row_shares_normals_and_nonzeros_across_m(self, monkeypatch):
        # trials 3 and 4 of row 1 at four m values, bit for bit: the
        # MATRIX stream of the row's key r * trials + t yields trial t's
        # R at each m in turn and then Z_t, which the pursuit gets once
        # with the divisors sqrt(m); its R's differ across m
        stacks = []

        def record(support, values, normals, divisor):
            stacks.append((support.copy(), values.copy(), [Z.copy() for Z in normals], divisor))
            return np.zeros(support.shape[:2], dtype=bool)

        monkeypatch.setattr(montecarlo, "recovers_stack", record)
        ms, trials, row, first, count = (30, 40, 50, 60), 10, 1, 3, 2
        case = SignalCase.gaussian(1.0)
        counts = montecarlo._count_successes(
            EQ_N, EQ_K, case, 5, trials, ms, row, first, count
        )
        assert counts == (0, 0, 0, 0)
        ((support, values, blocks, divisor),) = stacks
        assert support.shape[:2] == (count, len(ms))
        assert len(values) == len(blocks) == count
        assert divisor.tobytes() == np.array([math.sqrt(m) for m in ms]).tobytes()
        diagonal = np.arange(EQ_K)
        for i, t in enumerate(range(first, first + count)):
            stream = StreamKey(5, row * trials + t, Purpose.MATRIX).generator()
            for j, m in enumerate(ms):
                R = stream.standard_normal((EQ_K, EQ_K)) * (1.0 / math.sqrt(m))
                R = np.triu(R, 1)
                R[diagonal, diagonal] = np.sqrt(stream.chisquare(m - diagonal) / m)
                assert support[i, j].tobytes() == R.tobytes()
            z = stream.standard_normal((EQ_N - EQ_K, EQ_K))
            assert blocks[i].tobytes() == z.tobytes()
            assert len({R.tobytes() for R in support[i]}) == len(ms)
        assert not np.array_equal(values[0], values[1])

    @pytest.mark.parametrize(
        "case,purposes",
        [
            (SignalCase.flat(), [Purpose.MATRIX]),
            (SignalCase.gaussian(1.0), [Purpose.MATRIX, Purpose.SIGNAL]),
        ],
        ids=["flat", "gauss1"],
    )
    def test_one_matrix_generator_per_trial_index(self, monkeypatch, case, purposes):
        # trials 3..7 of row 1 at four m values: each trial index makes
        # its MATRIX generator (and its SIGNAL one for Gaussian
        # nonzeros) once, not once per m
        made = []
        real = StreamKey.generator

        def counted(key, *extra):
            made.append((key.trial_index, key.purpose))
            return real(key, *extra)

        monkeypatch.setattr(StreamKey, "generator", counted)
        ms, trials, row, first, count = (30, 40, 50, 60), 10, 1, 3, 5
        montecarlo._count_successes(EQ_N, EQ_K, case, 5, trials, ms, row, first, count)
        assert sorted(made) == [
            (row * trials + t, p) for t in range(first, first + count) for p in purposes
        ]

    def test_stack_size_from_byte_budget(self):
        # at most 256 trials; the 2 MiB budget binds from K = 33 on
        for K in (3, 15, 30, 32):
            assert montecarlo._stack_size(K) == 256
        assert montecarlo._stack_size(33) == 240
        assert montecarlo._stack_size(64) == 64
        assert montecarlo._stack_size(1000) == 1
        for K in (33, 64, 100):
            assert 8 * K * K * montecarlo._stack_size(K) <= 2 * 1024 * 1024

    def test_task_memory_peak(self):
        # one task of a row at K = 30, n = 1024, at each benchmark
        # workload's m values: 28 trial indices at 9 m (252 stack rows,
        # each of its stacks 1.73 MiB) peak near 6.0 MiB, and 16 at 4 m
        # (64 rows) near 1.5 MiB.  Holding the whole fit factor beside
        # the support stack, the basis and the residuals, and one Z
        # block beside the next, took 7.6 and 1.9 MiB.
        # a first call's lazy imports are not part of a task's peak
        montecarlo._count_successes(64, 3, SignalCase.flat(), 3, 1, (10,), 0, 0, 1)
        for ms, count, bound_mib in (
            (tuple(range(100, 301, 25)), 28, 6.5),
            ((700, 800, 900, 1000), 16, 1.75),
        ):
            tracemalloc.start()
            try:
                montecarlo._count_successes(
                    1024, 30, SignalCase.flat(), 3, count, ms, 0, 0, count
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2**20, (count, peak / 2**20)

    def test_task_across_a_point_boundary(self):
        # trials 2..7 of row 1, 10 trials per point, at m = 24, 48 and 72
        # (0, 1 and 5 successes): every trial is decided as run_omp on its
        # [R_m | G_m^T] decides it, drawn from the row's key of the trial,
        # with G_m = Z * (1/sqrt(m))
        ms, trials, row, first, count = (24, 48, 72), 10, 1, 2, 6
        case = SignalCase.flat()
        counts = montecarlo._count_successes(
            EQ_N, EQ_K, case, 6, trials, ms, row, first, count
        )
        want = [0, 0, 0]
        for t in range(first, first + count):
            support, values, normals = _draw_trials(
                EQ_N, EQ_K, case, 6, ms, [row * trials + t]
            )
            Z = next(normals)
            for j, m in enumerate(ms):
                want[j] += _pursue(support[0, j], Z * (1.0 / math.sqrt(m)), values[0])[1]
        assert counts == tuple(want) == (0, 1, 5)

    @pytest.mark.slow
    def test_distribution_equal_to_dense(self):
        # Sampled trials against dense trials, independent seeds, 500 each
        # per grid point: a two-sided Fisher exact test per point,
        # Bonferroni-corrected to a family-wise alpha of 1e-3.  Each case
        # is one row over all of EQ_M, as run_experiment counts it, so
        # its points share their off-support normals and nonzeros; the
        # Bonferroni bound is a union bound and needs no independence
        # between the points.
        trials = 500
        alpha = 1e-3 / (len(EQ_M) * len(ALL_CASES))
        rates = []
        for row, case in enumerate(ALL_CASES):
            reduced_row = montecarlo._count_successes(
                EQ_N, EQ_K, case, 31, trials, EQ_M, row, 0, trials
            )
            for m, reduced in zip(EQ_M, reduced_row):
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

    def test_level_is_95_percent(self):
        assert montecarlo._Z95 == statistics.NormalDist().inv_cdf(0.975)


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
        # both Gaussian cases share the gauss budget; no bound uses the
        # case, and all of a run's bounds go to one batched search
        calls = []
        real = bounds_mod.maximize_bounds

        def recorded(disparity, baseline):
            calls.append((list(disparity), list(baseline)))
            return real(disparity, baseline)

        monkeypatch.setattr(bounds_mod, "maximize_bounds", recorded)
        cases = (SignalCase.flat(), SignalCase.gaussian(1.0), SignalCase.gaussian(2.0))
        config = _small_config(trials=1, cases=cases)
        run_experiment(config)
        assert len(calls) == 1
        disparity, baseline = calls[0]
        cs, gauss = phi_for_case(cases[0]), phi_for_case(cases[1])
        assert sorted(disparity, key=repr) == sorted(
            [(m, 64, 3, phi) for m in (24, 40) for phi in (cs, gauss)], key=repr
        )
        assert sorted(baseline) == [(24, 64, 3), (40, 64, 3)]

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

    def test_bounds_maximized_before_any_fork(self, monkeypatch):
        # with as many workers as CPUs, a search beside the workers would
        # only share one worker's CPU; the parent records when the search
        # returns and when each child is forked
        events = []
        real_fork, real_maximize = os.fork, bounds_mod.maximize_bounds

        def fork():
            pid = real_fork()
            if pid:
                events.append("fork")
            return pid

        def maximize(disparity, baseline):
            found = real_maximize(disparity, baseline)
            events.append("bounds")
            return found

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(bounds_mod, "maximize_bounds", maximize)
        run_experiment(_small_config(), workers=2)
        assert events == ["bounds", "fork", "fork"]

    def test_failing_bound_search_forks_nothing(self, monkeypatch, forks):
        def fails(disparity, baseline):
            raise RuntimeError("bound search failed")

        monkeypatch.setattr(bounds_mod, "maximize_bounds", fails)
        with pytest.raises(RuntimeError, match="bound search failed"):
            run_experiment(_small_config(), workers=2)
        assert forks == []
        _assert_no_child_left()

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            run_experiment(_small_config(trials=1), workers=0)

    @pytest.mark.parametrize(
        "trials,workers,pool_sizes",
        [(1, 4, []), (1, 3, []), (40, 3, [3]), (40, 8, [4])],
    )
    def test_pool_no_larger_than_task_list(self, forks, trials, workers, pool_sizes):
        # one point, whose K=160 stacks hold 10 trials: 1 task at
        # trials=1 and 4 tasks at trials=40
        config = _small_config(
            n=256, m_values=(170,), k_values=(160,), cases=(SignalCase.flat(),),
            trials=trials,
        )
        run_experiment(config, workers=workers)
        assert forks == pool_sizes

    def test_tasks_and_tallies_independent_of_workers(self, monkeypatch, tmp_path):
        # K=3 stacks hold 256 trials and K=60 stacks 72, so a row of
        # two 40-trial points is one task of 40 trial indices at K=3 and
        # tasks of 36 and 4 at K=60, each taken at both m values.  The
        # workers append each task they run to a file.
        real = montecarlo._count_successes
        runs = {}
        for workers in (1, 2, 3):
            log = tmp_path / f"tasks{workers}"

            def recorded(*task, _log=log):
                with open(_log, "a", encoding="utf-8") as handle:
                    handle.write(repr(task[5:]) + "\n")
                return real(*task)

            monkeypatch.setattr(montecarlo, "_count_successes", recorded)
            config = _small_config(n=128, m_values=(70, 90), k_values=(3, 60), trials=40)
            tallies = [
                p.successes for p in run_experiment(config, workers=workers).points
            ]
            runs[workers] = (log.read_text(encoding="utf-8").splitlines(), tallies)
        tasks = [
            ((70, 90), 0, 0, 40),
            ((70, 90), 1, 0, 36),
            ((70, 90), 1, 36, 4),
            ((70, 90), 2, 0, 40),
            ((70, 90), 3, 0, 36),
            ((70, 90), 3, 36, 4),
        ]
        assert runs[1][0] == [repr(t) for t in tasks]
        for workers in (2, 3):
            assert sorted(runs[workers][0]) == sorted(runs[1][0])
            assert runs[workers][1] == runs[1][1]

    def test_forked_workers_run_one_blas_thread(self, monkeypatch, tmp_path, forks):
        """The parent's BLAS runs two threads, warmed by a product; each
        worker of a 2-worker run records its BLAS thread count on its
        first task.  On a 1-CPU host OpenBLAS runs one thread anyway, and
        the test passes trivially."""
        get, set_threads = _blas_thread_functions()
        if get is None:
            pytest.skip("no OpenBLAS loaded")
        real = montecarlo._count_successes

        def recorded(*task):
            (tmp_path / str(os.getpid())).write_text(str(get()), encoding="utf-8")
            return real(*task)

        monkeypatch.setattr(montecarlo, "_count_successes", recorded)
        before = get()
        set_threads(2)
        try:
            np.ones((256, 256)) @ np.ones((256, 256))
            parent = get()
            run_experiment(_small_config(trials=2), workers=2)
        finally:
            set_threads(before)
        assert forks == [2]
        assert parent == min(2, os.cpu_count() or 1)
        assert [p.read_text(encoding="utf-8") for p in tmp_path.iterdir()] == ["1", "1"]

    @staticmethod
    def _record_affinity(monkeypatch, tmp_path, fail):
        """Replace ``os.sched_setaffinity`` with a recorder that appends
        each mask it is asked for to ``tmp_path/<pid>``, then sets it or,
        with ``fail``, raises ``OSError``.  Forked children inherit it."""
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity calls on this platform")
        real = os.sched_setaffinity

        def record(pid, mask):
            with open(tmp_path / str(os.getpid()), "a", encoding="utf-8") as log:
                log.write(",".join(str(c) for c in sorted(mask)) + "\n")
            if fail:
                raise OSError("affinity refused")
            real(pid, mask)

        monkeypatch.setattr(os, "sched_setaffinity", record)

    def test_forked_workers_placed_on_distinct_cpus(self, monkeypatch, tmp_path, forks):
        """Each worker of a 2-worker run first asks for one CPU, a
        different one for each while the mask has two or more, then for
        the whole mask.  Where the kernel runs them is not asserted: a
        balancing scheduler may move them."""
        self._record_affinity(monkeypatch, tmp_path, fail=False)
        mask = ",".join(str(c) for c in sorted(os.sched_getaffinity(0)))
        run_experiment(_small_config(trials=2), workers=2)
        assert forks == [2]
        calls = [p.read_text(encoding="utf-8").split() for p in tmp_path.iterdir()]
        assert len(calls) == 2
        assert all(len(c) == 2 and c[1] == mask and "," not in c[0] for c in calls)
        if "," in mask:
            assert calls[0][0] != calls[1][0]
        assert sorted(os.sched_getaffinity(0)) == [int(c) for c in mask.split(",")]

    def test_workers_run_where_placement_fails(self, monkeypatch, tmp_path, forks):
        self._record_affinity(monkeypatch, tmp_path, fail=True)
        config = _small_config(trials=6)
        assert run_experiment(config, workers=2) == run_experiment(config, workers=1)
        assert forks == [2]
        assert len(list(tmp_path.iterdir())) == 2

    def test_dealing_balances_the_transition_grid(self):
        # the benchmark's 72-point transition grid at 8 trials: one task
        # per (case, K) row, of cost 8 * 15^2 or 8 * 30^2.  Dealt in task
        # order by stride, every K=30 row would go to one worker.
        config = _small_config(
            n=1024, m_values=tuple(range(100, 301, 25)), k_values=(15, 30),
            cases=ALL_CASES, trials=8,
        )
        tasks = montecarlo._tasks(config)
        cost = [t[-1] * t[1] ** 2 for t in tasks]
        owners = montecarlo._deal(tasks, 2)
        loads = [sum(c for c, o in zip(cost, owners) if o == i) for i in (0, 1)]
        assert abs(loads[0] - loads[1]) <= max(cost)
        assert sorted(owners[1::2]) == [0, 0, 1, 1]

    def test_dealing_keeps_task_order_within_a_worker(self):
        tasks = [(0, K, None, 0, 0, (), 0, 0, c) for K, c in ((3, 1), (9, 1), (3, 2), (9, 1))]
        assert montecarlo._deal(tasks, 1) == [0, 0, 0, 0]
        # costs 9, 81, 18, 81: the 81s first, then 18 and 9 to the lighter
        assert montecarlo._deal(tasks, 2) == [1, 0, 0, 1]
        assert montecarlo._deal(tasks, 5) == [3, 0, 2, 1]


# Run in a fresh interpreter, since this one may already hold
# ``numpy.random`` or ``hashlib``: after ``setup``, a 2-worker run of
# ``_small_config()`` whose workers write, after each task, whether
# ``_hashlib`` is loaded to a file named by their pid in ``argv[1]``;
# then whether the parent loaded it, and the tallies of that run and of
# a one-worker run.
_WORKER_IMPORTS = """
import json, os, sys
from omp_lab import montecarlo
from omp_lab.montecarlo import ExperimentConfig, run_experiment
from omp_lab.signals import SignalCase

{setup}
real = montecarlo._count_successes

def recorded(*task):
    counts = real(*task)
    with open(os.path.join(sys.argv[1], str(os.getpid())), "w") as log:
        log.write(json.dumps("_hashlib" in sys.modules))
    return counts

montecarlo._count_successes = recorded
config = ExperimentConfig(
    n=64, m_values=(24, 40), k_values=(3,),
    cases=(SignalCase.flat(), SignalCase.gaussian(1.0)), trials=12, master_seed=99,
)
forked = [p.successes for p in run_experiment(config, workers=2).points]
parent = "_hashlib" in sys.modules
montecarlo._count_successes = real
serial = [p.successes for p in run_experiment(config, workers=1).points]
print(json.dumps([parent, forked, serial]))
"""


class TestWorkerImports:
    @staticmethod
    def _run(tmp_path, setup=""):
        """The parent's and each worker's ``_hashlib`` flag, and the
        forked and one-worker tallies; stderr must stay empty."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(montecarlo.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", _WORKER_IMPORTS.format(setup=setup), str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert done.stderr == ""
        parent, forked, serial = json.loads(done.stdout)
        workers = [json.loads(p.read_text(encoding="utf-8")) for p in tmp_path.iterdir()]
        assert len(workers) == 2
        return parent, workers, forked, serial

    def test_workers_load_no_openssl(self, tmp_path):
        parent, workers, forked, serial = self._run(tmp_path)
        assert parent is False
        assert workers == [False, False]
        assert forked == serial

    @pytest.mark.parametrize(
        "setup",
        [
            # the parent already holds numpy.random, and with it _hashlib
            "import numpy.random",
            # a built-in hash module is missing
            "montecarlo._BUILTIN_HASHES += ('_no_such_hash_module',)",
        ],
    )
    def test_workers_import_plainly_otherwise(self, tmp_path, setup):
        if importlib.util.find_spec("_hashlib") is None:
            pytest.skip("this interpreter has no OpenSSL hashes")
        _, workers, forked, serial = self._run(tmp_path, setup)
        assert workers == [True, True]
        assert forked == serial


def _blas_thread_functions():
    """The thread-count getter and setter of this process's OpenBLAS,
    or two Nones."""
    import ctypes

    with open("/proc/self/maps", errors="replace") as maps:
        paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in montecarlo._BLAS_SETTERS:
            if hasattr(lib, name):
                return getattr(lib, name.replace("_set_", "_get_")), getattr(lib, name)
    return None, None


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in this process if the block is still
    running after ``seconds``: a run that hangs fails instead."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def degenerate_pursuit(monkeypatch, row=0):
    """Make every stack's pursuit fail on a dependent first column in
    ``row``."""

    def degenerate(*args):
        raise DegenerateColumnError(1, 0, row)

    monkeypatch.setattr(montecarlo, "recovers_stack", degenerate)


class TestTrialError:
    def test_wraps_solver_failure_with_location(self, monkeypatch):
        # trials 5..7 of row 1, one m: stack row 0 is trial 5 of its
        # point, whose row key is 1 * 10 + 5
        degenerate_pursuit(monkeypatch)
        with pytest.raises(TrialError) as info:
            montecarlo._count_successes(20, 2, SignalCase.flat(), 0, 10, (10,), 1, 5, 3)
        err = info.value
        assert (err.m, err.K, err.trial_index) == (10, 2, 5)
        assert err.case == SignalCase.flat()
        assert "trial 5" in str(err)

    def test_names_the_failing_row_of_the_stack(self, monkeypatch):
        # stack row 2 of trials 5..7 at one m is trial 7
        degenerate_pursuit(monkeypatch, row=2)
        with pytest.raises(TrialError) as info:
            montecarlo._count_successes(20, 2, SignalCase.flat(), 0, 10, (10,), 0, 5, 3)
        assert info.value.trial_index == 7
        assert info.value.cause.row == 2

    def test_names_the_point_of_a_row_across_a_boundary(self, monkeypatch):
        # trials 1..3 of row 1 at m = 10, 12, 14 with 5 trials per point:
        # stack row 4 is trial 2 of the point at m=12
        degenerate_pursuit(monkeypatch, row=4)
        with pytest.raises(TrialError) as info:
            montecarlo._count_successes(
                20, 2, SignalCase.flat(), 0, 5, (10, 12, 14), 1, 1, 3
            )
        assert (info.value.m, info.value.trial_index) == (12, 2)
        assert "trial 2 failed at m=12, K=2" in str(info.value)

    def test_crosses_the_process_pool(self, monkeypatch):
        # workers inherit the patched module; the parent must get the
        # TrialError of the first stack, with its location intact, and
        # leave no child behind
        degenerate_pursuit(monkeypatch)
        with pytest.raises(TrialError) as info:
            run_experiment(_small_config(), workers=2)
        err = info.value
        assert (err.m, err.K, err.case, err.trial_index) == (24, 3, SignalCase.flat(), 0)
        assert isinstance(err.cause, DegenerateColumnError)
        assert (err.cause.iteration, err.cause.index) == (1, 0)
        _assert_no_child_left()


class TestWorkerFailure:
    def test_worker_that_dies_is_named_and_reaped(self, monkeypatch):
        # the worker of the second row's task ends without a reply; the
        # parent must raise at once rather than wait for it, and reap
        # every child
        real = montecarlo._count_successes

        def dies(*task):
            if task[6] == 1:
                os._exit(3)
            return real(*task)

        monkeypatch.setattr(montecarlo, "_count_successes", dies)
        config = _small_config(cases=ALL_CASES)
        owner = montecarlo._deal(montecarlo._tasks(config), 2)[1]
        with _deadline(30), pytest.raises(RuntimeError, match=f"worker {owner} .*task 1"):
            run_experiment(config, workers=2)
        _assert_no_child_left()

    def test_error_in_progress_kills_the_workers(self, monkeypatch):
        # the parent's own failure, here in the progress call of the
        # first row, ends the run while the worker of the second row is
        # still busy; that worker is killed and reaped
        real = montecarlo._count_successes

        def slow(*task):
            if task[6] == 1:
                time.sleep(60.0)
            return real(*task)

        def stop(done, total, point):
            raise KeyboardInterrupt

        monkeypatch.setattr(montecarlo, "_count_successes", slow)
        with _deadline(30), pytest.raises(KeyboardInterrupt):
            run_experiment(_small_config(), workers=2, progress=stop)
        _assert_no_child_left()
