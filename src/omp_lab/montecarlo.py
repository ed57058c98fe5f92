"""Monte Carlo engine for exact-recovery experiments.

An experiment sweeps a grid of (case, K, m) points, tallies exact
recoveries per point, and attaches the two probability bounds for
comparison.  A trial asks: do K iterations of OMP on ``y = A x``, with
``A`` m-by-n i.i.d. N(0, 1/m) and ``x`` K-sparse on ``S``, reproduce
``x``?  :func:`run_experiment` answers it exactly in K dimensions.

The reduction
-------------
Take the thin QR factorization ``A_S = Q R`` with a positive diagonal
and project everything onto span(A_S): ``B = Q^T A`` is K-by-n, with
``R`` on the support columns and ``G^T`` elsewhere, ``G = A_{S^c}^T Q``,
and ``Q^T y = R x_S``.  While every pick so far is on ``S``, the
residual lies in span(A_S), so

- the residual is ``r = Q u`` for the residual ``u`` of OMP on ``B``;
- the correlations are ``A^T r = B^T u``, column for column;
- least squares on picked columns ``T`` of ``A`` leaves ``Q`` times the
  residual of least squares on columns ``T`` of ``B``.

So OMP on ``(B, Q^T y)`` picks the same columns as OMP on ``(A, y)``
through the first off-support pick, and one off-support pick already
means failure for both: K picks with one off ``S`` leave a nonzero of
``x`` without a column.  Each trial is therefore decided by
:func:`~omp_lab.omp.run_omp` on ``B`` and
:func:`~omp_lab.omp.check_exact_recovery`, the same solver and check
as the dense trial.  The columns of ``A`` are exchangeable, so the
support is laid on columns ``0..K-1`` of ``B``.

Why sampling ``(R, G)`` directly is exact:

- ``A_S`` has i.i.d. N(0, 1/m) entries, so ``R`` has the Bartlett law
  (Muirhead 1982, Thm 3.2.14): independent entries,
  ``R_ii = sqrt(chi2_{m-i} / m)`` for ``i = 0..K-1`` and
  ``R_ij ~ N(0, 1/m)`` for ``i < j``.
- ``Q`` is a function of ``A_S``, which is independent of the
  off-support columns ``a_j ~ N(0, I/m)``.  For any fixed orthonormal
  ``Q``, ``Q^T a_j ~ N(0, I_K/m)``, so ``G`` has i.i.d. N(0, 1/m)
  entries and is independent of ``R`` (Tropp & Gilbert, IEEE T-IT 2007).

A trial thus draws ``K^2 + (n - K) K`` normals and ``K`` chi-squares
instead of ``m n`` normals, and runs in ``O(n K^2)`` instead of
``O(m n K)``, whatever ``m``.  Only exact ties between correlations, an
event of probability zero, can be broken differently than in the dense
pursuit.  The dense :func:`run_trial` stays as the reference that the
tests compare with, pathwise (OMP on ``B`` built from a dense ``A``
decides as ``run_trial`` does on that ``A``) and in distribution
(tallies agree).

Determinism is structural: trial ``t`` of grid point ``g`` always uses
``StreamKey(master_seed, g * trials + t)``, so the tally is a pure
function of the config no matter how trials are scheduled.  Success
counts are summed, which is associative and commutative, so splitting
trials across processes cannot change any result.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from . import bounds
from .omp import DegenerateColumnError, check_exact_recovery, run_omp
from .phi import PhiFunction
from .signals import (
    Purpose,
    SensingMatrix,
    SignalCase,
    SparseSignal,
    StreamKey,
    generate_signal,
    sample_sensing_matrix,
    sample_support,
)

__all__ = [
    "ExperimentConfig",
    "PointResult",
    "ExperimentResult",
    "TrialError",
    "SAMPLER",
    "phi_for_case",
    "run_trial",
    "sample_reduced_trial",
    "run_experiment",
    "wilson_interval",
]

# Name of the trial sampler run_experiment uses, recorded in results.json.
SAMPLER = "reduced-bartlett"

# Two-sided 95% normal quantile, statistics.NormalDist().inv_cdf(0.975);
# the level of every Wilson interval.
_Z95 = 1.9599639845400536

# Largest m accepted by run_trial; keeps a typo'd config from trying to
# allocate a multi-gigabyte matrix.
_MAX_M = 100_000


class TrialError(RuntimeError):
    """Solver failure inside one trial, tagged with where it happened."""

    def __init__(
        self, m: int, K: int, case: SignalCase, trial_index: int, cause: Exception
    ) -> None:
        super().__init__(
            f"trial {trial_index} failed at m={m}, K={K}, case={case.label()}: {cause}"
        )
        self.m = m
        self.K = K
        self.case = case
        self.trial_index = trial_index
        self.cause = cause

    def __reduce__(self):
        # Rebuild from the fields: ``args`` holds only the message, and
        # the error must survive the trip back from a pool worker.
        return type(self), (self.m, self.K, self.case, self.trial_index, self.cause)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment sweep.

    The grid is the cartesian product ``cases x k_values x m_values``,
    iterated in that nesting order.  ``master_seed`` pins every random
    draw; two runs of the same config give the same counts.
    """

    n: int
    m_values: Tuple[int, ...]
    k_values: Tuple[int, ...]
    cases: Tuple[SignalCase, ...]
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "cases", tuple(self.cases))
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not self.m_values:
            raise ValueError("m_values must be nonempty")
        if any(b <= a for a, b in zip(self.m_values, self.m_values[1:])):
            raise ValueError("m_values must be strictly increasing")
        if not self.k_values:
            raise ValueError("k_values must be nonempty")
        for K in self.k_values:
            if not 1 <= K < min(self.m_values):
                raise ValueError(
                    f"every K must satisfy 1 <= K < min(m), got K={K} "
                    f"with min(m)={min(self.m_values)}"
                )
            if K >= self.n:
                raise ValueError(f"every K must be < n, got K={K}, n={self.n}")
        if not self.cases:
            raise ValueError("cases must be nonempty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")

    def grid_points(self) -> Iterator[Tuple[SignalCase, int, int]]:
        """Yield (case, K, m) in deterministic sweep order."""
        for case in self.cases:
            for K in self.k_values:
                for m in self.m_values:
                    yield case, K, m


def phi_for_case(case: SignalCase) -> PhiFunction:
    """Disparity function matched to a signal case.

    Flat magnitudes admit no better budget than Cauchy-Schwarz;
    geometric decay gets the tight geometric budget with the same ratio;
    Gaussian magnitudes get the piecewise empirical budget.
    """
    if case.kind == "flat":
        return PhiFunction.cauchy_schwarz()
    if case.kind == "decaying":
        assert case.alpha is not None
        return PhiFunction.strongly_decaying(case.alpha)
    return PhiFunction.gaussian_empirical()


def run_trial(
    m: int,
    n: int,
    K: int,
    case: SignalCase,
    key: StreamKey,
    matrix: Optional[SensingMatrix] = None,
) -> bool:
    """One dense recovery trial; True iff the pursuit reproduces the signal.

    The reference for the reduced trial that :func:`run_experiment`
    runs.  The matrix, support and nonzero values come from substreams
    of ``key``, so the outcome is a pure function of the arguments.
    ``matrix`` overrides the sampled one (a hook for tests that need a
    designed operator, e.g. the identity).

    Raises
    ------
    ValueError
        If ``K >= m`` or ``m`` exceeds the size cap.
    """
    if not 1 <= K < m:
        raise ValueError(f"need 1 <= K < m, got K={K}, m={m}")
    if m > _MAX_M:
        raise ValueError(f"m={m} exceeds the cap of {_MAX_M}")
    if matrix is None:
        matrix = sample_sensing_matrix(m, n, key.with_purpose(Purpose.MATRIX))
    elif matrix.entries.shape != (m, n):
        raise ValueError("matrix hook has the wrong shape")
    support = sample_support(n, K, key.with_purpose(Purpose.SUPPORT))
    signal = generate_signal(n, support, case, key.with_purpose(Purpose.SIGNAL))
    y = matrix.entries @ signal.values
    result = run_omp(matrix, y, K)
    return check_exact_recovery(result, signal)


def sample_reduced_trial(
    m: int, n: int, K: int, case: SignalCase, key: StreamKey
) -> Tuple[SensingMatrix, SparseSignal]:
    """Draw the K-by-n matrix ``B = [R | G^T]`` and the signal of one trial.

    See the module docstring.  From the ``Purpose.MATRIX`` stream of
    ``key``, in this order: the strictly upper part of the K-by-K
    Bartlett factor ``R`` (N(0, 1/m)), its diagonal
    ``sqrt(chi2_{m-i} / m)`` for ``i = 0..K-1``, and the (n-K)-by-K
    off-support block ``G`` (N(0, 1/m)).  The length-n signal sits on
    support ``0..K-1`` and follows the case's rule; Gaussian values come
    from the ``Purpose.SIGNAL`` stream, so they equal the dense trial's
    nonzeros for the same key.

    Raises
    ------
    ValueError
        If ``K`` is not in ``[1, min(m, n))``.
    """
    if not 1 <= K < min(m, n):
        raise ValueError(f"need 1 <= K < min(m, n), got K={K}, m={m}, n={n}")
    stream = key.with_purpose(Purpose.MATRIX).generator()
    scale = 1.0 / math.sqrt(m)
    B = np.empty((K, n))
    B[:, :K] = np.triu(stream.standard_normal((K, K)), 1) * scale
    B[np.diag_indices(K)] = np.sqrt(stream.chisquare(m - np.arange(K)) / m)
    B[:, K:] = (stream.standard_normal((n - K, K)) * scale).T
    signal = generate_signal(n, np.arange(K), case, key.with_purpose(Purpose.SIGNAL))
    return SensingMatrix(B), signal


def _count_successes(
    m: int,
    n: int,
    K: int,
    case: SignalCase,
    master_seed: int,
    first_trial: int,
    count: int,
) -> int:
    """Run ``count`` consecutive keyed reduced trials; return the tally.

    Top-level so process pools can pickle it.
    """
    hits = 0
    for t in range(first_trial, first_trial + count):
        matrix, signal = sample_reduced_trial(
            m, n, K, case, StreamKey(master_seed, trial_index=t)
        )
        try:
            result = run_omp(matrix, matrix.entries @ signal.values, K)
        except DegenerateColumnError as err:
            raise TrialError(m, K, case, t, err) from err
        hits += check_exact_recovery(result, signal)
    return hits


@dataclass(frozen=True)
class PointResult:
    """Tally and attached bounds for one (m, K, case) grid point."""

    m: int
    n: int
    K: int
    case: SignalCase
    trials: int
    successes: int
    disparity_bound_value: float
    baseline_bound_value: float

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in [0, trials]")

    @property
    def probability(self) -> float:
        return self.successes / self.trials

    def confidence_interval(self) -> Tuple[float, float]:
        return wilson_interval(self.successes, self.trials)


@dataclass(frozen=True)
class ExperimentResult:
    """All grid-point tallies plus the config that produced them."""

    config: ExperimentConfig
    points: Tuple[PointResult, ...]


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and keeps sensible width at proportions of 0 or
    1, where the normal-approximation interval collapses.  At those
    proportions the closed end is exactly 0 or 1, which rounding in the
    formula would otherwise miss by an ulp.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = _Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _chunk_ranges(total: int, chunks: int) -> Iterator[Tuple[int, int]]:
    """Split ``range(total)`` into ``chunks`` contiguous (start, count) runs."""
    chunks = max(1, min(chunks, total))
    base, extra = divmod(total, chunks)
    start = 0
    for i in range(chunks):
        count = base + (1 if i < extra else 0)
        yield start, count
        start += count


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    progress: Optional[Callable[[int, int, PointResult], None]] = None,
) -> ExperimentResult:
    """Sweep the config's grid and tally recoveries at every point.

    The whole grid is one task queue: each point's trials are split into
    ``workers`` contiguous chunks, and the chunks of all points are
    mapped in grid order, in this process when ``workers == 1`` and over
    a process pool otherwise.  Tallies are reduced in the same order, so
    the parent attaches each point's bounds and calls ``progress`` with
    ``(points_done, points_total, result)`` as soon as that point's
    chunks are in, while the pool works on later points.  Per-trial
    keyed streams make the result identical for every worker count.  A
    failing trial raises its ``TrialError`` here and cancels the tasks
    not yet started.  Each bound is evaluated once per distinct
    argument set: ``baseline_bound`` per (m, K), ``disparity_bound`` per
    (m, K, phi).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    grid = list(config.grid_points())
    chunks = list(_chunk_ranges(config.trials, workers))
    tasks = [
        (m, config.n, K, case, config.master_seed,
         g * config.trials + start, count)
        for g, (case, K, m) in enumerate(grid)
        for start, count in chunks
    ]
    baseline = functools.cache(
        lambda m, K: bounds.baseline_bound(m, config.n, K).value
    )
    disparity = functools.cache(
        lambda m, K, phi: bounds.disparity_bound(m, config.n, K, phi).value
    )
    points = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        tallies = (map if pool is None else pool.map)(_count_successes, *zip(*tasks))
        for case, K, m in grid:
            point = PointResult(
                m=m,
                n=config.n,
                K=K,
                case=case,
                trials=config.trials,
                successes=sum(next(tallies) for _ in chunks),
                disparity_bound_value=disparity(m, K, phi_for_case(case)),
                baseline_bound_value=baseline(m, K),
            )
            points.append(point)
            if progress is not None:
                progress(len(points), len(grid), point)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return ExperimentResult(config=config, points=tuple(points))
