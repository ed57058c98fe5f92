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
``x`` without a column.  The columns of ``A`` are exchangeable, so the
support is laid on columns ``0..K-1`` of ``B``.

A trial is then decided without building ``B``.  OMP on ``R`` alone is
the all-on-support path; iteration ``k`` has residual ``u_k`` and
winning correlation ``c_k``.  OMP on ``B`` leaves that path at
iteration ``k`` only if some row ``g_j`` of ``G`` has
``|<g_j, u_k>| > c_k`` (an exact tie goes to the support column, whose
index is smaller).  So the trial succeeds iff ``|G U| <= c`` entrywise,
with ``U = [u_0 .. u_{K-1}]``, and the K-column fit on ``R`` is exact.
:func:`~omp_lab.omp.recovers_stack` decides a whole task's trials this
way, by the rules of :func:`~omp_lab.omp.run_omp` and
:func:`~omp_lab.omp.check_exact_recovery`, the solver and check of the
dense trial.

Why sampling ``(R, G)`` directly is exact:

- ``A_S`` has i.i.d. N(0, 1/m) entries, so ``R`` has the Bartlett law
  (Muirhead 1982, Thm 3.2.14): independent entries,
  ``R_ii = sqrt(chi2_{m-i} / m)`` for ``i = 0..K-1`` and
  ``R_ij ~ N(0, 1/m)`` for ``i < j``.
- ``Q`` is a function of ``A_S``, which is independent of the
  off-support columns ``a_j ~ N(0, I/m)``.  For any fixed orthonormal
  ``Q``, ``Q^T a_j ~ N(0, I_K/m)``, so ``G`` has i.i.d. N(0, 1/m)
  entries and is independent of ``R`` (Tropp & Gilbert, IEEE T-IT 2007):
  ``G = Z / sqrt(m)`` with ``Z`` standard normal.

A trial thus draws ``K^2 + (n - K) K`` normals and ``K`` chi-squares
instead of ``m n`` normals, and runs in ``O(n K^2)`` instead of
``O(m n K)``, whatever ``m``.  Only exact ties between correlations, an
event of probability zero, can be broken differently than in the dense
pursuit.  The dense :func:`run_trial` stays as the reference that the
tests compare with, pathwise and in distribution.

Common random numbers
---------------------
The points of one (case, K) row of the grid differ only in m, and only
``R`` and the scale of ``G`` depend on m.  So trial ``t`` of a row draws
``Z_t`` and the nonzeros ``x_t`` once and uses them at every m of the
row; only ``R`` is drawn per point.  ``G`` itself is never formed: the
check ``|G U| <= c`` is made as ``|Z_t U| <= c sqrt(m)``.  Each point's
trials keep exactly the law above and stay independent of one another.
Points of one row are positively correlated, which leaves each point's
Wilson interval as it was but makes differences along a row less noisy.

Determinism
-----------
Trial ``t`` of the grid's ``r``-th (case, K) row draws from the streams
of ``StreamKey(master_seed, r * trials + t)``: ``x_t`` from its
``SIGNAL`` stream, and from its one ``MATRIX`` stream ``R`` at each of
the row's m values in increasing order, then ``Z_t``.  Consecutive
draws from one stream are independent, as the law above needs.  A task
is the trial indices ``[t0, t0 + c)`` of one row at all of its m
values, with ``c = max(1, S // len(m_values))`` and ``S = max(1,
min(256, 2 MiB // (8 K K)))``; :func:`~omp_lab.omp.recovers_stack`
keeps its rows apart, so a trial's outcome is a pure function of the
config and its key.  The task list depends on the config alone and
counts are summed, so spreading the tasks across processes cannot
change any result.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds
from .omp import DegenerateColumnError, check_exact_recovery, recovers_stack, run_omp
from .phi import PhiFunction
from .signals import (
    Purpose,
    SignalCase,
    StreamKey,
    generate_signal,
    sample_sensing_matrix,
    sample_support,
    signal_nonzeros,
)

__all__ = [
    "ExperimentConfig",
    "PointResult",
    "ExperimentResult",
    "TrialError",
    "SAMPLER",
    "phi_for_case",
    "run_trial",
    "run_experiment",
    "wilson_interval",
]

# Name of the trial sampler run_experiment uses, recorded in results.json.
SAMPLER = "reduced-bartlett"

# Two-sided 95% normal quantile, statistics.NormalDist().inv_cdf(0.975);
# the level of every Wilson interval.
_Z95 = 1.9599639845400536

# Byte budget of one task's stack of K-by-K support blocks.  It sets a
# trial count, not the task's memory: the support path holds the stack,
# its basis and its residuals, each as large, and an eighth of its fit
# factor at once.  Each trial index keeps its generator, not its
# normals: its Z is drawn only when the pursuit reads it, into one
# buffer (a 252-row task at K = 30 peaks near 6 MiB).
_STACK_BYTES = 2 * 1024 * 1024

# Most trials per task.  Larger tasks decide a trial no faster, and
# would leave a grid of few (case, K) rows fewer tasks than workers.
_MAX_STACK = 256


class TrialError(RuntimeError):
    """Solver failure inside one trial, tagged with where it happened:
    the point (m, K, case) and the trial's number within the point."""

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
        # the error must survive the pickled trip back from a worker.
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


def run_trial(m: int, n: int, K: int, case: SignalCase, key: StreamKey) -> bool:
    """One dense recovery trial; True iff the pursuit reproduces the signal.

    The reference for the reduced trial that :func:`run_experiment`
    runs.  The matrix, support and nonzero values come from substreams
    of ``key``, so the outcome is a pure function of the arguments.

    Raises
    ------
    ValueError
        If ``K`` is not in ``[1, m)``.
    """
    if not 1 <= K < m:
        raise ValueError(f"need 1 <= K < m, got K={K}, m={m}")
    matrix = sample_sensing_matrix(m, n, key.with_purpose(Purpose.MATRIX))
    support = sample_support(n, K, key.with_purpose(Purpose.SUPPORT))
    signal = generate_signal(n, support, case, key.with_purpose(Purpose.SIGNAL))
    y = matrix.entries @ signal.values
    result = run_omp(matrix, y, K)
    return check_exact_recovery(result, signal)


def _stack_size(K: int) -> int:
    """Trials (stack rows) per task: as many K-by-K float64 blocks as fit
    the budget, up to ``_MAX_STACK``."""
    return max(1, min(_MAX_STACK, _STACK_BYTES // (8 * K * K)))


def _draw_nonzeros(
    K: int, case: SignalCase, master_seed: int, keys: Sequence[int]
) -> np.ndarray:
    """The T-by-K nonzeros ``x_S`` of trial keys ``keys``: the case's
    :func:`~omp_lab.signals.signal_nonzeros` from each key's
    ``Purpose.SIGNAL`` stream, so equal to the dense trial's."""
    values = np.empty((len(keys), K))
    for t, key in enumerate(keys):
        values[t] = signal_nonzeros(K, case, StreamKey(master_seed, key, Purpose.SIGNAL))
    return values


def _draw_factors(
    K: int, ms: Sequence[int], streams: Sequence[np.random.Generator]
) -> np.ndarray:
    """The T-by-M stack of K-by-K factors ``R``: ``[t, j]`` is drawn from
    ``streams[t]`` (a key's ``Purpose.MATRIX`` stream) at ``m = ms[j]``.

    Each stream yields, at each m of ``ms`` in turn, ``R``'s strictly
    upper part (N(0, 1/m), from a K-by-K normal draw) and then its
    diagonal ``sqrt(chi2_{m-i} / m)`` for ``i = 0..K-1``.
    """
    diagonal = np.arange(K)
    lower = np.tril_indices(K, -1)
    support = np.empty((len(streams), len(ms), K, K))
    for t, stream in enumerate(streams):
        for j, m in enumerate(ms):
            R = support[t, j]
            stream.standard_normal(out=R)
            R *= 1.0 / math.sqrt(m)
            R[lower] = 0.0
            R[diagonal, diagonal] = np.sqrt(stream.chisquare(m - diagonal) / m)
    return support


def _draw_normals(
    n: int, K: int, streams: Sequence[np.random.Generator]
) -> Iterator[np.ndarray]:
    """Each stream's (n-K)-by-K standard normal ``Z``, drawn after the
    stream's factors and only when it is reached.  Every ``Z`` is drawn
    into one buffer, so a block is valid only until the next is drawn."""
    Z = np.empty((n - K, K))
    for stream in streams:
        stream.standard_normal(out=Z)
        yield Z


def _count_successes(
    n: int,
    K: int,
    case: SignalCase,
    master_seed: int,
    trials: int,
    ms: Tuple[int, ...],
    row: int,
    first_trial: int,
    count: int,
) -> Tuple[int, ...]:
    """Decide trials ``first_trial .. first_trial + count - 1`` of every
    point of (case, K) row ``row`` as one stack; return the successes of
    each point, aligned with ``ms``.

    The keys are the module docstring's.
    """
    first_key = row * trials + first_trial
    keys = range(first_key, first_key + count)
    streams = [StreamKey(master_seed, key, Purpose.MATRIX).generator() for key in keys]
    try:
        # The factor stack is passed on, not kept, so recovers_stack
        # frees it once the support path returns.
        recovered = recovers_stack(
            _draw_factors(K, ms, streams),
            _draw_nonzeros(K, case, master_seed, keys),
            _draw_normals(n, K, streams),
            np.sqrt(ms),
        )
    except DegenerateColumnError as err:
        s, j = divmod(err.row, len(ms))
        raise TrialError(ms[j], K, case, first_trial + s, err) from err
    return tuple(int(c) for c in recovered.sum(axis=0))


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


def _tasks(config: ExperimentConfig) -> List[tuple]:
    """The argument tuples of :func:`_count_successes` that cover the
    grid, in grid order: each (case, K) row's trial indices in runs of
    at most ``max(1, _stack_size(K) // len(m_values))``."""
    tasks = []
    trials, ms = config.trials, config.m_values
    for row, (case, K) in enumerate(
        (case, K) for case in config.cases for K in config.k_values
    ):
        step = max(1, _stack_size(K) // len(ms))
        for first in range(0, trials, step):
            count = min(step, trials - first)
            tasks.append(
                (config.n, K, case, config.master_seed, trials, ms, row, first, count)
            )
    return tasks


def _deal(tasks: Sequence[tuple], workers: int) -> List[int]:
    """The worker of each task: costliest first (cost ``count * K^2``,
    ties in task order), each to the least-loaded worker (ties to the
    lowest number)."""
    cost = [task[-1] * task[1] ** 2 for task in tasks]
    loads = [0] * workers
    owners = [0] * len(tasks)
    for j in sorted(range(len(tasks)), key=lambda j: -cost[j]):
        owners[j] = i = loads.index(min(loads))
        loads[i] += cost[j]
    return owners


def _serve(tasks: Sequence[tuple], share: List[int], out: BinaryIO) -> None:
    """A worker's loop: run the tasks of ``share`` in order and pickle
    each one's counts to ``out``, or the first error, then stop."""
    for j in share:
        try:
            reply = (True, _count_successes(*tasks[j]))
        except Exception as err:
            reply = (False, err)
        out.write(pickle.dumps(reply))
        out.flush()
        if not reply[0]:
            return


# The thread-count setters of OpenBLAS builds: plain, 64-bit-integer,
# and the scipy-openblas builds that numpy and scipy wheels load.
_BLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _one_blas_thread() -> None:
    """Run every OpenBLAS this process has loaded on one thread.

    A forked child keeps its parent's BLAS thread count, so workers
    that each ran a multi-threaded BLAS would oversubscribe the cores.
    The libraries are found by path in ``/proc/self/maps``, since their
    file names carry a build hash; where that file or the library is
    missing, nothing changes.
    """
    import ctypes  # numpy has already imported it

    try:
        with open("/proc/self/maps", errors="replace") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


# The built-in modules that ``hashlib`` falls back on where ``_hashlib``,
# its OpenSSL binding, cannot be imported; 3.12 merged the SHA-2 pair
# into ``_sha2``.
_BUILTIN_HASHES = ("_md5", "_sha1", "_blake2", "_sha3") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
)


def _import_random_without_openssl() -> None:
    """Import ``numpy.random`` with ``hashlib`` on its built-in modules.

    ``numpy.random`` imports ``secrets``, which imports ``hmac`` and
    ``hashlib``, and they load ``_hashlib`` and with it OpenSSL's
    libcrypto: about 3.4 MB of a worker's RSS and 4 ms of its first
    task, for hashes that no seeded stream uses (PCG64 and SeedSequence
    never touch them).  Hiding ``_hashlib`` for this one import sends
    both to CPython's built-in hash modules instead.  Where the parent
    already holds ``numpy.random`` or ``_hashlib``, or a built-in
    module is missing (``hashlib`` would log each hash it lacks), the
    import is a plain one.
    """
    import importlib.util  # site has loaded it at start-up

    hide = not {"numpy.random", "_hashlib"} & sys.modules.keys() and all(
        importlib.util.find_spec(name) is not None for name in _BUILTIN_HASHES
    )
    if hide:
        sys.modules["_hashlib"] = None
    try:
        import numpy.random
    finally:
        if hide:
            del sys.modules["_hashlib"]


def _place_on_cpu(cpus: Sequence[int], i: int) -> None:
    """Move this process onto CPU ``cpus[i % len(cpus)]``, then allow it
    all of ``cpus`` again.

    A forked child starts on its parent's CPU.  Where the scheduler
    does not balance load across CPUs (a cpuset with
    ``sched_load_balance`` 0), it never moves, and workers forked in
    turn would all share one CPU.  Setting a one-CPU mask moves the
    process before the call returns; restoring the full mask leaves
    a balancing scheduler free to move it later.  Where the call fails,
    the process stays where it is.
    """
    try:
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _forked_tallies(tasks: Sequence[tuple], workers: int) -> Iterator[Tuple[int, ...]]:
    """Yield each task's counts in task order, run by forked workers.

    When first read, forks ``workers`` children, each with a pipe and
    its share of :func:`_deal`, and reads each task from its owner's
    pipe.  Child ``i`` first moves onto CPU ``i`` of this process's
    affinity mask, modulo its size, and gets the whole mask back
    (:func:`_place_on_cpu`; skipped where the platform has no
    affinity calls), then runs its BLAS on one thread
    (:func:`_one_blas_thread`), then imports ``numpy.random`` without
    OpenSSL's libcrypto, which no seeded stream needs and which would
    add about 3.4 MB to each worker
    (:func:`_import_random_without_openssl`).
    A task's error is raised here; a worker that ends without its reply
    raises a ``RuntimeError``.  However the generator ends, every child
    is killed and reaped first.
    """
    import signal  # only a forking run needs it

    owners = _deal(tasks, workers)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    children: List[Tuple[int, BinaryIO]] = []
    try:
        for i in range(workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    for _, reader in children:
                        reader.close()
                    if cpus:
                        _place_on_cpu(cpus, i)
                    _one_blas_thread()
                    _import_random_without_openssl()
                    with open(w, "wb") as out:
                        _serve(tasks, [j for j, o in enumerate(owners) if o == i], out)
                    code = 0
                finally:
                    # never return into the caller's stack, nor run its
                    # exit handlers
                    os._exit(code)
            os.close(w)
            children.append((pid, open(r, "rb")))
        for j, i in enumerate(owners):
            pid, reader = children[i]
            try:
                ok, reply = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(
                    f"worker {i} (pid {pid}) ended without the counts of task {j}"
                ) from None
            if not ok:
                raise reply
            yield reply
    finally:
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    progress: Optional[Callable[[int, int, PointResult], None]] = None,
) -> ExperimentResult:
    """Sweep the config's grid and tally recoveries at every point.

    First every bound is maximized in one
    :func:`~omp_lab.bounds.maximize_bounds` search, over the distinct
    (m, K, phi) and the distinct (m, K); a failing search raises before
    any child exists.  It does not overlap the trials: with as many
    workers as CPUs, the default, it would only share one worker's CPU
    and save no time.

    The whole grid is one task list.  Each (case, K) row's trial indices
    are split into runs of at most ``max(1, _stack_size(K) //
    len(m_values))``, whatever ``workers`` is, and each run, taken at
    all of the row's m values, is one task.  With ``min(workers,
    tasks)`` above 1 and ``os.fork`` available, that many children are
    forked, each placed on its own CPU of the affinity mask (a
    scheduler that does not balance load would otherwise leave them all
    on the parent's), with its BLAS on one thread and ``numpy.random``
    imported without OpenSSL's libcrypto, which seeded streams never
    use; the calling process's imports, and so a one-worker run's, are
    left to the caller.  The tasks are dealt before the fork, costliest
    first (``count * K^2``), each to the least-loaded child, and each
    child runs its share in task order and pipes back each task's
    counts.  The parent reads the tasks in grid order, each from its
    owner.  Otherwise the tasks run here, in order.  ``progress`` is
    called with ``(points_done, points_total, result)`` for each point
    of a row as soon as the row's last task is in.  Per-trial keyed
    streams make the result identical for every worker count.  A
    failing trial raises its ``TrialError`` here, the first in grid
    order; on any error every child is killed and reaped first.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    grid = list(config.grid_points())
    trials, ms = config.trials, config.m_values
    n, phis = config.n, {case: phi_for_case(case) for case in config.cases}
    disparity = list(dict.fromkeys((m, n, K, phis[case]) for case, K, m in grid))
    baseline = list(dict.fromkeys((m, n, K) for _, K, m in grid))
    new, old = bounds.maximize_bounds(disparity, baseline)
    new_value = {q: b.value for q, b in zip(disparity, new)}
    old_value = {q: b.value for q, b in zip(baseline, old)}
    tasks = _tasks(config)
    workers = min(workers, len(tasks))
    if workers > 1 and hasattr(os, "fork"):
        tallies = _forked_tallies(tasks, workers)
    else:
        tallies = (_count_successes(*task) for task in tasks)
    try:
        points = []
        successes = [0] * len(grid)
        for task, counts in zip(tasks, tallies):
            row, first, count = task[-3:]
            for g, c in enumerate(counts, row * len(ms)):
                successes[g] += c
            if first + count < trials:
                continue
            for g in range(row * len(ms), (row + 1) * len(ms)):
                case, K, m = grid[g]
                point = PointResult(
                    m=m,
                    n=n,
                    K=K,
                    case=case,
                    trials=trials,
                    successes=successes[g],
                    disparity_bound_value=new_value[m, n, K, phis[case]],
                    baseline_bound_value=old_value[m, n, K],
                )
                points.append(point)
                if progress is not None:
                    progress(len(points), len(grid), point)
    finally:
        tallies.close()
    return ExperimentResult(config=config, points=tuple(points))
