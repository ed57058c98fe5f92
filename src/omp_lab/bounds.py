"""Lower bounds on the probability that the pursuit recovers a signal.

Two bounds are implemented, for measurements ``y = A x`` with A an
m-by-n matrix of i.i.d. normal(0, 1/m) entries and x supported on K of
the n coordinates.

Disparity-aware bound
    For a signal class with disparity budget ``phi`` (see
    :mod:`omp_lab.phi`), with ``eta = 1 - sqrt(K/m) - eps``,

        P >= max over eps in (0, U] of
             (1 - exp(-eps^2 m / 2))
             * prod_{k=1..K} (1 - x_k)^(n - K)

        x_k = exp(-eta^2 m / (2 phi(k))) / (sqrt(pi m / (2 phi(k))) * eta)

    where U = 1 - sqrt(K/m) - sqrt(2 phi(K) / (m pi)).  At eps = U the
    denominator of x_K equals 1 exactly, and each x_k stays below 1 on
    the whole interval, so every factor is positive.

Baseline bound
    The phi-free reference,

        P >= max over eps in (0, sqrt(m/K) - 1) of
             (1 - exp(-eps^2 m / 2))
             * (1 - exp(-(sqrt(m/K) - 1 - eps)^2 / 2))^(K (n - K))

Derivation
    Both bounds lower-bound the chance that all K picks land on the
    support S, after which the K-column fit is exact.  Iteration k has
    picked T, k - 1 columns, all on S; its residual is r = A_S w with
    A_T^T r = 0 and w_{S\\T} = x_{S\\T}.  So ||r||^2 = <x_{S\\T},
    A_{S\\T}^T r> <= ||x_{S\\T}||_1 ||A_S^T r||_inf and ||r|| >=
    sigma_min(A_S) ||x_{S\\T}||_2.  With ``phi`` bounding ||v||_1^2 /
    ||v||_2^2 on the t = K - k + 1 entries of x_{S\\T}, the
    per-iteration factor is

        ||A_S^T r||_inf / ||r|| >= sigma_min(A_S) / sqrt(phi(K - k + 1)),

    and phi(t) = t gives the baseline's sqrt(K) step.  Each off-support
    column a_j is independent of r, so <a_j, r / ||r||> is N(0, 1/m);
    the tail step is P(|N(0, 1)| >= t) <= exp(-t^2 / 2) (the Mills
    ratio in the disparity bound, whence the denominator of x_k).  On
    the event sigma_min(A_S) >= 1 - sqrt(K/m) - eps, of probability at
    least 1 - exp(-eps^2 m / 2), each baseline factor is then
    1 - exp(-(sqrt(m/K) (1 - sqrt(K/m) - eps))^2 / 2), eps in
    (0, 1 - sqrt(K/m)); the disparity bound's eta is on this scale.
    The baseline above uses sqrt(m/K) - 1 - eps on (0, sqrt(m/K) - 1)
    instead: its eps term is sqrt(m/K) times too small, which makes it
    too generous, most at large m, and is why acceptance criterion 3
    fails.  The formula stays until the reference tables that pin its
    values change with it.

All arithmetic runs in the log domain: with n - K in the thousands the
per-term factors sit extremely close to 1, and ``log(1 - e^-a)`` is
computed by the standard two-branch rule so neither tiny nor huge ``a``
loses precision.  The maximization is one coarse-to-fine search over
every queried point at once (:func:`maximize_bounds`): 17 evenly
spaced eps over ``[0, U]``, then 9 more rounds of 17 between the two
grid neighbours of the best one, which pins eps to about ``U / 2.1e9``.
The disparity objective of the whole batch is one points-by-K-by-17
array per round; a point with a smaller K pads its rows with terms of
exactly -0.0, so a point gets the same doubles in any batch as alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .phi import PhiFunction

__all__ = [
    "BoundResult",
    "log1mexp",
    "disparity_interval_upper",
    "baseline_interval_upper",
    "log_disparity_bound_at",
    "log_baseline_bound_at",
    "maximize_bounds",
    "disparity_bound",
    "baseline_bound",
]

# The maximizer's search: this many grid steps per round, and rounds.
# Each round narrows the interval to two steps, a factor 8, so the last
# step is U / (16 * 8^9), about U / 2.1e9.
_SEARCH_POINTS = 16
_SEARCH_ROUNDS = 10
_SEARCH_FRACTIONS = np.arange(_SEARCH_POINTS + 1) / _SEARCH_POINTS

_LN2 = math.log(2.0)

# The objectives are evaluated over at most this many eps at a time, so a
# dense grid needs a K-by-chunk buffer, not a K-by-grid one.
_EPS_CHUNK = 65536


def log1mexp(a: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """``log(1 - exp(-a))`` for ``a >= 0``, accurate at both extremes.

    Small ``a`` goes through ``log(-expm1(-a))``, large ``a`` through
    ``log1p(-exp(-a))``; the switch at ``ln 2`` keeps full precision on
    both branches.  ``a = 0`` yields ``-inf``.
    """
    arr = np.asarray(a, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr < 0.0):
        raise ValueError("log1mexp requires a >= 0")
    out = _log1mexp_of_negated(np.negative(np.atleast_1d(arr)))
    return float(out[0]) if scalar else out


def _log1mexp_of_negated(x: np.ndarray) -> np.ndarray:
    """In place, ``x <- log1mexp(-x)`` where ``x < 0`` and ``-inf`` where
    ``x >= 0``; returns ``x``.

    Each element gets exactly the ufuncs of :func:`log1mexp`'s branch
    for ``a = -x``, through ``where=`` masks instead of gathers, so the
    doubles are the same.  ``a = 0`` is ``-inf`` either way.
    """
    small = x > -_LN2
    large = ~small
    nonneg = x >= 0.0
    small ^= nonneg
    np.expm1(x, out=x, where=small)
    np.exp(x, out=x, where=large)
    np.negative(x, out=x)
    np.log(x, out=x, where=small)
    np.log1p(x, out=x, where=large)
    np.copyto(x, -np.inf, where=nonneg)
    return x


def _by_chunks(
    f: Callable[..., np.ndarray], *arrays: np.ndarray
) -> np.ndarray:
    """``f`` of the arrays, applied to ``_EPS_CHUNK``-long slices of them
    in turn; elementwise ``f`` gives the same doubles as one call."""
    return np.concatenate(
        [
            f(*(a[lo : lo + _EPS_CHUNK] for a in arrays))
            for lo in range(0, arrays[0].size, _EPS_CHUNK)
        ]
    )


@dataclass(frozen=True)
class BoundResult:
    """A maximized bound value with the maximizer that produced it.

    ``value`` is clamped to [0, 1]; ``log_value`` keeps the unclamped
    log (``-inf`` when the bound degenerates).  ``epsilon_star`` is the
    maximizing free parameter, ``None`` when the feasible interval is
    empty.  ``interval_upper`` reports the interval endpoint even when
    it is nonpositive, so infeasibility is inspectable.
    """

    value: float
    log_value: float
    epsilon_star: Optional[float]
    interval_upper: float
    feasible: bool


def _check_problem(m: int, n: int, K: int) -> None:
    m = operator.index(m)
    n = operator.index(n)
    K = operator.index(K)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= K < n:
        raise ValueError(f"need 1 <= K < n, got K={K}, n={n}")


def disparity_interval_upper(m: int, K: int, phi: PhiFunction) -> float:
    """Upper endpoint ``1 - sqrt(K/m) - sqrt(2 phi(K) / (m pi))``.

    Positive iff the disparity-aware bound has a nonempty feasible
    interval.
    """
    return 1.0 - math.sqrt(K / m) - math.sqrt(2.0 * phi(K) / (m * math.pi))


def baseline_interval_upper(m: int, K: int) -> float:
    """Upper endpoint ``sqrt(m/K) - 1`` of the baseline bound's interval."""
    return math.sqrt(m / K) - 1.0


def _disparity_columns(m: int, K: int, phi: PhiFunction, rows: int) -> np.ndarray:
    """``phi(k)`` and ``0.5 log(pi m / (2 phi(k)))`` for k = 1..rows, as a
    2-by-rows-by-1 array.  Past K the rows read 1 and +inf: the +inf
    makes log x_k = -inf, whose term is exactly -0.0."""
    out = np.empty((2, rows, 1))
    out[0] = 1.0
    out[1] = np.inf
    out[0, :K, 0] = phik = phi.values(K)
    # math.log per k, so the constant is the same double at every size
    out[1, :K, 0] = [0.5 * math.log(math.pi * m / (2.0 * p)) for p in phik]
    return out


def _log_disparity(
    m: Union[int, np.ndarray],
    n_minus_k: Union[int, np.ndarray],
    columns: np.ndarray,
    eps: np.ndarray,
    eta: np.ndarray,
) -> np.ndarray:
    """The disparity objective at ``eps >= 0`` with ``eta = 1 - sqrt(K/m) -
    eps > 0``.

    ``eps`` and ``eta`` have shape (..., G); ``m`` and ``n_minus_k``
    broadcast to it, and ``columns`` is :func:`_disparity_columns` with
    the same leading axes, (..., 2, rows, 1).  The terms fill one (...,
    rows, G) buffer and are added in k order to +0.0, so all -0.0 terms
    (the padding rows among them) sum to +0.0; every value is the double
    of a term-by-term loop over the point's own K rows.
    """
    logx = np.divide((-(0.5 * m * eta * eta))[..., None, :], columns[..., 0, :, :])
    logx -= columns[..., 1, :, :]
    logx -= np.log(eta)[..., None, :]
    terms = _log1mexp_of_negated(logx)  # -inf where x_k >= 1
    total = np.zeros(eta.shape)
    for k in range(terms.shape[-2]):
        total += terms[..., k, :]
    return log1mexp(0.5 * m * eps * eps) + n_minus_k * total


def _log_baseline(
    m: Union[int, np.ndarray],
    pairs: Union[int, np.ndarray],
    eps: np.ndarray,
    gap: np.ndarray,
) -> np.ndarray:
    """The baseline objective at ``eps`` with ``gap = sqrt(m/K) - 1 - eps``
    and ``pairs = K (n - K)``."""
    return log1mexp(0.5 * m * eps * eps) + pairs * log1mexp(0.5 * gap * gap)


def log_disparity_bound_at(
    m: int,
    n: int,
    K: int,
    phi: PhiFunction,
    eps: Union[float, np.ndarray],
) -> Union[float, np.ndarray]:
    """Log of the disparity-aware bound at fixed ``eps`` (vectorized).

    Returns ``-inf`` wherever ``eps`` is outside ``(0, 1 - sqrt(K/m))``
    or some product factor is nonpositive.
    """
    _check_problem(m, n, K)
    eps_arr = np.asarray(eps, dtype=float)
    scalar = eps_arr.ndim == 0
    eps_arr = np.atleast_1d(eps_arr).astype(float)
    out = np.full(eps_arr.shape, -np.inf)
    eta = 1.0 - math.sqrt(K / m) - eps_arr
    ok = (eps_arr > 0.0) & (eta > 0.0)
    if np.any(ok):
        columns = _disparity_columns(m, K, phi, K)
        out[ok] = _by_chunks(
            lambda e, h: _log_disparity(m, n - K, columns, e, h), eps_arr[ok], eta[ok]
        )
    return float(out[0]) if scalar else out


def log_baseline_bound_at(
    m: int,
    n: int,
    K: int,
    eps: Union[float, np.ndarray],
) -> Union[float, np.ndarray]:
    """Log of the baseline bound at fixed ``eps`` (vectorized).

    Returns ``-inf`` outside the open interval ``(0, sqrt(m/K) - 1)``.
    """
    _check_problem(m, n, K)
    eps_arr = np.asarray(eps, dtype=float)
    scalar = eps_arr.ndim == 0
    eps_arr = np.atleast_1d(eps_arr).astype(float)
    out = np.full(eps_arr.shape, -np.inf)
    gap = baseline_interval_upper(m, K) - eps_arr
    ok = (eps_arr > 0.0) & (gap > 0.0)
    if np.any(ok):
        out[ok] = _by_chunks(
            lambda e, g: _log_baseline(m, K * (n - K), e, g), eps_arr[ok], gap[ok]
        )
    return float(out[0]) if scalar else out


def _clamp_exp(log_value: float) -> float:
    if log_value == -np.inf:
        return 0.0
    return min(1.0, math.exp(min(log_value, 0.0)))


def _maximize(
    upper: np.ndarray,
    log_f: Callable[[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Maximize P log objectives, the p-th over ``[0, upper[p]]``, by one
    coarse-to-fine search; return the maxima and their maximizers.

    ``log_f`` maps a P-by-``_SEARCH_POINTS + 1`` grid, row p for
    objective p, to its values.  Each of ``_SEARCH_ROUNDS`` rounds
    evaluates ``_SEARCH_POINTS + 1`` evenly spaced points per objective,
    the first over ``[0, upper]`` and each later one between the two grid
    neighbours of the previous round's best point, so a row's result
    does not depend on the other rows.  Both objectives are ``-inf`` at
    0 and at an open upper end, so the search never picks either.
    """
    rows = np.arange(upper.size)
    lo, hi = np.zeros(upper.size), upper
    for _ in range(_SEARCH_ROUNDS):
        grid = lo[:, None] + (hi - lo)[:, None] * _SEARCH_FRACTIONS
        grid[:, -1] = hi
        values = log_f(grid)
        best = np.argmax(values, axis=1)
        lo = grid[rows, np.maximum(best - 1, 0)]
        hi = grid[rows, np.minimum(best + 1, _SEARCH_POINTS)]
    return values[rows, best], grid[rows, best]


def maximize_bounds(
    disparity: Sequence[Tuple[int, int, int, PhiFunction]] = (),
    baseline: Sequence[Tuple[int, int, int]] = (),
) -> Tuple[List[BoundResult], List[BoundResult]]:
    """Maximize the disparity-aware bound at each ``(m, n, K, phi)`` and
    the baseline bound at each ``(m, n, K)``, in one search.

    Returns the two lists of results, aligned with the arguments.  Each
    result is the same as the query's alone would give: the disparity
    interval includes its upper endpoint, the baseline's is open.  A
    nonpositive interval endpoint yields the infeasible result, with
    ``value = 0``, rather than an error, so sweeps can record every
    point.
    """
    for m, n, K, *_ in (*disparity, *baseline):
        _check_problem(m, n, K)
    d_upper = [disparity_interval_upper(m, K, phi) for m, _, K, phi in disparity]
    b_upper = [baseline_interval_upper(m, K) for m, _, K in baseline]
    d_live = [q for q, u in zip(disparity, d_upper) if u > 0.0]
    b_live = [(m, K * (n - K), u) for (m, n, K), u in zip(baseline, b_upper) if u > 0.0]
    rows = max((K for _, _, K, _ in d_live), default=0)
    # per-point constants, each a column with one row per live point
    d_m, d_n_minus_k, d_width = np.array(
        [(m, n - K, 1.0 - math.sqrt(K / m)) for m, n, K, _ in d_live]
    ).reshape(-1, 3, 1).transpose(1, 0, 2)
    d_columns = np.array(
        [_disparity_columns(m, K, phi, rows) for m, _, K, phi in d_live]
    ).reshape(len(d_live), 2, rows, 1)
    b_m, b_pairs, b_width = np.array(b_live).reshape(-1, 3, 1).transpose(1, 0, 2)

    def log_f(grid: np.ndarray) -> np.ndarray:
        d, b = grid[: len(d_live)], grid[len(d_live) :]
        return np.concatenate(
            [
                _log_disparity(d_m, d_n_minus_k, d_columns, d, d_width - d),
                _log_baseline(b_m, b_pairs, b, b_width - b),
            ]
        )

    upper = np.array([u for u in d_upper + b_upper if u > 0.0])
    found = zip(*(a.tolist() for a in _maximize(upper, log_f)))

    def results(uppers: List[float]) -> List[BoundResult]:
        # the live points are in found in argument order, disparity first
        out = []
        for u in uppers:
            if u > 0.0:
                log_value, eps = next(found)
                out.append(BoundResult(_clamp_exp(log_value), log_value, eps, u, True))
            else:
                out.append(BoundResult(0.0, -np.inf, None, u, False))
        return out

    return results(d_upper), results(b_upper)


def disparity_bound(m: int, n: int, K: int, phi: PhiFunction) -> BoundResult:
    """Maximize the disparity-aware bound over its feasible interval,
    which includes its upper endpoint."""
    return maximize_bounds(disparity=[(m, n, K, phi)])[0][0]


def baseline_bound(m: int, n: int, K: int) -> BoundResult:
    """Maximize the baseline bound over its open feasible interval."""
    return maximize_bounds(baseline=[(m, n, K)])[1][0]
