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
loses precision.  The maximization is a nested grid scan: 1025 evenly
spaced points over ``[0, U]``, then twice more over the two grid
neighbours of the best point, which pins eps to about ``U / 2.7e8``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .phi import PhiFunction

__all__ = [
    "BoundResult",
    "log1mexp",
    "disparity_interval_upper",
    "baseline_interval_upper",
    "log_disparity_bound_at",
    "log_baseline_bound_at",
    "disparity_bound",
    "baseline_bound",
]

_GRID_POINTS = 1024
_GRID_ROUNDS = 3

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
        phik = phi.values(K)
        log_norm = np.array([0.5 * math.log(math.pi * m / (2.0 * p)) for p in phik])

        def objective(e: np.ndarray, h: np.ndarray) -> np.ndarray:
            # Rows are k = 1..K, columns the chunk's feasible eps, in one
            # K-by-chunk buffer.  The per-k constant goes through
            # math.log and the rows are added in k order to +0.0 (so all
            # -0.0 terms sum to +0.0), which gives every value the same
            # double as a term-by-term loop.
            logx = np.divide(-(0.5 * m * h * h), phik[:, None])
            logx -= log_norm[:, None]
            logx -= np.log(h)
            terms = _log1mexp_of_negated(logx)  # -inf where x_k >= 1
            sum_terms = np.zeros(h.shape)
            for row in terms:
                sum_terms += row
            return log1mexp(0.5 * m * e * e) + (n - K) * sum_terms

        out[ok] = _by_chunks(objective, eps_arr[ok], eta[ok])
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
            lambda e, g: log1mexp(0.5 * m * e * e) + (K * (n - K)) * log1mexp(0.5 * g * g),
            eps_arr[ok],
            gap[ok],
        )
    return float(out[0]) if scalar else out


def _clamp_exp(log_value: float) -> float:
    if log_value == -np.inf:
        return 0.0
    return min(1.0, math.exp(min(log_value, 0.0)))


def _maximize(
    upper: float,
    log_f: Callable[[np.ndarray], np.ndarray],
) -> BoundResult:
    """Maximize a log objective over ``[0, upper]`` by a nested grid scan.

    Each of ``_GRID_ROUNDS`` rounds evaluates ``log_f`` on
    ``_GRID_POINTS + 1`` evenly spaced points, the first over
    ``[0, upper]`` and each later one between the two grid neighbours of
    the previous round's best point.  Both objectives are ``-inf`` at 0
    and at an open upper end, so the scan never picks either.
    A nonpositive ``upper`` yields the infeasible result, with
    ``value = 0``, rather than an error, so sweeps can record every
    point.
    """
    if not upper > 0.0:
        return BoundResult(
            value=0.0,
            log_value=-np.inf,
            epsilon_star=None,
            interval_upper=upper,
            feasible=False,
        )
    lo, hi = 0.0, upper
    for _ in range(_GRID_ROUNDS):
        grid = np.linspace(lo, hi, _GRID_POINTS + 1)
        values = log_f(grid)
        i = int(np.argmax(values))
        lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, _GRID_POINTS)])
    best_val = float(values[i])
    return BoundResult(
        value=_clamp_exp(best_val),
        log_value=best_val,
        epsilon_star=float(grid[i]),
        interval_upper=upper,
        feasible=True,
    )


def disparity_bound(m: int, n: int, K: int, phi: PhiFunction) -> BoundResult:
    """Maximize the disparity-aware bound over its feasible interval,
    which includes its upper endpoint."""
    _check_problem(m, n, K)
    return _maximize(
        disparity_interval_upper(m, K, phi),
        lambda e: log_disparity_bound_at(m, n, K, phi, e),
    )


def baseline_bound(m: int, n: int, K: int) -> BoundResult:
    """Maximize the baseline bound over its open feasible interval."""
    _check_problem(m, n, K)
    return _maximize(
        baseline_interval_upper(m, K),
        lambda e: log_baseline_bound_at(m, n, K, e),
    )
