"""Orthogonal matching pursuit with an incrementally updated QR factor.

The solver runs a fixed number of iterations (the target sparsity).  Each
iteration picks the column most correlated with the current residual,
ties broken toward the smallest column index, then re-fits the
coefficients of all selected columns by least squares and updates the
residual.  The least-squares step reuses a thin QR factorization grown by
one column per iteration, so iteration ``k`` costs O(mk) instead of a
fresh O(mk^2) factorization.

Orthonormality of the growing Q is maintained by classical Gram-Schmidt
with a single re-orthogonalization pass (CGS2), which keeps
``||Q^T Q - I||`` at the 1e-15 level in practice; good enough that
residuals stay numerically orthogonal to every selected column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .signals import SensingMatrix, SparseSignal

__all__ = [
    "RECOVERY_TOL",
    "DegenerateColumnError",
    "InstanceTooLargeError",
    "OmpResult",
    "IncrementalLeastSquares",
    "run_omp",
    "check_exact_recovery",
    "brute_force_best_support",
]

# Stop early once the residual is this small relative to ||y||; the
# remaining iterations would only chase rounding noise.
_RELATIVE_STOP = 1e-12

# A new column whose component orthogonal to the current span is below
# this fraction of its own norm is treated as dependent.
_DEGENERATE_TOL = 1e-12

# Largest l2 distance from the truth that still counts as exact recovery.
RECOVERY_TOL = 1e-10

# Ceiling on the number of candidate supports the exhaustive search will
# enumerate before refusing.
_BRUTE_FORCE_LIMIT = 1_000_000


class DegenerateColumnError(RuntimeError):
    """Selected column is (numerically) in the span of the previous ones."""

    def __init__(self, iteration: int, index: int) -> None:
        super().__init__(
            f"column {index} selected at iteration {iteration} is linearly "
            "dependent on the columns already chosen"
        )
        self.iteration = iteration
        self.index = index

    def __reduce__(self):
        return type(self), (self.iteration, self.index)


class InstanceTooLargeError(ValueError):
    """Exhaustive search would enumerate too many supports."""


@dataclass(frozen=True)
class OmpResult:
    """Outcome of one pursuit run.

    ``selected`` lists column indices in selection order;
    ``coefficients`` is the dense length-n estimate (zero off
    ``selected``); ``residual_norms[k]`` is ``||r||`` after iteration
    ``k``, with ``residual_norms[0] = ||y||``.
    """

    selected: np.ndarray
    coefficients: np.ndarray
    residual: np.ndarray
    residual_norms: np.ndarray
    iterations: int

    @property
    def support(self) -> np.ndarray:
        """Selected indices, sorted ascending."""
        return np.sort(self.selected)


class IncrementalLeastSquares:
    """Thin QR of a growing column set, one column per :meth:`append`.

    After k appends, ``solve(y)`` returns the coefficient vector ``c``
    minimizing ``||B c - y||`` where B stacks the appended columns in
    order, and ``project_out(y)`` returns the least-squares residual.
    """

    def __init__(self, m: int, capacity: int) -> None:
        if m < 1 or capacity < 1:
            raise ValueError("need m >= 1 and capacity >= 1")
        self._q = np.empty((m, capacity))
        self._r = np.zeros((capacity, capacity))
        self._k = 0

    def append(self, column: np.ndarray) -> float:
        """Orthogonalize ``column`` against the span and extend the basis.

        Returns the norm of the component of ``column`` orthogonal to the
        current span.

        Raises
        ------
        ValueError
            If capacity is exhausted or the column shape is wrong.
        DegenerateColumnError
            If the orthogonal component is negligible (tolerance
            ``1e-12 * ||column||``, so an exactly zero column also
            trips it).  ``iteration`` on the exception is the 1-based
            index this append would have had.
        """
        a = np.asarray(column, dtype=float)
        if a.shape != (self._q.shape[0],):
            raise ValueError("column has the wrong length")
        if self._k >= self._r.shape[0]:
            raise ValueError("capacity exhausted")
        k = self._k
        q_active = self._q[:, :k]
        # CGS2: project, then project the remainder once more to mop up
        # the cancellation error of the first pass.
        coeffs = q_active.T @ a
        v = a - q_active @ coeffs
        if k > 0:
            correction = q_active.T @ v
            v -= q_active @ correction
            coeffs += correction
        norm_v = math.sqrt(v @ v)
        if norm_v <= _DEGENERATE_TOL * math.sqrt(a @ a):
            raise DegenerateColumnError(iteration=k + 1, index=-1)
        self._q[:, k] = v / norm_v
        self._r[:k, k] = coeffs
        self._r[k, k] = norm_v
        self._k = k + 1
        return norm_v

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Least-squares coefficients of y against the appended columns."""
        if self._k == 0:
            raise ValueError("no columns appended yet")
        k = self._k
        z = self._q[:, :k].T @ y
        return np.linalg.solve(self._r[:k, :k], z)

    def project_out(self, y: np.ndarray) -> np.ndarray:
        """Residual of y after least-squares fit on the appended columns."""
        if self._k == 0:
            return np.asarray(y, dtype=float).copy()
        q_active = self._q[:, : self._k]
        return y - q_active @ (q_active.T @ y)


def run_omp(
    matrix: SensingMatrix,
    y: np.ndarray,
    sparsity: int,
) -> OmpResult:
    """Greedy pursuit of ``sparsity`` columns explaining ``y``.

    Each iteration selects ``argmax_j |<r, A_j>|`` over all columns (the
    smallest index on exact ties), appends it, re-fits by least squares
    and updates the residual.  Runs exactly ``sparsity`` iterations
    unless the residual norm drops below ``1e-12 * ||y||`` first.

    Raises
    ------
    ValueError
        On shape mismatch or ``sparsity`` outside ``[1, min(m, n)]``.
    DegenerateColumnError
        If the winning column is dependent on the ones already chosen.
    """
    A = matrix.entries
    m, n = A.shape
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"y must have length {m}, got shape {y.shape}")
    if not 1 <= sparsity <= min(m, n):
        raise ValueError(
            f"sparsity must be in [1, min(m, n)] = [1, {min(m, n)}], got {sparsity}"
        )

    ls = IncrementalLeastSquares(m, sparsity)
    selected = np.empty(sparsity, dtype=np.intp)
    norm_y = math.sqrt(y @ y)
    residual = y.copy()
    norms = [norm_y]
    chosen = np.zeros(n, dtype=bool)

    k = 0
    while k < sparsity:
        if norms[-1] <= _RELATIVE_STOP * norm_y:
            break
        correlations = np.abs(A.T @ residual)
        # np.argmax already returns the first (smallest) index among
        # exact ties; re-picking an old column is prevented explicitly.
        correlations[chosen] = -1.0
        j = int(np.argmax(correlations))
        try:
            ls.append(A[:, j])
        except DegenerateColumnError as err:
            raise DegenerateColumnError(iteration=k + 1, index=j) from err
        selected[k] = j
        chosen[j] = True
        residual = ls.project_out(y)
        norms.append(math.sqrt(residual @ residual))
        k += 1

    coefficients = np.zeros(n)
    if k > 0:
        coefficients[selected[:k]] = ls.solve(y)
    return OmpResult(
        selected=selected[:k].copy(),
        coefficients=coefficients,
        residual=residual,
        residual_norms=np.array(norms),
        iterations=k,
    )


def check_exact_recovery(result: OmpResult, truth: SparseSignal) -> bool:
    """Did the pursuit reproduce ``truth``?  True iff the coefficient
    vector is within ``RECOVERY_TOL`` of it in the l2 norm."""
    return float(np.linalg.norm(result.coefficients - truth.values)) <= RECOVERY_TOL


def brute_force_best_support(
    matrix: SensingMatrix,
    y: np.ndarray,
    sparsity: int,
) -> Tuple[Tuple[int, ...], float]:
    """Exhaustive minimum-residual K-subset; oracle for small instances.

    Enumerates every size-``sparsity`` column subset, fits each by least
    squares, and returns ``(best_subset, best_residual_norm)`` with the
    subset as a sorted tuple.  Ties in residual norm go to the
    lexicographically smallest subset (the enumeration order).

    Raises
    ------
    InstanceTooLargeError
        If ``C(n, sparsity)`` exceeds one million subsets.
    """
    A = matrix.entries
    m, n = A.shape
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"y must have length {m}, got shape {y.shape}")
    if not 1 <= sparsity <= min(m, n):
        raise ValueError(
            f"sparsity must be in [1, min(m, n)] = [1, {min(m, n)}], got {sparsity}"
        )
    count = math.comb(n, sparsity)
    if count > _BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"{count} candidate supports exceed the limit of {_BRUTE_FORCE_LIMIT}"
        )

    best_subset: Optional[Tuple[int, ...]] = None
    best_norm = np.inf
    for subset in itertools.combinations(range(n), sparsity):
        cols = A[:, subset]
        coeffs, _, _, _ = np.linalg.lstsq(cols, y, rcond=None)
        norm = float(np.linalg.norm(y - cols @ coeffs))
        if norm < best_norm:
            best_norm = norm
            best_subset = subset
    assert best_subset is not None
    return best_subset, best_norm
