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

:func:`recovers_stack` decides a stack of problems whose support is
known, by the same rules, from the pursuit on the support columns plus
one product with the other columns; it returns only whether each one was
recovered exactly.  :func:`run_omp` is the single-problem reference it
is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .signals import SensingMatrix, SparseSignal

__all__ = [
    "RECOVERY_TOL",
    "DegenerateColumnError",
    "OmpResult",
    "IncrementalLeastSquares",
    "run_omp",
    "check_exact_recovery",
    "recovers_stack",
]

# Stop early once the residual is this small relative to ||y||; the
# remaining iterations would only chase rounding noise.
_RELATIVE_STOP = 1e-12

# A new column whose component orthogonal to the current span is below
# this fraction of its own norm is treated as dependent.
_DEGENERATE_TOL = 1e-12

# Largest l2 distance from the truth that still counts as exact recovery.
RECOVERY_TOL = 1e-10

# The support path solves its K-column fits in this many slices of rows,
# so only that fraction of the fit factor is held at once.
_FIT_SLICES = 8


class DegenerateColumnError(RuntimeError):
    """Selected column is (numerically) in the span of the previous ones.

    ``row`` is the stack row whose pursuit hit it (see
    :func:`recovers_stack`); 0 for a single pursuit.
    """

    def __init__(self, iteration: int, index: int, row: int = 0) -> None:
        super().__init__(
            f"column {index} selected at iteration {iteration} is linearly "
            "dependent on the columns already chosen"
        )
        self.iteration = iteration
        self.index = index
        self.row = row

    def __reduce__(self):
        return type(self), (self.iteration, self.index, self.row)


@dataclass(frozen=True, eq=False)
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


def recovers_stack(
    support: np.ndarray,
    values: np.ndarray,
    off: Iterable[np.ndarray],
    divisor: Sequence[float],
) -> np.ndarray:
    """Does OMP recover each row's signal?  A T-by-M boolean array.

    Row ``(t, j)`` is the problem ``A = [support[t, j] | block_t^T /
    divisor[j]]``, ``x = (values[t], 0, ..., 0)``, for a T-by-M-by-m-by-K
    ``support``, T-by-K ``values`` and M ``divisor``; ``block_t`` is the
    (n-K)-by-m block ``off`` yields for trial index ``t``.  The answer is
    what ``check_exact_recovery(run_omp(A, A @ x, K), x)`` gives, in two
    steps.

    First, the all-on-support path: OMP on the support columns alone,
    under the rules of :func:`run_omp` (pick ``argmax_j |<r, a_j>|``
    over the columns not yet chosen, the smallest index on exact ties;
    extend an orthonormal basis of the chosen columns by CGS2; solve the
    fit from that basis), with all rows advancing one iteration at a
    time and no early stop.  Iteration ``k`` records its residual
    ``u_k`` and its winning correlation ``c_k``.

    Second, one product per row.  OMP on ``A`` leaves this path at
    iteration ``k`` iff some off-support column beats ``c_k``; an exact
    tie goes to the support column, whose index is smaller.  An
    off-support pick leaves a nonzero of ``x`` without a column.  So row
    ``(t, j)`` is recovered iff ``|block_t u_k| <= c_k * divisor[j]``
    entrywise at every ``k`` (exactly ``c_k`` at divisor 1.0) and the
    K-column fit lies within ``RECOVERY_TOL`` of ``values[t]`` (up to a
    nonzero itself within ``RECOVERY_TOL`` of 0).  ``off`` is read after
    the path, one block per trial index in order, so its blocks may
    share one buffer; each product goes to one reused buffer.

    The path holds three S-by-m-by-K stacks at once, for ``S = T * M``:
    ``support``, the basis and the residuals.  Only the residuals are
    kept for the products: this function drops its references to
    ``support`` when the path returns, so a caller that passes the stack
    without keeping it frees it there.

    Raises
    ------
    ValueError
        On shape mismatch, ``K > m``, or ``off`` not yielding one block
        per trial index.
    DegenerateColumnError
        If a winning column is dependent on the columns its row already
        chose; ``row`` is ``t * M + j`` of the first such row at the
        earliest such iteration.
    """
    A = np.asarray(support, dtype=float)
    X = np.asarray(values, dtype=float)
    divisor = np.asarray(divisor, dtype=float)
    if A.ndim != 4 or X.shape != (len(A), A.shape[3]) or divisor.shape != A.shape[1:2]:
        shapes = f"{A.shape}, {X.shape} and {divisor.shape}"
        raise ValueError(f"need T-by-M-by-m-by-K, T-by-K and M shapes, got {shapes}")
    T, M, m, K = A.shape
    recovered, residuals, wins = _support_path(A.reshape(-1, m, K), np.repeat(X, M, 0))
    del support, A
    recovered = recovered.reshape(T, M)
    residuals = residuals.reshape(T, M, m, K)
    limits = wins.reshape(T, M, K) * divisor[:, None]
    blocks = iter(off)
    t = -1
    for t, block in zip(range(T), blocks):
        if t == 0:
            product = np.empty((len(block), K))
        for j in range(M):
            np.abs(np.matmul(block, residuals[t, j], out=product), out=product)
            recovered[t, j] &= bool(np.all(product <= limits[t, j]))
    if t != T - 1 or next(blocks, None) is not None:
        raise ValueError(f"off must yield one block for each of the {T} trial indices")
    return recovered


def _support_path(
    A: np.ndarray, X: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OMP on each row's support columns ``A`` (an S-by-m-by-K float
    stack) alone, with values ``X`` (S-by-K), all rows at once, by the
    rules :func:`recovers_stack` states.

    The pursuit keeps only the orthonormal basis ``Q`` (K-by-m) of the
    picked columns and a mask of them.  Returns whether each row's
    K-column fit, the solution ``z`` of ``(Q A) z = Q y``, lies within
    ``RECOVERY_TOL`` of its values, the residuals ``U`` (S-by-m-by-K;
    column ``k`` of ``U[s]`` is the residual that iteration ``k``
    correlates), and the winning correlations ``c`` (S-by-K).  The fit
    is solved a slice of rows at a time, so ``Q A`` is never held whole
    beside ``A``, the basis and the residuals; each row's doubles are
    those of one whole-stack solve.
    """
    S, m, K = A.shape
    if not 1 <= K <= m:
        raise ValueError(f"need 1 <= K <= m, got K={K}, m={m}")
    rows = np.arange(S)
    y = np.matmul(A, X[:, :, None])  # S x m x 1
    column_norms = np.linalg.norm(A, axis=1)  # S x K
    basis = np.zeros((S, K, m))  # row i of basis[s] is q_i of row s
    chosen = np.zeros((S, K), dtype=bool)
    residuals = np.empty((S, m, K))
    wins = np.empty((S, K))
    residual = y
    for k in range(K):
        residuals[:, :, k] = residual[:, :, 0]
        correlations = np.abs(np.matmul(residual.transpose(0, 2, 1), A)[:, 0])
        correlations[chosen] = -1.0
        j = np.argmax(correlations, axis=1)
        wins[:, k] = correlations[rows, j]
        chosen[rows, j] = True
        a = A[rows, :, j][:, :, None]
        q_active = basis[:, :k]
        q_active_t = q_active.transpose(0, 2, 1)
        # CGS2, as IncrementalLeastSquares.append does it for one row.
        v = a - np.matmul(q_active_t, np.matmul(q_active, a))
        if k > 0:
            v -= np.matmul(q_active_t, np.matmul(q_active, v))
        norm_v = np.sqrt(np.matmul(v.transpose(0, 2, 1), v)[:, 0, 0])
        degenerate = norm_v <= _DEGENERATE_TOL * column_norms[rows, j]
        if degenerate.any():
            s = int(np.argmax(degenerate))
            raise DegenerateColumnError(iteration=k + 1, index=int(j[s]), row=s)
        basis[:, k] = v[:, :, 0] / norm_v[:, None]
        q_active = basis[:, : k + 1]
        residual = y - np.matmul(q_active.transpose(0, 2, 1), np.matmul(q_active, y))

    # All K columns are picked, so basis @ A is their R factor with its
    # columns in index order.
    fit = np.empty((S, K))
    step = -(-S // _FIT_SLICES)
    for lo in range(0, S, step):
        part = slice(lo, lo + step)
        Q = basis[part]
        fit[part] = np.linalg.solve(np.matmul(Q, A[part]), np.matmul(Q, y[part]))[:, :, 0]
    return np.linalg.norm(fit - X, axis=1) <= RECOVERY_TOL, residuals, wins
