"""Exhaustive and closed-form references that only the tests use.

``brute_force_best_support`` is the exhaustive-search oracle for OMP on
small instances; ``vector_disparity_ratio`` is the squared l1/l2 ratio
that a disparity budget phi(t) caps; ``phi_successes_one_shot`` counts
what ``validate_phi_empirical`` counts, from one draw per size.
"""

import itertools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from omp_lab.phi import PhiFunction
from omp_lab.signals import Purpose, SensingMatrix, StreamKey

# Ceiling on the number of candidate supports the exhaustive search will
# enumerate before refusing.
_BRUTE_FORCE_LIMIT = 1_000_000


class InstanceTooLargeError(ValueError):
    """Exhaustive search would enumerate too many supports."""


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


def vector_disparity_ratio(values: Sequence[float]) -> float:
    """Squared l1/l2 ratio of a plain vector: ``||v||_1^2 / ||v||_2^2``.

    Raises
    ------
    ValueError
        If the vector is empty or identically zero.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a nonempty 1-D vector")
    sq = float(v @ v)
    if sq == 0.0:
        raise ValueError("ratio undefined for the zero vector")
    l1 = float(np.abs(v).sum())
    return l1 * l1 / sq


def phi_successes_one_shot(
    phi: PhiFunction, t_max: int, trials: int, key: StreamKey
) -> np.ndarray:
    """Per-size success counts of ``validate_phi_empirical``, each size's
    ``trials``-by-``t`` normals drawn at once from the size's substream."""
    base = key.with_purpose(Purpose.PHI_VALIDATION)
    counts = []
    for t in range(1, t_max + 1):
        draws = base.generator(t).standard_normal((trials, t))
        l1 = np.abs(draws).sum(axis=1)
        sq = np.einsum("ij,ij->i", draws, draws)
        counts.append(np.count_nonzero(l1 * l1 / sq <= phi(t)))
    return np.array(counts, dtype=np.int64)
