"""Disparity functions and empirical validation of the disparity condition.

A disparity function ``phi`` maps a subset size ``t`` to an upper budget
for the squared ratio of the l1 to the l2 norm over that subset: a signal
class satisfies the condition when

    ||x_S||_1^2 <= phi(|S|) * ||x_S||_2^2   for the supports of interest.

Three variants are provided:

``cs``
    ``phi(t) = t``.  Always valid, by Cauchy-Schwarz; the do-nothing
    baseline.

``decay``
    Tight budget for geometrically decaying magnitudes with ratio
    ``alpha > 1``:

        phi(t) = (alpha**t - 1) (alpha + 1) / ((alpha**t + 1) (alpha - 1))

    which increases in ``t`` toward the limit ``(alpha+1)/(alpha-1)``.
    Evaluated via ``alpha**(-t)`` so large ``t`` cannot overflow.

``gauss``
    Piecewise empirical budget for i.i.d. Gaussian magnitudes, defined on
    integer sizes only:

        phi(t) = t          for t <= 24
        phi(t) = 24         for 25 <= t <= 29
        phi(t) = 0.8 t      for t >= 30

Empirical validation draws standard normal vectors and reports, per
size, how often the condition holds with no slack.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .signals import Purpose, StreamKey

__all__ = [
    "PhiFunction",
    "PhiValidationReport",
    "validate_phi_empirical",
]

_GAUSS_LINEAR_MAX = 24
_GAUSS_PLATEAU_MAX = 29
_GAUSS_SLOPE = 0.8

# Bytes of normals drawn at once by validate_phi_empirical.
_DRAW_BYTES = 1 << 20


def _check_size(t: object) -> int:
    t = operator.index(t)
    if t < 1:
        raise ValueError(f"subset size must be >= 1, got {t}")
    return t


@dataclass(frozen=True)
class PhiFunction:
    """One disparity function; callable on integer subset sizes.

    Use the classmethods to construct: :meth:`cauchy_schwarz`,
    :meth:`strongly_decaying`, :meth:`gaussian_empirical`.
    """

    variant: str
    alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.variant == "decay":
            if self.alpha is None or not self.alpha > 1.0:
                raise ValueError("decay variant requires alpha > 1")
        elif self.variant in ("cs", "gauss"):
            if self.alpha is not None:
                raise ValueError(f"{self.variant} variant takes no alpha")
        else:
            raise ValueError(f"unknown phi variant {self.variant!r}")

    @classmethod
    def cauchy_schwarz(cls) -> "PhiFunction":
        return cls("cs")

    @classmethod
    def strongly_decaying(cls, alpha: float) -> "PhiFunction":
        return cls("decay", alpha=float(alpha))

    @classmethod
    def gaussian_empirical(cls) -> "PhiFunction":
        return cls("gauss")

    def __call__(self, t: int) -> float:
        t = _check_size(t)
        if self.variant == "cs":
            return float(t)
        if self.variant == "decay":
            assert self.alpha is not None
            a = self.alpha
            # (a^t - 1)(a + 1) / ((a^t + 1)(a - 1)), rewritten in a^{-t}
            # so that a^t never overflows for large t.
            inv = a ** (-float(t))
            return (1.0 - inv) * (a + 1.0) / ((1.0 + inv) * (a - 1.0))
        if t <= _GAUSS_LINEAR_MAX:
            return float(t)
        if t <= _GAUSS_PLATEAU_MAX:
            return float(_GAUSS_LINEAR_MAX)
        return _GAUSS_SLOPE * t

    def values(self, t_max: int) -> np.ndarray:
        """phi evaluated at 1..t_max as a float vector."""
        t_max = _check_size(t_max)
        return np.array([self(t) for t in range(1, t_max + 1)])

    def label(self) -> str:
        if self.variant == "cs":
            return "cs"
        if self.variant == "decay":
            return f"decay{self.alpha:g}"
        return "gauss"


@dataclass(frozen=True, eq=False)
class PhiValidationReport:
    """Per-size outcome of an empirical disparity-condition check.

    ``trials`` standard normal vectors of length ``sizes[i]`` were
    drawn; ``successes[i]`` of them satisfied ``ratio <= phi(size)``.
    """

    phi: PhiFunction
    sizes: np.ndarray
    trials: int
    successes: np.ndarray

    @property
    def probabilities(self) -> np.ndarray:
        return self.successes / float(self.trials)

    @property
    def min_probability(self) -> float:
        return float(self.probabilities.min())

    def worst_size(self) -> int:
        return int(self.sizes[int(np.argmin(self.successes))])


def validate_phi_empirical(
    phi: PhiFunction,
    t_max: int,
    trials: int,
    key: StreamKey,
) -> PhiValidationReport:
    """Estimate how often Gaussian vectors satisfy the disparity condition.

    For each size ``t`` in ``1..t_max``, draws ``trials`` i.i.d.
    normal(0, 1) vectors of length ``t`` and counts those with
    ``||v||_1^2 / ||v||_2^2 <= phi(t)``, with no slack; the ratio is
    scale-free, so any sigma would give the same counts.  Each size has
    its own substream derived from ``key``, so the per-size counts do
    not depend on ``t_max`` and reruns reproduce byte-identical counts.
    A size's vectors are drawn from its stream in slices of about 1 MiB,
    so memory stays bounded whatever ``trials``; the counts are those of
    one ``trials``-by-``t`` draw.
    """
    t_max = _check_size(t_max)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base = key.with_purpose(Purpose.PHI_VALIDATION)
    sizes = np.arange(1, t_max + 1)
    successes = np.zeros(t_max, dtype=np.int64)
    for i, t in enumerate(sizes.tolist()):
        stream = base.generator(t)
        budget = phi(t)
        step = max(1, _DRAW_BYTES // (8 * t))
        for done in range(0, trials, step):
            draws = stream.standard_normal((min(step, trials - done), t))
            l1 = np.abs(draws).sum(axis=1)
            sq = np.einsum("ij,ij->i", draws, draws)
            successes[i] += np.count_nonzero(l1 * l1 / sq <= budget)
    return PhiValidationReport(phi=phi, sizes=sizes, trials=trials, successes=successes)
